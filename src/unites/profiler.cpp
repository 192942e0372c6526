#include "unites/profiler.hpp"

#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <cstring>

namespace adaptive::unites {

// ---------------------------------------------------------------------------
// Wall-tick calibration
// ---------------------------------------------------------------------------

namespace detail {
namespace {

/// First (ticks, steady_clock) pair observed; the conversion factor is
/// measured against a second pair taken at snapshot time, so accuracy
/// grows with the profiled interval.
struct CalibrationAnchor {
  std::uint64_t ticks = wall_ticks();
  std::chrono::steady_clock::time_point when = std::chrono::steady_clock::now();
};

CalibrationAnchor& anchor() {
  static CalibrationAnchor a;
  return a;
}

double ns_per_wall_tick() {
  const CalibrationAnchor& a = anchor();
  const std::uint64_t ticks_now = wall_ticks();
  const auto elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - a.when)
                              .count();
  if (ticks_now <= a.ticks || elapsed_ns <= 0) return 1.0;
  return static_cast<double>(elapsed_ns) / static_cast<double>(ticks_now - a.ticks);
}

}  // namespace

void anchor_wall_calibration() { (void)anchor(); }

}  // namespace detail

// ---------------------------------------------------------------------------
// ProfileNode / ProfileTree
// ---------------------------------------------------------------------------

namespace {

// Insert-or-merge `from` into the name-sorted sibling list `into`.
void merge_child(std::vector<ProfileNode>& into, const ProfileNode& from) {
  auto it = std::lower_bound(into.begin(), into.end(), from,
                             [](const ProfileNode& a, const ProfileNode& b) {
                               return a.name < b.name;
                             });
  if (it != into.end() && it->name == from.name) {
    it->merge(from);
  } else {
    into.insert(it, from);
  }
}

std::size_t count_zones(const ProfileNode& n) {
  std::size_t total = 1;
  for (const auto& c : n.children) total += count_zones(c);
  return total;
}

}  // namespace

void ProfileNode::merge(const ProfileNode& other) {
  calls += other.calls;
  sim_ns += other.sim_ns;
  wall_ns += other.wall_ns;
  for (const auto& c : other.children) merge_child(children, c);
}

void ProfileTree::merge(const ProfileTree& other) {
  for (const auto& r : other.roots) merge_child(roots, r);
}

std::size_t ProfileTree::zone_count() const {
  std::size_t total = 0;
  for (const auto& r : roots) {
    for (const auto& c : r.children) total += count_zones(c);
  }
  return total;
}

namespace {

void fold_node(const ProfileNode& n, std::string& stack, bool wall, std::string& out) {
  const std::size_t mark = stack.size();
  if (!stack.empty()) stack += ';';
  stack += n.name;
  const std::uint64_t weight = wall ? n.wall_ns : n.calls;
  if (weight > 0) {
    out += stack;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  for (const auto& c : n.children) fold_node(c, stack, wall, out);
  stack.resize(mark);
}

}  // namespace

std::string ProfileTree::to_folded(bool wall) const {
  std::string out;
  std::string stack;
  for (const auto& r : roots) fold_node(r, stack, wall, out);
  return out;
}

const ProfileNode* ProfileTree::find(std::initializer_list<std::string_view> path) const {
  const std::vector<ProfileNode>* level = &roots;
  const ProfileNode* hit = nullptr;
  for (const std::string_view name : path) {
    hit = nullptr;
    for (const auto& n : *level) {
      if (n.name == name) {
        hit = &n;
        break;
      }
    }
    if (hit == nullptr) return nullptr;
    level = &hit->children;
  }
  return hit;
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

namespace {
thread_local Profiler* tls_profiler = nullptr;
}  // namespace

Profiler& Profiler::current() {
  if (tls_profiler != nullptr) return *tls_profiler;
  thread_local Profiler thread_default;
  return thread_default;
}

Profiler* Profiler::install(Profiler* p) {
  Profiler* prev = tls_profiler;
  tls_profiler = p;
  return prev;
}

Profiler::~Profiler() = default;

std::int64_t Profiler::sim_now_ns() const { return clock_->now().ns(); }

Profiler::Node* Profiler::open(const char* zone, std::uint32_t session) {
  Node* parent = cursor_;
  if (parent == nullptr) {
    // Top-level zone: attach under the session root (created on demand).
    std::unique_ptr<Node>& root = roots_[session];
    if (root == nullptr) {
      root = std::make_unique<Node>();
      root->name = "session";
      root->session = session;
    }
    parent = root.get();
  }
  for (const auto& c : parent->children) {
    if (c->name == zone) {
      cursor_ = c.get();
      ++entered_;
      return cursor_;
    }
  }
  auto child = std::make_unique<Node>();
  child->name = zone;
  child->parent = parent;
  cursor_ = child.get();
  parent->children.push_back(std::move(child));
  ++entered_;
  return cursor_;
}

void Profiler::close(Node* n) {
  // A session root's parent is null, so closing a top-level zone resets
  // the cursor and the next top-level scope can pick its own session.
  cursor_ = n->parent != nullptr && n->parent->parent == nullptr ? nullptr : n->parent;
}

// Coalesce live children by string *content*: two call sites using equal
// zone literals from different translation units land in one node, and
// the resulting sibling order is the sorted name order, never an address.
ProfileNode Profiler::snapshot_node(const Node& n, double ns_per_tick) {
  ProfileNode out;
  out.name = n.name;
  out.calls = n.calls;
  out.sim_ns = n.sim_ns;
  out.wall_ns = static_cast<std::uint64_t>(static_cast<double>(n.wall_ticks) * ns_per_tick);
  for (const auto& c : n.children) merge_child(out.children, snapshot_node(*c, ns_per_tick));
  return out;
}

ProfileTree Profiler::snapshot() const {
  // Session roots sorted by id; root names become "session/<id>".
  std::vector<const Node*> roots;
  roots.reserve(roots_.size());
  for (const auto& [session, r] : roots_) roots.push_back(r.get());
  std::sort(roots.begin(), roots.end(),
            [](const Node* a, const Node* b) { return a->session < b->session; });

  ProfileTree tree;
  tree.roots.reserve(roots.size());
  const double ns_per_tick = detail::ns_per_wall_tick();
  for (const Node* r : roots) {
    ProfileNode root = snapshot_node(*r, ns_per_tick);
    root.name = "session/" + std::to_string(r->session);
    tree.roots.push_back(std::move(root));
  }
  return tree;
}

void Profiler::clear() {
  roots_.clear();
  cursor_ = nullptr;
  top_scope_ = nullptr;
  entered_ = 0;
}

// ---------------------------------------------------------------------------
// ProfileScope
// ---------------------------------------------------------------------------

void ProfileScope::enter(Profiler& p, const char* zone, std::uint32_t session) {
  prof_ = &p;
  node_ = p.open(zone, session);
  parent_ = p.top_scope_;
  p.top_scope_ = this;
  sim_start_ = p.sim_now_ns();
  wall_start_ = detail::wall_ticks();
}

void ProfileScope::leave() {
  const std::int64_t sim_elapsed = prof_->sim_now_ns() - sim_start_;
  const std::uint64_t wall_elapsed = detail::wall_ticks() - wall_start_;
  ++node_->calls;
  node_->sim_ns += sim_elapsed - child_sim_;
  node_->wall_ticks += wall_elapsed >= child_wall_ ? wall_elapsed - child_wall_ : 0;
  prof_->close(node_);
  prof_->top_scope_ = parent_;
  if (parent_ != nullptr) {
    parent_->child_sim_ += sim_elapsed;
    parent_->child_wall_ += wall_elapsed;
  }
}

}  // namespace adaptive::unites
