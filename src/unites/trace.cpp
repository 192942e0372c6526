#include "unites/trace.hpp"

namespace adaptive::unites {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kTko: return "tko";
    case TraceCategory::kMantts: return "mantts";
    case TraceCategory::kApp: return "app";
    case TraceCategory::kConformance: return "conformance";
  }
  return "?";
}

void TraceRecorder::enable(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_ < kDefaultCapacity ? capacity_ : kDefaultCapacity);
  head_ = 0;
  emitted_ = 0;
  enabled_ = true;
}

void TraceRecorder::disable() { enabled_ = false; }

void TraceRecorder::push(TraceEvent&& e) {
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  // head_ is the oldest retained event once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

}  // namespace adaptive::unites
