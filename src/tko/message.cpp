#include "tko/message.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace adaptive::tko {

os::BufferRef Message::alloc(std::size_t n) const {
  if (pool_ != nullptr) return pool_->allocate(n);
  return std::make_shared<os::Buffer>(n);
}

Message Message::from_bytes(std::span<const std::uint8_t> bytes, os::BufferPool* pool) {
  Message m(pool);
  m.append(bytes);
  return m;
}

Message Message::filled(std::size_t n, std::uint8_t fill, os::BufferPool* pool) {
  Message m(pool);
  if (n > 0) {
    auto span = m.append_uninit(n);
    std::memset(span.data(), fill, n);
  }
  return m;
}

void Message::append(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  auto dst = append_uninit(bytes.size());
  std::memcpy(dst.data(), bytes.data(), bytes.size());
}

std::span<std::uint8_t> Message::append_uninit(std::size_t n) {
  if (n == 0) return {};
  auto buf = alloc(n);
  std::uint8_t* data = buf->data();
  segments_.push_back(Segment{std::move(buf), 0, n});
  size_ += n;
  return {data, n};
}

void Message::push(std::span<const std::uint8_t> header) {
  if (header.empty()) return;
  auto dst = push_uninit(header.size());
  std::memcpy(dst.data(), header.data(), header.size());
}

std::span<std::uint8_t> Message::push_uninit(std::size_t n) {
  if (n == 0) return {};
  auto buf = alloc(n);
  std::uint8_t* data = buf->data();
  segments_.push_front(Segment{std::move(buf), 0, n});
  size_ += n;
  return {data, n};
}

std::vector<std::uint8_t> Message::pop(std::size_t n) {
  if (n > size_) throw std::out_of_range("Message::pop: message too short");
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    Segment& s = segments_.front();
    const std::size_t take = std::min(n - out.size(), s.len);
    out.insert(out.end(), s.buf->data() + s.off, s.buf->data() + s.off + take);
    s.off += take;
    s.len -= take;
    size_ -= take;
    if (s.len == 0) segments_.pop_front();
  }
  record_copy(n);
  return out;
}

std::vector<std::uint8_t> Message::peek(std::size_t n) const {
  if (n > size_) throw std::out_of_range("Message::peek: message too short");
  std::vector<std::uint8_t> out;
  out.reserve(n);
  for (const auto& s : segments_) {
    if (out.size() >= n) break;
    const std::size_t take = std::min(n - out.size(), s.len);
    out.insert(out.end(), s.buf->data() + s.off, s.buf->data() + s.off + take);
  }
  record_copy(n);
  return out;
}

void Message::consume(std::size_t n) {
  if (n > size_) throw std::out_of_range("Message::consume: message too short");
  while (n > 0) {
    Segment& s = segments_.front();
    const std::size_t take = std::min(n, s.len);
    s.off += take;
    s.len -= take;
    size_ -= take;
    n -= take;
    if (s.len == 0) segments_.pop_front();
  }
}

void Message::truncate(std::size_t n) {
  if (n >= size_) return;
  std::size_t kept = 0;
  auto it = segments_.begin();
  while (it != segments_.end() && kept + it->len <= n) {
    kept += it->len;
    ++it;
  }
  if (it != segments_.end() && kept < n) {
    it->len = n - kept;
    ++it;
  }
  segments_.erase(it, segments_.end());
  size_ = n;
}

std::span<const std::uint8_t> Message::contiguous_prefix(std::size_t n) const {
  if (n == 0 || segments_.empty() || segments_.front().len < n) return {};
  const Segment& s = segments_.front();
  return {s.buf->data() + s.off, n};
}

void Message::coalesce() {
  if (segments_.size() <= 1) return;
  auto buf = alloc(size_);
  std::size_t pos = 0;
  for (const auto& s : segments_) {
    std::memcpy(buf->data() + pos, s.buf->data() + s.off, s.len);
    pos += s.len;
  }
  record_copy(size_);
  segments_.clear();
  segments_.push_back(Segment{std::move(buf), 0, size_});
}

std::span<const std::uint8_t> Message::flat() {
  if (segments_.empty()) return {};
  coalesce();
  const Segment& s = segments_.front();
  return {s.buf->data() + s.off, s.len};
}

std::span<std::uint8_t> Message::mutable_bytes() {
  if (segments_.empty()) return {};
  coalesce();
  Segment& s = segments_.front();
  if (s.buf.use_count() > 1) {
    // Unshare: another clone (a retransmission store, a duplicate packet)
    // aliases this buffer; copy before mutating so the damage stays local.
    auto buf = alloc(s.len);
    std::memcpy(buf->data(), s.buf->data() + s.off, s.len);
    record_copy(s.len);
    s = Segment{std::move(buf), 0, s.len};
  }
  return {s.buf->data() + s.off, s.len};
}

void Message::concat(Message&& tail) {
  if (pool_ == nullptr) pool_ = tail.pool_;
  if (lifecycle_ == 0) lifecycle_ = tail.lifecycle_;
  for (auto& s : tail.segments_) {
    size_ += s.len;
    segments_.push_back(std::move(s));
  }
  tail.segments_.clear();
  tail.size_ = 0;
  tail.lifecycle_ = 0;
}

Message Message::split(std::size_t at) {
  if (at > size_) throw std::out_of_range("Message::split: offset beyond end");
  Message tail(pool_);
  tail.lifecycle_ = lifecycle_;  // every segment of a tracked TSDU stays tracked
  std::size_t kept = 0;
  auto it = segments_.begin();
  while (it != segments_.end() && kept + it->len <= at) {
    kept += it->len;
    ++it;
  }
  if (it != segments_.end() && kept < at) {
    // Split this segment: the head keeps a prefix, the tail shares the
    // same buffer at an adjusted offset (no byte copies).
    const std::size_t head_len = at - kept;
    tail.segments_.push_back(Segment{it->buf, it->off + head_len, it->len - head_len});
    it->len = head_len;
    ++it;
  }
  for (auto jt = it; jt != segments_.end(); ++jt) {
    tail.segments_.push_back(std::move(*jt));
  }
  segments_.erase(it, segments_.end());
  for (const auto& s : tail.segments_) tail.size_ += s.len;
  size_ = at;
  return tail;
}

Message Message::deep_copy() const {
  Message out(pool_);
  out.lifecycle_ = lifecycle_;
  if (size_ > 0) {
    auto buf = alloc(size_);
    std::size_t pos = 0;
    for (const auto& s : segments_) {
      std::memcpy(buf->data() + pos, s.buf->data() + s.off, s.len);
      pos += s.len;
    }
    record_copy(size_);  // one physical pass, one ledger entry
    out.segments_.push_back(Segment{std::move(buf), 0, size_});
    out.size_ = size_;
  }
  return out;
}

std::vector<std::uint8_t> Message::linearize() const {
  std::vector<std::uint8_t> out;
  out.reserve(size_);
  for (const auto& s : segments_) {
    out.insert(out.end(), s.buf->data() + s.off, s.buf->data() + s.off + s.len);
  }
  // Every byte was physically duplicated into the vector; a copy happened
  // whenever the message was non-empty (the old `size() > 1 || !empty()`
  // predicate said the same thing in a way that read like a bug).
  if (!segments_.empty()) record_copy(size_);
  return out;
}

}  // namespace adaptive::tko
