// TKO_Message: zero-copy message abstraction (Section 4.2.1).
//
// A message is a rope of reference-counted buffer segments with a logical
// header region in front of the data region. Headers are prepended
// (`push`) and stripped (`consume`/`pop`) without touching payload bytes;
// `split` and `concat` support fragmentation/reassembly by sharing
// segments ("lazy copying").
//
// Copy-ledger discipline (DESIGN §13): the owning BufferPool's copy
// counters measure *intra-transport* byte movement — every memcpy whose
// source is bytes already held in message segments. That covers `pop`,
// `peek`, `linearize`, `deep_copy`, the gather in `flat`, and the
// unshare in `mutable_bytes`. Producing fresh bytes into a message
// (`push`, `append`, `push_uninit`, `append_uninit`, `filled`) is ingress,
// not copying: the transport cannot avoid materializing bytes it is handed,
// only re-moving them. The zero-copy hot path therefore reads through
// borrowed spans (`contiguous_prefix`, `flat` on single-segment messages)
// and strips headers with `consume`, recording nothing.
#pragma once

#include "os/buffer.hpp"
#include "os/buffer_pool.hpp"

#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace adaptive::tko {

class Message {
public:
  /// An empty message. `pool` (optional) receives allocation/copy stats.
  explicit Message(os::BufferPool* pool = nullptr) : pool_(pool) {}

  /// Build a message by copying `bytes` into one fresh segment.
  [[nodiscard]] static Message from_bytes(std::span<const std::uint8_t> bytes,
                                          os::BufferPool* pool = nullptr);

  /// Build an `n`-byte message of repeated `fill` bytes (one segment).
  [[nodiscard]] static Message filled(std::size_t n, std::uint8_t fill,
                                      os::BufferPool* pool = nullptr);

  /// Total length in bytes (headers + data).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Prepend `header` as a new front segment. Copies only the header bytes
  /// themselves — never the existing contents.
  void push(std::span<const std::uint8_t> header);

  /// Prepend an uninitialized `n`-byte front segment and return a writable
  /// span over it: header encoders produce their bytes in place instead of
  /// staging them in a scratch buffer.
  [[nodiscard]] std::span<std::uint8_t> push_uninit(std::size_t n);

  /// Append raw bytes as a new segment (copies `bytes` once).
  void append(std::span<const std::uint8_t> bytes);

  /// Append an uninitialized `n`-byte segment; returns a writable span.
  [[nodiscard]] std::span<std::uint8_t> append_uninit(std::size_t n);

  /// Strip and return the first `n` bytes (header parse; recorded copy).
  /// Throws std::out_of_range if the message is shorter than `n`.
  [[nodiscard]] std::vector<std::uint8_t> pop(std::size_t n);

  /// Read the first `n` bytes without consuming them (recorded copy).
  [[nodiscard]] std::vector<std::uint8_t> peek(std::size_t n) const;

  /// Drop the first `n` bytes by adjusting segment offsets — the zero-copy
  /// header strip. Throws std::out_of_range if the message is shorter.
  void consume(std::size_t n);

  /// Keep only the first `n` bytes (segment trim, no copy). A no-op when
  /// the message is already `n` bytes or shorter.
  void truncate(std::size_t n);

  /// Borrowed view of the first `n` bytes when they are contiguous in the
  /// front segment; an empty span otherwise (caller falls back to peek).
  /// Never copies, never records.
  [[nodiscard]] std::span<const std::uint8_t> contiguous_prefix(std::size_t n) const;

  /// Contiguous read-only view of the whole message. Single-segment
  /// messages return a borrowed span — no bytes move, nothing is recorded.
  /// Multi-segment messages are coalesced in place first (one recorded
  /// gather copy); the view stays valid until the next mutation.
  [[nodiscard]] std::span<const std::uint8_t> flat();

  /// Contiguous writable view with copy-on-write semantics: coalesces
  /// and/or unshares the underlying buffer when other Message clones alias
  /// it (recorded copy), otherwise mutates in place for free. Used by the
  /// link layer's bit-error injection so wire damage never reaches the
  /// retransmission store's shared copy.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes();

  /// Append another message's segments (reassembly); `tail` is consumed.
  /// Adopts the tail's lifecycle id (and pool) when this message has none,
  /// so reassembled TSDUs stay attributable to their application unit.
  void concat(Message&& tail);

  /// Split at byte offset `at`: this message keeps [0, at), the returned
  /// message holds [at, size). Shares buffers; no payload copy.
  [[nodiscard]] Message split(std::size_t at);

  /// Shallow copy: shares all segments (the "lazy copy" the paper calls
  /// for when a PDU is both transmitted and kept for retransmission).
  [[nodiscard]] Message clone() const { return *this; }

  /// Full physical copy into one contiguous segment (one recorded copy).
  [[nodiscard]] Message deep_copy() const;

  /// Contiguous byte image in a fresh vector (recorded copy: every byte is
  /// physically duplicated, regardless of segment count).
  [[nodiscard]] std::vector<std::uint8_t> linearize() const;

  /// Number of underlying segments (diagnostic).
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

  /// Message lifecycle id (whitebox spans, DESIGN §11): set by the source
  /// application (unit id + 1; 0 = untracked), preserved across push/
  /// split/concat/clone so every segment and retransmission of one
  /// application message stays attributable to it. A local annotation only
  /// — it never crosses the wire.
  [[nodiscard]] std::uint64_t lifecycle() const { return lifecycle_; }
  void set_lifecycle(std::uint64_t id) { lifecycle_ = id; }

  /// Visit each contiguous byte range in order (checksum streaming).
  template <typename Fn>
  void for_each_segment(Fn&& fn) const {
    for (const auto& s : segments_) {
      fn(std::span<const std::uint8_t>(s.buf->data() + s.off, s.len));
    }
  }

  [[nodiscard]] os::BufferPool* pool() const { return pool_; }

  /// Re-target accounting: future allocations and recorded copies land in
  /// `pool`. Used when a wire message crosses from the sender's host to
  /// the receiver's (the segments themselves stay shared).
  void set_pool(os::BufferPool* pool) { pool_ = pool; }

private:
  struct Segment {
    os::BufferRef buf;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  /// Small-buffer vector for the segment chain. Hot-path messages carry
  /// one to three segments (a payload chunk, a pushed header, a trailer),
  /// so the chain lives inline and constructing, splitting, or cloning a
  /// Message costs no allocation; longer reassembly ropes spill to the
  /// heap. Front pops shift left — the chain is tiny, and that still
  /// beats std::deque's mandatory per-message allocations.
  class SegmentChain {
  public:
    using iterator = Segment*;
    using const_iterator = const Segment*;

    SegmentChain() = default;
    SegmentChain(const SegmentChain& o) { append_from(o); }
    SegmentChain(SegmentChain&& o) noexcept { take_from(std::move(o)); }
    SegmentChain& operator=(const SegmentChain& o) {
      if (this != &o) {
        release();
        append_from(o);
      }
      return *this;
    }
    SegmentChain& operator=(SegmentChain&& o) noexcept {
      if (this != &o) {
        release();
        take_from(std::move(o));
      }
      return *this;
    }
    ~SegmentChain() { release(); }

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] Segment& front() { return data_[0]; }
    [[nodiscard]] const Segment& front() const { return data_[0]; }
    [[nodiscard]] iterator begin() { return data_; }
    [[nodiscard]] iterator end() { return data_ + size_; }
    [[nodiscard]] const_iterator begin() const { return data_; }
    [[nodiscard]] const_iterator end() const { return data_ + size_; }

    void push_back(Segment&& s) {
      reserve(size_ + 1);
      new (data_ + size_) Segment(std::move(s));
      ++size_;
    }
    void push_back(const Segment& s) { push_back(Segment(s)); }

    void push_front(Segment&& s) {
      reserve(size_ + 1);
      if (size_ > 0) {
        new (data_ + size_) Segment(std::move(data_[size_ - 1]));
        for (std::size_t i = size_ - 1; i > 0; --i) data_[i] = std::move(data_[i - 1]);
        data_[0] = std::move(s);
      } else {
        new (data_) Segment(std::move(s));
      }
      ++size_;
    }

    void pop_front() { erase(data_, data_ + 1); }

    iterator erase(iterator first, iterator last) {
      const auto idx = first - data_;
      const std::size_t removed = static_cast<std::size_t>(last - first);
      for (iterator from = last, to = first; from != data_ + size_; ++from, ++to) {
        *to = std::move(*from);
      }
      for (std::size_t i = size_ - removed; i < size_; ++i) data_[i].~Segment();
      size_ -= removed;
      return data_ + idx;
    }

    void clear() { erase(data_, data_ + size_); }

  private:
    static constexpr std::size_t kInline = 3;

    [[nodiscard]] Segment* inline_data() {
      return reinterpret_cast<Segment*>(inline_storage_);
    }

    void reserve(std::size_t need) {
      if (need <= cap_) return;
      std::size_t cap = cap_ * 2;
      while (cap < need) cap *= 2;
      auto* mem = static_cast<Segment*>(::operator new(cap * sizeof(Segment)));
      for (std::size_t i = 0; i < size_; ++i) {
        new (mem + i) Segment(std::move(data_[i]));
        data_[i].~Segment();
      }
      if (data_ != inline_data()) ::operator delete(data_);
      data_ = mem;
      cap_ = cap;
    }

    /// Destroy all elements and return to the empty inline state.
    void release() {
      for (std::size_t i = 0; i < size_; ++i) data_[i].~Segment();
      if (data_ != inline_data()) ::operator delete(data_);
      data_ = inline_data();
      size_ = 0;
      cap_ = kInline;
    }

    void append_from(const SegmentChain& o) {
      reserve(o.size_);
      for (std::size_t i = 0; i < o.size_; ++i) new (data_ + i) Segment(o.data_[i]);
      size_ = o.size_;
    }

    void take_from(SegmentChain&& o) {
      if (o.data_ != o.inline_data()) {
        // Steal the heap block outright.
        data_ = o.data_;
        size_ = o.size_;
        cap_ = o.cap_;
        o.data_ = o.inline_data();
        o.size_ = 0;
        o.cap_ = kInline;
      } else {
        for (std::size_t i = 0; i < o.size_; ++i) {
          new (data_ + i) Segment(std::move(o.data_[i]));
          o.data_[i].~Segment();
        }
        size_ = o.size_;
        o.size_ = 0;
      }
    }

    alignas(Segment) unsigned char inline_storage_[kInline * sizeof(Segment)];
    Segment* data_ = inline_data();
    std::size_t size_ = 0;
    std::size_t cap_ = kInline;
  };

  void record_copy(std::size_t bytes) const {
    if (pool_ != nullptr) pool_->record_copy(bytes);
  }
  [[nodiscard]] os::BufferRef alloc(std::size_t n) const;
  /// Gather all segments into one fresh segment (recorded when any bytes
  /// actually move, i.e. the message is non-empty and not already flat).
  void coalesce();

  os::BufferPool* pool_ = nullptr;
  SegmentChain segments_;
  std::size_t size_ = 0;
  std::uint64_t lifecycle_ = 0;
};

}  // namespace adaptive::tko
