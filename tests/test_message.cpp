// Tests for TKO_Message (zero-copy rope), checksums, and the PDU codec.
#include "tko/checksum.hpp"
#include "tko/message.hpp"
#include "tko/pdu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <span>

namespace adaptive::tko {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(Message, FromBytesAndLinearize) {
  const auto data = iota_bytes(100);
  auto m = Message::from_bytes(data);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.linearize(), data);
}

TEST(Message, PushPopHeaders) {
  auto m = Message::from_bytes(iota_bytes(10));
  m.push(bytes({0xAA, 0xBB}));
  EXPECT_EQ(m.size(), 12u);
  const auto h = m.pop(2);
  EXPECT_EQ(h, bytes({0xAA, 0xBB}));
  EXPECT_EQ(m.size(), 10u);
  EXPECT_EQ(m.linearize(), iota_bytes(10));
}

TEST(Message, PushDoesNotCopyPayload) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(1000), &pool);
  const auto copies_before = pool.stats().copied_bytes;
  m.push(bytes({1, 2, 3, 4}));
  EXPECT_EQ(pool.stats().copied_bytes, copies_before);  // header prepend is copy-free
}

TEST(Message, PopAcrossSegments) {
  auto m = Message::from_bytes(bytes({1, 2}));
  m.push(bytes({0xFF}));  // segments: [FF][1 2]
  const auto head = m.pop(2);
  EXPECT_EQ(head, bytes({0xFF, 1}));
  EXPECT_EQ(m.linearize(), bytes({2}));
  EXPECT_THROW((void)m.pop(5), std::out_of_range);
}

TEST(Message, PeekDoesNotConsume) {
  auto m = Message::from_bytes(iota_bytes(16));
  EXPECT_EQ(m.peek(4), bytes({0, 1, 2, 3}));
  EXPECT_EQ(m.size(), 16u);
}

TEST(Message, SplitSharesBuffers) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  const auto copies_before = pool.stats().copied_bytes;
  auto tail = m.split(40);
  EXPECT_EQ(m.size(), 40u);
  EXPECT_EQ(tail.size(), 60u);
  EXPECT_EQ(pool.stats().copied_bytes, copies_before);  // zero-copy split
  auto all = m.linearize();
  const auto t = tail.linearize();
  all.insert(all.end(), t.begin(), t.end());
  EXPECT_EQ(all, iota_bytes(100));
}

TEST(Message, SplitEdgeCases) {
  auto m = Message::from_bytes(iota_bytes(10));
  auto tail = m.split(0);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(tail.size(), 10u);
  auto tail2 = tail.split(10);
  EXPECT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail2.size(), 0u);
  EXPECT_THROW((void)tail.split(11), std::out_of_range);
}

TEST(Message, ConcatReassembles) {
  auto a = Message::from_bytes(bytes({1, 2, 3}));
  auto b = Message::from_bytes(bytes({4, 5}));
  a.concat(std::move(b));
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.linearize(), bytes({1, 2, 3, 4, 5}));
}

TEST(Message, CloneIsShallowDeepCopyIsNot) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(50), &pool);
  pool.reset_stats();
  auto shallow = m.clone();
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  auto deep = m.deep_copy();
  EXPECT_GE(pool.stats().copied_bytes, 50u);
  EXPECT_EQ(shallow.linearize(), deep.linearize());
}

TEST(Message, SegmentIterationCoversAllBytes) {
  auto m = Message::from_bytes(iota_bytes(10));
  m.push(bytes({0xEE}));
  m.append(bytes({0xDD}));
  std::vector<std::uint8_t> seen;
  m.for_each_segment([&](std::span<const std::uint8_t> s) {
    seen.insert(seen.end(), s.begin(), s.end());
  });
  EXPECT_EQ(seen, m.linearize());
  EXPECT_EQ(m.segment_count(), 3u);
}

// ---------------------------------------------------------------------------
// Copy-ledger discipline: the pool's copy counters must agree exactly with
// real memcpy traffic. Producing bytes into a message (append/push/filled)
// is ingress and records nothing; every read or gather that physically
// duplicates message bytes records exactly the bytes moved.
// ---------------------------------------------------------------------------

TEST(CopyLedger, IngressRecordsNothing) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  m.append(iota_bytes(50));
  m.push(bytes({1, 2, 3, 4}));
  auto w = m.push_uninit(8);
  std::fill(w.begin(), w.end(), std::uint8_t{0});
  EXPECT_EQ(pool.stats().copies, 0u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
}

TEST(CopyLedger, PopPeekRecordExactBytes) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  (void)m.peek(8);
  EXPECT_EQ(pool.stats().copied_bytes, 8u);
  (void)m.pop(12);
  EXPECT_EQ(pool.stats().copied_bytes, 20u);
  EXPECT_EQ(pool.stats().copies, 2u);
}

TEST(CopyLedger, ConsumeTruncateSplitConcatAreCopyFree) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(60), &pool);
  m.push(bytes({9, 9, 9, 9}));
  m.consume(4);                 // offset adjust, not a pop
  auto tail = m.split(20);      // shared buffers
  m.concat(std::move(tail));    // splice back
  m.truncate(30);               // segment trim
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  EXPECT_EQ(m.linearize(), iota_bytes(30));
  EXPECT_EQ(pool.stats().copied_bytes, 30u);  // the linearize itself
}

TEST(CopyLedger, LinearizeRecordsOnlyWhenBytesExist) {
  os::BufferPool pool;
  Message empty(&pool);
  EXPECT_TRUE(empty.linearize().empty());
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  // A single-segment message still physically duplicates every byte into
  // the returned vector — the ledger must say so (the old predicate
  // recorded for any non-empty message by accident of a tautology; the
  // count itself was right, the reasoning was not).
  auto m = Message::from_bytes(iota_bytes(50), &pool);
  (void)m.linearize();
  EXPECT_EQ(pool.stats().copied_bytes, 50u);
  EXPECT_EQ(pool.stats().copies, 1u);
}

TEST(CopyLedger, DeepCopyRecordsOnePassExactly) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(40), &pool);
  m.push(bytes({1, 2}));
  m.append(bytes({3, 4}));  // 3 segments, 44 bytes
  pool.reset_stats();
  auto deep = m.deep_copy();
  // One physical gather pass: exactly size() bytes, exactly one ledger
  // entry (the old implementation copied twice and recorded once).
  EXPECT_EQ(pool.stats().copied_bytes, 44u);
  EXPECT_EQ(pool.stats().copies, 1u);
  EXPECT_EQ(deep.segment_count(), 1u);
  EXPECT_EQ(deep.linearize(), m.linearize());
}

TEST(CopyLedger, ContiguousPrefixBorrowsWithoutRecording) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(10), &pool);
  m.push(bytes({7, 8, 9}));
  const auto got = m.contiguous_prefix(3);  // front segment covers it
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[2], 9);
  EXPECT_TRUE(m.contiguous_prefix(4).empty());  // crosses a boundary: decline
  EXPECT_EQ(m.size(), 13u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
}

TEST(CopyLedger, FlatBorrowsSingleSegmentGathersMultiOnce) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(64), &pool);
  const auto borrowed = m.flat();
  EXPECT_EQ(borrowed.size(), 64u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);  // single segment: pure borrow
  m.append(iota_bytes(36));
  const auto gathered = m.flat();
  EXPECT_EQ(gathered.size(), 100u);
  EXPECT_EQ(pool.stats().copied_bytes, 100u);  // one recorded gather
  (void)m.flat();
  EXPECT_EQ(pool.stats().copied_bytes, 100u);  // now flat: borrow again
}

TEST(CopyLedger, MutableBytesCopiesOnlyWhenAliased) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(32), &pool);
  (void)m.mutable_bytes();
  EXPECT_EQ(pool.stats().copied_bytes, 0u);  // sole owner: in-place
  auto keeper = m.clone();                   // retransmission-store alias
  auto view = m.mutable_bytes();
  EXPECT_EQ(pool.stats().copied_bytes, 32u);  // unshare recorded
  view[0] = 0xFF;
  EXPECT_EQ(keeper.peek(1)[0], 0u);  // the shared copy stayed pristine
}

TEST(Lifecycle, ConcatAdoptsTailIdAndSplitPropagates) {
  auto m = Message::from_bytes(iota_bytes(20));
  m.set_lifecycle(9);
  auto tail = m.split(12);
  EXPECT_EQ(tail.lifecycle(), 9u);  // split propagates
  // Reassembly starts from an untracked accumulator; splicing in a tracked
  // segment must keep the TSDU attributable (the bug fix: concat used to
  // drop the tail's id and break span stitching in unites::assemble_spans).
  Message assembly;
  assembly.concat(std::move(tail));
  EXPECT_EQ(assembly.lifecycle(), 9u);
  assembly.concat(std::move(m));
  EXPECT_EQ(assembly.lifecycle(), 9u);  // an existing id is never overwritten
  auto other = Message::from_bytes(iota_bytes(4));
  other.set_lifecycle(5);
  assembly.concat(std::move(other));
  EXPECT_EQ(assembly.lifecycle(), 9u);
}

TEST(Lifecycle, SurvivesSplitConcatRoundTrip) {
  auto m = Message::from_bytes(iota_bytes(30));
  m.set_lifecycle(3);
  auto tail = m.split(10);
  m.concat(std::move(tail));
  EXPECT_EQ(m.lifecycle(), 3u);
  EXPECT_EQ(m.linearize(), iota_bytes(30));
  EXPECT_EQ(m.deep_copy().lifecycle(), 3u);
}

TEST(ZeroCopy, SendPathKeepsPayloadSegmentsUntouched) {
  // encode_pdu must produce headers in place and stream the checksum: the
  // payload segments ride through with no recorded copy in either trailer
  // checksum mode.
  for (const auto kind : {ChecksumKind::kInternet16, ChecksumKind::kCrc32}) {
    os::BufferPool pool;
    Pdu p;
    p.type = PduType::kData;
    p.payload = Message::from_bytes(iota_bytes(1200), &pool);
    pool.reset_stats();
    auto wire = encode_pdu(std::move(p), kind, ChecksumPlacement::kTrailer);
    EXPECT_EQ(pool.stats().copied_bytes, 0u);
    // Decode strips the header by offset adjustment, verifies the trailer
    // in place, and hands the payload segments back: still no copies.
    auto r = decode_pdu(std::move(wire));
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(pool.stats().copied_bytes, 0u);
    EXPECT_EQ(r.pdu.payload.size(), 1200u);
  }
}

TEST(ZeroCopy, StreamingInternetChecksumMatchesFlatAtOddBoundaries) {
  const auto data = iota_bytes(1001);  // odd total
  InternetChecksum inc;
  // Feed with odd-length segments so word sums straddle every boundary.
  inc.update(std::span(data).subspan(0, 1));
  inc.update(std::span(data).subspan(1, 333));
  inc.update(std::span(data).subspan(334, 5));
  inc.update(std::span(data).subspan(339));
  EXPECT_EQ(inc.value(), internet_checksum(data));
}

TEST(Checksum, Rfc1071KnownVector) {
  // Classic example: bytes 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
  const auto data = bytes({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthHandled) {
  const auto even = bytes({0x12, 0x34});
  const auto odd = bytes({0x12, 0x34, 0x56});
  EXPECT_NE(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, Crc32KnownVector) {
  const std::string s = "123456789";
  std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Checksum, Crc32IncrementalMatchesOneShot) {
  const auto data = iota_bytes(1000);
  Crc32 inc;
  inc.update(std::span(data).subspan(0, 137));
  inc.update(std::span(data).subspan(137, 400));
  inc.update(std::span(data).subspan(537));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Checksum, DetectsSingleBitFlip) {
  auto data = iota_bytes(500);
  const auto before16 = internet_checksum(data);
  const auto before32 = crc32(data);
  data[250] ^= 0x10;
  EXPECT_NE(internet_checksum(data), before16);
  EXPECT_NE(crc32(data), before32);
}

// ---------------------------------------------------------------------------
// Differential checks: the word-at-a-time Internet checksum and the
// slice-by-8 CRC-32 against one-byte-at-a-time references, over every
// start alignment and the carry-stress patterns (all 0xFF saturates every
// 16-bit lane; 0xFF/0x00 loads only high or only low bytes).
// ---------------------------------------------------------------------------

/// RFC 1071 reference: bytes at even offsets are the high halves of
/// big-endian 16-bit words, bytes at odd offsets the low halves.
class ReferenceInternetChecksum {
public:
  void add(std::uint8_t b) {
    sum_ += (count_++ % 2 == 0) ? std::uint64_t{b} << 8 : std::uint64_t{b};
  }
  [[nodiscard]] std::uint16_t value() const {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    return static_cast<std::uint16_t>(~s & 0xFFFF);
  }

private:
  std::uint64_t sum_ = 0;
  std::size_t count_ = 0;
};

/// Bitwise CRC-32 (IEEE 802.3, reflected), one bit per step.
class ReferenceCrc32 {
public:
  void add(std::uint8_t b) {
    c_ ^= b;
    for (int k = 0; k < 8; ++k) c_ = (c_ & 1u) ? 0xEDB88320u ^ (c_ >> 1) : c_ >> 1;
  }
  [[nodiscard]] std::uint32_t value() const { return ~c_; }

private:
  std::uint32_t c_ = 0xFFFF'FFFFu;
};

constexpr std::size_t kMaxChecksumLen = 9216;  // jumbo-frame payload

/// Pattern 0: seeded random; 1: all 0xFF; 2: alternating 0xFF/0x00.
/// Padded by 7 bytes so any start offset 0..7 can read kMaxChecksumLen.
std::vector<std::uint8_t> checksum_pattern(int pattern) {
  std::vector<std::uint8_t> buf(kMaxChecksumLen + 7);
  std::mt19937_64 rng(0xC0FFEE);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    switch (pattern) {
      case 0: buf[i] = static_cast<std::uint8_t>(rng()); break;
      case 1: buf[i] = 0xFF; break;
      default: buf[i] = (i % 2 == 0) ? 0xFF : 0x00; break;
    }
  }
  return buf;
}

TEST(ChecksumDifferential, OneShotMatchesReferenceAtEveryLengthAndAlignment) {
  for (int pattern = 0; pattern < 3; ++pattern) {
    const auto buf = checksum_pattern(pattern);
    for (std::size_t off = 0; off < 8; ++off) {
      SCOPED_TRACE(::testing::Message() << "pattern " << pattern << " offset " << off);
      // The references advance one byte per length, so every prefix
      // length is checked against them. The Internet checksum runs at
      // every length; CRC-32 every length up to 1 KiB (all slice-by-8 tail
      // shapes), then every 7th (all residues mod 8), then the top 8.
      ReferenceInternetChecksum ref16;
      ReferenceCrc32 ref32;
      for (std::size_t len = 0; len <= kMaxChecksumLen; ++len) {
        if (len > 0) {
          ref16.add(buf[off + len - 1]);
          ref32.add(buf[off + len - 1]);
        }
        const std::span<const std::uint8_t> data(buf.data() + off, len);
        ASSERT_EQ(internet_checksum(data), ref16.value()) << "len " << len;
        if (len <= 1024 || len % 7 == 0 || len + 8 > kMaxChecksumLen) {
          ASSERT_EQ(crc32(data), ref32.value()) << "len " << len;
        }
      }
    }
  }
}

TEST(ChecksumDifferential, StreamingMatchesReferenceOnRandomSegmentations) {
  std::array<std::vector<std::uint8_t>, 3> patterns = {checksum_pattern(0), checksum_pattern(1),
                                                       checksum_pattern(2)};
  std::mt19937_64 rng(1071);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto& buf = patterns[rng() % 3];
    const std::size_t off = rng() % 8;
    const std::size_t len = rng() % (kMaxChecksumLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + off, len);
    ReferenceInternetChecksum ref16;
    ReferenceCrc32 ref32;
    for (const std::uint8_t b : data) {
      ref16.add(b);
      ref32.add(b);
    }
    // Segments of 0 and 1 bytes are frequent: they flip the odd-byte
    // parity the streaming checksum carries across updates.
    InternetChecksum inc16;
    Crc32 inc32;
    std::size_t segments = 0;
    for (std::size_t pos = 0; pos < len; ++segments) {
      std::size_t n = 0;
      switch (rng() % 6) {
        case 0: n = 0; break;
        case 1: n = 1; break;
        case 2: n = 2 + rng() % 7; break;
        case 3: n = 1 + rng() % 64; break;
        default: n = 1 + rng() % 2048; break;
      }
      n = std::min(n, len - pos);
      inc16.update(data.subspan(pos, n));
      inc32.update(data.subspan(pos, n));
      pos += n;
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " len " << len << " offset "
                                      << off << " segments " << segments);
    ASSERT_EQ(inc16.value(), ref16.value());
    ASSERT_EQ(inc32.value(), ref32.value());
  }
}

class PduCodec : public ::testing::TestWithParam<std::pair<ChecksumKind, ChecksumPlacement>> {};

TEST_P(PduCodec, RoundTrip) {
  const auto [kind, placement] = GetParam();
  Pdu p;
  p.type = PduType::kData;
  p.session_id = 0xDEADBEEF;
  p.seq = 42;
  p.ack = 41;
  p.window = 16;
  p.aux = 7;
  p.payload = Message::from_bytes(iota_bytes(300));

  auto wire = encode_pdu(std::move(p), kind, placement);
  auto r = decode_pdu(std::move(wire));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.pdu.type, PduType::kData);
  EXPECT_EQ(r.pdu.session_id, 0xDEADBEEFu);
  EXPECT_EQ(r.pdu.seq, 42u);
  EXPECT_EQ(r.pdu.ack, 41u);
  EXPECT_EQ(r.pdu.window, 16u);
  if (placement == ChecksumPlacement::kTrailer || kind == ChecksumKind::kNone) {
    EXPECT_EQ(r.pdu.aux, 7u);  // header placement sacrifices aux
  }
  EXPECT_EQ(r.pdu.payload.linearize(), iota_bytes(300));
}

TEST_P(PduCodec, DetectsPayloadCorruption) {
  const auto [kind, placement] = GetParam();
  if (kind == ChecksumKind::kNone) GTEST_SKIP() << "no detection configured";
  Pdu p;
  p.type = PduType::kData;
  p.seq = 1;
  p.payload = Message::from_bytes(iota_bytes(200));
  auto wire = encode_pdu(std::move(p), kind, placement);
  auto corrupt = wire.linearize();
  corrupt[kPduHeaderBytes + 50] ^= 0x01;
  auto r = decode_pdu(Message::from_bytes(corrupt));
  EXPECT_EQ(r.status, DecodeStatus::kChecksumMismatch);
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectionModes, PduCodec,
    ::testing::Values(std::pair{ChecksumKind::kNone, ChecksumPlacement::kTrailer},
                      std::pair{ChecksumKind::kInternet16, ChecksumPlacement::kHeader},
                      std::pair{ChecksumKind::kInternet16, ChecksumPlacement::kTrailer},
                      std::pair{ChecksumKind::kCrc32, ChecksumPlacement::kTrailer}));

TEST(PduCodec, RejectsMalformed) {
  EXPECT_EQ(decode_pdu(Message::from_bytes(bytes({1, 2, 3}))).status, DecodeStatus::kMalformed);
  // Bad version byte.
  std::vector<std::uint8_t> junk(kPduHeaderBytes, 0);
  junk[0] = 99;
  EXPECT_EQ(decode_pdu(Message::from_bytes(junk)).status, DecodeStatus::kMalformed);
}

TEST(PduCodec, RejectsLengthMismatch) {
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(50));
  auto wire = encode_pdu(std::move(p), ChecksumKind::kNone, ChecksumPlacement::kTrailer);
  auto trimmed = wire.linearize();
  trimmed.pop_back();
  EXPECT_EQ(decode_pdu(Message::from_bytes(trimmed)).status, DecodeStatus::kMalformed);
}

TEST(PduCodec, EmptyPayloadRoundTrip) {
  Pdu p;
  p.type = PduType::kAck;
  p.ack = 10;
  auto wire = encode_pdu(std::move(p), ChecksumKind::kInternet16, ChecksumPlacement::kTrailer);
  auto r = decode_pdu(std::move(wire));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.pdu.type, PduType::kAck);
  EXPECT_EQ(r.pdu.ack, 10u);
  EXPECT_EQ(r.pdu.payload.size(), 0u);
}

TEST(PduCodec, TrailerPlacementKeepsPayloadZeroCopy) {
  os::BufferPool pool;
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(1000), &pool);
  pool.reset_stats();
  auto wire = encode_pdu(std::move(p), ChecksumKind::kCrc32, ChecksumPlacement::kTrailer);
  // CRC32 streams over segments: no payload copy during encode.
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  EXPECT_GT(wire.segment_count(), 1u);
}

TEST(PduCodec, HeaderPlacementForcesLinearization) {
  os::BufferPool pool;
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(1000), &pool);
  pool.reset_stats();
  auto wire = encode_pdu(std::move(p), ChecksumKind::kInternet16, ChecksumPlacement::kHeader);
  EXPECT_GE(pool.stats().copied_bytes, 1000u);  // the extra pass footnote 2 decries
  EXPECT_EQ(wire.segment_count(), 1u);
}

}  // namespace
}  // namespace adaptive::tko
