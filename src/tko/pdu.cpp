#include "tko/pdu.hpp"

#include "tko/checksum.hpp"

#include <array>
#include <cstring>

namespace adaptive::tko {

const char* to_string(PduType t) {
  switch (t) {
    case PduType::kData: return "DATA";
    case PduType::kAck: return "ACK";
    case PduType::kNack: return "NACK";
    case PduType::kSyn: return "SYN";
    case PduType::kSynAck: return "SYNACK";
    case PduType::kFin: return "FIN";
    case PduType::kFinAck: return "FINACK";
    case PduType::kConfig: return "CONFIG";
    case PduType::kConfigAck: return "CONFIGACK";
    case PduType::kReconfig: return "RECONFIG";
    case PduType::kReconfigAck: return "RECONFIGACK";
    case PduType::kFecParity: return "FECPARITY";
    case PduType::kProbe: return "PROBE";
    case PduType::kProbeReply: return "PROBEREPLY";
    case PduType::kAbort: return "ABORT";
    case PduType::kHandshakeAck: return "HSACK";
    case PduType::kAnchor: return "ANCHOR";
  }
  return "?";
}

namespace {

constexpr std::uint8_t kVersion = 1;

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

void encode_header(const Pdu& p, std::uint16_t payload_len, std::span<std::uint8_t> h) {
  h[0] = kVersion;
  h[1] = static_cast<std::uint8_t>(p.type);
  put_u16(&h[2], p.flags);
  put_u32(&h[4], p.session_id);
  put_u32(&h[8], p.seq);
  put_u32(&h[12], p.ack);
  put_u16(&h[16], p.window);
  put_u16(&h[18], payload_len);
  put_u32(&h[20], p.aux);  // aux rides in the checksum word; see below
}

std::uint32_t stream_checksum(const Message& m, ChecksumKind kind) {
  if (kind == ChecksumKind::kCrc32) {
    Crc32 c;
    m.for_each_segment([&](std::span<const std::uint8_t> s) { c.update(s); });
    return c.value();
  }
  // Odd segment boundaries fold across updates, so the Internet checksum
  // streams over the scatter/gather chain like CRC-32 does.
  InternetChecksum c;
  m.for_each_segment([&](std::span<const std::uint8_t> s) { c.update(s); });
  return c.value();
}

/// Read `n` leading bytes: a borrowed span when the front segment is
/// contiguous (the hot case — headers are their own segments), else a
/// recorded peek copy into `scratch`.
std::span<const std::uint8_t> read_prefix(const Message& m, std::size_t n,
                                          std::vector<std::uint8_t>& scratch) {
  auto direct = m.contiguous_prefix(n);
  if (!direct.empty()) return direct;
  scratch = m.peek(n);
  return scratch;
}

}  // namespace

Message encode_pdu(Pdu&& p, ChecksumKind kind, ChecksumPlacement placement) {
  // aux rides in the header in place of padding: extend header encoding.
  std::uint16_t flags = p.flags;
  flags &= static_cast<std::uint16_t>(
      ~(pdu_flags::kChecksumTrailer | pdu_flags::kCrc32 | pdu_flags::kNoChecksum |
        pdu_flags::kNoChecksumEcho));
  switch (kind) {
    case ChecksumKind::kNone:
      flags |= pdu_flags::kNoChecksum | pdu_flags::kNoChecksumEcho;
      break;
    case ChecksumKind::kCrc32: flags |= pdu_flags::kCrc32; break;
    case ChecksumKind::kInternet16: break;
  }
  if (placement == ChecksumPlacement::kTrailer) flags |= pdu_flags::kChecksumTrailer;
  p.flags = flags;

  const auto payload_len = static_cast<std::uint16_t>(p.payload.size());
  Message wire = std::move(p.payload);
  // Header bytes are produced in place on a fresh front segment: the
  // payload segments ride through encode untouched and unrecorded.
  encode_header(p, payload_len, wire.push_uninit(kPduHeaderBytes));

  if (kind == ChecksumKind::kNone) return wire;

  if (placement == ChecksumPlacement::kTrailer) {
    // Single streaming pass over header+payload; append trailer.
    const std::uint32_t ck = stream_checksum(wire, kind);
    put_u32(wire.append_uninit(kChecksumTrailerBytes).data(), ck);
    return wire;
  }

  // Header placement: aux shares the wire with the checksum? No — the
  // checksum occupies its own word. We must checksum the full image with a
  // zeroed checksum word... but aux already lives there. To keep the header
  // fixed-size, header placement checksums the image as-is (aux included)
  // and then OVERWRITES aux with the checksum: header-placed checksums
  // therefore cannot carry aux, mirroring how legacy headers waste fields.
  // This is the deliberately costly pre-image pass of footnote 2 — it
  // linearizes (recorded) and re-materializes the wire (also recorded).
  auto zeroed = wire.linearize();
  zeroed[20] = zeroed[21] = zeroed[22] = zeroed[23] = 0;
  const std::uint32_t ck =
      kind == ChecksumKind::kCrc32 ? crc32(zeroed) : internet_checksum(zeroed);
  put_u32(zeroed.data() + 20, ck);
  Message out(wire.pool());
  out.set_lifecycle(wire.lifecycle());
  out.append(zeroed);
  if (out.pool() != nullptr) out.pool()->record_copy(zeroed.size());
  return out;
}

DecodeResult decode_pdu(Message&& wire) {
  DecodeResult r;
  if (wire.size() < kPduHeaderBytes) return r;
  std::vector<std::uint8_t> head_scratch;
  const auto head = read_prefix(wire, kPduHeaderBytes, head_scratch);
  if (head[0] != kVersion) return r;

  Pdu p;
  p.type = static_cast<PduType>(head[1]);
  if (head[1] > static_cast<std::uint8_t>(PduType::kAnchor)) return r;
  p.flags = get_u16(&head[2]);
  // Mutated-wire defense: a flags word with bits this version never sets
  // is garbage, not a forward-compatible extension — reject it instead of
  // guessing at checksum coverage. Same for kNoChecksum combined with
  // kCrc32: the encoder clears one before setting the other, so the pair
  // can only come from corruption (and would skip verification entirely).
  constexpr std::uint16_t kKnownFlags =
      pdu_flags::kChecksumTrailer | pdu_flags::kPiggybackConfig | pdu_flags::kEndOfMessage |
      pdu_flags::kCrc32 | pdu_flags::kNoChecksum | pdu_flags::kGraceful |
      pdu_flags::kNoChecksumEcho;
  if ((p.flags & ~kKnownFlags) != 0) return r;
  if (p.has_flag(pdu_flags::kNoChecksum) && p.has_flag(pdu_flags::kCrc32)) return r;
  // Downgrade defense: kNoChecksum only counts when both copies agree.
  // A lone copy is a burst that tried to switch verification off (or on);
  // either way the header is damaged goods.
  if (p.has_flag(pdu_flags::kNoChecksum) != p.has_flag(pdu_flags::kNoChecksumEcho)) return r;
  p.session_id = get_u32(&head[4]);
  p.seq = get_u32(&head[8]);
  p.ack = get_u32(&head[12]);
  p.window = get_u16(&head[16]);
  const std::uint16_t payload_len = get_u16(&head[18]);

  const bool trailer = p.has_flag(pdu_flags::kChecksumTrailer);
  const bool none = p.has_flag(pdu_flags::kNoChecksum);
  const ChecksumKind kind = none            ? ChecksumKind::kNone
                            : p.has_flag(pdu_flags::kCrc32) ? ChecksumKind::kCrc32
                                                            : ChecksumKind::kInternet16;
  const std::size_t expect =
      kPduHeaderBytes + payload_len +
      ((!none && trailer) ? kChecksumTrailerBytes : 0);
  if (wire.size() != expect) return r;

  if (!none) {
    if (trailer) {
      // Split the trailer off in place (shared buffers, no clone copy) and
      // stream the checksum over the remaining header+payload segments.
      Message trail = wire.split(kPduHeaderBytes + payload_len);
      std::vector<std::uint8_t> trail_scratch;
      const auto tb = read_prefix(trail, kChecksumTrailerBytes, trail_scratch);
      const std::uint32_t stored = get_u32(tb.data());
      const std::uint32_t computed = stream_checksum(wire, kind);
      if (stored != computed) {
        r.status = DecodeStatus::kChecksumMismatch;
        return r;
      }
      p.aux = get_u32(&head[20]);
    } else {
      auto bytes = wire.linearize();
      const std::uint32_t stored = get_u32(bytes.data() + 20);
      bytes[20] = bytes[21] = bytes[22] = bytes[23] = 0;
      const std::uint32_t computed =
          kind == ChecksumKind::kCrc32 ? crc32(bytes) : internet_checksum(bytes);
      if (stored != computed) {
        r.status = DecodeStatus::kChecksumMismatch;
        return r;
      }
      p.aux = 0;  // header placement: checksum displaced aux
    }
  } else {
    p.aux = get_u32(&head[20]);
  }

  wire.consume(kPduHeaderBytes);  // offset adjust; header bytes never move
  p.payload = std::move(wire);
  r.pdu = std::move(p);
  r.status = DecodeStatus::kOk;
  return r;
}

}  // namespace adaptive::tko
