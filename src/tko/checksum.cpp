#include "tko/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace adaptive::tko {

namespace {

/// One's-complement sum of `data` folded to 16 bits, in big-endian word
/// order, as if the span started on an even byte offset (odd-length spans
/// pad with a zero low byte, per RFC 1071).
///
/// The inner loop consumes eight bytes per iteration: plain 64-bit adds
/// with an explicit end-around carry are one's-complement addition over
/// four 16-bit lanes at once, and because that addition commutes with
/// byte swapping (RFC 1071 section 2), the lanes can be summed in native
/// little-endian order and the folded result swapped once at the end.
std::uint16_t ones_sum_be(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = 0;
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    sum += w;
    if (sum < w) ++sum;  // end-around carry
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, p, n);  // zero padding is the identity for the sum
    std::uint64_t w;
    std::memcpy(&w, tail, 8);
    sum += w;
    if (sum < w) ++sum;
  }
  sum = (sum & 0xFFFF'FFFFu) + (sum >> 32);
  sum = (sum & 0xFFFF'FFFFu) + (sum >> 32);
  sum = (sum & 0xFFFFu) + (sum >> 16);
  sum = (sum & 0xFFFFu) + (sum >> 16);
  std::uint16_t folded = static_cast<std::uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  return folded;
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return static_cast<std::uint16_t>(~ones_sum_be(data) & 0xFFFF);
}

namespace {

/// Slice-by-8 CRC tables: table[k][b] advances the register by 8 bytes of
/// which byte b sits k positions from the end, letting the inner loop fold
/// eight bytes per iteration with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[k][n] = t[0][t[k - 1][n] & 0xFFu] ^ (t[k - 1][n] >> 8);
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = kCrcTables;
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    c = kCrcTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

void InternetChecksum::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  std::uint16_t part = ones_sum_be(data);
  if (odd_) {
    // A segment starting at an odd byte offset contributes the byte-swap
    // of its even-offset sum (the same RFC 1071 section 2 identity the
    // word-at-a-time core relies on), so the parity carry costs one swap
    // per segment instead of forcing a byte-at-a-time loop.
    part = static_cast<std::uint16_t>((part << 8) | (part >> 8));
  }
  sum_ += part;
  if (data.size() & 1) odd_ = !odd_;
}

std::uint16_t InternetChecksum::value() const {
  std::uint64_t sum = sum_;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

}  // namespace adaptive::tko
