// The one buffered JSON writer behind every UNITES exporter (DESIGN §7).
//
// Exporters append tokens into a fixed 64 KiB chunk that is handed to the
// sink each time it fills and once more at flush(), so a document of any
// size costs one stream write per chunk and is never held whole in memory.
// Integers format with std::to_chars; strings are escaped in place.
//
// Byte-identity contract (golden bytes in tests/test_unites.cpp):
//   * Doubles print as printf("%.9g") in the C locale. The standard
//     defines std::to_chars(v, chars_format::general, 9) as that
//     conversion; integral values with |v| < 1e9 (but not -0) take an
//     integer fast path, which %.9g also prints as plain digits.
//   * Strings follow json_escape: \" \\ \n \t, every other byte below
//     0x20 as \u00xx, everything else verbatim.
//
// Internal to the library: include it from .cpp files only.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace adaptive::unites::detail {

/// Room format_double needs; the longest %.9g rendering is 16 chars.
inline constexpr std::size_t kNumChars = 32;

/// Write `v` as printf("%.9g", v) would into [first, first + kNumChars);
/// returns one past the last char written.
char* format_double(char* first, double v);

class JsonWriter {
public:
  /// Chunks go to `out` with ostream::write; a failed write shows in
  /// the stream's state, which the caller checks.
  explicit JsonWriter(std::ostream& out) : os_(&out) {}
  /// Chunks are appended to `out`.
  explicit JsonWriter(std::string& out) : str_(&out) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Verbatim bytes (JSON punctuation, keys, already-escaped text).
  JsonWriter& raw(std::string_view s) {
    if (s.size() <= kChunk - len_) {
      std::memcpy(buf_ + len_, s.data(), s.size());
      len_ += s.size();
    } else {
      raw_long(s);
    }
    return *this;
  }
  JsonWriter& raw(char c) {
    if (len_ == kChunk) spill();
    buf_[len_++] = c;
    return *this;
  }

  /// String contents escaped by json_escape's rules (no quotes added).
  JsonWriter& str(std::string_view s);

  JsonWriter& num(double v) {
    len_ = static_cast<std::size_t>(format_double(room(kNumChars), v) - buf_);
    return *this;
  }
  template <std::integral T>
  JsonWriter& num(T v) {
    len_ = static_cast<std::size_t>(std::to_chars(room(kNumChars), buf_ + kChunk, v).ptr - buf_);
    return *this;
  }

  /// Hand every buffered byte to the sink. Call once when the document
  /// is complete; bytes still buffered when the writer dies are lost.
  void flush() { spill(); }

private:
  static constexpr std::size_t kChunk = 64 * 1024;

  char* room(std::size_t n) {
    if (kChunk - len_ < n) spill();
    return buf_ + len_;
  }
  void spill();
  void raw_long(std::string_view s);

  std::ostream* os_ = nullptr;
  std::string* str_ = nullptr;
  std::size_t len_ = 0;  ///< bytes of buf_ not yet handed to the sink
  char buf_[kChunk]{};
};

}  // namespace adaptive::unites::detail
