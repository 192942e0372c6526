#include "unites/json_writer.hpp"

#include <cmath>
#include <cstdint>

namespace adaptive::unites::detail {

char* format_double(char* first, double v) {
  // %.9g prints an integer below 1e9 as its plain digits. The range test
  // fails for NaN, so the cast only ever sees a value it can represent.
  if (v > -1e9 && v < 1e9) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && !(i == 0 && std::signbit(v))) {
      return std::to_chars(first, first + kNumChars, i).ptr;
    }
  }
  return std::to_chars(first, first + kNumChars, v, std::chars_format::general, 9).ptr;
}

void JsonWriter::spill() {
  if (os_ != nullptr) {
    os_->write(buf_, static_cast<std::streamsize>(len_));
  } else {
    str_->append(buf_, len_);
  }
  len_ = 0;
}

void JsonWriter::raw_long(std::string_view s) {
  while (s.size() > kChunk - len_) {
    const std::size_t n = kChunk - len_;
    std::memcpy(buf_ + len_, s.data(), n);
    len_ = kChunk;
    s.remove_prefix(n);
    spill();
  }
  std::memcpy(buf_ + len_, s.data(), s.size());
  len_ += s.size();
}

JsonWriter& JsonWriter::str(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    raw(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': raw("\\\""); break;
      case '\\': raw("\\\\"); break;
      case '\n': raw("\\n"); break;
      case '\t': raw("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        raw(std::string_view(u, sizeof u));
      }
    }
  }
  return raw(s.substr(run));
}

}  // namespace adaptive::unites::detail
