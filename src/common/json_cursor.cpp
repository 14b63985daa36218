#include "common/json_cursor.hpp"

#include <limits>

namespace storesched {

double JsonCursor::decimal(bool sign) {
  skip_ws();
  const std::size_t begin = pos_;
  scan_digits(sign);
  if (pos_ < text_.size() && text_[pos_] == '.') {
    const std::size_t fraction = ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == fraction) fail("digits required after the decimal point");
  }
  double value = 0;
  if (std::from_chars(text_.data() + begin, text_.data() + pos_, value).ec !=
      std::errc{}) {
    // Outside double's range: with leading zeros rejected, digits that
    // start with '0' underflowed and any others overflowed.
    const char lead = text_[begin] == '-' ? text_[begin + 1] : text_[begin];
    value = lead == '0' ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return value;
}

std::string JsonCursor::string() {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  expect('"');
  std::string out;
  for (;;) {
    if (pos_ == text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character in string");
    }
    ++pos_;
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ == text_.size()) fail("dangling escape");
    if (const std::size_t e = kEscapes.find(text_[pos_]); e != kEscapes.npos) {
      out.push_back(kDecoded[e]);
      ++pos_;
      continue;
    }
    if (text_[pos_] != 'u') fail("unknown escape");
    if (text_.size() - ++pos_ < 4) fail("truncated \\u escape");
    unsigned value = 0;
    const char* hex = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(hex, hex + 4, value, 16);
    if (ec != std::errc{} || end != hex + 4) fail("malformed \\u escape");
    // The writers escape control characters only; wider codepoints would
    // need a UTF-8 encoding no wire in the repository uses.
    if (value > 0x7f) fail("\\u escape outside ASCII");
    out.push_back(static_cast<char>(value));
    pos_ += 4;
  }
}

std::string_view JsonCursor::key() {
  expect('"');
  const std::size_t begin = pos_;
  for (; pos_ < text_.size() && text_[pos_] != '"'; ++pos_) {
    if (text_[pos_] == '\\') fail("escapes are not allowed in keys");
    if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
      fail("raw control character in string");
    }
  }
  if (pos_ == text_.size()) fail("unterminated string");
  return text_.substr(begin, pos_++ - begin);
}

void JsonCursor::skip_value() {
  // A hostile line of brackets must fail, not exhaust the stack.
  if (++depth_ > 64) fail("values nested too deeply");
  const char c = peek();
  if (c == '"') {
    string();
  } else if (c == '{') {
    object({}, [](std::size_t) {}, /*skip_unknown=*/true);
  } else if (c == '[') {
    array([&] { skip_value(); });
  } else if (!consume_word("true") && !consume_word("false") &&
             !consume_word("null")) {
    decimal(/*sign=*/true);
  }
  --depth_;
}

void JsonCursor::fail_expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

void JsonCursor::fail_number(bool none) const {
  fail(none ? "expected a number" : "leading zero in number");
}

void JsonCursor::require(std::uint64_t seen, std::uint64_t required,
                         std::span<const std::string_view> keys) const {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if ((required & bit(i)) && !(seen & bit(i))) {
      fail("missing \"" + std::string(keys[i]) + "\"");
    }
  }
}

}  // namespace storesched
