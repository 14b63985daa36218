// One strict JSON cursor behind every JSON reader in the repository:
// instance lines (common/io.hpp), stream error records (core/stream.hpp),
// serve requests (serve/protocol.hpp) and the CLI's --check. A reader is a
// key table plus one callback that reads the value of each key it meets:
//
//   enum : std::size_t { kM, kTasks };
//   static constexpr std::string_view kKeys[] = {"m", "tasks"};
//   JsonCursor cur(line);
//   const std::uint64_t seen = cur.object(kKeys, [&](std::size_t key) {
//     if (key == kM) m = cur.integer(); else ...;
//   });
//   cur.expect_end();
//   cur.require(seen, JsonCursor::bit(kM) | JsonCursor::bit(kTasks), kKeys);
//
// The token rules (docs/SOLVER_SPECS.md, "JSONL wire format"): keys are
// plain strings and appear once; integers have no leading zeros, are
// range-checked, and take a '-' only where the reader asks for a signed
// value; strings take the JSON escapes, \u only below 0x80; whitespace is
// JSON's four characters, or none on a cursor built with whitespace off.
// Every fault throws JsonError, which each wire wraps once in its format.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace storesched {

/// A malformed token or object: what() is the message, offset() the byte
/// of the line at which the cursor found it.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text, bool whitespace = true)
      : text_(text), whitespace_(whitespace) {}

  /// The object() mask bit of key-table entry `key`.
  static constexpr std::uint64_t bit(std::size_t key) {
    return std::uint64_t{1} << key;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what, pos_);
  }

  void skip_ws() {
    while (whitespace_ && pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// The next byte after whitespace, or '\0' at the end.
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail_expected(c);
  }

  /// Consumes `word` (true, false, null) if it comes next.
  bool consume_word(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::int64_t integer() { return read_integer<std::int64_t>(true); }
  std::uint64_t unsigned_integer() {
    return read_integer<std::uint64_t>(false);
  }

  /// Digits with an optional fraction (no exponent); '-' only if `sign`.
  double decimal(bool sign = false);

  std::string string();

  /// An object key: a string without escapes, viewed in place.
  std::string_view key();

  /// Skips one value of any kind.
  void skip_value();

  /// Fails unless only whitespace is left.
  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the object");
  }

  /// Fails naming the first key of the `required` mask missing from `seen`.
  void require(std::uint64_t seen, std::uint64_t required,
               std::span<const std::string_view> keys) const;

  /// Reads one object whose keys come from `keys`, calling value(i) with
  /// the cursor on the value of keys[i]. Returns the mask of keys seen. An
  /// unknown key's value is skipped when `skip_unknown` is set.
  template <typename Value>
  std::uint64_t object(std::span<const std::string_view> keys, Value&& value,
                       bool skip_unknown = false) {
    std::uint64_t seen = 0;
    expect('{');
    if (consume('}')) return seen;
    do {
      skip_ws();
      const std::size_t at = pos_;
      const std::string_view name = key();
      std::size_t i = 0;
      while (i < keys.size() && keys[i] != name) ++i;
      const bool known = i < keys.size();
      if (known ? (seen & bit(i)) != 0 : !skip_unknown) {
        pos_ = at;
        fail((known ? "duplicate key \"" : "unknown key \"") +
             std::string(name) + "\"");
      }
      expect(':');
      if (!known) {
        skip_value();
        continue;
      }
      seen |= bit(i);
      value(i);
    } while (consume(','));
    expect('}');
    return seen;
  }

  /// Reads one array, calling each() with the cursor on every element.
  template <typename Each>
  void array(Each&& each) {
    expect('[');
    if (consume(']')) return;
    do {
      each();
    } while (consume(','));
    expect(']');
  }

 private:
  /// Up to 18 digits cannot overflow either integer type, so they are
  /// summed as they are scanned; longer runs go through std::from_chars.
  static constexpr std::size_t kSafeDigits = 18;

  template <typename Int>
  Int read_integer(bool sign) {
    skip_ws();
    const std::size_t begin = pos_;
    const std::uint64_t magnitude = scan_digits(sign);
    const bool negative = text_[begin] == '-';
    if (pos_ - begin - negative <= kSafeDigits) {
      const auto value = static_cast<Int>(magnitude);
      return negative ? -value : value;
    }
    Int value = 0;
    if (std::from_chars(text_.data() + begin, text_.data() + pos_, value).ec !=
        std::errc{}) {
      pos_ = begin;
      fail("integer out of range");
    }
    return value;
  }

  /// Moves past [-]digits with no leading zero and returns their value,
  /// exact up to kSafeDigits digits; fails with the cursor unmoved when
  /// there are none.
  std::uint64_t scan_digits(bool sign) {
    std::size_t pos = pos_;
    if (sign && pos < text_.size() && text_[pos] == '-') ++pos;
    const std::size_t digits = pos;
    std::uint64_t value = 0;
    for (; pos < text_.size(); ++pos) {
      const auto digit = static_cast<unsigned char>(text_[pos] - '0');
      if (digit > 9) break;
      value = value * 10 + digit;
    }
    if (pos == digits || (pos - digits > 1 && text_[digits] == '0')) {
      fail_number(pos == digits);
    }
    pos_ = pos;
    return value;
  }

  // The failure paths build their messages out of line, off the token
  // readers' fast paths.
  [[noreturn]] void fail_expected(char c) const;
  [[noreturn]] void fail_number(bool none) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  bool whitespace_;
  int depth_ = 0;  ///< values skip_value() is inside
};

}  // namespace storesched
