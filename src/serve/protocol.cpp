#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/io.hpp"

namespace storesched {

const char* to_string(ServePriority priority) {
  switch (priority) {
    case ServePriority::kHigh: return "high";
    case ServePriority::kNormal: return "normal";
    case ServePriority::kLow: return "low";
  }
  return "normal";
}

const char* to_string(ServeAdmission admission) {
  switch (admission) {
    case ServeAdmission::kOk: return "ok";
    case ServeAdmission::kDegraded: return "degraded";
    case ServeAdmission::kOverSlo: return "over_slo";
    case ServeAdmission::kRejected: return "rejected";
  }
  return "ok";
}

namespace {

/// Canonical decimal for millisecond fields: integers print bare, the
/// rest as fixed-6 with trailing zeros trimmed. Stable under reparse for
/// every value the parser admits (< 1e9, so fixed-6 carries more
/// precision than a double's half-ulp at that magnitude).
std::string fmt_ms(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << v;
  std::string s = os.str();
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Strict cursor over one request line (the ErrorRecordParser school:
/// exact tokens, no leading zeros, duplicate keys rejected).
class RequestParser {
 public:
  explicit RequestParser(const std::string& line) : s_(line) {}

  ServeRequest parse() {
    ServeRequest req;
    bool saw_id = false, saw_instance = false, saw_spec = false;
    bool saw_slo = false, saw_deadline = false, saw_priority = false;
    bool saw_quality = false, saw_statsz = false, saw_cancel = false;
    bool saw_ref = false;
    skip_ws();
    expect('{');
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '}') {
      for (;;) {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "id") {
          require_fresh(saw_id, key);
          req.id = parse_string();
        } else if (key == "instance") {
          require_fresh(saw_instance, key);
          req.instance = std::make_shared<Instance>(
              instance_from_jsonl(parse_raw_object()));
        } else if (key == "ref") {
          require_fresh(saw_ref, key);
          const double v = parse_number("ref");
          if (v != std::floor(v)) {
            fail("\"ref\" must be an integer record index");
          }
          req.ref = static_cast<std::uint64_t>(v);
        } else if (key == "spec") {
          require_fresh(saw_spec, key);
          req.spec = parse_string();
          if (req.spec.empty()) fail("\"spec\" must not be empty");
        } else if (key == "slo_ms") {
          require_fresh(saw_slo, key);
          req.slo_ms = parse_number("slo_ms");
        } else if (key == "deadline_ms") {
          require_fresh(saw_deadline, key);
          req.deadline_ms = parse_number("deadline_ms");
          if (*req.deadline_ms <= 0) fail("\"deadline_ms\" must be > 0");
        } else if (key == "priority") {
          require_fresh(saw_priority, key);
          const std::string token = parse_string();
          if (token == "high") {
            req.priority = ServePriority::kHigh;
          } else if (token == "normal") {
            req.priority = ServePriority::kNormal;
          } else if (token == "low") {
            req.priority = ServePriority::kLow;
          } else {
            fail("unknown priority \"" + token + "\"");
          }
        } else if (key == "quality") {
          require_fresh(saw_quality, key);
          const double v = parse_number("quality");
          if (v != std::floor(v) || v > 1000000) {
            fail("\"quality\" must be an integer rung index <= 1000000");
          }
          req.quality = static_cast<std::size_t>(v);
        } else if (key == "statsz") {
          require_fresh(saw_statsz, key);
          if (!try_consume("true")) fail("\"statsz\" must be true");
          req.statsz = true;
        } else if (key == "cancel") {
          require_fresh(saw_cancel, key);
          req.cancel_id = parse_string();
          if (req.cancel_id.empty()) fail("\"cancel\" must name a request id");
        } else {
          fail("unknown key \"" + key + "\"");
        }
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
    }
    expect('}');
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after the request");

    const bool solve_fields =
        saw_spec || saw_slo || saw_deadline || saw_priority || saw_quality;
    if (req.statsz) {
      if (saw_instance || saw_ref || solve_fields || saw_cancel) {
        fail("\"statsz\" requests carry no solve or cancel fields");
      }
    } else if (!req.cancel_id.empty()) {
      if (saw_instance || saw_ref || solve_fields) {
        fail("\"cancel\" messages carry no solve fields");
      }
    } else if (saw_instance && saw_ref) {
      fail("\"instance\" and \"ref\" are mutually exclusive");
    } else if (!saw_instance && !saw_ref) {
      fail("request needs \"instance\", \"ref\", \"statsz\", or \"cancel\"");
    }
    return req;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("serve request: " + what + " (at byte " +
                             std::to_string(pos_) + ")");
  }

  void require_fresh(bool& seen, const std::string& key) {
    if (seen) fail("duplicate key \"" + key + "\"");
    seen = true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(const char* token) {
    const std::size_t len = std::char_traits<char>::length(token);
    if (s_.compare(pos_, len, token) != 0) return false;
    pos_ += len;
    return true;
  }

  /// Non-negative decimal: digits with an optional fraction part. Capped
  /// at 1e9 so canonical fixed-6 printing is reparse-stable.
  double parse_number(const char* key) {
    const std::size_t begin = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      fail(std::string("\"") + key + "\" must be non-negative");
    }
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == begin) fail("expected a number");
    if (pos_ - begin > 1 && s_[begin] == '0') fail("leading zero in number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      if (pos_ == frac) fail("digits required after the decimal point");
    }
    const double v = std::strtod(s_.substr(begin, pos_ - begin).c_str(),
                                 nullptr);
    if (!(v < 1e9)) fail(std::string("\"") + key + "\" out of range (< 1e9)");
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            if (h >= '0' && h <= '9') {
              value = value * 16 + static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value = value * 16 + static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value = value * 16 + static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          if (value > 0x7f) fail("\\u escape outside ASCII");
          out.push_back(static_cast<char>(value));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  /// The raw bytes of one balanced {...} object starting at the cursor
  /// (strings skipped correctly), handed to instance_from_jsonl.
  std::string parse_raw_object() {
    const std::size_t begin = pos_;
    if (pos_ >= s_.size() || s_[pos_] != '{') fail("expected an object");
    int depth = 0;
    bool in_string = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (in_string) {
        if (c == '\\') {
          if (pos_ >= s_.size()) fail("dangling escape in instance");
          ++pos_;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
        if (depth == 0) return s_.substr(begin, pos_ - begin);
        if (depth < 0) fail("unbalanced instance object");
      }
    }
    fail("unterminated instance object");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serve_request_to_jsonl(const ServeRequest& request) {
  std::ostringstream os;
  os << '{';
  const char* sep = "";
  const auto field = [&](const char* key, const std::string& value) {
    os << sep << '"' << key << "\":\"" << json_escape(value) << '"';
    sep = ",";
  };
  if (!request.id.empty()) field("id", request.id);
  if (request.statsz) {
    os << sep << "\"statsz\":true";
    sep = ",";
  }
  if (!request.cancel_id.empty()) field("cancel", request.cancel_id);
  if (!request.spec.empty()) field("spec", request.spec);
  if (request.slo_ms) {
    os << sep << "\"slo_ms\":" << fmt_ms(*request.slo_ms);
    sep = ",";
  }
  if (request.deadline_ms) {
    os << sep << "\"deadline_ms\":" << fmt_ms(*request.deadline_ms);
    sep = ",";
  }
  if (request.priority != ServePriority::kNormal) {
    field("priority", to_string(request.priority));
  }
  if (request.quality != 0) {
    os << sep << "\"quality\":" << request.quality;
    sep = ",";
  }
  if (request.instance) {
    os << sep << "\"instance\":" << instance_to_jsonl(*request.instance);
    sep = ",";
  }
  if (request.ref) {
    os << sep << "\"ref\":" << *request.ref;
    sep = ",";
  }
  os << '}';
  return os.str();
}

ServeRequest serve_request_from_jsonl(const std::string& line) {
  return RequestParser(line).parse();
}

std::string serve_response_to_jsonl(const ServeResponse& response,
                                    const JsonlResultOptions& options) {
  std::string out = "{";
  const auto string_field = [&](const char* key, const std::string& value) {
    out += key;
    append_json_escaped(out, value);
    out += '"';
  };
  if (!response.id.empty()) {
    string_field("\"id\":\"", response.id);
    out += ',';
  }
  out += response.ok ? "\"ok\":true" : "\"ok\":false";
  if (!response.ok) string_field(",\"error\":\"", response.error);
  if (!response.cancel_ack.empty()) {
    string_field(",\"cancelled\":\"", response.cancel_ack);
  }
  if (response.admission) {
    out += ",\"admission\":\"";
    out += to_string(*response.admission);
    out += '"';
  }
  if (!response.spec.empty()) {
    string_field(",\"spec\":\"", response.spec);
    if (response.rung >= 0) {
      out += ",\"rung\":";
      out += std::to_string(response.rung);
    }
    out += ",\"queue_ms\":";
    out += fmt(response.queue_ms, 3);
    out += ",\"solve_ms\":";
    out += fmt(response.solve_ms, 3);
  }
  if (response.result) result_jsonl_fields(*response.result, options, out);
  out += '}';
  return out;
}

void LineFramer::feed(const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    const char c = data[i];
    if (c == '\n') {
      if (discarding_) {
        ready_.push_back({std::string(), /*oversized=*/true});
        discarding_ = false;
      } else {
        if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
        ready_.push_back({std::move(buffer_), /*oversized=*/false});
      }
      buffer_.clear();
      continue;
    }
    if (discarding_) continue;
    if (buffer_.size() >= max_line_) {
      // Cap exceeded: drop what we buffered and skip to the newline.
      buffer_.clear();
      discarding_ = true;
      continue;
    }
    buffer_.push_back(c);
  }
}

std::optional<LineFramer::Line> LineFramer::next() {
  if (ready_.empty()) return std::nullopt;
  Line line = std::move(ready_.front());
  ready_.pop_front();
  return line;
}

}  // namespace storesched
