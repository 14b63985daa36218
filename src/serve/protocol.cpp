#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/io.hpp"
#include "common/json_cursor.hpp"

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
  enum : std::size_t {
    kId, kInstance, kRef, kSpec, kSlo, kDeadline, kPriority, kQuality,
    kStatsz, kCancel
  };
  static constexpr std::string_view kKeys[] = {
      "id",          "instance", "ref",     "spec",   "slo_ms",
      "deadline_ms", "priority", "quality", "statsz", "cancel"};
  constexpr auto bit = JsonCursor::bit;
  JsonCursor cur(line);
  ServeRequest req;
  try {
    // Non-negative decimal, capped at 1e9 so canonical fixed-6 printing
    // is reparse-stable.
    const auto number = [&](const std::string& key) {
      if (cur.peek() == '-') cur.fail("\"" + key + "\" must be non-negative");
      const double v = cur.decimal();
      if (!(v < 1e9)) cur.fail("\"" + key + "\" out of range (< 1e9)");
      return v;
    };
    const std::uint64_t seen = cur.object(kKeys, [&](std::size_t key) {
      switch (key) {
        case kId:
          req.id = cur.string();
          break;
        case kInstance:
          req.instance = std::make_shared<Instance>(read_instance(cur));
          break;
        case kRef: {
          const double v = number("ref");
          if (v != std::floor(v)) {
            cur.fail("\"ref\" must be an integer record index");
          }
          req.ref = static_cast<std::uint64_t>(v);
          break;
        }
        case kSpec:
          req.spec = cur.string();
          if (req.spec.empty()) cur.fail("\"spec\" must not be empty");
          break;
        case kSlo:
          req.slo_ms = number("slo_ms");
          break;
        case kDeadline:
          req.deadline_ms = number("deadline_ms");
          if (*req.deadline_ms <= 0) cur.fail("\"deadline_ms\" must be > 0");
          break;
        case kPriority: {
          const std::string token = cur.string();
          int p = 0;  // kHigh, kNormal, kLow
          while (p < 3 && token != to_string(ServePriority{p})) ++p;
          if (p == 3) cur.fail("unknown priority \"" + token + "\"");
          req.priority = ServePriority{p};
          break;
        }
        case kQuality: {
          const double v = number("quality");
          if (v != std::floor(v) || v > 1000000) {
            cur.fail("\"quality\" must be an integer rung index <= 1000000");
          }
          req.quality = static_cast<std::size_t>(v);
          break;
        }
        case kStatsz:
          if (!cur.consume_word("true")) cur.fail("\"statsz\" must be true");
          req.statsz = true;
          break;
        default:
          req.cancel_id = cur.string();
          if (req.cancel_id.empty()) {
            cur.fail("\"cancel\" must name a request id");
          }
      }
    });
    cur.expect_end();

    const bool source = seen & (bit(kInstance) | bit(kRef));
    const bool solve_fields = seen & (bit(kSpec) | bit(kSlo) | bit(kDeadline) |
                                      bit(kPriority) | bit(kQuality));
    if (req.statsz) {
      if (source || solve_fields || (seen & bit(kCancel))) {
        cur.fail("\"statsz\" requests carry no solve or cancel fields");
      }
    } else if (!req.cancel_id.empty()) {
      if (source || solve_fields) {
        cur.fail("\"cancel\" messages carry no solve fields");
      }
    } else if (req.instance && req.ref) {
      cur.fail("\"instance\" and \"ref\" are mutually exclusive");
    } else if (!source) {
      cur.fail(
          "request needs \"instance\", \"ref\", \"statsz\", or \"cancel\"");
    }
  } catch (const JsonError& e) {
    throw std::runtime_error(std::string("serve request: ") + e.what() +
                             " (at byte " + std::to_string(e.offset()) + ")");
  }
  return req;
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
  while (size > 0) {
    const auto* nl = static_cast<const char*>(std::memchr(data, '\n', size));
    const std::size_t run =
        nl != nullptr ? static_cast<std::size_t>(nl - data) : size;
    if (!discarding_) {
      // One byte past the cap is room for the '\r' a terminator strips; any
      // other byte there (or anything after it) makes the line oversized.
      const std::size_t room = max_line_ + 1 - buffer_.size();
      buffer_.append(data, std::min(run, room));
      if (run > room ||
          (buffer_.size() > max_line_ && buffer_.back() != '\r')) {
        // Cap exceeded: drop what we buffered and skip to the newline.
        buffer_.clear();
        discarding_ = true;
      }
    }
    if (nl == nullptr) return;
    if (discarding_) {
      ready_.push_back({std::string(), /*oversized=*/true});
      discarding_ = false;
    } else {
      if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
      ready_.push_back({std::move(buffer_), /*oversized=*/false});
    }
    buffer_.clear();
    data = nl + 1;
    size -= run + 1;
  }
}

std::optional<LineFramer::Line> LineFramer::next() {
  if (ready_.empty()) return std::nullopt;
  Line line = std::move(ready_.front());
  ready_.pop_front();
  return line;
}

}  // namespace storesched
