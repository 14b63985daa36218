#include "core/stream.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <utility>
#include <variant>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "storage/result_cache.hpp"

namespace storesched {

// ---------------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------------

std::shared_ptr<const Instance> RecordSource::next() {
  one_.clear();
  claim(1, one_);
  if (one_.records.empty()) return nullptr;
  return std::make_shared<const Instance>(
      parse(one_.view(0), one_.records[0].line));
}

std::shared_ptr<const Instance> SpanSource::next() {
  if (cursor_ >= instances_.size()) return nullptr;
  // Non-owning alias into the caller's span (which outlives the run by
  // contract): the in-memory batch path never copies an instance.
  return std::shared_ptr<const Instance>(std::shared_ptr<const Instance>(),
                                         &instances_[cursor_++]);
}

std::shared_ptr<const Instance> GeneratorSource::next() {
  std::optional<Instance> inst = fn_();
  if (!inst) return nullptr;
  return std::make_shared<const Instance>(std::move(*inst));
}

namespace {

/// Initial read buffer; it doubles whenever one line outgrows it.
constexpr std::size_t kReadBuffer = std::size_t{64} << 10;

/// A line the source skips: nothing but spaces, tabs and carriage returns.
bool blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

}  // namespace

void JsonlInstanceSource::refill() {
  if (eof_) return;
  if (head_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }
  if (buffer_.size() < kReadBuffer) {
    buffer_.resize(kReadBuffer);
  } else if (tail_ == buffer_.size()) {
    buffer_.resize(buffer_.size() * 2);
  }
  // sgetc() makes at most one underlying read, and only when the stream's
  // own buffer is empty; in_avail() then names what that read buffered, so
  // sgetn() copies it out without reading again.
  using Traits = std::char_traits<char>;
  std::streambuf* const in = in_.rdbuf();
  try {
    if (in == nullptr || Traits::eq_int_type(in->sgetc(), Traits::eof())) {
      eof_ = true;
      return;
    }
    const std::streamsize room =
        static_cast<std::streamsize>(buffer_.size() - tail_);
    const std::streamsize got = in->sgetn(
        buffer_.data() + tail_,
        std::min(room, std::max<std::streamsize>(in->in_avail(), 1)));
    if (got <= 0) {
      eof_ = true;
      return;
    }
    tail_ += static_cast<std::size_t>(got);
  } catch (...) {
    // A failed read is not the end of the input -- it surfaces as a source
    // error -- but nothing after it can be trusted either.
    eof_ = true;
    throw;
  }
}

JsonlInstanceSource::Located JsonlInstanceSource::locate(bool wait) {
  Located at;
  std::size_t scan = head_;
  for (;;) {
    const char* base = buffer_.data();
    const void* newline =
        scan < tail_ ? std::memchr(base + scan, '\n', tail_ - scan) : nullptr;
    std::size_t end = tail_;
    std::size_t next = tail_;
    if (newline != nullptr) {
      end = static_cast<std::size_t>(static_cast<const char*>(newline) - base);
      next = end + 1;
    } else if (!eof_) {
      if (!wait) return at;  // kPending: no complete line is buffered
      const std::size_t scanned = scan - head_;
      refill();
      scan = head_ + scanned;
      continue;
    } else if (scan == tail_) {
      at.status = Located::kEnd;
      at.next = tail_;
      return at;
    }
    // A complete line: "\n"-terminated, or the unterminated last one.
    ++at.lines;
    if (blank({base + scan, end - scan})) {
      scan = next;
      continue;
    }
    at.status = Located::kRecord;
    at.begin = scan;
    at.end = end;
    at.next = next;
    return at;
  }
}

void JsonlInstanceSource::claim(std::size_t max, RecordBatch& batch) {
  for (std::size_t taken = 0; taken < max; ++taken) {
    const Located at = locate(/*wait=*/taken == 0);
    if (at.status == Located::kPending) return;
    // The end is reported (and its failpoint hit made) by a claim of its own.
    if (at.status == Located::kEnd && taken > 0) return;
    // Before the record's input is consumed: an injected fault leaves the
    // stream positioned exactly where it was, so skip/retry keep reading.
    failpoint::hit("source.next");
    head_ = at.next;
    line_number_ += at.lines;
    if (at.status == Located::kEnd) return;
    batch.add({buffer_.data() + at.begin, at.end - at.begin}, line_number_);
  }
}

Instance JsonlInstanceSource::parse(std::string_view record,
                                    std::size_t line) const {
  // The parser stamps the line number into its own error message, so a bad
  // line deep in a million-line stream is locatable as-is.
  return instance_from_jsonl(record, line);
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

void EncodingSink::consume(std::size_t index, SolveResult result) {
  bytes_.clear();
  encode(index, result, bytes_);
  write(bytes_);
}

void VectorSink::consume(std::size_t index, SolveResult result) {
  if (index >= results_.size()) {
    throw std::logic_error("VectorSink: index " + std::to_string(index) +
                           " outside the presized " +
                           std::to_string(results_.size()) + " results");
  }
  results_[index] = std::move(result);
}

namespace {

void append_int(std::string& out, std::int64_t value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, end);
}

/// Fraction::to_string() without the temporaries.
void append_fraction(std::string& out, const Fraction& value) {
  append_int(out, value.num());
  if (value.den() != 1) {
    out += '/';
    append_int(out, value.den());
  }
}

void append_result_line(std::size_t index, const SolveResult& result,
                        const JsonlResultOptions& options, std::string& out) {
  out += "{\"index\":";
  append_int(out, static_cast<std::int64_t>(index));
  result_jsonl_fields(result, options, out);
  out += '}';
}

}  // namespace

std::string result_to_jsonl(std::size_t index, const SolveResult& result,
                            const JsonlResultOptions& options) {
  std::string line;
  append_result_line(index, result, options, line);
  return line;
}

void result_jsonl_fields(const SolveResult& result,
                         const JsonlResultOptions& options, std::string& out) {
  out += result.feasible ? ",\"feasible\":true" : ",\"feasible\":false";
  if (result.feasible) {
    out += ",\"cmax\":";
    append_int(out, result.objectives.cmax);
    out += ",\"mmax\":";
    append_int(out, result.objectives.mmax);
    if (result.sum_ci) {
      out += ",\"sum_ci\":";
      append_int(out, *result.sum_ci);
    }
  }
  out += ",\"delta\":\"";
  append_fraction(out, result.delta);
  out += '"';
  const auto fraction_field = [&](const char* key,
                                  const std::optional<Fraction>& value) {
    if (!value) return;
    out += ",\"";
    out += key;
    out += "\":\"";
    append_fraction(out, *value);
    out += '"';
  };
  fraction_field("cmax_bound", result.cmax_bound);
  fraction_field("mmax_bound", result.mmax_bound);
  fraction_field("cmax_ratio", result.cmax_ratio);
  fraction_field("mmax_ratio", result.mmax_ratio);
  fraction_field("sumci_ratio", result.sumci_ratio);
  if (!result.diagnostics.empty()) {
    out += ",\"diagnostics\":\"";
    append_json_escaped(out, result.diagnostics);
    out += '"';
  }
  if (options.include_schedule && result.feasible) {
    const std::size_t n = result.schedule.n();
    out += ",\"proc\":[";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      append_int(out, result.schedule.proc(static_cast<TaskId>(i)));
    }
    out += ']';
    if (result.schedule.timed()) {
      out += ",\"start\":[";
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += ',';
        append_int(out, result.schedule.start(static_cast<TaskId>(i)));
      }
      out += ']';
    }
  }
}

void JsonlResultSink::encode(std::size_t index, const SolveResult& result,
                             std::string& out) const {
  append_result_line(index, result, options_, out);
  out += '\n';
}

void JsonlResultSink::write(std::string_view bytes) {
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out_) {
    throw StreamWriteError(
        "JsonlResultSink: write failed (ostream badbit/failbit set)");
  }
}

void JsonlErrorSink::consume(StreamError error) {
  out_ << stream_error_to_jsonl(error) << '\n';
  if (!out_) {
    throw StreamWriteError(
        "JsonlErrorSink: write failed (ostream badbit/failbit set)");
  }
}

// ---------------------------------------------------------------------------
// Error records on the wire.
// ---------------------------------------------------------------------------

const char* to_string(StreamErrorCategory category) {
  switch (category) {
    case StreamErrorCategory::kSource:
      return "source";
    case StreamErrorCategory::kSolve:
      return "solve";
    case StreamErrorCategory::kSink:
      return "sink";
  }
  return "unknown";
}

std::string stream_error_to_jsonl(const StreamError& error) {
  std::ostringstream os;
  os << "{\"index\":" << error.index
     << ",\"error\":true,\"category\":\"" << to_string(error.category) << '"';
  if (error.line != 0) os << ",\"line\":" << error.line;
  os << ",\"attempts\":" << error.attempts << ",\"what\":\""
     << json_escape(error.what) << "\"}";
  return os.str();
}

namespace {

/// Strict parser for stream_error_to_jsonl() lines: exactly the emitted
/// grammar (no whitespace), keys in any order but none unknown, duplicated,
/// or missing. Errors carry the byte offset -- an error channel that has
/// itself gone bad should be locatable, not guessed at.
class ErrorRecordParser {
 public:
  explicit ErrorRecordParser(const std::string& line) : s_(line) {}

  StreamError parse() {
    StreamError error;
    bool saw_index = false, saw_marker = false, saw_category = false;
    bool saw_line = false, saw_attempts = false, saw_what = false;
    expect('{');
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      if (key == "index") {
        require_fresh(saw_index, key);
        error.index = parse_uint();
      } else if (key == "error") {
        require_fresh(saw_marker, key);
        if (!try_consume("true")) fail("\"error\" must be true");
      } else if (key == "category") {
        require_fresh(saw_category, key);
        const std::string token = parse_string();
        if (token == "source") {
          error.category = StreamErrorCategory::kSource;
        } else if (token == "solve") {
          error.category = StreamErrorCategory::kSolve;
        } else if (token == "sink") {
          error.category = StreamErrorCategory::kSink;
        } else {
          fail("unknown category \"" + token + "\"");
        }
      } else if (key == "line") {
        require_fresh(saw_line, key);
        error.line = parse_uint();
        if (error.line == 0) fail("\"line\" must be >= 1 when present");
      } else if (key == "attempts") {
        require_fresh(saw_attempts, key);
        const std::size_t attempts = parse_uint();
        if (attempts == 0 || attempts > 1000000) {
          fail("\"attempts\" outside [1, 1000000]");
        }
        error.attempts = static_cast<int>(attempts);
      } else if (key == "what") {
        require_fresh(saw_what, key);
        error.what = parse_string();
      } else {
        fail("unknown key \"" + key + "\"");
      }
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    expect('}');
    if (pos_ != s_.size()) fail("trailing bytes after the record");
    if (!saw_index) fail("missing \"index\"");
    if (!saw_marker) fail("missing \"error\" marker");
    if (!saw_category) fail("missing \"category\"");
    if (!saw_attempts) fail("missing \"attempts\"");
    if (!saw_what) fail("missing \"what\"");
    return error;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("stream error record: " + what + " (at byte " +
                             std::to_string(pos_) + ")");
  }

  void require_fresh(bool& seen, const std::string& key) {
    if (seen) fail("duplicate key \"" + key + "\"");
    seen = true;
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(const char* token) {
    const std::size_t len = std::string(token).size();
    if (s_.compare(pos_, len, token) != 0) return false;
    pos_ += len;
    return true;
  }

  std::size_t parse_uint() {
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (pos_ == begin) fail("expected a number");
    if (pos_ - begin > 1 && s_[begin] == '0') fail("leading zero in number");
    if (pos_ - begin > 18) fail("number too large");
    return static_cast<std::size_t>(std::stoull(s_.substr(begin, pos_ - begin)));
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
          // json_escape only ever emits \u00XX (control characters); wider
          // codepoints would need UTF-8 encoding this wire does not use.
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

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

StreamError stream_error_from_jsonl(const std::string& line) {
  return ErrorRecordParser(line).parse();
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

namespace {

/// Rethrows `error` with the instance index attached to the message,
/// preserving the standard exception type where there is one (the
/// solve_batch contract: an SBO batch hitting a DAG instance still throws
/// std::logic_error, now naming the instance).
[[noreturn]] void rethrow_with_index(std::size_t index,
                                     const std::exception_ptr& error) {
  const std::string prefix =
      "solve_stream: instance " + std::to_string(index) + ": ";
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(prefix + e.what());
  } catch (const std::logic_error& e) {
    throw std::logic_error(prefix + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (...) {
    throw std::runtime_error(prefix + "unknown exception");
  }
}

std::string describe_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Default transient-vs-deterministic classification (RetryPolicy docs):
/// logic errors (a solver rejecting the instance shape) and dead output
/// streams will fail identically every time -- retrying burns backoff for
/// nothing. Everything else, injected faults included, is worth another
/// try.
bool default_retryable(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const StreamWriteError&) {
    return false;
  } catch (const std::logic_error&) {  // includes std::invalid_argument
    return false;
  } catch (...) {
    return true;
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Backoff before re-attempt number `failures`+1: exponential in the
/// failure count, capped, scaled by a deterministic jitter factor in
/// [0.5, 1.5) keyed on (seed, record index, failure count) so concurrent
/// retries de-correlate without making runs irreproducible.
std::chrono::nanoseconds backoff_delay(const RetryPolicy& policy,
                                       std::size_t index, int failures) {
  const double cap = static_cast<double>(policy.max_backoff.count());
  double ns = static_cast<double>(policy.base_backoff.count());
  for (int i = 1; i < failures && ns < cap; ++i) ns *= policy.multiplier;
  ns = std::clamp(ns, 0.0, cap);
  const std::uint64_t draw = splitmix64(
      splitmix64(policy.jitter_seed ^ static_cast<std::uint64_t>(index)) +
      static_cast<std::uint64_t>(failures));
  const double jitter = 0.5 + static_cast<double>(draw >> 11) * 0x1.0p-53;
  return std::chrono::nanoseconds(static_cast<std::int64_t>(ns * jitter));
}

/// Rough byte footprint of one in-flight unit of work (the pulled instance
/// plus its result, extras channels included). Drives the adaptive window;
/// an estimate, not allocator-exact accounting.
std::size_t schedule_bytes(const Schedule& s) {
  return s.n() * (sizeof(ProcId) + sizeof(Time));
}

std::size_t estimate_footprint(const Instance& inst, const SolveResult& r) {
  std::size_t bytes = sizeof(Instance) + sizeof(SolveResult);
  bytes += inst.n() * sizeof(Task);
  if (inst.has_precedence()) {
    bytes += inst.n() * 2 * sizeof(std::vector<TaskId>) +
             inst.dag().edge_count() * 2 * sizeof(TaskId);
  }
  bytes += schedule_bytes(r.schedule) + r.diagnostics.size();
  if (r.rls) {
    bytes += schedule_bytes(r.rls->schedule) + r.rls->marked.size() / 8;
  }
  if (r.sbo) {
    bytes += schedule_bytes(r.sbo->schedule) + schedule_bytes(r.sbo->pi1) +
             schedule_bytes(r.sbo->pi2) + r.sbo->routed_to_pi2.size() / 8;
  }
  if (r.pareto) {
    for (const Schedule& s : r.pareto->schedules) bytes += schedule_bytes(s);
    bytes += r.pareto->front.size() * sizeof(ObjectivePoint);
  }
  return bytes;
}

/// One claimed index on its way to the sink: an encoded or whole result to
/// deliver, or a failure to record. `source_pos` is the source's position
/// once the record was claimed -- claims are serialized and cut records in
/// order, so positions are monotone in the index and the ordered-mode
/// progress/journal contract holds.
struct Outcome {
  std::size_t index = 0;
  /// Encoded bytes (encoding sinks), the result itself, or the failure.
  std::variant<std::string, std::unique_ptr<SolveResult>, StreamError> payload;
  std::size_t source_pos = 0;
  std::size_t footprint = 0;  ///< estimate_footprint() of a solved record
  bool feasible = false;
  bool retried = false;    ///< the solve or its delivery needed a re-attempt
  bool delivered = false;  ///< set by the writer once the sink holds it
};

/// A ring position of the ordered-mode reorder buffer.
struct Slot {
  bool ready = false;
  Outcome out;
};

/// Claim sizing: a claim carries about kClaimBudgetNs of measured work, so
/// cheap records share one trip through the pull lock while a record that
/// costs that much on its own is claimed alone and slow solves still spread
/// across the workers.
constexpr double kClaimBudgetNs = 50e3;
constexpr std::size_t kMaxClaim = 64;

/// Shared pipeline state. `pull_mu` serializes claims (the source and
/// `next_index`); `mu` guards everything else except the writer-owned
/// block, which only the worker holding the writer role touches. Lock
/// order: pull_mu before mu. The policy block at the bottom is read-only
/// once the crew starts.
struct PipelineState {
  std::mutex pull_mu;
  std::size_t next_index = 0;  ///< index the next claimed record gets

  std::mutex mu;
  /// One condition for both "a window slot freed up" and "state changed"
  /// (failure, cancellation, source exhausted).
  std::condition_variable cv;
  std::size_t in_flight = 0;  ///< claimed but not yet retired
  bool source_done = false;
  bool failed = false;
  std::exception_ptr error;
  std::size_t error_index = 0;

  /// The in-flight bound. Fixed for an explicit StreamOptions::window;
  /// otherwise re-sized after every completion so that
  /// window x (smoothed footprint) stays within the memory budget.
  std::size_t window_limit = 0;
  bool adaptive = false;
  std::size_t window_floor = 1;       ///< worker count
  std::size_t memory_budget = 0;      ///< bytes (adaptive mode only)
  double footprint_ewma = 0.0;        ///< smoothed estimate_footprint()
  bool footprint_seen = false;
  double record_ns = 0.0;             ///< smoothed work time per record

  /// Finished records not yet written: a ring indexed by index modulo its
  /// (power-of-two) size in ordered mode, a list in as-completed mode.
  std::vector<Slot> ring;
  std::vector<Outcome> finished;
  std::size_t next_deliver = 0;  ///< ordered mode: the writer's head
  bool writing = false;          ///< a worker holds the writer role

  // Writer-owned.
  std::vector<Outcome> run;  ///< the records being written
  std::string bytes;         ///< their encoded bytes (encoding sinks)

  // Failure policy and shape, resolved once before the crew starts.
  FailureAction action = FailureAction::kAbort;
  RetryPolicy retry;
  std::function<bool(const std::exception_ptr&)> retryable;
  ErrorSink* errors = nullptr;
  const std::function<void(const StreamProgress&)>* progress = nullptr;
  bool ordered = true;
  RecordSource* records = nullptr;  ///< the source, when it splits
  EncodingSink* encoder = nullptr;  ///< the sink, when it splits

  StreamStats stats;
};

/// Records a failure and wakes everyone. The lowest failing index wins, so
/// the record an abort names does not depend on which worker saw its fault
/// first. Lock must be held.
void record_failure(PipelineState& state, std::size_t index,
                    std::exception_ptr error) {
  if (!state.failed || index < state.error_index) {
    state.failed = true;
    state.error = std::move(error);
    state.error_index = index;
  }
  state.cv.notify_all();
}

/// Adaptive window step: fold one observed footprint into the smoothed
/// estimate and re-derive the bound. Lock must be held.
void observe_footprint(PipelineState& state, std::size_t bytes) {
  if (!state.adaptive) return;
  const auto f = static_cast<double>(bytes);
  state.footprint_ewma = state.footprint_seen
                             ? state.footprint_ewma + (f - state.footprint_ewma) / 8.0
                             : f;
  state.footprint_seen = true;
  constexpr std::size_t kWindowCeiling = 4096;
  const auto per_unit =
      static_cast<std::size_t>(std::max(state.footprint_ewma, 1.0));
  state.window_limit =
      std::clamp(state.memory_budget / per_unit, state.window_floor,
                 kWindowCeiling);
}

/// Records per claim for record sources (see kClaimBudgetNs). Lock must
/// be held.
std::size_t claim_size(const PipelineState& state) {
  if (state.record_ns <= 0.0) return 1;
  return static_cast<std::size_t>(std::clamp(
      kClaimBudgetNs / state.record_ns, 1.0, static_cast<double>(kMaxClaim)));
}

/// Counts `count` newly claimed records in flight and makes room for them
/// in the ring: claimed indices span at most `in_flight` positions. Lock
/// must be held.
void admit(PipelineState& state, std::size_t count) {
  state.in_flight += count;
  state.stats.max_in_flight =
      std::max(state.stats.max_in_flight, state.in_flight);
  if (!state.ordered) return;
  std::size_t size = std::max<std::size_t>(state.ring.size(), 16);
  while (size < state.in_flight) size *= 2;
  if (size == state.ring.size()) return;
  std::vector<Slot> ring(size);
  for (Slot& slot : state.ring) {
    if (slot.ready) ring[slot.out.index & (size - 1)] = std::move(slot);
  }
  state.ring.swap(ring);
}

/// What retiring one run did, folded into StreamStats by the writer.
struct Retired {
  std::size_t delivered = 0;
  std::size_t feasible = 0;
  std::size_t failed = 0;
  std::size_t recovered = 0;
  std::size_t retries = 0;
  bool stop = false;  ///< the pipeline must stop (see `error`)
  std::size_t error_index = 0;
  std::exception_ptr error;
};

/// Runs one delivery step, `deliver(attempt)`, under the retry policy:
/// retryable faults are re-attempted with backoff, sleeping with the
/// writer role held -- delivery is the serialization point, so a failing
/// sink stalling the pipeline IS backpressure. Returns the last fault
/// (null on success); `attempts` counts every try.
template <typename Deliver>
std::exception_ptr deliver_with_retries(const PipelineState& state,
                                        std::size_t index, int& attempts,
                                        std::size_t& retries,
                                        Deliver&& deliver) {
  for (attempts = 1;; ++attempts) {
    std::exception_ptr error;
    try {
      deliver(attempts);
      return nullptr;
    } catch (...) {
      error = std::current_exception();
    }
    if (state.action != FailureAction::kRetry ||
        attempts >= state.retry.max_attempts || !state.retryable(error)) {
      return error;
    }
    ++retries;
    std::this_thread::sleep_for(backoff_delay(state.retry, index, attempts));
  }
}

/// Hands one run of finished records to the sink and the error channel in
/// order, then reports each retired record to the progress callback (after
/// the write that carried its bytes). A failing delivery stops the run
/// under abort and becomes a sink error record under skip and retry.
/// Touches only writer-owned state; an encoding sink is written with the
/// pipeline lock released.
Retired retire_run(PipelineState& state, ResultSink& sink,
                   std::size_t delivered_before, std::size_t failed_before) {
  std::vector<Outcome>& run = state.run;
  std::string& bytes = state.bytes;
  bytes.clear();
  Retired r;
  std::size_t buffered = 0;  // run[buffered, i) sit in `bytes`, unwritten
  std::size_t settled = 0;   // run[0, settled) are retired and reported

  const auto stop = [&](std::size_t index, std::exception_ptr error) {
    r.stop = true;
    r.error_index = index;
    r.error = std::move(error);
    return false;
  };
  const auto fail = [&](const Outcome& out, StreamError error) {
    if (state.errors == nullptr) return true;
    try {
      state.errors->consume(std::move(error));
    } catch (...) {
      // Once the error channel is lost the run's accounting cannot be
      // trusted: abort regardless of policy.
      return stop(out.index, std::current_exception());
    }
    return true;
  };
  // Retires run[settled, upto): counts each record and reports progress.
  const auto settle = [&](std::size_t upto) {
    for (; settled < upto; ++settled) {
      const Outcome& out = run[settled];
      if (out.delivered) {
        ++r.delivered;
        if (out.feasible) ++r.feasible;
        if (out.retried) ++r.recovered;
      } else {
        ++r.failed;
      }
      if (!state.ordered || !*state.progress) continue;
      StreamProgress snapshot;
      snapshot.completed = out.index + 1;
      snapshot.source_lines = out.source_pos;
      snapshot.delivered = delivered_before + r.delivered;
      snapshot.failed = failed_before + r.failed;
      try {
        (*state.progress)(snapshot);
      } catch (...) {
        ++settled;
        return stop(out.index, std::current_exception());
      }
    }
    return true;
  };
  // Writes the bytes of run[buffered, upto) with one write(); a failed
  // write fails every record it carried.
  const auto flush = [&](std::size_t upto) {
    if (buffered == upto) return true;
    const std::size_t first = run[buffered].index;
    int attempts = 0;
    const std::exception_ptr error = deliver_with_retries(
        state, first, attempts, r.retries,
        [&](int) { state.encoder->write(bytes); });
    if (error && state.action == FailureAction::kAbort) {
      return stop(first, error);
    }
    for (std::size_t k = buffered; k < upto; ++k) {
      Outcome& out = run[k];
      out.delivered = !error;
      out.retried = out.retried || attempts > 1;
      if (error && !fail(out, StreamError{out.index, out.source_pos,
                                          StreamErrorCategory::kSink, attempts,
                                          describe_error(error)})) {
        return false;
      }
    }
    bytes.clear();
    buffered = upto;
    return settle(upto);
  };

  for (std::size_t i = 0; i < run.size(); ++i) {
    Outcome& out = run[i];
    std::optional<StreamError> failure;
    if (auto* error = std::get_if<StreamError>(&out.payload)) {
      failure = std::move(*error);
    } else {
      // The sink.consume failpoint fires once per record, in delivery
      // order, for encoding sinks too.
      int attempts = 0;
      const std::exception_ptr fault = deliver_with_retries(
          state, out.index, attempts, r.retries, [&](int attempt) {
            failpoint::hit("sink.consume");
            if (state.encoder) return;
            SolveResult& result =
                *std::get<std::unique_ptr<SolveResult>>(out.payload);
            if (state.action == FailureAction::kRetry &&
                attempt < state.retry.max_attempts) {
              SolveResult copy = result;  // keep the original for a re-try
              sink.consume(out.index, std::move(copy));
            } else {
              sink.consume(out.index, std::move(result));
            }
          });
      out.retried = out.retried || attempts > 1;
      if (fault && state.action == FailureAction::kAbort) {
        if (flush(i)) stop(out.index, fault);
        break;
      }
      if (fault) {
        failure = StreamError{out.index, out.source_pos,
                              StreamErrorCategory::kSink, attempts,
                              describe_error(fault)};
      } else if (state.encoder) {
        bytes += std::get<std::string>(out.payload);
        continue;
      } else {
        out.delivered = true;
      }
    }
    // Bytes of earlier records go out first: the journal counts results
    // and error records, and neither file may run ahead of the other.
    if (!flush(i) || (failure && !fail(out, std::move(*failure)))) break;
    buffered = i + 1;
    if (!settle(i + 1)) break;
  }
  if (!r.stop) flush(run.size());
  return r;
}

/// Writes whatever finished records may go out now: the contiguous head of
/// the ring (ordered) or everything finished (as-completed). One worker at
/// a time holds the writer role and keeps writing until nothing is left;
/// the others only file their records and return to work. A consuming sink
/// is called under the lock, as a source's next() is; an encoding sink's
/// write() runs with it released. Lock must be held. Returns false when the
/// pipeline must stop.
bool drain(PipelineState& state, ResultSink& sink,
           std::unique_lock<std::mutex>& lock) {
  if (state.writing) return !state.failed;
  state.writing = true;
  while (!state.failed) {
    std::vector<Outcome>& run = state.run;
    if (state.ordered) {
      const std::size_t mask = state.ring.size() - 1;
      for (;;) {
        Slot& slot = state.ring[state.next_deliver & mask];
        if (!slot.ready) break;
        run.push_back(std::move(slot.out));
        slot.ready = false;
        ++state.next_deliver;
      }
    } else {
      run.swap(state.finished);
    }
    if (run.empty()) break;
    const std::size_t retired = run.size();
    const std::size_t delivered = state.stats.delivered;
    const std::size_t failed = state.stats.failed;
    if (state.encoder) lock.unlock();
    const Retired r = retire_run(state, sink, delivered, failed);
    run.clear();
    if (state.encoder) lock.lock();
    state.in_flight -= retired;
    state.stats.delivered += r.delivered;
    state.stats.feasible += r.feasible;
    state.stats.failed += r.failed;
    state.stats.recovered += r.recovered;
    state.stats.retries += r.retries;
    if (r.stop) record_failure(state, r.error_index, r.error);
    state.cv.notify_all();
  }
  state.writing = false;
  return !state.failed;
}

/// Files a claim's finished records and drains. Lock must be held.
/// Returns false when the pipeline must stop.
bool deposit(PipelineState& state, ResultSink& sink,
             std::unique_lock<std::mutex>& lock, std::vector<Outcome>& done) {
  if (state.failed) return false;
  for (Outcome& out : done) {
    if (out.footprint > 0) observe_footprint(state, out.footprint);
    if (state.ordered) {
      Slot& slot = state.ring[out.index & (state.ring.size() - 1)];
      slot.out = std::move(out);
      slot.ready = true;
    } else {
      state.finished.push_back(std::move(out));
    }
  }
  done.clear();
  return drain(state, sink, lock);
}

/// The records one claim handed a worker: `count` indices from
/// `first_index`, cut into the worker's batch (record sources) or one
/// pulled instance, then -- when the source threw -- one more index for
/// that fault, with no input behind it.
struct Claim {
  std::size_t first_index = 0;
  std::size_t count = 0;
  std::shared_ptr<const Instance> inst;
  std::size_t source_pos = 0;
  std::exception_ptr error;
};

/// The record a source fault retires under skip and retry: source faults
/// are never retried, the source cannot re-produce input it already
/// consumed (stream.hpp file comment).
Outcome source_fault(std::size_t index, std::size_t source_pos,
                     const std::exception_ptr& error) {
  Outcome out;
  out.index = index;
  out.source_pos = source_pos;
  out.payload = StreamError{index, source_pos, StreamErrorCategory::kSource,
                            1, describe_error(error)};
  return out;
}

/// Takes the next claim for one worker: waits for window room, then cuts
/// up to claim_size() records from a record source, or pulls one
/// instance from any other source -- under both locks, as sink calls are,
/// so next() and consume() stay serialized against each other. Folds the
/// worker's last measured per-record time into the claim sizing. Returns
/// false when the worker should exit.
bool take_claim(PipelineState& state, InstanceSource& source,
                const CancelToken* cancel, double record_ns,
                RecordBatch& batch, Claim& claim) {
  std::unique_lock<std::mutex> pull(state.pull_mu);
  std::unique_lock<std::mutex> lock(state.mu);
  if (record_ns > 0.0) {
    state.record_ns = state.record_ns > 0.0
                          ? state.record_ns + (record_ns - state.record_ns) / 8.0
                          : record_ns;
  }
  const auto cancelled = [&] { return cancel && cancel->cancelled(); };
  // wait_for, not wait: an external thread cancelling the token has no way
  // to notify, so waiters re-check on a coarse timeout.
  while (!state.failed && !state.source_done && !cancelled() &&
         state.in_flight >= state.window_limit) {
    state.cv.wait_for(lock, std::chrono::milliseconds(20));
  }
  if (state.failed || state.source_done) return false;
  if (cancelled()) {
    if (!state.stats.cancelled) {
      state.stats.cancelled = true;
      state.stats.cancel_reason = cancel->reason();
    }
    return false;
  }
  claim.inst.reset();
  claim.error = nullptr;
  if (state.records) {
    const std::size_t want =
        std::min(state.window_limit - state.in_flight, claim_size(state));
    lock.unlock();
    batch.clear();
    try {
      state.records->claim(want, batch);
    } catch (...) {
      claim.error = std::current_exception();
    }
    claim.count = batch.records.size();
    lock.lock();
  } else {
    try {
      claim.inst = source.next();
    } catch (...) {
      claim.error = std::current_exception();
    }
    claim.count = claim.inst ? 1 : 0;
  }
  claim.source_pos = source.position().value_or(0);
  if (claim.count == 0 && !claim.error) {
    state.source_done = true;
    state.cv.notify_all();
    return false;
  }
  claim.first_index = state.next_index;
  const std::size_t claimed = claim.count + (claim.error ? 1 : 0);
  state.next_index += claimed;
  admit(state, claimed);
  state.stats.pulled += claim.count;
  if (claim.error && state.action == FailureAction::kAbort) {
    record_failure(state, claim.first_index + claim.count, claim.error);
    return false;
  }
  return true;
}

}  // namespace

StreamStats solve_stream(const Solver& solver, InstanceSource& source,
                         ResultSink& sink, const SolveOptions& options,
                         const StreamOptions& stream) {
  if (stream.on_error.action == FailureAction::kRetry &&
      stream.on_error.retry.max_attempts < 1) {
    throw std::invalid_argument(
        "solve_stream: retry.max_attempts must be >= 1");
  }
  const CancelToken* cancel = stream.cancel.get();
  // Right-size the crew: never more workers than instances (when the
  // source knows its size) and never more than the window has slots for.
  const std::size_t hint =
      source.size_hint().value_or(std::numeric_limits<std::size_t>::max());
  unsigned workers = parallel_worker_count(hint, stream.threads);
  const std::size_t window =
      stream.window > 0 ? stream.window : std::size_t{4} * workers;
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, window));

  PipelineState state;
  if (workers <= 1) {
    // Single worker: the crew runs the loop inline on the calling thread
    // (run_worker_crew spawns nothing) and claim/solve/retire strictly
    // alternate -- in-flight never exceeds 1, so report window 1.
    state.window_limit = 1;
    state.adaptive = false;
  } else {
    state.window_limit = window;
    state.adaptive = stream.window == 0;
  }
  state.window_floor = workers;
  state.memory_budget = stream.memory_budget;
  state.next_index = stream.start_index;
  state.next_deliver = stream.start_index;
  state.ordered = stream.ordered;
  state.records = dynamic_cast<RecordSource*>(&source);
  state.encoder = dynamic_cast<EncodingSink*>(&sink);
  state.action = stream.on_error.action;
  state.retry = stream.on_error.retry;
  state.retryable =
      state.retry.retryable ? state.retry.retryable : default_retryable;
  state.errors = stream.errors;
  state.progress = &stream.progress;
  admit(state, 0);  // allocates the ring
  // The solver spec is part of the cache key; resolve it once, not per
  // record (Solver::name() may build a string).
  const std::string spec = stream.cache != nullptr ? solver.name() : std::string{};

  // What a worker's records did besides their outcomes, folded into
  // StreamStats once per claim.
  struct Tally {
    std::size_t retries = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t malformed = 0;  ///< claimed records that did not parse
    std::exception_ptr abort;   ///< abort-policy failure at abort_index
    std::size_t abort_index = 0;
  };

  // Parses (record sources), solves -- re-attempting per policy, backoff
  // sleeps included, while other workers keep streaming -- and encodes
  // (encoding sinks) one claimed record, outside the locks.
  const auto process = [&](const Claim& claim, const RecordBatch& batch,
                           std::size_t r, Tally& tally) {
    Outcome out;
    out.index = claim.first_index + r;
    out.source_pos = claim.source_pos;
    std::optional<Instance> parsed;
    const Instance* inst = claim.inst.get();
    if (state.records) {
      out.source_pos = batch.records[r].line;
      try {
        inst = &parsed.emplace(
            state.records->parse(batch.view(r), out.source_pos));
      } catch (...) {
        ++tally.malformed;
        if (state.action == FailureAction::kAbort) {
          tally.abort = std::current_exception();
          tally.abort_index = out.index;
          return out;
        }
        return source_fault(out.index, out.source_pos,
                            std::current_exception());
      }
    }

    auto result = std::make_unique<SolveResult>();
    bool solved = false;
    bool cache_hit = false;
    int attempt = 0;
    std::exception_ptr solve_error;
    for (;;) {
      ++attempt;
      try {
        // Cache consult before the first cold attempt only: a record that
        // reached the retry path already missed. A hit under
        // STORESCHED_AUDIT=1 that fails its audit throws here and is
        // handled exactly like a deterministic solve fault.
        if (stream.cache != nullptr && attempt == 1) {
          if (auto cached = stream.cache->lookup(*inst, spec, options)) {
            *result = *std::move(cached);
            solved = true;
            cache_hit = true;
            break;
          }
        }
        failpoint::hit("stream.solve");
        *result = solver.solve(*inst, options);
        solved = true;
        if (stream.cache != nullptr) {
          stream.cache->insert(*inst, spec, options, *result);
        }
        break;
      } catch (...) {
        solve_error = std::current_exception();
      }
      if (state.action != FailureAction::kRetry) break;
      if (attempt >= state.retry.max_attempts ||
          !state.retryable(solve_error)) {
        break;
      }
      ++tally.retries;
      std::this_thread::sleep_for(
          backoff_delay(state.retry, out.index, attempt));
    }
    if (cache_hit) {
      ++tally.cache_hits;
    } else if (stream.cache != nullptr) {
      ++tally.cache_misses;
    }
    if (!solved) {
      if (state.action == FailureAction::kAbort) {
        tally.abort = solve_error;
        tally.abort_index = out.index;
      } else {
        out.payload =
            StreamError{out.index, out.source_pos, StreamErrorCategory::kSolve,
                        attempt, describe_error(solve_error)};
      }
      return out;
    }
    out.footprint = estimate_footprint(*inst, *result);
    out.feasible = result->feasible;
    out.retried = attempt > 1;
    if (!state.encoder) {
      out.payload = std::move(result);
      return out;
    }
    std::string bytes;
    try {
      state.encoder->encode(out.index, *result, bytes);
      out.payload = std::move(bytes);
    } catch (...) {
      if (state.action == FailureAction::kAbort) {
        tally.abort = std::current_exception();
        tally.abort_index = out.index;
      } else {
        out.payload =
            StreamError{out.index, out.source_pos, StreamErrorCategory::kSink,
                        1, describe_error(std::current_exception())};
      }
    }
    return out;
  };

  const auto worker = [&](unsigned) {
    RecordBatch batch;
    Claim claim;
    std::vector<Outcome> done;
    double record_ns = 0.0;
    while (take_claim(state, source, cancel, record_ns, batch, claim)) {
      // Only claims from record sources take several records, so only
      // they need the per-record work time.
      using Clock = std::chrono::steady_clock;
      const Clock::time_point start =
          state.records ? Clock::now() : Clock::time_point{};
      Tally tally;
      for (std::size_t r = 0; r < claim.count && !tally.abort; ++r) {
        done.push_back(process(claim, batch, r, tally));
      }
      if (claim.error) {
        done.push_back(source_fault(claim.first_index + claim.count,
                                    claim.source_pos, claim.error));
      }
      claim.inst.reset();
      record_ns = state.records && claim.count > 0
                      ? std::chrono::duration<double, std::nano>(
                            Clock::now() - start)
                                .count() /
                            static_cast<double>(claim.count)
                      : 0.0;

      std::unique_lock<std::mutex> lock(state.mu);
      state.stats.retries += tally.retries;
      state.stats.cache_hits += tally.cache_hits;
      state.stats.cache_misses += tally.cache_misses;
      state.stats.pulled -= tally.malformed;
      if (tally.abort) {
        record_failure(state, tally.abort_index, tally.abort);
        return;
      }
      if (!deposit(state, sink, lock, done)) return;
    }
  };

  std::exception_ptr crew_error;
  try {
    run_worker_crew(workers, worker);
  } catch (...) {
    crew_error = std::current_exception();
  }

  // The crew has fully joined; no lock needed past here.
  if (state.failed) rethrow_with_index(state.error_index, state.error);
  if (crew_error) {
    // The worker body never lets an exception escape, so anything the crew
    // rethrew came from thread spawning. If the workers that did start
    // finished the stream anyway, degrade gracefully instead of discarding
    // a completed run.
    const bool completed =
        (state.source_done && state.in_flight == 0) || state.stats.cancelled;
    if (!completed) std::rethrow_exception(crew_error);
    state.stats.degraded_spawn = true;
  }
  state.stats.window = state.window_limit;
  state.stats.source_lines = source.position().value_or(0);
  return state.stats;
}

}  // namespace storesched
