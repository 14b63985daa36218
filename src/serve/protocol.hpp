// Wire protocol of the serving tier (tools/storesched_serve.cpp): JSONL
// requests and responses over persistent TCP / unix-domain connections,
// plus the incremental line framer that turns a socket byte stream into
// bounded request lines.
//
// One request object per line, one response line per request line --
// including malformed lines, which get an {"ok":false,...} response
// instead of a dropped connection, so pipelined clients can always match
// responses to requests by count (or by the echoed "id").
//
// Request grammar (common/json_cursor.hpp's rules, which the embedded
// instance follows too: it is read in place on the request's cursor):
//
//   {"id":"r1","spec":"sbo:lpt,delta=1","instance":{"m":2,"tasks":[[3,1]]}}
//   {"id":"r2","slo_ms":5,"quality":1,"priority":"high","deadline_ms":100,
//    "instance":{...}}
//   {"statsz":true}
//   {"cancel":"r2"}
//
//   id           optional string, echoed verbatim in the response
//   instance     the instance object (instance_from_jsonl vocabulary);
//                solve requests carry this or "ref"
//   ref          record index into the server's attached shm instance
//                store (storesched_serve --store); solves by reference
//                without shipping the instance bytes over the socket
//   spec         explicit solver spec -- bypasses the router
//   slo_ms       per-request latency SLO (milliseconds, decimal allowed);
//                the router picks the cheapest rung predicted to meet it
//   quality      deepest router rung the client prefers (0 = best only);
//                under load the router may degrade past it (flagged)
//   deadline_ms  hard per-request budget, queue wait included; an expired
//                request answers infeasible-with-diagnostics, never a
//                dropped connection
//   priority     "high" | "normal" | "low" admission class
//   statsz       true -> introspection snapshot instead of a solve
//   cancel       request id to cancel; the cancelled request still gets
//                its own (infeasible) response
//
// Response lines: {"id":...,"ok":true,...} with router fields (admission,
// spec, rung, queue_ms, solve_ms) followed by the standard result fields
// (result_jsonl_fields, core/stream.hpp), or {"ok":false,"error":"..."}
// for protocol-level failures. Full field reference: docs/SERVING.md.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "common/instance.hpp"
#include "core/stream.hpp"

namespace storesched {

/// Admission classes, best first. Wire tokens: "high", "normal", "low".
enum class ServePriority { kHigh = 0, kNormal = 1, kLow = 2 };

/// Canonical wire token for a priority class.
const char* to_string(ServePriority priority);

/// One parsed request line. Exactly one of {instance, ref, statsz,
/// cancel_id} is populated (the parser enforces it).
struct ServeRequest {
  std::string id;  ///< echoed in the response; empty = none
  std::shared_ptr<const Instance> instance;
  /// Record index into the server's attached shm instance store
  /// (storage/shm_store.hpp) -- solve-by-reference without shipping the
  /// instance over the socket. Servers without a store answer an error.
  std::optional<std::uint64_t> ref;
  std::string spec;  ///< explicit solver spec; empty = routed
  std::optional<double> slo_ms;
  std::optional<double> deadline_ms;
  ServePriority priority = ServePriority::kNormal;
  std::size_t quality = 0;  ///< deepest preferred router rung
  bool statsz = false;
  std::string cancel_id;  ///< nonempty = cancel message

  bool is_solve() const { return instance != nullptr || ref.has_value(); }
};

/// Serializes a request in canonical key order. Round-trips through
/// serve_request_from_jsonl() as a fixpoint (the fuzz oracle's contract).
std::string serve_request_to_jsonl(const ServeRequest& request);

/// Parses a request line. Throws std::runtime_error naming the offending
/// token on malformed input: unknown keys, duplicate keys, bad priority
/// tokens, negative/over-range numbers, a solve request without an
/// instance, or statsz/cancel combined with solve fields.
ServeRequest serve_request_from_jsonl(const std::string& line);

/// What the admission path decided for a request (response "admission").
enum class ServeAdmission {
  kOk,        ///< served at the requested quality, SLO met (or no SLO)
  kDegraded,  ///< load pushed the route past the requested quality rung
  kOverSlo,   ///< even the cheapest rung missed the SLO; served anyway
  kRejected,  ///< not admitted (queue full); no solve was attempted
};

const char* to_string(ServeAdmission admission);

/// One response line for a solved (or failed) request. `result` may be
/// null (protocol errors, rejections, cancel acks).
struct ServeResponse {
  std::string id;
  bool ok = true;
  std::string error;  ///< set when !ok
  std::optional<ServeAdmission> admission;
  std::string spec;  ///< solver spec that answered (empty when none ran)
  int rung = -1;     ///< router rung that answered; -1 = explicit spec
  double queue_ms = 0;
  double solve_ms = 0;
  const SolveResult* result = nullptr;
  std::string cancel_ack;  ///< id acknowledged by a cancel message
};

/// One response as a single JSONL line (no trailing newline).
std::string serve_response_to_jsonl(const ServeResponse& response,
                                    const JsonlResultOptions& options = {});

/// Incremental newline framing over a socket byte stream with a hard
/// per-line byte cap. feed() bytes as they arrive, then drain next():
///
///   LineFramer framer(1 << 20);
///   framer.feed(buf, n);
///   while (auto line = framer.next()) {
///     if (line->oversized) ...  // cap exceeded; payload was discarded
///     else handle(line->text);
///   }
///
/// A line longer than `max_line` bytes, not counting the '\r' of a "\r\n"
/// terminator, flips the framer into discard mode until the next newline,
/// then yields one {oversized=true} marker for the whole offending line --
/// the connection stays framed and usable, it just cannot smuggle an
/// unbounded allocation in. A trailing fragment with no newline (mid-line
/// disconnect) stays buffered: partial() names its size so the server can
/// account for it; it is never delivered.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line) : max_line_(max_line) {}

  /// Appends raw bytes: memchr finds each newline and every byte of a line
  /// is copied once. Never throws past bad_alloc (allocation is capped at
  /// max_line + 1 for the tail plus one read's worth of complete lines).
  void feed(const char* data, std::size_t size);

  struct Line {
    std::string text;  ///< empty when oversized
    bool oversized = false;
  };

  /// The next complete line (terminator stripped, '\r' before '\n'
  /// tolerated), or nullopt when no full line is buffered.
  std::optional<Line> next();

  /// Bytes of an unterminated trailing fragment currently buffered.
  std::size_t partial() const { return discarding_ ? 0 : buffer_.size(); }

  /// True when the buffered fragment belongs to an oversized line still
  /// waiting for its newline.
  bool discarding() const { return discarding_; }

 private:
  std::size_t max_line_;
  std::string buffer_;  ///< the unterminated tail (or nothing)
  std::deque<Line> ready_;
  bool discarding_ = false;
};

}  // namespace storesched
