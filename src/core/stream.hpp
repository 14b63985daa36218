// Streaming solve pipeline: sources, sinks, and a backpressured driver.
//
// solve_batch() materializes a std::vector<SolveResult> for the whole run
// -- O(batch) memory and no way to shard a million-instance study across
// processes. This module is the streaming redesign of that surface:
//
//   auto solver = make_solver("rls:input,delta=3");
//   JsonlInstanceSource source(std::cin);
//   JsonlResultSink sink(std::cout);
//   StreamStats stats = solve_stream(*solver, source, sink);
//
// An InstanceSource yields instances one at a time (in-memory spans,
// generator callbacks, JSONL text); a ResultSink consumes indexed results.
// The driver fans solves out over a bounded in-flight window of worker
// threads: at most StreamOptions::window instances are pulled-but-not-yet-
// delivered at any moment, so peak memory is O(window), never O(batch).
// Delivery is in input order by default, or as-completed for minimum
// latency (every result carries its input index either way). Cancellation
// is cooperative via CancelToken; per-solve wall-clock deadlines ride in
// SolveOptions::deadline and surface as infeasible-with-diagnostics.
//
// Sources and sinks may opt into a split contract (RecordSource,
// EncodingSink) that moves parsing and serializing out of the pipeline's
// serialized sections: a claim only cuts raw record bytes under
// the pull lock, the workers parse, solve and encode each record into its
// own buffer, and one writer at a time appends each contiguous run of
// finished records with a single write(). JsonlInstanceSource and
// JsonlResultSink opt in; everything else keeps one next() per pull and
// one consume() per result.
//
// Failure handling is a per-run policy (StreamOptions::on_error):
//
//   abort   (default) the first source/solve/sink exception cancels the
//           remaining work and rethrows on the caller with the offending
//           instance index attached -- exactly the historical behavior.
//   skip    the failing record is recorded as a StreamError (flowing to
//           StreamOptions::errors when set), its index is retired, and
//           the stream keeps going. One malformed line no longer aborts a
//           million-instance run.
//   retry   transient solve/sink faults are retried up to
//           RetryPolicy::max_attempts with exponential backoff and
//           deterministic jitter; deterministic faults (std::logic_error,
//           std::invalid_argument, wire write failures) and exhausted
//           retries degrade to skip-with-record. Source faults are never
//           retried -- a source cannot re-produce bytes it already
//           consumed, so retrying would silently desynchronize record
//           indices -- they too degrade to skip-with-record.
//
// StreamStats accounts for every record exactly: delivered + failed ==
// indices retired, `retries` counts extra attempts, `recovered` the
// records that succeeded only after retrying. Failpoints
// (common/failpoint.hpp: source.next / stream.solve / sink.consume /
// crew.spawn) make every policy deterministically testable.
//
// solve_batch() is now a thin wrapper over this driver (bit-identical
// results to the historical implementation); tools/storesched_cli.cpp is
// the JSONL service front-end that makes multi-process sharding a shell
// pipeline, and core/journal.hpp adds crash-safe resume on top of the
// ordered delivery contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"

namespace storesched::storage {
// The result cache (storage/result_cache.hpp). Forward-declared: core sits
// below storage in the layer order, so StreamOptions can carry a pointer
// without core/stream.hpp pulling the storage headers in.
class SolveCache;
}  // namespace storesched::storage

namespace storesched {

/// Cooperative cancellation flag, shared between the caller and a running
/// pipeline (and, via SolveOptions::cancel, individual solves). Thread-safe;
/// request_cancel() is sticky, and the first call's reason wins. The reason
/// distinguishes operator-cancel vs deadline-cancel vs fault-abort
/// post-mortem: it surfaces in StreamStats::cancel_reason and on the CLI's
/// stderr summary.
class CancelToken {
 public:
  /// Reasonless cancel: one lock-free atomic store, so it is safe to call
  /// from a signal handler (the CLI's SIGINT/SIGTERM path does).
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }
  void request_cancel(const std::string& reason) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (reason_.empty()) reason_ = reason;
    }
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// The first request_cancel(reason) argument; empty when cancellation was
  /// reasonless (or not requested).
  std::string reason() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reason_;
  }

 private:
  static_assert(std::atomic<bool>::is_always_lock_free);
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

/// Raw records cut by a RecordSource (RecordSource::claim): the
/// records' bytes back to back, each with the 1-based input line it sat on.
struct RecordBatch {
  struct Record {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::size_t line = 0;
  };
  std::string bytes;
  std::vector<Record> records;

  void clear() {
    bytes.clear();
    records.clear();
  }
  void add(std::string_view record, std::size_t line) {
    records.push_back({bytes.size(), record.size(), line});
    bytes.append(record);
  }
  std::string_view view(std::size_t i) const {
    return {bytes.data() + records[i].offset, records[i].size};
  }
};

/// Pull-based instance stream. Sources are consumed by exactly one
/// pipeline at a time; the driver serializes next() calls, so
/// implementations need not be thread-safe.
class InstanceSource {
 public:
  virtual ~InstanceSource() = default;

  /// The next instance, or nullptr when the stream is exhausted. The
  /// pointee must stay valid until the solve consuming it completes:
  /// owning sources (generator, JSONL) return shared ownership, while
  /// SpanSource hands out non-owning aliases into the caller's span --
  /// no per-instance copy on the in-memory solve_batch path. May throw
  /// (e.g. on malformed input); what the pipeline does then is governed
  /// by StreamOptions::on_error (abort rethrows, the default).
  virtual std::shared_ptr<const Instance> next() = 0;

  /// Total number of instances when known up front (spans, counted
  /// generators); lets the driver right-size its worker crew.
  virtual std::optional<std::size_t> size_hint() const { return std::nullopt; }

  /// Units of input consumed so far (1-based line count for JSONL text),
  /// when the source tracks one. Read by the driver right after each
  /// next() or claim() call -- successful or throwing -- to stamp error
  /// records and resume journals; a source error that consumed no input
  /// leaves it unchanged.
  virtual std::optional<std::size_t> position() const { return std::nullopt; }
};

/// A source that hands out raw records (the split contract): solve_stream
/// never calls its next(). Under the pull lock it calls claim(), which
/// only cuts records; workers then call parse() concurrently, outside any
/// lock.
class RecordSource : public InstanceSource {
 public:
  /// One claim() and parse(), for callers that want instances.
  std::shared_ptr<const Instance> next() override;

  /// Appends up to `max` (>= 1) complete records to `batch`, stamping each
  /// with its input line. Blocks on input only while `batch` gained no
  /// record yet; returns with nothing added at the end of the input. May
  /// throw before cutting a record (e.g. an armed failpoint); the records
  /// cut before the throw stay in `batch` and count as claimed.
  virtual void claim(std::size_t max, RecordBatch& batch) = 0;

  /// Parses one claimed record. Must be safe to call concurrently with
  /// itself and with claim(). Throws on malformed input.
  virtual Instance parse(std::string_view record, std::size_t line) const = 0;

 private:
  RecordBatch one_;  ///< next()'s single-record claim
};

/// Push-based result consumer. The driver serializes consume() calls
/// (implementations need not be thread-safe) and never calls it twice for
/// the same index -- except under the retry policy, where a consume() that
/// threw is re-attempted with an identical copy of the result. `index` is
/// the 0-based position of the instance in its source's order. A sink's
/// consume() and a source's next() run under the same pipeline lock, so the
/// two may share unsynchronized state.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(std::size_t index, SolveResult result) = 0;
};

/// A sink that takes encoded bytes (the split contract): solve_stream never
/// calls its consume(). Workers call encode() concurrently, each into its
/// own buffer, and one writer at a time hands write() the encoded bytes of
/// a contiguous run of records, in delivery order.
class EncodingSink : public ResultSink {
 public:
  /// encode() then write(), for callers that hold results.
  void consume(std::size_t index, SolveResult result) override;

  /// Appends the bytes `result` stands for to `out`. Must be safe to call
  /// concurrently with itself and with write().
  virtual void encode(std::size_t index, const SolveResult& result,
                      std::string& out) const = 0;

  /// Writes the encoded bytes of one or more records. A throw fails every
  /// record in `bytes` (as a sink error under skip/retry).
  virtual void write(std::string_view bytes) = 0;

 private:
  std::string bytes_;  ///< consume()'s encode buffer
};

/// Why a record failed: which stage of the pipeline threw.
enum class StreamErrorCategory { kSource, kSolve, kSink };

/// Canonical wire token for a category ("source" / "solve" / "sink").
const char* to_string(StreamErrorCategory category);

/// One failed record, as recorded under the skip/retry policies. `index`
/// is the record slot the failure retired (result indices skip over it);
/// `line` is the 1-based input line when the source tracks positions
/// (0 = unknown); `attempts` counts every try made (1 = no retries).
struct StreamError {
  std::size_t index = 0;
  std::size_t line = 0;
  StreamErrorCategory category = StreamErrorCategory::kSolve;
  int attempts = 1;
  std::string what;
};

/// One error as a single JSONL line (no trailing newline):
///   {"index":I,"error":true,"category":"solve","attempts":K,"what":"..."}
/// "line" is included only when nonzero. Distinguishable from result lines
/// by the "error":true marker (results carry "feasible" instead).
std::string stream_error_to_jsonl(const StreamError& error);

/// Parses a stream_error_to_jsonl() line back. Throws std::runtime_error
/// naming the offending token on malformed input (unknown keys, missing
/// fields, bad category, trailing bytes). Round-trips exactly.
StreamError stream_error_from_jsonl(const std::string& line);

/// Push-based consumer for failed records (the error counterpart of
/// ResultSink). The driver serializes consume() calls. A throwing
/// ErrorSink aborts the pipeline regardless of policy -- losing the error
/// channel means the run's accounting can no longer be trusted.
class ErrorSink {
 public:
  virtual ~ErrorSink() = default;
  virtual void consume(StreamError error) = 0;
};

/// Source over an in-memory instance span (the solve_batch shape). Yields
/// non-owning aliases: the span must outlive the pipeline run.
class SpanSource final : public InstanceSource {
 public:
  explicit SpanSource(std::span<const Instance> instances)
      : instances_(instances) {}
  std::shared_ptr<const Instance> next() override;
  std::optional<std::size_t> size_hint() const override {
    return instances_.size();
  }

 private:
  std::span<const Instance> instances_;
  std::size_t cursor_ = 0;
};

/// Source over a generator callback: fn() returns instances until it
/// returns nullopt. Pass `count` when the total is known so the driver can
/// right-size its worker crew.
class GeneratorSource final : public InstanceSource {
 public:
  explicit GeneratorSource(std::function<std::optional<Instance>()> fn,
                           std::optional<std::size_t> count = std::nullopt)
      : fn_(std::move(fn)), count_(count) {}
  std::shared_ptr<const Instance> next() override;
  std::optional<std::size_t> size_hint() const override { return count_; }

 private:
  std::function<std::optional<Instance>()> fn_;
  std::optional<std::size_t> count_;
};

/// Source over instance JSONL text (one instance_from_jsonl() object per
/// line; blank and whitespace-only lines skipped, "\r\n" endings and a last
/// line without "\n" accepted). Malformed lines throw std::runtime_error
/// naming the 1-based line number. `first_line` offsets the numbering for
/// resumed runs that already consumed a prefix of the file, so error
/// messages keep naming the physical line. Carries the failpoint site
/// "source.next" (fires once per record, and once at the end of the input,
/// before the record's input is consumed).
///
/// Opts into the split contract. The source reads the stream's buffer
/// directly, one underlying read per refill, and never blocks while it has
/// a complete line to hand out -- so feeding it from a pipe whose writer
/// waits for earlier results cannot stall the pipeline. Do not read `in`
/// through the istream while the source is in use.
class JsonlInstanceSource final : public RecordSource {
 public:
  explicit JsonlInstanceSource(std::istream& in, std::size_t first_line = 0)
      : in_(in), line_number_(first_line) {}
  std::optional<std::size_t> position() const override { return line_number_; }
  void claim(std::size_t max, RecordBatch& batch) override;
  Instance parse(std::string_view record, std::size_t line) const override;

 private:
  /// Where the next record sits in the buffer, found without consuming.
  struct Located {
    enum { kRecord, kEnd, kPending } status = kPending;
    std::size_t begin = 0;  ///< record bytes, "\n" excluded
    std::size_t end = 0;
    std::size_t next = 0;   ///< buffer offset just past the record
    std::size_t lines = 0;  ///< lines consumed, blank ones included
  };
  Located locate(bool wait);
  /// One underlying read into the buffer; sets eof_ at the end of input.
  void refill();

  std::istream& in_;
  std::size_t line_number_;
  std::string buffer_;
  std::size_t head_ = 0;  ///< first unconsumed byte
  std::size_t tail_ = 0;  ///< end of buffered bytes
  bool eof_ = false;
};

/// Sink that stores each result at its index in a caller-owned vector
/// (presized to the expected count; out-of-range indices throw).
class VectorSink final : public ResultSink {
 public:
  explicit VectorSink(std::vector<SolveResult>& results) : results_(results) {}
  void consume(std::size_t index, SolveResult result) override;

 private:
  std::vector<SolveResult>& results_;
};

/// Sink that forwards each indexed result to a callback.
class CallbackSink final : public ResultSink {
 public:
  explicit CallbackSink(std::function<void(std::size_t, SolveResult)> fn)
      : fn_(std::move(fn)) {}
  void consume(std::size_t index, SolveResult result) override {
    fn_(index, std::move(result));
  }

 private:
  std::function<void(std::size_t, SolveResult)> fn_;
};

/// Error sink that appends each failed record to a caller-owned vector.
class VectorErrorSink final : public ErrorSink {
 public:
  explicit VectorErrorSink(std::vector<StreamError>& errors)
      : errors_(errors) {}
  void consume(StreamError error) override {
    errors_.push_back(std::move(error));
  }

 private:
  std::vector<StreamError>& errors_;
};

/// What a JSONL result line carries beyond the always-present core fields
/// (see result_to_jsonl below).
struct JsonlResultOptions {
  /// Emit the assignment ("proc") and, for timed schedules, start times
  /// ("start") of feasible results. Off by default: at service scale the
  /// objectives are the payload and schedules dominate the line size.
  bool include_schedule = false;
};

/// One result as a single JSONL line (no trailing newline):
///   {"index":I,"feasible":B,"cmax":C,"mmax":M,"delta":"F", ...}
/// Optional fields (sum_ci, bounds, ratios, diagnostics, schedule) are
/// omitted when absent. Infeasible results carry only index/feasible/
/// delta/diagnostics.
std::string result_to_jsonl(std::size_t index, const SolveResult& result,
                            const JsonlResultOptions& options = {});

/// Appends the body of a result line without the leading "index" key to
/// `out`: a comma-led field list ( ,"feasible":...,"cmax":... ) ready to
/// splice into any enclosing JSON object. result_to_jsonl() and the
/// serving tier's response lines (serve/protocol.hpp) are both built on
/// this, so the result vocabulary cannot drift between the batch and
/// serve wires.
void result_jsonl_fields(const SolveResult& result,
                         const JsonlResultOptions& options, std::string& out);

/// Thrown by the JSONL sinks when the underlying ostream reports a write
/// failure (badbit/failbit: full disk, closed pipe). A dedicated type so
/// the retry classifier can refuse to retry it -- a dead stream stays
/// dead, and each record must fail fast instead of burning backoff.
class StreamWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sink that writes one result_to_jsonl() line per result to a stream.
/// Checks the stream state after every write and throws StreamWriteError
/// on badbit/failbit -- a full disk or closed pipe surfaces as a stream
/// error instead of silently dropping results. Opts into the split
/// contract: workers encode lines, the writer appends runs of them.
class JsonlResultSink final : public EncodingSink {
 public:
  explicit JsonlResultSink(std::ostream& out,
                           const JsonlResultOptions& options = {})
      : out_(out), options_(options) {}
  void encode(std::size_t index, const SolveResult& result,
              std::string& out) const override;
  void write(std::string_view bytes) override;

 private:
  std::ostream& out_;
  JsonlResultOptions options_;
};

/// Error sink that writes one stream_error_to_jsonl() line per failed
/// record (JsonlResultSink's error counterpart, same write-failure
/// contract).
class JsonlErrorSink final : public ErrorSink {
 public:
  explicit JsonlErrorSink(std::ostream& out) : out_(out) {}
  void consume(StreamError error) override;

 private:
  std::ostream& out_;
};

/// What to do when a record's source pull, solve, or sink delivery throws.
enum class FailureAction {
  kAbort,  ///< cancel remaining work, rethrow with the index attached
  kSkip,   ///< record a StreamError, retire the index, keep streaming
  kRetry,  ///< re-attempt transient faults with backoff, else skip
};

/// Retry tuning (FailureAction::kRetry). Backoff for attempt a (1-based)
/// is min(max_backoff, base_backoff * multiplier^(a-1)) scaled by a
/// deterministic jitter factor in [0.5, 1.5) derived from (jitter_seed,
/// record index, attempt) -- runs are reproducible, yet concurrent
/// retries spread out.
struct RetryPolicy {
  /// Total tries per record (1 = no retries). Must be >= 1.
  int max_attempts = 3;
  std::chrono::nanoseconds base_backoff = std::chrono::milliseconds(1);
  double multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::milliseconds(100);
  std::uint64_t jitter_seed = 0x5eed;
  /// Overrides the transient-vs-deterministic classification. Default
  /// (unset): InjectedFault and generic runtime errors are retryable;
  /// std::logic_error, std::invalid_argument, and StreamWriteError are
  /// not. Source faults are never retried regardless (see file comment).
  std::function<bool(const std::exception_ptr&)> retryable;
};

/// The per-run failure policy (StreamOptions::on_error).
struct FailurePolicy {
  FailureAction action = FailureAction::kAbort;
  RetryPolicy retry;  ///< consulted only when action == kRetry
};

/// Ordered-mode progress callback payload: records [start_index,
/// completed) are fully retired (delivered or recorded as failed), in
/// order, and `source_lines` input units produced them. The resume
/// journal (core/journal.hpp) is built on exactly this contract.
struct StreamProgress {
  std::size_t completed = 0;     ///< first not-yet-retired index
  std::size_t source_lines = 0;  ///< input consumed by retired records
  std::size_t delivered = 0;     ///< running delivered count
  std::size_t failed = 0;        ///< running failed count
};

/// Tuning for the streaming driver.
struct StreamOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Never
  /// more workers than the window, or than the source's size_hint.
  int threads = 0;
  /// Bound on in-flight instances (pulled from the source but not yet
  /// delivered to the sink) -- the backpressure knob and the peak-memory
  /// bound. 0 means *adaptive*: start at 4x the worker count, then grow or
  /// shrink with the observed per-solve footprint (instance + result
  /// estimate) so that window x footprint stays within `memory_budget`;
  /// never below the worker count, never above 4096. The window actually
  /// in effect at the end of a run is recorded in StreamStats::window.
  std::size_t window = 0;
  /// Byte ceiling the adaptive window sizes against (window == 0 only;
  /// an explicit window is always taken literally). Footprints are
  /// estimates -- schedules, extras channels and the instance itself --
  /// not allocator-exact RSS.
  std::size_t memory_budget = std::size_t{64} << 20;
  /// Deliver results in input order (buffering at most `window` completed
  /// results behind a straggler) or immediately as each solve completes.
  bool ordered = true;
  /// When set, the driver stops pulling new instances once the token is
  /// cancelled; already-solving instances finish and are delivered. The
  /// token's reason (if any) is copied into StreamStats::cancel_reason.
  std::shared_ptr<const CancelToken> cancel;
  /// Failure policy: abort (default, historical behavior), skip, retry.
  FailurePolicy on_error;
  /// Where failed records flow under skip/retry (not owned; must outlive
  /// the run). Null = failures are counted in StreamStats::failed but the
  /// records themselves are dropped.
  ErrorSink* errors = nullptr;
  /// Index assigned to the first record -- resumed runs pass the journal's
  /// completed count so output lines keep their global indices.
  std::size_t start_index = 0;
  /// Called after each retired record, once the sink holds its bytes (for
  /// an EncodingSink: after the write() that carried them), one call at
  /// a time, in index order (ordered mode only; never called in
  /// as-completed mode, which has no contiguity to report). A throwing
  /// callback aborts the run.
  std::function<void(const StreamProgress&)> progress;
  /// Result cache keyed on the input as given (storage/result_cache.hpp),
  /// not owned; must outlive the run. When set, every solve attempt,
  /// retries included, goes through storage::solve_cached: the record is
  /// looked up under the solver's canonical name (a hit, audited by the
  /// solver's own rule, delivers the cached result and skips the solver)
  /// and every cacheable cold solve is inserted after. Null = no caching.
  storage::SolveCache* cache = nullptr;
};

/// What a pipeline run did. `max_in_flight` is the observed high-water of
/// pulled-but-undelivered instances -- always <= the window. Every record
/// is accounted exactly once: delivered + failed == indices retired.
struct StreamStats {
  std::size_t pulled = 0;     ///< instances taken from the source
  std::size_t delivered = 0;  ///< results handed to the sink
  std::size_t feasible = 0;   ///< delivered results with feasible == true
  std::size_t failed = 0;     ///< records retired as StreamErrors
  std::size_t retries = 0;    ///< extra solve/sink attempts made
  std::size_t recovered = 0;  ///< records delivered only after >= 1 retry
  std::size_t max_in_flight = 0;
  /// The in-flight bound in effect when the run ended: the explicit
  /// StreamOptions::window, the final adapted value (window == 0), or the
  /// worker count for the single-worker path.
  std::size_t window = 0;
  /// Input units consumed (source position at the end of the run, when the
  /// source tracks one -- see InstanceSource::position).
  std::size_t source_lines = 0;
  bool cancelled = false;  ///< the run stopped on a CancelToken
  /// CancelToken's reason at the moment the driver observed the
  /// cancellation (empty when reasonless or not cancelled).
  std::string cancel_reason;
  /// A worker thread failed to spawn but the already-running workers
  /// finished the stream anyway -- parallelism degraded, no work lost.
  bool degraded_spawn = false;
  /// Result-cache accounting (zero unless StreamOptions::cache was set):
  /// records served straight from the cache vs records that consulted it
  /// and had to solve cold.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Drives instances from `source` through `solver` into `sink` with a
/// bounded in-flight window (see StreamOptions). What happens when a
/// solve, the source, or the sink throws is governed by
/// StreamOptions::on_error: the default (abort) cancels the remaining
/// work and rethrows on the caller with the offending instance index
/// attached to the message (original std::logic_error /
/// std::invalid_argument / std::runtime_error types are preserved);
/// skip/retry keep streaming and record failures (see the file comment).
/// With one worker the pipeline runs the same loop inline on the calling
/// thread -- deterministic pull/solve/deliver order.
StreamStats solve_stream(const Solver& solver, InstanceSource& source,
                         ResultSink& sink, const SolveOptions& options = {},
                         const StreamOptions& stream = {});

}  // namespace storesched
