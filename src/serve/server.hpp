// The serving tier: a long-lived network front-end over the solver
// registry (tools/storesched_serve.cpp is the thin CLI around it).
//
// One event-loop thread owns the poller: it accepts TCP / unix-domain
// connections (epoll on Linux, poll(2) elsewhere -- see Poller in
// server.cpp), reads, frames and parses JSONL request lines
// (serve/protocol.hpp) without the server's lock, then under it runs
// admission in line order. An admitted request goes to a persistent
// WorkerCrew (common/parallel.hpp) unless the loop and the crew are idle
// (the loop's last poll had to wait, nothing admitted is unanswered),
// the request's solver is a list scheduler with an observed cold-solve
// cost at or under ServeServer::kLoopSolveBoundMs (the measured mean
// latency of a handoff) and the instance is at most
// ServeServer::kLoopSolveMaxSize tasks, edges and processors: then the
// loop solves it itself once the lock is released (docs/SERVING.md,
// "Who solves a request"). A worker appends its response line to the
// connection's outbox and writes the outbox itself when the loop has
// nothing else to do for that connection (no queued request, no paused
// window, pending write or EOF, no drain); if that write is partial, or
// in any other case, it wakes the loop, which finishes the write. The loop's own responses are written by the upkeep
// pass that follows the solve. Sockets are non-blocking; every write and
// close happens under the server's lock. Connections are persistent and
// pipelined: responses return on the request's connection, matched by
// the echoed "id" (they may be reordered by solve completion).
//
// Multi-tenant fairness is structural, not cooperative:
//   * per-connection in-flight windows -- a connection with
//     ServeOptions::conn_window requests admitted-but-unanswered stops
//     being *read* (socket backpressure), so one greedy client saturates
//     its own window, not the shared queue;
//   * priority classes -- workers drain high before normal before low
//     (strict; a saturated high class starves low, by design -- cap the
//     high-priority tenants' windows accordingly);
//   * a global admission queue bound -- beyond ServeOptions::max_queue
//     the request is answered {"admission":"rejected"} instead of
//     growing the queue without bound.
//
// Per-request deadlines and cancellation ride the existing SolveOptions
// envelope: an expired deadline (queue wait included) answers
// infeasible-with-diagnostics -- never a dropped connection -- and a
// {"cancel":"id"} message trips the CancelToken of the most recently
// admitted unanswered request with that id.
//
// Which solver answers is the Router's call (serve/router.hpp) unless
// the request names an explicit "spec". Introspection is in-band: a
// {"statsz":true} request line answers one JSON snapshot of queue depth,
// admission decisions, and per-rung latency EWMAs.
//
// Shutdown is a drain: stop accepting and reading, answer everything
// admitted, flush, exit -- SIGTERM on the CLI, shutdown() here.
// Failpoint sites serve.accept / serve.request / serve.solve
// (common/failpoint.hpp) make the recovery paths deterministically
// testable under concurrent clients.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "core/stream.hpp"
#include "serve/router.hpp"

namespace storesched::storage {
// storage/result_cache.hpp and storage/shm_store.hpp; forward-declared so
// the serve surface does not force the storage headers on every includer.
class SolveCache;
class ShmStore;
}  // namespace storesched::storage

namespace storesched {

struct ServeOptions {
  /// Unix-domain listener path; empty = none. A stale socket file whose
  /// server is gone is unlinked and rebound; a live one fails start().
  std::string unix_path;
  /// TCP listener port; unset = none, 0 = ephemeral (see tcp_port()).
  std::optional<int> tcp_port;
  std::string tcp_host = "127.0.0.1";
  /// Router ladder, best-quality first (>= 1 spec). Every rung is built
  /// at start(), so a typo fails fast instead of at first request.
  std::vector<std::string> ladder;
  /// Worker crew size; 0 = hardware concurrency.
  int threads = 0;
  /// Per-connection in-flight window (>= 1): admitted-but-unanswered
  /// requests beyond which the connection stops being read.
  std::size_t conn_window = 16;
  /// Request line byte cap; longer lines answer an oversized error.
  std::size_t max_line = std::size_t{1} << 20;
  /// Global admission queue bound; beyond it requests are rejected.
  std::size_t max_queue = 4096;
  /// Base per-solve options (capacity, validate); deadline/cancel are
  /// per-request and overwrite these fields.
  SolveOptions solve;
  RouterOptions router;
  /// Response line shaping (include_schedule).
  JsonlResultOptions result;
  /// Result cache keyed on the input as given (storage/result_cache.hpp),
  /// not owned; must outlive the server. When set, each admitted solve
  /// request is looked up before it touches the router -- a hit answers
  /// without solving (admission "ok", rung -1) -- and every cold routed
  /// solve is inserted after. Null = no caching.
  storage::SolveCache* cache = nullptr;
  /// Attached shm instance store (storage/shm_store.hpp), not owned; must
  /// outlive the server. Enables {"ref":N} solve-by-reference requests.
  /// Null = "ref" requests answer an error.
  storage::ShmStore* store = nullptr;
};

/// Monotonic counters + gauges, as served by /statsz and counters().
struct ServeCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;        ///< solve requests admitted or rejected
  std::uint64_t responses = 0;       ///< response lines queued for write
  std::uint64_t loop_solves = 0;     ///< solved by the event loop, not the crew
  std::uint64_t parse_errors = 0;
  std::uint64_t oversized_lines = 0;
  std::uint64_t admitted_ok = 0;
  std::uint64_t admitted_degraded = 0;
  std::uint64_t admitted_over_slo = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_expired = 0;  ///< answered without solving
  std::uint64_t cancelled = 0;         ///< cancel messages that hit a token
  std::uint64_t solve_errors = 0;      ///< solver threw (answered ok:false)
  std::uint64_t cache_hits = 0;        ///< answered from the result cache
  std::uint64_t cache_misses = 0;      ///< consulted the cache, then solved
  std::uint64_t cache_bytes = 0;       ///< payload bytes in the shared table
  std::uint64_t injected_faults = 0;   ///< serve.* failpoints that fired
  std::uint64_t statsz_requests = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::size_t conn_window_peak = 0;  ///< highest per-connection in-flight
  bool draining = false;
};

/// The server. start() spawns the event loop and the worker crew;
/// shutdown() drains gracefully. Thread-safe: any thread may call
/// shutdown()/counters(); notify_shutdown() is additionally safe from a
/// signal handler.
class ServeServer {
 public:
  /// The loop solves an admitted request itself only while it and the
  /// crew are idle and its solver's EWMA of cold-solve time is at or under
  /// this many milliseconds: the measured mean latency of handing a
  /// request to the crew (admission to the start of the solve on
  /// serve-mixed, see docs/SERVING.md). A costlier solve is cheaper to
  /// hand off than to make the other connections wait behind.
  static constexpr double kLoopSolveBoundMs = 0.032;
  /// ... and only on an instance of at most this many tasks, precedence
  /// edges and processors, the largest size the bound was measured at: an
  /// EWMA observed on small instances says nothing about a large one.
  static constexpr std::size_t kLoopSolveMaxSize = 128;

  explicit ServeServer(ServeOptions options);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds listeners, builds every ladder solver, spawns the loop and
  /// crew. Throws std::runtime_error on socket errors and
  /// std::invalid_argument on bad specs/options.
  void start();

  /// Graceful drain: stop accepting and reading, answer every admitted
  /// request, flush outboxes (bounded), join everything. Idempotent.
  void shutdown();

  /// Async-signal-safe shutdown trigger: flags the request and wakes the
  /// loop; some ordinary thread must then run shutdown() --
  /// wait_for_shutdown_request() is the CLI's way to be that thread.
  void notify_shutdown() noexcept;

  /// Blocks until notify_shutdown() (or shutdown()) has been called.
  void wait_for_shutdown_request();

  /// Bound TCP port (after start(); resolves port 0), or -1 without TCP.
  int tcp_port() const;

  unsigned workers() const;
  ServeCounters counters() const;
  Router& router() { return *router_; }

  /// Pins the cold-solve cost of requests that name `spec` explicitly, as
  /// admission reads it against kLoopSolveBoundMs, to `ms`; later solves
  /// no longer move it. Builds the solver if need be
  /// (std::invalid_argument on a bad spec). The deterministic cost table
  /// for tests; routed requests read their rung's cost, which
  /// Router::seed_cost sets.
  void pin_solver_cost(const std::string& spec, double ms);

 private:
  struct Impl;
  ServeOptions options_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace storesched
