// Failpoint injection: deterministic runtime faults for resilience testing.
//
// A failpoint is a named site in library code -- `failpoint::hit("site")` --
// that normally does nothing, but can be armed to throw or stall when the
// process (or a test) asks for it. The streaming pipeline's failure
// policies (core/stream.hpp), the CLI's retry/resume paths, and the chaos
// CI leg are all proven against faults injected here, so every recovery
// behavior is reproducible on demand instead of waiting for a real disk or
// scheduler hiccup.
//
// Arming, from the environment (read once at startup):
//
//   STORESCHED_FAILPOINTS="site=action[;site=action...]"
//
// or programmatically (tests): failpoint::set("site", "action").
//
// Action grammar:   [selector:]effect
//
//   effect    := throw[(message)]   throw InjectedFault (a runtime_error
//                                   subclass the retry classifier treats
//                                   as transient)
//              | delay(MS)          sleep MS milliseconds, then continue
//              | raise(SIG)         raise SIGKILL, SIGTERM or SIGINT (SIG
//                                   in KILL, TERM, INT) on the process,
//                                   then continue if it survives: a crash
//                                   or signal that lands on a chosen hit
//   selector  := nth(K)             fire only on the K-th hit (1-based)
//              | every(K)           fire on every K-th hit
//              | prob(P,SEED)       fire with probability P in [0,1],
//                                   from a deterministic seeded stream
//                (no selector: fire on every hit)
//
// Examples:
//   STORESCHED_FAILPOINTS="stream.solve=every(5):throw"
//   STORESCHED_FAILPOINTS="source.next=nth(3):throw;sink.consume=delay(20)"
//   STORESCHED_FAILPOINTS="stream.solve=prob(0.1,42):throw(transient blip)"
//   STORESCHED_FAILPOINTS="stream.solve=nth(20):raise(KILL)"
//
// Registered sites (grep for failpoint::hit to enumerate):
//   source.next    JsonlInstanceSource::claim, once per record (and once at
//                  the end of the input), before its input is consumed
//   stream.solve   the solve_stream worker, before each solve attempt
//   sink.consume   result delivery, before ResultSink::consume
//   crew.spawn     run_worker_crew / WorkerCrew, before each worker thread
//                  is spawned
//   serve.accept   the serving tier's accept path, before each accept(2)
//                  round (a fault skips the round; the pending connection
//                  is retried, serve/server.cpp)
//   serve.request  the serving tier's request handler, before a framed
//                  line is parsed (a fault answers ok:false on that line)
//   serve.solve    the serving tier's solve, on a worker or the event
//                  loop, before the deadline check and solve (a fault
//                  answers ok:false for that request)
//
// Cost when unset: hit() is a single relaxed atomic load of a global flag
// and a predictable not-taken branch -- safe to leave compiled into hot
// service paths. The slow path (armed) takes a mutex; hit counters and the
// prob() stream are deterministic under serialized sites (the stream
// driver serializes source and sink calls by contract).
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace storesched {

/// Thrown by `throw` failpoints. Derives std::runtime_error so existing
/// wire/driver contracts ("malformed input throws runtime_error") hold;
/// the stream retry classifier recognizes it as transient (retryable).
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace failpoint {

namespace detail {
/// True iff any failpoint is armed. The only state the fast path touches.
extern std::atomic<bool> armed;
/// Evaluates `site` against the armed registry (counts the hit, applies
/// the selector, throws/delays on a match).
void hit_armed(const char* site);
}  // namespace detail

/// Evaluates the failpoint `site`. No-op (one relaxed load) unless some
/// failpoint is armed. May throw InjectedFault, sleep or raise a signal,
/// per the action.
inline void hit(const char* site) {
  if (!detail::armed.load(std::memory_order_relaxed)) return;
  detail::hit_armed(site);
}

/// Arms `site` with `action` (grammar above), replacing any existing
/// action and resetting its hit counter. Throws std::invalid_argument on a
/// malformed action.
void set(const std::string& site, const std::string& action);

/// Disarms one site / every site. Tests should clear_all() on teardown so
/// faults never leak across test cases.
void clear(const std::string& site);
void clear_all();

/// Times `site` has been evaluated since it was last set() (armed sites
/// only; 0 for unknown sites). For test assertions on exact fault counts.
std::size_t hits(const std::string& site);

/// Re-reads STORESCHED_FAILPOINTS and replaces the whole registry with its
/// contents (clearing it when unset/empty). Called once at startup by a
/// static initializer; tests may call it after setenv().
void reload_from_env();

}  // namespace failpoint
}  // namespace storesched
