// SLO-aware portfolio router: picks which solver spec serves a request.
//
// The server registers a *ladder* of solver specs ordered best-quality
// first (e.g. pareto:exact ; rls:bottom,delta=3 ; sbo:lpt,delta=1 --
// cheaper and weaker as the index grows; the last rung is the anchor and
// must always be able to answer). For each rung the router maintains an
// EWMA of observed service times. Routing a request with a latency SLO:
//
//   predicted(rung) = ewma_ms(rung) + queue_delay_ms
//   queue_delay_ms  = queue_depth * ewma_ms(overall) / workers
//
// i.e. the cost of the rung itself plus how long the request will sit in
// the admission queue behind queue_depth earlier requests draining
// through `workers` workers at the overall observed service rate -- the
// same shape as diamond's get_partitioning_point(..., SLO, queue_factor).
//
// Selection, for a request preferring quality rungs [0, quality]:
//   1. among rungs 0..quality, pick the *cheapest* whose predicted cost
//      meets the SLO (ties break toward better quality);
//   2. none meets it -> degrade below the preferred range: the first
//      (best-quality) rung in quality+1.. whose predicted cost meets the
//      SLO (admission = degraded);
//   3. still none -> the cheapest rung of the whole ladder answers anyway
//      (admission = over_slo) -- the router never refuses to serve; hard
//      back-pressure is the server's queue bound, not the router's.
// A request with no SLO skips prediction: it is served at its preferred
// quality rung directly.
//
// Thread-safe; route() and observe() take one mutex. Tests inject a
// deterministic cost table via seed_cost() instead of warming EWMAs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace storesched {

struct RouterOptions {
  /// EWMA smoothing factor in (0, 1]: ewma' = a * sample + (1-a) * ewma.
  double ewma_alpha = 0.2;
  /// Prior cost (ms) of a rung before its first observation. Small and
  /// optimistic: unknown rungs get tried, then measured.
  double initial_cost_ms = 0.1;
};

/// Where a routed request landed and why.
struct RouteDecision {
  std::size_t rung = 0;
  std::string spec;
  double predicted_ms = 0;    ///< ewma + queue delay at decision time
  double queue_delay_ms = 0;  ///< the queue-delay term alone
  bool met_slo = true;        ///< predicted <= slo (true when no SLO given)
  bool degraded = false;      ///< landed below the preferred quality range
};

/// Per-rung introspection snapshot (the /statsz payload).
struct RouterRungSnapshot {
  std::string spec;
  double ewma_ms = 0;
  std::uint64_t served = 0;
};

class Router {
 public:
  /// `ladder` is best-quality-first and must not be empty. Specs are not
  /// validated here (the server builds its solvers at startup and fails
  /// fast there).
  explicit Router(std::vector<std::string> ladder, RouterOptions options = {});

  std::size_t rungs() const { return specs_.size(); }
  const std::string& spec(std::size_t rung) const { return specs_[rung]; }

  /// Routes one request. `quality` is the deepest preferred rung (clamped
  /// to the ladder); `queue_depth` is the admission queue length the
  /// request would join; `workers` drains it (>= 1).
  RouteDecision route(std::optional<double> slo_ms, std::size_t quality,
                      std::size_t queue_depth, unsigned workers) const;

  /// Records an observed service time for a rung (EWMA update).
  void observe(std::size_t rung, double service_ms);

  /// A rung's EWMA once it has been observed (or seeded); nullopt while
  /// route() still prices it at the prior.
  std::optional<double> observed_cost(std::size_t rung) const;

  /// Pins a rung's cost to an exact value, marking it observed -- the
  /// deterministic cost table for tests.
  void seed_cost(std::size_t rung, double ms);

  /// Pins the overall service-rate EWMA behind the queue-delay term,
  /// independent of the per-rung table (tests drive the two separately).
  void seed_overall(double ms);

  std::vector<RouterRungSnapshot> snapshot() const;

 private:
  double ewma_unlocked(std::size_t rung) const;

  std::vector<std::string> specs_;
  RouterOptions options_;
  mutable std::mutex mu_;
  std::vector<double> ewma_ms_;
  std::vector<std::uint64_t> served_;
  double overall_ewma_ms_ = 0;
  std::uint64_t overall_served_ = 0;
};

}  // namespace storesched
