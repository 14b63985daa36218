#include "serve/router.hpp"

#include <algorithm>
#include <stdexcept>

namespace storesched {

Router::Router(std::vector<std::string> ladder, RouterOptions options)
    : specs_(std::move(ladder)), options_(options) {
  if (specs_.empty()) {
    throw std::invalid_argument("Router: the spec ladder must not be empty");
  }
  if (!(options_.ewma_alpha > 0) || options_.ewma_alpha > 1) {
    throw std::invalid_argument("Router: ewma_alpha must be in (0, 1]");
  }
  ewma_ms_.assign(specs_.size(), 0);
  served_.assign(specs_.size(), 0);
}

double Router::ewma_unlocked(std::size_t rung) const {
  return served_[rung] > 0 ? ewma_ms_[rung] : options_.initial_cost_ms;
}

RouteDecision Router::route(std::optional<double> slo_ms, std::size_t quality,
                            std::size_t queue_depth, unsigned workers) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t last = specs_.size() - 1;
  const std::size_t preferred = std::min(quality, last);

  RouteDecision decision;
  const double overall =
      overall_served_ > 0 ? overall_ewma_ms_ : options_.initial_cost_ms;
  decision.queue_delay_ms =
      static_cast<double>(queue_depth) * overall /
      static_cast<double>(std::max(workers, 1u));

  const auto predicted = [&](std::size_t rung) {
    return ewma_unlocked(rung) + decision.queue_delay_ms;
  };
  const auto pick = [&](std::size_t rung, bool met, bool degraded) {
    decision.rung = rung;
    decision.spec = specs_[rung];
    decision.predicted_ms = predicted(rung);
    decision.met_slo = met;
    decision.degraded = degraded;
    return decision;
  };

  // No SLO: nothing to predict against, serve the preferred quality.
  if (!slo_ms) return pick(preferred, true, false);

  // 1. Cheapest rung in the preferred range meeting the SLO; ties break
  //    toward better quality (lower rung).
  std::optional<std::size_t> best;
  for (std::size_t r = 0; r <= preferred; ++r) {
    if (predicted(r) > *slo_ms) continue;
    if (!best || ewma_unlocked(r) < ewma_unlocked(*best)) best = r;
  }
  if (best) return pick(*best, true, false);

  // 2. Degrade: the best-quality rung below the preferred range that
  //    meets the SLO.
  for (std::size_t r = preferred + 1; r <= last; ++r) {
    if (predicted(r) <= *slo_ms) return pick(r, true, true);
  }

  // 3. Nothing meets the SLO: the cheapest rung of the whole ladder
  //    answers anyway, flagged over-SLO.
  std::size_t cheapest = 0;
  for (std::size_t r = 1; r <= last; ++r) {
    if (ewma_unlocked(r) < ewma_unlocked(cheapest)) cheapest = r;
  }
  return pick(cheapest, false, cheapest > preferred);
}

void Router::observe(std::size_t rung, double service_ms) {
  if (rung >= specs_.size() || service_ms < 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const double a = options_.ewma_alpha;
  ewma_ms_[rung] = served_[rung] == 0
                       ? service_ms
                       : a * service_ms + (1 - a) * ewma_ms_[rung];
  ++served_[rung];
  overall_ewma_ms_ = overall_served_ == 0
                         ? service_ms
                         : a * service_ms + (1 - a) * overall_ewma_ms_;
  ++overall_served_;
}

std::optional<double> Router::observed_cost(std::size_t rung) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (rung >= specs_.size() || served_[rung] == 0) return std::nullopt;
  return ewma_ms_[rung];
}

void Router::seed_cost(std::size_t rung, double ms) {
  if (rung >= specs_.size()) {
    throw std::out_of_range("Router::seed_cost: rung out of range");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ewma_ms_[rung] = ms;
  if (served_[rung] == 0) served_[rung] = 1;
  // Per-rung only: the overall rate behind the queue-delay term is pinned
  // separately via seed_overall(), so tests control the two terms
  // independently.
}

void Router::seed_overall(double ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  overall_ewma_ms_ = ms;
  if (overall_served_ == 0) overall_served_ = 1;
}

std::vector<RouterRungSnapshot> Router::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<RouterRungSnapshot> out(specs_.size());
  for (std::size_t r = 0; r < specs_.size(); ++r) {
    out[r].spec = specs_[r];
    out[r].ewma_ms = ewma_unlocked(r);
    out[r].served = served_[r];
  }
  return out;
}

}  // namespace storesched
