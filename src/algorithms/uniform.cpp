#include "algorithms/uniform.hpp"

#include <numeric>
#include <stdexcept>

#include "algorithms/partition.hpp"

namespace storesched {

void check_speeds(std::span<const std::int64_t> speeds) {
  if (speeds.empty()) throw std::invalid_argument("speeds: empty");
  for (const std::int64_t s : speeds) {
    if (s < 1) throw std::invalid_argument("speeds: every speed must be >= 1");
  }
}

Fraction uniform_partition_value(std::span<const std::int64_t> weights,
                                 std::span<const ProcId> assignment,
                                 std::span<const std::int64_t> speeds) {
  check_speeds(speeds);
  if (weights.size() != assignment.size()) {
    throw std::invalid_argument("uniform_partition_value: size mismatch");
  }
  std::vector<std::int64_t> work(speeds.size(), 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const ProcId q = assignment[i];
    if (q < 0 || static_cast<std::size_t>(q) >= speeds.size()) {
      throw std::invalid_argument("uniform_partition_value: bad processor");
    }
    work[static_cast<std::size_t>(q)] += weights[i];
  }
  Fraction best(0);
  for (std::size_t q = 0; q < work.size(); ++q) {
    best = Fraction::max(best, Fraction(work[q], speeds[q]));
  }
  return best;
}

Fraction uniform_lower_bound(std::span<const std::int64_t> weights,
                             std::span<const std::int64_t> speeds) {
  check_speeds(speeds);
  std::int64_t sum_w = 0;
  std::int64_t max_w = 0;
  for (const std::int64_t w : weights) {
    if (w < 0) throw std::invalid_argument("uniform_lower_bound: negative");
    sum_w += w;
    max_w = std::max(max_w, w);
  }
  std::int64_t sum_s = 0;
  std::int64_t max_s = 0;
  for (const std::int64_t s : speeds) {
    sum_s += s;
    max_s = std::max(max_s, s);
  }
  return Fraction::max(Fraction(sum_w, sum_s), Fraction(max_w, max_s));
}

namespace {

/// Earliest-completion-time placement in `order`, which the caller
/// guarantees is a permutation.
std::vector<ProcId> uniform_place(std::span<const std::int64_t> weights,
                                  std::span<const std::size_t> order,
                                  std::span<const std::int64_t> speeds) {
  std::vector<std::int64_t> work(speeds.size(), 0);
  std::vector<ProcId> assign(weights.size(), kNoProc);
  for (const std::size_t i : order) {
    // Earliest completion time: minimize (work_q + w) / speed_q exactly.
    std::size_t best = 0;
    for (std::size_t q = 1; q < speeds.size(); ++q) {
      if (ratio_less(work[q] + weights[i], speeds[q],
                     work[best] + weights[i], speeds[best])) {
        best = q;
      }
    }
    assign[i] = static_cast<ProcId>(best);
    work[best] += weights[i];
  }
  return assign;
}

}  // namespace

std::vector<ProcId> uniform_list_assign(std::span<const std::int64_t> weights,
                                        std::span<const std::size_t> order,
                                        std::span<const std::int64_t> speeds) {
  check_speeds(speeds);
  check_permutation(order, weights.size(), "uniform_list_assign");
  return uniform_place(weights, order, speeds);
}

std::vector<ProcId> uniform_lpt_assign(std::span<const std::int64_t> weights,
                                       std::span<const std::int64_t> speeds) {
  check_speeds(speeds);
  return uniform_place(weights, decreasing_order(weights), speeds);
}

}  // namespace storesched
