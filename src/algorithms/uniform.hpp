// Uniform (related) processors: the paper's "non identical processors"
// future-work direction (Section 7), for the Q | p_j, s_j | Cmax, Mmax
// model.
//
// Processors have integer speeds >= 1 (normalized so the slowest has speed
// 1); executing work W on a processor of speed s takes W/s time units.
// Storage is speed-independent: a task's code occupies s_i wherever it is
// placed, so the memory objective and its Graham bound are unchanged from
// the identical-machine case.
//
// All completion-time comparisons (work/speed) are exact via 128-bit cross
// multiplication; no makespan decision ever touches floating point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fraction.hpp"
#include "common/types.hpp"

namespace storesched {

/// Validates a speed vector: non-empty, every speed >= 1.
void check_speeds(std::span<const std::int64_t> speeds);

/// Exact makespan of an assignment under speeds: max_q (work_q / speed_q).
Fraction uniform_partition_value(std::span<const std::int64_t> weights,
                                 std::span<const ProcId> assignment,
                                 std::span<const std::int64_t> speeds);

/// Lower bound on the optimal uniform makespan:
///   max( sum_i w_i / sum_q speed_q,  max_i w_i / max_q speed_q ).
Fraction uniform_lower_bound(std::span<const std::int64_t> weights,
                             std::span<const std::int64_t> speeds);

/// Earliest-completion-time list scheduling in the given order: each weight
/// goes to the processor minimizing (work_q + w) / speed_q. Ties break by
/// lowest processor id. Throws std::invalid_argument unless `order` is a
/// permutation of the weight indices.
std::vector<ProcId> uniform_list_assign(std::span<const std::int64_t> weights,
                                        std::span<const std::size_t> order,
                                        std::span<const std::int64_t> speeds);

/// ECT list scheduling in decreasing weight order (the LPT analogue; the
/// classical 2-ish approximation for Q || Cmax).
std::vector<ProcId> uniform_lpt_assign(std::span<const std::int64_t> weights,
                                       std::span<const std::int64_t> speeds);

}  // namespace storesched
