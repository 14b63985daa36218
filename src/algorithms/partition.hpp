// Minimize-max-subset-sum ("multiprocessor scheduling") algorithms over a
// bare weight vector.
//
// SBO (paper Algorithm 1) runs the *same* makespan algorithm twice -- once
// on processing times p and once on storage sizes s -- because with
// independent tasks "Mmax and Cmax are strictly equivalent and can be
// exchanged" (paper Section 2.1). These routines therefore operate on
// anonymous int64 weights; callers feed p or s as appropriate.
//
// Every routine returns a full assignment weights[i] -> processor.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fraction.hpp"
#include "common/types.hpp"

namespace storesched {

/// max(max_i w_i, ceil(sum_i w_i / m)): the Graham lower bound on the
/// optimal max subset sum, in integer form.
std::int64_t partition_lower_bound(std::span<const std::int64_t> weights, int m);

/// Exact (fractional) version: max(max_i w_i, sum_i w_i / m).
Fraction partition_lower_bound_fraction(std::span<const std::int64_t> weights,
                                        int m);

/// Maximum per-processor sum under the given assignment.
std::int64_t partition_value(std::span<const std::int64_t> weights,
                             std::span<const ProcId> assignment, int m);

/// Graham List Scheduling in input order: each weight goes to the currently
/// least-loaded processor. Ratio 2 - 1/m [Graham 1969].
std::vector<ProcId> list_assign(std::span<const std::int64_t> weights, int m);

/// List Scheduling in the order given by `order`: each weight goes to the
/// least (load, id) processor. Throws std::invalid_argument unless `order`
/// is a permutation of the weight indices.
std::vector<ProcId> list_assign_ordered(std::span<const std::int64_t> weights,
                                        std::span<const std::size_t> order,
                                        int m);

/// Throws std::invalid_argument, naming `who`, unless `order` is a
/// permutation of 0..n-1 (no entry >= n, none repeated).
void check_permutation(std::span<const std::size_t> order, std::size_t n,
                       const char* who);

/// Longest Processing Time first. Ratio 4/3 - 1/(3m) [Graham 1969].
std::vector<ProcId> lpt_assign(std::span<const std::int64_t> weights, int m);

/// MULTIFIT: binary search on bin capacity with First Fit Decreasing
/// feasibility checks. Ratio 13/11 [Yue 1990]. `iterations` halvings of the
/// capacity interval (default saturates integer precision).
std::vector<ProcId> multifit_assign(std::span<const std::int64_t> weights,
                                    int m, int iterations = 64);

/// Graham's hybrid: the k largest weights are placed optimally (exhaustive
/// search with processor-symmetry breaking), the rest list-scheduled in
/// decreasing order. Ratio 1 + (1 - 1/m) / (1 + floor(k/m)); a PTAS family
/// as k grows [Graham 1969]. Cost grows as ~m^k; keep k modest (<= ~14).
std::vector<ProcId> kopt_assign(std::span<const std::int64_t> weights, int m,
                                int k);

/// Hochbaum-Shmoys dual-approximation PTAS with epsilon = 1/k, k in {2, 3}:
/// binary search on the makespan target T; at each T, weights > T/k are
/// rounded down to multiples of T/k^2 and bin-packed exactly by dynamic
/// programming over size-count states, then small weights are added
/// greedily. Ratio 1 + 1/k [Hochbaum & Shmoys 1987].
/// Throws std::invalid_argument for unsupported k.
std::vector<ProcId> dual_ptas_assign(std::span<const std::int64_t> weights,
                                     int m, int k);

/// Exact optimum by branch and bound over weights in decreasing order, with
/// symmetry breaking and Graham-bound pruning. Exponential worst case;
/// intended for n up to ~30. `node_limit` aborts the search (throws
/// std::runtime_error) as a safety valve.
std::vector<ProcId> exact_bnb_assign(std::span<const std::int64_t> weights,
                                     int m,
                                     std::uint64_t node_limit = 200'000'000);

/// Exact optimum value (no assignment) by bitmask dynamic programming:
/// binary search on capacity, packing feasibility via subset DP.
/// Requires n <= 24.
std::int64_t exact_dp_value(std::span<const std::int64_t> weights, int m);

/// Indices sorted by decreasing weight (ties by index, so deterministic).
std::vector<std::size_t> decreasing_order(std::span<const std::int64_t> weights);
/// Indices sorted by increasing weight (ties by index).
std::vector<std::size_t> increasing_order(std::span<const std::int64_t> weights);

/// The ordering primitive behind decreasing_order, increasing_order and
/// priority_order: writes into `order` (size keys.size()) the positions of
/// `keys` in the order a stable sort by key gives, ties by position. An LSD
/// radix sort over the key bytes that vary (docs/ALGORITHMS.md, "Graham
/// list scheduling").
template <class Index>
void stable_key_order(std::span<const std::int64_t> keys, bool descending,
                      std::span<Index> order);

}  // namespace storesched
