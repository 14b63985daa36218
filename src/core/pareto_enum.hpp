// Exact Pareto-front enumeration for independent instances.
//
// Ground truth for Figures 1-2, the EXT-A ratio study, and the
// coverage_epsilon studies: the exact Pareto-minimal (Cmax, Mmax) points
// with one representative schedule each. This mirrors the paper's case
// analyses "by removing schedules with idle time and symmetric schedules"
// (Section 4.1).
//
// Two interchangeable engines produce bit-identical fronts:
//   * enumerate_pareto_bb        -- dominance-pruned branch and bound
//     (core/pareto_bb.hpp; the default): reaches exact fronts at
//     n ~ 30-50 where the brute force stops at n ~ 14.
//   * enumerate_pareto_reference -- the seed's brute force: every
//     assignment up to processor renaming (a task may only open the
//     lowest-indexed empty processor). Kept as the equivalence oracle.
// enumerate_pareto() routes to the branch and bound unless the environment
// variable STORESCHED_PARETO_REFERENCE is set to a non-empty value other
// than "0" (the same A/B convention as STORESCHED_RLS_REFERENCE); the
// variable is read once, at the first call in the process.
#pragma once

#include <cstdint>
#include <vector>

#include "common/instance.hpp"
#include "common/pareto.hpp"
#include "common/schedule.hpp"

namespace storesched {

/// Default work limit for enumerate_pareto(): search nodes for the branch
/// and bound (the last task's placements are not nodes), complete
/// assignments for the reference walker.
inline constexpr std::uint64_t kParetoEnumDefaultLimit = 100'000'000;

struct ParetoEnumResult {
  /// Pareto-minimal points sorted by ascending Cmax; tag t indexes
  /// `schedules`.
  std::vector<LabelledPoint> front;
  /// One representative (assignment-only) schedule per front point.
  std::vector<Schedule> schedules;
  /// Work counter: branch-and-bound search nodes visited (default engine;
  /// a node places one task, and the last task's placements, which
  /// complete assignments, are offered to the front without being nodes)
  /// or complete assignments enumerated after symmetry breaking
  /// (reference engine).
  std::uint64_t enumerated = 0;

  /// Exact optima read off the front ends:
  /// C*max = front.front().cmax, M*max = front.back().mmax.
  Time optimal_cmax() const;
  Mem optimal_mmax() const;
};

/// Enumerates the exact Pareto front of an independent-task instance.
/// Throws std::logic_error for precedence instances and std::runtime_error
/// if more than `limit` units of work would be done (see enumerated above;
/// guards against accidental blowups). Dispatches to
/// enumerate_pareto_bb() unless STORESCHED_PARETO_REFERENCE is set.
ParetoEnumResult enumerate_pareto(
    const Instance& inst, std::uint64_t limit = kParetoEnumDefaultLimit);

/// The seed's brute-force subset walk (m^n up to processor renaming;
/// ~n <= 14 with m <= 4 stays comfortably inside the default limit). The
/// equivalence oracle for the branch-and-bound engine and the old-engine
/// side of bench_pareto_exact / bench_hotpath's pareto cell.
ParetoEnumResult enumerate_pareto_reference(
    const Instance& inst, std::uint64_t limit = kParetoEnumDefaultLimit);

}  // namespace storesched
