// RLS_Delta -- Restricted List Scheduling (paper Section 5.1, Algorithm 2).
//
// Computes the Graham storage lower bound LB = max(max_i s_i, sum_i s_i / m)
// and forbids any processor from exceeding the degraded budget Delta * LB.
// Tasks are then scheduled one at a time: among all ready tasks, the one
// that can start soonest goes on the least-loaded processor that still has
// memory budget for it. Ties are broken by a total task order (the paper's
// "arbitrary total ordering"; SPT yields the Section 5.2 tri-objective
// guarantee).
//
// Guarantees for Delta > 2 (Corollaries 2-3):
//   Mmax <= Delta * LB <= Delta * M*max
//   Cmax <= (2 + 1/(Delta-2) - (Delta-1)/(m(Delta-2))) * C*max
// For Delta <= 2 a task may fit on no processor; the run is then reported
// infeasible (the paper notes the algorithm "can not take as input values
// of Delta lower or equal to 2").
//
// The analysis channel records which processors were ever "marked" --
// skipped for memory while a strictly less-loaded choice existed, recorded
// for the task actually placed each step -- so Lemma 4 (at most
// floor(m/(Delta-1)) marked processors) is a checkable runtime property,
// asserted after every run with Delta > 1.
//
// Two interchangeable engines produce bit-identical results:
//   * rls_schedule_fast      -- the ready-event kernel (default): the ready
//     frontier lives in storage-indexed segment trees keyed
//     (earliest-start, rank), each step's winner comes from an ascending
//     time-event sweep with one log-time descent per event, and the
//     Delta * LB cap is hoisted to one integer compare. One code path for
//     independent and DAG instances, ~O(n (log n + m)) either way -- the
//     per-step cost that scales with the instance (the ready frontier) is
//     logarithmic and never depends on the frontier width; processor
//     bookkeeping is a deliberate O(m) contiguous pass (m is hundreds at
//     most). See rls_engine.hpp and docs/ALGORITHMS.md ("The DAG kernel").
//   * rls_schedule_reference -- the paper-faithful O(n^2 m) rescan with
//     exact Fraction arithmetic in the inner loop (the equivalence oracle).
// rls_schedule() routes to the fast engine unless the environment variable
// STORESCHED_RLS_REFERENCE is set to a non-empty value other than "0"; the
// variable is read once, at the first call in the process.
#pragma once

#include <optional>
#include <vector>

#include "algorithms/graham.hpp"
#include "common/fraction.hpp"
#include "common/instance.hpp"
#include "common/schedule.hpp"

namespace storesched {

struct RlsResult {
  bool feasible = false;
  Schedule schedule;  ///< timed schedule (valid only when feasible)
  Fraction lb;        ///< Graham storage lower bound LB
  Fraction cap;       ///< Delta * LB, the per-processor memory budget

  /// Analysis channel (Lemma 4): marked[q] iff processor q was at some
  /// point rejected for memory while a less-loaded choice existed.
  std::vector<bool> marked;
  int marked_count = 0;

  /// Id of the first task that fit on no processor (infeasible runs only).
  std::optional<TaskId> stuck_task;
};

/// Runs RLS_Delta on an independent or precedence-constrained instance.
///
/// Precondition ladder (one story, asserted in tests):
///   * Delta > 0  -- required to run at all (throws std::invalid_argument
///                   otherwise); the memory budget Delta * LB is enforced
///                   by construction on every run that completes;
///   * Delta > 1  -- required by Lemma 4's marked-processor bound
///                   (rls_marked_bound below);
///   * Delta > 2  -- required for the Corollary 2-3 guarantees: provable
///                   feasibility and the Lemma 5 makespan ratio. At
///                   Delta <= 2 the run is legal but may come back
///                   infeasible, and SolveResult-level consumers (see
///                   core/solver.hpp) report a guarantee-zone diagnostic
///                   instead of ratios.
/// Deterministic for a fixed tie-break policy. Dispatches to
/// rls_schedule_fast() unless STORESCHED_RLS_REFERENCE is set (see above).
RlsResult rls_schedule(const Instance& inst, const Fraction& delta,
                       PriorityPolicy tie_break = PriorityPolicy::kInputOrder);

/// The ready-event kernel behind rls_schedule(): ~O(n (log n + m)) on
/// independent *and* precedence-constrained instances (the independent
/// case is the all-ready instantiation of the same code path; the m term
/// is a contiguous processor pass, not a ready-set rescan).
/// Bit-identical to rls_schedule_reference() on every input (schedule,
/// marks, feasibility verdict, stuck task).
RlsResult rls_schedule_fast(
    const Instance& inst, const Fraction& delta,
    PriorityPolicy tie_break = PriorityPolicy::kInputOrder);

/// The seed's faithful O(n^2 m) implementation of Algorithm 2: the ready
/// set is re-scanned after every placement, with exact Fraction arithmetic
/// in the innermost memory test. Kept as the equivalence oracle for the
/// fast engine and for bench_hotpath's old-vs-new measurements.
RlsResult rls_schedule_reference(
    const Instance& inst, const Fraction& delta,
    PriorityPolicy tie_break = PriorityPolicy::kInputOrder);

/// Lemma 4's bound on the number of marked processors:
/// floor(m / (Delta - 1)). Requires Delta > 1.
std::int64_t rls_marked_bound(const Fraction& delta, int m);

}  // namespace storesched
