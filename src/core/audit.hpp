// Runtime invariant auditor: re-derives every checkable claim a SolveResult
// makes and reports the violations.
//
// The solver families already assert their own theorems in tests, but a
// long-lived serving process needs the *production* path to self-check: a
// race, a bad refactor, or a corrupted extras channel shows up first as a
// result whose claims no longer reproduce from its schedule. audit_schedule()
// recomputes, from the instance and the returned schedule alone:
//
//   * structural validity -- every task on a processor in [0, m), timed
//     schedules overlap-free with non-negative, per-processor monotone
//     start times, precedence edges finish-to-start feasible;
//   * objective recomputation -- the reported (Cmax, Mmax) and sum Ci equal
//     the values measured from the schedule;
//   * claimed value bounds -- Cmax <= cmax_bound, Mmax <= mmax_bound, and
//     the optional memory capacity;
//   * the Delta-precondition ladder for the extras channels (rls.hpp's
//     one-story contract): RLS runs carry Delta > 0, cap = Delta * LB with
//     LB re-derived from the instance, Mmax within cap, and -- for
//     Delta > 1 -- Lemma 4's marked-processor bound; SBO runs carry
//     Delta > 0, ingredient values that reproduce, Properties 1-2 bounds
//     rebuilt from those values, and a routing that matches pi1/pi2;
//   * exact-front results (pareto extras): a strict staircase with every
//     representative schedule reproducing its front point.
//
// Enabled in production via the environment toggle STORESCHED_AUDIT (same
// convention as STORESCHED_RLS_REFERENCE): when set, the non-virtual
// Solver::solve() envelope audits every result of every family -- solver,
// stream, bench, CLI, serve -- storage::solve_cached audits every cache
// hit by the same rule (Solver::audit), and the first violating result
// throws std::logic_error. Debug CI runs the whole suite with
// STORESCHED_AUDIT=1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/instance.hpp"
#include "common/schedule.hpp"
#include "common/types.hpp"

namespace storesched {

struct SolveResult;  // core/solver.hpp

/// Extra context the result struct itself does not carry.
struct AuditOptions {
  /// Hard per-processor capacity the run was solved under (constrained:*
  /// only); enforced as Mmax <= memory_capacity.
  std::optional<Mem> memory_capacity;
};

/// Outcome of one audit: empty means every invariant held.
struct AuditReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// All violations joined with "; " (empty when ok).
  std::string to_string() const;
};

/// Audits `result` (whose schedule is `sched` -- passed separately so
/// callers can audit extras-channel schedules too) against `inst`.
/// Infeasible results are audited lightly: a cause must be present in
/// diagnostics, and an infeasible RLS run must name its stuck task.
/// Never throws; every finding lands in the report.
AuditReport audit_schedule(const Instance& inst, const Schedule& sched,
                           const SolveResult& result,
                           const AuditOptions& options = {});

/// True iff STORESCHED_AUDIT is set (non-empty, not "0") in the
/// environment. Read once per process -- toggling mid-run is not supported
/// (the same contract as the engine A/B toggles).
bool audit_enabled();

}  // namespace storesched
