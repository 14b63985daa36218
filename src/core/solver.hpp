// Unified polymorphic solver surface over every algorithm in the paper.
//
// The seed grew one free function and one bespoke result struct per
// algorithm (sbo_schedule/SboResult, rls_schedule/RlsResult, ...), so every
// bench, example and service front-end hand-wired its own dispatch. This
// module is the single entry point instead:
//
//   auto solver = make_solver("sbo:lpt,delta=3/2");
//   SolveResult r = solver->solve(instance);
//
// A solver spec is  family[:config]  where config is a positional argument
// followed by key=value pairs:
//
//   sbo:ALG[/ALG2],delta=F      Algorithm 1 (independent tasks only);
//                               ALG in make_scheduler()'s vocabulary
//                               ("ls", "lpt", "multifit", "kopt<k>",
//                               "ptas2", "ptas3", "exact")
//   rls:POLICY,delta=F          Algorithm 2 (independent or DAG); POLICY in
//                               {input, spt, lpt, bottom, minstore,
//                               maxstore}
//   tri:spt,delta=F             Section 5.2 tri-objective RLS+SPT
//   constrained:rls,tiebreak=POLICY
//   constrained:sbo,alg=ALG[/ALG2],refinements=N
//                               Sections 2.2/7 capacity-driven solves; the
//                               capacity comes from SolveOptions
//   graham:POLICY               memory-blind Graham list scheduling
//                               (baseline; ratio 2 - 1/m, no memory bound)
//   pareto:exact[,limit=N]      exact Pareto enumeration (branch and
//                               bound, core/pareto_bb.hpp); the whole
//                               front rides in SolveResult::pareto and the
//                               returned schedule is the Cmax-optimal
//                               front end. N caps the search nodes
//                               (default kParetoEnumDefaultLimit).
//   fallback:SPEC;SPEC[;...]    graceful-degradation ladder (two or more
//                               ';'-separated rungs, any family except a
//                               nested fallback). Rungs run in order; a
//                               rung that throws, comes back infeasible
//                               (deadline demotion included), or whose
//                               share of SolveOptions::deadline is already
//                               burned hands over to the next. The final
//                               rung -- the anchor, pick something cheap --
//                               runs with no deadline so the ladder always
//                               answers. Which rung answered (and why the
//                               ones above it did not) is stamped into
//                               SolveResult::diagnostics. E.g.
//                               "fallback:pareto:exact;sbo:lpt,delta=3/2"
//                               serves exact fronts until the deadline
//                               bites, then degrades to the SBO heuristic.
//
// F is an exact fraction ("3", "3/2"). Every solver prints a canonical
// spec from name() that round-trips through make_solver(); the canonical
// registry is enumerable via registered_solver_specs().
//
// Guarantee knowledge lives in Capabilities: what a configuration supports
// (precedence, timed output, third objective) and the approximation ratios
// it can promise on m processors, as exact Fractions. SBO promises
// ((1+Delta)rho1, (1+1/Delta)rho2) for any Delta > 0; RLS-family solvers
// promise (Lemma 5, Delta) only for Delta > 2 -- below that the run is
// legal but carries no guarantee and may come back infeasible (the run
// itself requires only Delta > 0; Lemma 4's marked-processor bound needs
// Delta > 1).
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/graham.hpp"
#include "algorithms/scheduler.hpp"
#include "common/fraction.hpp"
#include "common/instance.hpp"
#include "common/schedule.hpp"
#include "core/front_approx.hpp"
#include "core/pareto_enum.hpp"
#include "core/rls.hpp"
#include "core/sbo.hpp"

namespace storesched {

/// What a solver configuration supports and can promise. Ratios are the
/// exact guaranteed factors versus the per-objective optimum (C*max, M*max,
/// optimal sum Ci); absent means no guarantee for this configuration.
struct Capabilities {
  bool supports_precedence = false;  ///< accepts DAG instances
  bool timed_output = false;         ///< schedules carry start times
  bool produces_sum_ci = false;      ///< reports the third objective
  bool needs_capacity = false;       ///< requires SolveOptions::memory_capacity
  bool exact_front = false;          ///< solve() fills SolveResult::pareto
                                     ///< with the exact Pareto front
  std::optional<Fraction> cmax_ratio;
  std::optional<Fraction> mmax_ratio;
  std::optional<Fraction> sumci_ratio;
};

class CancelToken;  // core/stream.hpp

/// Per-solve inputs that are not part of the solver configuration.
struct SolveOptions {
  /// Hard per-processor memory capacity; required by constrained:* solvers
  /// and ignored by the others.
  std::optional<Mem> memory_capacity;
  /// When set, validate_schedule() runs on every feasible result and a
  /// violation turns the result infeasible with the message in diagnostics.
  bool validate = false;
  /// Per-solve wall-clock budget, checked cooperatively at the solve
  /// boundary: a run whose elapsed time exceeds the budget comes back
  /// infeasible with the cause in diagnostics (the algorithm itself is
  /// never interrupted mid-flight). Absent = no deadline, no clock reads.
  std::optional<std::chrono::nanoseconds> deadline;
  /// Cooperative cancellation (core/stream.hpp). A solve that observes a
  /// cancelled token before starting returns infeasible immediately;
  /// solve_stream additionally stops pulling instances from its source.
  std::shared_ptr<const CancelToken> cancel;
};

/// Unified output of any solver. Subsumes the per-algorithm result structs:
/// their full payloads ride along in the sbo/rls extras channels for
/// ablation studies, while the common fields cover every ordinary consumer.
struct SolveResult {
  bool feasible = false;
  Schedule schedule;           ///< valid only when feasible
  ObjectivePoint objectives;   ///< measured (Cmax, Mmax), feasible runs only
  std::optional<Time> sum_ci;  ///< measured third objective (timed output)
  Fraction delta{0};           ///< parameter the run used (0 if none)

  /// Per-run *value* bounds: Cmax(schedule) <= cmax_bound etc. (SBO's
  /// Properties 1-2 against its ingredient values, RLS's memory cap).
  std::optional<Fraction> cmax_bound;
  std::optional<Fraction> mmax_bound;

  /// Guaranteed *ratios* versus the optima, when this configuration carries
  /// them (mirrors Capabilities, resolved for the instance's m and the
  /// run's actual Delta).
  std::optional<Fraction> cmax_ratio;
  std::optional<Fraction> mmax_ratio;
  std::optional<Fraction> sumci_ratio;

  /// Human-readable notes: infeasibility causes, guarantee-zone warnings
  /// (e.g. an RLS run at Delta <= 2), validation findings.
  std::string diagnostics;

  /// Extras channels: the producing algorithm's full native result.
  std::optional<SboResult> sbo;
  std::optional<RlsResult> rls;
  /// pareto:exact only: the whole exact front with one representative
  /// schedule per point (Capabilities::exact_front announces it).
  std::optional<ParetoEnumResult> pareto;
};

/// Polymorphic solver: one configured algorithm from the paper.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Canonical spec string; make_solver(name()) reconstructs this solver.
  virtual std::string name() const = 0;

  /// What this configuration supports and guarantees on m processors.
  virtual Capabilities capabilities(int m) const = 0;

  /// Solves one instance. Throws std::logic_error when the instance kind is
  /// unsupported (capabilities().supports_precedence honored) and
  /// std::invalid_argument when required options are missing. Solvers are
  /// immutable after construction; solve() is const and thread-safe.
  ///
  /// Non-virtual: this is the control envelope around the family's
  /// do_solve() -- it honors SolveOptions::cancel (a pre-cancelled token
  /// returns infeasible without running) and SolveOptions::deadline (an
  /// over-budget run is demoted to infeasible with the cause in
  /// diagnostics). With neither option set it forwards verbatim, so
  /// results are bit-identical to the pre-envelope API.
  SolveResult solve(const Instance& inst,
                    const SolveOptions& options = {}) const;

  /// Under STORESCHED_AUDIT=1, re-derives every checkable claim of
  /// `result` on `inst` (core/audit.hpp) -- the hard capacity only when
  /// this configuration needs one -- and throws std::logic_error
  /// "STORESCHED_AUDIT: <name()> <failure>: <violations>" on a violation;
  /// a no-op otherwise. solve() runs it on every cold result and
  /// storage::solve_cached on every cache hit, so both answer to one rule.
  void audit(const Instance& inst, const SolveResult& result,
             const SolveOptions& options, std::string_view failure) const;

  /// Runs this configuration once per Delta in `grid` and Pareto-filters
  /// the feasible points (the Section 6 sweep behind front()). Grid points
  /// fan out over the shared worker pool, and Delta-independent work is
  /// hoisted out of the sweep where the family allows it (SBO computes its
  /// ingredient schedules once and only re-routes per Delta). The default
  /// implementation throws std::invalid_argument: only Delta-tunable
  /// families (sbo, rls, tri) override it.
  virtual ApproxFront delta_sweep(const Instance& inst,
                                  std::span<const Fraction> grid) const;

 protected:
  /// The family's actual solve, wrapped by the public solve() envelope.
  virtual SolveResult do_solve(const Instance& inst,
                               const SolveOptions& options) const = 0;

  /// A solver that budgets SolveOptions::deadline itself (the fallback
  /// ladder splitting the remaining budget across rungs) returns true and
  /// the envelope skips its post-hoc demotion -- otherwise a lower rung's
  /// in-budget answer would be demoted just because an upper rung burned
  /// the clock first.
  virtual bool manages_deadline() const { return false; }
};

/// Builds a solver from a spec string (grammar above). Throws
/// std::invalid_argument naming the offending token on unknown families,
/// algorithms, policies, options, or malformed values.
std::unique_ptr<Solver> make_solver(const std::string& spec);

/// The canonical registry: one canonical spec per registered configuration
/// (every family crossed with its standard arguments at its default Delta).
/// Each entry satisfies make_solver(s)->name() == s.
std::vector<std::string> registered_solver_specs();

/// Tuning for the batch runner.
struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). Never
  /// more workers than instances are spawned either way (a 2-instance
  /// batch on a 32-core box uses 2 threads).
  int threads = 0;
};

/// Solves many instances with one solver configuration, fanning the work
/// out over a worker crew (solvers are stateless; results land at their
/// instance's index). A thin wrapper over solve_stream (core/stream.hpp)
/// with an in-memory source and sink -- use solve_stream directly when the
/// batch should not be materialized (O(window) memory instead of
/// O(batch)). A worker exception cancels the remaining work and rethrows
/// on the caller with the failing instance's index attached to the
/// message (the original std::logic_error / std::invalid_argument /
/// std::runtime_error type is preserved).
std::vector<SolveResult> solve_batch(const Solver& solver,
                                     std::span<const Instance> instances,
                                     const SolveOptions& options = {},
                                     const BatchOptions& batch = {});

/// Convenience overload: spec string in, results out.
std::vector<SolveResult> solve_batch(const std::string& spec,
                                     std::span<const Instance> instances,
                                     const SolveOptions& options = {},
                                     const BatchOptions& batch = {});

/// Generic Delta-sweep front generation (Section 6 made operational for
/// *any* Delta-tunable solver): runs the spec'd solver once per grid value,
/// collects the feasible (Cmax, Mmax) points and Pareto-filters them.
/// Delegates to Solver::delta_sweep(), so grid points run in parallel and
/// Delta-independent work (SBO's ingredient schedules) is computed once
/// per sweep, not once per point. Throws std::invalid_argument for
/// families without a Delta knob (graham, constrained).
ApproxFront front(const Instance& inst, const std::string& solver_spec,
                  std::span<const Fraction> grid);

}  // namespace storesched
