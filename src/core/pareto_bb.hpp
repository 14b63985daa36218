// Branch-and-bound exact Pareto enumeration (the default engine behind
// enumerate_pareto(); see core/pareto_enum.hpp for the engine story).
//
// The seed's brute force walks every symmetry-reduced assignment, so exact
// fronts stop at n ~ 14. This engine reaches n ~ 30-50 by searching the
// same tree with three prunes layered on top of the symmetry breaking:
//
//   * task order: non-increasing normalized weight p_i / total_p +
//     s_i / total_s (ties by p_i + s_i, then id), so heavy decisions on
//     either axis happen high in the tree where pruning removes the most;
//   * lower bounds: at every node, a floor on each objective and on
//     their sum over any completion of the partial assignment, which
//     treats the remaining tasks as whole items (load_floor() below);
//   * dominance pruning: the incumbent front is a staircase (sorted
//     vector, log-time dominance query); a node whose (Cmax LB, Mmax LB)
//     is weakly dominated by an incumbent point cannot produce a new
//     Pareto point and is cut.
//
// Before the search, the staircase is seeded so pruning has teeth from
// node one: LPT and MULTIFIT points on each axis and SBO threshold routings
// between them across a geometric Delta ladder; the exact per-axis optima
// C* and M*, which double as global floors; and a race for the ideal point
// (C*, M*) between randomized polished dives and a capped satisfiability
// probe whose node count paces them. The race ends at the first conclusive
// answer: a dive or the probe lands the point (the search then collapses
// to a root prune), or the probe exhausts its tree, proving the point
// unreachable.
//
// The last task is not a node: each of its placements completes an
// assignment, whose point is offered to the staircase directly.
//
// Every incumbent is a real assignment, and a branch is cut only when each
// of its completions is weakly dominated by an incumbent, so the surviving
// staircase is exactly the Pareto set -- bit-identical, as a point vector,
// to enumerate_pareto_reference()'s front on every instance.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/instance.hpp"
#include "core/pareto_enum.hpp"

namespace storesched {

/// Dominance-pruned incumbent front: entries sorted by strictly ascending
/// cmax with strictly decreasing mmax, each carrying one representative
/// assignment. offer() keeps the invariant; dominated() is the log-time
/// query the branch-and-bound prunes against.
class FrontStaircase {
 public:
  struct Entry {
    Time cmax = 0;
    Mem mmax = 0;
    std::vector<ProcId> assign;
  };

  /// True iff some entry weakly dominates (c, m) -- i.e. entry.cmax <= c
  /// and entry.mmax <= m (an equal point counts). O(log k).
  bool dominated(Time c, Mem m) const;

  /// Index of the last entry with cmax <= c, whose mmax is the least among
  /// them; entries().size() when there is none. O(log k).
  std::size_t floor_entry(Time c) const;

  /// The branch-and-bound prune: can any point with c >= lb_c, m >= lb_m
  /// and c + m >= lb_cm still be non-dominated? `at` is floor_entry(lb_c).
  /// The third constraint is the combined-load bound (cmax + mmax >=
  /// max_q(load_q + mem_q) for every schedule), which is what bites on
  /// anti-correlated instances where neither per-objective bound is
  /// tight. Walks the staircase gaps from entry `at`; O(gaps visited).
  bool can_improve(std::size_t at, Mem lb_m, std::int64_t lb_cm) const;

  /// Inserts (c, m, assign) unless dominated, erasing every entry the new
  /// point dominates. Returns true iff the point was inserted. Among
  /// duplicates the first offer wins (matching the reference walker).
  bool offer(Time c, Mem m, std::span<const ProcId> assign);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// The tasks a search node has still to place, seen on one axis (p, s or
/// p + s): how many, their total weight, and their three largest weights,
/// largest first (0 past `count`).
struct RemainingWeights {
  std::size_t count = 0;
  std::int64_t total = 0;
  std::array<std::int64_t, 3> top{};
};

/// Lower bound on the final maximum load when the remaining tasks, each
/// whole, are added to processors that carry `load` now (one entry per
/// processor, so never empty). With the loads sorted l1 <= l2 <= l3 <= ...
/// and the top weights w1 >= w2 >= w3, it is the largest of:
///   * the current maximum load;
///   * the water-fill level of `total` over the min(count, m)
///     least-loaded processors (count tasks reach at most count of them);
///   * l1 + w1 (the largest task lands somewhere);
///   * for count >= 2, min(l2 + w2, l1 + w1 + w2): the two largest tasks
///     sit on two processors, one of which carries >= l2, or share one;
///   * for count >= 3 and m >= 3, min(l3 + w3, l1 + w2 + w3), likewise.
/// `scratch` receives the sorted loads, so a hot caller allocates it once.
std::int64_t load_floor(std::span<const std::int64_t> load,
                        const RemainingWeights& rest,
                        std::vector<std::int64_t>& scratch);

/// Exact Pareto front by dominance-pruned branch and bound. Same contract
/// as enumerate_pareto() (independent tasks only; throws std::logic_error
/// on precedence instances and std::runtime_error past `limit`), but
/// `limit` counts *main-search* nodes, not complete assignments, and the
/// returned `enumerated` is that node count. A node places one task; the
/// last task's placements complete assignments and are not nodes. The
/// seeding stages are budgeted as fixed fractions of `limit` and give up
/// silently rather than throw, so total work stays a small multiple of
/// `limit`: limit/8 nodes per axis sub-search, and for the race limit/2
/// probe nodes and min(2048, limit/256) dive trials; the dives run to their
/// cap only when the probe stops at its own without an answer.
/// Representative schedules may differ from the reference walker's; the
/// front itself never does.
ParetoEnumResult enumerate_pareto_bb(
    const Instance& inst, std::uint64_t limit = kParetoEnumDefaultLimit);

}  // namespace storesched
