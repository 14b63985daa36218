// Tests for the branch-and-bound exact Pareto engine (core/pareto_bb.hpp)
// and its pareto:exact solver surface: the soundness of load_floor against
// brute force, edge cases (empty, single task, all-equal weights, m >= n, a
// budget too small for any dive), the node-limit guard, the two engines'
// work counters, bit-identical-front agreement with the seed's brute-force
// walker on 120 randomized instances and on every generator family, and
// thread-count-independent representative schedules.
#include "core/pareto_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/generators.hpp"
#include "common/paper_instances.hpp"
#include "common/rng.hpp"
#include "core/solver.hpp"
#include "core/stream.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

/// Asserts that every front point's representative schedule is valid and
/// achieves the point.
void expect_representatives_achieve(const Instance& inst,
                                    const ParetoEnumResult& r) {
  for (const auto& pt : r.front) {
    const Schedule& sched = r.schedules[static_cast<std::size_t>(pt.tag)];
    EXPECT_TRUE(validate_schedule(inst, sched).ok);
    EXPECT_EQ(objectives(inst, sched), pt.value);
  }
}

TEST(LoadFloor, NeverExceedsTheBestPlacement) {
  // Every one of the m^r placements of r whole tasks onto the current
  // loads ends at some maximum load; the floor must not exceed the least.
  // Half the states draw from [0, 3], so ties and zeros are common.
  Rng rng(19);
  std::vector<std::int64_t> scratch;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::int64_t hi = rng.uniform_int(0, 1) == 0 ? 3 : 30;
    std::vector<std::int64_t> load(m);
    std::vector<std::int64_t> w(r);
    for (auto& v : load) v = rng.uniform_int(0, hi);
    for (auto& v : w) v = rng.uniform_int(0, hi);

    RemainingWeights rest;
    rest.count = r;
    std::vector<std::int64_t> sorted = w;
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i = 0; i < r; ++i) {
      rest.total += sorted[i];
      if (i < rest.top.size()) rest.top[i] = sorted[i];
    }

    // Placement `code` puts task i on processor (code / m^i) mod m.
    std::size_t placements = 1;
    for (std::size_t i = 0; i < r; ++i) placements *= m;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::size_t code = 0; code < placements; ++code) {
      std::vector<std::int64_t> final_load = load;
      for (std::size_t i = 0, c = code; i < r; ++i, c /= m) {
        final_load[c % m] += w[i];
      }
      best = std::min(best,
                      *std::max_element(final_load.begin(), final_load.end()));
    }
    ASSERT_LE(load_floor(load, rest, scratch), best) << "trial " << trial;
  }
}

TEST(LoadFloor, PlacesTheLastTwoTasksWhole) {
  // A node of a seed-1 cli-exact instance, memory axis: loads {252, 144,
  // 182} and two tasks left, s = 84 and s = 82.
  const std::vector<std::int64_t> mem{252, 144, 182};
  std::vector<std::int64_t> scratch;
  // Fluid, the 166 units fill the two least-loaded processors to 246, so
  // the current maximum 252 is all the fill can say.
  EXPECT_EQ(load_floor(mem, {.count = 2, .total = 166}, scratch), 252);
  // Whole, 84 on 144 leaves 82 for 182 (264) or 252 (334), and both on
  // 144 make 310: the optimum is 264, and the floor finds it.
  EXPECT_EQ(load_floor(mem, {.count = 2, .total = 166, .top = {84, 82, 0}},
                       scratch),
            264);
}

TEST(ParetoBb, RejectsPrecedence) {
  Dag d(1);
  const Instance inst({{1, 1}}, 1, d);
  EXPECT_THROW(enumerate_pareto_bb(inst), std::logic_error);
}

TEST(ParetoBb, EmptyInstance) {
  const Instance inst(std::vector<Task>{}, 2);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{0, 0}));
  EXPECT_EQ(r.front, enumerate_pareto_reference(inst).front);
}

TEST(ParetoBb, SingleTask) {
  const Instance inst = make_instance({5}, {3}, 3);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{5, 3}));
  EXPECT_TRUE(validate_schedule(inst, r.schedules[0]).ok);
}

TEST(ParetoBb, AllEqualWeightsSymmetryStress) {
  // Identical tasks maximize processor symmetry: the brute force walks
  // every set partition while the branch and bound collapses to the single
  // balanced front point. Cross-check where the walker is still feasible.
  const Instance small = make_instance(std::vector<Time>(12, 1),
                                       std::vector<Mem>(12, 1), 4);
  const auto bb = enumerate_pareto_bb(small);
  ASSERT_EQ(bb.front.size(), 1u);
  EXPECT_EQ(bb.front[0].value, (ObjectivePoint{3, 3}));
  EXPECT_EQ(bb.front, enumerate_pareto_reference(small).front);

  // Far past the walker's reach, in a blink for the branch and bound.
  const Instance big = make_instance(std::vector<Time>(48, 7),
                                     std::vector<Mem>(48, 7), 4);
  const auto r = enumerate_pareto_bb(big);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{84, 84}));
}

TEST(ParetoBb, MoreProcessorsThanTasks) {
  // With m >= n every task can sit alone, so the single front point is
  // (max p, max s) and it dominates every other assignment.
  const Instance inst = make_instance({4, 7, 2}, {6, 1, 5}, 5);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{7, 6}));
  EXPECT_EQ(r.front, enumerate_pareto_reference(inst).front);
}

TEST(ParetoBb, NodeLimitGuards) {
  // Anticorrelated weights: the ideal point (4, 4) is unachievable, so the
  // seeds cannot prune the root and the search must expand past one node.
  const Instance inst = make_instance({3, 2, 2}, {2, 2, 3}, 2);
  EXPECT_THROW(enumerate_pareto_bb(inst, /*limit=*/1), std::runtime_error);
}

TEST(ParetoBb, MatchesReferenceOnRandomizedInstances) {
  // The acceptance bar: bit-identical fronts (values and tag order) on
  // 120 randomized instances, zero weights included.
  Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 4));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 11));
    std::vector<Time> p(n);
    std::vector<Mem> s(n);
    for (auto& v : p) v = rng.uniform_int(0, 20);
    for (auto& v : s) v = rng.uniform_int(0, 20);
    const Instance inst = make_instance(p, s, m);
    const auto bb = enumerate_pareto_bb(inst);
    const auto ref = enumerate_pareto_reference(inst);
    ASSERT_EQ(bb.front, ref.front) << "trial " << trial;
    expect_representatives_achieve(inst, bb);
  }
}

TEST(ParetoBb, MatchesReferenceOnGeneratorFamilies) {
  // Where the cli-exact workload runs the engine (n = 12, m = 3) and next
  // to it (n = 10, m = 4), on every generator family at weights up to 100.
  // The corpus holds single-point fronts (the ideal point is reached) and
  // multi-point ones (the ideal point is refuted), so both ways the hunt
  // for the ideal point can end stay covered.
  Rng rng(15);
  GenParams gp;  // weights in [1, 100]
  std::size_t single = 0;
  std::size_t multi = 0;
  for (const char* family :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    for (const auto& [n, m] : {std::pair<std::size_t, int>{12, 3}, {10, 4}}) {
      gp.n = n;
      gp.m = m;
      for (int k = 0; k < 8; ++k) {
        const Instance inst = generate_by_name(family, gp, rng);
        const auto bb = enumerate_pareto_bb(inst);
        ASSERT_EQ(bb.front, enumerate_pareto_reference(inst).front)
            << family << " n=" << n << " m=" << m << " #" << k;
        expect_representatives_achieve(inst, bb);
        ++(bb.front.size() == 1 ? single : multi);
      }
    }
  }
  EXPECT_GT(single, 0u);
  EXPECT_GT(multi, 0u);
}

TEST(ParetoBb, BudgetBelowOneDiveStillExact) {
  // limit < 256 grants zero dive trials; the probe and the main search
  // still settle the front when it fits in the budget.
  const Instance inst =
      make_instance({9, 7, 6, 4, 3, 1}, {1, 3, 4, 6, 7, 9}, 2);
  const auto bb = enumerate_pareto_bb(inst, /*limit=*/255);
  EXPECT_GT(bb.front.size(), 1u);
  EXPECT_EQ(bb.front, enumerate_pareto_reference(inst).front);
  expect_representatives_achieve(inst, bb);
}

TEST(ParetoBb, EnginesCountTheirOwnWork) {
  // The walker counts complete assignments (the 5 set partitions of three
  // tasks); the branch and bound counts its nodes, and the seeds reach
  // the ideal point (4, 4), so its root prunes. The dispatcher's
  // STORESCHED_PARETO_REFERENCE routing is read once per process and is
  // pinned out of process by tests/cram/0100-cli-roundtrip.t.
  const Instance inst = make_instance({1, 2, 4}, {1, 2, 4}, 3);
  const auto ref = enumerate_pareto_reference(inst);
  const auto bb = enumerate_pareto_bb(inst);
  EXPECT_EQ(ref.enumerated, 5u);
  EXPECT_EQ(bb.enumerated, 1u);
  EXPECT_EQ(bb.front, ref.front);
}

TEST(ParetoBb, NodeCountsOnASeededCorpusArePinned) {
  // The search's node counts on every generator family at n = 12, m = 3
  // and n = 10, m = 4. The prune may get cheaper (cut earlier, skip a
  // bound it does not need), but it must answer the same boolean, so
  // the search visits the same nodes and every count stays put.
  const std::vector<std::uint64_t> pinned = {
      924, 1463, 831, 218, 230, 198,   // uniform
      1,   459,  486, 1,   35,  71,    // correlated
      645, 904, 1749, 488, 1079, 582,  // anticorrelated
      859, 271, 373, 1,   1,   1,      // bimodal
  };
  Rng rng(23);
  GenParams gp;  // weights in [1, 100]
  std::vector<std::uint64_t> nodes;
  for (const char* family :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    for (const auto& [n, m] : {std::pair<std::size_t, int>{12, 3}, {10, 4}}) {
      gp.n = n;
      gp.m = m;
      for (int k = 0; k < 3; ++k) {
        nodes.push_back(
            enumerate_pareto_bb(generate_by_name(family, gp, rng)).enumerated);
      }
    }
  }
  EXPECT_EQ(nodes, pinned);
}

// ---------------------------------------------------------------------------
// The pareto:exact solver surface.
// ---------------------------------------------------------------------------

TEST(ParetoExactSolver, RegistryAndCanonicalNames) {
  EXPECT_EQ(make_solver("pareto")->name(), "pareto:exact");
  EXPECT_EQ(make_solver("pareto:exact")->name(), "pareto:exact");
  EXPECT_EQ(make_solver("pareto:exact,limit=1000")->name(),
            "pareto:exact,limit=1000");
  EXPECT_THROW(make_solver("pareto:approx"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,limit=0"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,limit=many"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,delta=2"), std::invalid_argument);
}

TEST(ParetoExactSolver, CapabilitiesAnnounceTheExactFront) {
  const auto solver = make_solver("pareto:exact");
  const Capabilities caps = solver->capabilities(3);
  EXPECT_TRUE(caps.exact_front);
  EXPECT_FALSE(caps.supports_precedence);
  // Ratios describe the returned schedule (the Cmax-optimal front end):
  // exact on Cmax, no Mmax promise (that end lives in the extras front).
  EXPECT_EQ(*caps.cmax_ratio, Fraction(1));
  EXPECT_FALSE(caps.mmax_ratio.has_value());
  // No other registered family produces an exact front.
  for (const std::string& spec : registered_solver_specs()) {
    if (spec == "pareto:exact") continue;
    EXPECT_FALSE(make_solver(spec)->capabilities(3).exact_front) << spec;
  }
}

TEST(ParetoExactSolver, SolveReturnsFrontViaExtras) {
  // Figure 2 front: (100, 199), (101, 101), (199, 100).
  const Instance inst = fig2_instance(100);
  const SolveResult r = make_solver("pareto:exact")->solve(inst);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.pareto.has_value());
  ASSERT_EQ(r.pareto->front.size(), 3u);
  EXPECT_EQ(r.pareto->front, enumerate_pareto(inst).front);
  // The returned schedule is the Cmax-optimal front end.
  EXPECT_EQ(r.objectives, (ObjectivePoint{100, 199}));
  EXPECT_EQ(objectives(inst, r.schedule), r.objectives);
  EXPECT_EQ(*r.cmax_ratio, Fraction(1));
  EXPECT_NE(r.diagnostics.find("exact front"), std::string::npos);
}

TEST(ParetoExactSolver, HonorsPrecedenceRejectionAndLimit) {
  Dag dag(2);
  dag.add_edge(0, 1);
  const Instance dag_inst({{1, 1}, {2, 2}}, 2, dag);
  EXPECT_THROW(make_solver("pareto:exact")->solve(dag_inst), std::logic_error);

  const Instance tight = make_instance({3, 2, 2}, {2, 2, 3}, 2);
  EXPECT_THROW(make_solver("pareto:exact,limit=1")->solve(tight),
               std::runtime_error);
}

TEST(ParetoExactSolver, SchedulesIndependentOfThreadsAndRuns) {
  // Representatives are not pinned to the walker's, but they must not
  // depend on the thread count or on the run.
  Rng rng(7);
  GenParams gp;
  gp.n = 12;
  gp.m = 3;
  std::vector<Instance> corpus;
  for (const char* family :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    for (int k = 0; k < 6; ++k) {
      corpus.push_back(generate_by_name(family, gp, rng));
    }
  }
  const auto lines = [&](int threads) {
    const std::vector<SolveResult> results =
        solve_batch("pareto:exact", corpus, {}, {.threads = threads});
    std::string out;
    for (std::size_t i = 0; i < results.size(); ++i) {
      out += result_to_jsonl(i, results[i], {.include_schedule = true});
      for (const Schedule& rep : results[i].pareto->schedules) {
        for (TaskId t = 0; t < static_cast<TaskId>(rep.n()); ++t) {
          out += ' ' + std::to_string(rep.proc(t));
        }
      }
      out += '\n';
    }
    return out;
  };
  const std::string first = lines(1);
  EXPECT_EQ(lines(4), first);
  EXPECT_EQ(lines(1), first);
}

TEST(ParetoExactSolver, HasNoDeltaKnob) {
  const Instance inst = make_instance({1, 2}, {2, 1}, 2);
  const std::vector<Fraction> grid{Fraction(1)};
  EXPECT_THROW(front(inst, "pareto:exact", grid), std::invalid_argument);
}

}  // namespace
}  // namespace storesched
