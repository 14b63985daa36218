// Fast-vs-reference equivalence for the hot-path rewrites.
//
// The incremental RLS engine (rls_schedule_fast) and the seed's O(n^2 m)
// exact-Fraction rescan (rls_schedule_reference) must be bit-identical on
// every input: same schedule (assignments *and* start times), same Lemma 4
// marks, same feasibility verdict and stuck task. Likewise
// sbo_ingredients + sbo_combine must reproduce sbo_schedule exactly, and
// the parallel ingredient-reuse Delta sweeps must reproduce the serial
// per-point loops. Randomized coverage: independent and DAG instances,
// every priority policy, Delta grids straddling the Delta = 2 feasibility
// edge (so infeasible verdicts are exercised too).
#include <gtest/gtest.h>

#include "common/dag_generators.hpp"
#include "common/generators.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/front_approx.hpp"
#include "core/rls.hpp"
#include "core/sbo.hpp"
#include "core/solver.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

constexpr PriorityPolicy kPolicies[] = {
    PriorityPolicy::kInputOrder,      PriorityPolicy::kSpt,
    PriorityPolicy::kLpt,             PriorityPolicy::kBottomLevel,
    PriorityPolicy::kSmallestStorage, PriorityPolicy::kLargestStorage,
};

/// Deltas straddling the run / Lemma 4 / guarantee zone boundaries,
/// including values at and below 2 where runs may come back infeasible.
const Fraction kDeltas[] = {Fraction(1, 2), Fraction(1),    Fraction(3, 2),
                            Fraction(2),    Fraction(9, 4), Fraction(3),
                            Fraction(8)};

void expect_identical(const Instance& inst, const Fraction& delta,
                      PriorityPolicy policy, int trial) {
  const RlsResult fast = rls_schedule_fast(inst, delta, policy);
  const RlsResult ref = rls_schedule_reference(inst, delta, policy);
  ASSERT_EQ(fast.feasible, ref.feasible)
      << "trial " << trial << " delta " << delta.to_string();
  EXPECT_EQ(fast.lb, ref.lb);
  EXPECT_EQ(fast.cap, ref.cap);
  EXPECT_EQ(fast.schedule, ref.schedule)
      << "trial " << trial << " delta " << delta.to_string();
  EXPECT_EQ(fast.marked, ref.marked);
  EXPECT_EQ(fast.marked_count, ref.marked_count);
  EXPECT_EQ(fast.stuck_task, ref.stuck_task);
  if (fast.feasible && Fraction(1) < delta) {
    EXPECT_LE(fast.marked_count, rls_marked_bound(delta, inst.m()));
  }
}

// 140 randomized independent instances x 7 deltas, policies rotating.
TEST(HotpathEquivalence, RandomizedIndependentInstances) {
  Rng rng(0xABCD);
  int runs = 0;
  for (int trial = 0; trial < 140; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    gp.m = static_cast<int>(rng.uniform_int(1, 8));
    gp.p_max = rng.uniform_int(1, 60);
    gp.s_max = rng.uniform_int(1, 90);
    const Instance inst = trial % 3 == 0
                              ? generate_memory_tight(gp, 1.1, rng)
                              : generate_uniform(gp, rng);
    for (const Fraction& delta : kDeltas) {
      expect_identical(inst, delta, kPolicies[runs++ % 6], trial);
    }
  }
}

// Per-family deep coverage for the ready-event kernel: 100 randomized
// instances of every dag_generators family, sizes up to 2000 (a handful of
// large draws so the release-bucket sweep and deep trees are exercised at
// real widths, the rest small so the reference oracle stays fast), deltas
// and policies rotating through the full grids.
TEST(HotpathEquivalence, EveryDagFamilyMatchesReference) {
  const char* kinds[] = {"layered", "forkjoin", "cholesky", "fft", "soc"};
  int runs = 0;
  for (const char* kind : kinds) {
    Rng rng(0xFA31137 + static_cast<std::uint64_t>(runs));
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t n =
          trial % 25 == 24
              ? static_cast<std::size_t>(rng.uniform_int(1200, 2000))
              : static_cast<std::size_t>(rng.uniform_int(2, 300));
      const int m = static_cast<int>(rng.uniform_int(1, 16));
      const Instance inst = generate_dag_by_name(kind, n, m, {}, rng);
      const Fraction delta = kDeltas[trial % 7];
      expect_identical(inst, delta, kPolicies[runs++ % 6], trial);
      if (HasFatalFailure()) return;
    }
  }
}

// Empty-frontier mid-solve: a diamond whose join feeds one long chain. As
// soon as the diamond's source is placed every other task is waiting on a
// predecessor *finish time*, so the kernel's released pool drains and each
// step must advance through a release bucket before it can place -- the
// regression spot for the event sweep's pending path.
TEST(HotpathEquivalence, DiamondWithLongChainDrainsTheFrontier) {
  constexpr int kChain = 40;
  Dag dag(4 + kChain);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  for (int i = 0; i < kChain; ++i) {
    dag.add_edge(3 + i, 4 + i);
  }
  Rng rng(0xD1A);
  std::vector<Task> tasks;
  for (int i = 0; i < 4 + kChain; ++i) {
    tasks.push_back({rng.uniform_int(1, 9), rng.uniform_int(1, 30)});
  }
  for (const int m : {1, 2, 4}) {
    const Instance inst(tasks, m, dag);
    for (const Fraction& delta : kDeltas) {
      expect_identical(inst, delta, PriorityPolicy::kInputOrder, m);
      expect_identical(inst, delta, PriorityPolicy::kBottomLevel, -m);
    }
  }
}

// 80 randomized DAG instances x 7 deltas across several graph shapes.
TEST(HotpathEquivalence, RandomizedDagInstances) {
  Rng rng(0xDA6);
  const char* kinds[] = {"layered", "forkjoin", "cholesky", "soc", "fft"};
  int runs = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 70));
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Instance inst =
        trial % 2 == 0
            ? generate_random_dag(n, 0.3, m, {}, rng)
            : generate_dag_by_name(kinds[trial % 5], n, m, {}, rng);
    for (const Fraction& delta : kDeltas) {
      expect_identical(inst, delta, kPolicies[runs++ % 6], trial);
    }
  }
}

// Degenerate shapes the randomized sweep can miss.
TEST(HotpathEquivalence, EdgeCaseInstances) {
  // Zero storage everywhere: cap 0, everything fits.
  expect_identical(make_instance({4, 3, 2}, {0, 0, 0}, 2), Fraction(3),
                   PriorityPolicy::kInputOrder, -1);
  // Zero processing times.
  expect_identical(make_instance({0, 0, 0, 0}, {5, 1, 5, 1}, 2), Fraction(3),
                   PriorityPolicy::kLpt, -2);
  // Single processor, single task.
  expect_identical(make_instance({7}, {7}, 1), Fraction(5, 2),
                   PriorityPolicy::kSpt, -3);
  // Infeasible from the first step: each processor fits exactly one task.
  expect_identical(make_instance({1, 1, 1}, {10, 10, 10}, 2), Fraction(1),
                   PriorityPolicy::kInputOrder, -4);
  // More processors than tasks.
  expect_identical(make_instance({3, 1}, {2, 9}, 6), Fraction(9, 4),
                   PriorityPolicy::kLargestStorage, -5);
}

// A larger spot check so tree depths beyond toy sizes are exercised.
TEST(HotpathEquivalence, LargerSpotChecks) {
  Rng rng(0x512e);
  GenParams gp;
  gp.n = 400;
  gp.m = 32;
  gp.p_max = 500;
  gp.s_max = 500;
  const Instance indep = generate_uniform(gp, rng);
  expect_identical(indep, Fraction(5, 2), PriorityPolicy::kInputOrder, -10);
  expect_identical(indep, Fraction(201, 100), PriorityPolicy::kLpt, -11);
  const Instance dag = generate_random_dag(300, 0.1, 16, {}, rng);
  expect_identical(dag, Fraction(5, 2), PriorityPolicy::kBottomLevel, -12);
}

// Both engines behind rls_schedule() (STORESCHED_RLS_REFERENCE picks one,
// read once per process) return the same schedule.
TEST(HotpathEquivalence, DispatcherEnginesAgree) {
  Rng rng(9);
  const Instance inst = generate_uniform({.n = 25, .m = 3}, rng);
  const RlsResult reference = rls_schedule_reference(inst, Fraction(5, 2));
  const RlsResult fast = rls_schedule_fast(inst, Fraction(5, 2));
  EXPECT_EQ(reference.schedule, fast.schedule);
  EXPECT_EQ(rls_schedule(inst, Fraction(5, 2)).schedule, fast.schedule);
}

// sbo_ingredients + sbo_combine must reproduce sbo_schedule bit-exactly.
TEST(HotpathEquivalence, SboCombineMatchesSchedule) {
  Rng rng(0x5B0);
  for (int trial = 0; trial < 40; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(1, 80));
    gp.m = static_cast<int>(rng.uniform_int(1, 8));
    const Instance inst = generate_anticorrelated(gp, 0.3, rng);
    const auto alg = make_scheduler(trial % 2 == 0 ? "lpt" : "ls");
    const SboIngredients ing = sbo_ingredients(inst, *alg, *alg);
    for (const Fraction& delta :
         {Fraction(1, 4), Fraction(1), Fraction(3, 2), Fraction(4)}) {
      const SboResult whole = sbo_schedule(inst, delta, *alg);
      const SboResult split = sbo_combine(inst, ing, delta);
      EXPECT_EQ(whole.schedule, split.schedule) << trial;
      EXPECT_EQ(whole.routed_to_pi2, split.routed_to_pi2) << trial;
      EXPECT_EQ(whole.c_ingredient, split.c_ingredient) << trial;
      EXPECT_EQ(whole.m_ingredient, split.m_ingredient) << trial;
      EXPECT_EQ(whole.cmax_bound, split.cmax_bound) << trial;
      EXPECT_EQ(whole.mmax_bound, split.mmax_bound) << trial;
    }
  }
}

// The parallel ingredient-reuse sweep equals the serial per-point loop.
TEST(HotpathEquivalence, ParallelSweepMatchesSerialLoop) {
  Rng rng(0xF407);
  const Instance inst = generate_uniform({.n = 60, .m = 4}, rng);
  const auto grid = delta_grid(Fraction(1, 4), Fraction(4), 11);

  const ApproxFront swept = front(inst, "sbo:lpt", grid);
  const auto alg = make_scheduler("lpt");
  std::vector<FrontPoint> serial;
  for (const Fraction& delta : grid) {
    SboResult run = sbo_schedule(inst, delta, *alg);
    const ObjectivePoint value = objectives(inst, run.schedule);
    serial.push_back({delta, std::move(run.schedule), value});
  }
  const auto filtered = pareto_filter_front(std::move(serial));
  ASSERT_EQ(swept.points.size(), filtered.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(swept.points[i].delta, filtered[i].delta);
    EXPECT_EQ(swept.points[i].schedule, filtered[i].schedule);
  }

  const ApproxFront rls_swept = front(inst, "rls:bottom", grid);
  std::vector<FrontPoint> rls_serial;
  for (const Fraction& delta : grid) {
    RlsResult run = rls_schedule(inst, delta, PriorityPolicy::kBottomLevel);
    if (!run.feasible) continue;
    const ObjectivePoint value = objectives(inst, run.schedule);
    rls_serial.push_back({delta, std::move(run.schedule), value});
  }
  const auto rls_filtered = pareto_filter_front(std::move(rls_serial));
  ASSERT_EQ(rls_swept.points.size(), rls_filtered.size());
  for (std::size_t i = 0; i < rls_filtered.size(); ++i) {
    EXPECT_EQ(rls_swept.points[i].delta, rls_filtered[i].delta);
    EXPECT_EQ(rls_swept.points[i].schedule, rls_filtered[i].schedule);
  }
}

// The Lemma 4 accounting fix: marks are recorded for the placed task only,
// so the bound must hold for every Delta > 1, including the (1, 2] band
// where runs carry no feasibility guarantee.
TEST(HotpathEquivalence, MarkedBoundHoldsInTightBand) {
  Rng rng(0x1E44);
  for (int trial = 0; trial < 25; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(6, 50));
    gp.m = static_cast<int>(rng.uniform_int(2, 8));
    const Instance inst = generate_memory_tight(gp, 1.2, rng);
    for (const Fraction& delta :
         {Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2)}) {
      for (const RlsResult& r : {rls_schedule_fast(inst, delta),
                                 rls_schedule_reference(inst, delta)}) {
        EXPECT_LE(r.marked_count, rls_marked_bound(delta, inst.m()))
            << "trial " << trial << " delta " << delta.to_string();
      }
    }
  }
}

// The shared pool never oversubscribes: workers <= jobs always.
TEST(HotpathEquivalence, WorkerPoolNeverOversubscribes) {
  // threads = 0 asks for hardware_concurrency(); the clamp must still cap
  // at the job count whatever the machine reports.
  EXPECT_GE(parallel_worker_count(2, 0), 1u);
  EXPECT_LE(parallel_worker_count(2, 0), 2u);
  EXPECT_EQ(parallel_worker_count(2, 32), 2u);
  EXPECT_EQ(parallel_worker_count(1, 8), 1u);
  EXPECT_EQ(parallel_worker_count(0, 8), 1u);
  EXPECT_EQ(parallel_worker_count(100, 4), 4u);
  EXPECT_LE(parallel_worker_count(1000, 0), 1000u);
}

}  // namespace
}  // namespace storesched
