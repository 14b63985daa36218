// Tests for Graham list scheduling on DAGs, its direct placement on
// independent tasks against the event simulation, the SPT schedule,
// priority policies, and the MakespanScheduler factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "algorithms/graham.hpp"
#include "algorithms/scheduler.hpp"
#include "common/dag_generators.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

constexpr PriorityPolicy kAllPolicies[] = {
    PriorityPolicy::kInputOrder,      PriorityPolicy::kSpt,
    PriorityPolicy::kLpt,             PriorityPolicy::kBottomLevel,
    PriorityPolicy::kSmallestStorage, PriorityPolicy::kLargestStorage,
};

/// Weights in [0, p_max] x [0, s_max]: small ranges give ties and runs of
/// zero-length tasks.
Instance random_independent(Rng& rng, std::size_t n, int m, Time p_max,
                            Mem s_max) {
  std::vector<Time> p(n);
  std::vector<Mem> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = rng.uniform_int(0, p_max);
    s[i] = rng.uniform_int(0, s_max);
  }
  return make_instance(std::move(p), std::move(s), m);
}

/// A schedule's proc and start columns, which gtest prints readably.
std::pair<std::vector<ProcId>, std::vector<Time>> columns(const Schedule& s) {
  return {{s.assignment().begin(), s.assignment().end()},
          {s.starts().begin(), s.starts().end()}};
}

/// priority_order's documented contract, spelled as a stable sort.
std::vector<TaskId> stable_priority_order(const Instance& inst,
                                          PriorityPolicy policy) {
  std::vector<Time> key(inst.n(), 0);
  const std::vector<Time> bl = inst.has_precedence()
                                   ? inst.dag().bottom_levels(inst.tasks())
                                   : std::vector<Time>{};
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const Task& t = inst.task(static_cast<TaskId>(i));
    switch (policy) {
      case PriorityPolicy::kInputOrder: break;
      case PriorityPolicy::kSpt: key[i] = t.p; break;
      case PriorityPolicy::kLpt: key[i] = -t.p; break;
      case PriorityPolicy::kBottomLevel:
        key[i] = bl.empty() ? -t.p : -bl[i];
        break;
      case PriorityPolicy::kSmallestStorage: key[i] = t.s; break;
      case PriorityPolicy::kLargestStorage: key[i] = -t.s; break;
    }
  }
  std::vector<TaskId> order(inst.n());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return key[static_cast<std::size_t>(a)] < key[static_cast<std::size_t>(b)];
  });
  return order;
}

TEST(PriorityOrder, PoliciesSortAsDocumented) {
  const Instance inst = make_instance({3, 1, 2}, {5, 9, 1}, 2);
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kInputOrder),
            (std::vector<TaskId>{0, 1, 2}));
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kSpt),
            (std::vector<TaskId>{1, 2, 0}));
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kLpt),
            (std::vector<TaskId>{0, 2, 1}));
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kSmallestStorage),
            (std::vector<TaskId>{2, 0, 1}));
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kLargestStorage),
            (std::vector<TaskId>{1, 0, 2}));
}

/// n tasks whose p and s are drawn from a pool of about n / 3 values in
/// [0, top], each a multiple of `step`: ties at every width, and 0 and top
/// both in the pool, so the keys' spread needs every byte of top (bar the
/// low bytes a step of 256^k keeps at zero).
Instance pooled_instance(Rng& rng, std::size_t n, std::int64_t top,
                         std::int64_t step) {
  std::vector<std::int64_t> pool = {0, top / step * step};
  while (pool.size() < 2 + n / 3) {
    pool.push_back(rng.uniform_int(0, top / step) * step);
  }
  const auto draw = [&] {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  std::vector<Time> p(n);
  std::vector<Mem> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = draw();
    s[i] = draw();
  }
  return make_instance(std::move(p), std::move(s), 2);
}

TEST(PriorityOrder, MatchesAStableSortOnTiedKeys) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const Instance inst =
        trial % 3 == 0
            ? generate_random_dag(n + 1, 0.2, 2, {1, 2, 1, 2}, rng)
            : random_independent(rng, n, 2, /*p_max=*/3, /*s_max=*/3);
    for (const PriorityPolicy policy : kAllPolicies) {
      ASSERT_EQ(priority_order(inst, policy),
                stable_priority_order(inst, policy))
          << "trial " << trial << ", " << to_string(policy);
    }
  }
  // Keys needing 1 to 8 bytes, on every n from 0 to 300, so the radix
  // sort runs one pass and several; the instance's overflow guard (sums
  // fit in 64 bits) caps the widest keys.
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::int64_t cap =
        std::numeric_limits<std::int64_t>::max() /
        static_cast<std::int64_t>(std::max<std::size_t>(n, 1));
    for (int bytes = 1; bytes <= 8; ++bytes) {
      const std::int64_t top =
          bytes == 8 ? cap
                     : std::min(cap, (std::int64_t{1} << (8 * bytes)) - 1);
      if (bytes > 1 && top < (std::int64_t{1} << (8 * (bytes - 1)))) continue;
      // Every third instance keeps its low bytes at zero: a byte no key
      // sets costs no pass.
      const std::int64_t step =
          n % 3 == 0 && bytes > 2 ? std::int64_t{1} << 16 : 1;
      const Instance inst = pooled_instance(rng, n, top, step);
      for (const PriorityPolicy policy : kAllPolicies) {
        ASSERT_EQ(priority_order(inst, policy),
                  stable_priority_order(inst, policy))
            << "n " << n << ", " << bytes << " key bytes, "
            << to_string(policy);
      }
    }
    // All keys equal: the identity order.
    const Instance flat = make_instance(std::vector<Time>(n, 7),
                                        std::vector<Mem>(n, 7), 2);
    std::vector<TaskId> identity(n);
    std::iota(identity.begin(), identity.end(), 0);
    for (const PriorityPolicy policy : kAllPolicies) {
      ASSERT_EQ(priority_order(flat, policy), identity)
          << "n " << n << ", " << to_string(policy);
    }
  }
}

TEST(PriorityOrder, BottomLevelUsesDag) {
  Dag d(3);
  d.add_edge(0, 1);  // 0 -> 1, task 2 free
  const Instance inst({{1, 1}, {5, 1}, {4, 1}}, 2, d);
  // Bottom levels: task0 = 6, task1 = 5, task2 = 4.
  EXPECT_EQ(priority_order(inst, PriorityPolicy::kBottomLevel),
            (std::vector<TaskId>{0, 1, 2}));
}

TEST(GrahamList, IndependentMatchesGreedy) {
  const Instance inst = make_instance({3, 3, 2, 2}, {1, 1, 1, 1}, 2);
  const Schedule sched = graham_list_schedule(inst);
  EXPECT_TRUE(validate_schedule(inst, sched, {.require_timed = true}).ok);
  EXPECT_EQ(cmax(inst, sched), 5);
}

TEST(GrahamList, ZeroLengthTasksWaitForEveryIdleProcessor) {
  // At t = 0 the simulation fills both idle processors before it releases
  // one whose task had p = 0, so the zero-length tasks alternate. A plain
  // (free time, id) pick would stack all five on processor 0 (Mmax 5).
  const Instance inst = make_instance({0, 0, 0, 0, 3}, {1, 1, 1, 1, 1}, 2);
  const Schedule sched = graham_list_schedule(inst);
  EXPECT_EQ(columns(sched).first, (std::vector<ProcId>{0, 1, 0, 1, 0}));
  EXPECT_EQ(columns(sched).second, (std::vector<Time>{0, 0, 0, 0, 0}));
  EXPECT_EQ(cmax(inst, sched), 3);
  EXPECT_EQ(mmax(inst, sched), 3);
  EXPECT_EQ(columns(sched), columns(graham_event_schedule(inst)));
}

TEST(GrahamList, DirectPlacementMatchesTheEventSimulation) {
  // The edges first (n = 0, m = 1, m > n, all p = 0), then random
  // instances whose small weight ranges give ties in p and s and runs of
  // zero-length tasks.
  std::vector<Instance> corpus = {
      make_instance({}, {}, 3),
      make_instance({2, 0, 1, 0, 2}, {1, 1, 0, 2, 1}, 1),
      make_instance({3, 0, 1}, {2, 2, 1}, 7),
      make_instance({0, 0, 0, 0, 0, 0, 0}, {1, 0, 1, 0, 1, 0, 1}, 3),
  };
  Rng rng(41);
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 23));
    const int m = static_cast<int>(rng.uniform_int(1, 9));
    corpus.push_back(random_independent(rng, n, m, trial % 2 == 0 ? 2 : 10,
                                        /*s_max=*/3));
  }
  // Wide machines: two rounds of zero-length tasks on every processor,
  // then work, then zeros again; then random m up to 40 with n to 3m + 8.
  for (const int m : {16, 17, 40}) {
    std::vector<Time> p(static_cast<std::size_t>(2 * m), 0);
    p.insert(p.end(), {3, 1, 3, 0, 0, 0, 2});
    corpus.push_back(make_instance(p, std::vector<Mem>(p.size(), 1), m));
  }
  Rng wide(44);
  for (int trial = 0; trial < 600; ++trial) {
    const int m = static_cast<int>(wide.uniform_int(10, 40));
    const auto n = static_cast<std::size_t>(wide.uniform_int(0, 3 * m + 8));
    corpus.push_back(random_independent(wide, n, m, trial % 2 == 0 ? 2 : 10,
                                        /*s_max=*/3));
  }
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    for (const PriorityPolicy policy : kAllPolicies) {
      ASSERT_EQ(columns(graham_list_schedule(corpus[k], policy)),
                columns(graham_event_schedule(corpus[k], policy)))
          << "instance " << k << ", " << to_string(policy);
    }
  }
}

TEST(GrahamList, DagInstancesRunTheEventSimulation) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 5));
    const Instance inst = generate_random_dag(25, 0.15, m, {1, 3, 1, 3}, rng);
    for (const PriorityPolicy policy : kAllPolicies) {
      EXPECT_EQ(columns(graham_list_schedule(inst, policy)),
                columns(graham_event_schedule(inst, policy)))
          << "trial " << trial << ", " << to_string(policy);
    }
  }
}

TEST(GrahamList, RespectsPrecedences) {
  Rng rng(31);
  const Instance inst = generate_random_dag(40, 0.15, 3, {}, rng);
  const Schedule sched = graham_list_schedule(inst, PriorityPolicy::kBottomLevel);
  EXPECT_TRUE(validate_schedule(inst, sched, {.require_timed = true}).ok);
}

TEST(GrahamList, ChainSerializes) {
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  const Instance inst({{2, 1}, {3, 1}, {4, 1}}, 4, d);
  const Schedule sched = graham_list_schedule(inst);
  EXPECT_EQ(cmax(inst, sched), 9);  // pure chain: critical path
}

TEST(GrahamList, RatioBoundOnRandomDags) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 5));
    const Instance inst = generate_layered_dag(4, 5, 0.3, m, {}, rng);
    const Schedule sched =
        graham_list_schedule(inst, PriorityPolicy::kBottomLevel);
    const Time got = cmax(inst, sched);
    const Time lb = inst.time_lower_bound();
    // Graham: Cmax <= (2 - 1/m) C*max, and C*max >= lb.
    EXPECT_LE(got * m, (2 * m - 1) * std::max<Time>(lb, 1)) << trial;
  }
}

TEST(GrahamList, NoUnforcedIdleOnIndependent) {
  // With independent tasks a processor never idles while work remains:
  // makespan <= sum of any two... check the no-idle invariant directly.
  Rng rng(33);
  const Instance inst = make_instance({7, 3, 5, 1, 2, 6}, {1, 1, 1, 1, 1, 1}, 2);
  const Schedule sched = graham_list_schedule(inst);
  const auto loads = processor_loads(inst, sched);
  const Time span = cmax(inst, sched);
  // All processors busy until at least span - max_p.
  for (const Time load : loads) {
    EXPECT_GE(load, span - inst.max_p());
  }
}

TEST(Spt, OptimalSumCompletionOnSmallInstances) {
  // Cross-check SPT's sum Ci against exhaustive search over assignments and
  // orders: for identical machines, checking all assignments with SPT order
  // inside each machine is sufficient (exchange argument).
  const Instance inst = make_instance({4, 1, 3, 2}, {1, 1, 1, 1}, 2);
  const Schedule spt = spt_schedule(inst);
  EXPECT_TRUE(validate_schedule(inst, spt, {.require_timed = true}).ok);
  const Time spt_val = sum_completion_times(inst, spt);

  Time best = std::numeric_limits<Time>::max();
  for (int mask = 0; mask < 16; ++mask) {
    std::vector<std::vector<Time>> per_proc(2);
    for (int i = 0; i < 4; ++i) {
      per_proc[static_cast<std::size_t>((mask >> i) & 1)].push_back(
          inst.task(i).p);
    }
    Time total = 0;
    for (auto& times : per_proc) {
      std::sort(times.begin(), times.end());
      Time clock = 0;
      for (const Time p : times) {
        clock += p;
        total += clock;
      }
    }
    best = std::min(best, total);
  }
  EXPECT_EQ(spt_val, best);
  EXPECT_EQ(optimal_sum_completion(inst), best);
}

TEST(Spt, RejectsPrecedence) {
  Dag d(1);
  const Instance inst({{1, 1}}, 1, d);
  EXPECT_THROW(spt_schedule(inst), std::logic_error);
}

TEST(SchedulerFactory, KnownNames) {
  for (const char* name :
       {"ls", "lpt", "multifit", "ptas2", "ptas3", "exact", "kopt4"}) {
    const auto sched = make_scheduler(name);
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_FALSE(sched->name().empty());
  }
  EXPECT_THROW(make_scheduler("bogus"), std::invalid_argument);
  EXPECT_THROW(make_scheduler("kopt99"), std::invalid_argument);
}

TEST(SchedulerFactory, RatioFormulas) {
  EXPECT_EQ(make_scheduler("ls")->ratio(4), Fraction(7, 4));
  EXPECT_EQ(make_scheduler("lpt")->ratio(3), Fraction(11, 9));
  EXPECT_EQ(make_scheduler("multifit")->ratio(2), Fraction(13, 11));
  EXPECT_EQ(make_scheduler("ptas2")->ratio(8), Fraction(3, 2));
  EXPECT_EQ(make_scheduler("ptas3")->ratio(8), Fraction(4, 3));
  EXPECT_EQ(make_scheduler("exact")->ratio(5), Fraction(1));
  // KOPT: 1 + (1 - 1/m)/(1 + floor(k/m)) with k=4, m=2 -> 1 + (1/2)/3 = 7/6.
  EXPECT_EQ(make_scheduler("kopt4")->ratio(2), Fraction(7, 6));
}

TEST(SchedulerFactory, AssignGoesThroughUnderlyingAlgorithm) {
  const std::vector<std::int64_t> w{5, 5, 5, 5};
  const auto sched = make_scheduler("lpt");
  const auto assign = sched->assign(w, 2);
  EXPECT_EQ(partition_value(w, assign, 2), 10);
}

}  // namespace
}  // namespace storesched
