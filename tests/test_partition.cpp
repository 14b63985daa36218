// Tests for the min-max partition algorithms (the single-objective
// substrate of SBO): correctness against brute force on small instances and
// proven-ratio property sweeps on random ones.
#include "algorithms/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::brute_force_partition;

/// The labelled m^n enumeration brute_force_partition's walk replaced:
/// every assignment of items to processors, loads summed at each leaf.
std::int64_t labelled_enumeration(std::span<const std::int64_t> w, int m) {
  const std::size_t n = w.size();
  std::int64_t best = 0;
  for (const std::int64_t v : w) best += v;
  std::vector<int> choice(n, 0);
  std::vector<std::int64_t> load(static_cast<std::size_t>(m));
  while (true) {
    std::fill(load.begin(), load.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      load[static_cast<std::size_t>(choice[i])] += w[i];
    }
    std::int64_t mx = 0;
    for (const std::int64_t l : load) mx = std::max(mx, l);
    best = std::min(best, mx);
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < n && ++choice[pos] == m) choice[pos++] = 0;
    if (pos == n) break;
  }
  return best;
}

TEST(BruteForce, PartitionWalkMatchesLabelledEnumeration) {
  Rng rng(20);
  for (int trial = 0; trial < 400; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 8));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(0, 30);  // zero weights included
    EXPECT_EQ(brute_force_partition(w, m), labelled_enumeration(w, m))
        << "trial " << trial;
  }
}

TEST(PartitionBounds, LowerBoundFormulas) {
  const std::vector<std::int64_t> w{5, 3, 3, 3};
  EXPECT_EQ(partition_lower_bound(w, 2), 7);  // ceil(14/2)
  EXPECT_EQ(partition_lower_bound(w, 4), 5);  // max element
  EXPECT_EQ(partition_lower_bound_fraction(w, 4), Fraction(5));
  // With m = 3 the max element (5) still dominates 14/3.
  EXPECT_EQ(partition_lower_bound_fraction(w, 3), Fraction(5));
  // Drop the big element: now the average bound binds.
  const std::vector<std::int64_t> flat{3, 3, 3, 3, 3};
  EXPECT_EQ(partition_lower_bound_fraction(flat, 2), Fraction(15, 2));
}

TEST(PartitionBounds, RejectsBadInput) {
  const std::vector<std::int64_t> w{1};
  EXPECT_THROW(partition_lower_bound(w, 0), std::invalid_argument);
  const std::vector<std::int64_t> neg{-1};
  EXPECT_THROW(partition_lower_bound(neg, 1), std::invalid_argument);
}

TEST(PartitionValue, ComputesMaxLoad) {
  const std::vector<std::int64_t> w{4, 2, 6};
  const std::vector<ProcId> assign{0, 0, 1};
  EXPECT_EQ(partition_value(w, assign, 2), 6);
  const std::vector<ProcId> bad{0, 0, 2};
  EXPECT_THROW(partition_value(w, bad, 2), std::invalid_argument);
}

/// The orders' documented contract, spelled as std::stable_sort.
std::vector<std::size_t> stable_sorted(std::span<const std::int64_t> w,
                                       bool descending) {
  std::vector<std::size_t> order(w.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return descending ? w[a] > w[b] : w[a] < w[b];
                   });
  return order;
}

/// List scheduling's rule spelled as a min-heap of (load, id): each weight
/// of `order` goes to the least loaded processor, the lowest id on ties.
std::vector<ProcId> heap_list_oracle(std::span<const std::int64_t> w,
                                     std::span<const std::size_t> order,
                                     int m) {
  using Entry = std::pair<std::int64_t, ProcId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (ProcId q = 0; q < m; ++q) heap.push({0, q});
  std::vector<ProcId> assign(w.size(), kNoProc);
  for (const std::size_t i : order) {
    const auto [load, q] = heap.top();
    heap.pop();
    assign[i] = q;
    heap.push({load + w[i], q});
  }
  return assign;
}

TEST(ListAssign, FollowsGreedyRule) {
  const std::vector<std::int64_t> w{3, 3, 2, 2};
  const auto assign = list_assign(w, 2);
  // 3->P0, 3->P1, 2->P0, 2->P1 by least-load with lowest-id ties.
  EXPECT_EQ(assign, (std::vector<ProcId>{0, 1, 0, 1}));
}

TEST(ListAssign, OrderedVariantUsesGivenOrder) {
  const std::vector<std::int64_t> w{1, 10};
  const std::vector<std::size_t> order{1, 0};
  const auto assign = list_assign_ordered(w, order, 2);
  EXPECT_EQ(assign[1], 0);  // the big weight placed first
  EXPECT_EQ(assign[0], 1);
  EXPECT_THROW(list_assign_ordered(w, std::vector<std::size_t>{0}, 2),
               std::invalid_argument);
  // An entry past the weights, or one repeated (which would leave a task
  // unplaced), is not an order.
  EXPECT_THROW(list_assign_ordered(w, std::vector<std::size_t>{1, 2}, 2),
               std::invalid_argument);
  EXPECT_THROW(list_assign_ordered(w, std::vector<std::size_t>{0, 0}, 2),
               std::invalid_argument);
}

TEST(ListAssign, MatchesAHeapOracle) {
  // m from 1 to 40; small weight ranges give ties in load and runs of zero
  // weights.
  Rng rng(24);
  for (int trial = 0; trial < 800; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 40));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 4 * m + 8));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(0, trial % 2 == 0 ? 3 : 100);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<std::size_t> input(n);
    std::iota(input.begin(), input.end(), std::size_t{0});

    ASSERT_EQ(list_assign_ordered(w, order, m), heap_list_oracle(w, order, m))
        << "trial " << trial << ", m " << m;
    ASSERT_EQ(list_assign(w, m), heap_list_oracle(w, input, m))
        << "trial " << trial << ", m " << m;
    ASSERT_EQ(lpt_assign(w, m), heap_list_oracle(w, stable_sorted(w, true), m))
        << "trial " << trial << ", m " << m;
  }
}

TEST(LptAssign, ClassicWorstCaseStillWithinRatio) {
  // Graham's LPT worst case for m=2: {3,3,2,2,2}: LPT gives 7, OPT 6.
  const std::vector<std::int64_t> w{3, 3, 2, 2, 2};
  EXPECT_EQ(partition_value(w, lpt_assign(w, 2), 2), 7);
  EXPECT_EQ(brute_force_partition(w, 2), 6);
}

TEST(Orders, DecreasingAndIncreasingAreStable) {
  const std::vector<std::int64_t> w{4, 9, 4, 1};
  EXPECT_EQ(decreasing_order(w), (std::vector<std::size_t>{1, 0, 2, 3}));
  EXPECT_EQ(increasing_order(w), (std::vector<std::size_t>{3, 0, 2, 1}));

  // Against std::stable_sort: every n to 300 with keys of 1 to 8 bytes
  // drawn from a small pool (ties), the extremes of int64, and 5,000 keys
  // of 8 bytes, where the radix sort runs all eight passes.
  Rng rng(25);
  const auto check = [](const std::vector<std::int64_t>& keys) {
    ASSERT_EQ(decreasing_order(keys), stable_sorted(keys, true));
    ASSERT_EQ(increasing_order(keys), stable_sorted(keys, false));
  };
  for (std::size_t n = 0; n <= 300; ++n) {
    for (int bytes = 1; bytes <= 8; ++bytes) {
      const std::int64_t top = bytes == 8
                                   ? std::numeric_limits<std::int64_t>::max()
                                   : (std::int64_t{1} << (8 * bytes)) - 1;
      std::vector<std::int64_t> pool = {0, top};
      while (pool.size() < 2 + n / 3) pool.push_back(rng.uniform_int(0, top));
      std::vector<std::int64_t> keys(n);
      for (auto& k : keys) {
        k = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      }
      check(keys);
    }
  }
  check({std::numeric_limits<std::int64_t>::min(), 0,
         std::numeric_limits<std::int64_t>::max(), -1, 1,
         std::numeric_limits<std::int64_t>::min(), 0});
  std::vector<std::int64_t> pool(1000);
  for (auto& k : pool) {
    k = rng.uniform_int(0, std::numeric_limits<std::int64_t>::max());
  }
  std::vector<std::int64_t> wide(5000);
  for (auto& k : wide) {
    k = pool[static_cast<std::size_t>(rng.uniform_int(0, 999))];
  }
  check(wide);
}

TEST(ExactDp, MatchesBruteForceSmall) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 4));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 9));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 30);
    EXPECT_EQ(exact_dp_value(w, m), brute_force_partition(w, m))
        << "trial " << trial;
  }
}

TEST(ExactDp, GuardsSize) {
  const std::vector<std::int64_t> w(21, 1);
  EXPECT_THROW(exact_dp_value(w, 2), std::invalid_argument);
}

TEST(ExactBnb, MatchesDpOnRandomInstances) {
  Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 5));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 100);
    const auto assign = exact_bnb_assign(w, m);
    EXPECT_EQ(partition_value(w, assign, m), exact_dp_value(w, m))
        << "trial " << trial;
  }
}

TEST(ExactBnb, NodeLimitTriggers) {
  Rng rng(23);
  std::vector<std::int64_t> w(24);
  for (auto& v : w) v = rng.uniform_int(1000, 9999);
  EXPECT_THROW(exact_bnb_assign(w, 4, /*node_limit=*/10), std::runtime_error);
}

TEST(Multifit, NeverWorseThanThirteenElevenths) {
  Rng rng(24);
  for (int trial = 0; trial < 25; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 4));
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 12));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 50);
    const std::int64_t opt = brute_force_partition(w, m);
    const std::int64_t got = partition_value(w, multifit_assign(w, m), m);
    EXPECT_LE(got * 11, opt * 13) << "trial " << trial;
    EXPECT_GE(got, opt);
  }
}

TEST(KOpt, FullPrefixIsExact) {
  Rng rng(25);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 3));
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 40);
    const auto assign = kopt_assign(w, m, static_cast<int>(n));
    EXPECT_EQ(partition_value(w, assign, m), brute_force_partition(w, m))
        << "trial " << trial;
  }
}

TEST(KOpt, ZeroPrefixEqualsLptValueOrBetter) {
  Rng rng(26);
  std::vector<std::int64_t> w(20);
  for (auto& v : w) v = rng.uniform_int(1, 99);
  const auto kopt = kopt_assign(w, 3, 0);
  const auto lpt = lpt_assign(w, 3);
  EXPECT_EQ(partition_value(w, kopt, 3), partition_value(w, lpt, 3));
}

TEST(DualPtas, RejectsUnsupportedK) {
  const std::vector<std::int64_t> w{1, 2};
  EXPECT_THROW(dual_ptas_assign(w, 2, 1), std::invalid_argument);
  EXPECT_THROW(dual_ptas_assign(w, 2, 4), std::invalid_argument);
}

TEST(DualPtas, EmptyAndSingleton) {
  EXPECT_TRUE(dual_ptas_assign({}, 2, 2).empty());
  const std::vector<std::int64_t> w{7};
  const auto assign = dual_ptas_assign(w, 3, 3);
  EXPECT_EQ(partition_value(w, assign, 3), 7);
}

// ---------------------------------------------------------------------------
// Property sweeps: every heuristic respects its proven ratio against the
// exact optimum across generators and machine counts.
// ---------------------------------------------------------------------------

struct RatioCase {
  std::string alg;
  int m;
  std::uint64_t seed;
};

class PartitionRatioTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(PartitionRatioTest, RespectsProvenRatio) {
  const RatioCase& param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 60);
    const std::int64_t opt = brute_force_partition(w, param.m);

    std::vector<ProcId> assign;
    Fraction ratio(1);
    if (param.alg == "ls") {
      assign = list_assign(w, param.m);
      ratio = Fraction(2 * param.m - 1, param.m);
    } else if (param.alg == "lpt") {
      assign = lpt_assign(w, param.m);
      ratio = Fraction(4 * param.m - 1, 3 * param.m);
    } else if (param.alg == "multifit") {
      assign = multifit_assign(w, param.m);
      ratio = Fraction(13, 11);
    } else if (param.alg == "kopt6") {
      assign = kopt_assign(w, param.m, 6);
      ratio = Fraction(1) + Fraction(param.m - 1, param.m * (1 + 6 / param.m));
    } else if (param.alg == "ptas2") {
      assign = dual_ptas_assign(w, param.m, 2);
      ratio = Fraction(3, 2);
    } else {
      assign = dual_ptas_assign(w, param.m, 3);
      ratio = Fraction(4, 3);
    }

    const std::int64_t got = partition_value(w, assign, param.m);
    EXPECT_GE(got, opt);
    // got <= ratio * opt, exactly.
    EXPECT_TRUE(Fraction(got) <= ratio * Fraction(opt))
        << param.alg << " m=" << param.m << " trial=" << trial << " got=" << got
        << " opt=" << opt;
    // Every weight assigned a real processor.
    for (const ProcId q : assign) {
      EXPECT_GE(q, 0);
      EXPECT_LT(q, param.m);
    }
  }
}

std::vector<RatioCase> ratio_cases() {
  std::vector<RatioCase> cases;
  std::uint64_t seed = 1000;
  for (const char* alg : {"ls", "lpt", "multifit", "kopt6", "ptas2", "ptas3"}) {
    for (const int m : {2, 3, 5}) {
      cases.push_back({alg, m, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PartitionRatioTest,
                         ::testing::ValuesIn(ratio_cases()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.alg + "_m" +
                                              std::to_string(param_info.param.m);
                           for (auto& c : name) {
                             if (c == '/') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace storesched
