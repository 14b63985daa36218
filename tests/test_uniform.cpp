// Tests for the uniform (related) processors extension -- the paper's
// "non identical processors" future-work item.
#include <gtest/gtest.h>

#include "algorithms/uniform.hpp"
#include "common/generators.hpp"
#include "common/rng.hpp"
#include "core/uniform_bi.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

TEST(UniformPartition, ValueAndBounds) {
  const std::vector<std::int64_t> w{6, 4, 10};
  const std::vector<std::int64_t> speeds{1, 2};
  const std::vector<ProcId> assign{0, 0, 1};
  // Work: P0 = 10 at speed 1 -> 10; P1 = 10 at speed 2 -> 5.
  EXPECT_EQ(uniform_partition_value(w, assign, speeds), Fraction(10));
  // LB = max(20/3, 10/2) = 20/3.
  EXPECT_EQ(uniform_lower_bound(w, speeds), Fraction(20, 3));
}

TEST(UniformPartition, RejectsBadInput) {
  const std::vector<std::int64_t> w{1};
  EXPECT_THROW(check_speeds(std::vector<std::int64_t>{}), std::invalid_argument);
  EXPECT_THROW(check_speeds(std::vector<std::int64_t>{0}), std::invalid_argument);
  const std::vector<std::int64_t> speeds{1, 1};
  const std::vector<ProcId> bad{2};
  EXPECT_THROW(uniform_partition_value(w, bad, speeds), std::invalid_argument);
}

TEST(UniformList, RejectsOrdersThatAreNotPermutations) {
  const std::vector<std::int64_t> w{3, 5};
  const std::vector<std::int64_t> speeds{1, 2};
  EXPECT_EQ(uniform_list_assign(w, std::vector<std::size_t>{1, 0}, speeds),
            (std::vector<ProcId>{0, 1}));
  // Too short, an entry past the weights, a repeated entry (which would
  // leave a task unplaced).
  EXPECT_THROW(uniform_list_assign(w, std::vector<std::size_t>{0}, speeds),
               std::invalid_argument);
  EXPECT_THROW(uniform_list_assign(w, std::vector<std::size_t>{0, 2}, speeds),
               std::invalid_argument);
  EXPECT_THROW(uniform_list_assign(w, std::vector<std::size_t>{1, 1}, speeds),
               std::invalid_argument);
}

TEST(UniformList, PrefersFastMachines) {
  // One big weight: ECT places it on the fastest machine.
  const std::vector<std::int64_t> w{100};
  const std::vector<std::int64_t> speeds{1, 5, 2};
  const auto assign = uniform_lpt_assign(w, speeds);
  EXPECT_EQ(assign[0], 1);
}

TEST(UniformList, EqualSpeedsReduceToIdentical) {
  Rng rng(121);
  std::vector<std::int64_t> w(30);
  for (auto& v : w) v = rng.uniform_int(1, 50);
  const std::vector<std::int64_t> speeds(4, 1);
  const auto uni = uniform_lpt_assign(w, speeds);
  const auto ident = lpt_assign(w, 4);
  EXPECT_EQ(partition_value(w, uni, 4), partition_value(w, ident, 4));
}

TEST(UniformList, LptWithinTwiceExactOptimum) {
  // Gonzalez-Ibarra-Sahni: LPT on uniform machines is a (2 - 2/(m+1))-
  // approximation. Cross-check against brute force on small instances.
  Rng rng(122);
  for (int trial = 0; trial < 15; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 9));
    std::vector<std::int64_t> w(n);
    for (auto& v : w) v = rng.uniform_int(1, 100);
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 3));
    std::vector<std::int64_t> speeds(m);
    for (auto& s : speeds) s = rng.uniform_int(1, 4);

    // Exhaustive optimum by odometer enumeration.
    Fraction opt(0);
    bool first = true;
    std::vector<ProcId> choice(n, 0);
    while (true) {
      const Fraction v = uniform_partition_value(w, choice, speeds);
      if (first || v < opt) {
        opt = v;
        first = false;
      }
      std::size_t pos = 0;
      while (pos < n && static_cast<std::size_t>(++choice[pos]) == m) {
        choice[pos++] = 0;
      }
      if (pos == n) break;
    }

    const auto assign = uniform_lpt_assign(w, speeds);
    const Fraction got = uniform_partition_value(w, assign, speeds);
    EXPECT_TRUE(opt <= got);
    EXPECT_TRUE(got <= Fraction(2) * opt)
        << "trial " << trial << ": " << got.to_string() << " vs 2*"
        << opt.to_string();
    // Sanity: the lower bound really is a lower bound on OPT.
    EXPECT_TRUE(uniform_lower_bound(w, speeds) <= opt);
  }
}

TEST(UniformSbo, RejectsBadInputs) {
  const Instance inst = make_instance({1, 2}, {1, 2}, 2);
  const std::vector<std::int64_t> speeds{1, 2};
  EXPECT_THROW(sbo_uniform_schedule(inst, speeds, Fraction(0)),
               std::invalid_argument);
  const std::vector<std::int64_t> wrong{1};
  EXPECT_THROW(sbo_uniform_schedule(inst, wrong, Fraction(1)),
               std::invalid_argument);
  Dag d(1);
  const Instance dag_inst({{1, 1}}, 1, d);
  EXPECT_THROW(
      sbo_uniform_schedule(dag_inst, std::vector<std::int64_t>{1}, Fraction(1)),
      std::logic_error);
}

TEST(UniformSbo, PropertyAnalogueHoldsExactly) {
  // Our extension theorem: Cmax(pi_Delta) <= (1+Delta) C and
  // Mmax(pi_Delta) <= (1 + speed_max/Delta) M, speeds normalized to min 1.
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(5, 30));
    gp.m = static_cast<int>(rng.uniform_int(2, 5));
    const Instance inst = generate_uniform(gp, rng);
    std::vector<std::int64_t> speeds(static_cast<std::size_t>(gp.m));
    for (auto& s : speeds) s = rng.uniform_int(1, 4);
    speeds[0] = 1;  // normalization: slowest speed 1

    for (const Fraction delta : {Fraction(1, 2), Fraction(1), Fraction(3)}) {
      const UniformSboResult r = sbo_uniform_schedule(inst, speeds, delta);
      EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
      EXPECT_TRUE(uniform_cmax(inst, r.schedule, speeds) <= r.cmax_bound)
          << "trial " << trial;
      EXPECT_TRUE(Fraction(mmax(inst, r.schedule)) <= r.mmax_bound)
          << "trial " << trial;
    }
  }
}

TEST(UniformSbo, IdenticalSpeedsMatchIdenticalGuarantees) {
  Rng rng(124);
  const Instance inst = generate_uniform(
      {.n = 20, .m = 3, .p_min = 1, .p_max = 40, .s_min = 1, .s_max = 40}, rng);
  const std::vector<std::int64_t> speeds{1, 1, 1};
  const UniformSboResult r = sbo_uniform_schedule(inst, speeds, Fraction(1));
  // With unit speeds, uniform cmax equals the integer cmax.
  EXPECT_EQ(uniform_cmax(inst, r.schedule, speeds),
            Fraction(cmax(inst, r.schedule)));
}

TEST(UniformRls, CapRespectedAndFeasibleAboveTwo) {
  Rng rng(125);
  for (int trial = 0; trial < 10; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(6, 25));
    gp.m = static_cast<int>(rng.uniform_int(2, 4));
    const Instance inst = generate_uniform(gp, rng);
    std::vector<std::int64_t> speeds(static_cast<std::size_t>(gp.m));
    for (auto& s : speeds) s = rng.uniform_int(1, 3);

    const UniformRlsResult r =
        rls_uniform_schedule(inst, speeds, Fraction(5, 2));
    ASSERT_TRUE(r.feasible) << trial;
    EXPECT_TRUE(Fraction(mmax(inst, r.schedule)) <= r.cap);
    EXPECT_EQ(r.makespan, uniform_cmax(inst, r.schedule, speeds));
  }
}

TEST(UniformRls, TightBudgetCanFail) {
  const Instance inst = make_instance({1, 1, 1}, {10, 10, 10}, 2);
  const std::vector<std::int64_t> speeds{1, 3};
  const UniformRlsResult r = rls_uniform_schedule(inst, speeds, Fraction(1));
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace storesched
