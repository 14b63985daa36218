// Failure-injection tests: mutate known-good schedules and require the
// validator and the discrete-event simulator to agree on acceptance, and to
// reject every corrupted variant they should reject. This guards the two
// independent verification paths against silently diverging.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algorithms/graham.hpp"
#include "common/dag_generators.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/rls.hpp"
#include "core/stream.hpp"
#include "sim/event_sim.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

/// Applies one random corruption to a timed schedule. Returns a label for
/// diagnostics.
std::string corrupt(Schedule& sched, const Instance& inst, Rng& rng) {
  const auto victim =
      static_cast<TaskId>(rng.uniform_int(0, static_cast<std::int64_t>(inst.n()) - 1));
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      // Shift a start time earlier (overlap / precedence hazard).
      const Time cur = sched.start(victim);
      const Time shift = rng.uniform_int(1, std::max<Time>(2, cur + 5));
      sched.assign(victim, sched.proc(victim), std::max<Time>(0, cur - shift));
      return "start-shift";
    }
    case 1: {
      // Move a task to another processor at the same time (overlap hazard).
      const ProcId q =
          static_cast<ProcId>(rng.uniform_int(0, inst.m() - 1));
      sched.assign(victim, q, sched.start(victim));
      return "proc-move";
    }
    default: {
      // Pile everything of one processor onto time 0 (gross overlap).
      for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
        if (sched.proc(i) == sched.proc(victim)) {
          sched.assign(i, sched.proc(i), 0);
        }
      }
      return "pile-up";
    }
  }
}

TEST(FuzzValidation, ValidatorAndSimulatorAgreeOnMutants) {
  Rng rng(151);
  int rejected = 0;
  int accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const bool dag_case = rng.bernoulli(0.5);
    const Instance inst =
        dag_case ? generate_dag_by_name("layered", 30, 3, {}, rng)
                 : generate_uniform({.n = 20,
                                     .m = 3,
                                     .p_min = 1,
                                     .p_max = 20,
                                     .s_min = 1,
                                     .s_max = 20},
                                    rng);
    Schedule sched = graham_list_schedule(inst, PriorityPolicy::kBottomLevel);
    const std::string kind = corrupt(sched, inst, rng);

    const bool validator_ok = validate_schedule(inst, sched,
                                                {.require_timed = true})
                                  .ok;
    const bool simulator_ok = simulate_schedule(inst, sched).ok;
    EXPECT_EQ(validator_ok, simulator_ok)
        << "divergence on " << kind << " mutant, trial " << trial;
    (validator_ok ? accepted : rejected) += 1;
  }
  // The corruptions are aggressive: a healthy harness rejects most of them
  // (a few mutants happen to remain legal, e.g. moving onto an idle slot).
  EXPECT_GT(rejected, 25);
}

TEST(FuzzValidation, UncorruptedSchedulesAlwaysAccepted) {
  Rng rng(152);
  for (int trial = 0; trial < 30; ++trial) {
    const Instance inst = generate_dag_by_name(
        trial % 2 ? "random" : "cholesky", 50, 4, {}, rng);
    const RlsResult r =
        rls_schedule(inst, Fraction(3), PriorityPolicy::kBottomLevel);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(validate_schedule(inst, r.schedule, {.require_timed = true}).ok);
    EXPECT_TRUE(simulate_schedule(inst, r.schedule).ok);
  }
}

TEST(FuzzValidation, MetricAgreementUnderRandomValidSchedules) {
  // Build arbitrary *valid* timed schedules (random assignment, serialized
  // back-to-back) and require Schedule arithmetic == simulator replay on
  // every metric.
  Rng rng(153);
  for (int trial = 0; trial < 40; ++trial) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    gp.m = static_cast<int>(rng.uniform_int(1, 6));
    const Instance inst = generate_uniform(gp, rng);
    Schedule assignment(inst);
    for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
      assignment.assign(
          i, static_cast<ProcId>(rng.uniform_int(0, inst.m() - 1)));
    }
    const Schedule timed = serialize_assignment(inst, assignment);
    const SimReport report = simulate_schedule(inst, timed);
    ASSERT_TRUE(report.ok) << report.violation;
    EXPECT_EQ(report.makespan, cmax(inst, timed));
    EXPECT_EQ(report.peak_memory, mmax(inst, timed));
    EXPECT_EQ(report.sum_completion, sum_completion_times(inst, timed));
  }
}

// --- Wire-format crash regressions (tools/fuzz_jsonl.cpp) -------------------
// Each test pins a bug the fuzz target surfaced; the same bytes live in
// tools/fuzz_corpus/ so the fuzz_jsonl_corpus ctest replays them under every
// sanitizer configuration.

TEST(FuzzRegression, WeightSumOverflowRejected) {
  // tools/fuzz_corpus/reject_weight_sum_overflow.jsonl: two INT64_MAX task
  // weights made Instance::compute_aggregates() wrap its running totals --
  // signed-overflow UB reachable from a single untrusted line. The sums now
  // reject overflow explicitly.
  EXPECT_THROW(
      instance_from_jsonl(
          R"({"m":2,"tasks":[[9223372036854775807,1],[9223372036854775807,1]]})",
          1),
      std::runtime_error);
  EXPECT_THROW(
      instance_from_jsonl(
          R"({"m":2,"tasks":[[1,9223372036854775807],[1,9223372036854775807]]})",
          1),
      std::runtime_error);
  // Same guard on the direct-construction path (invalid_argument there; the
  // wire layer rewraps it as runtime_error with the line number).
  constexpr Time kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(Instance({{kMax, 1}, {kMax, 1}}, 2), std::invalid_argument);
}

TEST(FuzzRegression, MaxWeightBoundaryStillAccepted) {
  // tools/fuzz_corpus/max_weight_single.jsonl: the overflow guard must not
  // reject the representable boundary itself.
  constexpr Time kMax = std::numeric_limits<std::int64_t>::max();
  const Instance inst = instance_from_jsonl(
      R"({"m":1,"tasks":[[9223372036854775807,9223372036854775807]]})", 1);
  EXPECT_EQ(inst.total_work(), kMax);
  EXPECT_EQ(inst.total_storage(), kMax);
  EXPECT_EQ(inst.max_p(), kMax);
  // Round-trip stays canonical at the boundary.
  const std::string wire = instance_to_jsonl(inst);
  EXPECT_EQ(instance_to_jsonl(instance_from_jsonl(wire, 1)), wire);
}

TEST(FuzzRegression, RejectionsAreAlwaysRuntimeErrors) {
  // The fuzz contract: malformed bytes throw std::runtime_error, never any
  // other type (and never crash). Pin one representative per corpus reject_*
  // entry.
  const char* rejects[] = {
      R"({"m":0,"tasks":[[1,1]]})",                    // reject_bad_m
      R"({"m":2,"tasks":[[1,1],[1,-3]]})",            // reject_negative_weight
      R"({"m":2,"tasks":[[1,1],[2,2]],"edges":[[0,1],[1,0]]})",  // cycle
      R"({"m":2,"tasks":[[99999999999999999999,1]]})",  // int overflow
      R"({"m":2,"tasks":[[1,1]],"bogus":3})",         // reject_unknown_key
      R"({"m":2,"tasks":[[1,1]]} trailing)",          // reject_trailing
      R"(not json at all)",                           // reject_not_json
      R"({"m":1,"tasks":[[1,1]],"m":2})",             // reject_repeated_key
      R"({"m":2,"tasks":[[01,1]]})",                  // reject_leading_zero
  };
  for (const char* line : rejects) {
    EXPECT_THROW(instance_from_jsonl(line, 1), std::runtime_error) << line;
  }
}

// ---------------------------------------------------------------------------
// The error-record wire (core/stream.hpp): the second parsing surface a
// serving tier exposes -- resumed runs and dashboards read these lines back.
// ---------------------------------------------------------------------------

TEST(ErrorRecordWire, RoundTripsToACanonicalFixpoint) {
  std::vector<StreamError> records;
  records.push_back({4, 0, StreamErrorCategory::kSolve, 3, "injected fault"});
  records.push_back({20, 21, StreamErrorCategory::kSource, 1,
                     "instance_from_jsonl: line 21: unterminated key"});
  records.push_back(
      {0, 0, StreamErrorCategory::kSink, 2, "a \"quoted\"\ncause\twith \x07"});
  records.push_back({0, 0, StreamErrorCategory::kSolve, 1, ""});
  for (const StreamError& record : records) {
    const std::string wire = stream_error_to_jsonl(record);
    const StreamError back = stream_error_from_jsonl(wire);
    EXPECT_EQ(back.index, record.index) << wire;
    EXPECT_EQ(back.line, record.line) << wire;
    EXPECT_EQ(back.category, record.category) << wire;
    EXPECT_EQ(back.attempts, record.attempts) << wire;
    EXPECT_EQ(back.what, record.what) << wire;
    EXPECT_EQ(stream_error_to_jsonl(back), wire) << "not a fixpoint";
  }
  // "line" appears on the wire only when the source tracked a position.
  EXPECT_EQ(stream_error_to_jsonl(records[0]).find("\"line\""),
            std::string::npos);
  EXPECT_NE(stream_error_to_jsonl(records[1]).find("\"line\":21"),
            std::string::npos);
}

TEST(ErrorRecordWire, AcceptsAnyKeyOrder) {
  const StreamError back = stream_error_from_jsonl(
      R"({"what":"x","attempts":2,"category":"sink","error":true,"index":7})");
  EXPECT_EQ(back.index, 7u);
  EXPECT_EQ(back.category, StreamErrorCategory::kSink);
  EXPECT_EQ(back.attempts, 2);
  EXPECT_EQ(back.what, "x");
}

TEST(ErrorRecordWire, RejectionsAreAlwaysRuntimeErrors) {
  const char* rejects[] = {
      "",                                                          // empty
      R"({"index":1,"error":true,"category":"oops","attempts":1,"what":"x"})",
      R"({"index":1,"error":false,"category":"solve","attempts":1,"what":"x"})",
      R"({"index":1,"error":true,"category":"solve","what":"x"})",  // no attempts
      R"({"error":true,"category":"solve","attempts":1,"what":"x"})",  // no index
      R"({"index":1,"error":true,"category":"solve","attempts":0,"what":"x"})",
      R"({"index":1,"error":true,"category":"solve","attempts":1000001,"what":"x"})",
      R"({"index":01,"error":true,"category":"solve","attempts":1,"what":"x"})",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"attempts":2,"what":"x"})",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"x","zap":1})",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"x"} junk)",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"\q"})",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"\u00ff"})",
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"open)",
      R"({"index":1,"error":true,"category":"solve","line":0,"attempts":1,"what":"x"})",
      R"({ "index":1,"error":true,"category":"solve","attempts":1,"what":"x"})",
  };
  for (const char* line : rejects) {
    EXPECT_THROW(stream_error_from_jsonl(line), std::runtime_error) << line;
  }
  // The raw-control-character reject needs a real 0x07 byte, which a raw
  // string literal cannot hold legibly.
  std::string control =
      R"({"index":1,"error":true,"category":"solve","attempts":1,"what":"x"})";
  control[control.size() - 3] = '\x07';
  EXPECT_THROW(stream_error_from_jsonl(control), std::runtime_error);
}

}  // namespace
}  // namespace storesched
