// Tests for reporting helpers (Markdown, DOT, text round-trip, Gantt)
// and descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/gantt.hpp"
#include "common/io.hpp"
#include "common/stats.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

TEST(Markdown, AlignsAndValidates) {
  const std::string table =
      markdown_table({"col", "x"}, {{"a", "1"}, {"bb", "22"}});
  EXPECT_NE(table.find("| col | x  |"), std::string::npos);
  EXPECT_NE(table.find("| bb  | 22 |"), std::string::npos);
  EXPECT_THROW(markdown_table({"a"}, {{"1", "2"}}), std::invalid_argument);
}

TEST(Dot, ContainsNodesAndEdges) {
  Dag d(2);
  d.add_edge(0, 1);
  const Instance inst({{3, 7}, {4, 8}}, 2, d);
  const std::string dot = to_dot(inst, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("p=3,s=7"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
}

TEST(TextFormat, RoundTripsIndependent) {
  const Instance inst = make_instance({3, 5, 4}, {2, 7, 3}, 2);
  const Instance back = from_text(to_text(inst));
  EXPECT_EQ(back.n(), inst.n());
  EXPECT_EQ(back.m(), inst.m());
  EXPECT_FALSE(back.has_precedence());
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    EXPECT_EQ(back.task(i), inst.task(i));
  }
}

TEST(TextFormat, RoundTripsDag) {
  Dag d(3);
  d.add_edge(0, 2);
  d.add_edge(1, 2);
  const Instance inst({{1, 1}, {2, 2}, {3, 3}}, 2, d);
  const Instance back = from_text(to_text(inst));
  ASSERT_TRUE(back.has_precedence());
  EXPECT_TRUE(back.dag().has_edge(0, 2));
  EXPECT_TRUE(back.dag().has_edge(1, 2));
  EXPECT_EQ(back.dag().edge_count(), 2u);
}

TEST(TextFormat, MalformedInputThrows) {
  EXPECT_THROW(from_text(""), std::runtime_error);
  EXPECT_THROW(from_text("2 2\n1 1\n"), std::runtime_error);  // missing task
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 3), "2.000");
}

TEST(Gantt, RendersRowsAndSummary) {
  const Instance inst = make_instance({4, 4}, {7, 9}, 2);
  Schedule sched(inst);
  sched.assign(0, 0, 0);
  sched.assign(1, 1, 0);
  const std::string art = render_gantt(inst, sched);
  EXPECT_NE(art.find("P0 |"), std::string::npos);
  EXPECT_NE(art.find("P1 |"), std::string::npos);
  EXPECT_NE(art.find("s=7"), std::string::npos);
  EXPECT_NE(art.find("Cmax=4 Mmax=9"), std::string::npos);
}

TEST(Gantt, RequiresTimedSchedule) {
  const Instance inst = make_instance({4}, {7}, 1);
  Schedule sched(inst);
  sched.assign(0, 0);
  EXPECT_THROW(render_gantt(inst, sched), std::logic_error);
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> values{1, 2, 3, 4, 5};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
  EXPECT_THROW(percentile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(sorted, 1.5), std::invalid_argument);
}

TEST(Stats, AccumulatorMatchesBatch) {
  Accumulator acc;
  for (const double v : {4.0, 1.0, 3.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 3u);
  const Summary s = acc.summary();
  EXPECT_DOUBLE_EQ(s.mean, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
}

TEST(Stats, SummaryToStringMentionsFields) {
  const Summary s = summarize(std::vector<double>{1.0, 2.0});
  const std::string str = s.to_string();
  EXPECT_NE(str.find("mean="), std::string::npos);
  EXPECT_NE(str.find("n=2"), std::string::npos);
}

}  // namespace
}  // namespace storesched
