// Tests for reporting helpers (Markdown, DOT, text round-trip, Gantt)
// and descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/gantt.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
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
  // Every fault is a std::runtime_error, the invalid instances included.
  for (const char* text : {
           "",
           "2 2\n1 1\n",                      // missing task
           "2 2 prec\n1 1\n1 1\n0 5\n",       // edge out of range
           "2 2 prec\n1 1\n1 1\n0 0\n",       // self-loop
           "2 2 prec\n1 1\n1 1\n0 1\n1 0\n",  // cycle
           "2 2\n-1 1\n1 1\n",                // negative weight
           "2 0\n1 1\n1 1\n",                 // m <= 0
           "3000000000000000000 2\n1 1\n",    // n the text cannot hold
           "2 2 prec\n1 1\n1 1\n0 1\nxyz\n",  // trailing tokens
           "2 2 prec\n1 1\n1 1\n0\n",         // half an edge
           "2 2\n1 1\n1 1\n0 1\n",            // edges without prec
           "2 2 prec extra\n1 1\n1 1\n",      // trailing header token
           "2 2 dag\n1 1\n1 1\n",             // unknown header token
       }) {
    EXPECT_THROW(from_text(text), std::runtime_error) << '"' << text << '"';
  }
  // The valid neighbours of those still parse.
  EXPECT_EQ(from_text("2 2 prec\n1 1\n1 1\n").dag().edge_count(), 0u);
  EXPECT_EQ(from_text("2 2 prec\n1 1\n1 1\n0 1").dag().edge_count(), 1u);
  EXPECT_EQ(from_text("1 1\n0 0").n(), 1u);
  EXPECT_EQ(from_text("0 3\n").n(), 0u);
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 3), "2.000");
}

/// The oracle fmt() must match: the C library's fixed notation.
std::string printf_fixed(double v, int decimals) {
  std::vector<char> buf(512);
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, v);
  return buf.data();
}

TEST(Fmt, MatchesPrintfFixed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {
      0.0, -0.0, 0.0005, -0.0005, 2.675, 0.125, 1.5, 2.5, 1e15, -1e15,
      123456.7895, 1e300, -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(), inf, -inf,
      std::numeric_limits<double>::quiet_NaN()};
  for (int d = 0; d <= 6; ++d) {
    for (const double v : edges) {
      EXPECT_EQ(fmt(v, d), printf_fixed(v, d)) << v << " at " << d;
    }
  }
  // A seeded sweep over magnitudes a latency or ratio field takes, and
  // over raw bit patterns (any double at all).
  Rng rng(243);
  for (int trial = 0; trial < 20000; ++trial) {
    const int d = trial % 7;
    const double scale = std::pow(10.0, rng.uniform_int(-4, 9));
    const double scaled = (rng.uniform01() - 0.5) * scale;
    const std::uint64_t bits = rng();
    double raw = 0;
    std::memcpy(&raw, &bits, sizeof raw);
    ASSERT_EQ(fmt(scaled, d), printf_fixed(scaled, d))
        << scaled << " at " << d;
    ASSERT_EQ(fmt(raw, d), printf_fixed(raw, d)) << raw << " at " << d;
  }
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
