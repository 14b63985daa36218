// Tests for the streaming solve pipeline (core/stream.hpp): batch/stream
// equivalence, bounded-window backpressure, ordered vs as-completed
// delivery, cooperative cancellation, per-solve deadlines, worker-exception
// attribution, the JSONL wire format, and the split claim/encode/write
// contract.
#include "core/stream.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <vector>

#include <filesystem>
#include <fstream>
#include <map>

#include "common/dag.hpp"
#include "common/failpoint.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "core/solver.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

std::vector<Instance> random_instances(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  for (int i = 0; i < count; ++i) {
    GenParams gp;
    gp.n = static_cast<std::size_t>(rng.uniform_int(8, 30));
    gp.m = static_cast<int>(rng.uniform_int(2, 5));
    out.push_back(generate_uniform(gp, rng));
  }
  return out;
}

Instance small_dag_instance() {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  return Instance({{2, 1}, {3, 2}, {1, 1}}, 2, dag);
}

// ---------------------------------------------------------------------------
// Batch/stream equivalence.
// ---------------------------------------------------------------------------

TEST(StreamEquivalence, MatchesSolveBatchBitIdentically) {
  const std::vector<Instance> instances = random_instances(30, 0xe1);
  for (const char* spec : {"sbo:lpt,delta=1", "rls:input,delta=3"}) {
    const auto solver = make_solver(spec);
    const std::vector<SolveResult> expected =
        solve_batch(*solver, instances, {}, {.threads = 1});
    for (const bool ordered : {true, false}) {
      std::vector<SolveResult> streamed(instances.size());
      SpanSource source(instances);
      VectorSink sink(streamed);
      StreamOptions stream;
      stream.threads = 4;
      stream.window = 3;  // tighter than the batch: backpressure engaged
      stream.ordered = ordered;
      const StreamStats stats =
          solve_stream(*solver, source, sink, {}, stream);
      EXPECT_EQ(stats.pulled, instances.size());
      EXPECT_EQ(stats.delivered, instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        EXPECT_EQ(expected[i].schedule, streamed[i].schedule)
            << spec << " instance " << i << " ordered=" << ordered;
        EXPECT_EQ(expected[i].objectives, streamed[i].objectives);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Backpressure: the window bounds pulled-but-undelivered instances.
// ---------------------------------------------------------------------------

TEST(StreamBackpressure, WindowBoundsInFlight) {
  // A slow head-of-line instance in ordered mode is the worst case: the
  // fast tail completes and buffers behind it, and only the window may
  // absorb that. Both source and sink run under the driver lock, so the
  // plain counters below are race-free by the pipeline's own contract.
  constexpr std::size_t kCount = 80;
  constexpr std::size_t kWindow = 4;
  std::size_t pulled = 0;
  std::size_t delivered = 0;
  std::size_t max_outstanding = 0;

  Rng rng(0xb9);
  GenParams slow;
  slow.n = 3000;
  slow.m = 4;
  const Instance head = generate_uniform(slow, rng);

  GeneratorSource source(
      [&]() -> std::optional<Instance> {
        if (pulled >= kCount) return std::nullopt;
        ++pulled;
        if (pulled == 1) return head;
        return make_instance({1, 2, 3}, {3, 2, 1}, 2);
      },
      kCount);
  CallbackSink sink([&](std::size_t, SolveResult) {
    max_outstanding = std::max(max_outstanding, pulled - delivered);
    ++delivered;
  });

  StreamOptions stream;
  stream.threads = 4;
  stream.window = kWindow;
  stream.ordered = true;
  const StreamStats stats =
      solve_stream(*make_solver("rls:input,delta=3"), source, sink, {}, stream);

  EXPECT_EQ(stats.pulled, kCount);
  EXPECT_EQ(stats.delivered, kCount);
  EXPECT_LE(stats.max_in_flight, kWindow);
  EXPECT_LE(max_outstanding, kWindow);
}

// ---------------------------------------------------------------------------
// Adaptive window (StreamOptions::window == 0).
// ---------------------------------------------------------------------------

TEST(StreamAdaptiveWindow, TinyBudgetClampsTheWindowToTheWorkerFloor) {
  // ~1k-task instances: each in-flight unit is tens of kilobytes, so a
  // 32 KiB budget must shrink the adaptive window to its floor (the worker
  // count) instead of the 4x-workers default.
  Rng rng(0xAD1);
  std::vector<Instance> instances;
  for (int i = 0; i < 24; ++i) {
    GenParams gp;
    gp.n = 1000;
    gp.m = 4;
    instances.push_back(generate_uniform(gp, rng));
  }
  SpanSource source(instances);
  std::vector<SolveResult> results(instances.size());
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 0;  // adaptive
  stream.memory_budget = 32u << 10;
  const StreamStats stats =
      solve_stream(*make_solver("rls:input,delta=3"), source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, instances.size());
  EXPECT_EQ(stats.window, 4u);  // clamped to the worker floor
  EXPECT_LE(stats.max_in_flight, 16u);  // 4x workers before the first shrink
}

TEST(StreamAdaptiveWindow, RoomyBudgetGrowsTheWindowWithinTheCeiling) {
  const std::vector<Instance> instances = random_instances(40, 0xAD2);
  SpanSource source(instances);
  std::vector<SolveResult> results(instances.size());
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 0;  // adaptive, default 64 MiB budget
  const StreamStats stats =
      solve_stream(*make_solver("sbo:lpt,delta=1"), source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, instances.size());
  // Tiny instances: the observed footprint lets the window grow well past
  // the 4x-workers start, capped by the hard ceiling.
  EXPECT_GT(stats.window, 16u);
  EXPECT_LE(stats.window, 4096u);
}

TEST(StreamAdaptiveWindow, ExplicitWindowIsTakenLiterallyAndRecorded) {
  const std::vector<Instance> instances = random_instances(10, 0xAD3);
  SpanSource source(instances);
  std::vector<SolveResult> results(instances.size());
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 3;
  stream.memory_budget = 1;  // must be ignored for explicit windows
  const StreamStats stats =
      solve_stream(*make_solver("sbo:lpt,delta=1"), source, sink, {}, stream);
  EXPECT_EQ(stats.window, 3u);
  EXPECT_LE(stats.max_in_flight, 3u);
}

// ---------------------------------------------------------------------------
// Delivery modes.
// ---------------------------------------------------------------------------

TEST(StreamOrdering, OrderedDeliversInInputOrder) {
  const std::vector<Instance> instances = random_instances(40, 0x0d);
  SpanSource source(instances);
  std::vector<std::size_t> indices;
  CallbackSink sink(
      [&](std::size_t index, SolveResult) { indices.push_back(index); });
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 5;
  stream.ordered = true;
  solve_stream(*make_solver("sbo:lpt,delta=1"), source, sink, {}, stream);
  ASSERT_EQ(indices.size(), instances.size());
  for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
}

TEST(StreamOrdering, AsCompletedDeliversEveryIndexExactlyOnce) {
  const std::vector<Instance> instances = random_instances(40, 0xac);
  SpanSource source(instances);
  std::vector<std::size_t> indices;
  CallbackSink sink(
      [&](std::size_t index, SolveResult) { indices.push_back(index); });
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 5;
  stream.ordered = false;
  solve_stream(*make_solver("sbo:lpt,delta=1"), source, sink, {}, stream);
  ASSERT_EQ(indices.size(), instances.size());
  const std::set<std::size_t> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), instances.size());
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(StreamCancel, MidRunStopsPullingButDeliversInFlight) {
  constexpr std::size_t kCount = 300;
  for (const int threads : {1, 4}) {
    auto token = std::make_shared<CancelToken>();
    std::size_t pulled = 0;
    GeneratorSource source(
        [&]() -> std::optional<Instance> {
          if (pulled >= kCount) return std::nullopt;
          ++pulled;
          return make_instance({2, 1, 3}, {1, 3, 2}, 2);
        },
        kCount);
    std::size_t delivered = 0;
    CallbackSink sink([&](std::size_t, SolveResult) {
      if (++delivered == 10) token->request_cancel();
    });
    StreamOptions stream;
    stream.threads = threads;
    stream.window = 4;
    stream.cancel = token;
    const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                           source, sink, {}, stream);
    EXPECT_TRUE(stats.cancelled) << "threads=" << threads;
    EXPECT_GE(stats.delivered, 10u);
    EXPECT_LT(stats.pulled, kCount);  // stopped pulling well short of the end
    // Nothing pulled is ever dropped: in-flight work is still delivered.
    EXPECT_EQ(stats.pulled, stats.delivered);
    EXPECT_EQ(stats.pulled, pulled);
  }
}

TEST(StreamCancel, PreCancelledTokenShortCircuitsSolve) {
  auto token = std::make_shared<CancelToken>();
  token->request_cancel();
  SolveOptions options;
  options.cancel = token;
  const SolveResult r = make_solver("sbo:lpt,delta=1")
                            ->solve(make_instance({1, 2}, {2, 1}, 2), options);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.diagnostics.find("cancelled"), std::string::npos);
}

TEST(StreamCancelStress, RandomCancelPointsNeverDropOrDoubleDeliver) {
  // Randomized cancel points under the adaptive window (the configuration a
  // long-lived service actually runs): whichever moment the token fires --
  // pre-run, mid-run, from any sink call, with or without a per-solve
  // deadline racing it -- the pipeline contract stays exact. Every pulled
  // index is delivered exactly once (no drops, no double delivery), and
  // since the generator hands out indices sequentially, the delivered set
  // is precisely the prefix [0, pulled).
  constexpr std::size_t kCount = 120;
  Rng rng(0x5ca1e);
  for (int trial = 0; trial < 12; ++trial) {
    const auto cancel_at =
        static_cast<std::size_t>(rng.uniform_int(0, 40));
    const bool ordered = rng.bernoulli(0.5);
    const int threads = static_cast<int>(rng.uniform_int(1, 4));
    const bool with_deadline = rng.bernoulli(0.5);

    auto token = std::make_shared<CancelToken>();
    if (cancel_at == 0) token->request_cancel();

    std::size_t pulled = 0;
    GeneratorSource source(
        [&]() -> std::optional<Instance> {
          if (pulled >= kCount) return std::nullopt;
          ++pulled;
          return make_instance({2, 1, 3}, {1, 3, 2}, 2);
        },
        kCount);

    std::vector<int> per_index(kCount, 0);
    std::size_t delivered = 0;
    CallbackSink sink([&](std::size_t index, SolveResult r) {
      ASSERT_LT(index, kCount);
      ++per_index[index];
      if (++delivered == cancel_at) token->request_cancel();
      if (with_deadline) {
        EXPECT_FALSE(r.feasible);
      }
    });

    SolveOptions options;
    if (with_deadline) options.deadline = std::chrono::nanoseconds(0);
    StreamOptions stream;
    stream.threads = threads;
    stream.window = 0;  // adaptive
    stream.memory_budget = 64u << 10;  // keep the window near its floor
    stream.ordered = ordered;
    stream.cancel = token;
    const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                           source, sink, options, stream);

    const std::string label =
        "trial " + std::to_string(trial) + " cancel_at=" +
        std::to_string(cancel_at) + " ordered=" + std::to_string(ordered) +
        " threads=" + std::to_string(threads) +
        " deadline=" + std::to_string(with_deadline);
    EXPECT_EQ(stats.pulled, pulled) << label;
    EXPECT_EQ(stats.delivered, stats.pulled) << label;  // nothing dropped
    EXPECT_EQ(delivered, stats.delivered) << label;
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(per_index[i], i < pulled ? 1 : 0)
          << label << " index " << i;
    }
    if (cancel_at == 0) {
      EXPECT_EQ(stats.pulled, 0u) << label;
      EXPECT_TRUE(stats.cancelled) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-solve deadlines.
// ---------------------------------------------------------------------------

TEST(StreamDeadline, ExpiredBudgetSurfacesAsInfeasibleWithDiagnostics) {
  SolveOptions options;
  options.deadline = std::chrono::nanoseconds(0);  // every solve overruns
  const Instance inst = make_instance({3, 2, 1}, {1, 2, 3}, 2);
  const SolveResult direct = make_solver("rls:input,delta=3")->solve(inst, options);
  EXPECT_FALSE(direct.feasible);
  EXPECT_NE(direct.diagnostics.find("deadline exceeded"), std::string::npos);

  const std::vector<Instance> instances = random_instances(8, 0xd1);
  SpanSource source(instances);
  std::size_t infeasible = 0;
  CallbackSink sink([&](std::size_t, SolveResult r) {
    if (!r.feasible) ++infeasible;
    EXPECT_NE(r.diagnostics.find("deadline exceeded"), std::string::npos);
  });
  StreamOptions stream;
  stream.threads = 2;
  const StreamStats stats = solve_stream(*make_solver("sbo:lpt,delta=1"),
                                         source, sink, options, stream);
  EXPECT_EQ(stats.feasible, 0u);
  EXPECT_EQ(infeasible, instances.size());
}

TEST(StreamDeadline, GenerousBudgetChangesNothing) {
  const Instance inst = make_instance({3, 2, 1}, {1, 2, 3}, 2);
  const auto solver = make_solver("rls:input,delta=3");
  SolveOptions options;
  options.deadline = std::chrono::minutes(10);
  const SolveResult with = solver->solve(inst, options);
  const SolveResult without = solver->solve(inst);
  ASSERT_TRUE(with.feasible);
  EXPECT_EQ(with.schedule, without.schedule);
  EXPECT_EQ(with.diagnostics, without.diagnostics);
}

// ---------------------------------------------------------------------------
// Failure attribution.
// ---------------------------------------------------------------------------

TEST(StreamErrors, WorkerExceptionNamesTheFailingInstance) {
  // An SBO batch hitting a precedence instance throws std::logic_error;
  // the pipeline must preserve the type and attach the instance index.
  std::vector<Instance> instances = random_instances(12, 0xfe);
  instances[7] = small_dag_instance();
  for (const int threads : {1, 4}) {
    SpanSource source(instances);
    std::vector<SolveResult> results(instances.size());
    VectorSink sink(results);
    StreamOptions stream;
    stream.threads = threads;
    try {
      solve_stream(*make_solver("sbo:lpt,delta=1"), source, sink, {}, stream);
      FAIL() << "expected std::logic_error (threads=" << threads << ")";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("instance 7"), std::string::npos)
          << "message does not name the instance: " << e.what();
    }
  }
}

TEST(StreamErrors, SolveBatchNamesTheFailingInstanceToo) {
  std::vector<Instance> instances = random_instances(10, 0xfb);
  instances.push_back(small_dag_instance());  // index 10
  try {
    solve_batch("sbo:lpt,delta=1", instances, {}, {.threads = 4});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("instance 10"), std::string::npos)
        << "message does not name the instance: " << e.what();
  }
}

TEST(StreamErrors, VectorSinkRejectsOutOfRangeIndex) {
  std::vector<SolveResult> results(2);
  VectorSink sink(results);
  EXPECT_THROW(sink.consume(2, SolveResult{}), std::logic_error);
}

// ---------------------------------------------------------------------------
// JSONL wire format.
// ---------------------------------------------------------------------------

TEST(Jsonl, InstanceRoundTripsIndependentAndDag) {
  const Instance indep = make_instance({5, 1, 4}, {1, 9, 2}, 3);
  const Instance back = instance_from_jsonl(instance_to_jsonl(indep));
  ASSERT_EQ(back.n(), indep.n());
  EXPECT_EQ(back.m(), indep.m());
  EXPECT_FALSE(back.has_precedence());
  for (TaskId i = 0; i < static_cast<TaskId>(indep.n()); ++i) {
    EXPECT_EQ(back.task(i), indep.task(i));
  }

  const Instance dag = small_dag_instance();
  const Instance dag_back = instance_from_jsonl(instance_to_jsonl(dag));
  ASSERT_TRUE(dag_back.has_precedence());
  EXPECT_EQ(dag_back.dag(), dag.dag());
  EXPECT_EQ(dag_back.m(), dag.m());
}

TEST(Jsonl, ParserAcceptsWhitespaceAndAnyKeyOrder) {
  const Instance inst = instance_from_jsonl(
      " { \"tasks\" : [ [3, 1] , [2,2] ] , \"m\" : 2 } ");
  EXPECT_EQ(inst.n(), 2u);
  EXPECT_EQ(inst.m(), 2);
  EXPECT_EQ(inst.task(0).p, 3);
}

TEST(Jsonl, ParserRejectsMalformedLinesNamingTheProblem) {
  EXPECT_THROW(instance_from_jsonl("{\"m\":2}"), std::runtime_error);
  EXPECT_THROW(instance_from_jsonl("{\"tasks\":[[1,2]]}"), std::runtime_error);
  EXPECT_THROW(instance_from_jsonl("{\"m\":0,\"tasks\":[[1,2]]}"),
               std::runtime_error);
  EXPECT_THROW(instance_from_jsonl("{\"m\":2,\"tasks\":[[1,2]],\"zap\":1}"),
               std::runtime_error);
  EXPECT_THROW(instance_from_jsonl("{\"m\":2,\"tasks\":[[1,2]]} trailing"),
               std::runtime_error);
  // Out-of-range edge and cycle both fail instance validation.
  EXPECT_THROW(
      instance_from_jsonl("{\"m\":2,\"tasks\":[[1,2],[2,1]],\"edges\":[[0,5]]}"),
      std::runtime_error);
  EXPECT_THROW(instance_from_jsonl(
                   "{\"m\":2,\"tasks\":[[1,2],[2,1]],\"edges\":[[0,1],[1,0]]}"),
               std::runtime_error);
}

TEST(Jsonl, SourceSkipsBlankLinesAndNamesTheMalformedLine) {
  std::istringstream good(
      "{\"m\":2,\"tasks\":[[1,2],[3,4]]}\n"
      "\n"
      "   \n"
      "{\"m\":3,\"tasks\":[[5,6]]}\n");
  JsonlInstanceSource source(good);
  ASSERT_NE(source.next(), nullptr);
  const std::shared_ptr<const Instance> second = source.next();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->m(), 3);
  EXPECT_EQ(source.next(), nullptr);

  std::istringstream bad(
      "{\"m\":2,\"tasks\":[[1,2]]}\n"
      "\n"
      "not json\n");
  JsonlInstanceSource bad_source(bad);
  ASSERT_NE(bad_source.next(), nullptr);
  try {
    bad_source.next();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Jsonl, ParseErrorsCarryTheStreamLineNumber) {
  // The parser itself stamps the caller-supplied 1-based line number, so a
  // bad line deep in a million-line stream is locatable without the source
  // wrapper re-deriving it.
  try {
    instance_from_jsonl("{\"m\":0,\"tasks\":[[1,2]]}", 1048576);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1048576"), std::string::npos)
        << e.what();
  }
  // Instance/Dag validation errors carry it too, not just token errors.
  try {
    instance_from_jsonl(
        "{\"m\":2,\"tasks\":[[1,2],[2,1]],\"edges\":[[0,1],[1,0]]}", 77);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 77"), std::string::npos)
        << e.what();
  }
  // Without a line number the message stays line-free (direct parses).
  try {
    instance_from_jsonl("{\"m\":0,\"tasks\":[[1,2]]}");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
  }
}

TEST(Jsonl, ResultLinesCarryTheCoreFields) {
  const Instance inst = make_instance({3, 2, 1}, {1, 2, 3}, 2);
  const SolveResult r = make_solver("rls:input,delta=3")->solve(inst);
  ASSERT_TRUE(r.feasible);

  const std::string line = result_to_jsonl(5, r);
  EXPECT_NE(line.find("\"index\":5"), std::string::npos);
  EXPECT_NE(line.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(line.find("\"cmax\":"), std::string::npos);
  EXPECT_NE(line.find("\"mmax\":"), std::string::npos);
  EXPECT_NE(line.find("\"delta\":\"3\""), std::string::npos);
  EXPECT_EQ(line.find("\"proc\""), std::string::npos);  // opt-in only

  const std::string with_schedule =
      result_to_jsonl(5, r, {.include_schedule = true});
  EXPECT_NE(with_schedule.find("\"proc\":["), std::string::npos);
  EXPECT_NE(with_schedule.find("\"start\":["), std::string::npos);

  SolveResult infeasible;
  infeasible.diagnostics = "a \"quoted\" cause";
  const std::string bad = result_to_jsonl(0, infeasible);
  EXPECT_NE(bad.find("\"feasible\":false"), std::string::npos);
  EXPECT_EQ(bad.find("\"cmax\""), std::string::npos);
  EXPECT_NE(bad.find("a \\\"quoted\\\" cause"), std::string::npos);
}

TEST(Jsonl, SinkAndSourceComposeIntoAPipeline) {
  // instances -> JSONL text -> JsonlInstanceSource -> solve_stream ->
  // JsonlResultSink -> one line per instance, in order.
  const std::vector<Instance> instances = random_instances(6, 0x10);
  std::ostringstream instance_text;
  for (const Instance& inst : instances) {
    instance_text << instance_to_jsonl(inst) << '\n';
  }
  std::istringstream in(instance_text.str());
  std::ostringstream out;
  JsonlInstanceSource source(in);
  JsonlResultSink sink(out);
  StreamOptions stream;
  stream.threads = 2;
  const StreamStats stats = solve_stream(*make_solver("sbo:lpt,delta=1"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, instances.size());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"index\":" + std::to_string(count)),
              std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, instances.size());
}

// ---------------------------------------------------------------------------
// Failure policies: the {abort, skip, retry} x {source, solve, sink,
// deadline} matrix, driven by failpoints for deterministic faults.
// ---------------------------------------------------------------------------

/// Clears every armed failpoint on scope exit so faults never leak across
/// test cases.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clear_all(); }
};

enum class Fault { kSourceThrow, kSolveThrow, kSinkThrow, kDeadline };

struct CellOutcome {
  StreamStats stats;
  std::vector<StreamError> errors;
  std::map<std::size_t, int> delivered;  // index -> delivery count
  std::string thrown;                    // empty = returned normally
};

/// Runs one cell of the policy matrix: 12 instances through a JSONL
/// source with one injected fault, under the given policy. The fault
/// selectors are chosen so exactly one record is affected: the 5th pull,
/// the 4th solve attempt, or the 4th sink delivery (index 3 -- ordered
/// mode serializes sink calls in index order).
CellOutcome run_policy_cell(FailureAction action, Fault fault) {
  failpoint::clear_all();
  switch (fault) {
    case Fault::kSourceThrow:
      failpoint::set("source.next", "nth(5):throw");
      break;
    case Fault::kSolveThrow:
      failpoint::set("stream.solve", "nth(4):throw");
      break;
    case Fault::kSinkThrow:
      failpoint::set("sink.consume", "nth(4):throw");
      break;
    case Fault::kDeadline:
      break;
  }
  const std::vector<Instance> instances = random_instances(12, 0xfa11);
  std::ostringstream text;
  for (const Instance& inst : instances) {
    text << instance_to_jsonl(inst) << '\n';
  }
  std::istringstream in(text.str());
  JsonlInstanceSource source(in);

  CellOutcome cell;
  CallbackSink sink(
      [&](std::size_t index, SolveResult) { ++cell.delivered[index]; });
  VectorErrorSink errors(cell.errors);
  SolveOptions options;
  if (fault == Fault::kDeadline) options.deadline = std::chrono::nanoseconds(0);
  StreamOptions stream;
  stream.threads = 4;
  stream.window = 3;
  stream.on_error.action = action;
  stream.errors = &errors;
  try {
    cell.stats = solve_stream(*make_solver("rls:input,delta=3"), source, sink,
                              options, stream);
  } catch (const std::exception& e) {
    cell.thrown = e.what();
  }
  failpoint::clear_all();
  return cell;
}

/// Every delivery is exactly-once, and no failed index was also delivered.
void expect_exact_accounting(const CellOutcome& cell, const char* label) {
  for (const auto& [index, count] : cell.delivered) {
    EXPECT_EQ(count, 1) << label << ": index " << index
                        << " delivered more than once";
  }
  for (const StreamError& error : cell.errors) {
    EXPECT_EQ(cell.delivered.count(error.index), 0u)
        << label << ": index " << error.index << " both failed and delivered";
  }
}

TEST(StreamPolicyMatrix, AbortRethrowsForEveryFaultStage) {
  FailpointGuard guard;
  for (const Fault fault :
       {Fault::kSourceThrow, Fault::kSolveThrow, Fault::kSinkThrow}) {
    const CellOutcome cell = run_policy_cell(FailureAction::kAbort, fault);
    ASSERT_FALSE(cell.thrown.empty()) << "fault " << static_cast<int>(fault);
    EXPECT_NE(cell.thrown.find("instance "), std::string::npos) << cell.thrown;
    expect_exact_accounting(cell, "abort");
    EXPECT_TRUE(cell.errors.empty());  // abort never records, it rethrows
  }
  // The 5th pull fails before consuming input: the abort names record 4.
  const CellOutcome source_cell =
      run_policy_cell(FailureAction::kAbort, Fault::kSourceThrow);
  EXPECT_NE(source_cell.thrown.find("instance 4"), std::string::npos)
      << source_cell.thrown;
  // Ordered delivery serializes sink calls: the 4th consume is index 3.
  const CellOutcome sink_cell =
      run_policy_cell(FailureAction::kAbort, Fault::kSinkThrow);
  EXPECT_NE(sink_cell.thrown.find("instance 3"), std::string::npos)
      << sink_cell.thrown;
}

TEST(StreamPolicyMatrix, SkipRecordsTheFaultAndKeepsStreaming) {
  FailpointGuard guard;
  struct Expected {
    Fault fault;
    std::size_t delivered;
    StreamErrorCategory category;
  };
  const Expected table[] = {
      // A failed pull consumes no instance: all 12 still stream through.
      {Fault::kSourceThrow, 12, StreamErrorCategory::kSource},
      {Fault::kSolveThrow, 11, StreamErrorCategory::kSolve},
      {Fault::kSinkThrow, 11, StreamErrorCategory::kSink},
  };
  for (const Expected& want : table) {
    const CellOutcome cell = run_policy_cell(FailureAction::kSkip, want.fault);
    const std::string label = "skip fault " + std::to_string(static_cast<int>(want.fault));
    ASSERT_TRUE(cell.thrown.empty()) << label << ": " << cell.thrown;
    EXPECT_EQ(cell.stats.delivered, want.delivered) << label;
    EXPECT_EQ(cell.stats.failed, 1u) << label;
    EXPECT_EQ(cell.stats.retries, 0u) << label;
    ASSERT_EQ(cell.errors.size(), 1u) << label;
    EXPECT_EQ(cell.errors[0].category, want.category) << label;
    EXPECT_EQ(cell.errors[0].attempts, 1) << label;
    expect_exact_accounting(cell, label.c_str());
  }
}

TEST(StreamPolicyMatrix, RetryRecoversTransientSolveAndSinkFaults) {
  FailpointGuard guard;
  for (const Fault fault : {Fault::kSolveThrow, Fault::kSinkThrow}) {
    const CellOutcome cell = run_policy_cell(FailureAction::kRetry, fault);
    const std::string label = "retry fault " + std::to_string(static_cast<int>(fault));
    ASSERT_TRUE(cell.thrown.empty()) << label << ": " << cell.thrown;
    EXPECT_EQ(cell.stats.delivered, 12u) << label;
    EXPECT_EQ(cell.stats.failed, 0u) << label;
    EXPECT_EQ(cell.stats.retries, 1u) << label;
    EXPECT_EQ(cell.stats.recovered, 1u) << label;
    EXPECT_TRUE(cell.errors.empty()) << label;
    expect_exact_accounting(cell, label.c_str());
  }
}

TEST(StreamPolicyMatrix, RetryNeverRetriesSourceFaults) {
  // A source cannot re-produce bytes it already consumed; retry degrades
  // to skip-with-record, exactly like the skip policy.
  FailpointGuard guard;
  const CellOutcome cell =
      run_policy_cell(FailureAction::kRetry, Fault::kSourceThrow);
  ASSERT_TRUE(cell.thrown.empty()) << cell.thrown;
  EXPECT_EQ(cell.stats.delivered, 12u);
  EXPECT_EQ(cell.stats.failed, 1u);
  EXPECT_EQ(cell.stats.retries, 0u);
  ASSERT_EQ(cell.errors.size(), 1u);
  EXPECT_EQ(cell.errors[0].index, 4u);
  EXPECT_EQ(cell.errors[0].category, StreamErrorCategory::kSource);
  EXPECT_EQ(cell.errors[0].attempts, 1);
  expect_exact_accounting(cell, "retry/source");
}

TEST(StreamPolicyMatrix, DeadlineIsDeliveredInfeasibleNotFailed) {
  // An expired deadline is an answer (infeasible with diagnostics), not a
  // fault: no policy may route it to the error channel.
  FailpointGuard guard;
  for (const FailureAction action :
       {FailureAction::kAbort, FailureAction::kSkip, FailureAction::kRetry}) {
    const CellOutcome cell = run_policy_cell(action, Fault::kDeadline);
    const std::string label = "policy " + std::to_string(static_cast<int>(action));
    ASSERT_TRUE(cell.thrown.empty()) << label << ": " << cell.thrown;
    EXPECT_EQ(cell.stats.delivered, 12u) << label;
    EXPECT_EQ(cell.stats.failed, 0u) << label;
    EXPECT_EQ(cell.stats.feasible, 0u) << label;
    EXPECT_EQ(cell.stats.retries, 0u) << label;
    EXPECT_TRUE(cell.errors.empty()) << label;
  }
}

TEST(StreamRetry, ExhaustedAttemptsDegradeToSkipWithTheAttemptCount) {
  FailpointGuard guard;
  failpoint::set("stream.solve", "throw(persistent fault)");
  const std::vector<Instance> instances = random_instances(3, 0xeau);
  SpanSource source(instances);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) { ++delivered; });
  std::vector<StreamError> errors;
  VectorErrorSink error_sink(errors);
  StreamOptions stream;
  stream.threads = 2;
  stream.on_error.action = FailureAction::kRetry;
  stream.on_error.retry.max_attempts = 2;
  stream.on_error.retry.base_backoff = std::chrono::microseconds(10);
  stream.errors = &error_sink;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.retries, 3u);  // one re-attempt per record
  EXPECT_EQ(stats.recovered, 0u);
  ASSERT_EQ(errors.size(), 3u);
  for (const StreamError& error : errors) {
    EXPECT_EQ(error.attempts, 2);
    EXPECT_EQ(error.category, StreamErrorCategory::kSolve);
    EXPECT_NE(error.what.find("persistent fault"), std::string::npos);
  }
}

TEST(StreamRetry, DeterministicFaultsAreNotRetried) {
  // An SBO batch hitting a DAG instance throws std::logic_error -- the
  // default classifier refuses to retry what will fail identically.
  std::vector<Instance> instances = random_instances(5, 0x10b1);
  instances[2] = small_dag_instance();
  SpanSource source(instances);
  std::map<std::size_t, int> delivered;
  CallbackSink sink([&](std::size_t index, SolveResult) { ++delivered[index]; });
  std::vector<StreamError> errors;
  VectorErrorSink error_sink(errors);
  StreamOptions stream;
  stream.threads = 2;
  stream.on_error.action = FailureAction::kRetry;
  stream.errors = &error_sink;
  const StreamStats stats = solve_stream(*make_solver("sbo:lpt,delta=1"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].index, 2u);
  EXPECT_EQ(errors[0].attempts, 1);
  EXPECT_EQ(delivered.count(2), 0u);
}

TEST(StreamRetry, DeadOutputStreamsFailFastUnderRetry) {
  // StreamWriteError is never retryable: a full disk or closed pipe fails
  // identically every attempt, so each record fails once and moves on.
  const std::vector<Instance> instances = random_instances(3, 0xdead);
  SpanSource source(instances);
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  JsonlResultSink sink(out);
  std::vector<StreamError> errors;
  VectorErrorSink error_sink(errors);
  StreamOptions stream;
  stream.threads = 2;
  stream.on_error.action = FailureAction::kRetry;
  stream.errors = &error_sink;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.retries, 0u);
  ASSERT_EQ(errors.size(), 3u);
  for (const StreamError& error : errors) {
    EXPECT_EQ(error.attempts, 1);
    EXPECT_EQ(error.category, StreamErrorCategory::kSink);
  }
}

TEST(StreamRetry, CustomClassifierOverridesTheDefault) {
  // InjectedFault is retryable by default; a caller-supplied classifier
  // that refuses everything turns retry into skip.
  FailpointGuard guard;
  failpoint::set("stream.solve", "nth(1):throw");
  const std::vector<Instance> instances = random_instances(3, 0xc1a);
  SpanSource source(instances);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) { ++delivered; });
  StreamOptions stream;
  stream.threads = 1;
  stream.on_error.action = FailureAction::kRetry;
  stream.on_error.retry.retryable = [](const std::exception_ptr&) {
    return false;
  };
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(StreamErrors, ParseFailuresCarryTheInputLineIntoTheRecord) {
  std::istringstream in(
      "{\"m\":2,\"tasks\":[[1,2],[3,4]]}\n"
      "{\"m\":2,\"tasks\":[[2,2]]}\n"
      "{\"bad json\n"
      "{\"m\":3,\"tasks\":[[5,6]]}\n");
  JsonlInstanceSource source(in);
  std::map<std::size_t, int> delivered;
  CallbackSink sink([&](std::size_t index, SolveResult) { ++delivered[index]; });
  std::vector<StreamError> errors;
  VectorErrorSink error_sink(errors);
  StreamOptions stream;
  stream.threads = 1;
  stream.on_error.action = FailureAction::kSkip;
  stream.errors = &error_sink;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.source_lines, 4u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].index, 2u);  // the record slot the bad line occupied
  EXPECT_EQ(errors[0].line, 3u);   // the physical line it sat on
  EXPECT_EQ(errors[0].category, StreamErrorCategory::kSource);
  EXPECT_NE(errors[0].what.find("line 3"), std::string::npos);
  // The surviving records kept their slots: 0, 1, 3.
  EXPECT_EQ(delivered.count(2), 0u);
  EXPECT_EQ(delivered.count(3), 1u);
}

TEST(StreamErrors, ThrowingErrorSinkAbortsRegardlessOfPolicy) {
  // Losing the error channel means the run's accounting can no longer be
  // trusted: skip must NOT keep going past a failed error write.
  class BrokenErrorSink final : public ErrorSink {
   public:
    void consume(StreamError) override {
      throw std::runtime_error("error channel down");
    }
  };
  std::istringstream in(
      "{\"m\":2,\"tasks\":[[1,2]]}\n"
      "not json\n"
      "{\"m\":2,\"tasks\":[[2,1]]}\n");
  JsonlInstanceSource source(in);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) { ++delivered; });
  BrokenErrorSink errors;
  StreamOptions stream;
  stream.threads = 1;
  stream.on_error.action = FailureAction::kSkip;
  stream.errors = &errors;
  try {
    solve_stream(*make_solver("rls:input,delta=3"), source, sink, {}, stream);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("error channel down"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Cancellation reasons and degraded spawn.
// ---------------------------------------------------------------------------

TEST(StreamCancel, FirstReasonWinsOnTheToken) {
  CancelToken token;
  token.request_cancel("drain for deploy");
  token.request_cancel("second caller");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "drain for deploy");
}

TEST(StreamCancel, ReasonSurfacesInStreamStats) {
  auto token = std::make_shared<CancelToken>();
  std::size_t pulled = 0;
  GeneratorSource source(
      [&]() -> std::optional<Instance> {
        if (pulled >= 200) return std::nullopt;
        ++pulled;
        return make_instance({2, 1, 3}, {1, 3, 2}, 2);
      },
      200);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) {
    if (++delivered == 5) token->request_cancel("operator drain");
  });
  StreamOptions stream;
  stream.threads = 2;
  stream.window = 4;
  stream.cancel = token;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.cancel_reason, "operator drain");
}

TEST(StreamCrewSpawn, SpawnFailureBeforeAnyWorkerRethrows) {
  // The very first spawn fails: no worker ever ran, so no work could have
  // completed and degrading silently would discard the whole run.
  FailpointGuard guard;
  failpoint::set("crew.spawn", "nth(1):throw");
  const std::vector<Instance> instances = random_instances(8, 0x5b);
  SpanSource source(instances);
  std::vector<SolveResult> results(instances.size());
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = 4;
  EXPECT_THROW(solve_stream(*make_solver("rls:input,delta=3"), source, sink,
                            {}, stream),
               InjectedFault);
}

TEST(StreamCrewSpawn, LateSpawnFailureDegradesWhenTheStreamStillFinishes) {
  // Worker 1 spawns, observes the pre-cancelled token, and finishes the
  // (empty) stream; the second spawn then fails. Nothing was lost, so the
  // run degrades gracefully instead of throwing a completed run away.
  FailpointGuard guard;
  failpoint::set("crew.spawn", "nth(2):throw");
  auto token = std::make_shared<CancelToken>();
  token->request_cancel("pre-drained");
  const std::vector<Instance> instances = random_instances(8, 0x5c);
  SpanSource source(instances);
  std::vector<SolveResult> results(instances.size());
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = 4;
  stream.cancel = token;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_TRUE(stats.degraded_spawn);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.cancel_reason, "pre-drained");
  EXPECT_EQ(stats.delivered, 0u);
}

// ---------------------------------------------------------------------------
// Progress contract and start_index (the journal's foundations).
// ---------------------------------------------------------------------------

TEST(StreamProgressContract, ReportsEveryRetirementContiguously) {
  std::istringstream in(
      "{\"m\":2,\"tasks\":[[1,2],[3,4]]}\n"
      "{\"m\":2,\"tasks\":[[2,2]]}\n"
      "zap\n"
      "{\"m\":2,\"tasks\":[[1,1]]}\n"
      "{\"m\":3,\"tasks\":[[5,6]]}\n"
      "{\"m\":2,\"tasks\":[[4,4]]}\n"
      "{\"m\":2,\"tasks\":[[2,3]]}\n");
  JsonlInstanceSource source(in);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) { ++delivered; });
  std::vector<StreamProgress> snapshots;
  StreamOptions stream;
  stream.threads = 2;
  stream.window = 3;
  stream.on_error.action = FailureAction::kSkip;
  stream.progress = [&](const StreamProgress& p) { snapshots.push_back(p); };
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 6u);
  EXPECT_EQ(stats.failed, 1u);
  // One snapshot per retired record, completed counting 1..7 with no gaps,
  // and source_lines never moving backwards -- the exact contract the
  // resume journal checkpoints against.
  ASSERT_EQ(snapshots.size(), 7u);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].completed, i + 1);
    EXPECT_EQ(snapshots[i].delivered + snapshots[i].failed, i + 1);
    if (i > 0) {
      EXPECT_GE(snapshots[i].source_lines, snapshots[i - 1].source_lines);
    }
  }
  EXPECT_EQ(snapshots.back().source_lines, 7u);
  EXPECT_EQ(snapshots.back().failed, 1u);
}

TEST(StreamProgressContract, ThrowingProgressCallbackAbortsTheRun) {
  const std::vector<Instance> instances = random_instances(6, 0x9c);
  SpanSource source(instances);
  std::size_t delivered = 0;
  CallbackSink sink([&](std::size_t, SolveResult) { ++delivered; });
  StreamOptions stream;
  stream.threads = 1;
  stream.progress = [](const StreamProgress& p) {
    if (p.completed == 3) throw std::runtime_error("checkpoint failed");
  };
  EXPECT_THROW(solve_stream(*make_solver("rls:input,delta=3"), source, sink,
                            {}, stream),
               std::runtime_error);
}

TEST(StreamStartIndex, OffsetsEveryRecordIndex) {
  const std::vector<Instance> instances = random_instances(3, 0x51);
  SpanSource source(instances);
  std::vector<std::size_t> indices;
  CallbackSink sink(
      [&](std::size_t index, SolveResult) { indices.push_back(index); });
  StreamOptions stream;
  stream.threads = 1;
  stream.start_index = 100;
  const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                         source, sink, {}, stream);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(indices, (std::vector<std::size_t>{100, 101, 102}));
}

// ---------------------------------------------------------------------------
// The split contract: claims cut raw lines, workers parse/solve/encode, one
// writer appends runs. JsonlInstanceSource and JsonlResultSink opt in.
// ---------------------------------------------------------------------------

std::string jsonl_text(const std::vector<Instance>& instances) {
  std::string text;
  for (const Instance& inst : instances) text += instance_to_jsonl(inst) + "\n";
  return text;
}

/// Runs `text` through a JSONL source and sink; returns the result bytes.
std::string solve_jsonl(const std::string& text, int threads, bool ordered,
                        const char* spec = "rls:input,delta=3") {
  std::istringstream in(text);
  std::ostringstream out;
  JsonlInstanceSource source(in);
  JsonlResultSink sink(out);
  StreamOptions stream;
  stream.threads = threads;
  stream.ordered = ordered;
  solve_stream(*make_solver(spec), source, sink, {}, stream);
  return out.str();
}

/// Result lines sorted by their "index" (as-completed output, normalized).
std::string sorted_by_index(const std::string& text) {
  std::vector<std::pair<std::size_t, std::string>> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find("\"index\":") + 8;
    lines.emplace_back(std::stoul(line.substr(at)), line);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [index, l] : lines) out += l + "\n";
  return out;
}

TEST(StreamSplit, JsonlOutputIsByteIdenticalAtEveryThreadCount) {
  const std::string text = jsonl_text(random_instances(300, 0x5b1));
  const std::string reference = solve_jsonl(text, 1, true);
  ASSERT_EQ(std::count(reference.begin(), reference.end(), '\n'), 300);
  for (const int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(solve_jsonl(text, threads, true), reference)
        << "ordered, threads=" << threads;
    EXPECT_EQ(sorted_by_index(solve_jsonl(text, threads, false)), reference)
        << "as-completed, threads=" << threads;
  }
}

/// A stream buffer that hands out its text `chunk` bytes per underflow, the
/// way a pipe delivers short reads.
class ChunkedBuf final : public std::streambuf {
 public:
  ChunkedBuf(std::string text, std::size_t chunk)
      : text_(std::move(text)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const std::size_t n = std::min(chunk_, text_.size() - pos_);
    char* at = text_.data() + pos_;
    setg(at, at, at + n);
    pos_ += n;
    return traits_type::to_int_type(*at);
  }

 private:
  std::string text_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

TEST(JsonlSource, CutsTheSameRecordsAsALineReaderAcrossRefills) {
  // CRLF endings, blank and whitespace-only lines, a line longer than the
  // source's 64 KiB read buffer, and a last line without "\n".
  Rng rng(0x11e5);
  GenParams huge;
  huge.n = 12000;
  huge.m = 8;
  const std::vector<Instance> small = random_instances(40, 0xc4f);
  std::string text;
  for (std::size_t i = 0; i < small.size(); ++i) {
    text += instance_to_jsonl(small[i]);
    text += i % 3 == 0 ? "\r\n" : "\n";
    if (i % 7 == 2) text += "\n";
    if (i % 9 == 4) text += "  \t \r\n";
    if (i == 20) text += instance_to_jsonl(generate_uniform(huge, rng)) + "\n";
  }
  text += instance_to_jsonl(small.front());  // unterminated last line
  ASSERT_GT(text.size(), std::size_t{64} << 10);

  // The historical reader: std::getline, skip lines of " \t\r".
  std::vector<std::pair<std::string, std::size_t>> expected;
  {
    std::istringstream in(text);
    std::string line;
    std::size_t number = 0;
    while (std::getline(in, line)) {
      ++number;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      expected.emplace_back(line, number);
    }
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, text.size()}) {
    ChunkedBuf buf(text, chunk);
    std::istream in(&buf);
    JsonlInstanceSource source(in);
    RecordBatch batch;
    std::vector<std::pair<std::string, std::size_t>> got;
    for (;;) {
      batch.clear();
      source.claim(5, batch);
      if (batch.records.empty()) break;
      for (std::size_t i = 0; i < batch.records.size(); ++i) {
        got.emplace_back(std::string(batch.view(i)), batch.records[i].line);
      }
    }
    EXPECT_EQ(got, expected) << "chunk " << chunk;
    // Trailing blank lines count too: the position ends at the last line.
    EXPECT_EQ(source.position(), expected.back().second) << "chunk " << chunk;
  }

  // And the whole pipeline over the short reads matches the plain run.
  const std::string reference = solve_jsonl(text, 1, true, "graham:lpt");
  ChunkedBuf buf(text, 7);
  std::istream in(&buf);
  std::ostringstream out;
  JsonlInstanceSource source(in);
  JsonlResultSink sink(out);
  StreamOptions stream;
  stream.threads = 4;
  solve_stream(*make_solver("graham:lpt"), source, sink, {}, stream);
  EXPECT_EQ(out.str(), reference);
  EXPECT_EQ(std::count(reference.begin(), reference.end(), '\n'),
            static_cast<std::ptrdiff_t>(expected.size()));
}

TEST(StreamSplit, MalformedLineKeepsItsErrorTextAndLineUnderEveryPolicy) {
  // 30 records with a blank line at line 5, so the bad record at physical
  // line 24 is record index 22.
  const std::vector<Instance> instances = random_instances(30, 0xba0);
  const std::string bad = "{\"m\":2,\"tasks\":[[1,2]],\"zap\":1}";
  std::string text;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i == 4) text += "\n";
    text += (i == 22 ? bad : instance_to_jsonl(instances[i])) + "\n";
  }
  std::string parser_what;
  try {
    instance_from_jsonl(bad, 24);
  } catch (const std::runtime_error& e) {
    parser_what = e.what();
  }
  ASSERT_FALSE(parser_what.empty());
  const auto solver = make_solver("rls:input,delta=3");

  for (const int threads : {1, 4}) {
    // Abort: today's text, naming the record and the physical line.
    {
      std::istringstream in(text);
      std::ostringstream out;
      JsonlInstanceSource source(in);
      JsonlResultSink sink(out);
      StreamOptions stream;
      stream.threads = threads;
      try {
        solve_stream(*solver, source, sink, {}, stream);
        FAIL() << "expected std::runtime_error";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "solve_stream: instance 22: " + parser_what);
      }
      // One worker delivers every record before the bad one first, as a
      // pull of one record at a time did.
      if (threads == 1) {
        const std::string written = out.str();
        EXPECT_EQ(std::count(written.begin(), written.end(), '\n'), 22);
      }
    }
    // Skip and retry: one source record, never retried; the rest stream.
    for (const FailureAction action :
         {FailureAction::kSkip, FailureAction::kRetry}) {
      std::istringstream in(text);
      std::ostringstream out;
      JsonlInstanceSource source(in);
      JsonlResultSink sink(out);
      std::vector<StreamError> errors;
      VectorErrorSink error_sink(errors);
      StreamOptions stream;
      stream.threads = threads;
      stream.on_error.action = action;
      stream.errors = &error_sink;
      const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
      EXPECT_EQ(stats.delivered, 29u);
      EXPECT_EQ(stats.failed, 1u);
      EXPECT_EQ(stats.pulled, 29u);
      EXPECT_EQ(stats.retries, 0u);
      EXPECT_EQ(stats.source_lines, 31u);
      ASSERT_EQ(errors.size(), 1u);
      EXPECT_EQ(stream_error_to_jsonl(errors[0]),
                stream_error_to_jsonl(StreamError{
                    22, 24, StreamErrorCategory::kSource, 1, parser_what}));
      const std::string written = out.str();
      EXPECT_EQ(std::count(written.begin(), written.end(), '\n'), 29);
      EXPECT_EQ(written.find("{\"index\":22,"), std::string::npos);
    }
  }
}

TEST(StreamSplit, ProgressFiresOnlyAfterTheBytesItCountsAreWritten) {
  // The journal flushes and checkpoints from this callback: every result
  // it counts must already be in the stream (flush before checkpoint).
  const std::string text = jsonl_text(random_instances(400, 0xf1u));
  for (const int threads : {1, 4}) {
    std::istringstream in(text);
    std::ostringstream out;
    JsonlInstanceSource source(in);
    JsonlResultSink sink(out);
    StreamOptions stream;
    stream.threads = threads;
    std::size_t calls = 0;
    stream.progress = [&](const StreamProgress& p) {
      ++calls;
      const std::string written = out.str();
      EXPECT_GE(static_cast<std::size_t>(
                    std::count(written.begin(), written.end(), '\n')),
                p.delivered)
          << "completed " << p.completed;
      EXPECT_EQ(p.source_lines, p.completed);  // one record per line
    };
    const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                           source, sink, {}, stream);
    EXPECT_EQ(stats.delivered, 400u);
    EXPECT_EQ(calls, 400u) << "threads=" << threads;
  }
}

TEST(StreamSplit, SourceAndSinkFailpointsStillFireOncePerRecord) {
  // nth(K) keeps selecting the K-th record: claims hit source.next once per
  // record (and once at the end), the writer hits sink.consume once per
  // delivered record, in index order.
  FailpointGuard guard;
  const std::string text = jsonl_text(random_instances(40, 0x0ce));
  for (const int threads : {1, 4}) {
    failpoint::set("source.next", "nth(7):throw");
    failpoint::set("sink.consume", "nth(11):throw");
    std::istringstream in(text);
    std::ostringstream out;
    JsonlInstanceSource source(in);
    JsonlResultSink sink(out);
    std::vector<StreamError> errors;
    VectorErrorSink error_sink(errors);
    StreamOptions stream;
    stream.threads = threads;
    stream.on_error.action = FailureAction::kSkip;
    stream.errors = &error_sink;
    const StreamStats stats = solve_stream(*make_solver("rls:input,delta=3"),
                                           source, sink, {}, stream);
    // The 7th pull consumed no line: index 6 is the fault, the 40 records
    // take indices 0-5 and 7-40. The 11th delivery is index 11.
    ASSERT_EQ(errors.size(), 2u) << "threads=" << threads;
    EXPECT_EQ(errors[0].index, 6u);
    EXPECT_EQ(errors[0].line, 6u);
    EXPECT_EQ(errors[0].category, StreamErrorCategory::kSource);
    EXPECT_EQ(errors[1].index, 11u);
    EXPECT_EQ(errors[1].category, StreamErrorCategory::kSink);
    EXPECT_EQ(stats.delivered, 39u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(failpoint::hits("source.next"), 42u);  // 40 + fault + end
    EXPECT_EQ(failpoint::hits("sink.consume"), 40u);
    failpoint::clear_all();
  }
}

/// Reads a pipe's read end, one read(2) per underflow.
class FdBuf final : public std::streambuf {
 public:
  explicit FdBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, buffer_, sizeof buffer_);
    if (n <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + n);
    return traits_type::to_int_type(buffer_[0]);
  }

 private:
  int fd_;
  char buffer_[4096];
};

/// An encoding sink that counts written lines and wakes a waiter.
class CountingSink final : public EncodingSink {
 public:
  explicit CountingSink(std::function<void()> on_line)
      : on_line_(std::move(on_line)) {}
  void encode(std::size_t index, const SolveResult& result,
              std::string& out) const override {
    out += result_to_jsonl(index, result) + "\n";
  }
  void write(std::string_view bytes) override {
    for (const char c : bytes) {
      if (c == '\n') on_line_();
    }
  }

 private:
  std::function<void()> on_line_;
};

TEST(StreamSplit, PipeWriterWaitingForEachResultNeverDeadlocks) {
  // The writer sends line k+1 only after result k arrived. A puller that
  // waits for input while holding the lock delivery needs would hang here
  // (solves of 2000 tasks leave the other worker time to start pulling);
  // the feeder gives up after a generous timeout so a regression fails
  // instead of hanging.
  Rng rng(0x91e);
  GenParams gp;
  gp.n = 2000;
  gp.m = 4;
  std::vector<Instance> instances;
  for (int i = 0; i < 16; ++i) instances.push_back(generate_uniform(gp, rng));
  for (const bool splitting_sink : {false, true}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t results = 0;
    bool timed_out = false;
    const auto on_result = [&] {
      const std::lock_guard<std::mutex> lock(mu);
      ++results;
      cv.notify_all();
    };
    std::thread feeder([&] {
      for (std::size_t k = 0; k < instances.size(); ++k) {
        if (k > 0) {
          std::unique_lock<std::mutex> lock(mu);
          if (!cv.wait_for(lock, std::chrono::seconds(20),
                           [&] { return results >= k; })) {
            timed_out = true;
            break;
          }
        }
        const std::string line = instance_to_jsonl(instances[k]) + "\n";
        ASSERT_EQ(::write(fds[1], line.data(), line.size()),
                  static_cast<ssize_t>(line.size()));
      }
      ::close(fds[1]);
    });
    FdBuf buf(fds[0]);
    std::istream in(&buf);
    JsonlInstanceSource source(in);
    CallbackSink callback([&](std::size_t, SolveResult) { on_result(); });
    CountingSink counting(on_result);
    StreamOptions stream;
    stream.threads = 2;
    const StreamStats stats =
        solve_stream(*make_solver("rls:input,delta=3"), source,
                     splitting_sink ? static_cast<ResultSink&>(counting)
                                    : static_cast<ResultSink&>(callback),
                     {}, stream);
    feeder.join();
    ::close(fds[0]);
    EXPECT_FALSE(timed_out) << "splitting sink: " << splitting_sink;
    EXPECT_EQ(stats.delivered, instances.size());
  }
}

// ---------------------------------------------------------------------------
// Crash-safe resume (core/journal.hpp).
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A scratch directory under gtest's temp root, wiped per call.
fs::path journal_scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "storesched_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// 16 instances plus one malformed line at physical line 12.
void write_journal_input(const fs::path& path) {
  const std::vector<Instance> instances = random_instances(16, 0x70a1);
  std::ofstream out(path);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i == 11) out << "{\"malformed\n";
    out << instance_to_jsonl(instances[i]) << '\n';
  }
}

JournaledRunOptions journal_run(const fs::path& dir, const char* prefix) {
  JournaledRunOptions run;
  run.input_path = (dir / "in.jsonl").string();
  run.output_path = (dir / (std::string(prefix) + ".out")).string();
  run.errors_path = (dir / (std::string(prefix) + ".err")).string();
  run.journal_path = (dir / (std::string(prefix) + ".journal")).string();
  run.journal_every = 1;
  return run;
}

StreamOptions skip_policy_stream() {
  StreamOptions stream;
  stream.threads = 2;
  stream.window = 3;
  stream.on_error.action = FailureAction::kSkip;
  return stream;
}

TEST(StreamJournalRun, MatchesAnUnjournaledRunByteForByte) {
  const fs::path dir = journal_scratch("plain");
  write_journal_input(dir / "in.jsonl");
  const auto solver = make_solver("rls:input,delta=3");

  const JournaledRunOptions run = journal_run(dir, "journaled");
  const StreamStats stats =
      run_journaled_jsonl(*solver, run, {}, skip_policy_stream());
  EXPECT_EQ(stats.delivered, 16u);
  EXPECT_EQ(stats.failed, 1u);

  // The same stream driven by hand, without the journal.
  std::ifstream in(dir / "in.jsonl");
  std::ostringstream out, err;
  JsonlInstanceSource source(in);
  JsonlResultSink sink(out);
  JsonlErrorSink errors(err);
  StreamOptions stream = skip_policy_stream();
  stream.errors = &errors;
  solve_stream(*solver, source, sink, {}, stream);

  EXPECT_EQ(slurp(run.output_path), out.str());
  EXPECT_EQ(slurp(run.errors_path), err.str());

  // The journal's final checkpoint matches the files it describes.
  const auto cp = StreamJournal::load(run.journal_path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->completed, 17u);
  EXPECT_EQ(cp->source_lines, 17u);
  EXPECT_EQ(cp->out_lines, 16u);
  EXPECT_EQ(cp->err_lines, 1u);
}

TEST(StreamJournalRun, KillAndResumeIsByteIdenticalToAnUninterruptedRun) {
  FailpointGuard guard;
  const fs::path dir = journal_scratch("resume");
  write_journal_input(dir / "in.jsonl");
  const auto solver = make_solver("rls:input,delta=3");

  // Reference: one clean, uninterrupted journaled run.
  const JournaledRunOptions reference = journal_run(dir, "ref");
  run_journaled_jsonl(*solver, reference, {}, skip_policy_stream());

  // "Crash" partway: the 7th solve attempt faults under the abort policy,
  // killing the run mid-stream with a handful of records checkpointed.
  const JournaledRunOptions crashed = journal_run(dir, "res");
  failpoint::set("stream.solve", "nth(7):throw");
  StreamOptions abort_policy;  // the default action: first fault kills the run
  abort_policy.threads = 2;
  abort_policy.window = 3;
  EXPECT_THROW(run_journaled_jsonl(*solver, crashed, {}, abort_policy),
               std::runtime_error);
  failpoint::clear_all();

  // The crash left real progress behind -- resuming must not start over.
  const auto mid = StreamJournal::load(crashed.journal_path);
  ASSERT_TRUE(mid.has_value());
  EXPECT_GT(mid->completed, 0u);
  EXPECT_LT(mid->completed, 17u);

  // A torn tail (killed mid-append) plus stray garbage must both be
  // ignored by the loader.
  {
    std::ofstream tail(crashed.journal_path, std::ios::app);
    tail << "v1 999 999";  // no newline: torn
  }
  const auto after_tear = StreamJournal::load(crashed.journal_path);
  ASSERT_TRUE(after_tear.has_value());
  EXPECT_EQ(after_tear->completed, mid->completed);

  // Resume and finish the stream.
  JournaledRunOptions resumed = crashed;
  resumed.resume = true;
  const StreamStats stats =
      run_journaled_jsonl(*solver, resumed, {}, skip_policy_stream());
  EXPECT_EQ(stats.delivered + stats.failed, 17u - mid->completed);

  EXPECT_EQ(slurp(resumed.output_path), slurp(reference.output_path));
  EXPECT_EQ(slurp(resumed.errors_path), slurp(reference.errors_path));
}

TEST(StreamJournalRun, ResumeWithNoJournalStartsFresh) {
  // The first run of a supervised restart loop always passes --resume; a
  // missing journal must mean "start from the beginning", not an error.
  const fs::path dir = journal_scratch("fresh");
  write_journal_input(dir / "in.jsonl");
  const auto solver = make_solver("rls:input,delta=3");

  const JournaledRunOptions reference = journal_run(dir, "ref");
  run_journaled_jsonl(*solver, reference, {}, skip_policy_stream());

  JournaledRunOptions run = journal_run(dir, "first");
  run.resume = true;
  const StreamStats stats =
      run_journaled_jsonl(*solver, run, {}, skip_policy_stream());
  EXPECT_EQ(stats.delivered, 16u);
  EXPECT_EQ(slurp(run.output_path), slurp(reference.output_path));
}

TEST(StreamJournalRun, RejectsUnjournalableConfigurations) {
  const fs::path dir = journal_scratch("reject");
  write_journal_input(dir / "in.jsonl");
  const auto solver = make_solver("rls:input,delta=3");
  JournaledRunOptions run = journal_run(dir, "bad");

  StreamOptions unordered = skip_policy_stream();
  unordered.ordered = false;
  EXPECT_THROW(run_journaled_jsonl(*solver, run, {}, unordered),
               std::invalid_argument);

  run.journal_every = 0;
  EXPECT_THROW(run_journaled_jsonl(*solver, run, {}, skip_policy_stream()),
               std::invalid_argument);
}

TEST(StreamJournalFiles, TruncateToLinesKeepsExactlyThePrefix) {
  const fs::path dir = journal_scratch("truncate");
  const fs::path file = dir / "data.txt";
  {
    std::ofstream out(file);
    out << "a\nb\nc\nd\n";
  }
  truncate_to_lines(file.string(), 2);
  EXPECT_EQ(slurp(file), "a\nb\n");

  // Fewer lines than the journal claims: refuse, never silently lose data.
  EXPECT_THROW(truncate_to_lines(file.string(), 5), std::runtime_error);

  truncate_to_lines(file.string(), 0);
  EXPECT_EQ(slurp(file), "");

  // A missing file counts as zero lines -- and only zero.
  const fs::path missing = dir / "missing.txt";
  truncate_to_lines(missing.string(), 0);
  EXPECT_TRUE(fs::exists(missing));
  EXPECT_THROW(truncate_to_lines((dir / "gone.txt").string(), 3),
               std::runtime_error);
}

}  // namespace
}  // namespace storesched
