// The CLI slices of the differential harness: one seeded corpus pushed
// through every library path a storesched_cli solve mode takes must give
// the reference's result lines byte for byte. The reference is
// solve_batch + result_to_jsonl with schedules; the paths are
//
//   * solve_stream over JsonlInstanceSource / JsonlResultSink -- the pipe
//     and --input -- at 1 and 4 threads, ordered and as-completed;
//   * ShmInstanceSource over a published store (--store);
//   * a private SolveCache, cold then warm (--cache);
//   * the store's shared cache, cold then warm (--store --cache).
//
// The serve slice is ServeServerTest.InlineRefAndWarmCacheAnswersMatchSolveBatch
// in test_serve.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/dag_generators.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/solver.hpp"
#include "core/stream.hpp"
#include "storage/result_cache.hpp"
#include "storage/shm_store.hpp"
#include "storage/wire_format.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

constexpr JsonlResultOptions kWithSchedule{.include_schedule = true};

const char* const kSpecs[] = {"graham:lpt", "sbo:lpt,delta=1",
                              "rls:bottom,delta=3", "pareto:exact"};

/// From one seed: every generator family at n = 20, m = 4 (and at n = 10,
/// where pareto:exact runs too), layered DAGs at n = 30 and the tied pair.
/// The whole list comes twice, so a cached run hits inside one pass.
std::vector<Instance> corpus() {
  Rng rng(21);
  std::vector<Instance> once;
  for (const char* family :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    for (const std::size_t n : {10, 20, 20}) {
      GenParams params;
      params.n = n;
      params.m = 4;
      once.push_back(generate_by_name(family, params, rng));
    }
  }
  for (int k = 0; k < 3; ++k) {
    once.push_back(generate_dag_by_name("layered", 30, 4, {}, rng));
  }
  once.push_back(testing::kTiedFirst);
  once.push_back(testing::kTiedSecond);
  std::vector<Instance> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  return twice;
}

/// The corpus instances `solver` accepts: DAGs only where the family
/// supports precedence, and pareto:exact only at n <= 10.
std::vector<Instance> accepted_by(const Solver& solver) {
  const bool exact = solver.name() == "pareto:exact";
  std::vector<Instance> out;
  for (Instance& inst : corpus()) {
    if (inst.has_precedence() &&
        !solver.capabilities(inst.m()).supports_precedence) {
      continue;
    }
    if (exact && inst.n() > 10) continue;
    out.push_back(std::move(inst));
  }
  return out;
}

std::string reference_lines(const Solver& solver,
                            const std::vector<Instance>& instances) {
  const std::vector<SolveResult> results = solve_batch(solver, instances);
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += result_to_jsonl(i, results[i], kWithSchedule) + '\n';
  }
  return out;
}

/// As-completed output put back in index order.
std::string by_index(const std::string& lines) {
  std::vector<std::pair<std::size_t, std::string>> keyed;
  std::istringstream in(lines);
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find("\"index\":") + 8;
    keyed.emplace_back(std::stoull(line.substr(at)), line + '\n');
  }
  std::sort(keyed.begin(), keyed.end());
  std::string out;
  for (const auto& entry : keyed) out += entry.second;
  return out;
}

struct StreamRun {
  std::string lines;
  StreamStats stats;
};

StreamRun run_stream(const Solver& solver, InstanceSource& source,
               const StreamOptions& stream) {
  std::ostringstream out;
  JsonlResultSink sink(out, kWithSchedule);
  const StreamStats stats = solve_stream(solver, source, sink, {}, stream);
  return {stream.ordered ? out.str() : by_index(out.str()), stats};
}

StreamRun run_jsonl(const Solver& solver, const std::vector<Instance>& instances,
              const StreamOptions& stream) {
  std::string text;
  for (const Instance& inst : instances) text += instance_to_jsonl(inst) + '\n';
  std::istringstream in(text);
  JsonlInstanceSource source(in);
  return run_stream(solver, source, stream);
}

/// A store holding `instances`, unlinked when the test ends.
class TestStore {
 public:
  explicit TestStore(const std::vector<Instance>& instances)
      : name_("storesched-test-differential-" + std::to_string(::getpid())) {
    storage::ShmStore::unlink(name_);
    store_.emplace(storage::ShmStore::create(name_));
    store_->publish(wire::encode_instances(instances));
  }
  ~TestStore() {
    store_.reset();
    storage::ShmStore::unlink(name_);
  }
  TestStore(const TestStore&) = delete;
  TestStore& operator=(const TestStore&) = delete;

  storage::ShmStore& get() { return *store_; }

 private:
  std::string name_;
  std::optional<storage::ShmStore> store_;
};

/// Runs `check` once per spec with the solver, its share of the corpus and
/// the reference lines for it.
void for_each_spec(const std::function<void(const Solver&,
                                            const std::vector<Instance>&,
                                            const std::string&)>& check) {
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    const std::unique_ptr<Solver> solver = make_solver(spec);
    const std::vector<Instance> instances = accepted_by(*solver);
    ASSERT_FALSE(instances.empty());
    check(*solver, instances, reference_lines(*solver, instances));
  }
}

TEST(DifferentialCli, PipeAndFileAtOneAndFourThreadsOrderedAndAsCompleted) {
  for_each_spec([](const Solver& solver, const std::vector<Instance>& instances,
                   const std::string& reference) {
    for (const int threads : {1, 4}) {
      for (const bool ordered : {true, false}) {
        StreamOptions stream;
        stream.threads = threads;
        stream.ordered = ordered;
        EXPECT_EQ(run_jsonl(solver, instances, stream).lines, reference)
            << threads << " threads, " << (ordered ? "ordered" : "as-completed");
      }
    }
  });
}

TEST(DifferentialCli, StoreSource) {
  for_each_spec([](const Solver& solver, const std::vector<Instance>& instances,
                   const std::string& reference) {
    TestStore store(instances);
    storage::ShmInstanceSource source(store.get());
    StreamOptions stream;
    stream.threads = 4;
    EXPECT_EQ(run_stream(solver, source, stream).lines, reference);
  });
}

TEST(DifferentialCli, PrivateCacheColdThenWarm) {
  for_each_spec([](const Solver& solver, const std::vector<Instance>& instances,
                   const std::string& reference) {
    storage::SolveCache cache;
    StreamOptions stream;
    stream.cache = &cache;
    // One worker: the second copy of the corpus hits inside the cold run.
    stream.threads = 1;
    const StreamRun cold = run_jsonl(solver, instances, stream);
    EXPECT_EQ(cold.lines, reference);
    EXPECT_EQ(cold.stats.cache_hits, instances.size() / 2);
    stream.threads = 4;
    const StreamRun warm = run_jsonl(solver, instances, stream);
    EXPECT_EQ(warm.lines, reference);
    EXPECT_EQ(warm.stats.cache_hits, instances.size());
  });
}

TEST(DifferentialCli, StoreSharedCacheColdThenWarm) {
  for_each_spec([](const Solver& solver, const std::vector<Instance>& instances,
                   const std::string& reference) {
    TestStore store(instances);
    StreamOptions stream;
    stream.cache = &store.get().cache();
    stream.threads = 1;
    StreamRun cold;
    {
      storage::ShmInstanceSource source(store.get());
      cold = run_stream(solver, source, stream);
    }
    EXPECT_EQ(cold.lines, reference);
    EXPECT_EQ(cold.stats.cache_hits, instances.size() / 2);
    stream.threads = 4;
    storage::ShmInstanceSource source(store.get());
    const StreamRun warm = run_stream(solver, source, stream);
    EXPECT_EQ(warm.lines, reference);
    EXPECT_EQ(warm.stats.cache_hits, instances.size());
  });
}

}  // namespace
}  // namespace storesched
