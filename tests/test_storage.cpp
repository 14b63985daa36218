// Tests for the storage tier beyond the wire format itself
// (storage/canonical.hpp, storage/result_cache.hpp, storage/shm_store.hpp):
// cache-key properties over input order, bit-identical cache hits (always
// audited -- see kAuditEnv below), insertion exemptions, the raw seqlock
// table, shm publish/attach/republish under concurrency, and the
// solve_stream cache integration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/dag.hpp"
#include "common/failpoint.hpp"
#include "common/instance.hpp"
#include "core/solver.hpp"
#include "core/stream.hpp"
#include "storage/canonical.hpp"
#include "storage/result_cache.hpp"
#include "storage/shm_store.hpp"
#include "storage/wire_format.hpp"
#include "allocation_counter.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

// audit_enabled() latches STORESCHED_AUDIT once, at its first call; set it
// before main() so every cold solve and every hit served through the
// envelope (storage::solve_cached, which solve_stream uses) in this binary
// is audit-verified against its instance: a poisoned hit throws instead
// of passing. Direct SolveCache lookups are keyed table reads and are not
// audited.
const bool kAuditEnv = [] {
  ::setenv("STORESCHED_AUDIT", "1", 1);
  return true;
}();

using storage::CacheKey;
using storage::CacheTable;
using storage::ShmStore;
using storage::SolveCache;
using testing::kTiedFirst;
using testing::kTiedSecond;
using testing::make_instance;

/// The serializer the acceptance criteria compare through: a hit must be
/// byte-identical to the cold solve on the full JSONL surface, schedule
/// included.
std::string full_jsonl(const SolveResult& result) {
  JsonlResultOptions options;
  options.include_schedule = true;
  return result_to_jsonl(0, result, options);
}

CacheKey key_of(const Instance& inst, std::string_view spec,
                const SolveOptions& options = {}) {
  return storage::cache_key(inst, spec, options);
}

/// Every spec below solves the tied pair (test_util.hpp) differently.
const char* const kTiedSpecs[] = {"graham:lpt", "sbo:lpt,delta=1",
                                  "rls:input,delta=3", "rls:lpt,delta=3"};

/// A mixed bag of instances worth caching: several shapes, one per line.
std::vector<Instance> cache_fixture_instances() {
  std::vector<Instance> out;
  out.push_back(make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2));
  out.push_back(make_instance({4, 4, 4, 4}, {5, 5, 5, 5}, 2));
  out.push_back(make_instance({13}, {2}, 1));
  out.push_back(make_instance({6, 2, 8, 3, 1, 9, 4}, {2, 7, 1, 5, 9, 3, 6}, 3));
  return out;
}

// ---------------------------------------------------------------------------
// Canonical keys.
// ---------------------------------------------------------------------------

TEST(CanonicalKey, IsDeterministic) {
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);
  EXPECT_EQ(key_of(inst, "graham:lpt"), key_of(inst, "graham:lpt"));
}

TEST(CanonicalKey, SchemeThreeKeyIsPinned) {
  // Keys live on in shared stores across builds. A change to the hasher
  // (lanes, constants, finalizer or what is keyed) must bump kKeyScheme
  // in storage/canonical.cpp and update this value in the same change,
  // so an older build's entries never match a newer build's keys.
  const Instance inst = make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2);
  SolveOptions capped;
  capped.memory_capacity = 40;
  const CacheKey key = key_of(inst, "sbo:lpt,delta=1", capped);
  EXPECT_EQ(key.hi, 0x1F8A641884B07014ull);
  EXPECT_EQ(key.lo, 0x0DBA31E09E066DE9ull);
}

TEST(CanonicalKey, PermutedTasksKeyDifferently) {
  // Task ids are part of the input: solvers break ties by them, and
  // rls:input schedules in their order. The same multiset of (p, s) pairs
  // in another order is another input and must key differently.
  const Instance a = make_instance({9, 1, 2, 7}, {1, 8, 9, 3}, 2);
  const Instance b = make_instance({2, 7, 9, 1}, {9, 3, 1, 8}, 2);
  EXPECT_NE(key_of(a, "graham:lpt"), key_of(b, "graham:lpt"));
  for (const char* spec : kTiedSpecs) {
    EXPECT_NE(key_of(kTiedFirst, spec), key_of(kTiedSecond, spec)) << spec;
  }
}

TEST(CanonicalKey, SeparatesEverythingThatChangesASolve) {
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);
  const CacheKey base = key_of(inst, "graham:lpt");

  // Different solver spec (algorithm, tie-breaks, Delta all live there).
  EXPECT_NE(base, key_of(inst, "sbo:lpt,delta=3/2"));

  // Different m.
  const Instance three = make_instance({3, 1, 2}, {1, 2, 3}, 3);
  EXPECT_NE(base, key_of(three, "graham:lpt"));

  // Different weights.
  const Instance heavier = make_instance({4, 1, 2}, {1, 2, 3}, 2);
  EXPECT_NE(base, key_of(heavier, "graham:lpt"));

  // Memory capacity: present vs absent, and its value.
  SolveOptions capped;
  capped.memory_capacity = 10;
  EXPECT_NE(base, key_of(inst, "graham:lpt", capped));
  SolveOptions capped_higher;
  capped_higher.memory_capacity = 11;
  EXPECT_NE(key_of(inst, "graham:lpt", capped),
            key_of(inst, "graham:lpt", capped_higher));

  // The validate flag turns violations into infeasible results, so it is
  // part of the key.
  SolveOptions validated;
  validated.validate = true;
  EXPECT_NE(base, key_of(inst, "graham:lpt", validated));
}

TEST(CanonicalKey, DeadlineAndCancelAreDeliberatelyNotKeyed) {
  // Results influenced by either are never inserted, so keying them would
  // only fragment the cache.
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);
  SolveOptions with_deadline;
  with_deadline.deadline = std::chrono::seconds(5);
  EXPECT_EQ(key_of(inst, "graham:lpt"), key_of(inst, "graham:lpt", with_deadline));
  SolveOptions with_token;
  with_token.cancel = std::make_shared<CancelToken>();
  EXPECT_EQ(key_of(inst, "graham:lpt"), key_of(inst, "graham:lpt", with_token));
}

TEST(CanonicalKey, DagInstancesKeepTheirIdentity) {
  // Precedence makes task ids structural: the same weights under
  // different edges must key differently.
  std::vector<Task> tasks = {{3, 1}, {1, 2}, {2, 3}};
  Dag chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  Dag fork(3);
  fork.add_edge(0, 1);
  fork.add_edge(0, 2);
  const Instance a(tasks, 2, chain);
  const Instance b(tasks, 2, fork);
  EXPECT_NE(key_of(a, "graham:list"), key_of(b, "graham:list"));
}

// ---------------------------------------------------------------------------
// SolveCache: hits and exemptions.
// ---------------------------------------------------------------------------

TEST(SolveCache, ExactDuplicateHitsAreBitIdenticalAcrossSpecs) {
  SolveCache cache;
  const std::vector<Instance> instances = cache_fixture_instances();
  const std::vector<std::string> specs = {"graham:lpt", "sbo:lpt,delta=3/2",
                                          "rls:bottom,delta=3"};
  SolveOptions options;
  std::uint64_t expected_hits = 0;
  for (const std::string& spec : specs) {
    const std::unique_ptr<Solver> solver = make_solver(spec);
    for (const Instance& inst : instances) {
      ASSERT_FALSE(cache.lookup(inst, spec, options).has_value());
      const SolveResult cold = solver->solve(inst, options);
      cache.insert(inst, spec, options, cold);
      const std::optional<SolveResult> warm = cache.lookup(inst, spec, options);
      ASSERT_TRUE(warm.has_value()) << spec;
      EXPECT_EQ(full_jsonl(cold), full_jsonl(*warm)) << spec;
      ++expected_hits;
    }
  }
  const storage::CacheTableStats stats = cache.table_stats();
  EXPECT_EQ(stats.hits, expected_hits);
  EXPECT_EQ(stats.inserts, expected_hits);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SolveCache, TiedPermutationMissesUntilItsOwnInsert) {
  // The second order of a tied instance is another input with another
  // answer: after the first order's insert it must miss, and after its own
  // insert it must hit with exactly its own cold result.
  for (const char* spec : kTiedSpecs) {
    SolveCache cache;
    const std::unique_ptr<Solver> solver = make_solver(spec);
    const SolveOptions options;
    const SolveResult first = solver->solve(kTiedFirst, options);
    const SolveResult second = solver->solve(kTiedSecond, options);
    ASSERT_NE(full_jsonl(first), full_jsonl(second)) << spec;

    cache.insert(kTiedFirst, spec, options, first);
    EXPECT_FALSE(cache.lookup(kTiedSecond, spec, options).has_value())
        << spec;
    cache.insert(kTiedSecond, spec, options, second);
    const std::optional<SolveResult> warm_second =
        cache.lookup(kTiedSecond, spec, options);
    ASSERT_TRUE(warm_second.has_value()) << spec;
    EXPECT_EQ(full_jsonl(*warm_second), full_jsonl(second)) << spec;
    const std::optional<SolveResult> warm_first =
        cache.lookup(kTiedFirst, spec, options);
    ASSERT_TRUE(warm_first.has_value()) << spec;
    EXPECT_EQ(full_jsonl(*warm_first), full_jsonl(first)) << spec;
  }
}

TEST(SolveCache, DeadlineSolvesAreNeverInserted) {
  SolveCache cache;
  const std::string spec = "graham:lpt";
  const std::unique_ptr<Solver> solver = make_solver(spec);
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);
  SolveOptions options;
  options.deadline = std::chrono::hours(1);  // generous: the solve succeeds
  ASSERT_TRUE(storage::cache_exempt(options));

  cache.insert(inst, spec, options, solver->solve(inst, options));
  EXPECT_EQ(cache.table_stats().inserts, 0u);
  // Not even findable without the deadline: nothing was stored.
  EXPECT_FALSE(cache.lookup(inst, spec, SolveOptions{}).has_value());
}

TEST(SolveCache, ArmedButIdleCancelTokensStillInsert) {
  // An un-fired token cannot have truncated anything; only a fired one
  // exempts the result.
  SolveCache cache;
  const std::string spec = "graham:lpt";
  const std::unique_ptr<Solver> solver = make_solver(spec);
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);

  SolveOptions idle;
  idle.cancel = std::make_shared<CancelToken>();
  ASSERT_FALSE(storage::cache_exempt(idle));
  cache.insert(inst, spec, idle, solver->solve(inst, idle));
  EXPECT_EQ(cache.table_stats().inserts, 1u);

  auto fired = std::make_shared<CancelToken>();
  fired->request_cancel("test");
  SolveOptions cancelled;
  cancelled.cancel = fired;
  EXPECT_TRUE(storage::cache_exempt(cancelled));
  const Instance other = make_instance({4, 4}, {1, 1}, 2);
  cache.insert(other, spec, cancelled, solver->solve(inst, SolveOptions{}));
  EXPECT_EQ(cache.table_stats().inserts, 1u);  // unchanged
}

TEST(SolveCache, OversizePayloadsAreSkippedNotStored) {
  // A payload wider than a slot counts one skip and stores nothing, so a
  // later lookup misses.
  SolveCache cache(/*slot_count=*/16, /*payload_bytes=*/64);
  const std::string spec = "graham:lpt";
  const std::unique_ptr<Solver> solver = make_solver(spec);
  const Instance inst = make_instance({9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7},
                                      {1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3}, 3);
  const SolveOptions options;
  const SolveResult cold = solver->solve(inst, options);
  ASSERT_GT(wire::encode_result_payload(cold).size(), 64u);

  cache.insert(inst, spec, options, cold);
  const storage::CacheTableStats table = cache.table_stats();
  EXPECT_EQ(table.skipped, 1u);
  EXPECT_EQ(table.inserts, 0u);
  EXPECT_EQ(table.bytes, 0u);
  EXPECT_FALSE(cache.lookup(inst, spec, options).has_value());
}

TEST(SolveCache, HitsSurviveExtrasChannelsOnTheColdResult) {
  // SBO results carry an extras channel the payload format does not
  // store; the JSONL surface (which omits extras) must still match.
  SolveCache cache;
  const std::string spec = "sbo:lpt,delta=2";
  const std::unique_ptr<Solver> solver = make_solver(spec);
  const Instance inst = make_instance({6, 2, 8, 3, 1, 9, 4},
                                      {2, 7, 1, 5, 9, 3, 6}, 3);
  SolveOptions options;
  const SolveResult cold = solver->solve(inst, options);
  cache.insert(inst, spec, options, cold);
  const std::optional<SolveResult> warm = cache.lookup(inst, spec, options);
  ASSERT_TRUE(warm.has_value());
  EXPECT_FALSE(warm->sbo.has_value());  // extras are not cached ...
  EXPECT_EQ(full_jsonl(cold), full_jsonl(*warm));  // ... the wire is equal
}

// ---------------------------------------------------------------------------
// solve_cached: the one solve envelope.
// ---------------------------------------------------------------------------

/// graham:lpt loads both processors to Mmax 7 here: over a capacity of 3,
/// which graham ignores and constrained:* must meet.
const Instance kOverCapacity = make_instance({5, 5, 3, 3}, {4, 4, 3, 3}, 2);

/// Full result lines of one single-worker solve_stream run over `instances`.
std::string stream_lines(const Solver& solver,
                         const std::vector<Instance>& instances,
                         const SolveOptions& options, SolveCache* cache) {
  std::vector<SolveResult> results(instances.size());
  SpanSource source(instances);
  VectorSink sink(results);
  StreamOptions stream;
  stream.cache = cache;
  stream.threads = 1;
  solve_stream(solver, source, sink, options, stream);
  std::string lines;
  for (const SolveResult& result : results) lines += full_jsonl(result) + '\n';
  return lines;
}

TEST(SolveCached, HitIsAuditedByItsSolversCapacityRule) {
  // A cold graham:lpt result passes the audit over a capacity it does not
  // claim to meet; its hit must pass the same rule, not the cache's own.
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  SolveOptions options;
  options.memory_capacity = 3;
  const std::vector<Instance> twice(2, kOverCapacity);
  SolveCache cache;
  EXPECT_EQ(stream_lines(*solver, twice, options, &cache),
            stream_lines(*solver, twice, options, nullptr));
  EXPECT_EQ(cache.table_stats().hits, 1u);
}

TEST(SolveCached, CapacitySolversStillAuditTheirHitsAgainstIt) {
  // Control: constrained:* answers to the capacity, so graham's Mmax-7
  // result stored under its key is a poisoned hit.
  const std::unique_ptr<Solver> graham = make_solver("graham:lpt");
  const std::unique_ptr<Solver> solver =
      make_solver("constrained:rls,tiebreak=lpt");
  SolveOptions options;
  options.memory_capacity = 3;
  SolveCache cache;
  cache.insert(kOverCapacity, solver->name(), options,
               graham->solve(kOverCapacity, options));
  try {
    stream_lines(*solver, {kOverCapacity}, options, &cache);
    ADD_FAILURE() << "a hit over the capacity passed its audit";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("exceeds the hard capacity 3"),
              std::string::npos)
        << err.what();
  }
}

TEST(SolveCached, PoisonedHitStopsTheRunAtItsRecord) {
  // A's result stored under the key of B (same n, other weights): its
  // objectives do not reproduce from B, so the run must abort at B's index
  // instead of answering it.
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  const Instance a = make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2);
  const Instance b = make_instance({4, 4, 4, 4, 4}, {5, 5, 5, 5, 5}, 2);
  SolveCache cache;
  cache.insert(b, solver->name(), {}, solver->solve(a));
  try {
    stream_lines(*solver, {a, b}, {}, &cache);
    ADD_FAILURE() << "a poisoned hit was answered";
  } catch (const std::logic_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("solve_stream: instance 1: STORESCHED_AUDIT: "
                        "graham:lpt got an invalid result from the cache"),
              std::string::npos)
        << what;
  }
}

/// Counts name() calls -- the solver's only input to the cache key --
/// around another solver, the way perfbench's TracedSolver wraps one.
class NameCountingSolver final : public Solver {
 public:
  explicit NameCountingSolver(const Solver& inner) : inner_(inner) {}
  std::string name() const override {
    names.fetch_add(1, std::memory_order_relaxed);
    return inner_.name();
  }
  Capabilities capabilities(int m) const override {
    return inner_.capabilities(m);
  }

  mutable std::atomic<std::size_t> names{0};

 protected:
  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    return inner_.solve(inst, options);
  }

 private:
  const Solver& inner_;
};

TEST(SolveCached, KeysOncePerCallWithACacheAndNeverWithout) {
  const std::unique_ptr<Solver> inner = make_solver("sbo:lpt,delta=1");
  const NameCountingSolver solver(*inner);
  const Instance inst = make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2);
  SolveCache cache;
  using storage::CacheOutcome;
  EXPECT_EQ(storage::solve_cached(solver, inst, {}, &cache).cache,
            CacheOutcome::kMiss);
  EXPECT_EQ(solver.names.load(), 1u);
  EXPECT_EQ(storage::solve_cached(solver, inst, {}, &cache).cache,
            CacheOutcome::kHit);
  EXPECT_EQ(solver.names.load(), 2u);
  EXPECT_EQ(storage::solve_cached(solver, inst, {}, nullptr).cache,
            CacheOutcome::kOff);
  EXPECT_EQ(solver.names.load(), 2u);

  // solve_stream: one key per record, hit or miss; none without a cache.
  const std::vector<Instance> once = cache_fixture_instances();
  std::vector<Instance> instances = once;
  instances.insert(instances.end(), once.begin(), once.end());
  stream_lines(solver, instances, {}, &cache);
  EXPECT_EQ(solver.names.load(), 2u + instances.size());
  stream_lines(solver, instances, {}, nullptr);
  EXPECT_EQ(solver.names.load(), 2u + instances.size());
}

TEST(SolveCached, RetriedAttemptAnswersAndInsertsSoALaterDuplicateHits) {
  // The failpoint fires before each attempt's lookup: the first attempt
  // throws before consulting the cache, the retry misses, solves and
  // inserts, and the duplicates after it hit.
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  const Instance inst = make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2);
  const std::vector<Instance> instances(3, inst);
  SolveCache cache;
  StreamOptions stream;
  stream.cache = &cache;
  stream.threads = 1;
  stream.on_error.action = FailureAction::kRetry;
  std::vector<SolveResult> results(instances.size());
  SpanSource source(instances);
  VectorSink sink(results);
  failpoint::set("stream.solve", "nth(1):throw");
  const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
  failpoint::clear_all();

  EXPECT_EQ(stats.delivered, instances.size());
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  const storage::CacheTableStats table = cache.table_stats();
  EXPECT_EQ(table.misses, 1u);
  EXPECT_EQ(table.inserts, 1u);
  EXPECT_EQ(table.hits, 2u);
  for (const SolveResult& result : results) {
    EXPECT_EQ(full_jsonl(result), full_jsonl(solver->solve(inst)));
  }
}

// ---------------------------------------------------------------------------
// CacheTable: the raw seqlock region.
// ---------------------------------------------------------------------------

TEST(CacheTable, StoresAndOverwritesByKey) {
  CacheTable table(/*slot_count=*/16, /*payload_bytes=*/64);
  const CacheKey key{0x1111, 0x2222};
  EXPECT_FALSE(table.lookup(key).has_value());
  ASSERT_TRUE(table.insert(key, "first"));
  EXPECT_EQ(table.lookup(key), std::optional<std::string>("first"));
  ASSERT_TRUE(table.insert(key, "second, longer payload"));
  EXPECT_EQ(table.lookup(key), std::optional<std::string>("second, longer payload"));

  const storage::CacheTableStats stats = table.stats();
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes, std::string("second, longer payload").size());
}

TEST(CacheTable, LookupAllocatesOnlyForAHit) {
  if (!STORESCHED_TEST_COUNTS_ALLOCATIONS) {
    GTEST_SKIP() << "sanitizer build: operator new is the runtime's";
  }
  // A miss probes without a buffer; a hit allocates its returned string
  // once, sized to the payload (longer than any small-string buffer).
  CacheTable table(/*slot_count=*/4096, /*payload_bytes=*/1024);
  const std::string payload(300, 'p');
  ASSERT_TRUE(table.insert(CacheKey{7, 7}, payload));
  std::size_t hits = 0;
  const std::size_t miss_allocations = testing::count_allocations([&] {
    for (std::uint64_t k = 0; k < 1000; ++k) {
      hits += table.lookup(CacheKey{100 + k, 100 + k}).has_value() ? 1 : 0;
    }
  });
  std::size_t bytes = 0;
  const std::size_t hit_allocations = testing::count_allocations([&] {
    for (int k = 0; k < 1000; ++k) {
      bytes += table.lookup(CacheKey{7, 7})->size();
    }
  });
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(bytes, 1000 * payload.size());
  EXPECT_EQ(miss_allocations, 0u);
  EXPECT_EQ(hit_allocations, 1000u);
}

TEST(CacheTable, OversizedPayloadsAreSkippedNotSplit) {
  CacheTable table(/*slot_count=*/4, /*payload_bytes=*/16);
  const std::string big(table.payload_capacity() + 1, 'x');
  EXPECT_FALSE(table.insert(CacheKey{1, 2}, big));
  EXPECT_FALSE(table.lookup(CacheKey{1, 2}).has_value());
  EXPECT_EQ(table.stats().skipped, 1u);
  EXPECT_EQ(table.stats().inserts, 0u);

  // The boundary itself fits.
  const std::string exact(table.payload_capacity(), 'y');
  EXPECT_TRUE(table.insert(CacheKey{1, 2}, exact));
  EXPECT_EQ(table.lookup(CacheKey{1, 2}), std::optional<std::string>(exact));
}

TEST(CacheTable, EvictsInsideAFullProbeWindowInsteadOfFailing) {
  // Degenerate single-slot table: every key collides, every insert after
  // the first evicts. It is a cache -- the last write must win.
  CacheTable table(/*slot_count=*/1, /*payload_bytes=*/32);
  ASSERT_TRUE(table.insert(CacheKey{1, 1}, "one"));
  ASSERT_TRUE(table.insert(CacheKey{2, 2}, "two"));
  EXPECT_EQ(table.lookup(CacheKey{2, 2}), std::optional<std::string>("two"));
  EXPECT_FALSE(table.lookup(CacheKey{1, 1}).has_value());
}

TEST(CacheTable, ExternalRegionRoundTripsThroughAttach) {
  const std::size_t slots = 8, payload = 64;
  const std::size_t bytes = CacheTable::required_bytes(slots, payload);
  std::vector<std::uint64_t> region(bytes / 8);

  CacheTable writer(region.data(), bytes, slots, payload, /*initialize=*/true);
  ASSERT_TRUE(writer.insert(CacheKey{7, 9}, "shared"));

  CacheTable reader(region.data(), bytes, slots, payload, /*initialize=*/false);
  EXPECT_EQ(reader.lookup(CacheKey{7, 9}), std::optional<std::string>("shared"));
  // Region-wide counters are shared words, not per-handle.
  EXPECT_EQ(writer.stats().hits, 1u);
}

TEST(CacheTable, AttachRejectsGarbageRegions) {
  const std::size_t slots = 8, payload = 64;
  const std::size_t bytes = CacheTable::required_bytes(slots, payload);
  std::vector<std::uint64_t> region(bytes / 8, 0xDEADBEEFCAFEF00D);
  EXPECT_THROW(CacheTable(region.data(), bytes, slots, payload,
                          /*initialize=*/false),
               std::runtime_error);
}

TEST(CacheTable, ConcurrentInsertersAndReadersNeverSeeTornPayloads) {
  // Hammer one small table from writer and reader threads; the seqlock
  // must only ever surface payloads that were written whole for that key.
  // (Run under TSan in CI; the assertions here catch torn data even
  // without it.)
  CacheTable table(/*slot_count=*/8, /*payload_bytes=*/64);
  constexpr int kKeys = 4;
  constexpr int kRounds = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          const CacheKey key{static_cast<std::uint64_t>(k + 1), 0x55};
          if (const auto payload = table.lookup(key)) {
            // Valid payloads are "<k>:" followed by a run of one digit.
            const std::string prefix = std::to_string(k) + ":";
            if (payload->rfind(prefix, 0) != 0 ||
                payload->find_first_not_of(payload->back(), prefix.size()) !=
                    std::string::npos) {
              torn.fetch_add(1);
            }
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const int k = (round + w) % kKeys;
        const CacheKey key{static_cast<std::uint64_t>(k + 1), 0x55};
        const char digit = static_cast<char>('0' + (round % 10));
        const std::string payload =
            std::to_string(k) + ":" + std::string(8 + (round % 40), digit);
        table.insert(key, payload);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// ShmStore: publish, attach, republish, unlink.
// ---------------------------------------------------------------------------

/// Unique per-process store name; tests unlink what they create.
std::string test_store_name(const char* tag) {
  return std::string("storesched-test-") + tag + "-" +
         std::to_string(::getpid());
}

TEST(ShmStore, PublishAttachMaterializeUnlink) {
  const std::string name = test_store_name("basic");
  ShmStore::unlink(name);  // stale runs
  {
    ShmStore writer = ShmStore::create(name);
    EXPECT_EQ(writer.info().epoch, 0u);
    EXPECT_EQ(writer.snapshot(), nullptr);

    const std::vector<Instance> instances = cache_fixture_instances();
    writer.publish(wire::encode_instances(instances));

    ShmStore reader = ShmStore::attach(name);
    const ShmStore::Info info = reader.info();
    EXPECT_EQ(info.epoch, 1u);
    EXPECT_EQ(info.instances, instances.size());
    EXPECT_GT(info.data_bytes, 0u);

    const std::shared_ptr<storage::ShmMapping> snap = reader.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch(), 1u);
    const wire::InstanceView view(snap->bytes());
    ASSERT_EQ(view.count(), instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance got = view.materialize(i);
      EXPECT_EQ(got.m(), instances[i].m());
      ASSERT_EQ(got.n(), instances[i].n());
      for (std::size_t t = 0; t < got.n(); ++t) {
        EXPECT_EQ(got.task(static_cast<TaskId>(t)).p,
                  instances[i].task(static_cast<TaskId>(t)).p);
        EXPECT_EQ(got.task(static_cast<TaskId>(t)).s,
                  instances[i].task(static_cast<TaskId>(t)).s);
      }
    }
  }
  // Metadata + one epoch segment.
  EXPECT_EQ(ShmStore::unlink(name), 2u);
  EXPECT_EQ(ShmStore::unlink(name), 0u);
}

TEST(ShmStore, RepublishFlipsEpochsWithoutInvalidatingOldSnapshots) {
  const std::string name = test_store_name("swap");
  ShmStore::unlink(name);
  ShmStore writer = ShmStore::create(name);

  const std::vector<Instance> first = {make_instance({1, 2}, {3, 4}, 2)};
  const std::vector<Instance> second = {make_instance({5}, {6}, 1),
                                        make_instance({7, 8, 9}, {1, 1, 1}, 3)};
  writer.publish(wire::encode_instances(first));
  const std::shared_ptr<storage::ShmMapping> old_snap = writer.snapshot();
  ASSERT_NE(old_snap, nullptr);
  // One mapping per epoch: a second call in the same epoch hands out the
  // same mapping instead of mapping the segment again.
  EXPECT_EQ(writer.snapshot(), old_snap);

  writer.publish(wire::encode_instances(second));
  const std::shared_ptr<storage::ShmMapping> new_snap = writer.snapshot();
  ASSERT_NE(new_snap, nullptr);
  EXPECT_NE(new_snap, old_snap);
  EXPECT_EQ(new_snap->epoch(), 2u);
  EXPECT_EQ(wire::InstanceView(new_snap->bytes()).count(), 2u);
  EXPECT_EQ(writer.snapshot(), new_snap);
  EXPECT_EQ(writer.info().epoch, 2u);
  EXPECT_EQ(writer.info().instances, 2u);

  // The epoch-1 mapping stays readable after its segment was unlinked and
  // the handle moved on to epoch 2.
  EXPECT_EQ(old_snap->epoch(), 1u);
  const wire::InstanceView old_view(old_snap->bytes());
  ASSERT_EQ(old_view.count(), 1u);
  EXPECT_EQ(old_view.materialize(0).n(), 2u);

  EXPECT_EQ(ShmStore::unlink(name), 2u);  // metadata + live epoch only
}

TEST(ShmStore, PublishedEpochFollowsPublishesWithoutMapping) {
  const std::string name = test_store_name("epoch");
  ShmStore::unlink(name);
  ShmStore writer = ShmStore::create(name);
  const ShmStore reader = ShmStore::attach(name);
  EXPECT_EQ(reader.published_epoch(), 0u);

  writer.publish(wire::encode_instances(
      std::vector<Instance>{make_instance({1, 2}, {3, 4}, 2)}));
  EXPECT_EQ(reader.published_epoch(), 1u);
  writer.publish(wire::encode_instances(std::vector<Instance>{
      make_instance({5}, {6}, 1), make_instance({7, 8, 9}, {1, 1, 1}, 3)}));
  EXPECT_EQ(reader.published_epoch(), 2u);

  // The record's shape, read without materializing the instance.
  const std::shared_ptr<storage::ShmMapping> snap = reader.snapshot();
  ASSERT_NE(snap, nullptr);
  const wire::InstanceView::Shape shape =
      wire::InstanceView(snap->bytes()).shape(1);
  EXPECT_EQ(shape.tasks, 3u);
  EXPECT_EQ(shape.edges, 0u);
  EXPECT_EQ(shape.m, 3);
  EXPECT_EQ(ShmStore::unlink(name), 2u);
}

TEST(ShmStore, AttachToMissingStoreThrows) {
  EXPECT_THROW(ShmStore::attach(test_store_name("never-created")),
               std::runtime_error);
}

TEST(ShmStore, SharedCacheIsVisibleAcrossHandles) {
  const std::string name = test_store_name("cache");
  ShmStore::unlink(name);
  ShmStore writer = ShmStore::create(name);
  ShmStore reader = ShmStore::attach(name);

  const std::string spec = "graham:lpt";
  const std::unique_ptr<Solver> solver = make_solver(spec);
  const Instance inst = make_instance({3, 1, 2}, {1, 2, 3}, 2);
  SolveOptions options;
  writer.cache().insert(inst, spec, options, solver->solve(inst, options));

  const std::optional<SolveResult> warm =
      reader.cache().lookup(inst, spec, options);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(full_jsonl(solver->solve(inst, options)), full_jsonl(*warm));
  // Region-wide counters agree from both ends.
  EXPECT_EQ(writer.info().cache.inserts, 1u);
  EXPECT_EQ(reader.info().cache.hits, 1u);

  ShmStore::unlink(name);
}

/// Epoch E publishes E instances of weight E (epoch 1 included). Returns
/// the number of ways `snap` breaks that rule (0 = a whole, valid
/// container of its epoch).
int epoch_violations(const storage::ShmMapping& snap) {
  const wire::InstanceView view(snap.bytes());
  const auto epoch = static_cast<std::size_t>(snap.epoch());
  if (view.count() != epoch) return 1;
  int bad = 0;
  for (std::size_t i = 0; i < view.count(); ++i) {
    if (view.materialize(i).task(0).p != static_cast<Time>(epoch)) ++bad;
  }
  return bad;
}

/// Publishes epochs 2..`epochs` of the epoch_violations() rule.
void republish_epochs(ShmStore& writer, int epochs) {
  for (int epoch = 2; epoch <= epochs; ++epoch) {
    std::vector<Instance> batch;
    for (int i = 0; i < epoch; ++i) {
      batch.push_back(make_instance({static_cast<Time>(epoch)},
                                    {static_cast<Mem>(epoch)}, 1));
    }
    writer.publish(wire::encode_instances(batch));
  }
}

TEST(ShmStore, ConcurrentReadersSurviveRegionSwaps) {
  // The acceptance criterion's TSan scenario: readers attach, snapshot and
  // materialize continuously while the writer republishes new epochs.
  // Every snapshot must be a whole, valid container from *some* epoch.
  const std::string name = test_store_name("race");
  ShmStore::unlink(name);
  ShmStore writer = ShmStore::create(name);
  writer.publish(wire::encode_instances(
      std::vector<Instance>{make_instance({1}, {1}, 1)}));

  constexpr int kEpochs = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ShmStore reader = ShmStore::attach(name);
        const std::shared_ptr<storage::ShmMapping> snap = reader.snapshot();
        if (snap == nullptr) continue;  // racing the very first flip
        bad.fetch_add(epoch_violations(*snap));
      }
    });
  }

  republish_epochs(writer, kEpochs);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(writer.info().epoch, static_cast<std::uint64_t>(kEpochs));
  ShmStore::unlink(name);
}

TEST(ShmStore, ReadersSharingOneHandleSurviveRegionSwaps) {
  // The server's shape: every worker snapshots through one attached
  // handle, so they share (and race on) its per-epoch mapping. Each
  // snapshot must still be a whole container of its epoch, epochs seen by
  // one reader never go backwards, and the handle ends on the last epoch.
  const std::string name = test_store_name("shared");
  ShmStore::unlink(name);
  ShmStore writer = ShmStore::create(name);
  writer.publish(wire::encode_instances(
      std::vector<Instance>{make_instance({1}, {1}, 1)}));
  const ShmStore reader = ShmStore::attach(name);

  constexpr int kEpochs = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<storage::ShmMapping> snap = reader.snapshot();
        if (snap == nullptr || snap->epoch() < last_epoch) {
          bad.fetch_add(1);
          continue;
        }
        last_epoch = snap->epoch();
        bad.fetch_add(epoch_violations(*snap));
      }
    });
  }

  republish_epochs(writer, kEpochs);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  const std::shared_ptr<storage::ShmMapping> last = reader.snapshot();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->epoch(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(reader.snapshot(), last);
  EXPECT_EQ(epoch_violations(*last), 0);
  ShmStore::unlink(name);
}

// ---------------------------------------------------------------------------
// solve_stream integration.
// ---------------------------------------------------------------------------

TEST(StreamCache, SecondRunIsAllHitsAndBitIdentical) {
  const std::unique_ptr<Solver> solver = make_solver("sbo:lpt,delta=3/2");
  const std::vector<Instance> instances = cache_fixture_instances();
  SolveCache cache;
  StreamOptions stream;
  stream.cache = &cache;
  stream.threads = 2;

  std::vector<SolveResult> cold(instances.size());
  {
    SpanSource source(instances);
    VectorSink sink(cold);
    const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
    EXPECT_EQ(stats.delivered, instances.size());
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, instances.size());
  }
  std::vector<SolveResult> warm(instances.size());
  {
    SpanSource source(instances);
    VectorSink sink(warm);
    const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
    EXPECT_EQ(stats.delivered, instances.size());
    EXPECT_EQ(stats.cache_hits, instances.size());
    EXPECT_EQ(stats.cache_misses, 0u);
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(full_jsonl(cold[i]), full_jsonl(warm[i])) << "instance " << i;
  }
}

TEST(StreamCache, NoCachePointerMeansNoCounters) {
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  const std::vector<Instance> instances = cache_fixture_instances();
  std::vector<SolveResult> results(instances.size());
  SpanSource source(instances);
  VectorSink sink(results);
  const StreamStats stats = solve_stream(*solver, source, sink);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(StreamCache, DuplicatesWithinOneRunHitAfterTheFirstSolve) {
  // 1 distinct instance repeated: with a single worker the first record
  // misses and inserts, the rest are hits.
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  const Instance inst = make_instance({9, 1, 2, 7, 5}, {1, 8, 9, 3, 4}, 2);
  const std::vector<Instance> instances(6, inst);
  SolveCache cache;
  StreamOptions stream;
  stream.cache = &cache;
  stream.threads = 1;

  std::vector<SolveResult> results(instances.size());
  SpanSource source(instances);
  VectorSink sink(results);
  const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
  EXPECT_EQ(stats.cache_hits, instances.size() - 1);
  EXPECT_EQ(stats.cache_misses, 1u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(full_jsonl(results[0]), full_jsonl(results[i]));
  }
}

TEST(StreamCache, ShmStoreSourceAndSharedCacheComposeEndToEnd) {
  // The CLI's --store --cache shape in-process: publish, stream from the
  // store through its shared cache twice, expect a fully warm second run.
  const std::string name = test_store_name("stream");
  ShmStore::unlink(name);
  ShmStore store = ShmStore::create(name);
  const std::vector<Instance> instances = cache_fixture_instances();
  store.publish(wire::encode_instances(instances));

  const std::unique_ptr<Solver> solver = make_solver("sbo:lpt,delta=3/2");
  StreamOptions stream;
  stream.cache = &store.cache();

  std::vector<SolveResult> cold(instances.size());
  {
    storage::ShmInstanceSource source(store);
    VectorSink sink(cold);
    solve_stream(*solver, source, sink, {}, stream);
  }
  std::vector<SolveResult> warm(instances.size());
  {
    storage::ShmInstanceSource source(store);
    VectorSink sink(warm);
    const StreamStats stats = solve_stream(*solver, source, sink, {}, stream);
    EXPECT_EQ(stats.cache_hits, instances.size());
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(full_jsonl(cold[i]), full_jsonl(warm[i]));
  }
  EXPECT_EQ(store.info().cache.inserts, instances.size());
  ShmStore::unlink(name);
}

}  // namespace
}  // namespace storesched
