// EXT-E -- wall-clock scaling of the library through the unified solver API.
//
// Covers the complexity claims that matter for adoption: SBO is dominated
// by its ingredient schedulers (near-linear for LS/LPT, heavier for the
// dual-approximation PTAS that pays for its guarantee), RLS is the paper's
// O(n^2 m) on independent and DAG inputs alike, and exact Pareto
// enumeration is exponential (hence small-n only).
//
// The headline section measures solve_batch(): the std::thread fan-out over
// an instance set versus the equivalent serial loop, the number the
// ROADMAP's batch-throughput goal tracks. The streaming cell pits
// solve_stream (bounded in-flight window, core/stream.hpp) against
// solve_batch (everything materialized) at one million tiny instances: the
// peak-RSS delta must scale with the window, not the batch. Run with
// --json to record the trajectory (BENCH_scaling.json).
//
// A storage-tier cell rides along (gated): the result-cache hit rate on a
// duplicate-heavy stream -- >= 95% of a 20k-record run drawn from 500
// distinct instances must be served from the cache
// (storage/result_cache.hpp), bit-identical by audit.
#include <iostream>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "common/dag_generators.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/pareto_enum.hpp"
#include "core/solver.hpp"
#include "core/stream.hpp"
#include "storage/result_cache.hpp"

namespace {

using namespace storesched;

Instance uniform_instance(std::size_t n, int m, std::uint64_t seed) {
  Rng rng(seed);
  GenParams gp;
  gp.n = n;
  gp.m = m;
  gp.p_max = 1000;
  gp.s_max = 1000;
  return generate_uniform(gp, rng);
}

/// The i-th tiny instance of the streaming cell (4 tasks, 2 processors),
/// generated on demand so the streaming side never materializes the set.
Instance tiny_instance(std::uint64_t i) {
  Rng rng(0x5712ea3 + i);
  std::vector<Task> tasks(4);
  for (Task& t : tasks) {
    t.p = rng.uniform_int(1, 9);
    t.s = rng.uniform_int(1, 9);
  }
  return Instance(std::move(tasks), 2);
}

/// Process-lifetime peak RSS in MiB (0.0 when unavailable). Monotonic by
/// definition, so phases must run low-water first: stream, then batch.
double peak_rss_mb() {
#if defined(__unix__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux (BSD/macOS report bytes; this cell only
    // gates on Linux CI where the benches run).
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
#endif
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::banner;
  using bench::time_ms;

  banner("EXT-E", "Wall-clock scaling via the unified solver API");
  bench::BenchReport report("scaling", argc, argv);

  // --- Per-solver single-instance scaling. -------------------------------
  struct Case {
    std::string spec;
    std::size_t n;
    int m;
    int iters;
  };
  const std::vector<Case> cases{
      {"sbo:lpt,delta=1", 100, 8, 50},    {"sbo:lpt,delta=1", 1000, 8, 20},
      {"sbo:lpt,delta=1", 10000, 8, 5},   {"sbo:lpt,delta=1", 10000, 64, 5},
      {"sbo:multifit,delta=1", 10000, 8, 5},
      {"sbo:ptas2,delta=1", 200, 8, 5},   {"sbo:ptas2,delta=1", 1000, 8, 3},
      {"rls:input,delta=3", 50, 8, 20},   {"rls:input,delta=3", 100, 8, 10},
      {"rls:input,delta=3", 200, 8, 5},   {"rls:input,delta=3", 400, 8, 3},
      {"tri:spt,delta=3", 100, 8, 10},    {"tri:spt,delta=3", 400, 8, 3},
      {"graham:lpt", 10000, 16, 10},
  };

  std::cout << "\nSingle-instance solve() latency (uniform workloads):\n";
  std::vector<std::vector<std::string>> rows;
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    const Instance inst = uniform_instance(c.n, c.m, seed++);
    const auto solver = make_solver(c.spec);
    solver->solve(inst);  // warm-up (page in code and data)
    const double total =
        time_ms([&] { for (int i = 0; i < c.iters; ++i) solver->solve(inst); });
    const double per_run = total / c.iters;
    rows.push_back({c.spec, std::to_string(c.n), std::to_string(c.m),
                    fmt(per_run, 3)});
    report.add("solve_latency", {{"spec", c.spec},
                                 {"n", c.n},
                                 {"m", c.m},
                                 {"ms_per_solve", per_run}});
  }
  std::cout << markdown_table({"solver spec", "n", "m", "ms/solve"}, rows);

  // --- RLS on DAG workloads. ---------------------------------------------
  std::cout << "\nRLS on layered DAGs (bottom-level priority):\n";
  std::vector<std::vector<std::string>> dag_rows;
  const auto dag_solver = make_solver("rls:bottom,delta=3");
  for (const std::size_t n : {50u, 100u, 200u, 400u}) {
    Rng rng(3);
    const Instance inst = generate_dag_by_name("layered", n, 8, {}, rng);
    dag_solver->solve(inst);
    const double per_run =
        time_ms([&] { for (int i = 0; i < 3; ++i) dag_solver->solve(inst); }) /
        3.0;
    dag_rows.push_back({std::to_string(n), fmt(per_run, 3)});
    report.add("rls_dag_latency", {{"n", n}, {"ms_per_solve", per_run}});
  }
  std::cout << markdown_table({"n", "ms/solve"}, dag_rows);

  // --- Exact Pareto enumeration (branch and bound; fine-grained weights
  // here are the hard regime -- bench_pareto_exact is the full study). ----
  std::cout << "\nExact Pareto enumeration (ground truth; m = 3):\n";
  std::vector<std::vector<std::string>> enum_rows;
  for (const std::size_t n : {10u, 14u, 18u, 20u}) {
    const Instance inst = uniform_instance(n, 3, 9);
    const double ms = time_ms([&] { enumerate_pareto(inst); });
    enum_rows.push_back({std::to_string(n), fmt(ms, 3)});
    report.add("pareto_enum_latency", {{"n", n}, {"ms", ms}});
  }
  std::cout << markdown_table({"n", "ms"}, enum_rows);

  // --- The headline: solve_batch() vs the serial loop. -------------------
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int batch_size = 64;
  std::vector<Instance> instances;
  instances.reserve(batch_size);
  for (int i = 0; i < batch_size; ++i) {
    instances.push_back(uniform_instance(250, 8, 0x1000 + i));
  }
  const auto batch_solver = make_solver("rls:input,delta=3");

  std::cout << "\nsolve_batch() throughput (" << batch_size
            << " RLS solves, n = 250, m = 8) on " << cores << " cores:\n";
  // Warm-up plus a correctness spot check: batch equals serial.
  const std::vector<SolveResult> serial_results =
      solve_batch(*batch_solver, instances, {}, {.threads = 1});
  const std::vector<SolveResult> batch_results =
      solve_batch(*batch_solver, instances);
  bool identical = true;
  for (int i = 0; i < batch_size; ++i) {
    if (serial_results[static_cast<std::size_t>(i)].objectives !=
        batch_results[static_cast<std::size_t>(i)].objectives) {
      identical = false;
    }
  }

  const double serial_ms = time_ms(
      [&] { solve_batch(*batch_solver, instances, {}, {.threads = 1}); });
  const double parallel_ms =
      time_ms([&] { solve_batch(*batch_solver, instances); });
  const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;

  std::vector<std::vector<std::string>> batch_rows;
  batch_rows.push_back({"serial loop (threads=1)", fmt(serial_ms, 1), "1.00"});
  batch_rows.push_back({"solve_batch (threads=" + std::to_string(cores) + ")",
                        fmt(parallel_ms, 1), fmt(speedup, 2)});
  std::cout << markdown_table({"runner", "wall ms", "speedup"}, batch_rows);
  std::cout << "(batch results identical to serial: "
            << (identical ? "yes" : "NO (bug!)") << ")\n";
  report.add("solve_batch_speedup",
             {{"instances", batch_size},
              {"n", 250},
              {"m", 8},
              {"spec", std::string("rls:input,delta=3")},
              {"cores", static_cast<std::int64_t>(cores)},
              {"serial_ms", serial_ms},
              {"batch_ms", parallel_ms},
              {"speedup", speedup},
              {"identical_results", identical}});

  // The >= 2x bar only applies where the parallelism exists to pay for it.
  const bool speedup_ok = cores < 4 || speedup >= 2.0;
  if (!speedup_ok) {
    std::cout << "solve_batch speedup below 2x on " << cores
              << " cores (bug!)\n";
  }

  // --- Streaming: solve_stream vs solve_batch at 1M tiny instances. ------
  // The point of the cell is the memory envelope, not the solver: the
  // streaming side generates instances on demand and folds results into a
  // checksum, so its peak RSS is O(window); the batch side materializes
  // 1M instances plus 1M SolveResults. peak_rss_mb() is monotonic, so the
  // low-water stream phase must run before the batch phase.
  const std::size_t stream_count = 1'000'000;
  const std::size_t stream_window = 256;
  const auto tiny_solver = make_solver("graham:lpt");
  std::cout << "\nsolve_stream vs solve_batch (" << stream_count
            << " tiny instances, n = 4, m = 2, graham:lpt, window = "
            << stream_window << "):\n";

  const double rss_start_mb = peak_rss_mb();
  std::size_t cursor = 0;
  GeneratorSource stream_source(
      [&]() -> std::optional<Instance> {
        if (cursor >= stream_count) return std::nullopt;
        return tiny_instance(cursor++);
      },
      stream_count);
  std::int64_t stream_cmax = 0;
  std::int64_t stream_mmax = 0;
  CallbackSink checksum_sink([&](std::size_t, SolveResult r) {
    stream_cmax += r.objectives.cmax;
    stream_mmax += r.objectives.mmax;
  });
  StreamOptions stream_opts;
  stream_opts.window = stream_window;
  stream_opts.ordered = false;
  StreamStats stream_stats;
  const double stream_ms = time_ms([&] {
    stream_stats =
        solve_stream(*tiny_solver, stream_source, checksum_sink, {}, stream_opts);
  });
  const double rss_stream_mb = peak_rss_mb();

  std::vector<Instance> tiny_batch;
  tiny_batch.reserve(stream_count);
  for (std::size_t i = 0; i < stream_count; ++i) {
    tiny_batch.push_back(tiny_instance(i));
  }
  std::int64_t batch_cmax = 0;
  std::int64_t batch_mmax = 0;
  double tiny_batch_ms = 0.0;
  {
    std::vector<SolveResult> results;
    tiny_batch_ms =
        time_ms([&] { results = solve_batch(*tiny_solver, tiny_batch); });
    for (const SolveResult& r : results) {
      batch_cmax += r.objectives.cmax;
      batch_mmax += r.objectives.mmax;
    }
  }
  const double rss_batch_mb = peak_rss_mb();

  const double stream_delta_mb = rss_stream_mb - rss_start_mb;
  const double batch_delta_mb = rss_batch_mb - rss_stream_mb;
  const bool stream_identical =
      stream_cmax == batch_cmax && stream_mmax == batch_mmax &&
      stream_stats.delivered == stream_count;
  const double stream_throughput =
      stream_ms > 0 ? 1000.0 * static_cast<double>(stream_count) / stream_ms
                    : 0.0;
  const double tiny_batch_throughput =
      tiny_batch_ms > 0
          ? 1000.0 * static_cast<double>(stream_count) / tiny_batch_ms
          : 0.0;

  std::vector<std::vector<std::string>> stream_rows;
  stream_rows.push_back({"solve_stream (window=" +
                             std::to_string(stream_window) + ")",
                         fmt(stream_ms, 0), fmt(stream_throughput / 1000, 1),
                         fmt(stream_delta_mb, 1)});
  stream_rows.push_back({"solve_batch (materialized)", fmt(tiny_batch_ms, 0),
                         fmt(tiny_batch_throughput / 1000, 1),
                         fmt(batch_delta_mb, 1)});
  std::cout << markdown_table(
      {"runner", "wall ms", "k inst/s", "peak RSS delta MiB"}, stream_rows);
  std::cout << "(stream max in flight: " << stream_stats.max_in_flight
            << "; objectives checksum identical: "
            << (stream_identical ? "yes" : "NO (bug!)") << ")\n";
  report.add("stream_vs_batch",
             {{"instances", stream_count},
              {"window", stream_window},
              {"spec", std::string("graham:lpt")},
              {"stream_ms", stream_ms},
              {"batch_ms", tiny_batch_ms},
              {"stream_throughput_per_s", stream_throughput},
              {"batch_throughput_per_s", tiny_batch_throughput},
              {"stream_peak_rss_delta_mb", stream_delta_mb},
              {"batch_peak_rss_delta_mb", batch_delta_mb},
              {"max_in_flight", stream_stats.max_in_flight},
              {"identical_objectives", stream_identical}});

  // Memory gate: the streaming envelope must be bounded by the window, not
  // the batch. The batch side allocates hundreds of MiB for 1M instances +
  // results; 64 MiB absorbs allocator noise when RSS readings are tiny.
  const bool stream_rss_ok =
      rss_batch_mb == 0.0 ||
      stream_delta_mb <= std::max(64.0, 0.25 * batch_delta_mb);
  if (!stream_rss_ok) {
    std::cout << "solve_stream peak RSS delta " << fmt(stream_delta_mb, 1)
              << " MiB is not bounded by the window (batch delta "
              << fmt(batch_delta_mb, 1) << " MiB) (bug!)\n";
  }

  // --- Result-cache hit rate on a duplicate-heavy stream. ----------------
  // 20k records drawn round-robin from 500 distinct instances: everything
  // after each instance's first visit must be a cache hit (the table holds
  // 4096 slots -- no capacity excuse), and the cached run must beat the
  // uncached one.
  const std::size_t distinct_count = 500;
  const std::size_t cached_total = 20'000;
  std::vector<Instance> distinct;
  distinct.reserve(distinct_count);
  for (std::size_t i = 0; i < distinct_count; ++i) {
    distinct.push_back(uniform_instance(40, 4, 0x9000 + i));
  }
  const auto cached_solver = make_solver("sbo:lpt,delta=3/2");
  const auto run_cached = [&](storage::SolveCache* cache) {
    std::size_t cursor2 = 0;
    GeneratorSource source(
        [&]() -> std::optional<Instance> {
          if (cursor2 >= cached_total) return std::nullopt;
          return distinct[cursor2++ % distinct_count];
        },
        cached_total);
    std::int64_t sum = 0;
    CallbackSink sink([&](std::size_t, SolveResult r) {
      sum += r.objectives.cmax;
    });
    StreamOptions opts;
    opts.cache = cache;
    StreamStats stats;
    const double ms =
        time_ms([&] { stats = solve_stream(*cached_solver, source, sink, {}, opts); });
    return std::tuple<double, StreamStats, std::int64_t>(ms, stats, sum);
  };

  std::cout << "\nResult-cache hit rate (" << cached_total << " records, "
            << distinct_count << " distinct, sbo:lpt,delta=3/2):\n";
  const auto [uncached_ms, uncached_stats, uncached_sum] = run_cached(nullptr);
  storage::SolveCache cache;
  const auto [cached_ms, cached_stats, cached_sum] = run_cached(&cache);
  const double hit_rate =
      static_cast<double>(cached_stats.cache_hits) /
      static_cast<double>(cached_stats.cache_hits + cached_stats.cache_misses);
  const bool cache_identical = cached_sum == uncached_sum;

  std::vector<std::vector<std::string>> cache_rows;
  cache_rows.push_back({"no cache", fmt(uncached_ms, 0), "-"});
  cache_rows.push_back(
      {"SolveCache", fmt(cached_ms, 0), fmt(100.0 * hit_rate, 1) + "%"});
  std::cout << markdown_table({"runner", "wall ms", "hit rate"}, cache_rows);
  std::cout << "(cache hits " << cached_stats.cache_hits << ", misses "
            << cached_stats.cache_misses << "; objectives checksum identical: "
            << (cache_identical ? "yes" : "NO (bug!)") << ")\n";
  report.add("cache_hit_rate", {{"records", cached_total},
                                {"distinct", distinct_count},
                                {"spec", std::string("sbo:lpt,delta=3/2")},
                                {"uncached_ms", uncached_ms},
                                {"cached_ms", cached_ms},
                                {"hits", cached_stats.cache_hits},
                                {"misses", cached_stats.cache_misses},
                                {"hit_rate", hit_rate},
                                {"identical_objectives", cache_identical}});

  const bool cache_ok = hit_rate >= 0.95 && cache_identical;
  if (!cache_ok) {
    std::cout << "cache hit rate " << fmt(100.0 * hit_rate, 1)
              << "% is below the 95% floor (bug!)\n";
  }

  report.finish();
  return identical && speedup_ok && stream_identical && stream_rss_ok &&
                 cache_ok
             ? 0
             : 1;
}
