// The traced replay: a workload's inputs pushed in-process through each
// layer's public functions, with spans recorded by thin wrappers that live
// here, in the benchmark, not inside src/.
//
//   perfbench_trace --workload=cli-tiny|cli-exact --dir=D --threads=T
//       --trace-out=FILE
//   perfbench_trace --workload=serve-mixed --seed=S --dir=D --store=NAME
//       --nominal-rps=R --seconds=X --trace-out=FILE
//
// D holds what `perfbench_tool prepare` wrote for the same workload and
// seed. Prints one JSON object of per-layer metrics on stdout and the
// self-time table by layer on stderr.
//
// CLI workloads replay D/input.jsonl through solve_stream over a
// JsonlInstanceSource, the real solver and a JsonlResultSink, each behind
// a wrapper. serve-mixed replays the requests of a run's gated phases
// (warm-up and nominal at R rps for a run of X seconds) the way the server
// handles them: LineFramer -> serve_request_from_jsonl -> Router::route on
// the loop thread, then ShmStore::snapshot + InstanceView::materialize
// (refs) -> SolveCache::lookup -> Solver::solve -> SolveCache::insert ->
// serve_response_to_jsonl on a two-worker WorkerCrew. The store's JSONL is
// parsed through instance_from_jsonl first, as the publish does, and
// published into the shm store NAME (recreated for every pass, unlinked
// after).
//
// Each span has a name, start, end, parent and record id; spans stay in
// per-thread memory and are written once, at the end, as Chrome
// trace-event JSON.
//
// Accounting. One in kSampleEvery top-level spans of a thread, drawn at
// random, opens a sampling window: the thread's CPU clock is read at its
// edges, at its children's edges and at the start of the next top-level
// span. The gap between the two top-level spans splits in two: its
// off-CPU part is the code that made the calls waiting (solve_stream's
// lock and condition variable, the crew's queue) and becomes a derived
// wait span; its on-CPU part, less the measured cost of the clock reads,
// is work no layer span covers, as is the self CPU time of a span that
// only groups layer spans (server.job). trace.unaccounted_share is that
// time as a share of the windows' CPU time. A self-test round silences
// one layer's wrappers (the workload's selftest_silence) and reports the
// share again; run.py requires it to exceed the limit that the real
// rounds must stay under. The CLI accounting rounds run at --threads=1:
// at 4 threads solve_stream's own lock traffic takes 23-45% of the
// workers' CPU between spans (printed on stderr), which would hide any
// missing wrapper.
//
// Every replay runs five times silent and five times recording,
// alternating; the relative difference of the median process CPU times is
// trace.overhead_share.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>

#include "common.hpp"

namespace perfbench {

namespace {

using namespace storesched;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Top-level spans per sampling window in the rounds that give the
/// per-layer metrics, on average. A thread-CPU clock read is a system
/// call (about 0.4 us on a 4-vCPU Xeon VM); reading it at every span edge
/// more than doubled the recording rounds' CPU on cli-tiny. The windows
/// are drawn at random because spans come in cycles (parse, solve, sink)
/// that a fixed stride could alias. The CLI accounting rounds, whose CPU
/// is not compared, read the clock around every span.
constexpr std::uint64_t kSampleEvery = 32;

/// The CPU time the tracer itself puts between two spans: the tail of one
/// thread-CPU clock read and the head of the next, as the median of
/// back-to-back reads.
double empty_gap_cpu_ns() {
  std::vector<double> d(2001);
  for (double& x : d) {
    const std::int64_t a = thread_cpu_ns();
    x = static_cast<double>(thread_cpu_ns() - a);
  }
  return percentile(d, 0.5);
}

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t cpu_start = -1;  ///< thread CPU clock before `start`; -1 = not read
  std::int64_t cpu_end = -1;    ///< thread CPU clock after `end`; -1 = not read
  std::int64_t record = -1;
  int parent = -1;  ///< index of the parent span in the same thread, -1 = top level
  int tid = 0;
  bool window = false;  ///< opens a sampling window
  double dur_us() const { return static_cast<double>(end - start) / 1e3; }
  double cpu_ns() const { return static_cast<double>(cpu_end - cpu_start); }
};

/// Per-thread span buffers: open() and close() touch only the calling
/// thread's buffer; threads() may be called once every recording thread
/// has been joined.
class Recorder {
 public:
  /// Spans whose name starts with `silenced` (one layer's wrappers, as
  /// "protocol.") are never recorded: the self-test. One in `sample_every`
  /// top-level spans opens a sampling window.
  Recorder(bool enabled, std::uint64_t sample_every, std::string_view silenced = {})
      : enabled_(enabled), sample_every_(sample_every), silenced_(silenced),
        id_(next_id_++) {}
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread and returns its index, or -1 when
  /// not recording or when `name` is silenced.
  int open(const char* name, std::int64_t record, int parent = -1) {
    if (!enabled_ ||
        (!silenced_.empty() && std::string_view(name).starts_with(silenced_))) {
      return -1;
    }
    Local& local = mine();
    std::vector<Span>& spans = *local.spans;
    bool window = false;
    bool read_cpu = false;
    if (parent < 0) {
      window = local.sampler.next() % sample_every_ == 0;
      read_cpu = window || local.window_open;  // a window ends where the next span starts
      local.window_open = window;
    } else {
      read_cpu = spans[static_cast<std::size_t>(parent)].window;
    }
    const std::int64_t cpu = read_cpu ? thread_cpu_ns() : -1;
    spans.push_back(Span{name, now_ns(), 0, cpu, -1, record, parent, local.tid, window});
    return static_cast<int>(spans.size()) - 1;
  }

  /// Closes span `index` of the calling thread (no-op for -1).
  void close(int index) {
    if (index < 0) return;
    Span& s = (*mine().spans)[static_cast<std::size_t>(index)];
    s.end = now_ns();
    if (s.window || (s.parent >= 0 && s.cpu_start >= 0)) s.cpu_end = thread_cpu_ns();
  }

  Span* at(int index) {
    return index < 0 ? nullptr : &(*mine().spans)[static_cast<std::size_t>(index)];
  }

  std::vector<std::vector<Span>> threads() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<Span>> out;
    for (auto& b : buffers_) out.push_back(*b);
    return out;
  }

 private:
  struct Local {
    std::uint64_t owner = 0;
    std::vector<Span>* spans = nullptr;
    int tid = 0;
    SeededRng sampler{0};
    bool window_open = false;
  };

  Local& mine() {
    thread_local Local local;
    if (local.owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 16);
      const int tid = static_cast<int>(buffers_.size());
      local = Local{id_, buffers_.back().get(), tid,
                    SeededRng(static_cast<std::uint64_t>(tid)), false};
    }
    return local;
  }

  static inline std::atomic<std::uint64_t> next_id_{1};
  bool enabled_;
  std::uint64_t sample_every_;
  std::string_view silenced_;
  std::uint64_t id_;  ///< tells a thread's cached buffer from a dead recorder's
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::vector<double> durations_us(const std::vector<std::vector<Span>>& threads,
                                 const std::string& name) {
  std::vector<double> out;
  for (const auto& spans : threads) {
    for (const Span& s : spans) {
      if (name == s.name) out.push_back(s.dur_us());
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

/// Span names whose self time is charged to each layer, for the
/// self-time table printed on stderr. server.job only groups one
/// request's layer spans; its self time belongs to no layer.
const std::map<std::string, std::string>& layer_of() {
  static const std::map<std::string, std::string> m = {
      {"io.parse", "common/io"},
      {"io.eof", "common/io"},
      {"stream.sink", "core/stream"},
      {"stream.wait", "core/stream"},
      {"solver.solve", "core/solver"},
      {"cache.lookup", "storage/result_cache"},
      {"cache.insert", "storage/result_cache"},
      {"store.snapshot", "storage/shm_store"},
      {"store.view", "storage/shm_store"},
      {"store.materialize", "storage/shm_store"},
      {"protocol.frame", "serve/protocol"},
      {"protocol.request", "serve/protocol"},
      {"protocol.response", "serve/protocol"},
      {"router.route", "serve/router"},
      {"router.observe", "serve/router"},
      {"server.admit", "serve/server"},
      {"server.post", "serve/server"},
      {"server.wait", "serve/server"},
      {"server.job", "(no layer)"},
      {"unaccounted", "(no layer)"},
  };
  return m;
}

/// The CPU time of the sampling windows in [begin, end], split into what
/// layer spans cover and what none does.
struct Accounting {
  double covered_ns = 0;
  double unaccounted_ns = 0;
  double unaccounted_share() const {
    return unaccounted_ns / std::max(1.0, covered_ns + unaccounted_ns);
  }
};

/// Accounts each thread's sampling windows in [begin, end] and adds the
/// derived spans between consecutive top-level spans: the off-CPU part of
/// each gap as `wait_name` (the calling code waiting), the on-CPU part as
/// "unaccounted". Gaps outside a window are split in the proportion the
/// thread's windows measured.
Accounting account(std::vector<std::vector<Span>>& threads, std::int64_t begin,
                   std::int64_t end, const char* wait_name, double empty_gap_ns) {
  Accounting acc;
  for (auto& spans : threads) {
    // A grouping span's children: their CPU, and how many clock-read gaps
    // lie inside it (one before each child and one after the last).
    std::vector<double> child_cpu(spans.size(), 0.0);
    std::vector<int> child_gaps(spans.size(), 1);
    std::vector<std::size_t> tops;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) {
        child_cpu[static_cast<std::size_t>(s.parent)] += s.cpu_ns();
        ++child_gaps[static_cast<std::size_t>(s.parent)];
      } else if (s.start >= begin && s.end <= end) {
        tops.push_back(i);
      }
    }
    if (tops.empty()) continue;
    const int tid = spans.front().tid;
    double window_gap_ns = 0, window_on_ns = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> outside;  // gaps outside a window
    const auto split_gap = [&](std::int64_t from, std::int64_t to, double on) {
      const std::int64_t split = to - static_cast<std::int64_t>(on);
      if (split > from) spans.push_back(Span{wait_name, from, split, -1, -1, -1, -1, tid});
      if (to > split) spans.push_back(Span{"unaccounted", split, to, -1, -1, -1, -1, tid});
    };
    for (std::size_t k = 1; k < tops.size(); ++k) {
      const Span prev = spans[tops[k - 1]];
      const Span s = spans[tops[k]];
      const auto wall = static_cast<double>(s.start - prev.end);
      if (!prev.window || s.cpu_start < 0) {
        outside.emplace_back(prev.end, s.start);
        continue;
      }
      if (layer_of().at(prev.name) == "(no layer)") {
        const double self = prev.cpu_ns() - child_cpu[tops[k - 1]] -
                            empty_gap_ns * child_gaps[tops[k - 1]];
        acc.covered_ns += child_cpu[tops[k - 1]];
        acc.unaccounted_ns += std::max(0.0, self);
      } else {
        acc.covered_ns += prev.cpu_ns();
      }
      const double on = std::clamp(
          static_cast<double>(s.cpu_start - prev.cpu_end) - empty_gap_ns, 0.0, wall);
      acc.unaccounted_ns += on;
      window_gap_ns += wall;
      window_on_ns += on;
      split_gap(prev.end, s.start, on);
    }
    const double on_share = window_on_ns / std::max(1.0, window_gap_ns);
    for (const auto& [from, to] : outside) {
      split_gap(from, to, on_share * static_cast<double>(to - from));
    }
  }
  return acc;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& threads) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& spans : threads) {
    for (const Span& s : spans) origin = std::min(origin, s.start);
  }
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& spans : threads) {
    for (const Span& s : spans) {
      out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.start - origin) / 1e3
          << ",\"dur\":" << s.dur_us() << ",\"args\":{\"record\":" << s.record
          << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Prints each layer's self time (its spans minus their children), in ms
/// and as a share of all traced time.
void print_self_times(const std::vector<std::vector<Span>>& threads) {
  std::map<std::string, double> self;
  double total = 0;
  for (const auto& spans : threads) {
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double ns = static_cast<double>(spans[i].end - spans[i].start) - child[i];
      self[layer_of().at(spans[i].name)] += ns;
      total += ns;
    }
  }
  std::cerr << "self time by layer (ms, share of traced time):\n";
  for (const auto& [layer, ns] : self) {
    std::cerr << "  " << layer << ": " << ns / 1e6 << " ms, " << ns / total << "\n";
  }
}

/// Rounds that alternate silent and recording (the per-layer metrics and
/// the overhead); the accounting and self-test rounds come after them.
constexpr int kRounds = 10;

void put_trace_metrics(JsonOut& out, const std::vector<double>& cpu_silent,
                       const std::vector<double>& cpu_recording,
                       const Accounting& acc, const Accounting& selftest,
                       const char* silenced) {
  out.num("trace.overhead_share",
          percentile(cpu_recording, 0.5) / percentile(cpu_silent, 0.5) - 1.0);
  out.num("trace.unaccounted_share", acc.unaccounted_share());
  out.num("trace.selftest_unaccounted_share", selftest.unaccounted_share());
  out.str("trace.selftest_silenced", silenced);
}

// ---------------------------------------------------------------------------
// CLI replay.
// ---------------------------------------------------------------------------

thread_local std::int64_t tl_record = -1;

class TracedSource final : public InstanceSource {
 public:
  TracedSource(InstanceSource& inner, Recorder& rec) : inner_(inner), rec_(rec) {}
  std::shared_ptr<const Instance> next() override {
    if (!rec_.enabled()) return inner_.next();
    const int span = rec_.open("io.parse", next_index_);
    auto inst = inner_.next();
    rec_.close(span);
    if (inst) {
      tl_record = next_index_++;
    } else if (Span* s = rec_.at(span)) {
      s->name = "io.eof";
    }
    return inst;
  }
  std::optional<std::size_t> position() const override { return inner_.position(); }

 private:
  InstanceSource& inner_;
  Recorder& rec_;
  std::int64_t next_index_ = 0;
};

class TracedSolver final : public Solver {
 public:
  TracedSolver(const Solver& inner, Recorder& rec, std::vector<std::int64_t>& solve_end)
      : inner_(inner), rec_(rec), solve_end_(solve_end) {}
  std::string name() const override { return inner_.name(); }
  Capabilities capabilities(int m) const override { return inner_.capabilities(m); }

  mutable std::atomic<std::size_t> infeasible{0};

 protected:
  SolveResult do_solve(const Instance& inst, const SolveOptions& options) const override {
    if (!rec_.enabled()) return inner_.solve(inst, options);
    const int span = rec_.open("solver.solve", tl_record);
    SolveResult r = inner_.solve(inst, options);
    rec_.close(span);
    if (const Span* s = rec_.at(span)) {
      solve_end_[static_cast<std::size_t>(tl_record)] = s->end;
    }
    if (!r.feasible) infeasible.fetch_add(1);
    return r;
  }

 private:
  const Solver& inner_;
  Recorder& rec_;
  std::vector<std::int64_t>& solve_end_;
};

class TracedSink final : public ResultSink {
 public:
  TracedSink(ResultSink& inner, Recorder& rec, const std::vector<std::int64_t>& solve_end,
             std::vector<double>& deliver_wait_us)
      : inner_(inner), rec_(rec), solve_end_(solve_end), deliver_wait_us_(deliver_wait_us) {}
  void consume(std::size_t index, SolveResult result) override {
    if (!rec_.enabled()) return inner_.consume(index, std::move(result));
    const int span = rec_.open("stream.sink", static_cast<std::int64_t>(index));
    inner_.consume(index, std::move(result));
    rec_.close(span);
    const Span* s = rec_.at(span);
    if (s != nullptr && solve_end_[index] > 0) {
      deliver_wait_us_.push_back(static_cast<double>(s->start - solve_end_[index]) / 1e3);
    }
  }

 private:
  ResultSink& inner_;
  Recorder& rec_;
  const std::vector<std::int64_t>& solve_end_;
  std::vector<double>& deliver_wait_us_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CliReplay {
  std::vector<std::vector<Span>> spans;
  std::vector<double> deliver_wait_us;
  StreamStats stats;
  std::size_t infeasible = 0;
  double cpu_s = 0;
  Accounting acc;
  bool output_matches = false;
};

/// One solve_stream pass over `input` through the wrappers.
CliReplay replay_cli(const Solver& solver, const CliWorkload& w,
                     const std::string& input, const std::string& expected,
                     int threads, Recorder& rec, double empty_gap_ns) {
  CliReplay rep;
  std::vector<std::int64_t> solve_end(w.records, 0);
  rep.deliver_wait_us.reserve(w.records);
  std::istringstream in(input);
  std::ostringstream result_bytes;
  JsonlInstanceSource source(in);
  JsonlResultSink sink(result_bytes);
  TracedSource traced_source(source, rec);
  TracedSolver traced_solver(solver, rec, solve_end);
  TracedSink traced_sink(sink, rec, solve_end, rep.deliver_wait_us);
  StreamOptions stream;
  stream.threads = threads;
  const double c0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  rep.stats = solve_stream(traced_solver, traced_source, traced_sink, {}, stream);
  const std::int64_t t1 = now_ns();
  rep.cpu_s = process_cpu_s() - c0;
  rep.output_matches = result_bytes.str() == expected;
  rep.infeasible = traced_solver.infeasible.load();
  rep.spans = rec.threads();
  rep.acc = account(rep.spans, t0, t1, "stream.wait", empty_gap_ns);
  return rep;
}

}  // namespace

void trace_cli(const Flags& flags, JsonOut& out) {
  const CliWorkload w = cli_workload(flags.require("workload"));
  const std::string dir = flags.require("dir");
  const auto threads = static_cast<int>(flags.integer("threads"));
  const std::string input = read_file(dir + "/input.jsonl");
  const std::string expected = read_file(dir + "/expected.jsonl");
  const auto solver = make_solver(w.spec);
  const double empty_gap_ns = empty_gap_cpu_ns();

  std::vector<double> cpu_silent, cpu_recording;
  CliReplay rep;
  bool output_matches = true;
  for (int round = 0; round < kRounds; ++round) {
    Recorder rec(round % 2 == 1, kSampleEvery);
    CliReplay r = replay_cli(*solver, w, input, expected, threads, rec, empty_gap_ns);
    output_matches = output_matches && r.output_matches;
    (rec.enabled() ? cpu_recording : cpu_silent).push_back(r.cpu_s);
    if (rec.enabled()) rep = std::move(r);
  }
  // The accounting and its self-test run at one thread (file comment).
  Recorder one_rec(true, 1);
  const CliReplay one = replay_cli(*solver, w, input, expected, 1, one_rec, empty_gap_ns);
  Recorder selftest_rec(true, 1, w.selftest_silence);
  const CliReplay selftest =
      replay_cli(*solver, w, input, expected, 1, selftest_rec, empty_gap_ns);
  output_matches = output_matches && one.output_matches && selftest.output_matches;
  std::cerr << "at --threads=" << threads << ", " << rep.acc.unaccounted_share()
            << " of the sampled CPU lies between spans (solve_stream's own work)\n";
  const std::vector<std::vector<Span>>& spans = rep.spans;
  const StreamStats& stats = rep.stats;

  const std::vector<double> parse = durations_us(spans, "io.parse");
  const std::vector<double> solve = durations_us(spans, "solver.solve");
  const std::vector<double> sink = durations_us(spans, "stream.sink");
  const double busy = sum(parse) + sum(solve) + sum(sink);
  const double idle = sum(durations_us(spans, "stream.wait")) +
                      sum(durations_us(spans, "unaccounted"));

  out.num("io.parse_us.p50", percentile(parse, 0.50));
  out.num("io.parse_us.p99", percentile(parse, 0.99));
  out.num("io.parse_mb_s", static_cast<double>(input.size()) / std::max(1e-9, sum(parse)));
  out.num("io.records", static_cast<double>(parse.size()));
  out.num("io.errors", 0);
  out.num("stream.deliver_wait_us.p50", percentile(rep.deliver_wait_us, 0.50));
  out.num("stream.deliver_wait_us.p99", percentile(rep.deliver_wait_us, 0.99));
  out.num("stream.sink_us.p50", percentile(sink, 0.50));
  out.num("stream.busy_share", busy / std::max(1e-9, busy + idle));
  out.num("stream.max_in_flight", static_cast<double>(stats.max_in_flight));
  out.num("stream.window", static_cast<double>(stats.window));
  out.num("stream.failed", static_cast<double>(stats.failed));
  out.num("solver.solve_us.p50", percentile(solve, 0.50));
  out.num("solver.solve_us.p99", percentile(solve, 0.99));
  out.num(w.spec == "graham:lpt" ? "solver.graham_lpt.solve_us.p50"
                                 : "solver.pareto_exact.solve_us.p50",
          percentile(solve, 0.50));
  out.num("solver.solves", static_cast<double>(solve.size()));
  out.num("solver.infeasible", static_cast<double>(rep.infeasible));
  out.num("solver.errors", 0);
  put_trace_metrics(out, cpu_silent, cpu_recording, one.acc, selftest.acc,
                    w.selftest_silence);
  out.num("trace.output_matches", output_matches ? 1 : 0);
  print_self_times(spans);
  write_chrome_trace(flags.require("trace-out"), spans);
}


// ---------------------------------------------------------------------------
// serve-mixed replay.
// ---------------------------------------------------------------------------

namespace {

struct ServeReplay {
  std::int64_t begin = 0, end = 0;
  std::vector<std::vector<Span>> spans;
  double cpu_s = 0;
  double publish_s = 0;
  double view_us = 0;
  std::uint64_t skipped = 0;
  std::size_t routed = 0, rung0 = 0, rung1 = 0, degraded = 0, over_slo = 0;
  std::size_t parse_errors = 0, infeasible = 0;
  std::vector<double> hit_us, miss_us;
  std::map<std::string, std::vector<double>> solve_us_by_spec;
  double saved_us = 0;
};

/// One pass of the serve path over `chunks` (the request lines, framed as
/// the server reads them: up to 64 KiB per read). A fresh store, and so a
/// cold cache, per pass.
ServeReplay replay_serve(const std::string& store_name,
                         const std::vector<std::string>& store_lines,
                         const std::vector<TrafficRequest>& requests,
                         const std::string& chunks, Recorder& rec) {
  ServeReplay rep;
  const double c0 = process_cpu_s();

  // The publish path: parse the store's JSONL, encode, publish.
  std::vector<Instance> instances;
  instances.reserve(store_lines.size());
  for (std::size_t i = 0; i < store_lines.size(); ++i) {
    const int span = rec.open("io.parse", static_cast<std::int64_t>(i));
    instances.push_back(instance_from_jsonl(store_lines[i], i + 1));
    rec.close(span);
  }
  const std::int64_t p0 = now_ns();
  storage::ShmStore::unlink(store_name);
  storage::ShmStore store = storage::ShmStore::create(store_name);
  store.publish(wire::encode_instances(instances));
  rep.publish_s = static_cast<double>(now_ns() - p0) / 1e9;
  // Thread accounting covers the request replay only, not the publish.
  rep.begin = now_ns();

  Router router({ServeMix::kSpecs[0], ServeMix::kSpecs[1]});
  const std::unique_ptr<Solver> solvers[2] = {make_solver(ServeMix::kSpecs[0]),
                                              make_solver(ServeMix::kSpecs[1])};
  storage::SolveCache& cache = store.cache();
  // Guards the worker-side counters below, the shared store view and the
  // window.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::map<std::pair<std::int64_t, int>, double> cold_us;
  std::shared_ptr<storage::ShmMapping> mapping;
  std::unique_ptr<wire::InstanceView> view;

  const auto job = [&](ServeRequest& req, int spec_index, int rung,
                       const TrafficRequest& desc) {
    const auto record = static_cast<std::int64_t>(desc.index);
    const int job_span = rec.open("server.job", record);
    int post_span = -1;
    {
      std::shared_ptr<const Instance> inst = std::move(req.instance);
      if (!inst) {
        int span = rec.open("store.snapshot", record, job_span);
        const std::shared_ptr<storage::ShmMapping> snap = store.snapshot();
        rec.close(span);
        const wire::InstanceView* v = nullptr;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (!view) {
            span = rec.open("store.view", record, job_span);
            const std::int64_t v0 = now_ns();
            mapping = snap;
            view = std::make_unique<wire::InstanceView>(mapping->bytes());
            rep.view_us = static_cast<double>(now_ns() - v0) / 1e3;
            rec.close(span);
          }
          v = view.get();
        }
        span = rec.open("store.materialize", record, job_span);
        inst = std::make_shared<const Instance>(
            v->materialize(static_cast<std::size_t>(*req.ref)));
        rec.close(span);
      }
      const char* spec = ServeMix::kSpecs[spec_index];
      int span = rec.open("cache.lookup", record, job_span);
      const std::int64_t l0 = now_ns();
      std::optional<SolveResult> result = cache.lookup(*inst, spec, {});
      const double lookup_us = static_cast<double>(now_ns() - l0) / 1e3;
      rec.close(span);
      double solve_us = 0;
      const bool hit = result.has_value();
      if (!hit) {
        span = rec.open("solver.solve", record, job_span);
        const std::int64_t s0 = now_ns();
        result = solvers[spec_index]->solve(*inst, {});
        solve_us = static_cast<double>(now_ns() - s0) / 1e3;
        rec.close(span);
        span = rec.open("cache.insert", record, job_span);
        cache.insert(*inst, spec, {}, *result);
        rec.close(span);
        if (rung >= 0) {
          span = rec.open("router.observe", record, job_span);
          router.observe(static_cast<std::size_t>(rung), solve_us / 1e3);
          rec.close(span);
        }
      }
      span = rec.open("protocol.response", record, job_span);
      ServeResponse response;
      response.id = std::to_string(record);
      response.admission = ServeAdmission::kOk;
      response.spec = spec;
      response.rung = rung;
      response.result = &*result;
      const std::string line = serve_response_to_jsonl(response);
      rec.close(span);
      // Posting the reply: the server's workers take its mutex to queue the
      // response and free the connection's window slot, then release the
      // request's instance and result (the end of this scope).
      post_span = rec.open("server.post", record, job_span);
      {
        const std::pair<std::int64_t, int> key{
            desc.store_record >= 0 ? desc.store_record : -1 - record, spec_index};
        const std::lock_guard<std::mutex> lock(mu);
        if (hit) {
          rep.hit_us.push_back(lookup_us);
          const auto it = cold_us.find(key);
          if (it != cold_us.end()) rep.saved_us += it->second - lookup_us;
        } else {
          rep.miss_us.push_back(lookup_us);
          rep.solve_us_by_spec[spec].push_back(solve_us);
          if (!result->feasible) ++rep.infeasible;
          cold_us[key] = solve_us;
        }
        --in_flight;
      }
      cv.notify_all();
    }
    rec.close(post_span);
    rec.close(job_span);
  };

  {
    WorkerCrew crew(ServeMix::kWorkers);
    LineFramer framer(std::size_t{1} << 20);
    std::size_t next_request = 0;
    for (std::size_t off = 0; off < chunks.size(); off += std::size_t{1} << 16) {
      const std::size_t len =
          std::min<std::size_t>(std::size_t{1} << 16, chunks.size() - off);
      int span = rec.open("protocol.frame", -1);
      framer.feed(chunks.data() + off, len);
      std::vector<std::string> lines;
      while (auto line = framer.next()) lines.push_back(std::move(line->text));
      rec.close(span);
      for (const std::string& text : lines) {
        const TrafficRequest& desc = requests[next_request++];
        const auto record = static_cast<std::int64_t>(desc.index);
        span = rec.open("protocol.request", record);
        ServeRequest req;
        try {
          req = serve_request_from_jsonl(text);
        } catch (const std::exception&) {
          rec.close(span);
          ++rep.parse_errors;
          continue;
        }
        rec.close(span);
        int spec_index = req.spec == ServeMix::kSpecs[0] ? 0 : 1;
        int rung = -1;
        if (req.spec.empty()) {
          span = rec.open("router.route", record);
          const RouteDecision route =
              router.route(req.slo_ms, req.quality, crew.pending(), crew.workers());
          rec.close(span);
          rung = static_cast<int>(route.rung);
          spec_index = rung;
          ++rep.routed;
          ++(route.rung == 0 ? rep.rung0 : rep.rung1);
          if (route.degraded) ++rep.degraded;
          if (!route.met_slo) ++rep.over_slo;
        }
        // Admission: wait for a slot of the in-flight window (the server's
        // per-connection windows), then queue the job for the crew.
        span = rec.open("server.admit", record);
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return in_flight < ServeMix::kConnections * ServeMix::kConnWindow;
          });
          ++in_flight;
        }
        crew.submit([&job, req = std::move(req), spec_index, rung, &desc]() mutable {
          job(req, spec_index, rung, desc);
        });
        rec.close(span);
      }
    }
    crew.drain();
  }
  rep.end = now_ns();
  rep.skipped = cache.table_stats().skipped;
  rep.spans = rec.threads();
  rep.cpu_s = process_cpu_s() - c0;
  storage::ShmStore::unlink(store_name);
  return rep;
}

}  // namespace

void trace_serve(const Flags& flags, JsonOut& out) {
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const std::string dir = flags.require("dir");
  const std::size_t count =
      ServeMix::gated_requests(flags.real("nominal-rps"), flags.real("seconds"));
  const std::string store_name = flags.require("store");
  std::vector<std::string> store_lines;
  {
    std::istringstream in(read_file(dir + "/store.jsonl"));
    for (std::string line; std::getline(in, line);) store_lines.push_back(line);
  }
  std::vector<TrafficRequest> requests;
  std::string chunks;
  TrafficStream stream(seed);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(stream.next());
    chunks += request_line(seed, requests.back());
    chunks += '\n';
  }
  stream.check_pool("the traced replay");
  const double empty_gap_ns = empty_gap_cpu_ns();

  std::vector<double> cpu_silent, cpu_recording;
  ServeReplay rep;
  Accounting acc;
  for (int round = 0; round < kRounds; ++round) {
    Recorder rec(round % 2 == 1, kSampleEvery);
    ServeReplay r = replay_serve(store_name, store_lines, requests, chunks, rec);
    (rec.enabled() ? cpu_recording : cpu_silent).push_back(r.cpu_s);
    if (rec.enabled()) {
      acc = account(r.spans, r.begin, r.end, "server.wait", empty_gap_ns);
      rep = std::move(r);
    }
  }
  Recorder selftest_rec(true, kSampleEvery, ServeMix::kSelftestSilence);
  ServeReplay silenced =
      replay_serve(store_name, store_lines, requests, chunks, selftest_rec);
  const Accounting selftest =
      account(silenced.spans, silenced.begin, silenced.end, "server.wait", empty_gap_ns);

  const std::vector<double> parse = durations_us(rep.spans, "io.parse");
  const std::vector<double> frame = durations_us(rep.spans, "protocol.frame");
  const std::vector<double> request = durations_us(rep.spans, "protocol.request");
  const std::vector<double> response = durations_us(rep.spans, "protocol.response");
  const std::vector<double> route = durations_us(rep.spans, "router.route");
  const std::vector<double> materialize = durations_us(rep.spans, "store.materialize");
  const std::vector<double> insert = durations_us(rep.spans, "cache.insert");
  const std::vector<double> solve = durations_us(rep.spans, "solver.solve");
  std::size_t store_bytes = 0;
  for (const std::string& l : store_lines) store_bytes += l.size() + 1;
  const double routed = static_cast<double>(std::max<std::size_t>(1, rep.routed));
  const double consulted = static_cast<double>(
      std::max<std::size_t>(1, rep.hit_us.size() + rep.miss_us.size()));

  out.num("io.parse_us.p50", percentile(parse, 0.50));
  out.num("io.parse_us.p99", percentile(parse, 0.99));
  out.num("io.parse_mb_s", static_cast<double>(store_bytes) / std::max(1e-9, sum(parse)));
  out.num("io.records", static_cast<double>(parse.size()));
  out.num("io.errors", 0);
  out.num("solver.solve_us.p50", percentile(solve, 0.50));
  out.num("solver.solve_us.p99", percentile(solve, 0.99));
  out.num("solver.sbo_lpt.solve_us.p50",
          percentile(rep.solve_us_by_spec[ServeMix::kSpecs[0]], 0.50));
  out.num("solver.graham_lpt.solve_us.p50",
          percentile(rep.solve_us_by_spec[ServeMix::kSpecs[1]], 0.50));
  out.num("solver.solves", static_cast<double>(solve.size()));
  out.num("solver.infeasible", static_cast<double>(rep.infeasible));
  out.num("solver.errors", 0);
  out.num("cache.hit_us.p50", percentile(rep.hit_us, 0.50));
  out.num("cache.miss_us.p50", percentile(rep.miss_us, 0.50));
  out.num("cache.insert_us.p50", percentile(insert, 0.50));
  out.num("cache.hit_ratio", static_cast<double>(rep.hit_us.size()) / consulted);
  out.num("cache.skipped", static_cast<double>(rep.skipped));
  out.num("cache.saved_us", rep.saved_us);
  out.num("store.publish_s", rep.publish_s);
  out.num("store.view_us", rep.view_us);
  out.num("store.materialize_us.p50", percentile(materialize, 0.50));
  out.num("protocol.frame_us_per_kb",
          sum(frame) / std::max(1.0, static_cast<double>(chunks.size()) / 1024.0));
  out.num("protocol.request_us.p50", percentile(request, 0.50));
  out.num("protocol.request_us.p99", percentile(request, 0.99));
  out.num("protocol.response_us.p50", percentile(response, 0.50));
  out.num("protocol.errors", static_cast<double>(rep.parse_errors));
  out.num("router.route_us.p50", percentile(route, 0.50));
  out.num("router.rung_share.0", static_cast<double>(rep.rung0) / routed);
  out.num("router.rung_share.1", static_cast<double>(rep.rung1) / routed);
  out.num("router.degraded_share", static_cast<double>(rep.degraded) / routed);
  out.num("router.over_slo_share", static_cast<double>(rep.over_slo) / routed);
  put_trace_metrics(out, cpu_silent, cpu_recording, acc, selftest,
                    ServeMix::kSelftestSilence);
  print_self_times(rep.spans);
  write_chrome_trace(flags.require("trace-out"), rep.spans);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Flags flags(argc, argv, 1);
    perfbench::JsonOut out;
    if (flags.require("workload") == "serve-mixed") {
      perfbench::trace_serve(flags, out);
    } else {
      perfbench::trace_cli(flags, out);
    }
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}
