// storesched_cli -- JSONL solve service for shell-pipeline sharding.
//
// Reads one instance per line on stdin (the instance_to_jsonl() format,
// common/io.hpp) and streams one result per line on stdout via the bounded
// solve_stream pipeline (core/stream.hpp), so a million-instance study is
// a shell pipeline with O(window) memory per process:
//
//   ./storesched_cli --gen=1000000 > instances.jsonl
//   split -n l/8 instances.jsonl shard.
//   for s in shard.*; do
//     ./storesched_cli --spec=rls:input,delta=3 < "$s" > "$s.out" &
//   done; wait
//
// Modes:
//   --spec=SPEC                solve stdin JSONL -> stdout JSONL (default)
//   --gen=COUNT                emit COUNT synthetic instances as JSONL
//   --check --spec=S --expect=F  re-solve stdin in-process (solve_batch) and
//                              diff objectives against the result JSONL in F
//   --list-specs               print the canonical solver registry
//
// Fault tolerance (docs/ROBUSTNESS.md): --on-error picks the per-record
// failure policy (abort/skip/retry), --errors streams failed records as
// JSONL, and --journal/--resume give crash-safe exactly-once restart.
// SIGINT/SIGTERM cancel gracefully: in-flight solves finish, delivered
// work is journaled, and the exit code says what happened.
//
// Exit status: 0 success; 1 usage errors, malformed input under
// --on-error=abort (naming the line), or --check mismatches; 2 cancelled
// (signal or token); 3 completed with per-record failures recorded
// (skip/retry). Wire format details: docs/SOLVER_SPECS.md.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "storesched.hpp"

namespace {

using namespace storesched;

struct CliOptions {
  std::string spec;
  std::optional<Mem> capacity;
  bool validate = false;
  std::optional<double> deadline_ms;
  int threads = 0;
  std::size_t window = 0;
  bool ordered = true;
  bool include_schedule = false;
  std::string input_path;   // empty = stdin
  std::string output_path;  // empty = stdout

  // Fault tolerance.
  FailureAction on_error = FailureAction::kAbort;
  int retry_max = 3;
  std::string errors_path;   // empty = failures are counted, not recorded
  std::string journal_path;  // empty = no journal
  bool resume = false;
  std::size_t journal_every = 16;

  // --gen mode.
  std::optional<std::size_t> gen_count;
  std::size_t gen_n = 20;
  int gen_m = 4;
  std::string gen_kind = "uniform";  // or a DAG family via --gen-dag
  std::string gen_dag;
  std::uint64_t seed = 1;

  // --check mode.
  bool check = false;
  std::string expect_path;

  // Storage tier (docs/WIRE_FORMAT.md).
  storage::WireFormatKind format = storage::WireFormatKind::kAuto;
  bool convert = false;          // `convert` subcommand
  std::string convert_to = "binary";  // --to=binary|jsonl
  std::string store_name;        // --store=NAME: solve from the shm store
  std::string store_publish;     // --store-publish=NAME
  std::string store_info;        // --store-info=NAME
  std::string store_unlink;      // --store-unlink=NAME
  bool cache = false;            // --cache: result cache for solve mode

  bool list_specs = false;
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: storesched_cli --spec=SPEC [options] < in.jsonl > out.jsonl\n"
        "       storesched_cli --gen=COUNT [--gen-n=N] [--gen-m=M]\n"
        "                      [--gen-kind=KIND | --gen-dag=FAMILY] [--seed=S]\n"
        "       storesched_cli convert [--to=binary|jsonl] < in > out\n"
        "       storesched_cli --check --spec=SPEC --expect=RESULTS.jsonl\n"
        "       storesched_cli --store-publish=NAME < instances\n"
        "       storesched_cli --store-info=NAME | --store-unlink=NAME\n"
        "       storesched_cli --list-specs\n"
        "\n"
        "Solve mode (default): one instance JSON object per input line, one\n"
        "result JSON object per output line; O(window) memory, any input size.\n"
        "  --spec=SPEC        solver spec (docs/SOLVER_SPECS.md)\n"
        "  --capacity=N       memory capacity for constrained:* solvers\n"
        "  --validate         validate every feasible schedule\n"
        "  --deadline-ms=X    per-solve wall-clock budget (0 = none);\n"
        "                     over-budget solves come back infeasible with\n"
        "                     the cause in diagnostics\n"
        "  --threads=N        worker threads (0 = hardware)\n"
        "  --window=N         in-flight window (0 = adaptive: sized from\n"
        "                     observed result footprints under a 64 MiB\n"
        "                     ceiling; the chosen window is reported)\n"
        "  --as-completed     emit results as they finish (default: in input\n"
        "                     order); lines carry their input index either way\n"
        "  --schedule         include \"proc\" (and \"start\") in result lines\n"
        "  --input=P/--output=P  read/write files instead of stdin/stdout\n"
        "\n"
        "Fault tolerance (docs/ROBUSTNESS.md):\n"
        "  --on-error=POLICY  abort (default: first failure stops the run),\n"
        "                     skip (record the failure, keep streaming), or\n"
        "                     retry (re-attempt transient faults with\n"
        "                     backoff, then skip)\n"
        "  --retry-max=N      total attempts per record under retry "
        "(default 3)\n"
        "  --errors=P         write failed records as JSONL error records\n"
        "  --journal=P        append fsync'd progress checkpoints to P\n"
        "                     (requires --input/--output files, ordered "
        "mode)\n"
        "  --resume           continue from the journal: truncate outputs\n"
        "                     to the last checkpoint, skip the finished\n"
        "                     input prefix, keep global record indices\n"
        "  --journal-every=N  checkpoint every N records (default 16)\n"
        "SIGINT/SIGTERM cancel gracefully (in-flight work is delivered and\n"
        "journaled). Exit: 0 ok, 1 error/abort, 2 cancelled, 3 completed\n"
        "with recorded failures.\n"
        "\n"
        "Gen mode: KIND in {uniform, correlated, anticorrelated, bimodal},\n"
        "or --gen-dag in {layered, random, forkjoin, cholesky, fft, soc}.\n"
        "\n"
        "Storage (docs/WIRE_FORMAT.md):\n"
        "  --format=F         instance input wire: auto (default, sniffs the\n"
        "                     magic bytes), jsonl, or binary\n"
        "  convert --to=F     re-encode the input instances as binary\n"
        "                     (default) or jsonl; lossless both ways\n"
        "  --store-publish=N  publish the input instances into the named\n"
        "                     shared-memory store (atomic epoch swap;\n"
        "                     attached readers are never torn)\n"
        "  --store=N          solve from the named store's current epoch\n"
        "                     instead of stdin\n"
        "  --store-info=N     print the store's epoch, instance count, and\n"
        "                     result-cache counters\n"
        "  --store-unlink=N   remove every segment of the store, including\n"
        "                     orphans left by killed writers\n"
        "  --cache            canonicalization-keyed result cache for solve\n"
        "                     mode; shared when --store is set, private\n"
        "                     otherwise\n"
        "\n"
        "Check mode: re-solves the input instances in-process (solve_batch)\n"
        "and diffs feasibility + (Cmax, Mmax) against --expect; exits 1 on\n"
        "any mismatch. Accepts --capacity/--threads; --expect lines may be\n"
        "in any order (they carry indices).\n";
}

std::int64_t parse_int_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("malformed value for " + flag + ": \"" + value +
                             "\"");
  }
}

/// For count/size flags, where a negative would wrap to a huge size_t
/// (--gen=-1 must not stream 1.8e19 instances).
std::int64_t parse_count_flag(const std::string& flag,
                              const std::string& value) {
  const std::int64_t v = parse_int_flag(flag, value);
  if (v < 0) {
    throw std::runtime_error(flag.substr(0, flag.find('=')) +
                             " must be non-negative, got " + value);
  }
  return v;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--list-specs") {
      cli.list_specs = true;
    } else if (arg.rfind("--spec=", 0) == 0) {
      cli.spec = value_of("--spec=");
    } else if (arg.rfind("--capacity=", 0) == 0) {
      cli.capacity = parse_int_flag(arg, value_of("--capacity="));
    } else if (arg == "--validate") {
      cli.validate = true;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      cli.deadline_ms =
          static_cast<double>(parse_count_flag(arg, value_of("--deadline-ms=")));
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.threads =
          static_cast<int>(parse_int_flag(arg, value_of("--threads=")));
    } else if (arg.rfind("--window=", 0) == 0) {
      cli.window =
          static_cast<std::size_t>(parse_count_flag(arg, value_of("--window=")));
    } else if (arg == "--as-completed") {
      cli.ordered = false;
    } else if (arg == "--schedule") {
      cli.include_schedule = true;
    } else if (arg.rfind("--input=", 0) == 0) {
      cli.input_path = value_of("--input=");
    } else if (arg.rfind("--output=", 0) == 0) {
      cli.output_path = value_of("--output=");
    } else if (arg.rfind("--on-error=", 0) == 0) {
      const std::string value = value_of("--on-error=");
      if (value == "abort") {
        cli.on_error = FailureAction::kAbort;
      } else if (value == "skip") {
        cli.on_error = FailureAction::kSkip;
      } else if (value == "retry") {
        cli.on_error = FailureAction::kRetry;
      } else {
        throw std::runtime_error("--on-error must be abort, skip, or retry; " +
                                 ("got \"" + value + "\""));
      }
    } else if (arg.rfind("--retry-max=", 0) == 0) {
      cli.retry_max =
          static_cast<int>(parse_count_flag(arg, value_of("--retry-max=")));
      if (cli.retry_max < 1) {
        throw std::runtime_error("--retry-max must be >= 1");
      }
    } else if (arg.rfind("--errors=", 0) == 0) {
      cli.errors_path = value_of("--errors=");
    } else if (arg.rfind("--journal=", 0) == 0) {
      cli.journal_path = value_of("--journal=");
    } else if (arg == "--resume") {
      cli.resume = true;
    } else if (arg.rfind("--journal-every=", 0) == 0) {
      cli.journal_every = static_cast<std::size_t>(
          parse_count_flag(arg, value_of("--journal-every=")));
      if (cli.journal_every == 0) {
        throw std::runtime_error("--journal-every must be >= 1");
      }
    } else if (arg.rfind("--gen=", 0) == 0) {
      cli.gen_count =
          static_cast<std::size_t>(parse_count_flag(arg, value_of("--gen=")));
    } else if (arg.rfind("--gen-n=", 0) == 0) {
      cli.gen_n =
          static_cast<std::size_t>(parse_count_flag(arg, value_of("--gen-n=")));
    } else if (arg.rfind("--gen-m=", 0) == 0) {
      cli.gen_m = static_cast<int>(parse_int_flag(arg, value_of("--gen-m=")));
    } else if (arg.rfind("--gen-kind=", 0) == 0) {
      cli.gen_kind = value_of("--gen-kind=");
    } else if (arg.rfind("--gen-dag=", 0) == 0) {
      cli.gen_dag = value_of("--gen-dag=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      cli.seed =
          static_cast<std::uint64_t>(parse_int_flag(arg, value_of("--seed=")));
    } else if (arg == "--check") {
      cli.check = true;
    } else if (arg.rfind("--expect=", 0) == 0) {
      cli.expect_path = value_of("--expect=");
    } else if (arg == "convert") {
      cli.convert = true;
    } else if (arg.rfind("--to=", 0) == 0) {
      cli.convert_to = value_of("--to=");
      if (cli.convert_to != "binary" && cli.convert_to != "jsonl") {
        throw std::runtime_error("--to must be binary or jsonl, got \"" +
                                 cli.convert_to + "\"");
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      cli.format = storage::wire_format_from_string(value_of("--format="));
    } else if (arg.rfind("--store=", 0) == 0) {
      cli.store_name = value_of("--store=");
    } else if (arg.rfind("--store-publish=", 0) == 0) {
      cli.store_publish = value_of("--store-publish=");
    } else if (arg.rfind("--store-info=", 0) == 0) {
      cli.store_info = value_of("--store-info=");
    } else if (arg.rfind("--store-unlink=", 0) == 0) {
      cli.store_unlink = value_of("--store-unlink=");
    } else if (arg == "--cache") {
      cli.cache = true;
    } else {
      throw std::runtime_error("unknown flag \"" + arg +
                               "\" (--help for usage)");
    }
  }
  return cli;
}

SolveOptions solve_options_from(const CliOptions& cli) {
  SolveOptions options;
  options.memory_capacity = cli.capacity;
  options.validate = cli.validate;
  // 0 means "no deadline", matching the tool's --threads=0/--window=0
  // use-the-default convention (a 0 ns budget would fail every solve).
  if (cli.deadline_ms && *cli.deadline_ms > 0) {
    options.deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double, std::milli>(*cli.deadline_ms));
  }
  return options;
}

int run_gen(const CliOptions& cli, std::ostream& out) {
  Rng rng(cli.seed);
  for (std::size_t i = 0; i < *cli.gen_count; ++i) {
    Instance inst = [&] {
      if (!cli.gen_dag.empty()) {
        return generate_dag_by_name(cli.gen_dag, cli.gen_n, cli.gen_m, {},
                                    rng);
      }
      GenParams gp;
      gp.n = cli.gen_n;
      gp.m = cli.gen_m;
      return generate_by_name(cli.gen_kind, gp, rng);
    }();
    out << instance_to_jsonl(inst) << '\n';
  }
  // Same invariant as run_solve: a truncated instance file must not
  // exit 0, or a sharded study silently runs on fewer instances.
  out.flush();
  if (!out) throw std::runtime_error("writing instances failed");
  return 0;
}

/// Slurps every instance from `in`, honoring --format (auto sniffs the
/// magic bytes). The converter and the store publisher both need the full
/// set in memory: the binary container's section layout is global.
std::vector<Instance> read_instances(const CliOptions& cli, std::istream& in) {
  std::vector<Instance> instances;
  const auto source = storage::open_instance_source(in, cli.format);
  while (std::shared_ptr<const Instance> inst = source->next()) {
    instances.push_back(*inst);
  }
  return instances;
}

int run_convert(const CliOptions& cli, std::istream& in, std::ostream& out) {
  const std::vector<Instance> instances = read_instances(cli, in);
  if (cli.convert_to == "binary") {
    const std::string bytes = wire::encode_instances(instances);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  } else {
    for (const Instance& inst : instances) {
      out << instance_to_jsonl(inst) << '\n';
    }
  }
  out.flush();
  if (!out) throw std::runtime_error("writing converted instances failed");
  std::cerr << "[storesched_cli] convert: " << instances.size()
            << " instances -> " << cli.convert_to << "\n";
  return 0;
}

int run_store_publish(const CliOptions& cli, std::istream& in) {
  const std::vector<Instance> instances = read_instances(cli, in);
  storage::ShmStore store = storage::ShmStore::create(cli.store_publish);
  store.publish(wire::encode_instances(instances));
  const storage::ShmStore::Info info = store.info();
  std::cerr << "[storesched_cli] store " << cli.store_publish
            << ": published epoch " << info.epoch << " ("
            << info.instances << " instances, " << info.data_bytes
            << " bytes)\n";
  return 0;
}

int run_store_info(const CliOptions& cli, std::ostream& out) {
  storage::ShmStore store = storage::ShmStore::attach(cli.store_info);
  const storage::ShmStore::Info info = store.info();
  out << "{\"store\":\"" << json_escape(cli.store_info)
      << "\",\"epoch\":" << info.epoch
      << ",\"instances\":" << info.instances
      << ",\"data_bytes\":" << info.data_bytes
      << ",\"cache\":{\"hits\":" << info.cache.hits
      << ",\"misses\":" << info.cache.misses
      << ",\"inserts\":" << info.cache.inserts
      << ",\"bytes\":" << info.cache.bytes << "}}" << std::endl;
  if (!out) throw std::runtime_error("writing store info failed");
  return 0;
}

int run_store_unlink(const CliOptions& cli) {
  const std::size_t removed = storage::ShmStore::unlink(cli.store_unlink);
  std::cerr << "[storesched_cli] store " << cli.store_unlink << ": removed "
            << removed << " segment(s)\n";
  return 0;
}

// The SIGINT/SIGTERM handler cancels the run's token itself: a reasonless
// CancelToken::request_cancel() is one lock-free atomic store, safe in a
// handler. It also records which signal arrived, for the stderr summary.
std::atomic<CancelToken*> g_cancel{nullptr};
std::atomic<int> g_signal{0};
static_assert(std::atomic<CancelToken*>::is_always_lock_free &&
              std::atomic<int>::is_always_lock_free);

extern "C" void cli_signal_handler(int sig) {
  g_signal.store(sig);
  if (CancelToken* token = g_cancel.load()) token->request_cancel();
}

/// Turns SIGINT/SIGTERM into a cooperative cancel of `token` while alive:
/// in-flight solves finish, delivered work stays delivered (and
/// journaled), and the signal is named in the stderr summary.
class SignalCancel {
 public:
  explicit SignalCancel(CancelToken& token) {
    g_cancel.store(&token);
    std::signal(SIGINT, cli_signal_handler);
    std::signal(SIGTERM, cli_signal_handler);
  }
  ~SignalCancel() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_cancel.store(nullptr);
  }
  SignalCancel(const SignalCancel&) = delete;
  SignalCancel& operator=(const SignalCancel&) = delete;
};

/// "signal SIGTERM received" once a handled signal arrived, else empty.
std::string signal_reason() {
  const int sig = g_signal.load();
  if (sig == 0) return {};
  return std::string("signal ") +
         (sig == SIGINT    ? "SIGINT"
          : sig == SIGTERM ? "SIGTERM"
                           : std::to_string(sig)) +
         " received";
}

int exit_code_for(const StreamStats& stats) {
  if (stats.cancelled) return 2;
  if (stats.failed > 0) return 3;
  return 0;
}

void print_summary(const std::string& solver_name, const CliOptions& cli,
                   const StreamStats& stats) {
  std::cerr << "[storesched_cli] " << solver_name << ": " << stats.delivered
            << " results (" << stats.feasible << " feasible), max "
            << stats.max_in_flight << " in flight, window " << stats.window
            << (cli.window == 0 ? " (adaptive)" : "");
  if (cli.cache) {
    // Cache-less runs keep the historical summary byte-for-byte.
    std::cerr << ", cache " << stats.cache_hits << " hits / "
              << stats.cache_misses << " misses";
  }
  if (stats.failed > 0) std::cerr << ", " << stats.failed << " failed";
  if (stats.retries > 0) {
    std::cerr << ", " << stats.retries << " retries (" << stats.recovered
              << " recovered)";
  }
  if (stats.degraded_spawn) std::cerr << ", degraded (worker spawn failed)";
  std::cerr << "\n";
  if (stats.cancelled) {
    // Only the signal handler cancels the CLI's token.
    const std::string reason = signal_reason();
    std::cerr << "[storesched_cli] cancelled"
              << (reason.empty() ? std::string() : ": " + reason) << "\n";
  }
}

int run_solve(const CliOptions& cli, std::istream& in, std::ostream& out) {
  const auto solver = make_solver(cli.spec);

  StreamOptions stream;
  stream.threads = cli.threads;
  stream.window = cli.window;
  stream.ordered = cli.ordered;
  stream.on_error.action = cli.on_error;
  stream.on_error.retry.max_attempts = cli.retry_max;
  auto token = std::make_shared<CancelToken>();
  stream.cancel = token;
  const SignalCancel signals(*token);

  // Storage attachments must outlive the run (StreamOptions carries a bare
  // cache pointer; the shm source maps the store's bytes).
  std::optional<storage::ShmStore> store;
  std::unique_ptr<storage::SolveCache> private_cache;
  if (!cli.store_name.empty()) {
    store.emplace(storage::ShmStore::attach(cli.store_name));
  }
  if (cli.cache) {
    if (store) {
      stream.cache = &store->cache();
    } else {
      private_cache = std::make_unique<storage::SolveCache>();
      stream.cache = private_cache.get();
    }
  }

  StreamStats stats;
  if (!cli.journal_path.empty()) {
    if (store || cli.format == storage::WireFormatKind::kBinary) {
      throw std::runtime_error(
          "--journal resumes by re-reading JSONL files (drop --store / "
          "--format=binary)");
    }
    // Journaled path: the journal layer owns file lifecycles (it truncates
    // outputs to the checkpoint on resume), so it takes paths, not streams.
    if (cli.input_path.empty() || cli.output_path.empty()) {
      throw std::runtime_error(
          "--journal requires --input and --output files (resume re-reads "
          "and truncates them)");
    }
    if (!cli.ordered) {
      throw std::runtime_error(
          "--journal requires ordered delivery (drop --as-completed)");
    }
    if (cli.resume) {
      if (const auto cp = StreamJournal::load(cli.journal_path)) {
        std::cerr << "[storesched_cli] resuming at record " << cp->completed
                  << " (input line " << cp->source_lines << ", journal "
                  << cli.journal_path << ")\n";
      } else {
        std::cerr << "[storesched_cli] no usable journal at "
                  << cli.journal_path << ", starting fresh\n";
      }
    }
    JournaledRunOptions journal;
    journal.input_path = cli.input_path;
    journal.output_path = cli.output_path;
    journal.errors_path = cli.errors_path;
    journal.journal_path = cli.journal_path;
    journal.resume = cli.resume;
    journal.journal_every = cli.journal_every;
    journal.result_options.include_schedule = cli.include_schedule;
    stats = run_journaled_jsonl(*solver, journal, solve_options_from(cli),
                                stream);
  } else {
    if (cli.resume) {
      throw std::runtime_error("--resume requires --journal=PATH");
    }
    std::ofstream err_file;
    std::optional<JsonlErrorSink> err_sink;
    if (!cli.errors_path.empty()) {
      err_file.open(cli.errors_path);
      if (!err_file) {
        throw std::runtime_error("cannot write --errors=" + cli.errors_path);
      }
      err_sink.emplace(err_file);
      stream.errors = &*err_sink;
    }
    const std::unique_ptr<InstanceSource> source =
        store ? std::unique_ptr<InstanceSource>(
                    std::make_unique<storage::ShmInstanceSource>(*store))
              : storage::open_instance_source(in, cli.format);
    JsonlResultSink sink(out, {.include_schedule = cli.include_schedule});
    stats = solve_stream(*solver, *source, sink, solve_options_from(cli),
                         stream);
    // A result line lost to a failed final flush must not exit 0: a
    // downstream shard merge would silently drop it.
    out.flush();
    if (!out) throw std::runtime_error("writing results failed");
    if (err_sink) {
      err_file.flush();
      if (!err_file) throw std::runtime_error("writing error records failed");
    }
  }
  print_summary(solver->name(), cli, stats);
  return exit_code_for(stats);
}

/// Scans a result JSONL line for "key":<integer>. Returns nullopt when the
/// key is absent (e.g. cmax on an infeasible line).
std::optional<std::int64_t> scan_int_field(const std::string& line,
                                           const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stoll(line.substr(at + needle.size()));
}

int run_check(const CliOptions& cli, std::istream& in) {
  // Expected objectives, keyed by index (shards may emit out of order).
  std::ifstream expect(cli.expect_path);
  if (!expect) {
    throw std::runtime_error("cannot read --expect=" + cli.expect_path);
  }
  struct Expected {
    bool feasible = false;
    std::int64_t cmax = 0;
    std::int64_t mmax = 0;
  };
  std::vector<std::optional<Expected>> expected;
  std::string line;
  while (std::getline(expect, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::optional<std::int64_t> index = scan_int_field(line, "index");
    if (!index || *index < 0) {
      throw std::runtime_error("--expect line without an index: " + line);
    }
    Expected e;
    e.feasible = line.find("\"feasible\":true") != std::string::npos;
    if (e.feasible) {
      const auto cmax = scan_int_field(line, "cmax");
      const auto mmax = scan_int_field(line, "mmax");
      if (!cmax || !mmax) {
        throw std::runtime_error("--expect feasible line without objectives: " +
                                 line);
      }
      e.cmax = *cmax;
      e.mmax = *mmax;
    }
    const auto i = static_cast<std::size_t>(*index);
    if (i >= expected.size()) expected.resize(i + 1);
    if (expected[i]) {
      throw std::runtime_error("--expect has two lines for index " +
                               std::to_string(i));
    }
    expected[i] = e;
  }

  // Re-solve in-process through the batch API (itself a solve_stream
  // wrapper, but an independent path through VectorSink + solve_batch).
  const std::vector<Instance> instances = read_instances(cli, in);
  const std::vector<SolveResult> results = solve_batch(
      cli.spec, instances, solve_options_from(cli), {.threads = cli.threads});

  std::size_t mismatches = 0;
  if (expected.size() != results.size()) {
    std::cerr << "check: " << results.size() << " instances but "
              << expected.size() << " expected results\n";
    ++mismatches;
  }
  const std::size_t common = std::min(expected.size(), results.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!expected[i]) {
      std::cerr << "check: no expected result for index " << i << "\n";
      ++mismatches;
      continue;
    }
    const SolveResult& got = results[i];
    if (expected[i]->feasible != got.feasible) {
      std::cerr << "check: index " << i << " feasibility mismatch (expected "
                << expected[i]->feasible << ", solved " << got.feasible
                << ")\n";
      ++mismatches;
    } else if (got.feasible && (expected[i]->cmax != got.objectives.cmax ||
                                expected[i]->mmax != got.objectives.mmax)) {
      std::cerr << "check: index " << i << " objectives mismatch (expected ("
                << expected[i]->cmax << ", " << expected[i]->mmax
                << "), solved (" << got.objectives.cmax << ", "
                << got.objectives.mmax << "))\n";
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::cerr << "check: " << mismatches << " mismatch(es) against "
              << cli.expect_path << "\n";
    return 1;
  }
  std::cerr << "check: " << results.size() << " results match "
            << cli.expect_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every byte goes through iostreams (none through C stdio), so the
  // standard streams need not stay synchronized with it -- synchronized,
  // std::cin reads one character per call.
  std::ios::sync_with_stdio(false);
  try {
    const CliOptions cli = parse_cli(argc, argv);
    if (cli.help) {
      print_usage(std::cout);
      return 0;
    }
    if (cli.list_specs) {
      for (const std::string& spec : registered_solver_specs()) {
        std::cout << spec << '\n';
      }
      return 0;
    }
    if (cli.gen_count) {
      std::ofstream out_file;
      if (!cli.output_path.empty()) {
        out_file.open(cli.output_path);
        if (!out_file) {
          throw std::runtime_error("cannot write --output=" + cli.output_path);
        }
      }
      return run_gen(cli, cli.output_path.empty() ? std::cout : out_file);
    }
    if (!cli.store_unlink.empty()) return run_store_unlink(cli);
    if (!cli.store_info.empty()) return run_store_info(cli, std::cout);
    if (cli.convert || !cli.store_publish.empty()) {
      std::ifstream in_file;
      if (!cli.input_path.empty()) {
        in_file.open(cli.input_path, std::ios::binary);
        if (!in_file) {
          throw std::runtime_error("cannot read --input=" + cli.input_path);
        }
      }
      std::istream& in = cli.input_path.empty() ? std::cin : in_file;
      if (!cli.store_publish.empty()) return run_store_publish(cli, in);
      std::ofstream out_file;
      if (!cli.output_path.empty()) {
        out_file.open(cli.output_path, std::ios::binary);
        if (!out_file) {
          throw std::runtime_error("cannot write --output=" + cli.output_path);
        }
      }
      return run_convert(cli, in,
                         cli.output_path.empty() ? std::cout : out_file);
    }
    if (cli.spec.empty()) {
      print_usage(std::cerr);
      return 1;
    }

    // Journaled runs own their file lifecycles inside run_journaled_jsonl
    // (a resume must inspect and truncate the existing output, so opening
    // -- and thereby truncating -- it here would destroy the very state
    // being resumed). Only open streams here for the unjournaled paths.
    const bool journaled = !cli.journal_path.empty() && !cli.check;

    std::ifstream in_file;
    if (!cli.input_path.empty() && !journaled) {
      in_file.open(cli.input_path);
      if (!in_file) {
        throw std::runtime_error("cannot read --input=" + cli.input_path);
      }
    }
    std::istream& in =
        cli.input_path.empty() || journaled ? std::cin : in_file;

    if (cli.check) {
      if (cli.expect_path.empty()) {
        throw std::runtime_error("--check requires --expect=RESULTS.jsonl");
      }
      return run_check(cli, in);
    }

    std::ofstream out_file;
    if (!cli.output_path.empty() && !journaled) {
      out_file.open(cli.output_path);
      if (!out_file) {
        throw std::runtime_error("cannot write --output=" + cli.output_path);
      }
    }
    return run_solve(cli, in,
                     cli.output_path.empty() || journaled ? std::cout
                                                          : out_file);
  } catch (const std::exception& e) {
    std::cerr << "storesched_cli: " << e.what() << "\n";
    return 1;
  }
}
