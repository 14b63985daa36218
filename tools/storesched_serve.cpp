// storesched_serve -- the serving-tier front-end (src/serve/server.hpp).
//
// Listens on a unix-domain socket and/or TCP, speaks the JSONL request
// protocol (docs/SERVING.md), routes each request to the cheapest solver
// spec predicted to meet its SLO, and answers on the same connection:
//
//   ./storesched_serve --unix=/tmp/storesched.sock
//       --router='rls:bottom,delta=3;sbo:lpt,delta=3/2' &
//   printf '%s\n' '{"id":"a","instance":{"m":2,"tasks":[[3,1],[2,2]]}}'
//     | ./storesched_client --unix=/tmp/storesched.sock
//
// Readiness is announced on stderr ("[storesched_serve] listening on ...")
// once the sockets are bound and the workers are up -- supervisors and
// tests wait for that line, not a sleep. SIGTERM/SIGINT drain gracefully:
// stop accepting, answer everything admitted, flush, exit 0.
//
// Exit status: 0 clean drain, 1 runtime failure (bad spec, bind error), 2
// usage errors.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "storesched.hpp"

namespace {

using namespace storesched;

ServeServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->notify_shutdown();
}

struct ServeCli {
  ServeOptions options;
  std::string router_spec = "rls:bottom,delta=3;sbo:lpt,delta=3/2";
  std::string store_name;  ///< shm instance store to attach; empty = none
  bool cache = false;      ///< enable the result cache
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: storesched_serve [--unix=PATH] [--tcp=PORT] [options]\n"
        "\n"
        "Listeners (at least one):\n"
        "  --unix=PATH        unix-domain socket (stale files are reclaimed)\n"
        "  --tcp=PORT         TCP on 127.0.0.1 (0 = ephemeral; the bound\n"
        "                     port is in the readiness line)\n"
        "  --host=ADDR        TCP bind address (default 127.0.0.1)\n"
        "\n"
        "Service:\n"
        "  --router=SPECS     ';'-separated solver ladder, best quality\n"
        "                     first; the last rung is the degradation\n"
        "                     anchor (default rls:bottom,delta=3;\n"
        "                     sbo:lpt,delta=3/2)\n"
        "  --threads=N        solver workers (0 = hardware)\n"
        "  --conn-window=N    per-connection in-flight window (default 16)\n"
        "  --max-queue=N      admission queue bound (default 4096)\n"
        "  --max-line=BYTES   request line cap (default 1 MiB)\n"
        "  --capacity=N       memory capacity for constrained:* solvers\n"
        "  --validate         validate every feasible schedule\n"
        "  --schedule         include \"proc\"/\"start\" in responses\n"
        "\n"
        "Storage (docs/WIRE_FORMAT.md):\n"
        "  --store=NAME       attach the shm instance store NAME (published\n"
        "                     by storesched_cli --store-publish); enables\n"
        "                     {\"ref\":N} solve-by-reference requests\n"
        "  --cache            result cache keyed on the instance as given\n"
        "                     (exact duplicates hit); shared across\n"
        "                     processes when --store is set, private\n"
        "                     otherwise\n"
        "\n"
        "Protocol, SLO and priority fields, fairness model: docs/SERVING.md.\n"
        "SIGTERM/SIGINT drain gracefully and exit 0.\n";
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

std::int64_t parse_count_flag(const std::string& flag,
                              const std::string& value) {
  const std::int64_t v = parse_int_flag(flag, value);
  if (v < 0) {
    throw std::runtime_error(flag.substr(0, flag.find('=')) +
                             " must be non-negative, got " + value);
  }
  return v;
}

ServeCli parse_cli(int argc, char** argv) {
  ServeCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg.rfind("--unix=", 0) == 0) {
      cli.options.unix_path = value_of("--unix=");
    } else if (arg.rfind("--tcp=", 0) == 0) {
      // Saturated, so ServeServer's range check sees an oversized port
      // rather than its value wrapped into int.
      cli.options.tcp_port = static_cast<int>(
          std::min<std::int64_t>(parse_count_flag(arg, value_of("--tcp=")),
                                 std::numeric_limits<int>::max()));
    } else if (arg.rfind("--host=", 0) == 0) {
      cli.options.tcp_host = value_of("--host=");
    } else if (arg.rfind("--router=", 0) == 0) {
      cli.router_spec = value_of("--router=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.options.threads =
          static_cast<int>(parse_count_flag(arg, value_of("--threads=")));
    } else if (arg.rfind("--conn-window=", 0) == 0) {
      cli.options.conn_window = static_cast<std::size_t>(
          parse_count_flag(arg, value_of("--conn-window=")));
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      cli.options.max_queue = static_cast<std::size_t>(
          parse_count_flag(arg, value_of("--max-queue=")));
    } else if (arg.rfind("--max-line=", 0) == 0) {
      cli.options.max_line = static_cast<std::size_t>(
          parse_count_flag(arg, value_of("--max-line=")));
    } else if (arg.rfind("--capacity=", 0) == 0) {
      cli.options.solve.memory_capacity =
          parse_int_flag(arg, value_of("--capacity="));
    } else if (arg == "--validate") {
      cli.options.solve.validate = true;
    } else if (arg == "--schedule") {
      cli.options.result.include_schedule = true;
    } else if (arg.rfind("--store=", 0) == 0) {
      cli.store_name = value_of("--store=");
      if (cli.store_name.empty()) {
        throw std::runtime_error("--store needs a store name");
      }
    } else if (arg == "--cache") {
      cli.cache = true;
    } else {
      throw std::runtime_error("unknown option: " + arg);
    }
  }
  return cli;
}

std::vector<std::string> split_ladder(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string rung =
        spec.substr(start, semi == std::string::npos ? semi : semi - start);
    if (!rung.empty()) out.push_back(rung);
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ServeCli cli;
  try {
    cli = parse_cli(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "storesched_serve: " << err.what() << "\n";
    print_usage(std::cerr);
    return 2;
  }
  if (cli.help) {
    print_usage(std::cout);
    return 0;
  }
  cli.options.ladder = split_ladder(cli.router_spec);

  try {
    // Storage attachments outlive the server (ServeOptions carries bare
    // pointers): declared first, destroyed last.
    std::optional<storage::ShmStore> store;
    std::unique_ptr<storage::SolveCache> private_cache;
    if (!cli.store_name.empty()) {
      store.emplace(storage::ShmStore::attach(cli.store_name));
      cli.options.store = &*store;
      if (cli.cache) cli.options.cache = &store->cache();
      const storage::ShmStore::Info info = store->info();
      std::cerr << "[storesched_serve] store " << cli.store_name << ": epoch="
                << info.epoch << " instances=" << info.instances << "\n";
    } else if (cli.cache) {
      private_cache = std::make_unique<storage::SolveCache>();
      cli.options.cache = private_cache.get();
    }

    ServeServer server(cli.options);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    // One stable readiness line: supervisors and the cram suite wait for
    // it instead of sleeping (ephemeral TCP ports resolve here too).
    std::string where;
    if (!cli.options.unix_path.empty()) where += " unix:" + cli.options.unix_path;
    if (server.tcp_port() >= 0) {
      where += " tcp:" + cli.options.tcp_host + ":" +
               std::to_string(server.tcp_port());
    }
    std::cerr << "[storesched_serve] listening on" << where
              << " (workers=" << server.workers() << ")" << std::endl;

    server.wait_for_shutdown_request();
    server.shutdown();
    const ServeCounters counters = server.counters();
    std::cerr << "[storesched_serve] drained: requests=" << counters.requests
              << " responses=" << counters.responses
              << " rejected=" << counters.rejected
              << " deadline_expired=" << counters.deadline_expired;
    if (cli.cache) {
      // Cache-less runs keep the historical drain line byte-for-byte (the
      // cram suite pins it).
      const std::uint64_t consulted =
          counters.cache_hits + counters.cache_misses;
      std::cerr << " cache_hits=" << counters.cache_hits
                << " cache_misses=" << counters.cache_misses
                << " cache_hit_rate="
                << (consulted > 0 ? 100 * counters.cache_hits / consulted : 0)
                << "%";
    }
    std::cerr << "\n";
    return 0;
  } catch (const std::exception& err) {
    std::cerr << "storesched_serve: " << err.what() << "\n";
    return 1;
  }
}
