// perfbench_tool -- the C++ half of the storesched end-to-end benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   prepare  --workload=W --seed=S --dir=D
//            writes the workload's inputs into D and, for the CLI
//            workloads, the in-process reference output (solve_batch +
//            result_to_jsonl) the CLI must match byte for byte
//   loadgen  ...  the serve-mixed socket load generator (loadgen.cpp)
//
// Every subcommand prints one JSON object on stdout. This binary uses only
// the library's public batch API (make_solver, solve_batch,
// result_to_jsonl), so the end-to-end runs keep building while internal
// interfaces change; the traced replay, which must call into each layer,
// is the separate perfbench_trace (trace.cpp).
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
int run_loadgen(const Flags& flags);
}  // namespace perfbench

namespace {

using namespace perfbench;
using namespace storesched;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string reference_output(const std::string& spec,
                             const std::vector<Instance>& instances) {
  const std::vector<SolveResult> results = solve_batch(spec, instances);
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += result_to_jsonl(i, results[i]);
    out += '\n';
  }
  return out;
}

int run_prepare(const Flags& flags) {
  const std::string workload = flags.require("workload");
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const std::string dir = flags.require("dir");
  JsonOut out;
  const auto start = Clock::now();
  if (workload == "serve-mixed") {
    std::string store;
    const std::size_t records = ServeMix::kWorkingSet + ServeMix::kUniquePool;
    for (std::size_t r = 0; r < records; ++r) {
      const Instance inst = store_instance(seed, r);
      const std::vector<Task> tasks(inst.tasks().begin(), inst.tasks().end());
      store += instance_line(inst.m(), tasks);
      store += '\n';
    }
    write_file(dir + "/store.jsonl", store);
    out.str("ladder", std::string(ServeMix::kSpecs[0]) + ";" + ServeMix::kSpecs[1]);
    out.num("workers", ServeMix::kWorkers);
    out.num("records", static_cast<double>(records));
    out.num("bytes", static_cast<double>(store.size()));
  } else {
    const CliWorkload w = cli_workload(workload);
    std::vector<Instance> instances;
    std::string input;
    for (std::size_t i = 0; i < w.records; ++i) {
      instances.push_back(cli_instance(w, seed, i));
      const std::vector<Task> tasks(instances.back().tasks().begin(),
                                    instances.back().tasks().end());
      input += instance_line(w.m, tasks);
      input += '\n';
    }
    write_file(dir + "/input.jsonl", input);
    write_file(dir + "/one.jsonl", input.substr(0, input.find('\n') + 1));
    const std::string expected = reference_output(w.spec, instances);
    write_file(dir + "/expected.jsonl", expected);
    write_file(dir + "/one.expected.jsonl",
               expected.substr(0, expected.find('\n') + 1));
    out.str("spec", w.spec);
    out.num("records", static_cast<double>(w.records));
    out.num("bytes", static_cast<double>(input.size()));
  }
  out.num("prepare_s", seconds_between(start, Clock::now()));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool prepare|loadgen "
                 "--key=value...\n";
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Flags flags(argc, argv, 2);
    if (command == "prepare") return run_prepare(flags);
    if (command == "loadgen") return run_loadgen(flags);
    std::cerr << "perfbench_tool: unknown command \"" << command << "\"\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << "\n";
    return 1;
  }
}
