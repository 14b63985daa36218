// Shared pieces of perfbench_tool and perfbench_trace: flags, clocks,
// percentiles, the JSON result object, and the seeded workload definitions
// that the generator, the load generator and the traced replay must agree
// on.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storesched.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// --key=value flags; a flag named twice keeps the last value. Every
/// getter throws when its flag is missing.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string require(const std::string& key) const;
  std::int64_t integer(const std::string& key) const;
  double real(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty. Sorts a copy.
double percentile(std::vector<double> sample, double q);

/// One flat JSON object of named numbers, printed in insertion order.
class JsonOut {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the library's generators change.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);
  double unit();  ///< uniform in [0, 1)

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream tag and an index into an independent seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index);

/// Instance families, cycled by record index: uniform, correlated,
/// anticorrelated, bimodal. Weights lie in [1, 100].
enum class Family { kUniform = 0, kCorrelated, kAnticorrelated, kBimodal };

std::vector<storesched::Task> generate_tasks(Family family, std::size_t n,
                                             SeededRng& rng);

/// The instance as one compact JSONL object (the CLI's input line).
std::string instance_line(int m, const std::vector<storesched::Task>& tasks);

// ---------------------------------------------------------------------------
// CLI workloads.
// ---------------------------------------------------------------------------

struct CliWorkload {
  std::string name;
  std::string spec;
  std::size_t n = 0;
  int m = 0;
  bool cycle_families = false;  ///< else every record is anticorrelated
  /// Records per pass: about one second at --threads=1 on a 4-core box.
  std::size_t records = 0;
  /// The span-name prefix of the wrappers the traced run's self-test
  /// silences: a layer that holds well over the unaccounted-time limit of
  /// the workload's CPU.
  const char* selftest_silence = "";
};

/// cli-tiny or cli-exact; throws on any other name.
CliWorkload cli_workload(const std::string& name);

/// Record `index` of the workload's input for `seed`.
storesched::Instance cli_instance(const CliWorkload& w, std::uint64_t seed,
                                  std::size_t index);

// ---------------------------------------------------------------------------
// serve-mixed traffic.
// ---------------------------------------------------------------------------

/// The serve-mixed constants. The working set is published first (store
/// records [0, kWorkingSet)), followed by a pool of records that the
/// unique {"ref":N} requests walk through in order. The pool holds every
/// unique ref of the gated phases of a 20 s run at 4,000 rps (about
/// 7,000); the ungated phases after them wrap around it.
struct ServeMix {
  static constexpr std::size_t kWorkingSet = 1500;
  static constexpr std::size_t kUniquePool = 7500;
  static constexpr int kM = 4;
  /// storesched_serve --threads: 2 workers + the event loop + the one
  /// generator thread fill a 4-core box.
  static constexpr unsigned kWorkers = 2;
  /// Generator connections, and the requests the server lets each have in
  /// flight (its default per-connection window).
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kConnWindow = 16;
  static constexpr const char* kSpecs[2] = {"sbo:lpt,delta=1", "graham:lpt"};
  static constexpr double kGenerousSloMs = 50.0;
  static constexpr double kTightSloMs = 0.02;
  /// Phases of a run of S seconds: a warm-up, the gated nominal phase,
  /// then (untraced runs) the ungated saturation, ladder-probe and serial
  /// phases, each a share of S.
  static constexpr double kWarmupS = 1.0;
  static constexpr double kNominalShare = 0.3;
  static constexpr double kSaturationShare = 0.2;
  static constexpr double kProbeShare = 0.05;
  static constexpr double kSerialShare = 0.05;
  /// The serve/protocol wrappers (framing and request parsing on the loop
  /// thread, response serializing on the workers): the traced run's
  /// self-test silences them.
  static constexpr const char* kSelftestSilence = "protocol.";

  /// Requests an open loop at `rate` sends in the warm-up and nominal
  /// phases of a run of `seconds`.
  static std::size_t gated_requests(double rate, double seconds);
};

/// One request of the serve-mixed stream, before rendering.
struct TrafficRequest {
  std::uint64_t index = 0;
  /// Working-set class in [0, kWorkingSet), a pool record (kWorkingSet +
  /// pool index), or -1 for a unique inline instance.
  std::int64_t store_record = -1;
  bool working_set = false;
  bool permuted = false;  ///< inline working-set repeat with shuffled tasks
  bool ref = false;
  int spec = -1;          ///< index into ServeMix::kSpecs, -1 = routed
  double slo_ms = 0;      ///< routed requests only
  int quality = 0;        ///< routed requests only
};

/// Deterministic request stream for one seed. next() must be called in
/// index order (the unique-pool cursor advances with the stream).
class TrafficStream {
 public:
  explicit TrafficStream(std::uint64_t seed) : seed_(seed) {}
  TrafficRequest next();
  std::uint64_t seed() const { return seed_; }
  /// Throws unless the unique refs sent so far all fit the pool, i.e. none
  /// repeated; `what` names the phase in the message.
  void check_pool(const std::string& what) const;

 private:
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
  std::uint64_t pool_cursor_ = 0;
};

/// Store record `r` (working set, then unique pool) for `seed`.
storesched::Instance store_instance(std::uint64_t seed, std::size_t record);

/// The instance a request carries: its store record (permuted for
/// permuted repeats) or its unique inline instance.
storesched::Instance request_instance(std::uint64_t seed,
                                      const TrafficRequest& request);

/// The request as one protocol line (no newline); "id" is the index.
std::string request_line(std::uint64_t seed, const TrafficRequest& request);

}  // namespace perfbench
