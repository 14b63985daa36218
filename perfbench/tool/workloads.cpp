#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

using storesched::Instance;
using storesched::Task;

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --key=value, got \"" + arg + "\"");
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_.insert_or_assign(arg.substr(2), std::string(1, '1'));
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

std::string Flags::require(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::int64_t Flags::integer(const std::string& key) const {
  return std::stoll(require(key));
}

double Flags::real(const std::string& key) const {
  return std::stod(require(key));
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  return sample[std::min(sample.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void JsonOut::num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof buf, "%.9g", value);
  fields_.emplace_back(key, buf);
}

void JsonOut::str(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += storesched::json_escape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
}

std::string JsonOut::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ',';
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  return out + "}";
}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t SeededRng::uniform(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double SeededRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index) {
  SeededRng mix(seed ^ (tag * 0xD6E8FEB86659FD93ull));
  mix.next();
  SeededRng lane(mix.next() ^ (index * 0x9E3779B97F4A7C15ull));
  return lane.next();
}

namespace {

enum Tag : std::uint64_t { kCliTag = 1, kStoreTag, kUniqueTag, kPermTag, kReqTag };

std::int64_t clamp_weight(double w) {
  return std::clamp<std::int64_t>(std::llround(w), 1, 100);
}

}  // namespace

std::vector<Task> generate_tasks(Family family, std::size_t n,
                                 SeededRng& rng) {
  std::vector<Task> tasks(n);
  for (Task& t : tasks) {
    switch (family) {
      case Family::kUniform:
        t.p = rng.uniform(1, 100);
        t.s = rng.uniform(1, 100);
        break;
      case Family::kCorrelated:
        t.p = rng.uniform(1, 100);
        t.s = clamp_weight(static_cast<double>(t.p) * (0.8 + 0.4 * rng.unit()));
        break;
      case Family::kAnticorrelated:
        t.p = rng.uniform(1, 100);
        t.s = clamp_weight(static_cast<double>(101 - t.p) *
                           (0.8 + 0.4 * rng.unit()));
        break;
      case Family::kBimodal:
        if (rng.unit() < 0.2) {
          t.p = rng.uniform(90, 100);
          t.s = rng.uniform(90, 100);
        } else {
          t.p = rng.uniform(1, 50);
          t.s = rng.uniform(1, 50);
        }
        break;
    }
  }
  return tasks;
}

std::string instance_line(int m, const std::vector<Task>& tasks) {
  std::string out = "{\"m\":" + std::to_string(m) + ",\"tasks\":[";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i) out += ',';
    out += '[' + std::to_string(tasks[i].p) + ',' + std::to_string(tasks[i].s) +
           ']';
  }
  return out + "]}";
}

CliWorkload cli_workload(const std::string& name) {
  if (name == "cli-tiny") {
    return {name, "graham:lpt", 20, 4, true, 40000, "io."};
  }
  if (name == "cli-exact") {
    return {name, "pareto:exact", 12, 3, false, 300, "solver."};
  }
  throw std::runtime_error("unknown CLI workload \"" + name + "\"");
}

Instance cli_instance(const CliWorkload& w, std::uint64_t seed,
                      std::size_t index) {
  SeededRng rng(derive_seed(seed, kCliTag, index));
  const Family family = w.cycle_families ? static_cast<Family>(index % 4)
                                         : Family::kAnticorrelated;
  return Instance(generate_tasks(family, w.n, rng), w.m);
}

std::size_t ServeMix::gated_requests(double rate, double seconds) {
  // The same rounding as the load generator's open loop, phase by phase.
  return static_cast<std::size_t>(std::llround(rate * kWarmupS) +
                                  std::llround(rate * kNominalShare * seconds));
}

void TrafficStream::check_pool(const std::string& what) const {
  if (pool_cursor_ > ServeMix::kUniquePool) {
    throw std::runtime_error(
        what + " sent " + std::to_string(pool_cursor_) +
        " unique refs, more than the pool of " +
        std::to_string(ServeMix::kUniquePool) + ", so some repeated");
  }
}

TrafficRequest TrafficStream::next() {
  TrafficRequest r;
  r.index = index_++;
  SeededRng rng(derive_seed(seed_, kReqTag, r.index));
  r.working_set = rng.unit() < 0.5;
  r.ref = rng.unit() < 0.5;
  if (rng.unit() < 0.5) {
    r.spec = rng.unit() < 0.5 ? 0 : 1;
  } else {
    r.quality = rng.unit() < 0.5 ? 0 : 1;
    r.slo_ms = rng.unit() < 0.1 ? ServeMix::kTightSloMs
                                : ServeMix::kGenerousSloMs;
  }
  if (r.working_set) {
    r.store_record = rng.uniform(0, ServeMix::kWorkingSet - 1);
    r.permuted = !r.ref && rng.unit() < 0.5;
  } else if (r.ref) {
    r.store_record = static_cast<std::int64_t>(
        ServeMix::kWorkingSet + pool_cursor_++ % ServeMix::kUniquePool);
  }
  return r;
}

namespace {

/// Store records and unique instances alternate n = 20 / n = 128 and cycle
/// the four families.
Instance mixed_instance(std::uint64_t seed, std::uint64_t tag,
                        std::uint64_t index) {
  SeededRng rng(derive_seed(seed, tag, index));
  const std::size_t n = index % 2 == 0 ? 20 : 128;
  return Instance(
      generate_tasks(static_cast<Family>((index / 2) % 4), n, rng),
      ServeMix::kM);
}

}  // namespace

Instance store_instance(std::uint64_t seed, std::size_t record) {
  return mixed_instance(seed, kStoreTag, record);
}

Instance request_instance(std::uint64_t seed, const TrafficRequest& request) {
  if (request.store_record < 0) {
    return mixed_instance(seed, kUniqueTag, request.index);
  }
  Instance inst =
      store_instance(seed, static_cast<std::size_t>(request.store_record));
  if (!request.permuted) return inst;
  std::vector<Task> tasks(inst.tasks().begin(), inst.tasks().end());
  SeededRng rng(derive_seed(
      seed, kPermTag, static_cast<std::uint64_t>(request.store_record)));
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1],
              tasks[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return Instance(std::move(tasks), inst.m());
}

std::string request_line(std::uint64_t seed, const TrafficRequest& request) {
  std::string line = "{\"id\":\"" + std::to_string(request.index) + "\"";
  if (request.spec >= 0) {
    line += ",\"spec\":\"";
    line += ServeMix::kSpecs[request.spec];
    line += '"';
  } else {
    line += request.slo_ms == ServeMix::kTightSloMs ? ",\"slo_ms\":0.02"
                                                    : ",\"slo_ms\":50";
    if (request.quality > 0) {
      line += ",\"quality\":" + std::to_string(request.quality);
    }
  }
  if (request.ref) {
    line += ",\"ref\":" + std::to_string(request.store_record) + "}";
    return line;
  }
  const Instance inst = request_instance(seed, request);
  const std::vector<Task> tasks(inst.tasks().begin(), inst.tasks().end());
  return line + ",\"instance\":" + instance_line(inst.m(), tasks) + "}";
}

}  // namespace perfbench
