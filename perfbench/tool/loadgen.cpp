// The serve-mixed load generator: one thread, a few unix-socket
// connections, and the in-process oracle for every response.
//
// Open-loop phases send request j at t0 + j / rate no matter how the
// server keeps up; a request's latency runs from that *scheduled* time to
// the arrival of its response, so a stall (the server's or the
// generator's own) is charged to every request it delays. How late the
// generator itself sent is recorded per request (loadgen.late_ms).
// Closed-loop phases keep a fixed number of requests outstanding per
// connection and count answers per second.
//
//   perfbench_tool loadgen --socket=P --seed=S --server-pid=PID
//       --nominal-rps=R --limit-ms=L --seconds=X --phases=gated|all
//
// The phases of a run of X seconds are ServeMix's: a warm-up and the gated
// nominal phase, then, with --phases=all, the ungated saturation, ladder
// probes and serial phases. --phases=gated is the traced run's server
// split.
#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common.hpp"

namespace perfbench {

namespace {

using namespace storesched;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 &&
      errno != EINPROGRESS) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + err);
  }
  return fd;
}

/// Text after "\"key\":" in a flat response line, or nullopt.
std::optional<std::string_view> field(std::string_view line,
                                      std::string_view key) {
  std::string needle(1, '"');
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  return line.substr(at + needle.size());
}

double number_field(std::string_view line, std::string_view key,
                    double fallback = 0) {
  const auto v = field(line, key);
  if (!v) return fallback;
  return std::strtod(std::string(v->substr(0, 32)).c_str(), nullptr);
}

std::string string_field(std::string_view line, std::string_view key) {
  const auto v = field(line, key);
  if (!v || v->empty() || v->front() != '"') return {};
  const std::size_t end = v->find('"', 1);
  return std::string(v->substr(1, end - 1));
}

bool bool_field(std::string_view line, std::string_view key) {
  const auto v = field(line, key);
  return v && v->rfind("true", 0) == 0;
}

/// On-CPU nanoseconds of every thread of `pid` (schedstat), or -1.
double process_cpu_ns(int pid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(base.c_str());
  if (dir == nullptr) return -1;
  double total = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(base + "/" + entry->d_name + "/schedstat");
    double ns = 0;
    if (in >> ns) total += ns;
  }
  ::closedir(dir);
  return total;
}

/// Peak resident set of `pid` so far in KB (VmHWM), or -1.
double peak_rss_kb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return -1;
}

/// Steal time accrued on the whole box so far, in seconds (/proc/stat).
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

struct Request {
  TrafficRequest desc;
  std::string line;
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::string response;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t outstanding = 0;
};

class LoadGen {
 public:
  LoadGen(const std::string& socket_path, std::uint64_t seed, std::size_t connections)
      : stream_(seed) {
    for (std::size_t i = 0; i < connections; ++i) {
      Conn c;
      c.fd = connect_unix(socket_path);
      conns_.push_back(c);
    }
  }
  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  std::vector<Request>& requests() { return requests_; }
  const TrafficStream& stream() const { return stream_; }

  /// Open loop at `rate` for `seconds`. Returns the phase's request range.
  std::pair<std::size_t, std::size_t> open_loop(double rate, double seconds) {
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    const std::size_t first = requests_.size();
    for (std::size_t j = 0; j < count; ++j) make_request();
    const double gap_ns = 1e9 / rate;
    const std::int64_t t0 = now_ns() + 2'000'000;
    for (std::size_t j = 0; j < count; ++j) {
      requests_[first + j].sched_ns =
          t0 + static_cast<std::int64_t>(static_cast<double>(j) * gap_ns);
    }
    std::size_t next = first;
    const std::size_t end = first + count;
    std::size_t answered = 0;
    const std::int64_t give_up = t0 + static_cast<std::int64_t>(seconds * 1e9) +
                                 10'000'000'000LL;
    while (answered < count && now_ns() < give_up) {
      const std::int64_t now = now_ns();
      while (next < end && requests_[next].sched_ns <= now) {
        send(next, conns_[next % conns_.size()], now);
        ++next;
      }
      flush_all();
      std::int64_t wait = 50'000'000;
      if (next < end) wait = std::max<std::int64_t>(0, requests_[next].sched_ns - now_ns());
      answered += poll_once(wait);
    }
    return {first, end};
  }

  /// Closed loop: each of the first `connections` connections keeps
  /// `window` requests outstanding for `seconds`. Returns the answer rate
  /// of each 0.25 s window after the first fifth of the phase (the ramp).
  std::vector<double> closed_loop(std::size_t connections, std::size_t window,
                                  double seconds) {
    constexpr std::int64_t kWindowNs = 250'000'000;
    const std::int64_t t0 = now_ns();
    const std::int64_t t_count = t0 + static_cast<std::int64_t>(seconds * 0.2e9);
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t first = requests_.size();
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= t_end) break;
      for (std::size_t c = 0; c < connections; ++c) {
        while (conns_[c].outstanding < window) {
          const std::size_t idx = make_request();
          requests_[idx].sched_ns = now;
          send(idx, conns_[c], now);
        }
      }
      flush_all();
      poll_once(std::min<std::int64_t>(t_end - now, 20'000'000));
    }
    drain(first, 10'000'000'000LL);
    std::vector<double> rates(
        static_cast<std::size_t>(std::max<std::int64_t>(1, (t_end - t_count) / kWindowNs)), 0.0);
    for (std::size_t i = first; i < requests_.size(); ++i) {
      const std::int64_t r = requests_[i].recv_ns;
      if (r < t_count) continue;
      const auto k = static_cast<std::size_t>((r - t_count) / kWindowNs);
      if (k < rates.size()) rates[k] += 1e9 / static_cast<double>(kWindowNs);
    }
    return rates;
  }

  /// Waits until every request since `first` is answered or `timeout_ns`
  /// passes.
  void drain(std::size_t first, std::int64_t timeout_ns) {
    const std::int64_t give_up = now_ns() + timeout_ns;
    auto pending = [&] {
      for (std::size_t i = first; i < requests_.size(); ++i) {
        if (requests_[i].recv_ns == 0) return true;
      }
      return false;
    };
    while (pending() && now_ns() < give_up) {
      flush_all();
      poll_once(20'000'000);
    }
  }

  /// One {"statsz":true} round trip on the first connection.
  std::string statsz() {
    Conn& c = conns_[0];
    c.out += "{\"id\":\"statsz\",\"statsz\":true}\n";
    const std::int64_t give_up = now_ns() + 5'000'000'000LL;
    while (now_ns() < give_up) {
      flush_all();
      poll_once(20'000'000);
      if (!statsz_.empty()) break;
    }
    return statsz_;
  }

 private:
  std::size_t make_request() {
    Request r;
    r.desc = stream_.next();
    r.line = request_line(stream_.seed(), r.desc);
    r.line += '\n';
    requests_.push_back(std::move(r));
    return requests_.size() - 1;
  }

  void send(std::size_t idx, Conn& c, std::int64_t now) {
    c.out += requests_[idx].line;
    requests_[idx].sent_ns = now;
    ++c.outstanding;
  }

  void flush_all() {
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          throw std::runtime_error("send: " + std::string(std::strerror(errno)));
        }
        c.out_off += static_cast<std::size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  /// One poll round; returns the number of responses received.
  std::size_t poll_once(std::int64_t timeout_ns) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000LL);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000LL);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return 0;
    std::size_t got = 0;
    char buf[1 << 16];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        const std::int64_t t = now_ns();
        c.in.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
          const std::size_t nl = c.in.find('\n', start);
          if (nl == std::string::npos) break;
          got += on_response(c, std::string_view(c.in).substr(start, nl - start), t);
          start = nl + 1;
        }
        c.in.erase(0, start);
      }
    }
    return got;
  }

  std::size_t on_response(Conn& c, std::string_view line, std::int64_t t) {
    const std::string id = string_field(line, "id");
    if (id == "statsz") {
      statsz_ = std::string(line);
      return 0;
    }
    const std::size_t idx = std::stoull(id);
    if (idx >= requests_.size()) throw std::runtime_error("unknown response id " + id);
    requests_[idx].recv_ns = t;
    requests_[idx].response = std::string(line);
    if (c.outstanding > 0) --c.outstanding;
    return 1;
  }

  TrafficStream stream_;
  std::vector<Conn> conns_;
  std::vector<Request> requests_;
  std::string statsz_;
};

struct Objectives {
  bool feasible = false;
  std::int64_t cmax = 0;
  std::int64_t mmax = 0;
  bool operator==(const Objectives&) const = default;
};

/// The oracle: every answered request is re-solved in-process with the
/// spec that answered it. Working-set repeats may be answered from the
/// result cache, which folds a task permutation onto whichever variant of
/// the class it stored first (storage/canonical.hpp), so their answer may
/// equal the solve of either variant of the class; `folded` counts the
/// ones that match only the other variant. Everything else must equal the
/// solve of its own instance.
class Oracle {
 public:
  /// Solves, in process, every (instance variant, answering spec) pair the
  /// answered requests need.
  Oracle(std::uint64_t seed, const std::vector<Request>& requests) {
    std::map<std::string, std::vector<Instance>> batches;
    std::map<std::string, std::vector<Key>> batch_keys;
    auto want = [&](const TrafficRequest& desc, bool permuted,
                    const std::string& spec) {
      const Key key{identity(desc), permuted, spec};
      if (!wanted_.insert(key).second) return;
      TrafficRequest variant = desc;
      variant.permuted = permuted;
      batches[spec].push_back(request_instance(seed, variant));
      batch_keys[spec].push_back(key);
    };
    for (const Request& r : requests) {
      const std::string spec = answering_spec(r);
      if (spec.empty()) continue;
      want(r.desc, r.desc.permuted, spec);
      if (r.desc.working_set) want(r.desc, !r.desc.permuted, spec);
    }
    for (auto& [spec, instances] : batches) {
      const std::vector<SolveResult> results = solve_batch(spec, instances);
      for (std::size_t i = 0; i < results.size(); ++i) {
        solved_[batch_keys[spec][i]] =
            Objectives{results[i].feasible, results[i].objectives.cmax,
                       results[i].objectives.mmax};
      }
    }
  }

  enum class Verdict { kWrong, kCorrect, kFolded };

  Verdict judge(const Request& r) const {
    const std::string spec = answering_spec(r);
    if (spec.empty()) return Verdict::kWrong;
    Objectives got;
    got.feasible = bool_field(r.response, "feasible");
    if (got.feasible) {
      got.cmax = static_cast<std::int64_t>(number_field(r.response, "cmax"));
      got.mmax = static_cast<std::int64_t>(number_field(r.response, "mmax"));
    }
    const auto matches = [&](bool permuted) {
      const auto it = solved_.find(Key{identity(r.desc), permuted, spec});
      return it != solved_.end() && it->second == got;
    };
    if (matches(r.desc.permuted)) return Verdict::kCorrect;
    if (r.desc.working_set && matches(!r.desc.permuted)) return Verdict::kFolded;
    return Verdict::kWrong;
  }

 private:
  /// (store record or -(index + 1), permuted, spec)
  using Key = std::tuple<std::int64_t, bool, std::string>;

  static std::int64_t identity(const TrafficRequest& desc) {
    return desc.store_record >= 0 ? desc.store_record
                                  : -static_cast<std::int64_t>(desc.index) - 1;
  }

  /// The spec of an ok response, or "" for a failed or missing one.
  static std::string answering_spec(const Request& r) {
    if (r.response.empty() || !bool_field(r.response, "ok")) return {};
    return string_field(r.response, "spec");
  }

  std::set<Key> wanted_;
  std::map<Key, Objectives> solved_;
};

/// Corrupts one correct response's cmax and expects the oracle to reject
/// it: an oracle that cannot fail would make correct_share meaningless.
void oracle_self_test(const Oracle& oracle, const std::vector<Request>& requests) {
  for (const Request& r : requests) {
    if (oracle.judge(r) != Oracle::Verdict::kCorrect ||
        !bool_field(r.response, "feasible")) {
      continue;
    }
    Request bad = r;
    const std::size_t at = bad.response.find("\"cmax\":") + 7;
    bad.response.insert(at, 1, '1');
    if (oracle.judge(bad) != Oracle::Verdict::kWrong) {
      throw std::runtime_error("oracle self-test: a corrupted response passed");
    }
    return;
  }
  throw std::runtime_error("oracle self-test: no correct response to corrupt");
}

double latency_ms(const Request& r) {
  return static_cast<double>(r.recv_ns - r.sched_ns) / 1e6;
}

struct ProbeResult {
  double rate = 0;
  double achieved = 0;
  bool pass = false;
  double p99 = 0;
};

}  // namespace

int run_loadgen(const Flags& flags) {
  const std::string socket_path = flags.require("socket");
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const auto server_pid = static_cast<int>(flags.integer("server-pid"));
  const double nominal_rps = flags.real("nominal-rps");
  const double limit_ms = flags.real("limit-ms");
  const double seconds = flags.real("seconds");
  const std::string phases = flags.require("phases");
  if (phases != "gated" && phases != "all") {
    throw std::runtime_error("--phases must be gated or all");
  }
  const bool full = phases == "all";
  const double nominal_s = ServeMix::kNominalShare * seconds;
  const double saturation_s = ServeMix::kSaturationShare * seconds;
  const double probe_s = ServeMix::kProbeShare * seconds;
  const double serial_s = ServeMix::kSerialShare * seconds;
  LoadGen gen(socket_path, seed, ServeMix::kConnections);
  JsonOut out;

  gen.open_loop(nominal_rps, ServeMix::kWarmupS);

  const double steal0 = steal_seconds();
  const double cpu0 = process_cpu_ns(server_pid);
  const auto [nom_first, nom_end] = gen.open_loop(nominal_rps, nominal_s);
  const double cpu1 = process_cpu_ns(server_pid);
  const double steal1 = steal_seconds();
  // Read before the ungated phases, whose queues may grow the heap.
  const double rss_kb = peak_rss_kb(server_pid);
  gen.stream().check_pool("the gated phases");

  double saturation_rps = 0, serial_rps = 0;
  std::vector<ProbeResult> probes;
  if (full) {
    // Host steal only ever lowers a window's rate, so the fast quartile of
    // the windows is the phase's steadiest estimate; the median is printed
    // beside it.
    const std::vector<double> sat =
        gen.closed_loop(ServeMix::kConnections, ServeMix::kConnWindow, saturation_s);
    saturation_rps = percentile(sat, 0.75);
    out.num("saturation_rps.median", percentile(sat, 0.5));
    out.num("saturation.windows", static_cast<double>(sat.size()));
    // The fixed ladder: 1000 rps x 1.04^k. Binary search between the rung
    // under half the saturated rate and the one above 1.1x of it.
    auto rung_rate = [](int k) { return 1000.0 * std::pow(1.04, k); };
    auto rung_at = [&](double rate) {
      return static_cast<int>(std::floor(std::log(rate / 1000.0) / std::log(1.04)));
    };
    int lo = std::max(0, rung_at(0.5 * saturation_rps));
    int hi = std::max(lo + 1, rung_at(1.1 * saturation_rps) + 1);
    bool lo_probed = false;
    auto probe = [&](int k) {
      ProbeResult p;
      p.rate = rung_rate(k);
      const auto [first, end] = gen.open_loop(p.rate, probe_s);
      std::vector<double> lat, head, tail;
      std::size_t answered = 0;
      bool ok = true;
      const std::size_t quarter = std::max<std::size_t>(1, (end - first) / 4);
      for (std::size_t i = first; i < end; ++i) {
        const Request& r = gen.requests()[i];
        if (r.recv_ns == 0 || !bool_field(r.response, "ok")) {
          ok = false;
          continue;
        }
        ++answered;
        const double ms = latency_ms(r);
        lat.push_back(ms);
        if (i < first + quarter) head.push_back(ms);
        if (i >= end - quarter) tail.push_back(ms);
      }
      p.p99 = percentile(lat, 0.99);
      p.achieved = static_cast<double>(answered) / probe_s;
      // The backlog grows when the last quarter waits longer than the first.
      const bool steady = percentile(tail, 0.5) - percentile(head, 0.5) <= 5.0;
      p.pass = ok && p.p99 <= limit_ms && steady;
      probes.push_back(p);
      return p.pass;
    };
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (probe(mid)) {
        lo = mid;
        lo_probed = true;
      } else {
        hi = mid;
      }
    }
    while (!lo_probed && lo >= 0) {
      if (probe(lo)) break;
      --lo;
    }
    serial_rps = percentile(gen.closed_loop(1, 1, serial_s), 0.75);
  }
  const std::string statsz = gen.statsz();

  const std::vector<Request>& reqs = gen.requests();
  const Oracle oracle(seed, reqs);
  oracle_self_test(oracle, reqs);
  std::vector<bool> verdict(reqs.size(), false);
  std::size_t sent = reqs.size(), answered = 0, correct = 0, folded = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].response.empty()) ++answered;
    const Oracle::Verdict v = oracle.judge(reqs[i]);
    verdict[i] = v != Oracle::Verdict::kWrong;
    if (verdict[i]) ++correct;
    if (v == Oracle::Verdict::kFolded) ++folded;
  }

  // Nominal-phase latency, lateness, and the server's own split.
  std::vector<double> lat, late, queue, solve, overhead;
  std::size_t nom_within = 0;
  for (std::size_t i = nom_first; i < nom_end; ++i) {
    const Request& r = reqs[i];
    late.push_back(static_cast<double>(r.sent_ns - r.sched_ns) / 1e6);
    if (r.recv_ns == 0) continue;
    const double ms = latency_ms(r);
    lat.push_back(ms);
    if (verdict[i] && ms <= limit_ms) ++nom_within;
    const double q = number_field(r.response, "queue_ms");
    const double s = number_field(r.response, "solve_ms");
    queue.push_back(q);
    solve.push_back(s);
    overhead.push_back(ms - q - s);
  }
  const double nominal_count = static_cast<double>(nom_end - nom_first);
  out.num("sent", static_cast<double>(sent));
  out.num("answered", static_cast<double>(answered));
  out.num("correct", static_cast<double>(correct));
  out.num("folded", static_cast<double>(folded));
  out.num("nominal.sent", nominal_count);
  {
    std::size_t ok = 0;
    std::int64_t last = reqs[nom_first].sched_ns;
    for (std::size_t i = nom_first; i < nom_end; ++i) {
      if (reqs[i].recv_ns == 0 || !bool_field(reqs[i].response, "ok")) continue;
      ++ok;
      last = std::max(last, reqs[i].recv_ns);
    }
    out.num("nominal.answered_rps",
            static_cast<double>(ok) /
                (static_cast<double>(last - reqs[nom_first].sched_ns) / 1e9));
  }
  out.num("nominal.p50_ms", percentile(lat, 0.50));
  out.num("nominal.p99_ms", percentile(lat, 0.99));
  out.num("nominal.samples", static_cast<double>(lat.size()));
  out.num("nominal.slo_share", nom_within / std::max(1.0, nominal_count));
  out.num("nominal.cpu_ms_per_krecord",
          cpu0 < 0 || cpu1 < 0 ? 0.0 : (cpu1 - cpu0) / 1e6 / nominal_count * 1000.0);
  out.num("nominal.steal_s", steal1 - steal0);
  out.num("nominal.server_peak_rss_kb", rss_kb);
  out.num("loadgen.late_ms.p99", percentile(late, 0.99));
  out.num("loadgen.late_ms.max", percentile(late, 1.0));
  out.num("server.queue_ms.p50", percentile(queue, 0.50));
  out.num("server.queue_ms.p99", percentile(queue, 0.99));
  out.num("server.solve_ms.p50", percentile(solve, 0.50));
  out.num("server.solve_ms.p99", percentile(solve, 0.99));
  out.num("server.overhead_ms.p50", percentile(overhead, 0.50));
  out.num("server.overhead_ms.p99", percentile(overhead, 0.99));
  out.num("server.queue_peak", number_field(statsz, "queue_peak"));
  out.num("server.conn_window_peak", number_field(statsz, "window_peak"));
  out.num("server.rejected", number_field(statsz, "rejected"));
  out.num("server.cache_hits", number_field(statsz, "cache_hits"));
  out.num("server.cache_misses", number_field(statsz, "cache_misses"));
  if (full) {
    double max_rate = 0;
    for (const ProbeResult& p : probes) {
      if (p.pass && p.rate > max_rate) max_rate = p.rate;
    }
    double max_rate_achieved = 0;
    for (const ProbeResult& p : probes) {
      if (p.pass && p.rate == max_rate) max_rate_achieved = p.achieved;
    }
    out.num("saturation_rps", saturation_rps);
    out.num("serial_rps", serial_rps);
    out.num("max_rate_rps", max_rate_achieved);
    out.num("max_rate_rung", max_rate);
    out.num("probes", static_cast<double>(probes.size()));
    std::string trail;
    for (const ProbeResult& p : probes) {
      std::ostringstream os;
      os << (trail.empty() ? "" : " ") << static_cast<long>(p.rate)
         << (p.pass ? "+" : "-") << "(p99=" << p.p99 << ")";
      trail += os.str();
    }
    out.str("probe_trail", trail);
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
