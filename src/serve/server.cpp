#include "serve/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>
#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "serve/protocol.hpp"
#include "storage/result_cache.hpp"
#include "storage/shm_store.hpp"
#include "storage/wire_format.hpp"

namespace storesched {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Whether a solver's cost grows about linearly with the instance: the
/// list schedulers graham:*, rls:* and tri:*, and sbo over ls or lpt. Only
/// these may run on the loop. pareto:exact, the fallback ladders, the
/// constrained solvers and sbo over multifit, k-opt, a PTAS or an exact
/// scheduler can cost far more on one instance than their observed cost
/// on others predicts. `spec` is a canonical Solver::name().
bool list_scheduling_spec(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const std::string_view family = spec.substr(0, colon);
  if (family == "graham" || family == "rls" || family == "tri") return true;
  if (family != "sbo" || colon == std::string_view::npos) return false;
  std::string_view algs = spec.substr(colon + 1);
  algs = algs.substr(0, algs.find(','));
  while (true) {
    const std::size_t slash = algs.find('/');
    const std::string_view alg = algs.substr(0, slash);
    if (alg != "ls" && alg != "lpt") return false;
    if (slash == std::string_view::npos) return true;
    algs.remove_prefix(slash + 1);
  }
}

/// Whether an instance is small enough for the loop: tasks, edges and
/// processors each at most ServeServer::kLoopSolveMaxSize.
bool loop_sized(std::size_t tasks, std::size_t edges, std::int64_t m) {
  constexpr std::size_t cap = ServeServer::kLoopSolveMaxSize;
  return tasks <= cap && edges <= cap && m <= static_cast<std::int64_t>(cap);
}

/// Readiness multiplexer: epoll where available, poll(2) elsewhere. Only
/// the event-loop thread touches it (a worker whose response needs the
/// loop -- to finish a write, re-arm a paused connection, or close one --
/// wakes it through the wake pipe instead), so it needs no locking.
/// Level-triggered on both backends: unread bytes and unaccepted
/// connections are re-reported, which is what lets a failed accept round
/// or a paused (windowed) connection resume without bookkeeping.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

#ifdef __linux__
  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) throw_errno("epoll_create1");
  }
  ~Poller() { ::close(epfd_); }

  void add(int fd, bool rd, bool wr) { ctl(EPOLL_CTL_ADD, fd, rd, wr); }
  void mod(int fd, bool rd, bool wr) { ctl(EPOLL_CTL_MOD, fd, rd, wr); }
  void del(int fd) {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(int timeout_ms, std::vector<Event>& out) {
    out.clear();
    buf_.resize(64);
    const int n = ::epoll_wait(epfd_, buf_.data(),
                               static_cast<int>(buf_.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      Event ev;
      ev.fd = buf_[static_cast<std::size_t>(i)].data.fd;
      const auto bits = buf_[static_cast<std::size_t>(i)].events;
      ev.readable = (bits & EPOLLIN) != 0;
      ev.writable = (bits & EPOLLOUT) != 0;
      ev.error = (bits & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(ev);
    }
  }

 private:
  void ctl(int op, int fd, bool rd, bool wr) {
    epoll_event ev{};
    ev.data.fd = fd;
    if (rd) ev.events |= EPOLLIN;
    if (wr) ev.events |= EPOLLOUT;
    if (::epoll_ctl(epfd_, op, fd, &ev) < 0) throw_errno("epoll_ctl");
  }

  int epfd_;
  std::vector<epoll_event> buf_;
#else
  void add(int fd, bool rd, bool wr) {
    pollfd p{};
    p.fd = fd;
    if (rd) p.events |= POLLIN;
    if (wr) p.events |= POLLOUT;
    fds_.push_back(p);
  }
  void mod(int fd, bool rd, bool wr) {
    for (auto& p : fds_) {
      if (p.fd != fd) continue;
      p.events = static_cast<short>((rd ? POLLIN : 0) | (wr ? POLLOUT : 0));
      return;
    }
  }
  void del(int fd) {
    fds_.erase(std::remove_if(fds_.begin(), fds_.end(),
                              [fd](const pollfd& p) { return p.fd == fd; }),
               fds_.end());
  }

  void wait(int timeout_ms, std::vector<Event>& out) {
    out.clear();
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const auto& p : fds_) {
      if (p.revents == 0) continue;
      Event ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & POLLIN) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(ev);
    }
  }

 private:
  std::vector<pollfd> fds_;
#endif
};

}  // namespace

struct ServeServer::Impl {
  explicit Impl(ServeServer& server) : outer(server) {}

  ServeServer& outer;

  /// One validated InstanceView per published store epoch, shared by
  /// every {"ref":N} request until the store republishes. The mapping
  /// member keeps the bytes the view points into alive.
  struct StoreView {
    std::shared_ptr<storage::ShmMapping> mapping;
    wire::InstanceView view;
  };

  /// One admitted request waiting for (or inside) a worker or the loop.
  struct Pending {
    std::uint64_t conn_id = 0;
    ServeRequest req;
    std::string spec;
    int rung = -1;
    ServeAdmission admission = ServeAdmission::kOk;
    Clock::time_point arrival;
    std::shared_ptr<CancelToken> cancel;
    /// A loop-solved ref's epoch view, taken at admission; null on the
    /// crew path, which resolves the ref when it solves.
    std::shared_ptr<const StoreView> view;
  };

  /// One framed line, parsed outside mu_ and waiting for admission.
  struct ParsedLine {
    ServeRequest req;
    /// Set when the line is no request (oversized, injected fault, parse
    /// error): the counter it bumps and the error it answers.
    std::uint64_t ServeCounters::*fault = nullptr;
    std::string error;
  };

  struct Connection {
    Connection(int fd_, std::uint64_t id_, std::size_t max_line)
        : fd(fd_), id(id_), framer(max_line) {}
    int fd;
    std::uint64_t id;
    // Loop thread only, touched without mu_: the framer and the lines it
    // yielded, parsed, in line order. A solve line waits at the front
    // while the in-flight window is full.
    LineFramer framer;
    std::deque<ParsedLine> parsed;
    // Guarded by mu_.
    std::string outbox;
    std::size_t out_off = 0;
    std::size_t in_flight = 0;
    bool reg_read = true;
    bool reg_write = false;
    bool peer_eof = false;
    std::unordered_map<std::string, std::shared_ptr<CancelToken>> cancelable;
  };

  // --- guarded by mu_ -------------------------------------------------
  // Only the loop thread adds or erases connections, so it looks them up
  // without mu_; every other thread holds mu_ to touch conns_.
  std::mutex mu_;
  std::unordered_map<int, Connection> conns_;            // fd -> connection
  std::unordered_map<std::uint64_t, int> conn_fd_;       // conn id -> fd
  std::array<std::deque<Pending>, 3> queue_;             // by priority class
  std::size_t queue_depth_ = 0;
  std::size_t inflight_total_ = 0;  ///< admitted, not yet delivered
  std::uint64_t next_conn_id_ = 1;
  ServeCounters counters_;
  bool draining_ = false;
  bool flush_exit_ = false;  ///< crew is gone; flush outboxes and stop
  Clock::time_point flush_deadline_;

  // --- solver cache (own mutex: workers resolve specs mid-solve) ------
  // Each built solver, whether it may run on the loop at all, and for the
  // specs requests name explicitly the EWMA of their cold-solve time, with
  // the router's smoothing factor. Routed requests read their rung's EWMA
  // in the router instead, so each solve feeds exactly one of the two.
  struct SolverEntry {
    std::shared_ptr<const Solver> solver;
    bool list_scheduling = false;    ///< list_scheduling_spec(name())
    std::optional<double> cost_ms;   ///< unset until the first cold solve
    bool pinned = false;             ///< pin_solver_cost(): solves skip it
  };
  std::mutex solvers_mu_;
  std::unordered_map<std::string, SolverEntry> solvers_;
  static constexpr std::size_t kSolverCacheCap = 128;

  // --- shm store view (own mutex: workers resolve refs mid-solve) -----
  std::mutex store_mu_;
  std::shared_ptr<const StoreView> store_view_;

  // --- loop-thread only -----------------------------------------------
  /// The request admission chose the loop to solve, served right after
  /// the upkeep pass that admitted it.
  std::optional<Pending> loop_pending_;
  /// Whether the loop's last poll found nothing ready and had to wait:
  /// only a pass after such a poll may give a request to the loop.
  bool loop_idle_ = false;
  Poller poller_;
  std::vector<Poller::Event> events_;
  std::vector<int> accept_fds_;
  std::vector<std::pair<int, bool>> ended_;  ///< fd, closed by a poll error

  // --- lifecycle ------------------------------------------------------
  int unix_listen_ = -1;
  int tcp_listen_ = -1;
  int bound_tcp_port_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  bool listeners_closed_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;  ///< serializes shutdown() callers
  std::atomic<bool> shutdown_requested_{false};
  std::mutex request_cv_mu_;
  std::condition_variable request_cv_;
  std::unique_ptr<WorkerCrew> crew_;
  std::thread loop_thread_;

  const ServeOptions& opts() const { return outer.options_; }
  Router& router() { return *outer.router_; }

  // ---------------------------------------------------------------- wake
  void wake() noexcept {
    const char byte = 'w';
    // A full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const auto n = ::write(wake_write_, &byte, 1);
  }

  void drain_wake() {
    char buf[256];
    while (::read(wake_read_, buf, sizeof buf) > 0) {
    }
  }

  // ------------------------------------------------------------- sockets
  int open_unix_listener(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("unix socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    set_nonblocking(fd);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      if (errno != EADDRINUSE) {
        ::close(fd);
        throw_errno("bind(" + path + ")");
      }
      // A socket file nobody answers on is a stale leftover (crashed
      // server); reclaim it. One a live server answers on is a conflict.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 &&
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
              0;
      if (probe >= 0) ::close(probe);
      if (live) {
        ::close(fd);
        throw std::runtime_error("unix socket already serving: " + path);
      }
      ::unlink(path.c_str());
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        ::close(fd);
        throw_errno("bind(" + path + ")");
      }
    }
    if (::listen(fd, 128) < 0) {
      ::close(fd);
      throw_errno("listen(" + path + ")");
    }
    return fd;
  }

  int open_tcp_listener(const std::string& host, int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("bad tcp host: " + host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_INET)");
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, 128) < 0) {
      ::close(fd);
      throw_errno("bind/listen(" + host + ":" + std::to_string(port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
    return fd;
  }

  // -------------------------------------------------------------- accept
  void do_accept(int listen_fd) {
    for (;;) {
      try {
        failpoint::hit("serve.accept");
      } catch (const InjectedFault&) {
        // Skip this accept round; the level-triggered poller re-reports
        // the pending connection next iteration.
        const std::lock_guard<std::mutex> lock(mu_);
        ++counters_.injected_faults;
        return;
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // EAGAIN or a transient kernel error: try again on report
      }
      set_nonblocking(fd);
      const std::lock_guard<std::mutex> lock(mu_);
      const std::uint64_t id = next_conn_id_++;
      conns_.emplace(fd, Connection(fd, id, opts().max_line));
      conn_fd_[id] = fd;
      ++counters_.connections_accepted;
      poller_.add(fd, true, false);
    }
  }

  // ------------------------------------------------------------ requests
  void enqueue_response(Connection& conn, const ServeResponse& response) {
    conn.outbox += serve_response_to_jsonl(response, opts().result);
    conn.outbox += '\n';
    ++counters_.responses;
  }

  void enqueue_error(Connection& conn, const std::string& id,
                     const std::string& error,
                     std::optional<ServeAdmission> admission = std::nullopt) {
    ServeResponse response;
    response.id = id;
    response.ok = false;
    response.error = error;
    response.admission = admission;
    enqueue_response(conn, response);
  }

  std::string statsz_line(const std::string& id) {
    ++counters_.statsz_requests;
    std::string out = "{";
    if (!id.empty()) out += "\"id\":\"" + json_escape(id) + "\",";
    out += "\"ok\":true,\"statsz\":{";
    out += "\"draining\":" + std::string(draining_ ? "true" : "false");
    out += ",\"workers\":" + std::to_string(crew_ ? crew_->workers() : 0);
    out += ",\"queue_depth\":" + std::to_string(queue_depth_);
    out += ",\"queue_peak\":" + std::to_string(counters_.queue_peak);
    out += ",\"connections\":{\"accepted\":" +
           std::to_string(counters_.connections_accepted) +
           ",\"open\":" + std::to_string(conns_.size()) +
           ",\"window_peak\":" + std::to_string(counters_.conn_window_peak) +
           "}";
    out += ",\"requests\":" + std::to_string(counters_.requests);
    out += ",\"responses\":" + std::to_string(counters_.responses);
    out += ",\"loop_solves\":" + std::to_string(counters_.loop_solves);
    out += ",\"parse_errors\":" + std::to_string(counters_.parse_errors);
    out += ",\"oversized_lines\":" + std::to_string(counters_.oversized_lines);
    out += ",\"admissions\":{\"ok\":" + std::to_string(counters_.admitted_ok) +
           ",\"degraded\":" + std::to_string(counters_.admitted_degraded) +
           ",\"over_slo\":" + std::to_string(counters_.admitted_over_slo) +
           ",\"rejected\":" + std::to_string(counters_.rejected) + "}";
    out +=
        ",\"deadline_expired\":" + std::to_string(counters_.deadline_expired);
    out += ",\"cancelled\":" + std::to_string(counters_.cancelled);
    out += ",\"solve_errors\":" + std::to_string(counters_.solve_errors);
    out += ",\"cache_hits\":" + std::to_string(counters_.cache_hits);
    out += ",\"cache_misses\":" + std::to_string(counters_.cache_misses);
    out += ",\"cache_bytes\":" +
           std::to_string(opts().cache != nullptr
                              ? opts().cache->table_stats().bytes
                              : 0);
    out += ",\"injected_faults\":" + std::to_string(counters_.injected_faults);
    out += ",\"statsz_requests\":" + std::to_string(counters_.statsz_requests);
    out += ",\"rungs\":[";
    const auto rungs = router().snapshot();
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      if (r) out += ',';
      out += "{\"rung\":" + std::to_string(r) + ",\"spec\":\"" +
             json_escape(rungs[r].spec) + "\",\"ewma_ms\":" +
             fmt(rungs[r].ewma_ms, 4) +
             ",\"served\":" + std::to_string(rungs[r].served) + "}";
    }
    out += "]}}";
    return out;
  }

  /// Parses one framed line, outside mu_. The serve.request failpoint
  /// fires once per line, before the parse.
  ParsedLine parse_line(const LineFramer::Line& line) {
    ParsedLine out;
    if (line.oversized) {
      out.fault = &ServeCounters::oversized_lines;
      out.error =
          "request line exceeds " + std::to_string(opts().max_line) + " bytes";
      return out;
    }
    try {
      failpoint::hit("serve.request");
      out.req = serve_request_from_jsonl(line.text);
    } catch (const InjectedFault& fault) {
      out.fault = &ServeCounters::injected_faults;
      out.error = std::string("injected fault: ") + fault.what();
    } catch (const std::exception& err) {
      out.fault = &ServeCounters::parse_errors;
      out.error = err.what();
    }
    return out;
  }

  /// Answers or admits one parsed request. Returns false (and has no
  /// effect) only when it is a solve request that must wait for the
  /// connection's in-flight window.
  bool handle_request(Connection& conn, ServeRequest& req) {
    if (req.statsz) {
      conn.outbox += statsz_line(req.id);
      conn.outbox += '\n';
      ++counters_.responses;
      return true;
    }

    if (!req.cancel_id.empty()) {
      const auto it = conn.cancelable.find(req.cancel_id);
      if (it == conn.cancelable.end()) {
        enqueue_error(conn, req.id,
                      "cancel: unknown or already answered id \"" +
                          req.cancel_id + "\"");
      } else {
        it->second->request_cancel("cancelled by client");
        ++counters_.cancelled;
        ServeResponse ack;
        ack.id = req.id;
        ack.cancel_ack = req.cancel_id;
        enqueue_response(conn, ack);
      }
      return true;
    }

    if (req.ref && opts().store == nullptr) {
      enqueue_error(conn, req.id,
                    "\"ref\" requests need an attached instance store "
                    "(start the server with --store=<name>)");
      return true;
    }

    // Solve request: admission.
    if (!draining_ && conn.in_flight >= opts().conn_window) return false;
    ++counters_.requests;
    if (draining_) {
      ++counters_.rejected;
      enqueue_error(conn, req.id, "server is draining",
                    ServeAdmission::kRejected);
      return true;
    }
    if (queue_depth_ >= opts().max_queue) {
      ++counters_.rejected;
      enqueue_error(
          conn, req.id,
          "queue full (" + std::to_string(opts().max_queue) + " pending)",
          ServeAdmission::kRejected);
      return true;
    }

    Pending pending;
    pending.conn_id = conn.id;
    pending.arrival = Clock::now();
    pending.cancel = std::make_shared<CancelToken>();
    if (!req.spec.empty()) {
      pending.spec = req.spec;
      pending.rung = -1;
      pending.admission = ServeAdmission::kOk;
    } else {
      const RouteDecision route = router().route(
          req.slo_ms, req.quality, queue_depth_, crew_->workers());
      pending.spec = route.spec;
      pending.rung = static_cast<int>(route.rung);
      pending.admission = !route.met_slo ? ServeAdmission::kOverSlo
                          : route.degraded ? ServeAdmission::kDegraded
                                           : ServeAdmission::kOk;
    }
    switch (pending.admission) {
      case ServeAdmission::kOk:
        ++counters_.admitted_ok;
        break;
      case ServeAdmission::kDegraded:
        ++counters_.admitted_degraded;
        break;
      case ServeAdmission::kOverSlo:
        ++counters_.admitted_over_slo;
        break;
      case ServeAdmission::kRejected:
        break;
    }
    if (!req.id.empty()) conn.cancelable[req.id] = pending.cancel;
    pending.req = std::move(req);
    const bool on_loop = loop_may_solve(pending);
    ++conn.in_flight;
    counters_.conn_window_peak =
        std::max(counters_.conn_window_peak, conn.in_flight);
    ++inflight_total_;
    if (on_loop) {
      loop_pending_ = std::move(pending);
    } else {
      hand_to_crew(std::move(pending));
    }
    return true;
  }

  /// Queues an admitted request for the crew; under mu_, and never once
  /// draining has begun, when the crew may already be gone.
  void hand_to_crew(Pending pending) {
    const auto cls = static_cast<std::size_t>(pending.req.priority);
    queue_[cls].push_back(std::move(pending));
    ++queue_depth_;
    counters_.queue_peak = std::max(counters_.queue_peak, queue_depth_);
    crew_->submit([this] { serve(take_pending(), /*on_loop=*/false); });
  }

  /// Whether the loop solves this admitted request itself instead of
  /// handing it to the crew; under mu_, before the request counts as in
  /// flight. Only after a poll that had to wait, while nothing admitted is
  /// unanswered -- so the loop and the crew are idle and no other loop
  /// solve is pending -- and only for a list
  /// scheduling solver whose observed cold-solve cost (its rung's EWMA
  /// for a routed request) is at or under the bound, on an instance of at
  /// most kLoopSolveMaxSize tasks, edges and processors. A draining server
  /// rejects before it gets here. A ref also needs the current epoch's
  /// view already built, and carries it: validating an epoch is a crew
  /// job, and so is waiting out a publish mid-flip.
  bool loop_may_solve(Pending& pending) {
    if (!loop_idle_ || inflight_total_ != 0) return false;
    std::optional<double> cost;
    {
      const std::lock_guard<std::mutex> lock(solvers_mu_);
      const auto it = solvers_.find(pending.spec);
      if (it == solvers_.end() || !it->second.list_scheduling) return false;
      cost = it->second.cost_ms;
    }
    if (pending.rung >= 0) {
      cost = router().observed_cost(static_cast<std::size_t>(pending.rung));
    }
    if (!cost || *cost > ServeServer::kLoopSolveBoundMs) return false;
    if (const auto& inst = pending.req.instance) {
      return loop_sized(inst->n(),
                        inst->has_precedence() ? inst->dag().edge_count() : 0,
                        inst->m());
    }
    const std::optional<std::uint64_t> epoch =
        opts().store->published_epoch();
    if (!epoch) return false;
    std::shared_ptr<const StoreView> view = built_view(*epoch);
    if (!view || *pending.req.ref >= view->view.count()) return false;
    const wire::InstanceView::Shape shape =
        view->view.shape(static_cast<std::size_t>(*pending.req.ref));
    if (!loop_sized(shape.tasks, shape.edges, shape.m)) return false;
    pending.view = std::move(view);
    return true;
  }

  /// Answers or admits the parsed lines in order, stopping at the first
  /// solve request the window cannot admit yet.
  void admit_parsed(Connection& conn) {
    for (; !conn.parsed.empty(); conn.parsed.pop_front()) {
      ParsedLine& line = conn.parsed.front();
      if (line.fault != nullptr) {
        ++(counters_.*line.fault);
        enqueue_error(conn, "", line.error);
      } else if (!handle_request(conn, line.req)) {
        return;
      }
    }
  }

  // ------------------------------------------------------------- workers
  std::shared_ptr<const Solver> solver_for(const std::string& spec) {
    {
      const std::lock_guard<std::mutex> lock(solvers_mu_);
      const auto it = solvers_.find(spec);
      if (it != solvers_.end()) return it->second.solver;
    }
    std::shared_ptr<const Solver> solver = make_solver(spec);
    const bool list_scheduling = list_scheduling_spec(solver->name());
    const std::lock_guard<std::mutex> lock(solvers_mu_);
    if (solvers_.size() < kSolverCacheCap) {
      solvers_.emplace(spec,
                       SolverEntry{solver, list_scheduling, std::nullopt, false});
    }
    return solver;
  }

  /// Feeds one cold solve of an explicitly named spec into its cost EWMA,
  /// as Router::observe does for a rung. A spec past the cache's cap has
  /// no entry and so never reaches the loop.
  void observe_cost(const std::string& spec, double solve_ms) {
    const double a = opts().router.ewma_alpha;
    const std::lock_guard<std::mutex> lock(solvers_mu_);
    const auto it = solvers_.find(spec);
    if (it == solvers_.end() || it->second.pinned) return;
    std::optional<double>& cost = it->second.cost_ms;
    cost = cost ? a * solve_ms + (1 - a) * *cost : solve_ms;
  }

  /// The view of `epoch` if a request already built it, else null.
  std::shared_ptr<const StoreView> built_view(std::uint64_t epoch) {
    const std::lock_guard<std::mutex> lock(store_mu_);
    if (store_view_ && store_view_->mapping->epoch() == epoch) {
      return store_view_;
    }
    return nullptr;
  }

  /// Resolves a {"ref":N} request against `view`, or when it is null
  /// against the attached store's current epoch. Throws
  /// std::runtime_error (answered ok:false) when nothing is published, the
  /// index is out of range, or the store went away.
  std::shared_ptr<const Instance> resolve_ref(
      std::uint64_t ref, std::shared_ptr<const StoreView> view) {
    storage::ShmStore* store = opts().store;  // non-null: checked at admission
    if (!view) {
      const std::shared_ptr<storage::ShmMapping> snap = store->snapshot();
      if (!snap) {
        throw std::runtime_error("instance store \"" + store->name() +
                                 "\" has no published epoch");
      }
      view = built_view(snap->epoch());
      if (!view) {
        // Validate the new epoch once, outside the lock; racing workers may
        // both build it, last one wins (both are equally valid).
        auto fresh = std::make_shared<const StoreView>(
            StoreView{snap, wire::InstanceView(snap->bytes())});
        const std::lock_guard<std::mutex> lock(store_mu_);
        store_view_ = fresh;
        view = std::move(fresh);
      }
    }
    if (ref >= view->view.count()) {
      throw std::runtime_error(
          "\"ref\":" + std::to_string(ref) + " out of range: store \"" +
          store->name() + "\" epoch " +
          std::to_string(view->mapping->epoch()) + " holds " +
          std::to_string(view->view.count()) + " instances");
    }
    return std::make_shared<const Instance>(view->view.materialize(
        static_cast<std::size_t>(ref)));
  }

  /// Takes the next queued request for a worker, highest class first.
  Pending take_pending() {
    const std::lock_guard<std::mutex> lock(mu_);
    // One queued Pending per submitted job, so a class is non-empty.
    auto cls = queue_.begin();
    while (cls->empty()) ++cls;
    Pending pending = std::move(cls->front());
    cls->pop_front();
    --queue_depth_;
    return pending;
  }

  /// Solves one admitted request and delivers its response line, on a
  /// worker or (on_loop) on the loop thread.
  void serve(Pending pending, bool on_loop) {
    ServeResponse response;
    response.id = pending.req.id;
    response.admission = pending.admission;
    response.spec = pending.spec;
    response.rung = pending.rung;
    response.queue_ms = ms_since(pending.arrival);

    SolveResult result;
    bool have_result = false;
    bool expired = false;
    bool injected = false;
    bool solve_error = false;
    storage::CacheOutcome cache = storage::CacheOutcome::kOff;
    try {
      failpoint::hit("serve.solve");
      if (pending.req.deadline_ms &&
          response.queue_ms >= *pending.req.deadline_ms) {
        result.feasible = false;
        result.diagnostics =
            "deadline expired in queue: waited " + fmt(response.queue_ms, 3) +
            " ms of a " + fmt(*pending.req.deadline_ms, 3) +
            " ms budget (no solve attempted)";
        have_result = true;
        expired = true;
      } else {
        std::shared_ptr<const Instance> inst = pending.req.instance;
        if (inst == nullptr) {
          inst = resolve_ref(*pending.req.ref, std::move(pending.view));
        }
        SolveOptions solve_options = opts().solve;
        solve_options.cancel = pending.cancel;
        if (pending.req.deadline_ms) {
          const double remaining_ms =
              *pending.req.deadline_ms - response.queue_ms;
          solve_options.deadline =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::duration<double, std::milli>(remaining_ms));
        }
        const Clock::time_point solve_start = Clock::now();
        // The cache keys by the solver's canonical name, so every spelling
        // of one spec shares its entries. An audit failure on a hit
        // (STORESCHED_AUDIT=1) throws and is answered ok:false like any
        // solver fault.
        storage::CachedSolve solve = storage::solve_cached(
            *solver_for(pending.spec), *inst, solve_options, opts().cache);
        result = std::move(solve.result);
        cache = solve.cache;
        response.solve_ms = ms_since(solve_start);
        have_result = true;
        // Hits skip the latency model: a hash lookup says nothing about
        // what a cold solve with this solver costs.
        if (cache != storage::CacheOutcome::kHit) {
          if (pending.rung >= 0) {
            router().observe(static_cast<std::size_t>(pending.rung),
                             response.solve_ms);
          } else {
            observe_cost(pending.spec, response.solve_ms);
          }
        }
      }
    } catch (const InjectedFault& fault) {
      response.ok = false;
      response.error = std::string("injected fault: ") + fault.what();
      injected = true;
    } catch (const std::exception& err) {
      response.ok = false;
      response.error = err.what();
      solve_error = true;
    }
    response.result = have_result ? &result : nullptr;

    std::string line = serve_response_to_jsonl(response, opts().result);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (expired) ++counters_.deadline_expired;
      if (injected) ++counters_.injected_faults;
      if (solve_error) ++counters_.solve_errors;
      if (cache == storage::CacheOutcome::kHit) ++counters_.cache_hits;
      if (cache == storage::CacheOutcome::kMiss) ++counters_.cache_misses;
      if (on_loop) ++counters_.loop_solves;
      ++counters_.responses;
      --inflight_total_;
      const auto fd_it = conn_fd_.find(pending.conn_id);
      if (fd_it != conn_fd_.end()) {
        Connection& conn = conns_.at(fd_it->second);
        const bool was_paused = conn.in_flight >= opts().conn_window;
        conn.outbox += line;
        conn.outbox += '\n';
        if (conn.in_flight > 0) --conn.in_flight;
        // A later request that reused the id owns the entry by now.
        const auto token = conn.cancelable.find(pending.req.id);
        if (token != conn.cancelable.end() && token->second == pending.cancel) {
          conn.cancelable.erase(token);
        }
        // The loop writes its own response in the upkeep pass that
        // follows. A worker writes here when the loop has nothing else to
        // do for this connection, and lets it sleep; a partial send or a
        // dead peer falls back to waking it. With requests queued, workers
        // go back to solving and leave the loop to batch the writes. Lines
        // waiting for the window need no check: the response that
        // reopened it found the connection paused and woke the loop.
        const bool loop_idle_for_conn =
            !on_loop && queue_depth_ == 0 && !was_paused && !conn.reg_write &&
            !conn.peer_eof && !draining_ && !flush_exit_;
        if (loop_idle_for_conn && flush_outbox(conn) && conn.outbox.empty()) {
          return;
        }
      }
      // else: the connection died first; the response is dropped.
    }
    if (!on_loop) wake();
  }

  // ------------------------------------------------------ loop plumbing
  /// Reads what the socket holds, frames it and parses each complete line
  /// onto conn.parsed, without mu_. Returns false when the peer ended the
  /// stream (EOF, or a reset mid-read).
  bool read_requests(Connection& conn) {
    char buf[1 << 16];
    const auto n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n <= 0) {
      return n < 0 &&
             (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    }
    conn.framer.feed(buf, static_cast<std::size_t>(n));
    while (const auto line = conn.framer.next()) {
      conn.parsed.push_back(parse_line(*line));
    }
    return true;
  }

  /// Flushes as much of the outbox as the socket accepts. Returns false
  /// when the connection died under the write.
  bool flush_outbox(Connection& conn) {
    while (conn.out_off < conn.outbox.size()) {
      const auto n =
          ::send(conn.fd, conn.outbox.data() + conn.out_off,
                 conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // EPIPE/ECONNRESET: peer is gone
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off == conn.outbox.size()) {
      conn.outbox.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (std::size_t{1} << 16)) {
      conn.outbox.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    return true;
  }

  void close_conn_locked(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    // Orphaned in-flight work: stop it early, its response will be dropped.
    for (auto& [id, token] : it->second.cancelable) {
      token->request_cancel("connection closed");
    }
    poller_.del(fd);
    ::close(fd);
    conn_fd_.erase(it->second.id);
    conns_.erase(it);
  }

  /// Per-connection upkeep: admit parsed lines, flush, re-arm interest,
  /// close when finished. Returns false when the connection was closed.
  bool update_conn_locked(Connection& conn) {
    admit_parsed(conn);
    if (!conn.outbox.empty() && !flush_outbox(conn)) {
      close_conn_locked(conn.fd);
      return false;
    }
    const bool flushed = conn.outbox.empty();
    const bool quiet = conn.in_flight == 0 && conn.parsed.empty();
    if (flushed && quiet && (conn.peer_eof || draining_ || flush_exit_)) {
      close_conn_locked(conn.fd);
      return false;
    }
    const bool want_read = !draining_ && !conn.peer_eof &&
                           conn.in_flight < opts().conn_window;
    const bool want_write = !flushed;
    if (want_read != conn.reg_read || want_write != conn.reg_write) {
      poller_.mod(conn.fd, want_read, want_write);
      conn.reg_read = want_read;
      conn.reg_write = want_write;
    }
    return true;
  }

  void loop() {
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (draining_ && !listeners_closed_) {
          if (unix_listen_ >= 0) {
            poller_.del(unix_listen_);
            ::close(unix_listen_);
            unix_listen_ = -1;
          }
          if (tcp_listen_ >= 0) {
            poller_.del(tcp_listen_);
            ::close(tcp_listen_);
            tcp_listen_ = -1;
          }
          listeners_closed_ = true;
        }
        for (auto it = conns_.begin(); it != conns_.end();) {
          auto next = std::next(it);
          update_conn_locked(it->second);
          it = next;
        }
        if (flush_exit_ &&
            (conns_.empty() || Clock::now() >= flush_deadline_)) {
          for (auto it = conns_.begin(); it != conns_.end();) {
            auto next = std::next(it);
            close_conn_locked(it->first);
            it = next;
          }
          break;
        }
      }
      if (shutdown_requested_.load(std::memory_order_acquire)) {
        request_cv_.notify_all();
      }
      // Solve what admission gave the loop, then run the upkeep pass again
      // before polling: it writes the response and admits a line that
      // waited for the window slot the response freed.
      if (loop_pending_) {
        loop_idle_ = false;
        serve(*std::exchange(loop_pending_, std::nullopt), /*on_loop=*/true);
        continue;
      }

      // Under load, bytes or a wake-up are already waiting when the loop
      // comes back to poll, and the crew takes every request the next
      // pass admits: a loop that solves would read and write for everyone
      // else that much later.
      poller_.wait(/*timeout_ms=*/0, events_);
      loop_idle_ = events_.empty();
      if (loop_idle_) poller_.wait(/*timeout_ms=*/200, events_);
      // Read, frame and parse without mu_; the next upkeep pass admits.
      accept_fds_.clear();
      for (const auto& event : events_) {
        if (event.fd == wake_read_) {
          drain_wake();
          continue;
        }
        if (event.fd == unix_listen_ || event.fd == tcp_listen_) {
          accept_fds_.push_back(event.fd);
          continue;
        }
        const auto it = conns_.find(event.fd);
        if (it == conns_.end()) continue;
        const bool hangup = event.error && !event.readable;
        if (hangup || (event.readable && !read_requests(it->second))) {
          ended_.emplace_back(event.fd, hangup);
        }
        // Writable readiness is consumed by the upkeep pass's flush.
      }
      if (!ended_.empty()) {
        const std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [fd, hangup] : ended_) {
          if (hangup) {
            close_conn_locked(fd);
          } else {
            conns_.at(fd).peer_eof = true;
          }
        }
        ended_.clear();
      }
      // do_accept takes mu_ per connection.
      for (const int fd : accept_fds_) do_accept(fd);
    }
  }
};

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)),
      router_(std::make_unique<Router>(options_.ladder, options_.router)),
      impl_(std::make_unique<Impl>(*this)) {
  if (options_.conn_window == 0) {
    throw std::invalid_argument("ServeOptions::conn_window must be >= 1");
  }
  if (options_.max_line < 2) {
    throw std::invalid_argument("ServeOptions::max_line must be >= 2");
  }
  if (options_.unix_path.empty() && !options_.tcp_port) {
    throw std::invalid_argument("ServeServer: no listener configured");
  }
  if (options_.tcp_port &&
      (*options_.tcp_port < 0 || *options_.tcp_port > 65535)) {
    throw std::invalid_argument(
        "ServeOptions::tcp_port must be in [0, 65535], got " +
        std::to_string(*options_.tcp_port));
  }
  if (options_.threads < 0) {
    throw std::invalid_argument("ServeOptions::threads must be >= 0");
  }
}

ServeServer::~ServeServer() {
  try {
    shutdown();
  } catch (...) {
    // Destruction must not throw; the flush deadline bounds the drain.
  }
}

void ServeServer::start() {
  Impl& impl = *impl_;
  if (impl.started_) throw std::logic_error("ServeServer: already started");
  // Build every ladder rung now so a typo'd spec fails start(), not the
  // first routed request.
  for (std::size_t r = 0; r < router_->rungs(); ++r) {
    impl.solver_for(router_->spec(r));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) throw_errno("pipe");
  impl.wake_read_ = pipe_fds[0];
  impl.wake_write_ = pipe_fds[1];
  try {
    set_nonblocking(impl.wake_read_);
    set_nonblocking(impl.wake_write_);
    if (!options_.unix_path.empty()) {
      impl.unix_listen_ = impl.open_unix_listener(options_.unix_path);
    }
    if (options_.tcp_port) {
      impl.tcp_listen_ =
          impl.open_tcp_listener(options_.tcp_host, *options_.tcp_port);
    }
  } catch (...) {
    for (int* fd : {&impl.wake_read_, &impl.wake_write_, &impl.unix_listen_,
                    &impl.tcp_listen_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    throw;
  }
  impl.poller_.add(impl.wake_read_, true, false);
  if (impl.unix_listen_ >= 0) impl.poller_.add(impl.unix_listen_, true, false);
  if (impl.tcp_listen_ >= 0) impl.poller_.add(impl.tcp_listen_, true, false);
  impl.crew_ = std::make_unique<WorkerCrew>(
      static_cast<unsigned>(options_.threads));
  impl.loop_thread_ = std::thread([&impl] { impl.loop(); });
  impl.started_ = true;
}

void ServeServer::shutdown() {
  Impl& impl = *impl_;
  const std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu_);
  if (!impl.started_ || impl.stopped_) return;
  impl.shutdown_requested_.store(true, std::memory_order_release);
  impl.request_cv_.notify_all();
  {
    const std::lock_guard<std::mutex> lock(impl.mu_);
    impl.draining_ = true;
  }
  impl.wake();
  try {
    impl.crew_->drain();
  } catch (...) {
    // A worker body failed before answering; the flush deadline below
    // still bounds the drain.
  }
  impl.crew_->shutdown();
  {
    const std::lock_guard<std::mutex> lock(impl.mu_);
    impl.flush_exit_ = true;
    impl.flush_deadline_ = Clock::now() + std::chrono::seconds(5);
  }
  impl.wake();
  impl.loop_thread_.join();
  ::close(impl.wake_read_);
  ::close(impl.wake_write_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  impl.stopped_ = true;
}

void ServeServer::notify_shutdown() noexcept {
  impl_->shutdown_requested_.store(true, std::memory_order_release);
  impl_->wake();
}

void ServeServer::wait_for_shutdown_request() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.request_cv_mu_);
  impl.request_cv_.wait(lock, [&impl] {
    return impl.shutdown_requested_.load(std::memory_order_acquire);
  });
}

void ServeServer::pin_solver_cost(const std::string& spec, double ms) {
  Impl& impl = *impl_;
  impl.solver_for(spec);
  const std::lock_guard<std::mutex> lock(impl.solvers_mu_);
  const auto it = impl.solvers_.find(spec);
  if (it == impl.solvers_.end()) {
    throw std::length_error("ServeServer::pin_solver_cost: solver cache full");
  }
  it->second.cost_ms = ms;
  it->second.pinned = true;
}

int ServeServer::tcp_port() const { return impl_->bound_tcp_port_; }

unsigned ServeServer::workers() const {
  return impl_->crew_ ? impl_->crew_->workers() : 0;
}

ServeCounters ServeServer::counters() const {
  Impl& impl = *impl_;
  const std::lock_guard<std::mutex> lock(impl.mu_);
  ServeCounters out = impl.counters_;
  out.connections_open = impl.conns_.size();
  out.queue_depth = impl.queue_depth_;
  out.draining = impl.draining_;
  if (options_.cache != nullptr) {
    out.cache_bytes = options_.cache->table_stats().bytes;
  }
  return out;
}

}  // namespace storesched
