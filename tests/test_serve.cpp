// Tests for the serving tier (src/serve/): the SLO router's selection
// rules against a deterministic injected cost table, the JSONL line
// framer's oversized/partial handling, the request wire grammar, and the
// server itself over real unix-domain sockets -- admission, windows,
// deadlines, cancel, drain, and fault injection via the serve.* failpoint
// sites.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/dag_generators.hpp"
#include "common/failpoint.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "storage/result_cache.hpp"
#include "storage/shm_store.hpp"
#include "storage/wire_format.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

// ---------------------------------------------------------------- router

void seed(Router& router, const std::vector<double>& costs, double overall) {
  for (std::size_t r = 0; r < costs.size(); ++r) router.seed_cost(r, costs[r]);
  router.seed_overall(overall);
}

TEST(ServeRouter, PicksCheapestRungMeetingSlo) {
  // Costs 100 / 10 / 1 ms; with a 50 ms SLO and the whole ladder
  // preferred, two rungs qualify and the cheapest (rung 2) wins.
  Router router({"a", "b", "c"});
  seed(router, {100, 10, 1}, 0.0);
  const RouteDecision d =
      router.route(/*slo_ms=*/50, /*quality=*/2, /*queue_depth=*/0, 1);
  EXPECT_EQ(d.rung, 2u);
  EXPECT_EQ(d.spec, "c");
  EXPECT_TRUE(d.met_slo);
  EXPECT_FALSE(d.degraded);
}

TEST(ServeRouter, ObservedCostIsUnsetUntilARungIsObservedOrSeeded) {
  Router router({"a", "b"});
  EXPECT_FALSE(router.observed_cost(0));
  EXPECT_FALSE(router.observed_cost(2));
  router.observe(0, 0.5);
  router.seed_cost(1, 3);
  EXPECT_EQ(router.observed_cost(0), 0.5);
  EXPECT_EQ(router.observed_cost(1), 3.0);
}

TEST(ServeRouter, TiesBreakTowardBetterQuality) {
  Router router({"a", "b", "c"});
  seed(router, {5, 5, 5}, 0.0);
  const RouteDecision d = router.route(10, 2, 0, 1);
  EXPECT_EQ(d.rung, 0u);
  EXPECT_TRUE(d.met_slo);
}

TEST(ServeRouter, DegradesPastPreferredQualityWhenItMustAndFlagsIt) {
  // Only the best rung is preferred (quality = 0) but it cannot meet the
  // SLO; the router degrades to rung 1 and says so.
  Router router({"a", "b"});
  seed(router, {100, 1}, 0.0);
  const RouteDecision d = router.route(50, /*quality=*/0, 0, 1);
  EXPECT_EQ(d.rung, 1u);
  EXPECT_TRUE(d.met_slo);
  EXPECT_TRUE(d.degraded);
}

TEST(ServeRouter, QueueDelayTermDrivesDegradation) {
  // Rung 0 alone meets the SLO at an empty queue; five queued requests
  // draining at 10 ms each through one worker add 50 ms of predicted
  // wait, pushing the route down the ladder.
  Router router({"a", "b"});
  seed(router, {10, 1}, 10.0);
  const RouteDecision empty_queue = router.route(55, 0, /*queue_depth=*/0, 1);
  EXPECT_EQ(empty_queue.rung, 0u);
  EXPECT_DOUBLE_EQ(empty_queue.queue_delay_ms, 0.0);

  const RouteDecision busy = router.route(55, 0, /*queue_depth=*/5, 1);
  EXPECT_EQ(busy.rung, 1u);
  EXPECT_TRUE(busy.degraded);
  EXPECT_DOUBLE_EQ(busy.queue_delay_ms, 50.0);

  // More workers drain the same queue faster: the delay term shrinks and
  // the preferred rung fits again.
  const RouteDecision wide = router.route(55, 0, /*queue_depth=*/5, 5);
  EXPECT_EQ(wide.rung, 0u);
  EXPECT_DOUBLE_EQ(wide.queue_delay_ms, 10.0);
}

TEST(ServeRouter, NothingMeetsSloServesCheapestAnchorFlaggedOverSlo) {
  Router router({"a", "b", "c"});
  seed(router, {100, 40, 60}, 0.0);
  const RouteDecision d = router.route(/*slo_ms=*/10, 2, 0, 1);
  EXPECT_EQ(d.rung, 1u);  // cheapest of the whole ladder
  EXPECT_FALSE(d.met_slo);
}

TEST(ServeRouter, NoSloServesThePreferredRungDirectly) {
  Router router({"a", "b", "c"});
  seed(router, {100, 10, 1}, 0.0);
  const RouteDecision d = router.route(std::nullopt, /*quality=*/1, 99, 1);
  EXPECT_EQ(d.rung, 1u);
  EXPECT_TRUE(d.met_slo);
  EXPECT_FALSE(d.degraded);
}

TEST(ServeRouter, QualityClampsToTheLadder) {
  Router router({"a", "b"});
  seed(router, {5, 5}, 0.0);
  EXPECT_EQ(router.route(std::nullopt, /*quality=*/99, 0, 1).rung, 1u);
}

TEST(ServeRouter, ObserveIsAnEwma) {
  Router router({"a"}, RouterOptions{.ewma_alpha = 0.2, .initial_cost_ms = 1});
  EXPECT_DOUBLE_EQ(router.snapshot()[0].ewma_ms, 1.0);  // prior
  router.observe(0, 10);  // first sample replaces the prior outright
  EXPECT_DOUBLE_EQ(router.snapshot()[0].ewma_ms, 10.0);
  router.observe(0, 20);
  EXPECT_DOUBLE_EQ(router.snapshot()[0].ewma_ms, 0.2 * 20 + 0.8 * 10);
  EXPECT_EQ(router.snapshot()[0].served, 2u);
}

TEST(ServeRouter, RejectsBadConfig) {
  EXPECT_THROW(Router({}), std::invalid_argument);
  EXPECT_THROW(Router({"a"}, RouterOptions{.ewma_alpha = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(Router({"a"}, RouterOptions{.ewma_alpha = 1.5}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- framer

TEST(ServeFramer, SplitsPipelinedLinesAndKeepsThePartialTail) {
  LineFramer framer(64);
  const std::string bytes = "one\ntwo\r\nthr";
  framer.feed(bytes.data(), bytes.size());
  auto line = framer.next();
  ASSERT_TRUE(line);
  EXPECT_EQ(line->text, "one");
  line = framer.next();
  ASSERT_TRUE(line);
  EXPECT_EQ(line->text, "two");  // CR before LF is stripped
  EXPECT_FALSE(framer.next());
  EXPECT_EQ(framer.partial(), 3u);  // "thr" stays buffered, never delivered
  framer.feed("ee\n", 3);
  line = framer.next();
  ASSERT_TRUE(line);
  EXPECT_EQ(line->text, "three");
}

TEST(ServeFramer, ByteAtATimeFeedingChangesNothing) {
  LineFramer framer(64);
  const std::string bytes = "hello\nworld\n";
  for (const char c : bytes) framer.feed(&c, 1);
  EXPECT_EQ(framer.next()->text, "hello");
  EXPECT_EQ(framer.next()->text, "world");
  EXPECT_FALSE(framer.next());
}

TEST(ServeFramer, OversizedLineYieldsOneMarkerAndTheFramerRecovers) {
  LineFramer framer(8);
  const std::string bytes = "0123456789abcdef";  // 16 > 8, no newline yet
  framer.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(framer.next());  // still waiting for the terminator
  EXPECT_TRUE(framer.discarding());
  EXPECT_EQ(framer.partial(), 0u);  // discarded bytes are not buffered
  framer.feed("XX\nok\n", 6);
  auto line = framer.next();
  ASSERT_TRUE(line);
  EXPECT_TRUE(line->oversized);
  line = framer.next();
  ASSERT_TRUE(line);
  EXPECT_FALSE(line->oversized);
  EXPECT_EQ(line->text, "ok");
}

TEST(ServeFramer, MarkersInterleaveInArrivalOrder) {
  LineFramer framer(4);
  const std::string bytes = "ab\ntoolongline\ncd\n";
  framer.feed(bytes.data(), bytes.size());
  EXPECT_EQ(framer.next()->text, "ab");
  EXPECT_TRUE(framer.next()->oversized);
  EXPECT_EQ(framer.next()->text, "cd");
}

TEST(ServeFramer, TheStrippedCarriageReturnDoesNotCountTowardTheCap) {
  // A line of N bytes fits a cap of N whether it ends in "\n" or "\r\n".
  constexpr std::size_t kCap = 5;
  for (const std::string ending : {"\n", "\r\n"}) {
    for (const std::size_t len : {kCap - 1, kCap, kCap + 1}) {
      LineFramer framer(kCap);
      const std::string text(len, 'a');
      const std::string bytes = text + ending;
      framer.feed(bytes.data(), bytes.size());
      const auto line = framer.next();
      ASSERT_TRUE(line);
      EXPECT_EQ(line->oversized, len > kCap)
          << len << " bytes, ending of " << ending.size();
      EXPECT_EQ(line->text, len > kCap ? "" : text);
      EXPECT_FALSE(framer.next());
    }
  }
}

/// The framer as a loop over single bytes, with the '\r' allowance of
/// TheStrippedCarriageReturnDoesNotCountTowardTheCap: the oracle for
/// LineFramer's memchr scan.
class ByteLoopFramer {
 public:
  explicit ByteLoopFramer(std::size_t max_line) : max_line_(max_line) {}

  void feed(const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      const char c = data[i];
      if (c == '\n') {
        if (discarding_) {
          ready_.push_back({std::string(), /*oversized=*/true});
          discarding_ = false;
        } else {
          if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
          ready_.push_back({buffer_, /*oversized=*/false});
        }
        buffer_.clear();
        continue;
      }
      if (discarding_) continue;
      // Only a '\r' may sit one byte past the cap.
      if (buffer_.size() > max_line_ ||
          (buffer_.size() == max_line_ && c != '\r')) {
        buffer_.clear();
        discarding_ = true;
        continue;
      }
      buffer_.push_back(c);
    }
  }

  std::optional<LineFramer::Line> next() {
    if (ready_.empty()) return std::nullopt;
    LineFramer::Line line = ready_.front();
    ready_.erase(ready_.begin());
    return line;
  }

  std::size_t partial() const { return discarding_ ? 0 : buffer_.size(); }
  bool discarding() const { return discarding_; }

 private:
  std::size_t max_line_;
  std::string buffer_;
  std::vector<LineFramer::Line> ready_;
  bool discarding_ = false;
};

TEST(ServeFramer, AnyChunkingMatchesTheByteLoop) {
  constexpr std::size_t kCap = 16;
  const std::string at_cap(kCap, 'c');
  std::string stream = "hello\n\n\r\nx\r\ny\r\r\na\rb\n";
  for (const std::string& text :
       {at_cap.substr(1), at_cap, at_cap + 'd', at_cap + '\r'}) {
    stream += text + "\n" + text + "\r\n";
  }
  // An oversized line that spans many feeds, then normal lines.
  stream += std::string(5000, 'z') + "\r\nok\nok\r\n";
  Rng rng(7);
  for (int k = 0; k < 300; ++k) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 20));
    for (std::size_t i = 0; i < len; ++i) {
      stream += "ab\r"[rng.uniform_int(0, 2)];
    }
    stream += rng.bernoulli(0.5) ? "\n" : "\r\n";
  }
  stream += "partial tail";

  const auto check = [&](const std::vector<std::size_t>& cuts,
                         const std::string& label) {
    LineFramer framer(kCap);
    ByteLoopFramer oracle(kCap);
    std::size_t from = 0;
    std::size_t lines = 0;
    for (const std::size_t to : cuts) {
      framer.feed(stream.data() + from, to - from);
      oracle.feed(stream.data() + from, to - from);
      from = to;
      for (;;) {
        const auto want = oracle.next();
        const auto got = framer.next();
        ASSERT_EQ(got.has_value(), want.has_value())
            << label << " line " << lines;
        if (!want) break;
        ASSERT_EQ(got->oversized, want->oversized)
            << label << " line " << lines;
        ASSERT_EQ(got->text, want->text) << label << " line " << lines;
        ++lines;
      }
      ASSERT_EQ(framer.partial(), oracle.partial()) << label << " at " << to;
      ASSERT_EQ(framer.discarding(), oracle.discarding())
          << label << " at " << to;
    }
    EXPECT_EQ(framer.partial(), std::string("partial tail").size()) << label;
    EXPECT_GT(lines, 300u) << label;
  };

  std::vector<std::size_t> bytes(stream.size());
  std::iota(bytes.begin(), bytes.end(), std::size_t{1});
  check(bytes, "byte at a time");
  check({stream.size()}, "whole");
  for (int split = 0; split < 20; ++split) {
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < stream.size();) {
      at = std::min(stream.size(),
                    at + static_cast<std::size_t>(rng.uniform_int(1, 64)));
      cuts.push_back(at);
    }
    check(cuts, "random split " + std::to_string(split));
  }
}

// -------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTripsAsAFixpoint) {
  ServeRequest req;
  req.id = "r-1";
  req.instance = std::make_shared<Instance>(
      std::vector<Task>{{3, 1}, {2, 2}}, 2);
  req.slo_ms = 2.5;
  req.deadline_ms = 100;
  req.priority = ServePriority::kHigh;
  req.quality = 1;
  const std::string wire = serve_request_to_jsonl(req);
  const ServeRequest back = serve_request_from_jsonl(wire);
  EXPECT_EQ(back.id, "r-1");
  ASSERT_TRUE(back.is_solve());
  EXPECT_EQ(back.instance->n(), 2u);
  EXPECT_EQ(back.priority, ServePriority::kHigh);
  EXPECT_EQ(back.quality, 1u);
  ASSERT_TRUE(back.slo_ms);
  EXPECT_DOUBLE_EQ(*back.slo_ms, 2.5);
  EXPECT_EQ(serve_request_to_jsonl(back), wire);
}

TEST(ServeProtocol, ControlRequestsRoundTrip) {
  EXPECT_TRUE(serve_request_from_jsonl(R"({"statsz":true})").statsz);
  const ServeRequest cancel =
      serve_request_from_jsonl(R"({"id":"c","cancel":"r9"})");
  EXPECT_EQ(cancel.cancel_id, "r9");
  EXPECT_EQ(cancel.id, "c");
  EXPECT_FALSE(cancel.is_solve());
}

TEST(ServeProtocol, RefRequestsRoundTripAsAFixpoint) {
  ServeRequest req;
  req.id = "r-2";
  req.ref = 7;
  req.spec = "graham:lpt";
  const std::string wire = serve_request_to_jsonl(req);
  const ServeRequest back = serve_request_from_jsonl(wire);
  ASSERT_TRUE(back.is_solve());
  EXPECT_EQ(back.instance, nullptr);
  ASSERT_TRUE(back.ref);
  EXPECT_EQ(*back.ref, 7u);
  EXPECT_EQ(back.spec, "graham:lpt");
  EXPECT_EQ(serve_request_to_jsonl(back), wire);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const auto reject = [](const std::string& line) {
    EXPECT_THROW(serve_request_from_jsonl(line), std::runtime_error) << line;
  };
  reject("");
  reject("not json");
  reject(R"({"instance":{"m":1,"tasks":[[1,1]]}} trailing)");
  reject(R"({"bogus":1})");
  reject(R"({"id":"a","id":"b","instance":{"m":1,"tasks":[[1,1]]}})");
  reject(R"({"id":"a"})");                      // solve without an instance
  reject(R"({"statsz":true,"spec":"graham:lpt"})");  // statsz + solve field
  reject(R"({"cancel":"x","slo_ms":5})");            // cancel + solve field
  reject(R"({"slo_ms":-1,"instance":{"m":1,"tasks":[[1,1]]}})");
  reject(R"({"priority":"urgent","instance":{"m":1,"tasks":[[1,1]]}})");
  reject(R"({"slo_ms":01,"instance":{"m":1,"tasks":[[1,1]]}})");
  reject(R"({"ref":0,"instance":{"m":1,"tasks":[[1,1]]}})");  // both sources
  reject(R"({"ref":1.5})");                      // fractional record index
  reject(R"({"statsz":true,"ref":0})");          // statsz + solve field
  // The embedded instance follows the same rules as the request around it.
  reject(R"({"instance":{"m":1,"tasks":[[1,1]],"m":2}})");  // repeated key
  reject(R"({"instance":{"m":1,"tasks":[[1,01]]}})");       // leading zero
  reject(R"({"i\u0064":"a","instance":{"m":1,"tasks":[[1,1]]}})");  // escape
  // A syntax error inside the instance is a request error whose offset
  // counts from the start of the line, not of the embedded object.
  try {
    serve_request_from_jsonl(R"({"id":"a","instance":{"m":1,"tasks":[[1,x]]}})");
    ADD_FAILURE() << "embedded syntax error accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "serve request: expected a number (at byte 40)");
  }
}

TEST(ServeProtocol, ResponseLinesCarryRoutingAndResultFields) {
  SolveResult result;
  result.feasible = true;
  result.objectives = {7, 4};
  ServeResponse response;
  response.id = "r-1";
  response.admission = ServeAdmission::kDegraded;
  response.spec = "graham:lpt";
  response.rung = 1;
  response.queue_ms = 0.25;
  response.solve_ms = 1.5;
  response.result = &result;
  const std::string line = serve_response_to_jsonl(response);
  EXPECT_NE(line.find(R"("id":"r-1")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("admission":"degraded")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("rung":1)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("feasible":true)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("cmax":7)"), std::string::npos) << line;

  ServeResponse error;
  error.ok = false;
  error.error = "bad \"stuff\"";
  const std::string error_line = serve_response_to_jsonl(error);
  EXPECT_NE(error_line.find(R"("ok":false)"), std::string::npos) << error_line;
  EXPECT_NE(error_line.find(R"(bad \"stuff\")"), std::string::npos)
      << error_line;
}

// ---------------------------------------------------------------- server

/// Minimal blocking JSONL client for the integration tests.
class TestClient {
 public:
  explicit TestClient(const std::string& unix_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ADD_FAILURE() << "connect(" << unix_path << "): " << std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size() && fd_ >= 0) {
      const auto n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        ADD_FAILURE() << "send: " << std::strerror(errno);
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// The next response line, or nullopt on EOF / timeout.
  std::optional<std::string> read_line(int timeout_ms = 10000) {
    for (;;) {
      const std::size_t nl = inbox_.find('\n');
      if (nl != std::string::npos) {
        std::string line = inbox_.substr(0, nl);
        inbox_.erase(0, nl + 1);
        return line;
      }
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready <= 0) return std::nullopt;  // timeout
      char buf[4096];
      const auto n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return std::nullopt;  // EOF or reset
      inbox_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string inbox_;
};

bool contains(const std::string& line, const std::string& token) {
  return line.find(token) != std::string::npos;
}

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "storesched_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServeOptions base_options(const std::string& name) {
  ServeOptions options;
  options.unix_path = socket_path(name);
  options.ladder = {"graham:lpt"};
  options.threads = 2;
  return options;
}

constexpr const char* kInstance = R"({"m":2,"tasks":[[3,1],[2,2],[5,4]]})";

/// A response line from "feasible" on: the part a cold solve, a cache hit
/// and solve_batch must agree on byte for byte (the envelope before it
/// carries the id and timings).
std::string fields_after(const std::string& line) {
  const std::size_t at = line.find("\"feasible\":");
  return at == std::string::npos ? line : line.substr(at);
}

/// The value of a response line's "id".
std::string id_of(const std::string& line) {
  const std::size_t at = line.find(R"("id":")");
  if (at == std::string::npos) return {};
  const std::size_t end = line.find('"', at + 6);
  return line.substr(at + 6, end - (at + 6));
}

class ServeServerTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear_all(); }
};

TEST_F(ServeServerTest, RoundTripMatchesInProcessSolve) {
  ServeOptions options = base_options("roundtrip");
  options.ladder = {"sbo:lpt,delta=3/2"};
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  client.send_line(std::string(R"({"id":"q","instance":)") + kInstance + "}");
  const auto line = client.read_line();
  ASSERT_TRUE(line);
  EXPECT_TRUE(contains(*line, R"("id":"q")")) << *line;
  EXPECT_TRUE(contains(*line, R"("ok":true)")) << *line;
  EXPECT_TRUE(contains(*line, R"("admission":"ok")")) << *line;

  // The served objectives are exactly the in-process solver's.
  const Instance inst(std::vector<Task>{{3, 1}, {2, 2}, {5, 4}}, 2);
  const SolveResult expected = make_solver("sbo:lpt,delta=3/2")->solve(inst);
  ASSERT_TRUE(expected.feasible);
  EXPECT_TRUE(contains(
      *line, "\"cmax\":" + std::to_string(expected.objectives.cmax)))
      << *line;
  EXPECT_TRUE(contains(
      *line, "\"mmax\":" + std::to_string(expected.objectives.mmax)))
      << *line;
  server.shutdown();
}

TEST_F(ServeServerTest, PipelinedRequestsEachGetTheirResponse) {
  ServeOptions options = base_options("pipeline");
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  std::string burst;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    burst += std::string(R"({"id":")") + std::to_string(i) +
             R"(","instance":)" + kInstance + "}\n";
  }
  client.send_raw(burst);  // one write, many requests
  std::vector<bool> seen(kRequests, false);
  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line) << "response " << i << " missing";
    const std::size_t at = line->find(R"("id":")");
    ASSERT_NE(at, std::string::npos) << *line;
    const std::size_t end = line->find('"', at + 6);
    const int id = std::stoi(line->substr(at + 6, end - (at + 6)));
    EXPECT_FALSE(seen[static_cast<std::size_t>(id)]) << "duplicate " << id;
    seen[static_cast<std::size_t>(id)] = true;
    EXPECT_TRUE(contains(*line, R"("ok":true)")) << *line;
  }
  server.shutdown();
}

TEST_F(ServeServerTest, DeadlineExpiredInQueueAnswersInfeasibleNotADrop) {
  ServeOptions options = base_options("deadline");
  options.threads = 1;
  ServeServer server(options);
  server.start();
  // The worker stalls 50 ms per request, so the second request's 1 ms
  // budget is guaranteed to expire while it waits in the queue.
  failpoint::set("serve.solve", "delay(50)");

  TestClient client(options.unix_path);
  client.send_line(std::string(R"({"id":"slow","instance":)") + kInstance +
                   "}");
  client.send_line(std::string(R"({"id":"late","deadline_ms":1,"instance":)") +
                   kInstance + "}");
  std::optional<std::string> late;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    if (contains(*line, R"("id":"late")")) late = *line;
  }
  ASSERT_TRUE(late) << "the expired request must still be answered";
  EXPECT_TRUE(contains(*late, R"("ok":true)")) << *late;
  EXPECT_TRUE(contains(*late, R"("feasible":false)")) << *late;
  EXPECT_TRUE(contains(*late, "deadline expired in queue")) << *late;

  // The connection survived: a fresh request on it still answers.
  failpoint::clear_all();
  client.send_line(std::string(R"({"id":"after","instance":)") + kInstance +
                   "}");
  const auto after = client.read_line();
  ASSERT_TRUE(after);
  EXPECT_TRUE(contains(*after, R"("feasible":true)")) << *after;
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.deadline_expired, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, PerConnectionWindowIsEnforced) {
  ServeOptions options = base_options("window");
  options.threads = 1;
  options.conn_window = 2;
  ServeServer server(options);
  server.start();
  failpoint::set("serve.solve", "delay(10)");

  TestClient client(options.unix_path);
  std::string burst;
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    burst += std::string(R"({"instance":)") + kInstance + "}\n";
  }
  client.send_raw(burst);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.read_line()) << "response " << i;
  }
  // Every request was answered, but never more than conn_window were in
  // flight at once -- the rest waited in the socket, not the queue.
  const ServeCounters counters = server.counters();
  EXPECT_LE(counters.conn_window_peak, 2u);
  EXPECT_EQ(counters.requests, static_cast<std::uint64_t>(kRequests));
  server.shutdown();
}

TEST_F(ServeServerTest, QueueBoundRejectsInsteadOfGrowingWithoutLimit) {
  ServeOptions options = base_options("queuefull");
  options.threads = 1;
  options.max_queue = 1;
  options.conn_window = 16;
  ServeServer server(options);
  server.start();
  failpoint::set("serve.solve", "delay(60)");

  TestClient client(options.unix_path);
  std::string burst;
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    burst += std::string(R"({"instance":)") + kInstance + "}\n";
  }
  client.send_raw(burst);
  int rejected = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line) << "response " << i;
    if (contains(*line, R"("admission":"rejected")")) {
      ++rejected;
      EXPECT_TRUE(contains(*line, "queue full")) << *line;
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(server.counters().rejected, static_cast<std::uint64_t>(rejected));
  server.shutdown();
}

TEST_F(ServeServerTest, OversizedLineAnswersAnErrorAndTheConnectionSurvives) {
  ServeOptions options = base_options("oversized");
  options.max_line = 256;
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  client.send_line(std::string(1000, 'x'));
  const auto error = client.read_line();
  ASSERT_TRUE(error);
  EXPECT_TRUE(contains(*error, R"("ok":false)")) << *error;
  EXPECT_TRUE(contains(*error, "exceeds")) << *error;

  client.send_line(std::string(R"({"instance":)") + kInstance + "}");
  const auto ok = client.read_line();
  ASSERT_TRUE(ok);
  EXPECT_TRUE(contains(*ok, R"("feasible":true)")) << *ok;
  EXPECT_EQ(server.counters().oversized_lines, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, MidLineDisconnectLeavesTheServerServing) {
  ServeOptions options = base_options("midline");
  ServeServer server(options);
  server.start();
  {
    TestClient rude(options.unix_path);
    rude.send_raw(R"({"instance":{"m":2,"tasks":[[3,)");  // no newline
    rude.close();  // mid-line disconnect
  }
  // The fragment is dropped (it was never a complete request) and the
  // server keeps serving other clients.
  TestClient polite(options.unix_path);
  polite.send_line(std::string(R"({"instance":)") + kInstance + "}");
  const auto line = polite.read_line();
  ASSERT_TRUE(line);
  EXPECT_TRUE(contains(*line, R"("feasible":true)")) << *line;
  EXPECT_EQ(server.counters().parse_errors, 0u);
  server.shutdown();
}

TEST_F(ServeServerTest, StatszReportsQueueAdmissionsAndRungs) {
  ServeOptions options = base_options("statsz");
  options.ladder = {"rls:bottom,delta=3", "graham:lpt"};
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  client.send_line(std::string(R"({"instance":)") + kInstance + "}");
  ASSERT_TRUE(client.read_line());
  client.send_line(R"({"id":"s","statsz":true})");
  const auto stats = client.read_line();
  ASSERT_TRUE(stats);
  EXPECT_TRUE(contains(*stats, R"("id":"s")")) << *stats;
  EXPECT_TRUE(contains(*stats, "\"queue_depth\":")) << *stats;
  EXPECT_TRUE(contains(*stats, R"("spec":"rls:bottom,delta=3")")) << *stats;
  EXPECT_TRUE(contains(*stats, R"("spec":"graham:lpt")")) << *stats;
  EXPECT_TRUE(contains(*stats, "\"admissions\":{\"ok\":1")) << *stats;
  server.shutdown();
}

TEST_F(ServeServerTest, CancelTripsAQueuedRequest) {
  ServeOptions options = base_options("cancel");
  options.threads = 1;
  ServeServer server(options);
  server.start();
  failpoint::set("serve.solve", "delay(40)");

  TestClient client(options.unix_path);
  client.send_line(std::string(R"({"id":"slow","instance":)") + kInstance +
                   "}");
  client.send_line(std::string(R"({"id":"victim","instance":)") + kInstance +
                   "}");
  client.send_line(R"({"cancel":"victim"})");

  bool acked = false;
  bool victim_infeasible = false;
  for (int i = 0; i < 3; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    if (contains(*line, R"("cancelled":"victim")")) acked = true;
    if (contains(*line, R"("id":"victim")") &&
        contains(*line, R"("feasible":false)")) {
      victim_infeasible = true;
    }
  }
  EXPECT_TRUE(acked);
  EXPECT_TRUE(victim_infeasible)
      << "a cancelled queued request answers infeasible, not silence";
  EXPECT_EQ(server.counters().cancelled, 1u);

  client.send_line(R"({"cancel":"victim"})");  // already answered by now
  const auto stale = client.read_line();
  ASSERT_TRUE(stale);
  EXPECT_TRUE(contains(*stale, R"("ok":false)")) << *stale;
  server.shutdown();
}

TEST_F(ServeServerTest, CancelReachesTheLaterRequestThatReusesAnId) {
  // Two queued requests share the id "x". When the first is answered, the
  // cancel entry for "x" already belongs to the second, so it must stay:
  // a cancel that follows reaches the request still in flight.
  ServeOptions options = base_options("cancelreuse");
  options.threads = 1;
  ServeServer server(options);
  server.start();
  failpoint::set("serve.solve", "delay(60)");

  TestClient client(options.unix_path);
  const std::string x = std::string(R"({"id":"x","instance":)") + kInstance +
                        "}\n";
  client.send_raw(x + x);
  const auto first = client.read_line();
  ASSERT_TRUE(first);
  EXPECT_TRUE(contains(*first, R"("feasible":true)")) << *first;

  client.send_line(R"({"cancel":"x"})");
  bool acked = false;
  bool second_infeasible = false;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    if (contains(*line, R"("cancelled":"x")")) acked = true;
    if (id_of(*line) == "x" && contains(*line, R"("feasible":false)")) {
      second_infeasible = true;
    }
  }
  EXPECT_TRUE(acked) << "the cancel must find the second request";
  EXPECT_TRUE(second_infeasible);
  EXPECT_EQ(server.counters().cancelled, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, RouterDegradesOverTheLadderUnderASeededCostTable) {
  ServeOptions options = base_options("routerladder");
  options.ladder = {"sbo:lpt,delta=3/2", "graham:lpt"};
  ServeServer server(options);
  // Pin the cost table before any traffic: the best rung "costs" 100 ms,
  // the anchor 0.01 ms, and the queue-delay term is negligible.
  server.router().seed_cost(0, 100.0);
  server.router().seed_cost(1, 0.01);
  server.router().seed_overall(0.01);
  server.start();

  TestClient client(options.unix_path);
  // Generous SLO: the preferred (best) rung fits.
  client.send_line(std::string(R"({"id":"a","slo_ms":500,"instance":)") +
                   kInstance + "}");
  const auto best = client.read_line();
  ASSERT_TRUE(best);
  EXPECT_TRUE(contains(*best, R"("admission":"ok")")) << *best;
  EXPECT_TRUE(contains(*best, R"("spec":"sbo:lpt,delta=3/2")")) << *best;

  // Tight SLO: the router degrades past the preferred rung and flags it.
  client.send_line(std::string(R"({"id":"b","slo_ms":5,"instance":)") +
                   kInstance + "}");
  const auto degraded = client.read_line();
  ASSERT_TRUE(degraded);
  EXPECT_TRUE(contains(*degraded, R"("admission":"degraded")")) << *degraded;
  EXPECT_TRUE(contains(*degraded, R"("spec":"graham:lpt")")) << *degraded;
  EXPECT_TRUE(contains(*degraded, R"("rung":1)")) << *degraded;
  server.shutdown();
}

TEST_F(ServeServerTest, ExplicitSpecBypassesTheRouter) {
  ServeOptions options = base_options("explicitspec");
  ServeServer server(options);
  server.start();
  TestClient client(options.unix_path);
  client.send_line(std::string(R"({"spec":"rls:bottom,delta=3","instance":)") +
                   kInstance + "}");
  const auto line = client.read_line();
  ASSERT_TRUE(line);
  EXPECT_TRUE(contains(*line, R"("spec":"rls:bottom,delta=3")")) << *line;
  EXPECT_FALSE(contains(*line, "\"rung\":")) << *line;

  // An unknown explicit spec answers ok:false on that request only.
  client.send_line(std::string(R"({"spec":"nope:bogus","instance":)") +
                   kInstance + "}");
  const auto bad = client.read_line();
  ASSERT_TRUE(bad);
  EXPECT_TRUE(contains(*bad, R"("ok":false)")) << *bad;
  EXPECT_EQ(server.counters().solve_errors, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, DrainAnswersEverythingAdmittedThenCloses) {
  ServeOptions options = base_options("drain");
  options.threads = 1;
  ServeServer server(options);
  server.start();
  failpoint::set("serve.solve", "delay(15)");

  TestClient client(options.unix_path);
  constexpr int kRequests = 5;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += std::string(R"({"id":")") + std::to_string(i) +
             R"(","instance":)" + kInstance + "}\n";
  }
  client.send_raw(burst);
  // Give the loop a moment to admit the burst, then drain concurrently.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread drainer([&server] { server.shutdown(); });
  int answered = 0;
  while (const auto line = client.read_line()) {
    if (contains(*line, "\"id\":\"")) ++answered;
  }
  drainer.join();
  // Every admitted request was answered before the server closed the
  // connection (read_line sees EOF only after the last response).
  EXPECT_EQ(answered, kRequests);
  server.shutdown();  // idempotent
}

TEST_F(ServeServerTest, StaleUnixSocketFileIsReclaimed) {
  const std::string path = socket_path("stale");
  {
    // Leave a bound-but-dead socket file behind, as a crashed server would.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
        << std::strerror(errno);
    ::close(fd);  // the file stays on disk
  }
  ServeOptions options = base_options("stale");
  options.unix_path = path;
  ServeServer server(options);
  server.start();  // must reclaim, not EADDRINUSE
  TestClient client(path);
  client.send_line(std::string(R"({"instance":)") + kInstance + "}");
  EXPECT_TRUE(client.read_line());
  server.shutdown();
}

TEST_F(ServeServerTest, ConcurrentClientsSurviveInjectedFaults) {
  ServeOptions options = base_options("chaos");
  options.threads = 2;
  ServeServer server(options);
  server.start();
  // Chaos: some accept rounds fail (the connection is retried by the
  // level-triggered poller), and some request lines answer an injected
  // error -- but every request line still gets exactly one response.
  failpoint::set("serve.accept", "prob(0.3,7):throw(accept blip)");
  failpoint::set("serve.request", "prob(0.15,11):throw(request blip)");

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> answered{0};
  std::atomic<int> solved{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&options, &answered, &solved] {
      TestClient client(options.unix_path);
      for (int i = 0; i < kPerClient; ++i) {
        client.send_line(std::string(R"({"instance":)") + kInstance + "}");
      }
      for (int i = 0; i < kPerClient; ++i) {
        const auto line = client.read_line();
        if (!line) break;
        answered.fetch_add(1, std::memory_order_relaxed);
        if (contains(*line, R"("feasible":true)")) {
          solved.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_TRUE(contains(*line, "injected fault")) << *line;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_GT(solved.load(), 0);
  server.shutdown();
}

TEST_F(ServeServerTest, ResultCacheAnswersDuplicatesAndCountsThem) {
  storage::SolveCache cache;
  ServeOptions options = base_options("cache");
  options.cache = &cache;
  ServeServer server(options);
  server.start();

  // A tied instance and its permutation: graham:lpt answers them
  // differently, so the permutation must not be served from the first
  // one's entry.
  const std::string first =
      R"({"m":2,"tasks":[[5,1],[5,9],[3,3],[3,7],[2,2],[4,8],[4,1]]})";
  const std::string permuted =
      R"({"m":2,"tasks":[[5,9],[5,1],[3,7],[3,3],[2,2],[4,1],[4,8]]})";

  TestClient client(options.unix_path);
  client.send_line(R"({"id":"cold","instance":)" + first + "}");
  const auto cold = client.read_line();
  ASSERT_TRUE(cold);
  EXPECT_TRUE(contains(*cold, R"("ok":true)")) << *cold;

  client.send_line(R"({"id":"warm","instance":)" + first + "}");
  const auto warm = client.read_line();
  ASSERT_TRUE(warm);

  // The hit is byte-identical to the cold solve past the per-request
  // envelope (id and timings differ by construction).
  EXPECT_EQ(fields_after(*cold), fields_after(*warm)) << *cold << "\n"
                                                      << *warm;

  client.send_line(R"({"id":"perm","instance":)" + permuted + "}");
  const auto perm = client.read_line();
  ASSERT_TRUE(perm);
  std::string expected;
  result_jsonl_fields(
      make_solver("graham:lpt")->solve(instance_from_jsonl(permuted)), {},
      expected);
  EXPECT_EQ(fields_after(*perm), expected.substr(1) + "}") << *perm;
  EXPECT_NE(fields_after(*perm), fields_after(*cold)) << *perm;

  client.send_line(R"({"id":"s","statsz":true})");
  const auto statsz = client.read_line();
  ASSERT_TRUE(statsz);
  EXPECT_TRUE(contains(*statsz, R"("cache_hits":1)")) << *statsz;
  EXPECT_TRUE(contains(*statsz, R"("cache_misses":2)")) << *statsz;
  EXPECT_FALSE(contains(*statsz, R"("cache_bytes":0)")) << *statsz;

  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.cache_misses, 2u);
  EXPECT_GT(counters.cache_bytes, 0u);
  server.shutdown();
}

TEST_F(ServeServerTest, SpellingsOfOneSpecShareACacheEntry) {
  // The cache keys by the solver's canonical name, as the CLI does: "sbo:lpt"
  // and "sbo:lpt,delta=1" are one solver, so the second request hits.
  // Each response still echoes its own request's spec text.
  storage::SolveCache cache;
  ServeOptions options = base_options("cachename");
  options.cache = &cache;
  ServeServer server(options);
  server.start();
  TestClient client(options.unix_path);
  client.send_line(
      std::string(R"({"id":"short","spec":"sbo:lpt","instance":)") +
      kInstance + "}");
  const auto short_spec = client.read_line();
  ASSERT_TRUE(short_spec);
  client.send_line(
      std::string(R"({"id":"long","spec":"sbo:lpt,delta=1","instance":)") +
      kInstance + "}");
  const auto long_spec = client.read_line();
  ASSERT_TRUE(long_spec);
  EXPECT_TRUE(contains(*short_spec, R"("spec":"sbo:lpt",)")) << *short_spec;
  EXPECT_TRUE(contains(*long_spec, R"("spec":"sbo:lpt,delta=1",)"))
      << *long_spec;
  EXPECT_EQ(fields_after(*short_spec), fields_after(*long_spec));

  client.send_line(R"({"id":"s","statsz":true})");
  const auto statsz = client.read_line();
  ASSERT_TRUE(statsz);
  EXPECT_TRUE(contains(*statsz, R"("cache_hits":1,)")) << *statsz;
  EXPECT_TRUE(contains(*statsz, R"("cache_misses":1,)")) << *statsz;
  server.shutdown();
}

TEST_F(ServeServerTest, RefWithoutAStoreAnswersAnErrorNotADrop) {
  ServeOptions options = base_options("refless");
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  client.send_line(R"({"id":"r","ref":0})");
  const auto line = client.read_line();
  ASSERT_TRUE(line);
  EXPECT_TRUE(contains(*line, R"("ok":false)")) << *line;
  EXPECT_TRUE(contains(*line, "--store")) << *line;

  // The connection survives; a normal request still answers.
  client.send_line(std::string(R"({"id":"n","instance":)") + kInstance + "}");
  const auto next = client.read_line();
  ASSERT_TRUE(next);
  EXPECT_TRUE(contains(*next, R"("ok":true)")) << *next;
  server.shutdown();
}

TEST_F(ServeServerTest, RefSolvesFromTheAttachedStore) {
  const std::string store_name =
      "storesched-test-serve-ref-" + std::to_string(::getpid());
  storage::ShmStore::unlink(store_name);
  storage::ShmStore store = storage::ShmStore::create(store_name);
  const std::vector<Instance> instances = {
      Instance(std::vector<Task>{{3, 1}, {2, 2}, {5, 4}}, 2),
      Instance(std::vector<Task>{{7, 7}}, 1),
  };
  store.publish(wire::encode_instances(instances));

  ServeOptions options = base_options("refstore");
  options.store = &store;
  ServeServer server(options);
  server.start();

  TestClient client(options.unix_path);
  client.send_line(R"({"id":"by-ref","ref":0})");
  const auto by_ref = client.read_line();
  ASSERT_TRUE(by_ref);
  EXPECT_TRUE(contains(*by_ref, R"("ok":true)")) << *by_ref;

  client.send_line(std::string(R"({"id":"inline","instance":)") + kInstance +
                   "}");
  const auto inline_line = client.read_line();
  ASSERT_TRUE(inline_line);
  EXPECT_EQ(fields_after(*by_ref), fields_after(*inline_line))
      << *by_ref << "\n"
      << *inline_line;

  client.send_line(R"({"id":"oob","ref":2})");
  const auto oob = client.read_line();
  ASSERT_TRUE(oob);
  EXPECT_TRUE(contains(*oob, R"("ok":false)")) << *oob;
  EXPECT_TRUE(contains(*oob, "out of range")) << *oob;

  server.shutdown();
  EXPECT_GT(storage::ShmStore::unlink(store_name), 0u);
}

TEST_F(ServeServerTest, RefsFollowARepublish) {
  const std::string store_name =
      "storesched-test-serve-republish-" + std::to_string(::getpid());
  storage::ShmStore::unlink(store_name);
  storage::ShmStore store = storage::ShmStore::create(store_name);
  const std::vector<Instance> first = {
      Instance(std::vector<Task>{{3, 1}, {2, 2}, {5, 4}}, 2),
      Instance(std::vector<Task>{{7, 7}}, 1),
  };
  const std::vector<Instance> second = {
      Instance(std::vector<Task>{{9, 2}, {4, 4}, {1, 8}, {6, 3}}, 3),
      Instance(std::vector<Task>{{2, 5}, {2, 5}}, 2),
      Instance(std::vector<Task>{{8, 1}, {3, 6}, {4, 4}}, 2),
  };
  store.publish(wire::encode_instances(first));

  ServeOptions options = base_options("republish");
  options.store = &store;
  ServeServer server(options);
  server.start();
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  const auto expected = [&](const Instance& inst) {
    return fields_after(result_to_jsonl(0, solver->solve(inst)));
  };

  TestClient client(options.unix_path);
  client.send_line(R"({"id":"a","ref":0})");
  const auto before = client.read_line();
  ASSERT_TRUE(before);
  EXPECT_EQ(fields_after(*before), expected(first[0])) << *before;
  client.send_line(R"({"id":"b","ref":2})");
  const auto oob = client.read_line();
  ASSERT_TRUE(oob);
  EXPECT_TRUE(contains(*oob, "out of range")) << *oob;

  store.publish(wire::encode_instances(second));
  client.send_line(R"({"id":"c","ref":0})");
  const auto after = client.read_line();
  ASSERT_TRUE(after);
  EXPECT_EQ(fields_after(*after), expected(second[0])) << *after;
  client.send_line(R"({"id":"d","ref":2})");
  const auto last = client.read_line();
  ASSERT_TRUE(last);
  EXPECT_TRUE(contains(*last, R"("ok":true)")) << *last;
  EXPECT_EQ(fields_after(*last), expected(second[2])) << *last;

  server.shutdown();
  EXPECT_GT(storage::ShmStore::unlink(store_name), 0u);
}

/// The send buffer of a fresh unix stream socket: what one write to an
/// unread connection can take.
std::size_t unix_socket_buffer_bytes() {
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) return 0;
  int sndbuf = 0;
  socklen_t len = sizeof sndbuf;
  ::getsockopt(pair[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len);
  ::close(pair[0]);
  ::close(pair[1]);
  return static_cast<std::size_t>(sndbuf);
}

/// Pipelines 2,000 requests on one connection, with schedules in the
/// responses, before reading any answer: the responses outgrow the socket
/// buffer, so the worker and loop writes to one outbox meet a full
/// socket. Every id must come back exactly once.
void pipeline_past_the_socket_buffer(const std::string& name,
                                     std::optional<std::size_t> window) {
  ServeOptions options = base_options(name);
  options.result.include_schedule = true;
  if (window) options.conn_window = *window;
  ServeServer server(options);
  server.start();

  std::string instance = R"({"m":4,"tasks":[)";
  for (int t = 0; t < 64; ++t) {
    instance += t ? ",[" : "[";
    instance += std::to_string(t * 7 % 13 + 1) + ',';
    instance += std::to_string(t * 5 % 11 + 1) + ']';
  }
  instance += "]}";
  constexpr int kRequests = 2000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"id":")" + std::to_string(i) + R"(","instance":)" +
             instance + "}\n";
  }
  TestClient client(options.unix_path);
  client.send_raw(burst);

  std::vector<int> answered(kRequests, 0);
  std::size_t response_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line) << "response " << i << " missing";
    ASSERT_TRUE(contains(*line, R"("ok":true)")) << *line;
    ASSERT_TRUE(contains(*line, R"("proc":[)")) << *line;
    ++answered.at(static_cast<std::size_t>(std::stoi(id_of(*line))));
    response_bytes += line->size() + 1;
  }
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(answered[static_cast<std::size_t>(i)], 1) << "id " << i;
  }
  // Nothing extra is queued behind the 2,000: the next line answers this.
  client.send_line(R"({"id":"s","statsz":true})");
  const auto statsz = client.read_line();
  ASSERT_TRUE(statsz);
  EXPECT_EQ(id_of(*statsz), "s") << *statsz;
  EXPECT_TRUE(contains(*statsz, R"("responses":2000)")) << *statsz;

  // The test only means something if the answers outgrew what one unix
  // socket buffers.
  EXPECT_GT(response_bytes, unix_socket_buffer_bytes());
  server.shutdown();
}

TEST_F(ServeServerTest, PipelinePastTheSocketBufferAnswersEachIdOnce) {
  pipeline_past_the_socket_buffer("pastbuf", std::nullopt);
}

TEST_F(ServeServerTest, PipelinePastTheSocketBufferAtWindowOne) {
  pipeline_past_the_socket_buffer("pastbuf1", 1);
}

TEST_F(ServeServerTest, ResponsesLargerThanTheSocketBufferArriveWhole) {
  // One request at a time leaves the loop nothing to do for the
  // connection, so the worker that solved each request writes its
  // response. Each response is about twice the socket buffer and the
  // client reads only after the worker is done, so that write is always
  // partial and the loop must send the rest.
  const std::size_t sndbuf = unix_socket_buffer_bytes();
  ASSERT_GT(sndbuf, 0u);
  ServeOptions options = base_options("whole");
  options.result.include_schedule = true;
  options.max_line = 8 * sndbuf;
  ServeServer server(options);
  server.start();
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");

  TestClient client(options.unix_path);
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<Task> tasks;
    for (std::size_t t = 0; t < sndbuf / 4; ++t) {
      tasks.push_back({static_cast<Time>((t * 7 + k) % 13 + 1),
                       static_cast<Mem>(t * 5 % 11 + 1)});
    }
    const Instance inst(std::move(tasks), 4);
    client.send_line(R"({"id":"big","instance":)" + instance_to_jsonl(inst) +
                     "}");
    // The counter moves under the lock the worker writes under, so once it
    // does, the worker's send has already met an undrained socket.
    for (int waited_ms = 0; server.counters().responses <= k; ++waited_ms) {
      ASSERT_LT(waited_ms, 10000) << "response " << k << " never produced";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto line = client.read_line();
    ASSERT_TRUE(line) << "response " << k << " missing";
    EXPECT_GT(line->size(), sndbuf);
    // Compared as a bool: a mismatch would print two ~0.5 MB lines.
    EXPECT_TRUE(fields_after(*line) ==
                fields_after(result_to_jsonl(0, solver->solve(inst),
                                             options.result)))
        << "response " << k;
  }
  server.shutdown();
}

/// Sends `bytes` in chunks of 1 to `max_chunk` bytes drawn from `rng`.
void send_in_chunks(TestClient& client, const std::string& bytes, Rng& rng,
                    std::int64_t max_chunk) {
  for (std::size_t at = 0; at < bytes.size();) {
    const auto len = std::min(
        bytes.size() - at,
        static_cast<std::size_t>(rng.uniform_int(1, max_chunk)));
    client.send_raw(bytes.substr(at, len));
    at += len;
  }
}

/// The loop solves a request only in a pass after a poll that found
/// nothing ready (docs/SERVING.md, "Who solves a request"). A client that
/// sends the moment it has connected or read an answer can beat the loop
/// back to that poll, and its request then goes to the crew; a test that
/// needs the loop's solve gives the loop that moment first.
void let_the_loop_poll() {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

/// Sends `line` after let_the_loop_poll() and returns the answer. When
/// `loop` is set the request should be the loop's, and one the crew
/// answered instead (it still beat the loop back to its poll) is sent
/// again, up to five times; the caller checks loop_solves.
std::optional<std::string> ask(ServeServer& server, TestClient& client,
                               const std::string& line, bool loop) {
  const std::uint64_t before = server.counters().loop_solves;
  std::optional<std::string> answer;
  for (int attempt = 0; attempt < (loop ? 5 : 1); ++attempt) {
    let_the_loop_poll();
    client.send_line(line);
    answer = client.read_line();
    if (!answer || server.counters().loop_solves > before) break;
  }
  return answer;
}

/// Sends `line` after let_the_loop_poll() to a server whose queue has
/// never held a request and waits for its admission. Returns whether the
/// loop took it: a request handed to the crew raises the queue's peak.
bool send_to_the_loop(ServeServer& server, TestClient& client,
                      const std::string& line) {
  const ServeCounters before = server.counters();
  let_the_loop_poll();
  client.send_line(line);
  for (int waited_ms = 0; server.counters().requests == before.requests;
       ++waited_ms) {
    if (waited_ms >= 10000) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return server.counters().queue_peak == before.queue_peak;
}

/// A request for a three-task instance whose last memory weight is
/// `weight`, so that consecutive requests are distinct solves.
std::string cheap_request(const std::string& id, int weight,
                          const std::string& spec = "graham:lpt") {
  return R"({"id":")" + id + R"(","spec":")" + spec +
         R"(","instance":{"m":2,"tasks":[[3,1],[2,2],[5,)" +
         std::to_string(weight) + "]]}}";
}

/// The value of a response line's numeric field, or -1 without one.
double number_of(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return -1;
  return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

TEST_F(ServeServerTest, InlineRefAndWarmCacheAnswersMatchSolveBatch) {
  // The serve slice of the differential check: the same corpus answered
  // inline, by reference into the store, and again from the warm cache
  // must give solve_batch's result line, schedule included, byte for byte
  // past the envelope. The corpus holds the four families at n = 10, 20
  // and 128 (m = 4), layered DAGs at n = 30 and the tied pair. Each pass
  // spreads its requests over three connections and writes each stream in
  // random chunks. A last pass sends each entry inline and by reference
  // one request at a time, and the loop answers those of the list
  // scheduling specs, which it pins cheap.
  std::vector<Instance> corpus;
  Rng rng(20);
  for (const char* family :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    for (const std::size_t n :
         {std::size_t{10}, std::size_t{20}, std::size_t{128}}) {
      GenParams params;
      params.n = n;
      params.m = 4;
      for (int k = 0; k < 2; ++k) {
        corpus.push_back(generate_by_name(family, params, rng));
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    corpus.push_back(generate_dag_by_name("layered", 30, 4, {}, rng));
  }
  corpus.push_back(testing::kTiedFirst);
  corpus.push_back(testing::kTiedSecond);
  const std::string store_name =
      "storesched-test-serve-same-" + std::to_string(::getpid());
  storage::ShmStore::unlink(store_name);
  storage::ShmStore store = storage::ShmStore::create(store_name);
  store.publish(wire::encode_instances(corpus));

  ServeOptions options = base_options("same");
  options.store = &store;
  options.cache = &store.cache();
  options.result.include_schedule = true;
  // One worker: concurrent inserts may evict each other's fresh entries,
  // which would make the hit count below depend on the interleaving. (The
  // loop solves only while nothing else is in flight, so at most one of
  // its solves runs beside the worker's.)
  options.threads = 1;
  ServeServer server(options);
  server.start();
  constexpr std::size_t kConnections = 3;
  std::deque<TestClient> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back(options.unix_path);
  }

  const char* const specs[] = {"sbo:lpt,delta=1", "graham:lpt",
                               "pareto:exact"};
  const char* const passes[] = {"inline", "ref", "warm"};
  std::size_t solves = 0;
  std::size_t small = 0;  // independent, n <= 20: fits a cache slot
  for (const char* spec : specs) {
    // The entries the spec takes: DAGs where it supports precedence,
    // pareto:exact at n <= 10 only.
    const std::unique_ptr<Solver> solver = make_solver(spec);
    std::vector<std::size_t> picked;
    std::vector<Instance> accepted;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Instance& inst = corpus[i];
      if ((inst.has_precedence() &&
           !solver->capabilities(inst.m()).supports_precedence) ||
          (solver->name() == "pareto:exact" && inst.n() > 10)) {
        continue;
      }
      picked.push_back(i);
      accepted.push_back(inst);
      if (!inst.has_precedence() && inst.n() <= 20 &&
          solver->name() != "pareto:exact") {
        ++small;
      }
    }
    solves += std::size(passes) * picked.size();
    const std::vector<SolveResult> batch = solve_batch(*solver, accepted);
    for (const char* pass : passes) {
      const bool by_ref = std::string(pass) == "ref";
      std::vector<std::string> bursts(kConnections);
      for (std::size_t k = 0; k < picked.size(); ++k) {
        const std::size_t i = picked[k];
        std::string& burst = bursts[k % kConnections];
        burst += R"({"id":")" + std::to_string(i) + R"(","spec":")" + spec +
                 "\",";
        burst += by_ref ? R"("ref":)" + std::to_string(i)
                        : R"("instance":)" + instance_to_jsonl(corpus[i]);
        burst += "}\n";
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        send_in_chunks(clients[c], bursts[c], rng, 700);
      }
      std::map<std::string, std::string> answers;
      for (std::size_t k = 0; k < picked.size(); ++k) {
        const auto line = clients[k % kConnections].read_line();
        ASSERT_TRUE(line) << spec << " " << pass << ": response missing";
        answers[id_of(*line)] = *line;
      }
      for (std::size_t k = 0; k < picked.size(); ++k) {
        const std::size_t i = picked[k];
        const std::string& line = answers[std::to_string(i)];
        EXPECT_EQ(fields_after(line),
                  fields_after(result_to_jsonl(i, batch[k], options.result)))
            << spec << " " << pass << " #" << i << ": " << line;
      }
    }

    // One request at a time. With the list-scheduling specs pinned cheap,
    // the loop answers each of these whose instance fits its size cap,
    // cold, warm and by reference; pareto:exact stays on the crew.
    const bool list_spec = std::string(spec) != "pareto:exact";
    if (list_spec) server.pin_solver_cost(spec, 0);
    const std::uint64_t requests_before = server.counters().requests;
    std::size_t on_loop_count = 0;
    for (std::size_t k = 0; k < picked.size(); ++k) {
      const std::size_t i = picked[k];
      const Instance& inst = corpus[i];
      const std::size_t edges =
          inst.has_precedence() ? inst.dag().edge_count() : 0;
      const bool on_loop =
          list_spec &&
          std::max(inst.n(), edges) <= ServeServer::kLoopSolveMaxSize;
      for (const bool by_ref : {false, true}) {
        const std::uint64_t before = server.counters().loop_solves;
        const auto line = ask(
            server, clients[0],
            R"({"id":")" + std::to_string(i) + R"(","spec":")" + spec + "\"," +
                (by_ref ? R"("ref":)" + std::to_string(i)
                        : R"("instance":)" + instance_to_jsonl(inst)) +
                "}",
            on_loop);
        ASSERT_TRUE(line) << spec << " one at a time: response missing";
        EXPECT_EQ(fields_after(*line),
                  fields_after(result_to_jsonl(i, batch[k], options.result)))
            << spec << " one at a time #" << i << ": " << *line;
        EXPECT_EQ(server.counters().loop_solves, before + (on_loop ? 1 : 0))
            << spec << " one at a time #" << i;
        on_loop_count += on_loop ? 1 : 0;
      }
    }
    // ask() may have sent a request more than once.
    solves += server.counters().requests - requests_before;
    EXPECT_EQ(on_loop_count > 0, list_spec) << spec;
  }

  // Every request took the cache path, and every small independent entry
  // of the list-scheduling specs was answered from the cache in the two
  // later passes.
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.cache_hits + counters.cache_misses, solves);
  EXPECT_GE(counters.cache_hits, 2 * small);
  server.shutdown();
  EXPECT_GT(storage::ShmStore::unlink(store_name), 0u);
}

TEST_F(ServeServerTest, ConcurrentChunkedClientsGetEveryAnswerOnce) {
  // Clients pipeline solve lines (LF and CRLF, with a malformed line now
  // and then) in random chunks through a small window. Meanwhile one
  // client drops mid-line and a late one connects while the workers post
  // answers. Each line of a client that stays gets exactly one response.
  ServeOptions options = base_options("stress");
  options.conn_window = 4;
  ServeServer server(options);
  server.start();

  constexpr int kPerClient = 150;
  constexpr int kMalformedEvery = 25;
  const auto run_client = [&options](int c) {
    Rng rng(static_cast<std::uint64_t>(100 + c));
    std::string burst;
    int malformed = 0;
    for (int i = 0; i < kPerClient; ++i) {
      if (i % kMalformedEvery == 3) {
        burst += "{\"id\":\n";
        ++malformed;
      }
      burst += R"({"id":")" + std::to_string(c) + "-" + std::to_string(i) +
               R"(","instance":)" + kInstance + "}";
      burst += i % 3 == 0 ? "\r\n" : "\n";
    }
    TestClient client(options.unix_path);
    send_in_chunks(client, burst, rng, 300);
    std::map<std::string, int> answered;
    int errors = 0;
    for (int k = 0; k < kPerClient + malformed; ++k) {
      const auto line = client.read_line();
      ASSERT_TRUE(line) << "client " << c << ": response " << k << " missing";
      if (contains(*line, R"("ok":false)")) {
        ++errors;
      } else {
        EXPECT_TRUE(contains(*line, R"("feasible":true)")) << *line;
        ++answered[id_of(*line)];
      }
    }
    EXPECT_EQ(errors, malformed) << "client " << c;
    EXPECT_EQ(answered.size(), static_cast<std::size_t>(kPerClient))
        << "client " << c;
    for (const auto& [id, count] : answered) {
      EXPECT_EQ(count, 1) << "id " << id;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) threads.emplace_back(run_client, c);
  threads.emplace_back([&options] {
    TestClient rude(options.unix_path);
    std::string burst;
    for (int i = 0; i < 20; ++i) {
      burst += std::string(R"({"id":"rude-)") + std::to_string(i) +
               R"(","instance":)" + kInstance + "}\n";
    }
    rude.send_raw(burst + R"({"id":"rude-cut","instance":{"m":2,"ta)");
    rude.close();  // mid-line, with answers still on the way
  });
  // The late client connects once the workers are posting answers.
  for (int waited_ms = 0; server.counters().responses < 50; ++waited_ms) {
    ASSERT_LT(waited_ms, 10000) << "no responses posted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  threads.emplace_back(run_client, 3);
  for (auto& t : threads) t.join();

  // Drained, every admitted request and every malformed line was answered
  // once, including the dropped client's (its answers went nowhere).
  server.shutdown();
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.responses, counters.requests + counters.parse_errors);
  EXPECT_EQ(counters.parse_errors, 4u * kPerClient / kMalformedEvery);
  EXPECT_EQ(counters.oversized_lines, 0u);
}

// ------------------------------------------------ who solves a request
//
// Whether a cheap solver's measured cost is under the loop's bound depends
// on the build (a sanitizer build solves several times slower), so the
// tests that need one pin its cost with pin_solver_cost(). The first test
// measures, and skips where this build is too slow for the bound.

/// The result fields graham:lpt answers cheap_request(_, weight) with, as
/// fields_after() cuts them from a response line.
std::string cheap_answer(int weight) {
  const Instance inst(std::vector<Task>{{3, 1}, {2, 2}, {5, weight}}, 2);
  const SolveResult result = make_solver("graham:lpt")->solve(inst);
  return fields_after(result_to_jsonl(0, result));
}

TEST_F(ServeServerTest, FirstRequestOfASolverGoesToTheCrewThenTheLoopSolves) {
  ServeOptions options = base_options("loopfirst");
  ServeServer server(options);
  server.start();
  TestClient client(options.unix_path);

  // Nothing has measured graham:lpt yet, so the crew takes the first one.
  client.send_line(cheap_request("first", 1));
  const auto first = client.read_line();
  ASSERT_TRUE(first);
  EXPECT_EQ(fields_after(*first), cheap_answer(1)) << *first;
  EXPECT_EQ(server.counters().loop_solves, 0u);

  // Once its measured cost is under the bound, a request that finds the
  // crew idle is the loop's, and the loop answers what the solver does.
  std::vector<double> solve_ms;
  for (int weight = 2;
       weight <= 200 && server.counters().loop_solves == 0; ++weight) {
    let_the_loop_poll();
    client.send_line(cheap_request("next", weight));
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    EXPECT_EQ(fields_after(*line), cheap_answer(weight)) << *line;
    solve_ms.push_back(number_of(*line, "solve_ms"));
  }
  server.shutdown();
  std::sort(solve_ms.begin(), solve_ms.end());
  const double median_ms = solve_ms[solve_ms.size() / 2];
  if (server.counters().loop_solves == 0 &&
      median_ms > ServeServer::kLoopSolveBoundMs / 2) {
    GTEST_SKIP() << "this build's median solve, " << median_ms
                 << " ms, is too slow for the loop's bound";
  }
  EXPECT_GT(server.counters().loop_solves, 0u);
}

TEST_F(ServeServerTest, APinnedCheapSolverIsSolvedByTheLoopOneRequestAtATime) {
  ServeOptions options = base_options("looppinned");
  ServeServer server(options);
  server.pin_solver_cost("graham:lpt", 0);
  server.start();
  TestClient client(options.unix_path);
  for (int weight = 1; weight <= 5; ++weight) {
    const auto line = ask(server, client, cheap_request("q", weight), true);
    ASSERT_TRUE(line);
    EXPECT_EQ(fields_after(*line), cheap_answer(weight)) << *line;
  }
  // A costlier pin sends the next one to the crew.
  server.pin_solver_cost("graham:lpt", 2 * ServeServer::kLoopSolveBoundMs);
  client.send_line(cheap_request("q", 6));
  ASSERT_TRUE(client.read_line());
  EXPECT_EQ(server.counters().loop_solves, 5u);
  server.shutdown();
}

TEST_F(ServeServerTest, ARequestAdmittedWhileAnotherIsInFlightGoesToTheCrew) {
  ServeOptions options = base_options("loopbusy");
  ServeServer server(options);
  server.pin_solver_cost("graham:lpt", 0);
  server.start();
  TestClient client(options.unix_path);

  // The first request's spec is unmeasured, so it goes to the crew, where
  // the failpoint holds it for 50 ms. The second is pinned cheap and
  // arrives alone at an idle loop, but it finds the first in flight.
  failpoint::set("serve.solve", "delay(50)");
  client.send_line(cheap_request("held", 5, "rls:bottom,delta=3"));
  for (int waited_ms = 0; server.counters().requests == 0; ++waited_ms) {
    ASSERT_LT(waited_ms, 10000) << "the request was never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  let_the_loop_poll();
  client.send_line(cheap_request("second", 6));
  std::map<std::string, std::string> answers;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    answers[id_of(*line)] = *line;
  }
  EXPECT_TRUE(contains(answers["held"], R"("feasible":true)"));
  EXPECT_EQ(fields_after(answers["second"]), cheap_answer(6));
  EXPECT_EQ(server.counters().loop_solves, 0u);

  // With nothing in flight, the same request is the loop's.
  failpoint::clear_all();
  ASSERT_TRUE(ask(server, client, cheap_request("third", 6), true));
  EXPECT_EQ(server.counters().loop_solves, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, ARequestThatArrivedDuringALoopSolveGoesToTheCrew) {
  const ServeOptions options = base_options("loopwaiting");
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 5) << "the loop never took the first request";
    ServeServer server(options);
    server.pin_solver_cost("graham:lpt", 0);
    server.start();
    TestClient c(options.unix_path);
    TestClient a(options.unix_path);

    // The loop takes "c" and the failpoint holds it there for 100 ms; the
    // admission shows in the counters once the pass is over, and 20 ms on
    // the loop is inside the solve. "a" arrives meanwhile, so its bytes
    // are waiting when the loop comes back to poll: the loop is busy, and
    // the crew solves "a" although it is idle.
    failpoint::set("serve.solve", "nth(1):delay(100)");
    if (!send_to_the_loop(server, c, cheap_request("c", 3))) {
      failpoint::clear_all();  // "c" beat the loop back to its poll
      server.shutdown();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a.send_line(cheap_request("a", 4));
    const auto from_c = c.read_line();
    const auto from_a = a.read_line();
    ASSERT_TRUE(from_c);
    ASSERT_TRUE(from_a);
    EXPECT_EQ(fields_after(*from_c), cheap_answer(3)) << *from_c;
    EXPECT_EQ(fields_after(*from_a), cheap_answer(4)) << *from_a;
    EXPECT_EQ(server.counters().loop_solves, 1u);
    server.shutdown();
    return;
  }
}

TEST_F(ServeServerTest, ASolverCostlierThanTheBoundStaysOnTheCrew) {
  // A routed request reads its rung's cost in the router. Seeded at 1 ms,
  // the rung stays over the bound through the three solves below, each
  // of which the crew answers.
  ServeOptions options = base_options("loopcostly");
  options.ladder = {"graham:lpt"};
  ServeServer server(options);
  server.router().seed_cost(0, 1.0);
  server.start();
  TestClient client(options.unix_path);
  for (int weight = 1; weight <= 3; ++weight) {
    client.send_line(R"({"id":"q","instance":{"m":2,"tasks":[[3,1],[2,2],[5,)" +
                     std::to_string(weight) + "]]}}");
    const auto line = client.read_line();
    ASSERT_TRUE(line);
    EXPECT_EQ(fields_after(*line), cheap_answer(weight)) << *line;
  }
  EXPECT_EQ(server.counters().loop_solves, 0u);
  // Seeded cheap, the rung's next request is the loop's.
  server.router().seed_cost(0, 0);
  const auto line = ask(
      server, client,
      R"({"id":"q","instance":{"m":2,"tasks":[[3,1],[2,2],[5,4]]}})", true);
  ASSERT_TRUE(line);
  EXPECT_EQ(fields_after(*line), cheap_answer(4)) << *line;
  EXPECT_EQ(server.counters().loop_solves, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, ALargeInstanceOrAnExponentialSolverStaysOnTheCrew) {
  // Every spec here is pinned cheap, as a run of tiny instances would
  // leave it. The loop still takes only list scheduling on an instance of
  // at most kLoopSolveMaxSize tasks, edges and processors.
  ServeOptions options = base_options("loopsize");
  ServeServer server(options);
  for (const char* spec :
       {"graham:lpt", "rls:bottom,delta=3", "pareto:exact",
        "fallback:pareto:exact;sbo:lpt,delta=3/2", "sbo:multifit,delta=1"}) {
    server.pin_solver_cost(spec, 0);
  }
  server.start();
  TestClient client(options.unix_path);
  const std::size_t cap = ServeServer::kLoopSolveMaxSize;
  Rng rng(13);
  const auto instance = [&](std::size_t n, int m) {
    GenParams params;
    params.n = n;
    params.m = m;
    return generate_by_name("uniform", params, rng);
  };
  const auto solve = [&](const std::string& spec, const Instance& inst,
                         bool on_loop) {
    const std::uint64_t before = server.counters().loop_solves;
    const auto line = ask(server, client,
                          R"({"id":"q","spec":")" + spec +
                              R"(","instance":)" + instance_to_jsonl(inst) +
                              "}",
                          on_loop);
    ASSERT_TRUE(line);
    EXPECT_EQ(fields_after(*line),
              fields_after(result_to_jsonl(0, make_solver(spec)->solve(inst))))
        << spec << ": " << *line;
    EXPECT_EQ(server.counters().loop_solves, before + (on_loop ? 1 : 0))
        << spec << " at n = " << inst.n() << ", m = " << inst.m();
  };
  solve("graham:lpt", instance(cap, 4), /*on_loop=*/true);
  solve("graham:lpt", instance(cap + 1, 4), /*on_loop=*/false);
  solve("graham:lpt", instance(3, static_cast<int>(cap) + 1), false);
  const Instance dag = generate_dag_by_name("layered", 60, 4, {}, rng);
  ASSERT_GT(dag.dag().edge_count(), cap) << "the premise: a dense DAG";
  solve("rls:bottom,delta=3", dag, /*on_loop=*/false);
  solve("rls:bottom,delta=3", instance(20, 4), /*on_loop=*/true);
  solve("pareto:exact", instance(12, 3), /*on_loop=*/false);
  solve("fallback:pareto:exact;sbo:lpt,delta=3/2", instance(5, 2), false);
  solve("sbo:multifit,delta=1", instance(5, 2), /*on_loop=*/false);
  server.shutdown();
}

TEST_F(ServeServerTest, ARefWhoseEpochViewIsNotBuiltGoesToTheCrew) {
  const std::string store_name =
      "storesched-test-serve-loopref-" + std::to_string(::getpid());
  storage::ShmStore::unlink(store_name);
  storage::ShmStore store = storage::ShmStore::create(store_name);
  const std::vector<Instance> first = {
      Instance(std::vector<Task>{{3, 1}, {2, 2}, {5, 4}}, 2),
      Instance(std::vector<Task>{{7, 7}}, 1),
  };
  Rng rng(14);
  GenParams large;
  large.n = ServeServer::kLoopSolveMaxSize + 1;
  large.m = 4;
  const std::vector<Instance> second = {
      Instance(std::vector<Task>{{9, 2}, {4, 4}, {1, 8}, {6, 3}}, 3),
      Instance(std::vector<Task>{{2, 5}, {2, 5}}, 2),
      generate_by_name("uniform", large, rng),
  };
  store.publish(wire::encode_instances(first));

  ServeOptions options = base_options("loopref");
  options.store = &store;
  ServeServer server(options);
  server.pin_solver_cost("graham:lpt", 0);
  server.start();
  const std::unique_ptr<Solver> solver = make_solver("graham:lpt");
  TestClient client(options.unix_path);

  // One ref at a time, with the spec pinned cheap and the crew idle:
  // whether the loop solves it rests on the epoch view alone.
  const auto ref = [&](int index, const Instance& expected, bool on_loop) {
    const std::uint64_t before = server.counters().loop_solves;
    const auto line = ask(server, client,
                          R"({"id":"r","spec":"graham:lpt","ref":)" +
                              std::to_string(index) + "}",
                          on_loop);
    ASSERT_TRUE(line);
    EXPECT_EQ(fields_after(*line),
              fields_after(result_to_jsonl(0, solver->solve(expected))))
        << *line;
    EXPECT_EQ(server.counters().loop_solves, before + (on_loop ? 1 : 0))
        << "ref " << index;
  };
  ref(0, first[0], /*on_loop=*/false);  // no view built yet
  ref(1, first[1], /*on_loop=*/true);
  store.publish(wire::encode_instances(second));
  ref(1, second[1], /*on_loop=*/false);  // the view is of the old epoch
  ref(0, second[0], /*on_loop=*/true);
  ref(2, second[2], /*on_loop=*/false);  // more tasks than the size cap

  server.shutdown();
  EXPECT_GT(storage::ShmStore::unlink(store_name), 0u);
}

TEST_F(ServeServerTest, ADrainDuringALoopSolveAnswersItBeforeClosing) {
  const ServeOptions options = base_options("loopdrain");
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 5) << "the loop never took the request";
    ServeServer server(options);
    server.pin_solver_cost("graham:lpt", 0);
    server.start();
    TestClient client(options.unix_path);

    // The loop takes this request and the failpoint holds it there for
    // 100 ms. Once the admission shows in the counters, the pass that
    // admitted it is over, so the drain starts while the loop solves it.
    failpoint::set("serve.solve", "delay(100)");
    if (!send_to_the_loop(server, client, cheap_request("held", 7))) {
      failpoint::clear_all();  // it beat the loop back to its poll
      server.shutdown();
      continue;
    }
    std::thread drainer([&server] { server.shutdown(); });
    const auto held = client.read_line();
    const auto after = client.read_line();  // EOF: the connection closed
    drainer.join();
    ASSERT_TRUE(held) << "the loop's request must be answered before closing";
    EXPECT_EQ(id_of(*held), "held");
    EXPECT_EQ(fields_after(*held), cheap_answer(7)) << *held;
    EXPECT_FALSE(after);
    EXPECT_EQ(server.counters().loop_solves, 1u);
    return;
  }
}

TEST_F(ServeServerTest, TcpListenerRoundTripsOnAnEphemeralPort) {
  ServeOptions options;
  options.tcp_port = 0;  // ephemeral
  options.ladder = {"graham:lpt"};
  options.threads = 1;
  ServeServer server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  // TestClient is unix-only; a raw TCP socket keeps this test honest.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.tcp_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const std::string request =
      std::string(R"({"id":"t","instance":)") + kInstance + "}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string inbox;
  char buf[4096];
  while (inbox.find('\n') == std::string::npos) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    inbox.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_TRUE(contains(inbox, R"("id":"t")")) << inbox;
  EXPECT_TRUE(contains(inbox, R"("feasible":true)")) << inbox;
  ::close(fd);
  server.shutdown();
}

TEST(ServeServer, RejectsTcpPortsOutsideTheSixteenBitRange) {
  // htons() would wrap these: 70000 used to listen on port 4464.
  for (const int port : {-1, 65536, 70000}) {
    ServeOptions options;
    options.tcp_port = port;
    options.ladder = {"graham:lpt"};
    EXPECT_THROW(ServeServer server(options), std::invalid_argument) << port;
  }
}

}  // namespace
}  // namespace storesched
