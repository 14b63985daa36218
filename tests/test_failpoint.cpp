// Tests for the failpoint registry (common/failpoint.hpp): action grammar,
// selectors, hit counting, env arming, signal effects, and the zero-cost
// disarmed path.
#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace storesched {
namespace {

/// Clears every armed failpoint on scope exit so faults never leak into
/// other test cases (gtest runs cases in one process).
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clear_all(); }
};

TEST(Failpoint, DisarmedSiteIsANoOp) {
  failpoint::clear_all();
  for (int i = 0; i < 1000; ++i) failpoint::hit("stream.solve");
  // Unknown sites are equally silent; hits() only counts armed sites.
  EXPECT_EQ(failpoint::hits("stream.solve"), 0u);
}

TEST(Failpoint, BareThrowFiresOnEveryHit) {
  FailpointGuard guard;
  failpoint::set("t.site", "throw");
  EXPECT_THROW(failpoint::hit("t.site"), InjectedFault);
  EXPECT_THROW(failpoint::hit("t.site"), InjectedFault);
  EXPECT_EQ(failpoint::hits("t.site"), 2u);
}

TEST(Failpoint, ThrowMessageSurfacesInWhat) {
  FailpointGuard guard;
  failpoint::set("t.site", "throw(disk on fire)");
  try {
    failpoint::hit("t.site");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("disk on fire"), std::string::npos)
        << e.what();
  }
}

TEST(Failpoint, NthFiresExactlyOnce) {
  FailpointGuard guard;
  failpoint::set("t.site", "nth(3):throw");
  failpoint::hit("t.site");
  failpoint::hit("t.site");
  EXPECT_THROW(failpoint::hit("t.site"), InjectedFault);
  // Only the 3rd hit, nothing after.
  for (int i = 0; i < 10; ++i) failpoint::hit("t.site");
  EXPECT_EQ(failpoint::hits("t.site"), 13u);
}

TEST(Failpoint, EveryFiresPeriodically) {
  FailpointGuard guard;
  failpoint::set("t.site", "every(4):throw");
  int fired = 0;
  for (int i = 1; i <= 12; ++i) {
    try {
      failpoint::hit("t.site");
    } catch (const InjectedFault&) {
      ++fired;
      EXPECT_EQ(i % 4, 0) << "fired on hit " << i;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST(Failpoint, ProbIsDeterministicForAFixedSeed) {
  FailpointGuard guard;
  auto run = [&]() {
    failpoint::set("t.site", "prob(0.3,42):throw");
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      try {
        failpoint::hit("t.site");
        pattern += '.';
      } catch (const InjectedFault&) {
        pattern += 'X';
      }
    }
    return pattern;
  };
  const std::string first = run();
  const std::string second = run();  // set() resets the stream
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);

  // Degenerate probabilities behave as constants.
  failpoint::set("t.site", "prob(0,7):throw");
  for (int i = 0; i < 32; ++i) EXPECT_NO_THROW(failpoint::hit("t.site"));
  failpoint::set("t.site", "prob(1,7):throw");
  EXPECT_THROW(failpoint::hit("t.site"), InjectedFault);
}

TEST(Failpoint, DelayStallsButContinues) {
  FailpointGuard guard;
  failpoint::set("t.site", "delay(30)");
  const auto before = std::chrono::steady_clock::now();
  failpoint::hit("t.site");
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Failpoint, SetReplacesAndClearDisarms) {
  FailpointGuard guard;
  failpoint::set("t.site", "throw");
  EXPECT_THROW(failpoint::hit("t.site"), InjectedFault);
  failpoint::set("t.site", "delay(0)");  // replace: no longer throws
  EXPECT_NO_THROW(failpoint::hit("t.site"));
  EXPECT_EQ(failpoint::hits("t.site"), 1u);  // set() reset the counter
  failpoint::clear("t.site");
  EXPECT_NO_THROW(failpoint::hit("t.site"));
  EXPECT_EQ(failpoint::hits("t.site"), 0u);
}

TEST(Failpoint, MalformedActionsThrowInvalidArgument) {
  FailpointGuard guard;
  for (const char* bad :
       {"", "explode", "nth:throw", "nth(0):throw", "nth(x):throw",
        "every(0):throw", "prob(2,1):throw", "prob(0.5):throw", "delay()",
        "delay(-5)", "nth(3):", "nth(3):zap", "throw(unclosed"}) {
    EXPECT_THROW(failpoint::set("t.site", bad), std::invalid_argument)
        << "accepted: \"" << bad << "\"";
  }
  // A failed set must not leave the site half-armed.
  EXPECT_NO_THROW(failpoint::hit("t.site"));
}

TEST(Failpoint, ReloadFromEnvArmsAndClears) {
  FailpointGuard guard;
  ::setenv("STORESCHED_FAILPOINTS", "env.a=nth(1):throw;env.b=delay(0)", 1);
  failpoint::reload_from_env();
  EXPECT_THROW(failpoint::hit("env.a"), InjectedFault);
  EXPECT_NO_THROW(failpoint::hit("env.b"));
  EXPECT_EQ(failpoint::hits("env.b"), 1u);

  ::unsetenv("STORESCHED_FAILPOINTS");
  failpoint::reload_from_env();
  EXPECT_NO_THROW(failpoint::hit("env.a"));
  EXPECT_EQ(failpoint::hits("env.a"), 0u);
}

TEST(Failpoint, RaiseGrammarNamesThreeSignals) {
  FailpointGuard guard;
  for (const char* good :
       {"raise(KILL)", "raise(TERM)", "raise(INT)", "nth(2):raise(TERM)",
        "every(3):raise(INT)", "prob(0.5,9):raise(KILL)"}) {
    EXPECT_NO_THROW(failpoint::set("t.site", good)) << good;
  }
  for (const char* bad : {"raise", "raise()", "raise(HUP)", "raise(kill)",
                          "raise(9)", "raise(KILL,TERM)", "raise(SIGKILL)",
                          "nth(2):raise"}) {
    EXPECT_THROW(failpoint::set("t.site", bad), std::invalid_argument)
        << "accepted: \"" << bad << "\"";
  }
}

volatile std::sig_atomic_t g_caught = 0;

extern "C" void record_signal(int sig) { g_caught = sig; }

TEST(Failpoint, RaiseRunsTheHandlerBeforeHitReturns) {
  // A handled SIGTERM/SIGINT lands on the selected hit, synchronously:
  // the handler has run by the time hit() returns, and execution goes on.
  FailpointGuard guard;
  for (const auto& [action, sig] :
       {std::pair<const char*, int>{"nth(2):raise(TERM)", SIGTERM},
        std::pair<const char*, int>{"nth(2):raise(INT)", SIGINT}}) {
    g_caught = 0;
    const auto previous = std::signal(sig, record_signal);
    failpoint::set("t.site", action);
    failpoint::hit("t.site");
    EXPECT_EQ(g_caught, 0) << action;
    failpoint::hit("t.site");
    EXPECT_EQ(g_caught, sig) << action;
    g_caught = 0;
    failpoint::hit("t.site");  // nth: only the 2nd hit
    EXPECT_EQ(g_caught, 0) << action;
    std::signal(sig, previous);
  }
}

TEST(Failpoint, RaiseKillEndsTheProcessOnTheSelectedHit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        failpoint::set("t.site", "nth(3):raise(KILL)");
        failpoint::hit("t.site");
        failpoint::hit("t.site");
        failpoint::hit("t.site");
        std::_Exit(0);  // not reached: the 3rd hit kills
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

TEST(Failpoint, InjectedFaultIsARuntimeError) {
  // The stream driver's wire contract ("malformed input throws
  // runtime_error") must keep holding when the fault is injected.
  FailpointGuard guard;
  failpoint::set("t.site", "throw");
  EXPECT_THROW(failpoint::hit("t.site"), std::runtime_error);
}

}  // namespace
}  // namespace storesched
