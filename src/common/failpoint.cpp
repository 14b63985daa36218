#include "common/failpoint.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace storesched {
namespace failpoint {

namespace {

enum class Selector { kAlways, kNth, kEvery, kProb };
enum class Effect { kThrow, kDelay, kRaise };

struct Action {
  Selector selector = Selector::kAlways;
  std::size_t k = 0;        // nth/every parameter
  double probability = 0;   // prob parameter
  std::uint64_t rng_state = 0;
  Effect effect = Effect::kThrow;
  std::string message;      // throw(message)
  std::chrono::milliseconds delay{0};
  int signal = 0;           // raise(SIG)
  std::size_t hit_count = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Action> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

[[noreturn]] void bad_action(const std::string& what, const std::string& token) {
  throw std::invalid_argument("failpoint: " + what + " \"" + token + "\"");
}

/// splitmix64: one deterministic step of the prob() selector's stream.
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Parses "name(arg1[,arg2])" -> {name, args}; plain "name" -> no args.
struct Call {
  std::string name;
  std::vector<std::string> args;
};

Call parse_call(const std::string& token) {
  Call call;
  const std::size_t open = token.find('(');
  if (open == std::string::npos) {
    call.name = token;
    return call;
  }
  if (token.back() != ')') bad_action("unbalanced parentheses in", token);
  call.name = token.substr(0, open);
  const std::string inner = token.substr(open + 1, token.size() - open - 2);
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = inner.find(',', begin);
    if (comma == std::string::npos) {
      call.args.push_back(inner.substr(begin));
      break;
    }
    call.args.push_back(inner.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return call;
}

std::size_t parse_count(const std::string& token, const std::string& action) {
  if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
    bad_action("malformed count in", action);
  }
  const unsigned long long v = std::stoull(token);
  if (v == 0) bad_action("count must be >= 1 in", action);
  return static_cast<std::size_t>(v);
}

Action parse_action(const std::string& text) {
  Action action;
  // [selector:]effect -- split at the first ':' outside parentheses, so
  // throw(a:b) stays one token while every(5):throw splits cleanly.
  std::string selector_token;
  std::string effect_token = text;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (depth > 0) --depth;
    } else if (text[i] == ':' && depth == 0) {
      selector_token = text.substr(0, i);
      effect_token = text.substr(i + 1);
      break;
    }
  }

  if (!selector_token.empty()) {
    const Call sel = parse_call(selector_token);
    if (sel.name == "nth") {
      if (sel.args.size() != 1) bad_action("nth takes one argument in", text);
      action.selector = Selector::kNth;
      action.k = parse_count(sel.args[0], text);
    } else if (sel.name == "every") {
      if (sel.args.size() != 1) bad_action("every takes one argument in", text);
      action.selector = Selector::kEvery;
      action.k = parse_count(sel.args[0], text);
    } else if (sel.name == "prob") {
      if (sel.args.size() != 2) {
        bad_action("prob takes (probability, seed) in", text);
      }
      action.selector = Selector::kProb;
      try {
        action.probability = std::stod(sel.args[0]);
      } catch (const std::exception&) {
        bad_action("malformed probability in", text);
      }
      if (action.probability < 0.0 || action.probability > 1.0) {
        bad_action("probability outside [0,1] in", text);
      }
      if (sel.args[1].empty() ||
          sel.args[1].find_first_not_of("0123456789") != std::string::npos) {
        bad_action("malformed seed in", text);
      }
      action.rng_state = std::stoull(sel.args[1]);
    } else {
      bad_action("unknown selector", selector_token);
    }
  }

  const Call eff = parse_call(effect_token);
  if (eff.name == "throw") {
    action.effect = Effect::kThrow;
    if (eff.args.size() > 1) bad_action("throw takes at most one argument in", text);
    if (!eff.args.empty()) action.message = eff.args[0];
  } else if (eff.name == "delay") {
    action.effect = Effect::kDelay;
    if (eff.args.size() != 1) bad_action("delay takes (milliseconds) in", text);
    if (eff.args[0].empty() ||
        eff.args[0].find_first_not_of("0123456789") != std::string::npos) {
      bad_action("malformed delay in", text);
    }
    action.delay = std::chrono::milliseconds(std::stoull(eff.args[0]));
  } else if (eff.name == "raise") {
    action.effect = Effect::kRaise;
    if (eff.args.size() != 1) {
      bad_action("raise takes (KILL|TERM|INT) in", text);
    }
    const std::string& name = eff.args[0];
    action.signal = name == "KILL"   ? SIGKILL
                    : name == "TERM" ? SIGTERM
                    : name == "INT"  ? SIGINT
                                     : 0;
    if (action.signal == 0) bad_action("unknown signal in", text);
  } else {
    bad_action("unknown effect", effect_token);
  }
  return action;
}

/// Loads STORESCHED_FAILPOINTS once before main so env-armed sites fire
/// from the first hit (CLI runs never miss the head of the stream).
struct EnvInit {
  EnvInit() { reload_from_env(); }
};
const EnvInit env_init;

}  // namespace

namespace detail {

std::atomic<bool> armed{false};

void hit_armed(const char* site) {
  Action fire;  // copied out so the throw/sleep happens outside the lock
  bool matched = false;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    const auto it = reg.sites.find(site);
    if (it == reg.sites.end()) return;
    Action& action = it->second;
    ++action.hit_count;
    switch (action.selector) {
      case Selector::kAlways:
        matched = true;
        break;
      case Selector::kNth:
        matched = action.hit_count == action.k;
        break;
      case Selector::kEvery:
        matched = action.hit_count % action.k == 0;
        break;
      case Selector::kProb: {
        const double draw =
            static_cast<double>(next_rand(action.rng_state) >> 11) * 0x1.0p-53;
        matched = draw < action.probability;
        break;
      }
    }
    if (matched) fire = action;
  }
  if (!matched) return;
  if (fire.effect == Effect::kDelay) {
    std::this_thread::sleep_for(fire.delay);
    return;
  }
  if (fire.effect == Effect::kRaise) {
    // Delivered to this thread before raise() returns: SIGKILL ends the
    // process here, a handled SIGTERM/SIGINT has run its handler.
    std::raise(fire.signal);
    return;
  }
  throw InjectedFault("failpoint " + std::string(site) + ": " +
                      (fire.message.empty() ? "injected fault" : fire.message));
}

}  // namespace detail

void set(const std::string& site, const std::string& action) {
  if (site.empty() || site.find_first_of("=;") != std::string::npos) {
    throw std::invalid_argument("failpoint: malformed site name \"" + site +
                                "\"");
  }
  Action parsed = parse_action(action);  // validate before touching the map
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites[site] = std::move(parsed);
  detail::armed.store(true, std::memory_order_relaxed);
}

void clear(const std::string& site) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.erase(site);
  if (reg.sites.empty()) {
    detail::armed.store(false, std::memory_order_relaxed);
  }
}

void clear_all() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.sites.clear();
  detail::armed.store(false, std::memory_order_relaxed);
}

std::size_t hits(const std::string& site) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hit_count;
}

void reload_from_env() {
  clear_all();
  const char* env = std::getenv("STORESCHED_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  const std::string text(env);
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(';', begin);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "STORESCHED_FAILPOINTS: expected site=action, got \"" + entry +
          "\"");
    }
    set(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

}  // namespace failpoint
}  // namespace storesched
