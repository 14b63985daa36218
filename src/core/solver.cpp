#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/audit.hpp"
#include "core/constrained.hpp"
#include "core/stream.hpp"
#include "core/theory.hpp"
#include "core/triobjective.hpp"

namespace storesched {

namespace {

// ---------------------------------------------------------------------------
// Spec-string plumbing.
// ---------------------------------------------------------------------------

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      return parts;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

[[noreturn]] void bad_spec(const std::string& what, const std::string& token) {
  throw std::invalid_argument("make_solver: " + what + " \"" + token + "\"");
}

Fraction parse_fraction(const std::string& token) {
  const auto parse_int = [&](const std::string& digits) {
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      bad_spec("malformed fraction", token);
    }
    try {
      return std::stoll(digits);
    } catch (const std::exception&) {
      bad_spec("malformed fraction", token);
    }
  };
  const std::size_t slash = token.find('/');
  if (slash == std::string::npos) return Fraction(parse_int(token));
  const std::int64_t den = parse_int(token.substr(slash + 1));
  if (den == 0) bad_spec("malformed fraction", token);
  return Fraction(parse_int(token.substr(0, slash)), den);
}

struct PolicyName {
  const char* spec;
  PriorityPolicy policy;
};

constexpr PolicyName kPolicies[] = {
    {"input", PriorityPolicy::kInputOrder},
    {"spt", PriorityPolicy::kSpt},
    {"lpt", PriorityPolicy::kLpt},
    {"bottom", PriorityPolicy::kBottomLevel},
    {"minstore", PriorityPolicy::kSmallestStorage},
    {"maxstore", PriorityPolicy::kLargestStorage},
};

PriorityPolicy parse_policy(const std::string& token) {
  for (const PolicyName& entry : kPolicies) {
    if (token == entry.spec) return entry.policy;
  }
  bad_spec("unknown tie-break policy", token);
}

std::string policy_spec(PriorityPolicy policy) {
  for (const PolicyName& entry : kPolicies) {
    if (policy == entry.policy) return entry.spec;
  }
  throw std::logic_error("policy_spec: unmapped policy");
}

/// A spec body decomposed into its positional argument and key=value pairs.
struct SpecBody {
  std::string positional;  // empty if the body starts with key=value
  std::vector<std::pair<std::string, std::string>> options;
};

SpecBody parse_body(const std::string& body) {
  SpecBody result;
  if (body.empty()) return result;
  bool first = true;
  for (const std::string& token : split(body, ',')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (!first) bad_spec("expected key=value, got", token);
      result.positional = token;
    } else {
      result.options.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
    first = false;
  }
  return result;
}

/// Pulls the value of `key` out of the option list (erasing it); the caller
/// rejects whatever remains as unknown.
std::optional<std::string> take_option(SpecBody& body, const std::string& key) {
  for (auto it = body.options.begin(); it != body.options.end(); ++it) {
    if (it->first == key) {
      std::string value = it->second;
      body.options.erase(it);
      return value;
    }
  }
  return std::nullopt;
}

void reject_leftovers(const SpecBody& body, const std::string& family) {
  if (!body.options.empty()) {
    bad_spec("unknown option for " + family + " solver",
             body.options.front().first + "=" + body.options.front().second);
  }
}

/// "lpt" or "lpt/multifit" -> validated pair of scheduler spec strings.
std::pair<std::string, std::string> parse_alg_pair(const std::string& token) {
  const std::size_t slash = token.find('/');
  std::string a1 = slash == std::string::npos ? token : token.substr(0, slash);
  std::string a2 = slash == std::string::npos ? a1 : token.substr(slash + 1);
  try {
    make_scheduler(a1);
    make_scheduler(a2);
  } catch (const std::invalid_argument&) {
    bad_spec("unknown ingredient scheduler in", token);
  }
  return {std::move(a1), std::move(a2)};
}

std::string alg_pair_spec(const std::string& a1, const std::string& a2) {
  return a1 == a2 ? a1 : a1 + "/" + a2;
}

/// Shared post-processing: optional validation of a feasible result.
/// `cap` is the memory capacity to enforce -- only constrained solvers
/// pass one (SolveOptions::memory_capacity is ignored by the others, as
/// solver.hpp documents).
void maybe_validate(const Instance& inst, const SolveOptions& options,
                    bool timed, SolveResult& result,
                    std::optional<Mem> cap = std::nullopt) {
  if (!options.validate || !result.feasible) return;
  ValidationOptions vopts;
  vopts.require_timed = timed;
  vopts.memory_cap = cap.value_or(-1);
  const ValidationResult check = validate_schedule(inst, result.schedule, vopts);
  if (!check.ok) {
    result.feasible = false;
    if (!result.diagnostics.empty()) result.diagnostics += "; ";
    result.diagnostics += "validation failed: " + check.error;
  }
}

// ---------------------------------------------------------------------------
// Concrete solvers.
// ---------------------------------------------------------------------------

class SboSolver final : public Solver {
 public:
  SboSolver(std::string alg1, std::string alg2, Fraction delta)
      : alg1_spec_(std::move(alg1)),
        alg2_spec_(std::move(alg2)),
        alg1_(make_scheduler(alg1_spec_)),
        alg2_(make_scheduler(alg2_spec_)),
        delta_(delta) {
    if (!(Fraction(0) < delta_)) {
      throw std::invalid_argument("make_solver: sbo requires delta > 0, got " +
                                  delta_.to_string());
    }
  }

  std::string name() const override {
    return "sbo:" + alg_pair_spec(alg1_spec_, alg2_spec_) +
           ",delta=" + delta_.to_string();
  }

  Capabilities capabilities(int m) const override {
    Capabilities caps;
    caps.cmax_ratio = sbo_cmax_ratio(delta_, alg1_->ratio(m));
    caps.mmax_ratio = sbo_mmax_ratio(delta_, alg2_->ratio(m));
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    return result_from_run(inst, delta_,
                           sbo_schedule(inst, delta_, *alg1_, *alg2_),
                           options);
  }

  ApproxFront delta_sweep(const Instance& inst,
                          std::span<const Fraction> grid) const override {
    // sbo_sweep hoists the ingredient schedules out of the grid loop.
    return sbo_sweep(inst, *alg1_, *alg2_, grid);
  }

 private:
  SolveResult result_from_run(const Instance& inst, const Fraction& delta,
                              SboResult run,
                              const SolveOptions& options) const {
    SolveResult result;
    result.delta = delta;
    result.feasible = true;
    result.objectives = objectives(inst, run.schedule);
    result.cmax_bound = run.cmax_bound;
    result.mmax_bound = run.mmax_bound;
    result.cmax_ratio = sbo_cmax_ratio(delta, alg1_->ratio(inst.m()));
    result.mmax_ratio = sbo_mmax_ratio(delta, alg2_->ratio(inst.m()));
    result.schedule = run.schedule;
    result.sbo = std::move(run);
    maybe_validate(inst, options, /*timed=*/false, result);
    return result;
  }

  std::string alg1_spec_;
  std::string alg2_spec_;
  std::unique_ptr<MakespanScheduler> alg1_;
  std::unique_ptr<MakespanScheduler> alg2_;
  Fraction delta_;
};

/// Fills the shared RLS-family fields of a SolveResult from an RlsResult.
/// The run itself needs only Delta > 0; the Corollary 2-3 guarantees (and
/// provable feasibility) start strictly above Delta = 2, so below that the
/// result carries a diagnostics note instead of ratios.
void fill_from_rls(const Instance& inst, const Fraction& delta, RlsResult run,
                   SolveResult& result) {
  result.delta = delta;
  result.feasible = run.feasible;
  if (run.feasible) {
    result.objectives = objectives(inst, run.schedule);
    result.sum_ci = sum_completion_times(inst, run.schedule);
    result.mmax_bound = run.cap;  // budget enforced by construction
    result.schedule = run.schedule;
  } else {
    result.diagnostics =
        "infeasible: task " +
        std::to_string(run.stuck_task.value_or(-1)) +
        " fits on no processor under memory budget " + run.cap.to_string();
  }
  if (Fraction(2) < delta) {
    result.cmax_ratio = rls_cmax_ratio(delta, inst.m());
    result.mmax_ratio = rls_mmax_ratio(delta);
  } else {
    if (!result.diagnostics.empty()) result.diagnostics += "; ";
    result.diagnostics += "Delta = " + delta.to_string() +
                          " <= 2: outside the Corollary 2-3 guarantee zone "
                          "(the run itself requires only Delta > 0)";
  }
  result.rls = std::move(run);
}

class RlsSolver final : public Solver {
 public:
  RlsSolver(PriorityPolicy tie_break, Fraction delta)
      : tie_break_(tie_break), delta_(delta) {
    if (!(Fraction(0) < delta_)) {
      throw std::invalid_argument("make_solver: rls requires delta > 0, got " +
                                  delta_.to_string());
    }
  }

  std::string name() const override {
    return "rls:" + policy_spec(tie_break_) + ",delta=" + delta_.to_string();
  }

  Capabilities capabilities(int m) const override {
    Capabilities caps;
    caps.supports_precedence = true;
    caps.timed_output = true;
    caps.produces_sum_ci = true;
    if (Fraction(2) < delta_) {
      caps.cmax_ratio = rls_cmax_ratio(delta_, m);
      caps.mmax_ratio = rls_mmax_ratio(delta_);
    }
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    SolveResult result;
    fill_from_rls(inst, delta_, rls_schedule(inst, delta_, tie_break_), result);
    maybe_validate(inst, options, /*timed=*/true, result);
    return result;
  }

  ApproxFront delta_sweep(const Instance& inst,
                          std::span<const Fraction> grid) const override {
    return sweep_delta_grid(inst, grid, [&](const Fraction& delta) {
      RlsResult run = rls_schedule(inst, delta, tie_break_);
      if (!run.feasible) return std::optional<Schedule>();
      return std::optional<Schedule>(std::move(run.schedule));
    });
  }

 private:
  PriorityPolicy tie_break_;
  Fraction delta_;
};

class TriSolver final : public Solver {
 public:
  explicit TriSolver(Fraction delta) : delta_(delta) {
    if (!(Fraction(0) < delta_)) {
      throw std::invalid_argument("make_solver: tri requires delta > 0, got " +
                                  delta_.to_string());
    }
  }

  std::string name() const override {
    return "tri:spt,delta=" + delta_.to_string();
  }

  Capabilities capabilities(int m) const override {
    Capabilities caps;
    caps.timed_output = true;
    caps.produces_sum_ci = true;
    if (Fraction(2) < delta_) {
      caps.cmax_ratio = rls_cmax_ratio(delta_, m);
      caps.mmax_ratio = rls_mmax_ratio(delta_);
      caps.sumci_ratio = rls_sumci_ratio(delta_);
    }
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    // tri_objective_schedule() throws std::logic_error on precedence
    // instances, honoring supports_precedence = false.
    TriObjectiveResult run = tri_objective_schedule(inst, delta_);
    SolveResult result;
    fill_from_rls(inst, delta_, std::move(run.rls), result);
    if (result.feasible && Fraction(2) < delta_) {
      result.sumci_ratio = run.sumci_ratio;
    }
    maybe_validate(inst, options, /*timed=*/true, result);
    return result;
  }

  ApproxFront delta_sweep(const Instance& inst,
                          std::span<const Fraction> grid) const override {
    return sweep_delta_grid(inst, grid, [&](const Fraction& delta) {
      TriObjectiveResult run = tri_objective_schedule(inst, delta);
      if (!run.rls.feasible) return std::optional<Schedule>();
      return std::optional<Schedule>(std::move(run.rls.schedule));
    });
  }

 private:
  Fraction delta_;
};

Mem require_capacity(const SolveOptions& options, const std::string& who) {
  if (!options.memory_capacity) {
    throw std::invalid_argument(
        who + ": SolveOptions::memory_capacity is required");
  }
  return *options.memory_capacity;
}

void fill_from_constrained(const Instance& inst, Mem capacity,
                           ConstrainedResult run, SolveResult& result) {
  result.delta = run.delta_used;
  result.feasible = run.feasible;
  result.cmax_ratio = run.cmax_ratio;
  if (run.feasible) {
    result.objectives = run.objectives;
    result.mmax_bound = Fraction(capacity);
    result.mmax_ratio = inst.storage_lower_bound_fraction() == Fraction(0)
                            ? std::optional<Fraction>{}
                            : Fraction(capacity) /
                                  inst.storage_lower_bound_fraction();
    result.schedule = std::move(run.schedule);
  } else {
    result.diagnostics = "infeasible: no schedule found under capacity " +
                         std::to_string(capacity);
  }
}

class ConstrainedRlsSolver final : public Solver {
 public:
  explicit ConstrainedRlsSolver(PriorityPolicy tie_break)
      : tie_break_(tie_break) {}

  std::string name() const override {
    return "constrained:rls,tiebreak=" + policy_spec(tie_break_);
  }

  Capabilities capabilities(int) const override {
    Capabilities caps;
    caps.supports_precedence = true;
    caps.timed_output = true;
    caps.produces_sum_ci = true;
    caps.needs_capacity = true;
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    const Mem capacity = require_capacity(options, "constrained:rls");
    SolveResult result;
    fill_from_constrained(inst, capacity,
                          solve_constrained_rls(inst, capacity, tie_break_),
                          result);
    if (result.feasible) {
      result.sum_ci = sum_completion_times(inst, result.schedule);
    }
    maybe_validate(inst, options, /*timed=*/true, result, capacity);
    return result;
  }

 private:
  PriorityPolicy tie_break_;
};

class ConstrainedSboSolver final : public Solver {
 public:
  ConstrainedSboSolver(std::string alg1, std::string alg2, int refinements)
      : alg1_spec_(std::move(alg1)),
        alg2_spec_(std::move(alg2)),
        alg1_(make_scheduler(alg1_spec_)),
        alg2_(make_scheduler(alg2_spec_)),
        refinements_(refinements) {
    if (refinements_ < 0) {
      throw std::invalid_argument(
          "make_solver: constrained:sbo requires refinements >= 0, got " +
          std::to_string(refinements_));
    }
  }

  std::string name() const override {
    return "constrained:sbo,alg=" + alg_pair_spec(alg1_spec_, alg2_spec_) +
           ",refinements=" + std::to_string(refinements_);
  }

  Capabilities capabilities(int) const override {
    Capabilities caps;
    caps.needs_capacity = true;
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    const Mem capacity = require_capacity(options, "constrained:sbo");
    SolveResult result;
    fill_from_constrained(
        inst, capacity,
        solve_constrained_sbo(inst, capacity, *alg1_, *alg2_, refinements_),
        result);
    maybe_validate(inst, options, /*timed=*/false, result, capacity);
    return result;
  }

 private:
  std::string alg1_spec_;
  std::string alg2_spec_;
  std::unique_ptr<MakespanScheduler> alg1_;
  std::unique_ptr<MakespanScheduler> alg2_;
  int refinements_;
};

class ParetoExactSolver final : public Solver {
 public:
  explicit ParetoExactSolver(std::uint64_t limit) : limit_(limit) {}

  std::string name() const override {
    if (limit_ == kParetoEnumDefaultLimit) return "pareto:exact";
    return "pareto:exact,limit=" + std::to_string(limit_);
  }

  Capabilities capabilities(int) const override {
    Capabilities caps;
    caps.exact_front = true;
    // Ratios describe the *returned schedule* (the Cmax-optimal front
    // end), so only cmax_ratio is claimed. The Mmax-optimal end -- and
    // every other exact trade-off -- rides in SolveResult::pareto; no
    // single returned schedule can promise both.
    caps.cmax_ratio = Fraction(1);
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    // enumerate_pareto honors STORESCHED_PARETO_REFERENCE (A/B debugging)
    // and throws std::logic_error on precedence instances, honoring
    // supports_precedence = false.
    ParetoEnumResult run = enumerate_pareto(inst, limit_);
    SolveResult result;
    result.feasible = true;
    // The returned schedule is the Cmax-optimal front end; the whole
    // trade-off menu rides in the extras channel.
    const auto& best = run.front.front();
    result.schedule = run.schedules[static_cast<std::size_t>(best.tag)];
    result.objectives = best.value;
    result.cmax_ratio = Fraction(1);  // the representative is Cmax-optimal
    result.diagnostics = "exact front with " +
                         std::to_string(run.front.size()) +
                         " points in SolveResult::pareto";
    result.pareto = std::move(run);
    maybe_validate(inst, options, /*timed=*/false, result);
    return result;
  }

 private:
  std::uint64_t limit_;
};

class GrahamSolver final : public Solver {
 public:
  explicit GrahamSolver(PriorityPolicy policy) : policy_(policy) {}

  std::string name() const override {
    return "graham:" + policy_spec(policy_);
  }

  Capabilities capabilities(int m) const override {
    Capabilities caps;
    caps.supports_precedence = true;
    caps.timed_output = true;
    caps.produces_sum_ci = true;
    caps.cmax_ratio = Fraction(2 * m - 1, m);  // memory-blind: no mmax ratio
    return caps;
  }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    SolveResult result;
    result.feasible = true;
    result.schedule = graham_list_schedule(inst, policy_);
    result.objectives = objectives(inst, result.schedule);
    result.sum_ci = sum_completion_times(inst, result.schedule);
    result.cmax_ratio = capabilities(inst.m()).cmax_ratio;
    maybe_validate(inst, options, /*timed=*/true, result);
    return result;
  }

 private:
  PriorityPolicy policy_;
};

// ---------------------------------------------------------------------------
// Family dispatch.
// ---------------------------------------------------------------------------

Fraction take_delta(SpecBody& body, const Fraction& fallback) {
  const std::optional<std::string> raw = take_option(body, "delta");
  return raw ? parse_fraction(*raw) : fallback;
}

std::unique_ptr<Solver> build_solver(const std::string& family,
                                     SpecBody body) {
  if (family == "sbo") {
    auto [a1, a2] =
        parse_alg_pair(body.positional.empty() ? "lpt" : body.positional);
    const Fraction delta = take_delta(body, Fraction(1));
    reject_leftovers(body, family);
    return std::make_unique<SboSolver>(std::move(a1), std::move(a2), delta);
  }
  if (family == "rls") {
    const PriorityPolicy policy =
        parse_policy(body.positional.empty() ? "input" : body.positional);
    const Fraction delta = take_delta(body, Fraction(3));
    reject_leftovers(body, family);
    return std::make_unique<RlsSolver>(policy, delta);
  }
  if (family == "tri") {
    if (!body.positional.empty() && body.positional != "spt") {
      bad_spec("tri solver only supports the spt order, got", body.positional);
    }
    const Fraction delta = take_delta(body, Fraction(3));
    reject_leftovers(body, family);
    return std::make_unique<TriSolver>(delta);
  }
  if (family == "constrained") {
    if (body.positional == "rls") {
      const std::optional<std::string> tb = take_option(body, "tiebreak");
      const PriorityPolicy policy = parse_policy(tb.value_or("input"));
      reject_leftovers(body, family);
      return std::make_unique<ConstrainedRlsSolver>(policy);
    }
    if (body.positional == "sbo") {
      const std::optional<std::string> alg = take_option(body, "alg");
      auto [a1, a2] = parse_alg_pair(alg.value_or("lpt"));
      const std::optional<std::string> refine =
          take_option(body, "refinements");
      int refinements = 16;
      if (refine) {
        if (refine->empty() ||
            refine->find_first_not_of("0123456789") != std::string::npos) {
          bad_spec("malformed refinements value", *refine);
        }
        try {
          refinements = std::stoi(*refine);
        } catch (const std::exception&) {
          bad_spec("malformed refinements value", *refine);
        }
      }
      reject_leftovers(body, family);
      return std::make_unique<ConstrainedSboSolver>(std::move(a1),
                                                    std::move(a2), refinements);
    }
    bad_spec("constrained solver needs a driver (rls or sbo), got",
             body.positional);
  }
  if (family == "graham") {
    const PriorityPolicy policy =
        parse_policy(body.positional.empty() ? "input" : body.positional);
    reject_leftovers(body, family);
    return std::make_unique<GrahamSolver>(policy);
  }
  if (family == "pareto") {
    if (!body.positional.empty() && body.positional != "exact") {
      bad_spec("pareto solver only supports exact enumeration, got",
               body.positional);
    }
    std::uint64_t limit = kParetoEnumDefaultLimit;
    if (const std::optional<std::string> raw = take_option(body, "limit")) {
      if (raw->empty() ||
          raw->find_first_not_of("0123456789") != std::string::npos) {
        bad_spec("malformed limit value", *raw);
      }
      try {
        limit = std::stoull(*raw);
      } catch (const std::exception&) {
        bad_spec("malformed limit value", *raw);
      }
      if (limit == 0) bad_spec("malformed limit value", *raw);
    }
    reject_leftovers(body, family);
    return std::make_unique<ParetoExactSolver>(limit);
  }
  bad_spec("unknown solver family", family);
}

// ---------------------------------------------------------------------------
// The fallback ladder (graceful degradation).
// ---------------------------------------------------------------------------

/// `fallback:SPEC;SPEC[;...]` -- tries each rung in order and hands over on
/// exception, infeasibility, or exhausted deadline budget; the final rung
/// runs deadline-free so the ladder always answers. See the solver.hpp
/// grammar table.
class FallbackSolver final : public Solver {
 public:
  explicit FallbackSolver(std::vector<std::unique_ptr<Solver>> rungs)
      : rungs_(std::move(rungs)) {}

  std::string name() const override {
    std::string out = "fallback:";
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      if (i != 0) out += ';';
      out += rungs_[i]->name();
    }
    return out;
  }

  Capabilities capabilities(int m) const override {
    // The final rung is the anchor that guarantees an answer, so instance
    // support and the capacity requirement are its. Output-quality flags
    // hold only when every rung provides them (any rung may answer). No
    // ratio promises: the ratios depend on which rung answers, and each
    // SolveResult carries its own.
    Capabilities caps = rungs_.back()->capabilities(m);
    caps.cmax_ratio.reset();
    caps.mmax_ratio.reset();
    caps.sumci_ratio.reset();
    for (const std::unique_ptr<Solver>& rung : rungs_) {
      const Capabilities rc = rung->capabilities(m);
      caps.timed_output = caps.timed_output && rc.timed_output;
      caps.produces_sum_ci = caps.produces_sum_ci && rc.produces_sum_ci;
      caps.exact_front = caps.exact_front && rc.exact_front;
    }
    return caps;
  }

 protected:
  bool manages_deadline() const override { return true; }

  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    const auto start = std::chrono::steady_clock::now();
    std::string trail;  // why each skipped rung did not answer
    const auto note = [&](std::size_t i, const std::string& why) {
      if (!trail.empty()) trail += "; ";
      trail += "rung " + std::to_string(i + 1) + " (" + rungs_[i]->name() +
               ") " + why;
    };

    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      const bool last = i + 1 == rungs_.size();
      SolveOptions sub = options;
      if (last) {
        // The anchor answers unconditionally: its own envelope must not
        // demote the only answer the caller is still going to get.
        sub.deadline.reset();
      } else if (options.deadline) {
        const auto remaining =
            *options.deadline - (std::chrono::steady_clock::now() - start);
        if (remaining <= std::chrono::nanoseconds::zero()) {
          note(i, "skipped: deadline budget exhausted");
          continue;
        }
        sub.deadline = remaining;
      }

      SolveResult result;
      try {
        // The rung's full public envelope runs here, so its deadline
        // demotion is exactly the hand-over trigger.
        result = rungs_[i]->solve(inst, sub);
      } catch (const std::exception& e) {
        if (last) throw;  // nothing further to degrade to
        note(i, std::string("threw: ") + e.what());
        continue;
      }
      const bool cancelled = options.cancel && options.cancel->cancelled();
      if (!result.feasible && !last && !cancelled) {
        note(i, "infeasible" + (result.diagnostics.empty()
                                    ? std::string()
                                    : ": " + result.diagnostics));
        continue;
      }
      // This rung answered (or cancellation made descending pointless).
      if (!result.diagnostics.empty()) result.diagnostics += "; ";
      result.diagnostics += "fallback: answered by rung " +
                            std::to_string(i + 1) + "/" +
                            std::to_string(rungs_.size()) + " (" +
                            rungs_[i]->name() + ")";
      if (!trail.empty()) result.diagnostics += "; " + trail;
      return result;
    }
    throw std::logic_error("fallback: empty ladder");  // ctor guards >= 2
  }

 private:
  std::vector<std::unique_ptr<Solver>> rungs_;
};

/// Builds the ladder from the raw spec body (everything after "fallback:").
/// Bypasses parse_body(): rung specs contain the ','/'=' characters the
/// ordinary body grammar would mangle, so the only separator here is ';'.
std::unique_ptr<Solver> make_fallback_solver(const std::string& body) {
  const std::vector<std::string> rung_specs = split(body, ';');
  if (rung_specs.size() < 2) {
    bad_spec("fallback needs at least two ';'-separated rungs, got", body);
  }
  std::vector<std::unique_ptr<Solver>> rungs;
  rungs.reserve(rung_specs.size());
  for (const std::string& spec : rung_specs) {
    if (spec.empty()) bad_spec("empty rung in fallback spec", body);
    if (spec.substr(0, spec.find(':')) == "fallback") {
      bad_spec("fallback rungs cannot nest", spec);
    }
    rungs.push_back(make_solver(spec));
  }
  return std::make_unique<FallbackSolver>(std::move(rungs));
}

}  // namespace

SolveResult Solver::solve(const Instance& inst,
                          const SolveOptions& options) const {
  if (options.cancel && options.cancel->cancelled()) {
    SolveResult result;
    result.diagnostics = "cancelled before solve";
    return result;
  }

  SolveResult result;
  if (!options.deadline || manages_deadline()) {
    result = do_solve(inst, options);
  } else {
    const auto start = std::chrono::steady_clock::now();
    result = do_solve(inst, options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed > *options.deadline) {
      result.feasible = false;
      if (!result.diagnostics.empty()) result.diagnostics += "; ";
      result.diagnostics +=
          "deadline exceeded: solve took " +
          std::to_string(
              std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                  .count()) +
          " us against a budget of " +
          std::to_string(std::chrono::duration_cast<std::chrono::microseconds>(
                             *options.deadline)
                             .count()) +
          " us";
    }
  }

  // Every result that leaves the envelope is audited -- all families, all
  // call sites (direct, batch, stream, CLI, serve).
  audit(inst, result, options, "produced an invalid result");
  return result;
}

void Solver::audit(const Instance& inst, const SolveResult& result,
                   const SolveOptions& options,
                   std::string_view failure) const {
  if (!audit_enabled()) return;
  AuditOptions audit_options;
  if (options.memory_capacity && capabilities(inst.m()).needs_capacity) {
    audit_options.memory_capacity = options.memory_capacity;
  }
  const AuditReport report =
      audit_schedule(inst, result.schedule, result, audit_options);
  // A violation is a library bug (or a poisoned cache entry), never a data
  // error, so it throws instead of degrading the result.
  if (!report.ok()) {
    throw std::logic_error("STORESCHED_AUDIT: " + name() + " " +
                           std::string(failure) + ": " + report.to_string());
  }
}

ApproxFront Solver::delta_sweep(const Instance&,
                                std::span<const Fraction>) const {
  const std::string canonical = name();
  const std::string family = canonical.substr(0, canonical.find(':'));
  throw std::invalid_argument("front: solver family \"" + family +
                              "\" has no Delta knob");
}

std::unique_ptr<Solver> make_solver(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string family =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const std::string body =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  // The fallback body is a ';'-separated list of whole specs -- it gets its
  // own parser instead of the positional/key=value body grammar.
  if (family == "fallback") return make_fallback_solver(body);
  return build_solver(family, parse_body(body));
}

std::vector<std::string> registered_solver_specs() {
  std::vector<std::string> specs;
  for (const char* alg :
       {"ls", "lpt", "multifit", "kopt8", "ptas2", "ptas3", "exact"}) {
    specs.push_back("sbo:" + std::string(alg) + ",delta=1");
  }
  for (const PolicyName& entry : kPolicies) {
    specs.push_back("rls:" + std::string(entry.spec) + ",delta=3");
  }
  specs.push_back("tri:spt,delta=3");
  for (const PolicyName& entry : kPolicies) {
    specs.push_back("constrained:rls,tiebreak=" + std::string(entry.spec));
  }
  specs.push_back("constrained:sbo,alg=lpt,refinements=16");
  for (const PolicyName& entry : kPolicies) {
    specs.push_back("graham:" + std::string(entry.spec));
  }
  specs.push_back("pareto:exact");
  specs.push_back("fallback:pareto:exact;sbo:lpt,delta=1");
  return specs;
}

std::vector<SolveResult> solve_batch(const Solver& solver,
                                     std::span<const Instance> instances,
                                     const SolveOptions& options,
                                     const BatchOptions& batch) {
  std::vector<SolveResult> results(instances.size());
  if (instances.empty()) return results;
  SpanSource source(instances);
  VectorSink sink(results);
  StreamOptions stream;
  stream.threads = batch.threads;
  // The whole batch is in memory already and VectorSink stores by index,
  // so backpressure and reordering would only add latency: window = batch.
  stream.window = instances.size();
  stream.ordered = false;
  solve_stream(solver, source, sink, options, stream);
  return results;
}

std::vector<SolveResult> solve_batch(const std::string& spec,
                                     std::span<const Instance> instances,
                                     const SolveOptions& options,
                                     const BatchOptions& batch) {
  return solve_batch(*make_solver(spec), instances, options, batch);
}

ApproxFront front(const Instance& inst, const std::string& solver_spec,
                  std::span<const Fraction> grid) {
  // Delta-tunable solvers override delta_sweep() (SBO reusing its
  // ingredient schedules across the grid); knob-less families throw there.
  return make_solver(solver_spec)->delta_sweep(inst, grid);
}

}  // namespace storesched
