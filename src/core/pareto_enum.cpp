#include "core/pareto_enum.hpp"

#include <map>
#include <stdexcept>

#include "common/env.hpp"
#include "core/pareto_bb.hpp"

namespace storesched {

Time ParetoEnumResult::optimal_cmax() const {
  if (front.empty()) return 0;
  return front.front().value.cmax;
}

Mem ParetoEnumResult::optimal_mmax() const {
  if (front.empty()) return 0;
  return front.back().value.mmax;
}

namespace {

/// Incremental Pareto store: cmax -> (mmax, assignment), kept mutually
/// non-dominated (strictly increasing cmax, strictly decreasing mmax).
class FrontStore {
 public:
  void offer(Time c, Mem m, const std::vector<ProcId>& assign) {
    // Dominance check: among stored entries with cmax <= c the one with the
    // largest cmax has the smallest mmax, so it alone decides.
    auto it = entries_.upper_bound(c);
    if (it != entries_.begin()) {
      const auto& prev = std::prev(it)->second;
      if (prev.first <= m) return;  // dominated (or duplicated)
    }
    // Remove entries the new point dominates: cmax >= c with mmax >= m.
    while (it != entries_.end() && it->second.first >= m) {
      it = entries_.erase(it);
    }
    entries_[c] = {m, assign};
  }

  const std::map<Time, std::pair<Mem, std::vector<ProcId>>>& entries() const {
    return entries_;
  }

 private:
  std::map<Time, std::pair<Mem, std::vector<ProcId>>> entries_;
};

struct EnumState {
  const Instance* inst = nullptr;
  std::uint64_t limit = 0;
  std::uint64_t enumerated = 0;
  std::vector<ProcId> assign;
  std::vector<Time> load;
  std::vector<Mem> mem;
  FrontStore store;

  void dfs(std::size_t idx, int used) {
    if (idx == inst->n()) {
      if (++enumerated > limit) {
        throw std::runtime_error("enumerate_pareto: enumeration limit hit");
      }
      Time c = 0;
      Mem mm = 0;
      for (int q = 0; q < used; ++q) {
        c = std::max(c, load[static_cast<std::size_t>(q)]);
        mm = std::max(mm, mem[static_cast<std::size_t>(q)]);
      }
      store.offer(c, mm, assign);
      return;
    }
    const Task& t = inst->task(static_cast<TaskId>(idx));
    // A task may use any non-empty processor or open the first empty one.
    const int reach = std::min(used + 1, inst->m());
    for (ProcId q = 0; q < reach; ++q) {
      assign[idx] = q;
      load[static_cast<std::size_t>(q)] += t.p;
      mem[static_cast<std::size_t>(q)] += t.s;
      dfs(idx + 1, std::max(used, q + 1));
      load[static_cast<std::size_t>(q)] -= t.p;
      mem[static_cast<std::size_t>(q)] -= t.s;
    }
    assign[idx] = kNoProc;
  }
};

}  // namespace

ParetoEnumResult enumerate_pareto_reference(const Instance& inst,
                                            std::uint64_t limit) {
  if (inst.has_precedence()) {
    throw std::logic_error("enumerate_pareto: independent tasks only");
  }

  EnumState state;
  state.inst = &inst;
  state.limit = limit;
  state.assign.assign(inst.n(), kNoProc);
  state.load.assign(static_cast<std::size_t>(inst.m()), 0);
  state.mem.assign(static_cast<std::size_t>(inst.m()), 0);

  if (inst.n() == 0) {
    ParetoEnumResult empty;
    empty.front.push_back({{0, 0}, 0});
    empty.schedules.emplace_back(inst);
    empty.enumerated = 1;
    return empty;
  }
  state.dfs(0, 0);

  ParetoEnumResult result;
  result.enumerated = state.enumerated;
  for (const auto& [c, entry] : state.store.entries()) {
    Schedule sched(inst);
    for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
      sched.assign(i, entry.second[static_cast<std::size_t>(i)]);
    }
    result.front.push_back(
        {{c, entry.first}, static_cast<std::int64_t>(result.schedules.size())});
    result.schedules.push_back(std::move(sched));
  }
  return result;
}

ParetoEnumResult enumerate_pareto(const Instance& inst, std::uint64_t limit) {
  static const bool reference = env_flag_set("STORESCHED_PARETO_REFERENCE");
  if (reference) {
    return enumerate_pareto_reference(inst, limit);
  }
  return enumerate_pareto_bb(inst, limit);
}

}  // namespace storesched
