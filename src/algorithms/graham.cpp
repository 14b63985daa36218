#include "algorithms/graham.hpp"

#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "algorithms/partition.hpp"

namespace storesched {

std::string to_string(PriorityPolicy policy) {
  switch (policy) {
    case PriorityPolicy::kInputOrder: return "input";
    case PriorityPolicy::kSpt: return "spt";
    case PriorityPolicy::kLpt: return "lpt";
    case PriorityPolicy::kBottomLevel: return "bottom-level";
    case PriorityPolicy::kSmallestStorage: return "min-storage";
    case PriorityPolicy::kLargestStorage: return "max-storage";
  }
  return "unknown";
}

std::vector<TaskId> priority_order(const Instance& inst,
                                   PriorityPolicy policy) {
  std::vector<TaskId> order(inst.n());
  if (policy == PriorityPolicy::kInputOrder) {
    std::iota(order.begin(), order.end(), 0);
    return order;
  }
  if (policy == PriorityPolicy::kBottomLevel && inst.has_precedence()) {
    const std::vector<Time> bl = inst.dag().bottom_levels(inst.tasks());
    stable_key_order<TaskId>(bl, /*descending=*/true, order);
    return order;
  }
  // Independent bottom levels are the processing times.
  const bool by_storage = policy == PriorityPolicy::kSmallestStorage ||
                          policy == PriorityPolicy::kLargestStorage;
  const bool descending = policy != PriorityPolicy::kSpt &&
                          policy != PriorityPolicy::kSmallestStorage;
  std::vector<std::int64_t> keys(inst.n());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Task& t = inst.task(static_cast<TaskId>(i));
    keys[i] = by_storage ? t.s : t.p;
  }
  stable_key_order<TaskId>(keys, descending, order);
  return order;
}

Schedule graham_list_schedule(const Instance& inst, PriorityPolicy policy) {
  if (inst.has_precedence()) return graham_event_schedule(inst, policy);
  // Every independent task is ready at t = 0, so each one, in priority
  // order, goes to the processor the simulation would fill next: the least
  // (free time, depth, id), found by a scan over the m processors. Depth
  // counts the zero-length tasks a processor has just run at its free
  // time; the simulation fills every processor idle at t before it
  // releases one whose task had p = 0.
  const std::vector<TaskId> order = priority_order(inst, policy);
  const int m = inst.m();
  std::vector<std::pair<Time, std::size_t>> slots(
      static_cast<std::size_t>(m));  // (free time, depth) per processor
  Schedule sched(inst);
  for (const TaskId i : order) {
    ProcId q = 0;
    Time t = slots[0].first;
    std::size_t d = slots[0].second;
    for (ProcId r = 1; r < m; ++r) {
      const auto [tr, dr] = slots[static_cast<std::size_t>(r)];
      const bool less = tr < t || (tr == t && dr < d);
      t = less ? tr : t;
      d = less ? dr : d;
      q = less ? r : q;
    }
    sched.assign(i, q, t);
    const Time p = inst.task(i).p;
    slots[static_cast<std::size_t>(q)] = {t + p, p > 0 ? 0 : d + 1};
  }
  return sched;
}

Schedule graham_event_schedule(const Instance& inst, PriorityPolicy policy) {
  const std::vector<TaskId> order = priority_order(inst, policy);
  std::vector<std::size_t> rank(inst.n());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    rank[static_cast<std::size_t>(order[pos])] = pos;
  }

  // Ready tasks keyed by priority rank (lower = sooner).
  using ReadyEntry = std::pair<std::size_t, TaskId>;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<>>
      ready;
  std::vector<std::size_t> pending(inst.n(), 0);
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    pending[static_cast<std::size_t>(i)] =
        inst.has_precedence() ? inst.dag().in_degree(i) : 0;
    if (pending[static_cast<std::size_t>(i)] == 0) {
      ready.push({rank[static_cast<std::size_t>(i)], i});
    }
  }

  // Idle processors (lowest id first) and in-flight completions.
  std::priority_queue<ProcId, std::vector<ProcId>, std::greater<>> idle;
  for (ProcId q = 0; q < inst.m(); ++q) idle.push(q);
  using Completion = std::pair<Time, TaskId>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      running;

  Schedule sched(inst);
  Time now = 0;
  std::size_t scheduled = 0;
  while (scheduled < inst.n()) {
    while (!idle.empty() && !ready.empty()) {
      const TaskId i = ready.top().second;
      ready.pop();
      const ProcId q = idle.top();
      idle.pop();
      sched.assign(i, q, now);
      running.push({now + inst.task(i).p, i});
      ++scheduled;
    }
    if (running.empty()) break;  // defensive; cannot happen on valid DAGs
    // Advance to the next completion and release everything finishing then.
    now = running.top().first;
    while (!running.empty() && running.top().first == now) {
      const TaskId done = running.top().second;
      running.pop();
      idle.push(sched.proc(done));
      if (inst.has_precedence()) {
        for (const TaskId v : inst.dag().succs(done)) {
          if (--pending[static_cast<std::size_t>(v)] == 0) {
            ready.push({rank[static_cast<std::size_t>(v)], v});
          }
        }
      }
    }
  }
  return sched;
}

Schedule spt_schedule(const Instance& inst) {
  if (inst.has_precedence()) {
    throw std::logic_error("spt_schedule: independent tasks only");
  }
  return graham_list_schedule(inst, PriorityPolicy::kSpt);
}

Time optimal_sum_completion(const Instance& inst) {
  return sum_completion_times(inst, spt_schedule(inst));
}

}  // namespace storesched
