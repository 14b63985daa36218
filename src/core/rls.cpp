#include "core/rls.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/env.hpp"
#include "core/rls_engine.hpp"

namespace storesched {

namespace {

/// Instance-wide constants both engines share. The memory cap is hoisted
/// out of the inner loops once per solve: tasks and memsize are integral,
/// so the exact rational test  memsize + s <= Delta * LB  is equivalent to
/// the single integer compare  memsize + s <= floor(Delta * LB).
struct RlsContext {
  std::vector<TaskId> order;      ///< rank -> task id
  std::vector<std::size_t> rank;  ///< task id -> rank
  Mem cap_floor = 0;              ///< floor(Delta * LB)
};

RlsContext make_context(const Instance& inst, const Fraction& delta,
                        PriorityPolicy tie_break, RlsResult& result) {
  result.lb = inst.storage_lower_bound_fraction();
  result.cap = delta * result.lb;
  result.marked.assign(static_cast<std::size_t>(inst.m()), false);
  result.schedule = Schedule(inst);

  RlsContext ctx;
  ctx.order = priority_order(inst, tie_break);
  ctx.rank.resize(inst.n());
  for (std::size_t pos = 0; pos < ctx.order.size(); ++pos) {
    ctx.rank[static_cast<std::size_t>(ctx.order[pos])] = pos;
  }
  ctx.cap_floor = result.cap.floor();
  return ctx;
}

void mark_processor(RlsResult& result, ProcId q) {
  if (!result.marked[static_cast<std::size_t>(q)]) {
    result.marked[static_cast<std::size_t>(q)] = true;
    ++result.marked_count;
  }
}

/// Lemma 4 runtime check (valid for any Delta > 1; for Delta <= 2 the bound
/// is >= m and trivially holds).
void check_marked_bound(const RlsResult& result, const Fraction& delta,
                        int m) {
  if (Fraction(1) < delta) {
    assert(result.marked_count <= rls_marked_bound(delta, m));
  }
  (void)result;
  (void)m;
}

// ---------------------------------------------------------------------------
// Fast engine: the ready-event kernel (rls_engine.hpp), one code path for
// independent and precedence-constrained instances.
//
// Each step finds  argmin over ready tasks of (earliest start, rank)  by
// sweeping *time events* upward from the previous placement's start T
// (start times are non-decreasing under list scheduling, so the sweep
// never rewinds). Events are processor load levels and ready-task release
// times, merged in ascending order; the sweep keeps a running maximum H of
// the headroom over every processor whose load it has passed, and after
// each event asks the released pool for the highest-priority task with
// s <= H -- one log-time descent. The first hit at event time t is exactly
// the reference scan's winner with earliest start t:
//
//   * a pool task found at t fits some passed processor (load <= t) and
//     fit none at any earlier event, so its load component is exactly t
//     (or <= T, in which case monotonicity pins its start to T = t);
//   * a bucket task merged at its release r and found there starts at r;
//   * any ready task not yet visible (release > t) or not yet fitting
//     (s > H) provably starts later.
//
// The placed processor is then re-derived by the (load, id)-ordered group
// walk -- first group with a fitting processor -- and every processor in a
// strictly earlier group was skipped for memory while strictly less
// loaded: exactly the set Lemma 4 marks, exactly as the reference records
// it. The independent case is the trivial instantiation: every task is
// released at time 0 and the bucket map stays empty.
//
// Processor bookkeeping is one insertion-sorted (load, id) vector: the
// sweep, the placement walk and the min-memsize witness scan all run over
// contiguous memory, and a placement is two bounded memmoves. That is
// formally O(m) per step, but m is hundreds at most while n reaches the
// tens of thousands -- a red-black tree's pointer chases lose to these
// scans at every benched size, and the per-step cost that actually scales
// with the instance (the frontier) stays logarithmic.
//
// Per-step cost: O(log n) pool/witness descents plus the O(m) contiguous
// processor pass. The ready-frontier width -- the quantity that made wide
// layered/fork-join DAGs quadratic under the old per-placement dirty
// rescans -- no longer appears.
// ---------------------------------------------------------------------------

void solve_kernel(const Instance& inst, const RlsContext& ctx,
                  RlsResult& result) {
  const std::size_t n = inst.n();
  const int m = inst.m();
  const bool prec = inst.has_precedence();

  std::vector<Time> load(static_cast<std::size_t>(m), 0);
  std::vector<Mem> memsize(static_cast<std::size_t>(m), 0);
  // (load, id)-sorted; see the bookkeeping note above.
  std::vector<std::pair<Time, ProcId>> procs;
  procs.reserve(static_cast<std::size_t>(m));
  for (ProcId q = 0; q < m; ++q) procs.emplace_back(0, q);

  rls_detail::ReadyFrontier frontier(n, ctx.order, ctx.rank);
  std::vector<bool> placed(n, false);
  std::vector<Time> pred_finish(prec ? n : 0, 0);
  std::unique_ptr<DagFrontierView> view;
  if (prec) view = std::make_unique<DagFrontierView>(inst.dag());
  std::vector<std::uint32_t> missing_preds =
      rls_detail::seed_frontier(inst, view.get(), frontier);

  Time now = 0;  // start time of the previous placement (non-decreasing)
  for (std::size_t step = 0; step < n; ++step) {
    // Infeasibility witness: the lowest ready task id whose storage exceeds
    // every processor's headroom (budgets only shrink, so it can never be
    // placed) -- checked against the whole frontier, buckets included.
    Mem min_mem = memsize[0];
    for (int q = 1; q < m; ++q) {
      min_mem = std::min(min_mem, memsize[static_cast<std::size_t>(q)]);
    }
    const Mem headroom_max = ctx.cap_floor - min_mem;
    if (frontier.max_storage() > headroom_max) {
      result.feasible = false;
      result.stuck_task = frontier.witness_exceeding(headroom_max);
      return;
    }
    if (frontier.empty()) {
      // Cannot happen on an acyclic instance: some unscheduled task always
      // has all predecessors scheduled.
      rls_detail::throw_no_ready_task("rls_schedule", inst, placed);
    }

    // Event sweep for this step's winner. The infeasibility check above
    // guarantees termination: once every processor is absorbed and every
    // bucket released, H is the global best headroom and some ready task
    // fits it.
    std::size_t gi = 0;
    Mem headroom = std::numeric_limits<Mem>::min();
    Time t = now;
    TaskId task = -1;
    for (;;) {
      while (gi < procs.size() && procs[gi].first <= t) {
        headroom = std::max(
            headroom,
            ctx.cap_floor -
                memsize[static_cast<std::size_t>(procs[gi].second)]);
        ++gi;
      }
      frontier.release_until(t);
      task = frontier.best_released(headroom);
      if (task != -1) break;
      Time next = std::numeric_limits<Time>::max();
      if (gi < procs.size()) next = procs[gi].first;
      if (frontier.has_pending()) {
        next = std::min(next, frontier.next_release());
      }
      assert(next != std::numeric_limits<Time>::max());
      t = next;
    }

    // Re-derive the placement: least-loaded (then lowest-id) processor
    // with headroom for the winner. Groups passed without a fit hold
    // strictly less-loaded processors skipped for memory -- the exact set
    // Lemma 4 marks for the placed task.
    const Mem s = inst.task(task).s;
    ProcId chosen = kNoProc;
    for (std::size_t k = 0; chosen == kNoProc;) {
      // The winner fits some processor (the sweep found it under H), so
      // the walk terminates before running off the end.
      assert(k < procs.size());
      const Time level = procs[k].first;
      std::size_t group_end = k;
      while (group_end < procs.size() && procs[group_end].first == level) {
        if (ctx.cap_floor -
                memsize[static_cast<std::size_t>(procs[group_end].second)] >=
            s) {
          chosen = procs[group_end].second;
          break;
        }
        ++group_end;
      }
      if (chosen != kNoProc) break;
      for (std::size_t j = k; j < group_end; ++j) {
        mark_processor(result, procs[j].second);
      }
      k = group_end;
    }
    const std::size_t ti = static_cast<std::size_t>(task);
    const std::size_t qi = static_cast<std::size_t>(chosen);
    assert(t == std::max(load[qi], prec ? pred_finish[ti] : Time{0}));

    result.schedule.assign(task, chosen, t);
    placed[ti] = true;
    frontier.pop(task);
    const auto old_at = std::lower_bound(
        procs.begin(), procs.end(), std::make_pair(load[qi], chosen));
    procs.erase(old_at);
    load[qi] = t + inst.task(task).p;
    memsize[qi] += s;
    procs.insert(std::lower_bound(procs.begin(), procs.end(),
                                  std::make_pair(load[qi], chosen)),
                 {load[qi], chosen});
    now = t;

    if (prec) {
      const Time finish = load[qi];
      for (const TaskId v : view->succs(task)) {
        const std::size_t vi = static_cast<std::size_t>(v);
        pred_finish[vi] = std::max(pred_finish[vi], finish);
        if (--missing_preds[vi] == 0) {
          frontier.push(v, inst.task(v).s, pred_finish[vi]);
        }
      }
    }
  }
  result.feasible = true;
}

}  // namespace

std::int64_t rls_marked_bound(const Fraction& delta, int m) {
  if (!(Fraction(1) < delta)) {
    throw std::invalid_argument("rls_marked_bound: Delta > 1 required");
  }
  return (Fraction(m) / (delta - Fraction(1))).floor();
}

RlsResult rls_schedule_reference(const Instance& inst, const Fraction& delta,
                                 PriorityPolicy tie_break) {
  if (!(Fraction(0) < delta)) {
    throw std::invalid_argument("rls_schedule: Delta must be > 0");
  }

  RlsResult result;
  const RlsContext ctx = make_context(inst, delta, tie_break, result);

  std::vector<Time> load(static_cast<std::size_t>(inst.m()), 0);
  std::vector<Mem> memsize(static_cast<std::size_t>(inst.m()), 0);
  std::vector<bool> scheduled(inst.n(), false);
  // Number of not-yet-scheduled predecessors; a task is "ready" once every
  // predecessor has been placed (its sigma is then known).
  std::vector<std::size_t> missing_preds(inst.n(), 0);
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    missing_preds[static_cast<std::size_t>(i)] =
        inst.has_precedence() ? inst.dag().in_degree(i) : 0;
  }

  for (std::size_t step = 0; step < inst.n(); ++step) {
    // Scan every ready task; compute its best processor and earliest start.
    TaskId best_task = -1;
    ProcId best_proc = kNoProc;
    Time best_ready = std::numeric_limits<Time>::max();

    for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
      if (scheduled[static_cast<std::size_t>(i)]) continue;
      if (missing_preds[static_cast<std::size_t>(i)] != 0) continue;

      // Least-loaded processor within the memory budget (ties: lowest id).
      ProcId chosen = kNoProc;
      for (ProcId q = 0; q < inst.m(); ++q) {
        if (Fraction(memsize[static_cast<std::size_t>(q)] + inst.task(i).s) >
            result.cap) {
          continue;
        }
        if (chosen == kNoProc ||
            load[static_cast<std::size_t>(q)] <
                load[static_cast<std::size_t>(chosen)]) {
          chosen = q;
        }
      }
      if (chosen == kNoProc) {
        // Memory budgets only grow, so this task can never be placed.
        result.feasible = false;
        result.stuck_task = i;
        return result;
      }

      // Earliest start: after every predecessor completes and after the
      // processor's current load.
      Time ready_time = load[static_cast<std::size_t>(chosen)];
      if (inst.has_precedence()) {
        for (const TaskId u : inst.dag().preds(i)) {
          ready_time = std::max(
              ready_time, result.schedule.start(u) + inst.task(u).p);
        }
      }

      const bool improves =
          ready_time < best_ready ||
          (ready_time == best_ready && best_task != -1 &&
           ctx.rank[static_cast<std::size_t>(i)] <
               ctx.rank[static_cast<std::size_t>(best_task)]);
      if (best_task == -1 || improves) {
        best_task = i;
        best_proc = chosen;
        best_ready = ready_time;
      }
    }

    if (best_task == -1) {
      rls_detail::throw_no_ready_task("rls_schedule", inst, scheduled);
    }

    // Analysis channel (Lemma 4): every processor strictly less loaded
    // than the placed task's choice was skipped for memory. Marks are
    // recorded only for the task actually selected this step, not for
    // every candidate scanned.
    for (ProcId q = 0; q < inst.m(); ++q) {
      if (load[static_cast<std::size_t>(q)] <
          load[static_cast<std::size_t>(best_proc)]) {
        mark_processor(result, q);
      }
    }

    result.schedule.assign(best_task, best_proc, best_ready);
    scheduled[static_cast<std::size_t>(best_task)] = true;
    load[static_cast<std::size_t>(best_proc)] =
        best_ready + inst.task(best_task).p;
    memsize[static_cast<std::size_t>(best_proc)] += inst.task(best_task).s;
    if (inst.has_precedence()) {
      for (const TaskId v : inst.dag().succs(best_task)) {
        --missing_preds[static_cast<std::size_t>(v)];
      }
    }
  }

  result.feasible = true;
  check_marked_bound(result, delta, inst.m());
  return result;
}

RlsResult rls_schedule_fast(const Instance& inst, const Fraction& delta,
                            PriorityPolicy tie_break) {
  if (!(Fraction(0) < delta)) {
    throw std::invalid_argument("rls_schedule: Delta must be > 0");
  }

  RlsResult result;
  const RlsContext ctx = make_context(inst, delta, tie_break, result);
  solve_kernel(inst, ctx, result);
  if (result.feasible) check_marked_bound(result, delta, inst.m());
  return result;
}

RlsResult rls_schedule(const Instance& inst, const Fraction& delta,
                       PriorityPolicy tie_break) {
  static const bool reference = env_flag_set("STORESCHED_RLS_REFERENCE");
  if (reference) {
    return rls_schedule_reference(inst, delta, tie_break);
  }
  return rls_schedule_fast(inst, delta, tie_break);
}

}  // namespace storesched
