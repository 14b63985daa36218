#include "core/pareto_bb.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "algorithms/partition.hpp"
#include "common/fraction.hpp"
#include "common/rng.hpp"

namespace storesched {

std::size_t FrontStaircase::floor_entry(Time c) const {
  // First entry with cmax > c; its predecessor is the last with cmax <= c.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), c,
      [](Time value, const Entry& e) { return value < e.cmax; });
  if (it == entries_.begin()) return entries_.size();
  return static_cast<std::size_t>(it - entries_.begin()) - 1;
}

bool FrontStaircase::dominated(Time c, Mem m) const {
  const std::size_t at = floor_entry(c);
  return at < entries_.size() && entries_[at].mmax <= m;
}

bool FrontStaircase::can_improve(std::size_t at, Mem lb_m,
                                 std::int64_t lb_cm) const {
  if (at == entries_.size()) return true;  // nothing dominates c = lb_c yet
  // Walk the staircase gaps from entry `at`: within [gap start, next
  // entry's cmax) the dominance ceiling is prev->mmax, and the best c in
  // the gap is the largest one (it minimizes the m forced by the combined
  // bound).
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(at);
  for (auto prev = first, it = std::next(first);; prev = it++) {
    if (it == entries_.end()) {
      // Unbounded gap: c free, so only the per-objective floor binds.
      return lb_m < prev->mmax;
    }
    const Time c_best = it->cmax - 1;  // objectives are integral
    const Mem m_need = std::max<std::int64_t>(lb_m, lb_cm - c_best);
    if (m_need < prev->mmax) return true;
  }
}

bool FrontStaircase::offer(Time c, Mem m, std::span<const ProcId> assign) {
  if (dominated(c, m)) return false;
  // Entries the new point dominates are the leading run of the cmax >= c
  // suffix (mmax decreases along the staircase).
  auto first = std::lower_bound(
      entries_.begin(), entries_.end(), c,
      [](const Entry& e, Time value) { return e.cmax < value; });
  auto last = first;
  while (last != entries_.end() && last->mmax >= m) ++last;
  Entry entry{c, m, std::vector<ProcId>(assign.begin(), assign.end())};
  if (first != last) {
    *first = std::move(entry);
    entries_.erase(first + 1, last);
  } else {
    entries_.insert(first, std::move(entry));
  }
  return true;
}

std::int64_t load_floor(std::span<const std::int64_t> load,
                        const RemainingWeights& rest,
                        std::vector<std::int64_t>& scratch) {
  // Insertion sort while copying: m is small, and below 16 elements this
  // is the algorithm std::sort runs anyway.
  scratch.resize(load.size());
  for (std::size_t i = 0; i < load.size(); ++i) {
    std::size_t j = i;
    for (; j > 0 && scratch[j - 1] > load[i]; --j) scratch[j] = scratch[j - 1];
    scratch[j] = load[i];
  }
  std::int64_t bound = scratch.back();
  if (rest.count == 0) return bound;
  const std::span<const std::int64_t> l = scratch;
  const auto [w1, w2, w3] = rest.top;
  const std::size_t reach = std::min(rest.count, l.size());
  std::int64_t prefix = 0;
  for (std::size_t k = 1; k <= reach; ++k) {
    prefix += l[k - 1];
    // Water level over the k smallest loads: (total + prefix) / k. Valid
    // at the first k where the level stays below the (k+1)-th load; the
    // level >= k-th load holds there automatically.
    const std::int64_t num = rest.total + prefix;
    const auto kk = static_cast<std::int64_t>(k);
    if (k == reach || num <= l[k] * kk) {
      bound = std::max(bound, (num + kk - 1) / kk);
      break;
    }
  }
  bound = std::max(bound, l[0] + w1);
  if (rest.count >= 2 && l.size() >= 2) {
    bound = std::max(bound, std::min(l[1] + w2, l[0] + w1 + w2));
  }
  if (rest.count >= 3 && l.size() >= 3) {
    bound = std::max(bound, std::min(l[2] + w3, l[0] + w2 + w3));
  }
  return bound;
}

namespace {

/// RemainingWeights of every suffix order[idx..] of the search order, idx
/// = 0..n, on the axis `weight` reads.
template <class Weight>
std::vector<RemainingWeights> suffix_weights(const Instance& inst,
                                             std::span<const TaskId> order,
                                             Weight weight) {
  std::vector<RemainingWeights> rest(order.size() + 1);
  for (std::size_t idx = order.size(); idx-- > 0;) {
    RemainingWeights r = rest[idx + 1];
    std::int64_t w = weight(inst.task(order[idx]));
    ++r.count;
    r.total += w;
    for (std::int64_t& top : r.top) {
      if (w > top) std::swap(w, top);
    }
    rest[idx] = r;
  }
  return rest;
}

/// Child order of a search node: processors 0..reach-1 by ascending
/// normalized peak max((load + p) * m_ref, (mem + s) * c_ref) once `t` is
/// placed, ties by index. Each key is computed once; the insertion sort is
/// stable over the index order, so ties keep the lower index first.
void order_children(const Task& t, int reach,
                    std::span<const std::int64_t> load,
                    std::span<const std::int64_t> mem, std::int64_t c_ref,
                    std::int64_t m_ref, std::vector<Int128>& keys,
                    std::vector<ProcId>& cand) {
  keys.resize(static_cast<std::size_t>(reach));
  cand.resize(static_cast<std::size_t>(reach));
  for (ProcId q = 0; q < reach; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    const Int128 key = std::max(static_cast<Int128>(load[uq] + t.p) * m_ref,
                                static_cast<Int128>(mem[uq] + t.s) * c_ref);
    std::size_t j = uq;
    for (; j > 0 && keys[j - 1] > key; --j) {
      keys[j] = keys[j - 1];
      cand[j] = cand[j - 1];
    }
    keys[j] = key;
    cand[j] = q;
  }
}

struct BbState {
  const Instance* inst = nullptr;
  std::uint64_t limit = 0;
  std::uint64_t nodes = 0;
  std::size_t n = 0;
  int m = 0;
  std::int64_t c_star = 0;  // exact single-objective optima: global floors
  std::int64_t m_star = 0;
  std::int64_t c_ref = 1;  // axis normalizers for the child ordering
  std::int64_t m_ref = 1;  // (the optima when known, Graham bounds else)

  std::vector<TaskId> order;  // search order (see enumerate_pareto_bb)
  std::vector<RemainingWeights> rest_p;   // of order[idx..], size n + 1
  std::vector<RemainingWeights> rest_s;
  std::vector<RemainingWeights> rest_ps;  // on the p + s axis

  std::vector<std::int64_t> load;
  std::vector<std::int64_t> mem;
  std::vector<std::int64_t> combined;  // load[q] + mem[q], rebuilt per node
  std::vector<std::int64_t> scratch;   // load_floor's sorted loads
  std::vector<Int128> keys;                   // child-order scratch
  std::vector<ProcId> assign;                 // by task id
  std::vector<std::vector<ProcId>> children;  // per-depth candidate buffers
  FrontStaircase front;

  /// The prune at a node with two or more tasks left: false iff every
  /// completion is weakly dominated by an incumbent.
  bool can_improve(std::size_t idx) {
    // Per-objective floors on any completion, the remaining tasks placed
    // whole, and the exact single-objective optimum (a global floor;
    // without it the search burns its budget re-proving "no schedule beats
    // C*" in every subtree).
    const std::int64_t lb_c =
        std::max(load_floor(load, rest_p[idx], scratch), c_star);
    // The entry whose mmax bounds every point at lb_c; without one nothing
    // dominates c = lb_c yet, and the other floors cannot change that.
    const std::size_t at = front.floor_entry(lb_c);
    if (at == front.entries().size()) return true;
    const std::int64_t lb_m =
        std::max(load_floor(mem, rest_s[idx], scratch), m_star);
    // mmax falls along the staircase, so a floor at or above this entry's
    // mmax is dominated in every gap from here on.
    if (lb_m >= front.entries()[at].mmax) return false;
    // Combined floor: cmax + mmax >= max_q(load_q + mem_q) for every
    // schedule, so the floor of the combined loads bounds the objective
    // sum. This is the bound with teeth on anti-correlated instances,
    // where p + s is flat and neither axis bounds well alone.
    for (int q = 0; q < m; ++q) {
      combined[static_cast<std::size_t>(q)] =
          load[static_cast<std::size_t>(q)] + mem[static_cast<std::size_t>(q)];
    }
    const std::int64_t lb_cm = load_floor(combined, rest_ps[idx], scratch);
    return front.can_improve(at, lb_m, lb_cm);
  }

  void dfs(std::size_t idx, int used) {
    if (++nodes > limit) {
      throw std::runtime_error("enumerate_pareto: enumeration limit hit");
    }
    // The last task is not bounded: each of its children completes an
    // assignment, and a bound could only cut points the staircase rejects
    // anyway.
    const bool last = idx + 1 == n;
    if (!last && !can_improve(idx)) return;

    const Task& t = inst->task(order[idx]);
    const auto slot = static_cast<std::size_t>(order[idx]);
    // Symmetry breaking: any non-empty processor or the first empty one.
    // Smallest normalized peak first: DFS dives toward doubly-balanced
    // completions, which is what hands the dominance prune incumbents
    // early (single-point fronts are found, not stumbled upon).
    std::vector<ProcId>& cand = children[idx];
    order_children(t, std::min(used + 1, m), load, mem, c_ref, m_ref, keys,
                   cand);
    if (last) {
      // Each child's point goes to the staircase as it is, in child order
      // (first offer wins among duplicates); the leaves are not nodes.
      std::int64_t c = 0;
      std::int64_t mm = 0;
      for (int q = 0; q < used; ++q) {
        c = std::max(c, load[static_cast<std::size_t>(q)]);
        mm = std::max(mm, mem[static_cast<std::size_t>(q)]);
      }
      for (const ProcId q : cand) {
        const auto uq = static_cast<std::size_t>(q);
        assign[slot] = q;
        front.offer(std::max(c, load[uq] + t.p), std::max(mm, mem[uq] + t.s),
                    assign);
      }
    } else {
      for (const ProcId q : cand) {
        assign[slot] = q;
        load[static_cast<std::size_t>(q)] += t.p;
        mem[static_cast<std::size_t>(q)] += t.s;
        dfs(idx + 1, std::max(used, q + 1));
        load[static_cast<std::size_t>(q)] -= t.p;
        mem[static_cast<std::size_t>(q)] -= t.s;
      }
    }
    assign[slot] = kNoProc;
  }
};

/// Offers one assignment's (Cmax, Mmax) point to the staircase.
void offer_assignment(const Instance& inst, std::span<const ProcId> assign,
                      FrontStaircase& front) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(inst.m()), 0);
  std::vector<std::int64_t> mem(static_cast<std::size_t>(inst.m()), 0);
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const Task& t = inst.task(static_cast<TaskId>(i));
    load[static_cast<std::size_t>(assign[i])] += t.p;
    mem[static_cast<std::size_t>(assign[i])] += t.s;
  }
  std::int64_t c = 0;
  std::int64_t mm = 0;
  for (int q = 0; q < inst.m(); ++q) {
    c = std::max(c, load[static_cast<std::size_t>(q)]);
    mm = std::max(mm, mem[static_cast<std::size_t>(q)]);
  }
  front.offer(c, mm, assign);
}

/// Seeds the incumbent staircase with cheap achievable points: LPT and
/// MULTIFIT on each axis, and SBO threshold routings between each
/// time/storage ingredient pair across a geometric Delta ladder (the
/// Algorithm 1 recipe with C = Cmax(pi1), M = Mmax(pi2)). Every seed is a
/// real assignment, so seeding cannot perturb the exact front -- it only
/// lets the search prune earlier.
void seed_front(const Instance& inst, FrontStaircase& front) {
  std::vector<std::int64_t> wp;
  std::vector<std::int64_t> ws;
  wp.reserve(inst.n());
  ws.reserve(inst.n());
  for (const Task& t : inst.tasks()) {
    wp.push_back(t.p);
    ws.push_back(t.s);
  }

  const auto ladder = [&](const std::vector<ProcId>& pi1,
                          const std::vector<ProcId>& pi2) {
    const std::int64_t c_ing = partition_value(wp, pi1, inst.m());
    const std::int64_t m_ing = partition_value(ws, pi2, inst.m());
    if (c_ing == 0 || m_ing == 0) return;  // one objective is degenerate
    // Delta ladder 2^-5 .. 2^5; route task i to pi2 iff p_i/C < Delta
    // s_i/M, cross-multiplied in 128 bits exactly as core/sbo.cpp does.
    std::vector<ProcId> mixed(inst.n());
    for (int exp = -5; exp <= 5; ++exp) {
      const std::int64_t num = exp >= 0 ? (std::int64_t{1} << exp) : 1;
      const std::int64_t den = exp < 0 ? (std::int64_t{1} << -exp) : 1;
      const Int128 lhs_scale = static_cast<Int128>(den) * m_ing;
      const Int128 rhs_scale = static_cast<Int128>(num) * c_ing;
      for (std::size_t i = 0; i < inst.n(); ++i) {
        const Task& t = inst.task(static_cast<TaskId>(i));
        mixed[i] = t.p * lhs_scale < t.s * rhs_scale ? pi2[i] : pi1[i];
      }
      offer_assignment(inst, mixed, front);
    }
  };

  const std::vector<ProcId> lpt_p = lpt_assign(wp, inst.m());
  const std::vector<ProcId> lpt_s = lpt_assign(ws, inst.m());
  const std::vector<ProcId> mf_p = multifit_assign(wp, inst.m());
  const std::vector<ProcId> mf_s = multifit_assign(ws, inst.m());
  for (const auto* a : {&lpt_p, &lpt_s, &mf_p, &mf_s}) {
    offer_assignment(inst, *a, front);
  }
  ladder(lpt_p, lpt_s);
  ladder(mf_p, mf_s);
}

/// Greedy peak-reduction polish: repeatedly lower the normalized peak
/// max(load * m_ref, mem * c_ref) of the worst processor with single-task
/// moves, then pairwise swaps, until neither helps. Loads/mems are kept
/// incrementally consistent with `assign`.
void polish_assignment(const Instance& inst, std::int64_t c_ref,
                       std::int64_t m_ref, std::vector<ProcId>& assign,
                       std::vector<std::int64_t>& load,
                       std::vector<std::int64_t>& mem) {
  const int m = inst.m();
  const auto n = static_cast<TaskId>(inst.n());
  const auto pkey = [&](std::int64_t l, std::int64_t mm) {
    return std::max(static_cast<Int128>(l) * m_ref,
                    static_cast<Int128>(mm) * c_ref);
  };
  const auto at = [](std::vector<std::int64_t>& v, ProcId q) -> std::int64_t& {
    return v[static_cast<std::size_t>(q)];
  };
  for (int pass = 0; pass < 64; ++pass) {
    ProcId peak = 0;
    for (ProcId q = 1; q < m; ++q) {
      if (pkey(at(load, q), at(mem, q)) > pkey(at(load, peak), at(mem, peak))) {
        peak = q;
      }
    }
    const Int128 peak_key = pkey(at(load, peak), at(mem, peak));
    bool improved = false;
    for (TaskId i = 0; i < n && !improved; ++i) {
      if (assign[static_cast<std::size_t>(i)] != peak) continue;
      const Task& ti = inst.task(i);
      for (ProcId q = 0; q < m && !improved; ++q) {
        if (q == peak) continue;
        // Move i off the peak processor...
        if (std::max(pkey(at(load, peak) - ti.p, at(mem, peak) - ti.s),
                     pkey(at(load, q) + ti.p, at(mem, q) + ti.s)) < peak_key) {
          assign[static_cast<std::size_t>(i)] = q;
          at(load, peak) -= ti.p;
          at(mem, peak) -= ti.s;
          at(load, q) += ti.p;
          at(mem, q) += ti.s;
          improved = true;
        }
      }
      if (improved) break;
      // ...or swap it with a task elsewhere.
      for (TaskId j = 0; j < n && !improved; ++j) {
        const ProcId q = assign[static_cast<std::size_t>(j)];
        if (q == peak) continue;
        const Task& tj = inst.task(j);
        if (std::max(pkey(at(load, peak) - ti.p + tj.p,
                          at(mem, peak) - ti.s + tj.s),
                     pkey(at(load, q) + ti.p - tj.p,
                          at(mem, q) + ti.s - tj.s)) < peak_key) {
          assign[static_cast<std::size_t>(i)] = q;
          assign[static_cast<std::size_t>(j)] = peak;
          at(load, peak) += tj.p - ti.p;
          at(mem, peak) += tj.s - ti.s;
          at(load, q) += ti.p - tj.p;
          at(mem, q) += ti.s - tj.s;
          improved = true;
        }
      }
    }
    if (!improved) return;
  }
}

/// Randomized greedy dives: deterministic-seeded constructions in shuffled
/// task order, each placing the task on the processor with the smallest
/// resulting normalized peak max((load+p) * m_ref, (mem+s) * c_ref), then
/// polished by peak-reduction moves/swaps. On instances whose front
/// collapses to the doubly-balanced point (C*, M*) the tree search
/// degenerates into blind satisfiability -- millions of nodes hunting one
/// assignment -- while a few hundred polished dives usually hit it
/// outright and let the root prune instead. Resumable, so the capped probe
/// can pace it: each run() continues one fixed-seed trial sequence.
class DiveHunt {
 public:
  DiveHunt(const Instance& inst, std::int64_t c_ref, std::int64_t m_ref,
           std::uint64_t max_trials, FrontStaircase& front)
      : inst_(&inst), front_(&front), c_ref_(c_ref), m_ref_(m_ref),
        max_trials_(max_trials), order_(inst.n()), assign_(inst.n()) {
    std::iota(order_.begin(), order_.end(), TaskId{0});
  }

  /// True once a trial has reached the doubly-balanced target: every
  /// normalized peak at its floor.
  bool hit() const {
    return trials_ > 0 && best_key_ <= static_cast<Int128>(c_ref_) * m_ref_;
  }

  /// Runs trials until min(until, max_trials) have run in all or one hits;
  /// returns hit().
  bool run(std::uint64_t until) {
    for (until = std::min(until, max_trials_); trials_ < until && !hit();
         ++trials_) {
      trial();
    }
    return hit();
  }

 private:
  void trial() {
    const std::size_t n = inst_->n();
    const int m = inst_->m();
    load_.assign(static_cast<std::size_t>(m), 0);
    mem_.assign(static_cast<std::size_t>(m), 0);
    if (trials_ < 64 || trials_ % 64 == 0 || best_assign_.empty()) {
      // Fresh randomized greedy dive: Fisher-Yates order, each task on the
      // least normalized peak (the search's first child).
      for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order_[i - 1], order_[j]);
      }
      for (const TaskId id : order_) {
        const Task& t = inst_->task(id);
        order_children(t, m, load_, mem_, c_ref_, m_ref_, keys_, cand_);
        assign_[static_cast<std::size_t>(id)] = cand_[0];
        load_[static_cast<std::size_t>(cand_[0])] += t.p;
        mem_[static_cast<std::size_t>(cand_[0])] += t.s;
      }
    } else {
      // Iterated local search: kick the best assignment (a handful of
      // random reassignments) and re-polish from there.
      assign_ = best_assign_;
      const int kicks = 2 + static_cast<int>(rng_.uniform_int(
                                0, 2 + static_cast<std::int64_t>(n) / 8));
      for (int k = 0; k < kicks; ++k) {
        const auto i = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        assign_[i] = static_cast<ProcId>(rng_.uniform_int(0, m - 1));
      }
      for (std::size_t i = 0; i < n; ++i) {
        const Task& t = inst_->task(static_cast<TaskId>(i));
        load_[static_cast<std::size_t>(assign_[i])] += t.p;
        mem_[static_cast<std::size_t>(assign_[i])] += t.s;
      }
    }
    polish_assignment(*inst_, c_ref_, m_ref_, assign_, load_, mem_);
    offer_assignment(*inst_, assign_, *front_);
    Int128 key = 0;
    for (int q = 0; q < m; ++q) {
      const auto uq = static_cast<std::size_t>(q);
      key = std::max({key, static_cast<Int128>(load_[uq]) * m_ref_,
                      static_cast<Int128>(mem_[uq]) * c_ref_});
    }
    if (best_assign_.empty() || key < best_key_) {
      best_assign_ = assign_;
      best_key_ = key;
    }
  }

  const Instance* inst_;
  FrontStaircase* front_;
  std::int64_t c_ref_;
  std::int64_t m_ref_;
  std::uint64_t max_trials_;
  std::uint64_t trials_ = 0;
  Rng rng_{0xd1fe5eed};  // fixed seed: enumeration stays deterministic
  std::vector<TaskId> order_;
  std::vector<std::int64_t> load_;
  std::vector<std::int64_t> mem_;
  std::vector<ProcId> assign_;
  std::vector<ProcId> best_assign_;
  Int128 best_key_ = 0;
  std::vector<Int128> keys_;  // greedy placement scratch
  std::vector<ProcId> cand_;
};

/// Capped satisfiability probe for the ideal point: a DFS over the given
/// task order with *hard* per-processor caps cmax <= c_cap and
/// mmax <= m_cap (plus load_floor pruning against both), stopping at the
/// first complete assignment. When the ideal point (C*, M*) is achievable
/// -- the common case once n/m is large and weights are i.i.d. -- this
/// resolves in thousands of nodes where the Pareto search would hunt for
/// millions, and the found point then prunes the main search at the root.
/// When it is not, exhausting the capped tree proves so, usually in a few
/// hundred nodes. The probe races the dives: its node count paces them.
class CappedProbe {
 public:
  CappedProbe(const Instance& inst, std::span<const TaskId> order,
              std::span<const RemainingWeights> rest_p,
              std::span<const RemainingWeights> rest_s, std::int64_t c_cap,
              std::int64_t m_cap, std::uint64_t limit, DiveHunt& dives)
      : inst_(&inst),
        order_(order),
        rest_p_(rest_p),
        rest_s_(rest_s),
        c_cap_(c_cap),
        m_cap_(m_cap),
        limit_(limit),
        dives_(&dives),
        n_(inst.n()),
        m_(inst.m()),
        load_(static_cast<std::size_t>(inst.m()), 0),
        mem_(static_cast<std::size_t>(inst.m()), 0),
        assign_(inst.n(), kNoProc),
        children_(inst.n()) {}

  /// Runs the race. Returns true iff it settled the hunt: the probe found
  /// an assignment (and offered it), a dive hit, or the capped tree was
  /// exhausted, which proves the point unreachable. False means the probe
  /// hit its node budget first.
  bool run(FrontStaircase& front) {
    if (dfs(0, 0)) {
      offer_assignment(*inst_, assign_, front);
      return true;
    }
    return nodes_ <= limit_;
  }

 private:
  bool dfs(std::size_t idx, int used) {
    if (dives_->hit() || ++nodes_ > limit_) return false;
    // Each time the node count doubles, the dives catch up to nodes / 8
    // trials (about one trial's cost in probe nodes at n = 12, m = 3).
    if (nodes_ >= 16 && std::has_single_bit(nodes_) &&
        dives_->run(nodes_ / 8)) {
      return false;
    }
    if (idx == n_) return true;
    // Both floors on the remaining tasks must fit under the caps.
    if (load_floor(load_, rest_p_[idx], scratch_) > c_cap_) return false;
    if (load_floor(mem_, rest_s_[idx], scratch_) > m_cap_) return false;
    const Task& t = inst_->task(order_[idx]);
    // Most-slack-first child order (same balanced steering as the main
    // search; first-fit order stalls on exactly the instances that need
    // this probe).
    std::vector<ProcId>& cand = children_[idx];
    order_children(t, std::min(used + 1, m_), load_, mem_, c_cap_, m_cap_,
                   keys_, cand);
    for (const ProcId q : cand) {
      const auto uq = static_cast<std::size_t>(q);
      if (load_[uq] + t.p > c_cap_ || mem_[uq] + t.s > m_cap_) continue;
      assign_[static_cast<std::size_t>(order_[idx])] = q;
      load_[uq] += t.p;
      mem_[uq] += t.s;
      if (dfs(idx + 1, std::max(used, q + 1))) return true;
      load_[uq] -= t.p;
      mem_[uq] -= t.s;
    }
    assign_[static_cast<std::size_t>(order_[idx])] = kNoProc;
    return false;
  }

  const Instance* inst_;
  std::span<const TaskId> order_;
  std::span<const RemainingWeights> rest_p_;
  std::span<const RemainingWeights> rest_s_;
  std::int64_t c_cap_;
  std::int64_t m_cap_;
  std::uint64_t limit_;
  std::uint64_t nodes_ = 0;
  DiveHunt* dives_;
  std::size_t n_;
  int m_;
  std::vector<std::int64_t> load_;
  std::vector<std::int64_t> mem_;
  std::vector<std::int64_t> scratch_;
  std::vector<Int128> keys_;
  std::vector<ProcId> assign_;
  std::vector<std::vector<ProcId>> children_;  // per-depth candidate buffers
};

/// Exact single-objective optimum of one axis via the specialized
/// branch and bound, offered to the staircase as a seed. Returns the
/// optimal value as a sound global floor for that axis, or 0 (no floor)
/// if the sub-search blows its node budget -- a heuristic value must
/// never be used as a floor, it could over-prune true Pareto points.
std::int64_t exact_axis_optimum(const Instance& inst,
                                std::span<const std::int64_t> weights,
                                std::uint64_t node_limit,
                                FrontStaircase& front) {
  try {
    const std::vector<ProcId> best =
        exact_bnb_assign(weights, inst.m(), node_limit);
    offer_assignment(inst, best, front);
    return partition_value(weights, best, inst.m());
  } catch (const std::runtime_error&) {
    return 0;
  }
}

}  // namespace

ParetoEnumResult enumerate_pareto_bb(const Instance& inst,
                                     std::uint64_t limit) {
  if (inst.has_precedence()) {
    throw std::logic_error("enumerate_pareto: independent tasks only");
  }
  if (inst.n() == 0) {
    ParetoEnumResult empty;
    empty.front.push_back({{0, 0}, 0});
    empty.schedules.emplace_back(inst);
    empty.enumerated = 1;
    return empty;
  }

  BbState st;
  st.inst = &inst;
  st.limit = limit;
  st.n = inst.n();
  st.m = inst.m();
  st.order.resize(st.n);
  std::iota(st.order.begin(), st.order.end(), TaskId{0});
  // Non-increasing *normalized* weight p_i / total_p + s_i / total_s,
  // cross-multiplied exactly to p_i * total_s + s_i * total_p (ties by
  // p_i + s_i, then by id): heavy decisions on either axis happen high in
  // the tree. (Raw p + s would be flat on anti-correlated instances.)
  const Int128 total_p = inst.total_work();
  const Int128 total_s = inst.total_storage();
  const auto norm_key = [&](TaskId id) {
    const Task& t = inst.task(id);
    return static_cast<Int128>(t.p) * total_s +
           static_cast<Int128>(t.s) * total_p;
  };
  std::sort(st.order.begin(), st.order.end(), [&](TaskId a, TaskId b) {
    const Int128 ka = norm_key(a);
    const Int128 kb = norm_key(b);
    if (ka != kb) return ka > kb;
    const Task& ta = inst.task(a);
    const Task& tb = inst.task(b);
    if (ta.p + ta.s != tb.p + tb.s) return ta.p + ta.s > tb.p + tb.s;
    return a < b;
  });
  st.rest_p = suffix_weights(inst, st.order, [](const Task& t) { return t.p; });
  st.rest_s = suffix_weights(inst, st.order, [](const Task& t) { return t.s; });
  st.rest_ps =
      suffix_weights(inst, st.order, [](const Task& t) { return t.p + t.s; });
  st.load.assign(static_cast<std::size_t>(st.m), 0);
  st.mem.assign(static_cast<std::size_t>(st.m), 0);
  st.combined.assign(static_cast<std::size_t>(st.m), 0);
  st.assign.assign(st.n, kNoProc);
  st.children.resize(st.n);

  seed_front(inst, st.front);
  {
    // Exact per-axis optima: seeds for the staircase ends and sound global
    // floors for the per-objective bounds. Their specialized sub-searches
    // get a slice of the node budget; on the (rare) blowout the floor is
    // simply dropped, so exactness is never at stake.
    std::vector<std::int64_t> wp;
    std::vector<std::int64_t> ws;
    wp.reserve(st.n);
    ws.reserve(st.n);
    for (const Task& t : inst.tasks()) {
      wp.push_back(t.p);
      ws.push_back(t.s);
    }
    const std::uint64_t axis_limit = std::max<std::uint64_t>(limit / 8, 1);
    st.c_star = exact_axis_optimum(inst, wp, axis_limit, st.front);
    st.m_star = exact_axis_optimum(inst, ws, axis_limit, st.front);
    st.c_ref = std::max<std::int64_t>(
        st.c_star > 0 ? st.c_star : partition_lower_bound(wp, st.m), 1);
    st.m_ref = std::max<std::int64_t>(
        st.m_star > 0 ? st.m_star : partition_lower_bound(ws, st.m), 1);
    // Hunt the ideal point (C*, M*): one dive, then a race in which the
    // capped probe's node count paces the dives. A dive or the probe
    // landing the point collapses the enumeration to a root prune; the
    // probe exhausting its tree proves the point unreachable. Only a probe
    // that blows its budget lets the dives run on to their cap.
    if (!st.front.dominated(st.c_ref, st.m_ref)) {
      // Budgets scale with the caller's limit, so a small limit means a
      // genuinely small total work bound. The probe gets a generous slice:
      // capped nodes are much cheaper than main-search nodes.
      const std::uint64_t trials = std::min<std::uint64_t>(2048, limit / 256);
      DiveHunt dives(inst, st.c_ref, st.m_ref, trials, st.front);
      dives.run(1);
      CappedProbe probe(inst, st.order, st.rest_p, st.rest_s, st.c_ref,
                        st.m_ref, std::max<std::uint64_t>(limit / 2, 1),
                        dives);
      if (!probe.run(st.front)) dives.run(trials);
    }
  }
  st.dfs(0, 0);

  ParetoEnumResult result;
  result.enumerated = st.nodes;
  for (const FrontStaircase::Entry& entry : st.front.entries()) {
    Schedule sched(inst);
    for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
      sched.assign(i, entry.assign[static_cast<std::size_t>(i)]);
    }
    result.front.push_back({{entry.cmax, entry.mmax},
                            static_cast<std::int64_t>(result.schedules.size())});
    result.schedules.push_back(std::move(sched));
  }
  return result;
}

}  // namespace storesched
