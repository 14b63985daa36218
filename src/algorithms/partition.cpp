#include "algorithms/partition.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

namespace storesched {

namespace {

void check_inputs(std::span<const std::int64_t> weights, int m) {
  if (m <= 0) throw std::invalid_argument("partition: m must be positive");
  for (const std::int64_t w : weights) {
    if (w < 0) throw std::invalid_argument("partition: negative weight");
  }
}

}  // namespace

std::int64_t partition_lower_bound(std::span<const std::int64_t> weights,
                                   int m) {
  check_inputs(weights, m);
  std::int64_t max_w = 0;
  std::int64_t sum = 0;
  for (const std::int64_t w : weights) {
    max_w = std::max(max_w, w);
    sum += w;
  }
  const std::int64_t avg = (sum + m - 1) / m;
  return std::max(max_w, avg);
}

Fraction partition_lower_bound_fraction(std::span<const std::int64_t> weights,
                                        int m) {
  check_inputs(weights, m);
  std::int64_t max_w = 0;
  std::int64_t sum = 0;
  for (const std::int64_t w : weights) {
    max_w = std::max(max_w, w);
    sum += w;
  }
  return Fraction::max(Fraction(max_w), Fraction(sum, m));
}

std::int64_t partition_value(std::span<const std::int64_t> weights,
                             std::span<const ProcId> assignment, int m) {
  check_inputs(weights, m);
  if (weights.size() != assignment.size()) {
    throw std::invalid_argument("partition_value: size mismatch");
  }
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const ProcId q = assignment[i];
    if (q < 0 || q >= m) {
      throw std::invalid_argument("partition_value: invalid processor");
    }
    load[static_cast<std::size_t>(q)] += weights[i];
  }
  return *std::max_element(load.begin(), load.end());
}

namespace {

template <bool kDescending, class Index>
void stable_key_order_in(std::span<const std::int64_t> keys,
                         std::span<Index> order) {
  const std::size_t n = keys.size();
  if (n == 0) return;
  std::int64_t least = keys[0];
  std::int64_t greatest = keys[0];
  for (const std::int64_t k : keys) {
    least = std::min(least, k);
    greatest = std::max(greatest, k);
  }
  // Offsets from the least key (the greatest, descending) make both
  // directions one ascending sort of unsigned values; the unsigned
  // difference is exact for any two int64 keys.
  const auto lo = static_cast<std::uint64_t>(least);
  const auto hi = static_cast<std::uint64_t>(greatest);
  const auto offset = [&](std::size_t i) {
    const auto k = static_cast<std::uint64_t>(keys[i]);
    return kDescending ? hi - k : k - lo;
  };
  // A spread under one byte bounds every offset; a wider one is the OR of
  // the offsets, so a byte no key sets costs no pass.
  std::uint64_t spread = hi - lo;
  if (spread > 0xFF) {
    spread = 0;
    for (std::size_t i = 0; i < n; ++i) spread |= offset(i);
  }
  if (spread == 0) {  // all keys equal
    std::iota(order.begin(), order.end(), Index{0});
    return;
  }

  // LSD radix sort: one stable counting pass per byte of spread that is not
  // zero, lowest first. The first pass scatters the positions 0..n-1, each
  // later one the pass before's output; they ping-pong between `order` and
  // a spare, starting on the side that puts the last pass in `order`.
  int passes = 0;
  for (std::uint64_t rest = spread; rest != 0; rest >>= 8) {
    passes += (rest & 0xFF) != 0 ? 1 : 0;
  }
  std::vector<Index> spare(passes > 1 ? n : 0);
  Index* dst = passes % 2 == 1 ? order.data() : spare.data();
  const Index* src = nullptr;
  std::array<std::size_t, 256> count;
  for (int shift = 0; shift < 64; shift += 8) {
    const std::size_t top_digit = (spread >> shift) & 0xFF;
    if (top_digit == 0) continue;
    const auto digit = [&](std::size_t i) {
      return static_cast<std::size_t>((offset(i) >> shift) & 0xFF);
    };
    std::fill(count.begin(), count.begin() + top_digit + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[digit(i)];
    // Each bucket's count becomes its first output slot.
    std::size_t slot = 0;
    for (std::size_t d = 0; d <= top_digit; ++d) {
      const std::size_t c = count[d];
      count[d] = slot;
      slot += c;
    }
    if (src == nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        dst[count[digit(i)]++] = static_cast<Index>(i);
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        dst[count[digit(static_cast<std::size_t>(src[j]))]++] = src[j];
      }
    }
    src = dst;
    dst = dst == order.data() ? spare.data() : order.data();
  }
}

}  // namespace

template <class Index>
void stable_key_order(std::span<const std::int64_t> keys, bool descending,
                      std::span<Index> order) {
  if (descending) {
    stable_key_order_in<true>(keys, order);
  } else {
    stable_key_order_in<false>(keys, order);
  }
}

template void stable_key_order<std::size_t>(std::span<const std::int64_t>,
                                            bool, std::span<std::size_t>);
template void stable_key_order<TaskId>(std::span<const std::int64_t>, bool,
                                       std::span<TaskId>);

std::vector<std::size_t> decreasing_order(
    std::span<const std::int64_t> weights) {
  std::vector<std::size_t> order(weights.size());
  stable_key_order<std::size_t>(weights, /*descending=*/true, order);
  return order;
}

std::vector<std::size_t> increasing_order(
    std::span<const std::int64_t> weights) {
  std::vector<std::size_t> order(weights.size());
  stable_key_order<std::size_t>(weights, /*descending=*/false, order);
  return order;
}

void check_permutation(std::span<const std::size_t> order, std::size_t n,
                       const char* who) {
  if (order.size() != n) {
    throw std::invalid_argument(std::string(who) + ": order size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t i : order) {
    if (i >= n) {
      throw std::invalid_argument(std::string(who) +
                                  ": order entry out of range");
    }
    if (seen[i]) {
      throw std::invalid_argument(std::string(who) + ": repeated order entry");
    }
    seen[i] = true;
  }
}

namespace {

/// List scheduling in `order`, which the caller guarantees is a
/// permutation: each weight goes to the least (load, id) processor, found
/// by a scan over the m loads.
std::vector<ProcId> list_place(std::span<const std::int64_t> weights,
                               std::span<const std::size_t> order, int m) {
  std::vector<ProcId> assign(weights.size(), kNoProc);
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  for (const std::size_t i : order) {
    // Strictly less, so the lowest id wins ties (as in Algorithm 2).
    ProcId q = 0;
    std::int64_t least = load[0];
    for (ProcId r = 1; r < m; ++r) {
      const std::int64_t l = load[static_cast<std::size_t>(r)];
      const bool less = l < least;
      least = less ? l : least;
      q = less ? r : q;
    }
    assign[i] = q;
    load[static_cast<std::size_t>(q)] = least + weights[i];
  }
  return assign;
}

}  // namespace

std::vector<ProcId> list_assign_ordered(std::span<const std::int64_t> weights,
                                        std::span<const std::size_t> order,
                                        int m) {
  check_inputs(weights, m);
  check_permutation(order, weights.size(), "list_assign_ordered");
  return list_place(weights, order, m);
}

std::vector<ProcId> list_assign(std::span<const std::int64_t> weights, int m) {
  check_inputs(weights, m);
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  return list_place(weights, order, m);
}

std::vector<ProcId> lpt_assign(std::span<const std::int64_t> weights, int m) {
  check_inputs(weights, m);
  return list_place(weights, decreasing_order(weights), m);
}

namespace {

/// First Fit Decreasing into at most m bins of capacity cap.
/// Returns the assignment, or nullopt if some weight does not fit.
std::optional<std::vector<ProcId>> ffd_pack(
    std::span<const std::int64_t> weights,
    std::span<const std::size_t> dec_order, int m, std::int64_t cap) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  std::vector<ProcId> assign(weights.size(), kNoProc);
  for (const std::size_t i : dec_order) {
    bool placed = false;
    for (ProcId q = 0; q < m; ++q) {
      if (load[static_cast<std::size_t>(q)] + weights[i] <= cap) {
        load[static_cast<std::size_t>(q)] += weights[i];
        assign[i] = q;
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  return assign;
}

}  // namespace

std::vector<ProcId> multifit_assign(std::span<const std::int64_t> weights,
                                    int m, int iterations) {
  check_inputs(weights, m);
  if (weights.empty()) return {};
  const auto dec = decreasing_order(weights);

  std::int64_t lo = partition_lower_bound(weights, m);
  // LPT is always FFD-feasible at its own makespan, so it seeds the upper end.
  const auto lpt = list_place(weights, dec, m);
  std::int64_t hi = partition_value(weights, lpt, m);

  std::vector<ProcId> best = lpt;
  for (int it = 0; it < iterations && lo < hi; ++it) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (auto packed = ffd_pack(weights, dec, m, mid)) {
      best = std::move(*packed);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // `hi` is the best FFD-feasible capacity found; `best` matches it.
  return best;
}

namespace {

/// Exhaustive optimal placement of the first `k` weights of `dec_order`
/// (decreasing), with symmetry breaking: a weight may only enter the first
/// of the currently-empty processors, and never two processors with equal
/// load (the resulting schedules are permutations of each other).
struct PrefixSearch {
  std::span<const std::int64_t> weights;
  std::span<const std::size_t> order;
  std::size_t k = 0;
  int m = 1;
  std::vector<std::int64_t> load;
  std::vector<ProcId> assign;        // per order position 0..k-1
  std::vector<ProcId> best_assign;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> suffix_max;  // max weight in positions >= idx

  void run() {
    load.assign(static_cast<std::size_t>(m), 0);
    assign.assign(k, kNoProc);
    best_assign.assign(k, kNoProc);
    suffix_max.assign(k + 1, 0);
    for (std::size_t i = k; i-- > 0;) {
      suffix_max[i] = std::max(suffix_max[i + 1], weights[order[i]]);
    }
    dfs(0, 0);
  }

  void dfs(std::size_t idx, std::int64_t current_max) {
    if (current_max >= best) return;  // cannot improve
    if (idx == k) {
      best = current_max;
      best_assign = assign;
      return;
    }
    const std::int64_t w = weights[order[idx]];
    // Any completion is at least max(current_max, remaining largest weight).
    if (std::max(current_max, suffix_max[idx]) >= best) return;

    bool tried_empty = false;
    for (ProcId q = 0; q < m; ++q) {
      const std::int64_t lq = load[static_cast<std::size_t>(q)];
      if (lq == 0) {
        if (tried_empty) break;  // all further processors are empty too
        tried_empty = true;
      } else {
        // Skip processors whose load duplicates an earlier one.
        bool dup = false;
        for (ProcId r = 0; r < q; ++r) {
          if (load[static_cast<std::size_t>(r)] == lq) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
      }
      load[static_cast<std::size_t>(q)] = lq + w;
      assign[idx] = q;
      dfs(idx + 1, std::max(current_max, lq + w));
      load[static_cast<std::size_t>(q)] = lq;
    }
  }
};

}  // namespace

std::vector<ProcId> kopt_assign(std::span<const std::int64_t> weights, int m,
                                int k) {
  check_inputs(weights, m);
  if (k < 0) throw std::invalid_argument("kopt_assign: k must be >= 0");
  if (weights.empty()) return {};
  const auto dec = decreasing_order(weights);
  const std::size_t prefix = std::min<std::size_t>(
      static_cast<std::size_t>(k), weights.size());

  PrefixSearch search;
  search.weights = weights;
  search.order = dec;
  search.k = prefix;
  search.m = m;
  search.run();

  // Continue with list scheduling (decreasing order) from the prefix loads.
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  std::vector<ProcId> assign(weights.size(), kNoProc);
  for (std::size_t idx = 0; idx < prefix; ++idx) {
    const ProcId q = search.best_assign[idx];
    assign[dec[idx]] = q;
    load[static_cast<std::size_t>(q)] += weights[dec[idx]];
  }
  for (std::size_t idx = prefix; idx < dec.size(); ++idx) {
    const ProcId q = static_cast<ProcId>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assign[dec[idx]] = q;
    load[static_cast<std::size_t>(q)] += weights[dec[idx]];
  }
  return assign;
}

// ---------------------------------------------------------------------------
// Hochbaum-Shmoys dual-approximation PTAS (epsilon = 1/k).
// ---------------------------------------------------------------------------
namespace {

/// One attempt at target makespan T. On success returns an assignment whose
/// per-processor load is at most T * (1 + 1/k); on failure returns nullopt,
/// which certifies OPT > T.
class DualAttempt {
 public:
  DualAttempt(std::span<const std::int64_t> weights, int m, int k,
              std::int64_t target)
      : weights_(weights), m_(m), k_(k), target_(target) {}

  std::optional<std::vector<ProcId>> run() {
    if (target_ <= 0) return std::nullopt;
    split_items();
    if (!pack_large()) return std::nullopt;
    if (!place_small()) return std::nullopt;
    return assign_;
  }

 private:
  using State = std::vector<int>;  // remaining item count per distinct size

  void split_items() {
    large_.clear();
    small_.clear();
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      // Large iff w > T/k  <=>  w*k > T.
      if (weights_[i] * k_ > target_) {
        large_.push_back(i);
      } else {
        small_.push_back(i);
      }
    }
  }

  /// Rounded size of item i: floor(w_i * k^2 / T), in [k, k^2] when the
  /// item fits a bin at all.
  std::int64_t rounded(std::size_t i) const {
    return static_cast<std::int64_t>(
        (static_cast<Int128>(weights_[i]) * k_ * k_) / target_);
  }

  bool pack_large() {
    assign_.assign(weights_.size(), kNoProc);
    loads_.assign(static_cast<std::size_t>(m_), 0);
    if (large_.empty()) return true;

    const std::int64_t cap = static_cast<std::int64_t>(k_) * k_;
    // Group large items by rounded size.
    sizes_.clear();
    std::map<std::int64_t, std::vector<std::size_t>> groups;
    for (const std::size_t i : large_) {
      const std::int64_t r = rounded(i);
      if (r > cap) return false;  // item alone exceeds T
      groups[r].push_back(i);
    }
    items_by_size_.clear();
    State full;
    for (auto& [r, items] : groups) {
      sizes_.push_back(r);
      items_by_size_.push_back(std::move(items));
      full.push_back(static_cast<int>(items_by_size_.back().size()));
    }

    // Enumerate all non-empty bin configurations (count per size, rounded
    // sum <= cap, counts bounded by availability). Sizes are >= k, so a
    // configuration holds at most k items: the enumeration is tiny.
    configs_.clear();
    State cur(sizes_.size(), 0);
    enumerate_configs(0, 0, cur);

    // Exact bin packing by memoized search: bins(state) = fewest bins that
    // pack `state`. Succeeds iff bins(full) <= m.
    memo_.clear();
    const int need = bins_needed(full);
    if (need < 0 || need > m_) return false;

    // Reconstruct: walk the chosen configs and hand out real items.
    State state = full;
    ProcId q = 0;
    while (!all_zero(state)) {
      const int cfg = memo_.at(state).second;
      const State& c = configs_[static_cast<std::size_t>(cfg)];
      for (std::size_t v = 0; v < c.size(); ++v) {
        for (int t = 0; t < c[v]; ++t) {
          const std::size_t item =
              items_by_size_[v][static_cast<std::size_t>(--state[v])];
          assign_[item] = q;
          loads_[static_cast<std::size_t>(q)] += weights_[item];
        }
      }
      ++q;
    }
    return true;
  }

  void enumerate_configs(std::size_t v, std::int64_t sum, State& cur) {
    if (v == sizes_.size()) {
      if (sum > 0) configs_.push_back(cur);
      return;
    }
    const std::int64_t cap = static_cast<std::int64_t>(k_) * k_;
    const int avail = static_cast<int>(items_by_size_[v].size());
    for (int c = 0;; ++c) {
      if (c > avail || sum + c * sizes_[v] > cap) break;
      cur[v] = c;
      enumerate_configs(v + 1, sum + c * sizes_[v], cur);
    }
    cur[v] = 0;
  }

  static bool all_zero(const State& s) {
    return std::all_of(s.begin(), s.end(), [](int c) { return c == 0; });
  }

  /// Fewest bins to pack `state`; -1 if the memo table explodes (treated as
  /// failure by the caller -- never happens for the supported k <= 3).
  int bins_needed(const State& state) {
    if (all_zero(state)) return 0;
    if (auto it = memo_.find(state); it != memo_.end()) return it->second.first;
    if (memo_.size() > kStateLimit) return -1;

    int best = std::numeric_limits<int>::max();
    int best_cfg = -1;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      State next = state;
      bool fits = true;
      for (std::size_t v = 0; v < next.size(); ++v) {
        next[v] -= configs_[c][v];
        if (next[v] < 0) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      const int sub = bins_needed(next);
      if (sub >= 0 && sub + 1 < best) {
        best = sub + 1;
        best_cfg = static_cast<int>(c);
      }
    }
    if (best_cfg < 0) return -1;
    memo_[state] = {best, best_cfg};
    return best;
  }

  bool place_small() {
    // Greedy: each small item to the least-loaded processor; the inflated
    // cap T*(1+1/k) is never exceeded unless OPT > T.
    for (const std::size_t i : small_) {
      const auto it = std::min_element(loads_.begin(), loads_.end());
      // (load + w) <= T*(k+1)/k  <=>  (load + w)*k <= T*(k+1).
      if ((*it + weights_[i]) * k_ > target_ * (k_ + 1)) return false;
      assign_[i] = static_cast<ProcId>(it - loads_.begin());
      *it += weights_[i];
    }
    return true;
  }

  static constexpr std::size_t kStateLimit = 4'000'000;

  std::span<const std::int64_t> weights_;
  int m_;
  int k_;
  std::int64_t target_;

  std::vector<std::size_t> large_;
  std::vector<std::size_t> small_;
  std::vector<std::int64_t> sizes_;
  std::vector<std::vector<std::size_t>> items_by_size_;
  std::vector<State> configs_;
  std::map<State, std::pair<int, int>> memo_;  // state -> (bins, config)
  std::vector<ProcId> assign_;
  std::vector<std::int64_t> loads_;
};

}  // namespace

std::vector<ProcId> dual_ptas_assign(std::span<const std::int64_t> weights,
                                     int m, int k) {
  check_inputs(weights, m);
  if (k < 2 || k > 3) {
    throw std::invalid_argument(
        "dual_ptas_assign: supported k (1/epsilon) is 2 or 3");
  }
  if (weights.empty()) return {};

  std::int64_t lo = partition_lower_bound(weights, m);
  const auto lpt = lpt_assign(weights, m);
  std::int64_t hi = partition_value(weights, lpt, m);  // >= OPT: always feasible

  std::vector<ProcId> best = lpt;
  bool have_dual = false;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    DualAttempt attempt(weights, m, k, mid);
    if (auto assign = attempt.run()) {
      best = std::move(*assign);
      have_dual = true;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (!have_dual) {
    DualAttempt attempt(weights, m, k, hi);
    if (auto assign = attempt.run()) best = std::move(*assign);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Exact algorithms.
// ---------------------------------------------------------------------------
namespace {

struct BnbSearch {
  std::span<const std::int64_t> weights;
  std::span<const std::size_t> order;
  int m = 1;
  std::uint64_t node_limit = 0;

  std::vector<std::int64_t> load;
  std::vector<ProcId> assign;
  std::vector<ProcId> best_assign;
  std::int64_t best = 0;
  std::vector<std::int64_t> suffix_sum;
  std::uint64_t nodes = 0;

  void dfs(std::size_t idx, std::int64_t current_max) {
    if (++nodes > node_limit) {
      throw std::runtime_error("exact_bnb_assign: node limit exceeded");
    }
    if (current_max >= best) return;
    if (idx == order.size()) {
      best = current_max;
      best_assign = assign;
      return;
    }
    // Averaging bound: even spreading the remaining work over the space
    // below `best` on all processors must be possible.
    std::int64_t slack = 0;
    for (const std::int64_t l : load) {
      slack += std::max<std::int64_t>(0, best - 1 - l);
    }
    if (slack < suffix_sum[idx]) return;

    const std::int64_t w = weights[order[idx]];
    bool tried_empty = false;
    for (ProcId q = 0; q < m; ++q) {
      const std::int64_t lq = load[static_cast<std::size_t>(q)];
      if (lq == 0) {
        if (tried_empty) break;
        tried_empty = true;
      } else {
        bool dup = false;
        for (ProcId r = 0; r < q; ++r) {
          if (load[static_cast<std::size_t>(r)] == lq) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
      }
      load[static_cast<std::size_t>(q)] = lq + w;
      assign[order[idx]] = q;
      dfs(idx + 1, std::max(current_max, lq + w));
      load[static_cast<std::size_t>(q)] = lq;
    }
    assign[order[idx]] = kNoProc;
  }
};

}  // namespace

std::vector<ProcId> exact_bnb_assign(std::span<const std::int64_t> weights,
                                     int m, std::uint64_t node_limit) {
  check_inputs(weights, m);
  if (weights.empty()) return {};
  const auto dec = decreasing_order(weights);

  BnbSearch search;
  search.weights = weights;
  search.order = dec;
  search.m = m;
  search.node_limit = node_limit;
  search.load.assign(static_cast<std::size_t>(m), 0);
  search.assign.assign(weights.size(), kNoProc);
  // Seed with LPT: a valid incumbent tightens pruning immediately.
  search.best_assign = list_place(weights, dec, m);
  search.best = partition_value(weights, search.best_assign, m);
  search.suffix_sum.assign(weights.size() + 1, 0);
  for (std::size_t i = weights.size(); i-- > 0;) {
    search.suffix_sum[i] = search.suffix_sum[i + 1] + weights[dec[i]];
  }

  const std::int64_t lb = partition_lower_bound(weights, m);
  if (search.best > lb) search.dfs(0, 0);
  return search.best_assign;
}

std::int64_t exact_dp_value(std::span<const std::int64_t> weights, int m) {
  check_inputs(weights, m);
  if (weights.size() > 20) {
    throw std::invalid_argument("exact_dp_value: n must be <= 20");
  }
  if (weights.empty()) return 0;
  const std::size_t n = weights.size();
  const std::size_t full = (std::size_t{1} << n) - 1;

  const auto feasible = [&](std::int64_t cap) {
    for (const std::int64_t w : weights) {
      if (w > cap) return false;
    }
    // dp[mask] = (bins used, load of the currently-open bin), minimized
    // lexicographically. Any packing can be serialized bin by bin, so
    // trying every unset item at every state is exhaustive; lexicographic
    // minimality is safe by the usual exchange argument (fewer bins or a
    // lighter open bin never hurts).
    struct Cell {
      int bins;
      std::int64_t open;
    };
    const auto better = [](const Cell& a, const Cell& b) {
      return a.bins < b.bins || (a.bins == b.bins && a.open < b.open);
    };
    std::vector<Cell> dp(full + 1,
                         {std::numeric_limits<int>::max() / 2, 0});
    dp[0] = {1, 0};
    for (std::size_t mask = 0; mask < full; ++mask) {
      if (dp[mask].bins > m) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (std::size_t{1} << i)) continue;
        const std::int64_t w = weights[i];
        const std::size_t next = mask | (std::size_t{1} << i);
        if (dp[mask].open + w <= cap) {
          const Cell cand{dp[mask].bins, dp[mask].open + w};
          if (better(cand, dp[next])) dp[next] = cand;
        }
        const Cell cand{dp[mask].bins + 1, w};
        if (better(cand, dp[next])) dp[next] = cand;
      }
    }
    return dp[full].bins <= m;
  };

  std::int64_t lo = partition_lower_bound(weights, m);
  std::int64_t hi = 0;
  for (const std::int64_t w : weights) hi += w;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace storesched
