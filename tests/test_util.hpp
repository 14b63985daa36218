// Shared helpers for the storesched test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/instance.hpp"
#include "common/types.hpp"

namespace storesched::testing {

/// Builds an independent instance from parallel p/s vectors.
inline Instance make_instance(std::vector<Time> p, std::vector<Mem> s, int m) {
  std::vector<Task> tasks;
  tasks.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) tasks.push_back({p[i], s[i]});
  return Instance(std::move(tasks), m);
}

/// Two orders of one task multiset, tied in p: graham:lpt, sbo:lpt,delta=1,
/// rls:input,delta=3 and rls:lpt,delta=3 each answer them differently, so
/// they must never share a result-cache entry.
inline const Instance kTiedFirst = make_instance({5, 5, 3, 3, 2, 4, 4},
                                                 {1, 9, 3, 7, 2, 8, 1}, 2);
inline const Instance kTiedSecond = make_instance({5, 5, 3, 3, 2, 4, 4},
                                                  {9, 1, 7, 3, 2, 1, 8}, 2);

/// Extracts the processing-time weights of an instance.
inline std::vector<std::int64_t> p_weights(const Instance& inst) {
  std::vector<std::int64_t> w;
  w.reserve(inst.n());
  for (const Task& t : inst.tasks()) w.push_back(t.p);
  return w;
}

/// Extracts the storage weights of an instance.
inline std::vector<std::int64_t> s_weights(const Instance& inst) {
  std::vector<std::int64_t> w;
  w.reserve(inst.n());
  for (const Task& t : inst.tasks()) w.push_back(t.s);
  return w;
}

/// Exhaustive optimum of the min-max-subset-sum problem (reference
/// implementation for cross-checking the real algorithms). Relabeling
/// processors does not change the max load, so item i goes to a processor
/// already in use or to the first unused one: the walk visits every
/// partition of the items into at most m blocks once, with running loads,
/// instead of all m^n labelled assignments.
inline std::int64_t brute_force_partition(std::span<const std::int64_t> w,
                                          int m) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  std::int64_t best = 0;
  for (const std::int64_t v : w) best += v;  // everything on one processor
  const auto walk = [&](auto&& self, std::size_t i, std::size_t used,
                        std::int64_t peak) -> void {
    if (i == w.size()) {
      best = std::min(best, peak);
      return;
    }
    for (std::size_t q = 0; q < std::min(used + 1, load.size()); ++q) {
      load[q] += w[i];
      self(self, i + 1, std::max(used, q + 1), std::max(peak, load[q]));
      load[q] -= w[i];
    }
  };
  walk(walk, 0, 0, 0);
  return best;
}

}  // namespace storesched::testing
