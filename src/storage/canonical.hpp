// The result-cache key: a hash of the instance exactly as given.
//
// The key covers the tasks in input order -- task ids are part of the
// input, and solvers such as rls:input or any tie-break on equal weights
// depend on them -- plus the edge list of precedence instances. A hit is
// therefore the stored cold result of the same input in the same order,
// bit-identical by construction. The key folds in everything else that
// changes a solve's output: a key-scheme tag, wire version, solver spec
// (which encodes the algorithm, its tie-breaks, and Delta), m, memory
// capacity, and the validate flag. Deadline and cancellation are
// deliberately NOT keyed: results influenced by either are never inserted
// (storage/result_cache.hpp).
//
// The key is 128 bits from two independently seeded mixing lanes. That
// makes accidental collision negligible, but the cache still guards the
// one cheap structural invariant (cached schedule size == instance size)
// on every hit, and the solve envelope replays the full audit under
// STORESCHED_AUDIT=1.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/instance.hpp"
#include "core/solver.hpp"

namespace storesched::storage {

/// 128-bit cache key (two independent 64-bit mixing lanes).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const CacheKey&) const = default;
};

/// Key over the instance, tasks in input order, plus the solve
/// configuration. `spec` is the solver's canonical name (Solver::name()).
CacheKey cache_key(const Instance& inst, std::string_view spec,
                   const SolveOptions& options);

}  // namespace storesched::storage
