// Result cache over a flat memory region, keyed on the input as given.
//
// The table is built to live inside a shared-memory segment (the shm
// store's cache region, storage/shm_store.hpp) and be used concurrently by
// unrelated processes without any lock: fixed-size slots, each guarded by
// its own seqlock, every shared word a lock-free std::atomic<uint64_t>.
//
//   slot := [seq][key_hi][key_lo][payload_size][payload words ...]
//
// Writers claim a slot by CAS-ing its (even) sequence to odd, write key
// and payload with relaxed stores, then release-store seq back to even+2.
// Readers acquire-load seq (odd = under construction, probe on), copy key
// and payload words relaxed, fence, and re-check seq -- a torn read is
// detected and retried, never returned. Payloads are the self-contained
// result blobs of wire::encode_result_payload(), so a hit reproduces the
// original result byte-for-byte through every serializer.
//
// Collision/eviction policy: open addressing over a small probe window; a
// full window overwrites its first slot (it is a cache -- losing an entry
// costs one re-solve). Oversized payloads are skipped, counted, and never
// split across slots.
//
// SolveCache is the keyed facade over the table: results in, results out,
// under keys of the instance with its tasks in input order
// (storage/canonical.hpp), so a hit is the stored cold result for the
// same input in the same order, bit-identical by construction; a
// permutation of the tasks is a different input and misses. Results
// computed under a deadline or a fired cancel token are never inserted --
// both can truncate a solve, and a cache must only serve results any cold
// solve would reproduce.
//
// The cache does not audit on its own: only the solver knows its rule
// (whether it answers to the hard capacity). solve_cached(), the one
// envelope every surface reaches the cache through, audits each hit with
// Solver::audit, so under STORESCHED_AUDIT=1 a poisoned entry stops the
// run instead of leaking a wrong answer.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/canonical.hpp"

namespace storesched::storage {

/// Monotonic counters. Table-wide counters live in the region itself, so
/// every attached process sees one shared truth.
struct CacheTableStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t skipped = 0;  ///< payload too large for a slot
  std::uint64_t bytes = 0;    ///< payload bytes currently stored
};

/// The raw keyed byte-blob table over a caller-provided region (or, for
/// single-process use, a private heap region it allocates itself).
class CacheTable {
 public:
  /// Bytes a region needs for `slot_count` slots of `payload_bytes` each
  /// (both rounded up internally; slot_count to a power of two).
  static std::size_t required_bytes(std::size_t slot_count,
                                    std::size_t payload_bytes);

  /// Private in-memory table (solve_stream's default when no shm store is
  /// attached).
  CacheTable(std::size_t slot_count, std::size_t payload_bytes);

  /// Table over caller-owned memory: `initialize` stamps a fresh header
  /// (the publisher's job); attaching readers pass false and the header
  /// is validated instead. `base` must be 8-aligned and `size` at least
  /// required_bytes of the header's geometry. Throws std::runtime_error
  /// on any mismatch.
  CacheTable(void* base, std::size_t size, std::size_t slot_count,
             std::size_t payload_bytes, bool initialize);

  CacheTable(const CacheTable&) = delete;
  CacheTable& operator=(const CacheTable&) = delete;

  /// Copies the payload stored under `key` out, or nullopt. Lock-free;
  /// safe against concurrent writers in other processes.
  std::optional<std::string> lookup(const CacheKey& key) const;

  /// Stores `payload` under `key` (overwriting any colliding entry).
  /// Returns false -- counted in stats().skipped -- when the payload does
  /// not fit a slot.
  bool insert(const CacheKey& key, std::string_view payload);

  CacheTableStats stats() const;

  std::size_t payload_capacity() const { return payload_words_ * 8; }

 private:
  using Word = std::atomic<std::uint64_t>;

  Word* slot(std::size_t index) const;

  std::vector<std::uint64_t> owned_;  ///< backing for the private mode
  Word* header_ = nullptr;
  Word* slots_ = nullptr;
  std::size_t slot_count_ = 0;     ///< power of two
  std::size_t payload_words_ = 0;  ///< payload capacity per slot, in words
};

/// Solve results in and out of a CacheTable, under CacheKeys. Thread-safe:
/// lookup/insert may be called from any number of threads concurrently.
class SolveCache {
 public:
  /// Cache geometry defaults: 4096 slots x 1 KiB payload = ~4.2 MiB.
  static constexpr std::size_t kDefaultSlots = 4096;
  static constexpr std::size_t kDefaultPayloadBytes = 1024;

  /// Private in-process cache.
  explicit SolveCache(std::size_t slot_count = kDefaultSlots,
                      std::size_t payload_bytes = kDefaultPayloadBytes);

  /// Cache over an externally managed region (see CacheTable).
  SolveCache(void* base, std::size_t size, std::size_t slot_count,
             std::size_t payload_bytes, bool initialize);

  /// Returns the result stored under `key`, or nullopt. An entry that does
  /// not decode, or whose schedule does not cover `inst`'s n tasks (the
  /// one cheap guard against a key collision), reads as a miss.
  std::optional<SolveResult> lookup(const CacheKey& key,
                                    const Instance& inst) const;

  /// Stores a cold solve's result under `key`. No-op (and not an error)
  /// when the result is not cacheable: solved under a deadline, or after
  /// its cancel token fired, or with a payload too large for a slot.
  void insert(const CacheKey& key, const SolveOptions& options,
              const SolveResult& result);

  /// The same calls keyed from (inst, spec, options); `spec` is the
  /// solver's canonical name.
  std::optional<SolveResult> lookup(const Instance& inst,
                                    std::string_view spec,
                                    const SolveOptions& options) const {
    return lookup(cache_key(inst, spec, options), inst);
  }
  void insert(const Instance& inst, std::string_view spec,
              const SolveOptions& options, const SolveResult& result) {
    insert(cache_key(inst, spec, options), options, result);
  }

  /// The table's own (region-wide) counters.
  CacheTableStats table_stats() const { return table_.stats(); }

 private:
  CacheTable table_;
};

/// True when `options` disqualify a solve from cache insertion.
bool cache_exempt(const SolveOptions& options);

/// What the cache did for one solve_cached() call.
enum class CacheOutcome { kOff, kHit, kMiss };

struct CachedSolve {
  SolveResult result;
  CacheOutcome cache = CacheOutcome::kOff;
};

/// The solve envelope of every surface: solve_stream (so every CLI mode
/// and solve_batch) and storesched_serve. Without a cache it is
/// solver.solve(inst, options). With one it computes the key once, from
/// solver.name(); a hit is audited by Solver::audit and returned, and a
/// miss is solved cold and inserted under the same key. Cancel, deadline
/// and the cold audit stay inside Solver::solve; retries, failure
/// policies and counters stay with the callers. Throws what the solve or
/// the hit's audit throws.
CachedSolve solve_cached(const Solver& solver, const Instance& inst,
                         const SolveOptions& options, SolveCache* cache);

}  // namespace storesched::storage
