#include "storage/result_cache.hpp"

#include <cstring>
#include <stdexcept>

#include "core/stream.hpp"  // CancelToken's definition (cache exemption)
#include "storage/wire_format.hpp"

namespace storesched::storage {

namespace {

constexpr std::uint64_t kCacheMagic = 0x3145484343535453ull;  // "STSCCHE1" LE
constexpr std::uint64_t kCacheVersion = 1;
constexpr std::size_t kHeaderWords = 16;
constexpr std::size_t kSlotMetaWords = 4;  // seq, key_hi, key_lo, size
constexpr std::size_t kProbeWindow = 8;
constexpr int kReadRetries = 64;

// Header word indices.
enum : std::size_t {
  kHdrMagic = 0,
  kHdrVersion = 1,
  kHdrSlots = 2,
  kHdrPayloadWords = 3,
  kHdrHits = 4,
  kHdrMisses = 5,
  kHdrInserts = 6,
  kHdrSkipped = 7,
  kHdrBytes = 8,
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the shm cache needs lock-free 64-bit atomics");
static_assert(sizeof(std::atomic<std::uint64_t>) == 8,
              "atomic words must be plain words in the mapped region");

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::size_t CacheTable::required_bytes(std::size_t slot_count,
                                       std::size_t payload_bytes) {
  const std::size_t slots = round_up_pow2(slot_count == 0 ? 1 : slot_count);
  const std::size_t payload_words = (payload_bytes + 7) / 8;
  return (kHeaderWords + slots * (kSlotMetaWords + payload_words)) * 8;
}

CacheTable::CacheTable(std::size_t slot_count, std::size_t payload_bytes) {
  owned_.assign(required_bytes(slot_count, payload_bytes) / 8, 0);
  slot_count_ = round_up_pow2(slot_count == 0 ? 1 : slot_count);
  payload_words_ = (payload_bytes + 7) / 8;
  header_ = reinterpret_cast<Word*>(owned_.data());
  slots_ = header_ + kHeaderWords;
  header_[kHdrMagic].store(kCacheMagic, std::memory_order_relaxed);
  header_[kHdrVersion].store(kCacheVersion, std::memory_order_relaxed);
  header_[kHdrSlots].store(slot_count_, std::memory_order_relaxed);
  header_[kHdrPayloadWords].store(payload_words_, std::memory_order_relaxed);
}

CacheTable::CacheTable(void* base, std::size_t size, std::size_t slot_count,
                       std::size_t payload_bytes, bool initialize) {
  if (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) {
    throw std::runtime_error("cache region is not 8-byte aligned");
  }
  if (size < required_bytes(slot_count, payload_bytes)) {
    throw std::runtime_error("cache region too small: " +
                             std::to_string(size) + " < " +
                             std::to_string(required_bytes(slot_count,
                                                           payload_bytes)));
  }
  slot_count_ = round_up_pow2(slot_count == 0 ? 1 : slot_count);
  payload_words_ = (payload_bytes + 7) / 8;
  header_ = reinterpret_cast<Word*>(base);
  slots_ = header_ + kHeaderWords;
  if (initialize) {
    // The publisher hands over zeroed memory (fresh shm is zero-filled);
    // only the header needs stamping -- zeroed slots read as empty.
    header_[kHdrMagic].store(kCacheMagic, std::memory_order_relaxed);
    header_[kHdrVersion].store(kCacheVersion, std::memory_order_relaxed);
    header_[kHdrSlots].store(slot_count_, std::memory_order_relaxed);
    header_[kHdrPayloadWords].store(payload_words_,
                                    std::memory_order_release);
    return;
  }
  if (header_[kHdrMagic].load(std::memory_order_acquire) != kCacheMagic ||
      header_[kHdrVersion].load(std::memory_order_relaxed) != kCacheVersion) {
    throw std::runtime_error("cache region header mismatch (not a cache, "
                             "or a different build's layout)");
  }
  if (header_[kHdrSlots].load(std::memory_order_relaxed) != slot_count_ ||
      header_[kHdrPayloadWords].load(std::memory_order_relaxed) !=
          payload_words_) {
    throw std::runtime_error("cache region geometry mismatch");
  }
}

CacheTable::Word* CacheTable::slot(std::size_t index) const {
  return slots_ + index * (kSlotMetaWords + payload_words_);
}

std::optional<std::string> CacheTable::lookup(const CacheKey& key) const {
  const std::size_t mask = slot_count_ - 1;
  // Sized on a stable key match only, so a miss allocates nothing and a hit
  // copies its payload once, straight into the returned string.
  std::string out;
  for (std::size_t w = 0; w < kProbeWindow && w < slot_count_; ++w) {
    Word* s = slot((key.lo + w) & mask);
    for (int attempt = 0; attempt < kReadRetries; ++attempt) {
      const std::uint64_t s1 = s[0].load(std::memory_order_acquire);
      if (s1 & 1) continue;  // writer mid-flight; re-read
      const std::uint64_t hi = s[1].load(std::memory_order_relaxed);
      const std::uint64_t lo = s[2].load(std::memory_order_relaxed);
      const std::uint64_t size = s[3].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s[0].load(std::memory_order_relaxed) != s1) continue;  // torn
      if (hi != key.hi || lo != key.lo) break;  // stable non-match
      if (size > payload_words_ * 8) break;     // never written like this
      out.resize(size);
      const std::size_t whole = size / 8;
      for (std::size_t i = 0; i < whole; ++i) {
        const std::uint64_t word =
            s[kSlotMetaWords + i].load(std::memory_order_relaxed);
        std::memcpy(out.data() + i * 8, &word, 8);
      }
      if (size % 8 != 0) {
        const std::uint64_t word =
            s[kSlotMetaWords + whole].load(std::memory_order_relaxed);
        std::memcpy(out.data() + whole * 8, &word, size % 8);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s[0].load(std::memory_order_relaxed) != s1) continue;  // torn
      header_[kHdrHits].fetch_add(1, std::memory_order_relaxed);
      return out;
    }
  }
  header_[kHdrMisses].fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

bool CacheTable::insert(const CacheKey& key, std::string_view payload) {
  if (payload.size() > payload_capacity()) {
    header_[kHdrSkipped].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t mask = slot_count_ - 1;
  // Preference order: a slot already holding this key, else an empty slot,
  // else the window's first slot (plain eviction). The scan is a relaxed
  // snapshot -- races just mean a suboptimal choice, which a cache absorbs.
  std::size_t target = key.lo & mask;
  bool found = false;
  std::size_t first_empty = 0;
  bool have_empty = false;
  for (std::size_t w = 0; w < kProbeWindow && w < slot_count_; ++w) {
    const std::size_t idx = (key.lo + w) & mask;
    Word* s = slot(idx);
    const std::uint64_t hi = s[1].load(std::memory_order_relaxed);
    const std::uint64_t lo = s[2].load(std::memory_order_relaxed);
    if (hi == key.hi && lo == key.lo) {
      target = idx;
      found = true;
      break;
    }
    if (!have_empty && hi == 0 && lo == 0) {
      first_empty = idx;
      have_empty = true;
    }
  }
  if (!found && have_empty) target = first_empty;

  Word* s = slot(target);
  for (int attempt = 0; attempt < kReadRetries; ++attempt) {
    std::uint64_t s1 = s[0].load(std::memory_order_relaxed);
    if (s1 & 1) continue;  // another writer owns it; re-read
    if (!s[0].compare_exchange_weak(s1, s1 + 1, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      continue;
    }
    const std::uint64_t old_hi = s[1].load(std::memory_order_relaxed);
    const std::uint64_t old_lo = s[2].load(std::memory_order_relaxed);
    const std::uint64_t old_size = s[3].load(std::memory_order_relaxed);
    s[1].store(key.hi, std::memory_order_relaxed);
    s[2].store(key.lo, std::memory_order_relaxed);
    s[3].store(payload.size(), std::memory_order_relaxed);
    const std::size_t words = (payload.size() + 7) / 8;
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t w = 0;
      const std::size_t take = std::min<std::size_t>(8, payload.size() - i * 8);
      std::memcpy(&w, payload.data() + i * 8, take);
      s[kSlotMetaWords + i].store(w, std::memory_order_relaxed);
    }
    s[0].store(s1 + 2, std::memory_order_release);
    if (old_hi != 0 || old_lo != 0) {
      header_[kHdrBytes].fetch_sub(old_size, std::memory_order_relaxed);
    }
    header_[kHdrBytes].fetch_add(payload.size(), std::memory_order_relaxed);
    header_[kHdrInserts].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  header_[kHdrSkipped].fetch_add(1, std::memory_order_relaxed);
  return false;
}

CacheTableStats CacheTable::stats() const {
  CacheTableStats out;
  out.hits = header_[kHdrHits].load(std::memory_order_relaxed);
  out.misses = header_[kHdrMisses].load(std::memory_order_relaxed);
  out.inserts = header_[kHdrInserts].load(std::memory_order_relaxed);
  out.skipped = header_[kHdrSkipped].load(std::memory_order_relaxed);
  out.bytes = header_[kHdrBytes].load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// SolveCache and the solve envelope.
// ---------------------------------------------------------------------------

bool cache_exempt(const SolveOptions& options) {
  // A deadline can truncate a solve into an infeasible-by-timeout result;
  // a *fired* cancel token likewise. Neither is the result a cold solve
  // would reproduce, so neither may populate the cache. An armed-but-idle
  // cancel token is fine -- it did not influence this solve.
  return options.deadline.has_value() ||
         (options.cancel && options.cancel->cancelled());
}

SolveCache::SolveCache(std::size_t slot_count, std::size_t payload_bytes)
    : table_(slot_count, payload_bytes) {}

SolveCache::SolveCache(void* base, std::size_t size, std::size_t slot_count,
                       std::size_t payload_bytes, bool initialize)
    : table_(base, size, slot_count, payload_bytes, initialize) {}

std::optional<SolveResult> SolveCache::lookup(const CacheKey& key,
                                              const Instance& inst) const {
  const std::optional<std::string> payload = table_.lookup(key);
  if (!payload) return std::nullopt;
  SolveResult result;
  try {
    result = wire::decode_result_payload(*payload);
  } catch (const std::runtime_error&) {
    // Never produced by this build's writers; treat like a miss rather
    // than poisoning the run.
    return std::nullopt;
  }
  if (result.schedule.n() != 0 && result.schedule.n() != inst.n()) {
    // The one cheap structural guard against a 128-bit key collision.
    return std::nullopt;
  }
  return result;
}

void SolveCache::insert(const CacheKey& key, const SolveOptions& options,
                        const SolveResult& result) {
  if (cache_exempt(options)) return;
  // The payload carries the common fields, like the JSONL result line; the
  // extras channels (sbo, rls, pareto) are not stored.
  table_.insert(key, wire::encode_result_payload(result));
}

CachedSolve solve_cached(const Solver& solver, const Instance& inst,
                         const SolveOptions& options, SolveCache* cache) {
  if (cache == nullptr) return {solver.solve(inst, options)};
  const CacheKey key = cache_key(inst, solver.name(), options);
  if (std::optional<SolveResult> hit = cache->lookup(key, inst)) {
    solver.audit(inst, *hit, options, "got an invalid result from the cache");
    return {*std::move(hit), CacheOutcome::kHit};
  }
  CachedSolve cold{solver.solve(inst, options), CacheOutcome::kMiss};
  cache->insert(key, options, cold.result);
  return cold;
}

}  // namespace storesched::storage
