#include "storage/canonical.hpp"

#include <bit>
#include <cstring>

#include "storage/wire_format.hpp"

namespace storesched::storage {

namespace {

/// Names the key scheme (3: tasks in input order, both lanes hashing
/// 64-bit words). Keys of another scheme, such as entries an older build
/// left in a live shm store, never match.
constexpr std::uint64_t kKeyScheme = 3;

/// splitmix64 finalizer -- mixes each lane once at the end.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Two-lane streaming hasher over 64-bit words. Each lane is an xxh64-style
/// round (multiply the word in, rotate, multiply), with its own seed,
/// multipliers and rotation, so a collision requires beating both lanes
/// independently. Strings go in as words, their length folded into the
/// ragged last word.
struct KeyHasher {
  std::uint64_t a = 0x27D4EB2F165667C5ull;
  std::uint64_t b = 0x53544F5245534348ull;  // "STORESCH"

  void word(std::uint64_t w) {
    a = std::rotl(a + w * 0xC2B2AE3D27D4EB4Full, 31) * 0x9E3779B185EBCA87ull;
    b = std::rotl(b + w * 0x85EBCA77C2B2AE63ull, 27) * 0x165667B19E3779F9ull;
  }

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i, 8);
      word(w);
    }
    std::uint64_t tail = size;  // fold the length into the ragged word
    for (; i < size; ++i) tail = (tail << 8) | p[i];
    word(tail);
  }

  CacheKey key() const { return {mix64(a), mix64(b ^ a)}; }
};

}  // namespace

CacheKey cache_key(const Instance& inst, std::string_view spec,
                   const SolveOptions& options) {
  KeyHasher h;
  h.word(kKeyScheme);
  h.word(wire::kWireVersion);
  h.word(spec.size());
  h.bytes(spec.data(), spec.size());
  h.word(static_cast<std::uint64_t>(inst.m()));
  h.word(options.memory_capacity.has_value() ? 1 : 0);
  h.word(static_cast<std::uint64_t>(options.memory_capacity.value_or(0)));
  h.word(options.validate ? 1 : 0);
  h.word(inst.n());
  for (const Task& t : inst.tasks()) {
    h.word(static_cast<std::uint64_t>(t.p));
    h.word(static_cast<std::uint64_t>(t.s));
  }
  if (inst.has_precedence()) {
    const Dag& dag = inst.dag();
    h.word(dag.edge_count());
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        h.word((static_cast<std::uint64_t>(u) << 32) |
               static_cast<std::uint32_t>(v));
      }
    }
  } else {
    h.word(0);
  }
  return h.key();
}

}  // namespace storesched::storage
