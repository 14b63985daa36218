#include "storage/canonical.hpp"

#include <cstring>

#include "storage/wire_format.hpp"

namespace storesched::storage {

namespace {

/// Names the key scheme (2: tasks in input order). Keys of another scheme,
/// such as entries an older build left in a live shm store, never match.
constexpr std::uint64_t kKeyScheme = 2;

/// splitmix64 finalizer -- the second lane's word mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Two-lane streaming hasher: lane A is FNV-1a over bytes, lane B chains
/// splitmix64 over 64-bit words. The lanes share no structure, so a
/// collision requires beating both independently.
struct KeyHasher {
  std::uint64_t a = 0xCBF29CE484222325ull;
  std::uint64_t b = 0x53544F5245534348ull;  // "STORESCH"

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      a = (a ^ p[i]) * 0x100000001B3ull;
    }
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + i, 8);
      b = mix64(b ^ w);
    }
    std::uint64_t tail = size;  // fold the length into the ragged word
    for (; i < size; ++i) tail = (tail << 8) | p[i];
    b = mix64(b ^ tail);
  }

  void word(std::uint64_t w) { bytes(&w, 8); }

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
