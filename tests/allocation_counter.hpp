// A counting replacement for the global operator new, for tests that pin
// how often a path allocates. It replaces the allocator for the whole
// test binary, so include it once, from the binary's one source file.
//
// Sanitizer builds keep their runtime's own operator new, so only plain
// builds count; a counting test skips when STORESCHED_TEST_COUNTS_ALLOCATIONS
// is 0.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STORESCHED_TEST_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STORESCHED_TEST_COUNTS_ALLOCATIONS 0
#endif
#endif
#ifndef STORESCHED_TEST_COUNTS_ALLOCATIONS
#define STORESCHED_TEST_COUNTS_ALLOCATIONS 1
#endif

namespace storesched::testing {
/// Heap allocations this thread made while counting is on.
inline thread_local bool t_count_allocations = false;
inline thread_local std::size_t t_allocations = 0;

/// The heap allocations the calling thread makes while running fn().
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  t_allocations = 0;
  t_count_allocations = true;
  fn();
  t_count_allocations = false;
  return t_allocations;
}
}  // namespace storesched::testing

#if STORESCHED_TEST_COUNTS_ALLOCATIONS
// Out of line, so the compiler does not pair an inlined free() with a
// new-expression and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (storesched::testing::t_count_allocations) {
    ++storesched::testing::t_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif
