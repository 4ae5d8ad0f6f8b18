// Counting global allocator: every successful allocation bumps the
// thread-local event counter that the kernel passes and the replay snapshot
// around their hot loops (common/alloc_counter.h), which makes
// PassStats::hot_path_allocs live in every binary that links this object
// library. Frees are not counted: the gates are about allocations, and in a
// steady state they pair up anyway.
#include <cstdlib>
#include <new>

#include "common/alloc_counter.h"

void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  ++speck::detail::thread_alloc_events;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
