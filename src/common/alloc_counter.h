// Thread-local heap-allocation event counter — the hook behind the
// zero-allocation hot-path guarantee.
//
// The library itself never counts anything: `thread_alloc_events` only moves
// when a binary overrides the global operator new/delete to bump it: the
// allocation-gated bench drivers and tests link bench/counting_alloc.cpp,
// and perfbench installs its own. The symbolic/numeric passes snapshot the
// counter around every block body and accumulate the delta into
// `PassStats::hot_path_allocs`, so "allocations per block" is measured over
// exactly the per-block hot path — not over per-multiply setup such as
// output buffers or launch bookkeeping. In binaries without the override the
// counter stays 0 and the accounting is free apart from two thread-local
// reads per block.
#pragma once

#include <cstddef>

namespace speck::detail {

/// Heap allocations observed on the current thread. Incremented by binaries
/// that install a counting operator new; read by the kernel passes.
extern thread_local std::size_t thread_alloc_events;

inline std::size_t alloc_events_now() { return thread_alloc_events; }

}  // namespace speck::detail
