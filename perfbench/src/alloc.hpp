#pragma once

#include <cstddef>

/// @file alloc.hpp
/// Heap accounting from the benchmark's replacement of the global
/// operator new/delete (alloc.cpp). Every allocation made through `new` in
/// the process — library code included — is counted, so the benchmark can
/// report allocator traffic per session and the peak live heap of a phase
/// without instrumenting the library.

namespace perfbench {

/// Bytes requested from operator new since process start (monotonic).
[[nodiscard]] std::size_t heap_allocated_bytes();

/// Bytes currently live (allocated through operator new, not yet freed).
[[nodiscard]] std::size_t heap_live_bytes();

/// Highest `heap_live_bytes()` since the last `reset_heap_peak()`.
[[nodiscard]] std::size_t heap_peak_bytes();

/// Restart peak tracking from the current live level.
void reset_heap_peak();

}  // namespace perfbench
