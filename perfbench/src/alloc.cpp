#include "alloc.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

// The replacement operators pair malloc with free — the sanctioned way to
// interpose the global allocator — which GCC's -Wmismatched-new-delete
// cannot see across the replacement boundary.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace perfbench {
namespace {

std::atomic<std::size_t> g_allocated{0};
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void note_alloc(void* p) {
  // Usable size, not the requested size, so the delete side (which only
  // knows the pointer) subtracts exactly what was added.
  const std::size_t size = malloc_usable_size(p);
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  const std::size_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::size_t heap_allocated_bytes() { return g_allocated.load(std::memory_order_relaxed); }
std::size_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_heap_peak() { g_peak.store(heap_live_bytes(), std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  perfbench::note_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) perfbench::note_alloc(p);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
