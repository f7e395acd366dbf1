#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

/// @file bench_json.hpp
/// Machine-readable benchmark output. The perf benches emit one JSON file
/// each (BENCH_dsp.json, BENCH_engine.json) with flat rows —
/// {op, variant, n, ns_per_op, bytes_allocated} — so before/after
/// comparisons of the DSP hot path are a `jq` one-liner instead of a
/// log-scraping exercise (README "Performance" quotes these files).
///
/// Allocation accounting: a bench binary that invokes
/// HYPEREAR_DEFINE_ALLOC_COUNTER() at namespace scope (exactly once)
/// replaces global operator new/delete with counting versions; the timing
/// loop samples `allocated_bytes()` around the reps. Deallocations are not
/// subtracted — the counter measures allocator traffic (how often the hot
/// path hits the heap), not peak footprint.

namespace hyperear::bench {

/// Running total of bytes requested from global operator new. Defined by
/// HYPEREAR_DEFINE_ALLOC_COUNTER(); zero forever if the binary opted out.
extern std::atomic<std::size_t> g_allocated_bytes;

inline std::size_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

/// True when the binary runs as a ctest smoke check (label "bench-smoke"):
/// shrink inputs and rep counts so the run finishes in well under a second
/// while still exercising every code path the real run times.
inline bool smoke_mode() {
  const char* env = std::getenv("HYPEREAR_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// One measurement row.
struct BenchRow {
  std::string op;       ///< primitive measured, e.g. "filter_same"
  std::string variant;  ///< implementation, e.g. "monolithic-fft" vs "ols"
  std::size_t n = 0;    ///< problem size (samples)
  double ns_per_op = 0.0;
  std::size_t bytes_allocated = 0;  ///< heap bytes requested per op
};

/// Schema check: every row must carry a non-empty op and variant, a
/// positive problem size, and a finite positive timing; an empty row list
/// means the bench silently stopped measuring. Violations return false so
/// write_bench_json can abort the process — the bench-smoke ctest run then
/// fails the moment a bench stops emitting valid rows, instead of the
/// regression surfacing when someone next diffs the JSON.
inline bool validate_bench_rows(const std::vector<BenchRow>& rows,
                                std::string* why = nullptr) {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  if (rows.empty()) return fail("no rows emitted");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    const std::string at = "row " + std::to_string(i) + ": ";
    if (r.op.empty()) return fail(at + "empty op");
    if (r.variant.empty()) return fail(at + "empty variant");
    if (r.n == 0) return fail(at + "n == 0");
    if (!(r.ns_per_op > 0.0) || r.ns_per_op != r.ns_per_op ||
        r.ns_per_op > 1e18) {
      return fail(at + "ns_per_op not a finite positive number");
    }
  }
  // Scaling contract of the engine bench: the thread-scaling ladder is the
  // row set before/after comparisons key on, so an engine bench that stops
  // emitting any rung (say, after an edit to its thread-count set) must
  // fail loudly here rather than producing a JSON that silently lost its
  // scaling story.
  bool any_engine = false;
  for (const BenchRow& r : rows) any_engine = any_engine || r.op == "engine_localize_all";
  if (any_engine) {
    for (const char* rung :
         {"engine-threads-1", "engine-threads-2", "engine-threads-4",
          "engine-threads-8"}) {
      bool found = false;
      for (const BenchRow& r : rows) {
        found = found || (r.op == "engine_localize_all" && r.variant == rung);
      }
      if (!found) {
        return fail(std::string("engine_localize_all rows missing scaling variant ") +
                    rung);
      }
    }
  }
  return true;
}

/// Write rows as a JSON array of flat objects. Overwrites `path`.
/// Terminates the process (exit 1) when the rows fail the schema check, so
/// ctest's bench-smoke label catches a bench that bit-rotted its output.
inline void write_bench_json(const std::string& path,
                             const std::vector<BenchRow>& rows) {
  std::string why;
  if (!validate_bench_rows(rows, &why)) {
    std::fprintf(stderr, "bench_json: %s: invalid rows (%s)\n", path.c_str(),
                 why.c_str());
    std::exit(1);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"variant\": \"%s\", \"n\": %zu, "
                 "\"ns_per_op\": %.1f, \"bytes_allocated\": %zu}%s\n",
                 r.op.c_str(), r.variant.c_str(), r.n, r.ns_per_op,
                 r.bytes_allocated, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

}  // namespace hyperear::bench

/// Define the counting global operator new/delete for this binary. Must
/// appear exactly once per executable, at namespace scope.
///
/// The replacement operators intentionally pair malloc with free — the
/// sanctioned way to interpose the global allocator — but GCC's
/// -Wmismatched-new-delete only sees "free() on a pointer from operator
/// new" inside this TU and flags it, so the pragma scopes that one false
/// positive to the macro expansion.
#define HYPEREAR_DEFINE_ALLOC_COUNTER()                                     \
  _Pragma("GCC diagnostic push")                                            \
  _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")             \
  namespace hyperear::bench {                                               \
  std::atomic<std::size_t> g_allocated_bytes{0};                            \
  }                                                                         \
  void* operator new(std::size_t size) {                                    \
    ::hyperear::bench::g_allocated_bytes.fetch_add(                         \
        size, std::memory_order_relaxed);                                   \
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;              \
    throw std::bad_alloc{};                                                 \
  }                                                                         \
  void* operator new[](std::size_t size) { return ::operator new(size); }   \
  void operator delete(void* p) noexcept { std::free(p); }                  \
  void operator delete[](void* p) noexcept { std::free(p); }                \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }     \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }   \
  _Pragma("GCC diagnostic pop")
