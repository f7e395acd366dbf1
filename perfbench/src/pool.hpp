#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/chirp.hpp"
#include "sim/scenario.hpp"

/// @file pool.hpp
/// The rendered inputs of a workload and the reference fix of each.
///
/// Sessions are rendered by `sim` and never timed. They are a fixed
/// fixture — rendered from constant seeds, not from the run's `--seed` —
/// because the accuracy metrics are order statistics over a few dozen
/// sessions whose errors span two orders of magnitude: re-rendered per
/// seed, each run would score a fresh small sample.
/// The run's seed drives the traffic instead: request order, arrival
/// times, request classes and live-session phases (workloads.cpp). The reference for every session
/// is computed once, before any timing, by the context-free
/// `core::try_localize` — the pipeline's canonical single-session spelling
/// — and every fix the system under test returns is compared with it bit
/// for bit.

namespace perfbench {

namespace core = hyperear::core;
namespace dsp = hyperear::dsp;
namespace sim = hyperear::sim;

struct PoolEntry {
  std::size_t index = 0;    ///< position in Pool::entries
  std::string label;        ///< e.g. "2d/7m/mall_busy_hour/hand/plan0"
  sim::Session session;     ///< full recording, as a phone would upload it
  /// try_localize's fix; empty when the reference run itself errored (any
  /// operation on such a session then counts as failed; make_pool reports
  /// why on stderr).
  std::optional<core::LocalizationResult> reference;
};

struct Pool {
  std::vector<PoolEntry> entries;
  /// Index of the first entry of each distinct chirp plan, in first-use
  /// order (the warm-up request per plan).
  std::vector<std::size_t> first_of_plan;
};

/// Render the pool of `workload` ("batch_closed", "serve_open" or
/// "stream_live") on `threads` threads and compute every reference fix.
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Pool make_pool(const std::string& workload, std::size_t threads);

/// True when `got` equals the reference bit for bit on everything a user
/// sees: validity, position, range, period, SFO and slides used.
[[nodiscard]] bool same_fix(const core::LocalizationResult& got,
                            const core::LocalizationResult& reference);

/// Floor-map error of a valid fix against ground truth, in cm.
[[nodiscard]] double fix_error_cm(const core::LocalizationResult& fix,
                                  const sim::Session& session);

/// Run `fn(i)` for i in [0, n) on up to `threads` threads and wait. The
/// first exception any call throws is rethrown after every thread joined.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr failure;
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!failure) failure = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t extra = std::min(threads, n) > 0 ? std::min(threads, n) - 1 : 0;
  for (std::size_t t = 0; t < extra; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace perfbench
