#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

/// @file stats.hpp
/// The benchmark's arithmetic, kept free of I/O and timing so the unit
/// tests (tests/test_stats.cpp) can pin it on tiny synthetic inputs:
///  - the percentile rule for reported tails;
///  - span self time under nested and overlapping children;
///  - the failure accounting behind `attempted` / `failed`;
///  - open-loop latency measured from each operation's due time.

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSupport = 10;

/// The quantile actually reported when `wanted` is asked of `n` samples:
/// `wanted` itself when at least kTailSupport samples lie beyond it,
/// otherwise the highest quantile that still has that many beyond it
/// (1 - kTailSupport / n), and never below the median.
[[nodiscard]] inline double supported_quantile(double wanted, std::size_t n) {
  if (n == 0) return 0.5;
  const double highest = 1.0 - static_cast<double>(kTailSupport) / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, highest));
}

/// A reported percentile with the quantile it was taken at and the count
/// it was taken over.
struct Percentile {
  double value = 0.0;
  double quantile = 0.5;
  std::size_t n = 0;
};

/// Nearest-rank quantile: the value at sorted index ceil(q * n) - 1, so at
/// q = 1 - k/n exactly k samples lie beyond it. 0 for no values.
[[nodiscard]] inline double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()) - 1e-9);
  return values[rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1];
}

/// A timing percentile under the support rule.
[[nodiscard]] inline Percentile percentile(std::vector<double> values, double wanted) {
  Percentile p;
  p.n = values.size();
  p.quantile = supported_quantile(wanted, p.n);
  p.value = nearest_rank(std::move(values), p.quantile);
  return p;
}

/// One span: a layer's interval on the benchmark clock (ms since the run's
/// epoch), linked to the span that caused it.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t session = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that the union of its children covers. Children
/// may nest, overlap each other (parallel work) or spill past the parent;
/// only the covered part inside the parent's interval is subtracted, once.
[[nodiscard]] inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, cursor);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

/// How one attempted operation ended. Everything from `shed` on is a
/// failure; `no_fix` is the paper's "slide again" answer and is not.
enum class Outcome : std::uint8_t {
  fix,        ///< completed with a valid fix equal to the reference
  no_fix,     ///< completed, valid == false, equal to the reference
  shed,       ///< refused at admission
  expired,    ///< deadline passed while queued
  cancelled,  ///< drained by shutdown or refused by a shard
  error,      ///< completed with status error
  mismatch,   ///< completed, but the fix differs from the reference
};
inline constexpr std::size_t kOutcomeCount = 7;

[[nodiscard]] inline const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::fix: return "fix";
    case Outcome::no_fix: return "no_fix";
    case Outcome::shed: return "shed";
    case Outcome::expired: return "expired";
    case Outcome::cancelled: return "cancelled";
    case Outcome::error: return "error";
    case Outcome::mismatch: return "mismatch";
  }
  return "error";
}

[[nodiscard]] inline bool is_failure(Outcome o) {
  return o != Outcome::fix && o != Outcome::no_fix;
}

/// Outcome counts of one run. `completed` counts the operations that did
/// not fail; every attempted operation is either completed or failed.
struct Tally {
  std::array<std::size_t, kOutcomeCount> by_outcome{};

  void add(Outcome o) { ++by_outcome[static_cast<std::size_t>(o)]; }
  [[nodiscard]] std::size_t count(Outcome o) const {
    return by_outcome[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] std::size_t attempted() const {
    std::size_t n = 0;
    for (const std::size_t c : by_outcome) n += c;
    return n;
  }
  [[nodiscard]] std::size_t completed() const {
    return count(Outcome::fix) + count(Outcome::no_fix);
  }
  [[nodiscard]] std::size_t failed() const { return attempted() - completed(); }
  [[nodiscard]] double failed_share() const {
    const std::size_t n = attempted();
    return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
  }
};

/// Open-loop latency of a request, in ms from its DUE time: how late the
/// generator called submit (`submit_return_ms - due_ms`, which includes the
/// call itself) plus the server's own submit-to-resolution time. The server
/// stamps a request inside submit, so the sum over-counts only the few
/// microseconds between that stamp and the call's return. Never negative:
/// a call cannot return before it was due.
[[nodiscard]] inline double latency_from_due_ms(double due_ms, double submit_return_ms,
                                                double server_latency_ms) {
  return std::max(0.0, submit_return_ms - due_ms) + server_latency_ms;
}

}  // namespace perfbench
