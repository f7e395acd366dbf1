#include "core/sdf.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"

namespace hyperear::core {

std::size_t pair_arrival_times(std::span<const double> mic1,
                               std::span<const double> mic2, double max_offset_s,
                               std::vector<TdoaSample>& out) {
  out.clear();
  std::size_t settled = 0;
  bool settled_so_far = true;
  std::size_t j = 0;
  for (const double t1 : mic1) {
    // Advance to the nearest mic2 arrival.
    while (j + 1 < mic2.size() && std::abs(mic2[j + 1] - t1) <= std::abs(mic2[j] - t1)) {
      ++j;
    }
    if (j >= mic2.size()) break;
    // The scan stopped because it ran out of mic2 arrivals, not because the
    // next one was farther: a later mic2 arrival could re-pair this and
    // every later mic1 arrival.
    if (j + 1 >= mic2.size()) settled_so_far = false;
    const double dt = t1 - mic2[j];
    if (std::abs(dt) <= max_offset_s) out.push_back({0.5 * (t1 + mic2[j]), dt});
    if (settled_so_far) settled = out.size();
  }
  return settled;
}

std::vector<TdoaSample> pair_inter_mic_tdoas(const AspResult& asp, double max_offset_s) {
  require(max_offset_s > 0.0, "pair_inter_mic_tdoas: bad pairing window");
  const auto times = [](const std::vector<ChirpEvent>& events) {
    std::vector<double> t;
    t.reserve(events.size());
    for (const ChirpEvent& e : events) t.push_back(e.time_s);
    return t;
  };
  std::vector<TdoaSample> out;
  pair_arrival_times(times(asp.mic1), times(asp.mic2), max_offset_s, out);
  return out;
}

std::optional<ZeroCrossing> find_zero_crossing(std::span<const TdoaSample> trace,
                                               std::size_t begin, std::size_t end,
                                               double min_swing_s) {
  HE_EXPECTS(begin >= 1 && end <= trace.size());
  const std::size_t n = trace.size();
  for (std::size_t i = begin; i < end; ++i) {
    const TdoaSample& a = trace[i - 1];
    const TdoaSample& b = trace[i];
    if (a.tdoa_s == 0.0 && b.tdoa_s == 0.0) continue;
    if (a.tdoa_s * b.tdoa_s > 0.0) continue;
    const std::size_t lo = i >= 4 ? i - 4 : 0;
    const std::size_t hi = std::min(i + 3, n - 1);
    const double swing = trace[hi].tdoa_s - trace[lo].tdoa_s;
    if (std::abs(swing) < min_swing_s) continue;
    // Linear interpolation of the crossing time.
    const double span = b.tdoa_s - a.tdoa_s;
    const double frac = span != 0.0 ? -a.tdoa_s / span : 0.5;
    return ZeroCrossing{i, lerp(a.time_s, b.time_s, frac), swing};
  }
  return std::nullopt;
}

double integrated_yaw_at(const imu::MotionSignals& motion, double t) {
  require(motion.size() >= 2, "integrated_yaw_at: record too short");
  const double dt = motion.dt();
  const double t_clamped = clamp(t, 0.0, static_cast<double>(motion.size() - 1) * dt);
  double yaw = 0.0;
  const auto full = static_cast<std::size_t>(t_clamped / dt);
  for (std::size_t i = 0; i + 1 <= full && i + 1 < motion.size(); ++i) {
    yaw += 0.5 * (motion.gyro_z[i] + motion.gyro_z[i + 1]) * dt;
  }
  // Fractional tail.
  if (full + 1 < motion.size()) {
    const double frac = t_clamped - static_cast<double>(full) * dt;
    yaw += motion.gyro_z[full] * frac;
  }
  return yaw;
}

SdfResult find_direction(const AspResult& asp, const imu::MotionSignals& motion,
                         const SdfOptions& options) {
  SdfResult result;
  result.samples = pair_inter_mic_tdoas(asp, options.max_pairing_offset_s);
  if (result.samples.size() < 3) return result;

  const std::optional<ZeroCrossing> crossing =
      find_zero_crossing(result.samples, 1, result.samples.size(), options.min_swing_s);
  if (!crossing) return result;
  result.found = true;
  result.crossing_time_s = crossing->time_s;
  // Side disambiguation: tdoa = -D cos(alpha)/S with alpha = 90 + yaw for
  // a speaker on +x. Its time derivative at the crossing is
  // (D/S) * cos(yaw) * yaw_rate, so a rising crossing means +x only when
  // the phone was rotating counter-clockwise; read the sign off the gyro.
  const auto idx = static_cast<std::size_t>(clamp(
      result.crossing_time_s / motion.dt(), 0.0, static_cast<double>(motion.size() - 1)));
  const double yaw_rate = motion.gyro_z[idx];
  result.speaker_on_positive_x = (crossing->swing_s > 0.0) == (yaw_rate > 0.0);
  result.yaw_rad = integrated_yaw_at(motion, result.crossing_time_s);
  return result;
}

}  // namespace hyperear::core
