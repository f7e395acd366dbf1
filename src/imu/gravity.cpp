#include "imu/gravity.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/biquad.hpp"

namespace hyperear::imu {

namespace {

LinearAcceleration remove_static_head(const ImuData& data, const GravityOptions& options) {
  const std::size_t n = data.size();
  const auto head = std::clamp<std::size_t>(
      static_cast<std::size_t>(options.head_duration_s * data.sample_rate), 8, n);
  const double gx = median({data.accel_x.data(), head});
  const double gy = median({data.accel_y.data(), head});
  const double gz = median({data.accel_z.data(), head});
  LinearAcceleration out;
  out.sample_rate = data.sample_rate;
  out.gravity_x.assign(n, gx);
  out.gravity_y.assign(n, gy);
  out.gravity_z.assign(n, gz);
  out.x.resize(n);
  out.y.resize(n);
  out.z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.x[i] = data.accel_x[i] - gx;
    out.y[i] = data.accel_y[i] - gy;
    out.z[i] = data.accel_z[i] - gz;
  }
  return out;
}

LinearAcceleration remove_lowpass(const ImuData& data, const GravityOptions& options) {
  require(options.cutoff_hz > 0.0 && options.cutoff_hz < data.sample_rate / 2.0,
          "remove_gravity: bad cutoff");
  LinearAcceleration out;
  out.sample_rate = data.sample_rate;
  dsp::ButterworthCascade lp(dsp::ButterworthCascade::Kind::kLowpass, options.order,
                             options.cutoff_hz, data.sample_rate);
  out.gravity_x = lp.filtfilt(data.accel_x);
  out.gravity_y = lp.filtfilt(data.accel_y);
  out.gravity_z = lp.filtfilt(data.accel_z);
  const std::size_t n = data.size();
  out.x.resize(n);
  out.y.resize(n);
  out.z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.x[i] = data.accel_x[i] - out.gravity_x[i];
    out.y[i] = data.accel_y[i] - out.gravity_y[i];
    out.z[i] = data.accel_z[i] - out.gravity_z[i];
  }
  return out;
}

}  // namespace

LinearAcceleration remove_gravity(const ImuData& data, const GravityOptions& options) {
  require(data.size() >= 8, "remove_gravity: record too short");
  switch (options.mode) {
    case GravityMode::kStaticHead:
      return remove_static_head(data, options);
    case GravityMode::kLowpass:
      return remove_lowpass(data, options);
  }
  throw PreconditionError("remove_gravity: unknown mode");
}

}  // namespace hyperear::imu
