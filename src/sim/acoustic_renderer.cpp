#include "sim/acoustic_renderer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dsp/spectrum.hpp"

namespace hyperear::sim {

namespace {

/// Arrival time of a wavefront emitted at `t_emit` along path `p` to a
/// moving microphone: fixed-point iteration t_arr = t_emit + delay(pos(t_arr)).
/// Two iterations are ample for hand-speed motion (v << c).
double arrival_time(const ImageSourceModel& ism, const ImagePath& p,
                    const Trajectory& traj, const geom::Vec3& mic_body, double t_emit,
                    double sound_speed) {
  double t_arr = t_emit;
  for (int iter = 0; iter < 3; ++iter) {
    const geom::Vec3 pos = traj.point_position(mic_body, t_arr);
    t_arr = t_emit + ism.delay_at(p, pos, sound_speed);
  }
  return t_arr;
}

void render_mic(std::vector<double>& buf, const Speaker& speaker,
                const ImageSourceModel& ism, const Trajectory& traj,
                const geom::Vec3& mic_body, const AdcSpec& adc, double duration,
                const RenderOptions& options) {
  const double fs_eff = effective_sample_rate(adc);
  const double chirp_dur = speaker.spec().chirp.duration_s;
  const double src_amp = speaker.spec().amplitude_at_1m;
  const double sound_speed = options.sound_speed;

  int chirp_index = 0;
  while (true) {
    const double t_emit = speaker.emission_time(chirp_index);
    if (t_emit > duration) break;
    ++chirp_index;
    for (const ImagePath& path : ism.paths()) {
      const double t_start =
          arrival_time(ism, path, traj, mic_body, t_emit, sound_speed);
      const double t_end =
          arrival_time(ism, path, traj, mic_body, t_emit + chirp_dur, sound_speed);
      if (t_start >= duration || t_end <= t_start) continue;
      // Amplitude at the chirp midpoint (variation across one chirp is tiny).
      const geom::Vec3 mid_pos =
          traj.point_position(mic_body, 0.5 * (t_start + t_end));
      double amp = src_amp * ism.amplitude_at(path, mid_pos);
      // A floor-standing obstruction shadows the direct line and anything
      // passing below it: the order-0 path and the floor-bounce image
      // (below-floor mirror).
      if (path.order == 0 || (path.order == 1 && path.image.z < 0.0)) {
        amp *= options.direct_path_gain;
      }
      if (amp < 1e-6) continue;
      // Linearized time warp: a sample at true time ts hears chirp-relative
      // time u = (ts - t_start) * chirp_dur / (t_end - t_start).
      const double warp = chirp_dur / (t_end - t_start);
      auto n0 = static_cast<long long>(std::ceil(t_start * fs_eff));
      auto n1 = static_cast<long long>(std::floor(t_end * fs_eff));
      n0 = std::max<long long>(n0, 0);
      n1 = std::min<long long>(n1, static_cast<long long>(buf.size()) - 1);
      for (long long n = n0; n <= n1; ++n) {
        const double ts = static_cast<double>(n) / fs_eff;
        const double u = (ts - t_start) * warp;
        double v = amp * speaker.chirp().value(u);
        if (options.mic_response) {
          // Stationary-phase approximation: a sweep's energy at each
          // instant sits at its instantaneous frequency, so the mic's
          // magnitude response can be applied pointwise.
          v *= adc.response_at(speaker.chirp().instantaneous_frequency(u));
        }
        buf[static_cast<std::size_t>(n)] += v;
      }
    }
  }
}

}  // namespace

StereoRecording render_audio_multi(const std::vector<Speaker>& speakers,
                                   const PhoneSpec& phone, const Environment& environment,
                                   const Trajectory& trajectory, double duration, Rng& rng,
                                   const RenderOptions& options) {
  require(!speakers.empty(), "render_audio_multi: need at least one speaker");
  require(duration > 0.0, "render_audio: duration must be positive");
  require(options.sound_speed > 0.0, "render_audio: sound speed must be positive");

  const AdcSpec& adc = phone.adc;
  const std::size_t n = sample_count(adc, duration);
  require(n > 0, "render_audio: zero-length recording");

  StereoRecording rec;
  rec.sample_rate = adc.sample_rate;
  rec.mic1.assign(n, 0.0);
  rec.mic2.assign(n, 0.0);

  for (const Speaker& speaker : speakers) {
    const ImageSourceModel ism(environment.room, speaker.position());
    render_mic(rec.mic1, speaker, ism, trajectory, phone.mic1_body(), adc, duration,
               options);
    render_mic(rec.mic2, speaker, ism, trajectory, phone.mic2_body(), adc, duration,
               options);
  }

  if (options.add_noise) {
    // Direct-path signal power of the PRIMARY beacon at the phone's initial
    // position sets the noise calibration target.
    const Speaker& primary = speakers.front();
    const geom::Vec3 mic1_start = trajectory.point_position(phone.mic1_body(), 0.0);
    const double direct_dist =
        std::max(distance(primary.position(), mic1_start), 0.1);
    const double amp = primary.spec().amplitude_at_1m / direct_dist;
    const std::vector<double> chirp_ref = primary.chirp().sample(adc.sample_rate);
    const double sig_power = amp * amp * dsp::signal_power(chirp_ref);
    const double noise_power = sig_power / db_to_power(environment.snr_db);
    // The paper's Fig. 19 SNR labels are broadband level ratios: calibrate
    // the noise's total power. A 9 dB "chatting" floor is then mostly below
    // 2 kHz and barely correlates with the chirp, while mall noise overlaps the
    // chirp band — exactly the contrast Section VII-E reports.
    const double band_lo = 50.0;
    const double band_hi = 0.98 * adc.sample_rate / 2.0;

    Rng noise_rng1 = rng.split();
    Rng noise_rng2 = rng.split();
    std::vector<double> noise1 = make_noise(environment.noise, n, adc.sample_rate, noise_rng1);
    std::vector<double> noise2 = make_noise(environment.noise, n, adc.sample_rate, noise_rng2);
    calibrate_band_power(noise1, adc.sample_rate, band_lo, band_hi, noise_power);
    calibrate_band_power(noise2, adc.sample_rate, band_lo, band_hi, noise_power);
    for (std::size_t i = 0; i < n; ++i) {
      rec.mic1[i] += noise1[i];
      rec.mic2[i] += noise2[i];
    }
  }

  add_self_noise_inplace(rec.mic1, adc, rng);
  add_self_noise_inplace(rec.mic2, adc, rng);
  if (options.quantize) {
    quantize_inplace(rec.mic1, adc);
    quantize_inplace(rec.mic2, adc);
  }
  return rec;
}

StereoRecording render_audio(const Speaker& speaker, const PhoneSpec& phone,
                             const Environment& environment, const Trajectory& trajectory,
                             double duration, Rng& rng, const RenderOptions& options) {
  return render_audio_multi({speaker}, phone, environment, trajectory, duration, rng,
                            options);
}

}  // namespace hyperear::sim
