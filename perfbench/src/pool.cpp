#include "pool.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/status.hpp"
#include "sim/environment.hpp"
#include "sim/trajectory.hpp"

namespace perfbench {
namespace {

struct Spec {
  sim::ScenarioConfig config;
  std::string label;
};

struct EnvChoice {
  const char* name;
  sim::Environment (*make)();
};

const EnvChoice kEnvironments[] = {
    {"meeting_room_quiet", sim::meeting_room_quiet},
    {"meeting_room_chatting", sim::meeting_room_chatting},
    {"mall_off_peak", sim::mall_off_peak},
    {"mall_busy_hour", sim::mall_busy_hour},
};

/// Chirp plans: the paper's 2-6.4 kHz beacon and two narrower ones, so a
/// multi-plan workload keeps more than one PipelineContext hot.
dsp::ChirpParams plan_chirp(std::size_t plan) {
  dsp::ChirpParams chirp;
  if (plan == 1) chirp.freq_high_hz = 5800.0;
  if (plan == 2) chirp.freq_high_hz = 6200.0;
  return chirp;
}

Spec make_spec(double distance, std::size_t env, bool hand, bool three_d,
               std::size_t plan, int slides, double calibration_s) {
  Spec s;
  sim::ScenarioConfig& c = s.config;
  c.environment = kEnvironments[env].make();
  c.jitter = hand ? sim::hand_jitter() : sim::ruler_jitter();
  c.speaker_distance = distance;
  c.two_statures = three_d;
  c.speaker.chirp = plan_chirp(plan);
  c.slides_per_stature = slides;
  c.calibration_duration = calibration_s;
  s.label = std::string(three_d ? "3d/" : "2d/") +
            std::to_string(static_cast<int>(distance)) + "m/" + kEnvironments[env].name +
            (hand ? "/hand" : "/ruler") + "/plan" + std::to_string(plan);
  return s;
}

/// The accuracy matrix on one plan: 2D at 4, 7 and 10 m in every
/// environment with ruler and hand jitter, plus 3D two-stature sessions.
std::vector<Spec> batch_closed_specs() {
  std::vector<Spec> specs;
  for (const double d : {4.0, 7.0, 10.0}) {
    for (std::size_t env = 0; env < 4; ++env) {
      for (const bool hand : {false, true}) {
        specs.push_back(make_spec(d, env, hand, false, 0, 5, 4.0));
      }
    }
  }
  for (std::size_t env = 0; env < 4; ++env) {
    specs.push_back(make_spec(env % 2 == 0 ? 4.0 : 7.0, env, env >= 2, true, 0, 3, 3.0));
  }
  return specs;
}

/// Production-shaped mix: 2D and 3D, four environments, three plans.
std::vector<Spec> serve_open_specs() {
  std::vector<Spec> specs;
  for (std::size_t i = 0; i < 12; ++i) {
    const double d = i % 3 == 0 ? 4.0 : (i % 3 == 1 ? 7.0 : 10.0);
    specs.push_back(make_spec(d, i % 4, (i / 4) % 2 == 1, false, i % 3, 5, 4.0));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    specs.push_back(make_spec(i % 2 == 0 ? 4.0 : 7.0, i, i >= 2, true, i % 3, 3, 3.0));
  }
  return specs;
}

/// Live phones on one plan (one shared PipelineContext). The short
/// protocol (3 slides, 3 s calibration; ~9 s of audio) finishes more
/// sessions per second at the same number open, so the fix-latency tail
/// has enough samples in a run.
std::vector<Spec> stream_live_specs() {
  std::vector<Spec> specs;
  for (std::size_t i = 0; i < 12; ++i) {
    const double d = i % 3 == 0 ? 4.0 : (i % 3 == 1 ? 7.0 : 10.0);
    specs.push_back(make_spec(d, i % 4, (i / 4) % 2 == 1, false, 0, 3, 3.0));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    specs.push_back(make_spec(4.0 + 3.0 * static_cast<double>(i), 2 * i, i == 1, true, 0, 3, 3.0));
  }
  return specs;
}

/// Render seed of the index-th pool session (splitmix64 of the index).
std::uint64_t fixture_seed(std::size_t index) {
  std::uint64_t z = 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Pool make_pool(const std::string& workload, std::size_t threads) {
  std::vector<Spec> specs;
  if (workload == "batch_closed") {
    specs = batch_closed_specs();
  } else if (workload == "serve_open") {
    specs = serve_open_specs();
  } else if (workload == "stream_live") {
    specs = stream_live_specs();
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  Pool pool;
  pool.entries.resize(specs.size());
  std::vector<dsp::ChirpParams> plans;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    PoolEntry& e = pool.entries[i];
    e.index = i;
    e.label = specs[i].label;
    const dsp::ChirpParams& chirp = specs[i].config.speaker.chirp;
    if (std::find(plans.begin(), plans.end(), chirp) == plans.end()) {
      plans.push_back(chirp);
      pool.first_of_plan.push_back(i);
    }
  }
  parallel_for(specs.size(), threads, [&](std::size_t i) {
    PoolEntry& e = pool.entries[i];
    hyperear::Rng rng(fixture_seed(i));
    e.session = sim::make_localization_session(specs[i].config, rng);
    auto ref = core::try_localize(e.session, core::PipelineConfig{});
    if (ref.has_value()) {
      e.reference = *std::move(ref);
    } else {
      std::fprintf(stderr, "perfbench: reference run of %s errored: %s\n", e.label.c_str(),
                   core::describe(ref.error()).c_str());
    }
  });
  return pool;
}

bool same_fix(const core::LocalizationResult& got, const core::LocalizationResult& ref) {
  const auto bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  return got.valid == ref.valid && got.slides_used == ref.slides_used &&
         bits(got.estimated_position.x, ref.estimated_position.x) &&
         bits(got.estimated_position.y, ref.estimated_position.y) &&
         bits(got.range, ref.range) && bits(got.estimated_period, ref.estimated_period) &&
         bits(got.sfo_ppm, ref.sfo_ppm);
}

double fix_error_cm(const core::LocalizationResult& fix, const sim::Session& session) {
  return 100.0 * core::localization_error(fix, session);
}

}  // namespace perfbench
