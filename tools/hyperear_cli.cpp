/// Command-line front end for the library.
///
///   hyperear_cli simulate --out-prefix /tmp/session [--distance 5]
///                [--phone s4|note3] [--env quiet|chatting|mall|mall-busy]
///                [--hand] [--3d] [--seed N]
///       renders a session and writes <prefix>.wav (stereo),
///       <prefix>_imu.csv, and <prefix>_truth.txt
///
///   hyperear_cli localize --wav FILE --imu FILE [--phone s4|note3] [--3d]
///       runs the pipeline on recorded inputs and prints the fix
///
///   hyperear_cli demo [--seed N] [--distance 5] [--phone ...] [--env ...]
///                [--hand] [--3d]
///       one self-contained simulate+localize round trip
///
///   hyperear_cli serve [--requests N] [--shards N] [--threads N]
///               [--in-flight N] [--queue N] [--seed N]
///       renders a small mixed-traffic pool and pushes it through the
///       admission-controlled runtime::Server (batch + streaming classes),
///       printing each request's admission and outcome plus the final
///       lifecycle totals
///
/// Each subcommand accepts only the flags listed for it. An unknown flag,
/// a stray argument, a value flag without its value, an --env or --phone
/// name not listed, a distance that is not a finite number, and a count or
/// seed that is not a non-negative decimal integer are usage errors: exit
/// 2, before any work starts.
///
/// `localize`, `demo`, and `serve` accept `--metrics-out FILE`: the run executes
/// with a live metrics registry + tracer and dumps the telemetry to FILE —
/// Prometheus text format when FILE ends in ".prom", otherwise a JSON
/// object {"metrics": {...}, "trace": [...]} with per-stage spans.
///
/// The localize subcommand reconstructs the "prior" a phone app would have
/// natively (its own position is the map origin; believed yaw 0; the
/// default beacon chirp), so recorded sessions from elsewhere only need the
/// two sensor files.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "io/csv.hpp"
#include "io/wav.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/server.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hyperear;

/// A command-line mistake; main() answers it with exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The flags one subcommand declares: `values` take the next argument,
/// `switches` stand alone.
struct FlagSpec {
  std::vector<std::string> values;
  std::vector<std::string> switches;
};

/// Tiny flag parser: --key value pairs plus boolean switches, each
/// declared by the subcommand. Anything undeclared throws UsageError.
struct Args {
  std::map<std::string, std::string> values;
  std::set<std::string> switches;

  static Args parse(int argc, char** argv, int first, const FlagSpec& spec) {
    const auto declared = [](const std::vector<std::string>& names,
                             const std::string& key) {
      return std::find(names.begin(), names.end(), key) != names.end();
    };
    Args a;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + arg + "'");
      const std::string key = arg.substr(2);
      if (declared(spec.switches, key)) {
        a.switches.insert(key);
      } else if (declared(spec.values, key)) {
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          throw UsageError(arg + " needs a value");
        }
        a.values[key] = argv[++i];
      } else {
        throw UsageError("unknown flag " + arg);
      }
    }
    return a;
  }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  /// A finite decimal number; anything else throws UsageError.
  [[nodiscard]] double get_num(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
      throw UsageError("--" + key + " needs a finite number, got '" + text + "'");
    }
    return value;
  }
  /// A count or seed. Anything but a non-negative decimal integer throws
  /// UsageError: casting a negative or fractional double to an unsigned
  /// type is undefined behaviour, and counts size thread pools.
  [[nodiscard]] std::uint64_t get_count(const std::string& key,
                                        std::uint64_t fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    const std::string& text = it->second;
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw UsageError("--" + key + " needs a non-negative integer, got '" + text + "'");
    }
    return value;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return switches.count(key) > 0 || values.count(key) > 0;
  }
};

sim::Environment environment_by_name(const std::string& name) {
  if (name == "quiet") return sim::meeting_room_quiet();
  if (name == "chatting") return sim::meeting_room_chatting();
  if (name == "mall") return sim::mall_off_peak();
  if (name == "mall-busy") return sim::mall_busy_hour();
  throw UsageError("--env must be quiet, chatting, mall or mall-busy, got '" + name +
                   "'");
}

sim::PhoneSpec phone_from(const Args& args) {
  const std::string name = args.get("phone", "s4");
  if (name == "s4") return sim::galaxy_s4();
  if (name == "note3") return sim::galaxy_note3();
  throw UsageError("--phone must be s4 or note3, got '" + name + "'");
}

sim::ScenarioConfig config_from(const Args& args) {
  sim::ScenarioConfig c;
  c.phone = phone_from(args);
  c.environment = environment_by_name(args.get("env", "quiet"));
  c.speaker_distance = args.get_num("distance", 5.0);
  c.two_statures = args.has("3d");
  c.speaker_height = c.two_statures ? 0.5 : 1.3;
  c.jitter = args.has("hand") ? sim::hand_jitter() : sim::ruler_jitter();
  return c;
}

/// One run's observability bundle, created iff --metrics-out was given.
/// Registry and tracer live behind shared_ptrs so `serve` can hand them to
/// runtime::Server (whose shards co-own their observability sinks).
struct CliObs {
  std::shared_ptr<obs::MetricsRegistry> registry =
      std::make_shared<obs::MetricsRegistry>();
  std::shared_ptr<obs::Tracer> tracer = std::make_shared<obs::Tracer>();
  obs::ObsContext context{registry.get(), tracer.get(), 1};
  std::string path;

  /// Write the telemetry to `path`; returns false on I/O failure.
  bool write() const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write metrics file %s\n", path.c_str());
      return false;
    }
    const bool prom = path.size() >= 5 && path.rfind(".prom") == path.size() - 5;
    if (prom) {
      const std::string text = registry->to_prometheus();
      std::fwrite(text.data(), 1, text.size(), f);
    } else {
      const std::string metrics = registry->to_json();
      const std::string trace = tracer->to_json();
      std::fprintf(f, "{\n\"metrics\": %s,\n\"trace\": %s}\n", metrics.c_str(),
                   trace.c_str());
    }
    std::fclose(f);
    std::printf("wrote telemetry to %s\n", path.c_str());
    return true;
  }
};

/// Null unless --metrics-out was given.
std::unique_ptr<CliObs> make_obs(const Args& args) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return nullptr;
  auto obs = std::make_unique<CliObs>();
  obs->path = path;
  return obs;
}

/// Print a localization outcome; returns the process exit code (0 = fix).
int print_fix(const Expected<core::LocalizationResult, core::PipelineError>& outcome) {
  if (!outcome.has_value()) {
    std::printf("localization ERROR %s\n", core::describe(outcome.error()).c_str());
    return 1;
  }
  const core::LocalizationResult& fix = *outcome;
  if (!fix.valid) {
    std::printf("localization FAILED (no accepted slides)\n");
    return 1;
  }
  std::printf("fix: position (%.3f, %.3f) m on the map, range %.3f m\n",
              fix.estimated_position.x, fix.estimated_position.y, fix.range);
  std::printf("     %d slides used, SFO %+.1f ppm (period %.6f s)\n", fix.slides_used,
              fix.sfo_ppm, fix.estimated_period);
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string prefix = args.get("out-prefix", "/tmp/hyperear_session");
  Rng rng(args.get_count("seed", 1));
  const sim::ScenarioConfig c = config_from(args);
  std::printf("simulating: %s, %.1f m, %s, %s%s\n", c.phone.name.c_str(),
              c.speaker_distance, c.environment.name.c_str(),
              c.jitter.hand_held() ? "hand-held" : "ruler",
              c.two_statures ? ", two statures" : "");
  const sim::Session s = sim::make_localization_session(c, rng);
  io::write_wav(prefix + ".wav", {s.audio.mic1, s.audio.mic2}, s.audio.sample_rate);
  io::write_imu_csv(prefix + "_imu.csv", s.imu);
  {
    std::FILE* f = std::fopen((prefix + "_truth.txt").c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write truth file\n");
      return 1;
    }
    std::fprintf(f, "speaker %.6f %.6f %.6f\nphone_start %.6f %.6f %.6f\nyaw %.6f\n",
                 s.truth.speaker_position.x, s.truth.speaker_position.y,
                 s.truth.speaker_position.z, s.truth.phone_start_position.x,
                 s.truth.phone_start_position.y, s.truth.phone_start_position.z,
                 s.truth.in_direction_yaw);
    std::fclose(f);
  }
  std::printf("wrote %s.wav, %s_imu.csv, %s_truth.txt\n", prefix.c_str(), prefix.c_str(),
              prefix.c_str());
  return 0;
}

int cmd_localize(const Args& args) {
  const std::string wav_path = args.get("wav", "");
  const std::string imu_path = args.get("imu", "");
  if (wav_path.empty() || imu_path.empty()) {
    std::printf("localize needs --wav FILE and --imu FILE\n");
    return 2;
  }
  const io::WavData wav = io::read_wav(wav_path);
  if (wav.channels.size() != 2) {
    std::printf("expected a stereo WAV (got %zu channels)\n", wav.channels.size());
    return 2;
  }
  sim::Session s;
  s.audio.sample_rate = wav.sample_rate;
  s.audio.mic1 = wav.channels[0];
  s.audio.mic2 = wav.channels[1];
  s.imu = io::read_imu_csv(imu_path);
  // App-native prior: the user is the origin, facing the beacon.
  s.prior.phone_start_position = {0.0, 0.0, 1.3};
  s.prior.believed_yaw = 0.0;
  s.prior.two_statures = args.has("3d");
  s.config.phone = phone_from(args);
  const std::unique_ptr<CliObs> obs = make_obs(args);
  const auto outcome = core::try_localize(
      s, {}, nullptr, obs != nullptr ? &obs->context : nullptr);
  const int code = print_fix(outcome);
  if (obs != nullptr && !obs->write()) return 1;
  return code;
}

int cmd_demo(const Args& args) {
  Rng rng(args.get_count("seed", 7));
  sim::ScenarioConfig c = config_from(args);
  const sim::Session s = sim::make_localization_session(c, rng);
  const std::unique_ptr<CliObs> obs = make_obs(args);
  const auto outcome = core::try_localize(
      s, {}, nullptr, obs != nullptr ? &obs->context : nullptr);
  const int code = print_fix(outcome);
  if (obs != nullptr) obs->write();
  if (code == 0) {
    std::printf("     truth (%.3f, %.3f) -> error %.1f cm\n",
                s.truth.speaker_position.x, s.truth.speaker_position.y,
                100.0 * core::localization_error(*outcome, s));
  }
  return code;
}

int cmd_serve(const Args& args) {
  Rng rng(args.get_count("seed", 11));
  const std::size_t requests = args.get_count("requests", 10);
  runtime::ServerOptions opts;
  opts.shards = args.get_count("shards", 2);
  opts.threads_per_shard = args.get_count("threads", 2);
  opts.max_in_flight = args.get_count("in-flight", 4);
  opts.max_queued = args.get_count("queue", 8);

  // A small mixed-traffic pool: quiet ruler, chatting hand-held, and a
  // mall session on a second chirp band so both shard plan keys see work.
  std::vector<sim::Session> pool;
  {
    sim::ScenarioConfig quiet;
    quiet.speaker_distance = 4.0;
    quiet.slides_per_stature = 3;
    quiet.calibration_duration = 3.0;
    quiet.jitter = sim::ruler_jitter();
    sim::ScenarioConfig chatting = quiet;
    chatting.environment = sim::meeting_room_chatting();
    chatting.jitter = sim::hand_jitter();
    sim::ScenarioConfig mall = quiet;
    mall.environment = sim::mall_off_peak();
    mall.speaker.chirp.freq_high_hz = 5800.0;  // hashes to the odd shard
    for (const sim::ScenarioConfig& c : {quiet, chatting, mall}) {
      pool.push_back(sim::make_localization_session(c, rng));
    }
  }

  const std::unique_ptr<CliObs> obs = make_obs(args);
  runtime::Server server({}, opts,
                         obs != nullptr
                             ? runtime::EngineObs{obs->registry, obs->tracer}
                             : runtime::EngineObs{});
  std::printf("serving: %zu shard(s) x %zu thread(s), %zu in flight, queue %zu\n",
              server.shard_count(), opts.threads_per_shard, opts.max_in_flight,
              opts.max_queued);

  std::vector<std::future<runtime::Response>> futures;
  for (std::size_t i = 0; i < requests; ++i) {
    const sim::Session& session = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const runtime::RequestClass cls = rng.uniform_int(0, 9) < 3
                                          ? runtime::RequestClass::streaming
                                          : runtime::RequestClass::batch;
    runtime::SubmitResult r = server.submit(session, cls);
    std::printf("submit %2llu [%-9s] -> %s (shard %zu)\n",
                static_cast<unsigned long long>(r.id), runtime::to_string(cls),
                runtime::to_string(r.admission), server.shard_for(session));
    if (r.admission == runtime::Admission::accepted) {
      futures.push_back(std::move(r.response));
    }
  }
  server.drain();

  for (std::future<runtime::Response>& f : futures) {
    const runtime::Response r = f.get();
    if (r.outcome == runtime::RequestOutcome::completed) {
      std::printf("request %2llu: completed on shard %zu in %7.1f ms -> %s\n",
                  static_cast<unsigned long long>(r.id), r.shard, r.latency_ms,
                  runtime::to_string(r.report.status));
    } else {
      std::printf("request %2llu: %s\n",
                  static_cast<unsigned long long>(r.id),
                  runtime::to_string(r.outcome));
    }
  }

  const runtime::ServerStats s = server.stats();
  std::printf("totals: %zu submitted, %zu completed, %zu shed, %zu expired, "
              "%zu cancelled (peak queue %zu, peak in flight %zu)\n",
              s.submitted, s.completed, s.shed, s.expired, s.cancelled,
              s.peak_queued, s.peak_in_flight);
  server.shutdown();
  if (obs != nullptr && !obs->write()) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: hyperear_cli simulate|localize|demo|serve [--flags]\n");
    return 2;
  }
  struct Command {
    const char* name;
    int (*run)(const Args&);
    FlagSpec flags;
  };
  const Command commands[] = {
      {"simulate", cmd_simulate,
       {{"out-prefix", "distance", "phone", "env", "seed"}, {"hand", "3d"}}},
      {"localize", cmd_localize, {{"wav", "imu", "phone", "metrics-out"}, {"3d"}}},
      {"demo", cmd_demo,
       {{"distance", "phone", "env", "seed", "metrics-out"}, {"hand", "3d"}}},
      {"serve", cmd_serve,
       {{"requests", "shards", "threads", "in-flight", "queue", "seed", "metrics-out"},
        {}}},
  };
  const std::string cmd = argv[1];
  try {
    for (const Command& c : commands) {
      if (cmd == c.name) return c.run(Args::parse(argc, argv, 2, c.flags));
    }
  } catch (const UsageError& e) {
    std::printf("usage error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  std::printf("unknown command '%s'\n", cmd.c_str());
  return 2;
}
