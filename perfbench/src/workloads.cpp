#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "alloc.hpp"
#include "common/rng.hpp"
#include "core/session_workspace.hpp"
#include "core/streaming_session.hpp"

namespace perfbench {
namespace {

using hyperear::Rng;

Clock::time_point after_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// `count` arrival times (ms) over `seconds`: Poisson arrivals conditioned
/// on their count, drawn per one-second slot — each slot gets its share of
/// the count, placed as sorted uniforms. Burstiness inside a slot is that
/// of a Poisson process; the count offered per slot does not vary with the
/// seed, which keeps run-to-run spread of the latency tail down.
std::vector<double> stratified_arrivals(std::size_t count, double seconds, Rng& rng) {
  std::vector<double> times;
  times.reserve(count);
  const auto slots = static_cast<std::size_t>(std::ceil(seconds));
  for (std::size_t k = 0; k < slots; ++k) {
    const double lo = static_cast<double>(k);
    const double hi = std::min(seconds, lo + 1.0);
    const std::size_t upto = static_cast<std::size_t>(
        std::llround(static_cast<double>(count) * hi / seconds));
    while (times.size() < upto) times.push_back(1000.0 * (lo + rng.uniform() * (hi - lo)));
  }
  std::sort(times.begin(), times.end());
  return times;
}

/// `count` pool indices in seeded permutation cycles, so every session is
/// used equally often (up to one partial cycle) whatever the seed.
std::vector<std::size_t> balanced_order(std::size_t pool_size, std::size_t count, Rng& rng) {
  std::vector<std::size_t> perm(pool_size);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::vector<std::size_t> order;
  order.reserve(count + pool_size);
  while (order.size() < count) {
    for (std::size_t i = pool_size; i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(perm[i - 1], perm[j]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }
  order.resize(count);
  return order;
}

/// Classify a finished session against its reference and record the
/// accuracy of the session it ran.
Outcome judge(PhaseSamples& s, const PoolEntry& e, bool errored,
              const hyperear::core::LocalizationResult& result) {
  if (errored) return Outcome::error;
  if (!e.reference || !same_fix(result, *e.reference)) return Outcome::mismatch;
  s.error_cm_by_entry[e.index] = result.valid ? fix_error_cm(result, e.session) : -1.0;
  return result.valid ? Outcome::fix : Outcome::no_fix;
}

void record_stages(PhaseSamples& s, const hyperear::core::StageMetrics& m,
                   const sim::Session& session, bool used_3d) {
  ++s.staged;
  s.asp_ms.push_back(m.asp_ms);
  s.msp_ms.push_back(m.msp_ms);
  (used_3d ? s.ple_ms : s.ttl_ms).push_back(m.solve_ms);
  s.asp_ms_total += m.asp_ms;
  s.asp_samples_total += static_cast<double>(session.audio.mic1.size());
  s.chirps += m.chirps_mic1 + m.chirps_mic2;
  if (m.sfo_estimated) ++s.sfo_estimated;
  s.slides_segmented += static_cast<std::size_t>(std::max(0, m.slides_segmented));
  s.slides_accepted += static_cast<std::size_t>(std::max(0, m.slides_accepted));
}

/// Everything one resolved request contributes. `due_ms` / `return_ms` are
/// the request's due time and the return of its submit call, on the phase
/// clock.
void record_response(PhaseSamples& s, const PoolEntry& e, const runtime::Response& r,
                     double due_ms, double return_ms) {
  if (r.outcome == runtime::RequestOutcome::expired) {
    s.tally.add(Outcome::expired);
    return;
  }
  if (r.outcome == runtime::RequestOutcome::cancelled) {
    s.tally.add(Outcome::cancelled);
    return;
  }
  const runtime::SessionReport& rep = r.report;
  const bool errored = rep.status == runtime::SessionStatus::error;
  const Outcome o = judge(s, e, errored, rep.result);
  s.tally.add(o);
  if (errored) return;
  record_stages(s, rep.metrics, e.session, rep.result.used_3d());
  if (is_failure(o)) return;
  s.fix_latency_ms.push_back(latency_from_due_ms(due_ms, return_ms, r.latency_ms));
  s.queue_wait_ms.push_back(std::max(0.0, r.latency_ms - rep.wall_ms));
  s.service_ms.push_back(rep.wall_ms);
  s.overhead_ms.push_back(rep.wall_ms - rep.metrics.asp_ms - rep.metrics.msp_ms -
                          rep.metrics.solve_ms);
}

/// The session a StreamingSession is opened with: everything but the audio.
sim::Session stream_meta(const sim::Session& full) {
  sim::Session meta;
  meta.imu = full.imu;
  meta.truth = full.truth;
  meta.prior = full.prior;
  meta.config = full.config;
  meta.audio.sample_rate = full.audio.sample_rate;
  return meta;
}

struct PhaseClock {
  Clock::time_point t0;
  double cpu0 = 0.0;
  std::size_t alloc0 = 0;

  static PhaseClock start(Clock::time_point at) {
    return {at, process_cpu_s(), heap_allocated_bytes()};
  }
  void stop(PhaseSamples& s) const {
    s.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    s.cpu_s = process_cpu_s() - cpu0;
    s.alloc_bytes = heap_allocated_bytes() - alloc0;
  }
};

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void PhaseSamples::merge(const PhaseSamples& o) {
  for (std::size_t i = 0; i < kOutcomeCount; ++i) tally.by_outcome[i] += o.tally.by_outcome[i];
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(fix_latency_ms, o.fix_latency_ms);
  cat(push_latency_ms, o.push_latency_ms);
  error_cm_by_entry.insert(o.error_cm_by_entry.begin(), o.error_cm_by_entry.end());
  cat(asp_ms, o.asp_ms);
  cat(msp_ms, o.msp_ms);
  cat(ttl_ms, o.ttl_ms);
  cat(ple_ms, o.ple_ms);
  asp_ms_total += o.asp_ms_total;
  asp_samples_total += o.asp_samples_total;
  staged += o.staged;
  chirps += o.chirps;
  sfo_estimated += o.sfo_estimated;
  slides_segmented += o.slides_segmented;
  slides_accepted += o.slides_accepted;
  cat(submit_us, o.submit_us);
  cat(queue_wait_ms, o.queue_wait_ms);
  cat(service_ms, o.service_ms);
  cat(overhead_ms, o.overhead_ms);
  cat(lateness_ms, o.lateness_ms);
  cat(push_call_ms, o.push_call_ms);
  cat(finalize_ms, o.finalize_ms);
  cat(event_lag_ms, o.event_lag_ms);
  pushes += o.pushes;
  detect_pushes += o.detect_pushes;
  peak_retained_samples = std::max(peak_retained_samples, o.peak_retained_samples);
}

// ---------------------------------------------------------------- spans

void SpanLog::add(const char* name, std::uint64_t session, Clock::time_point start,
                  Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = next_id_++;
  s.session = session;
  s.name = name;
  s.start_ms = ms_between(epoch_, start);
  s.end_ms = ms_between(epoch_, end);
  spans_.push_back(std::move(s));
}

void SpanLog::import(const obs::Tracer& tracer, Clock::time_point tracer_epoch) {
  // Where each library root span hangs, by name: the server's request span
  // under the benchmark's request span, a pipeline session under the
  // server's request (engine runs) or the benchmark's finalize span
  // (streams). Library spans are stamped on the tracer's clock, whose
  // epoch is within a clock read of `tracer_epoch`.
  static const std::vector<std::pair<std::string, std::vector<std::string>>> kParents = {
      {"server.request", {"request"}},
      {"session", {"server.request", "stream.finalize"}},
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t base = next_id_;
  const double offset = ms_between(epoch_, tracer_epoch);
  std::uint64_t max_id = 0;
  const std::size_t first_imported = spans_.size();
  for (const obs::SpanRecord& rec : tracer.snapshot()) {
    Span s;
    s.id = base + rec.id;
    s.parent = rec.parent == 0 ? 0 : base + rec.parent;
    s.session = rec.session;
    s.name = rec.name;
    s.start_ms = offset + rec.start_ms;
    s.end_ms = s.start_ms + rec.duration_ms;
    max_id = std::max(max_id, rec.id);
    spans_.push_back(std::move(s));
  }
  next_id_ = base + max_id + 1;
  std::unordered_map<std::string, std::uint64_t> by_key;  // "<name>#<session>" -> id
  const auto key = [](const std::string& name, std::uint64_t session) {
    return name + "#" + std::to_string(session);
  };
  for (const Span& s : spans_) by_key.emplace(key(s.name, s.session), s.id);
  for (std::size_t i = first_imported; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.parent != 0) continue;
    for (const auto& [child, parents] : kParents) {
      if (s.name != child) continue;
      for (const std::string& p : parents) {
        const auto it = by_key.find(key(p, s.session));
        if (it != by_key.end()) {
          s.parent = it->second;
          break;
        }
      }
    }
  }
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

// ---------------------------------------------------------------- set-up

System setup(const std::string& workload, const Pool& pool, std::size_t threads,
             bool traced) {
  System sys;
  if (workload == "stream_live") {
    // One context shared by every live session, warmed by streaming one
    // pool session through it at the live cadence.
    const PoolEntry& e = pool.entries[pool.first_of_plan.front()];
    const sim::Session& s = e.session;
    sys.context = std::make_shared<const hyperear::core::PipelineContext>(
        hyperear::core::PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
    hyperear::core::StreamingSession warm(stream_meta(s), {}, sys.context);
    const auto chunk = static_cast<std::size_t>(kPushSeconds * s.audio.sample_rate);
    const std::span<const double> m1(s.audio.mic1);
    const std::span<const double> m2(s.audio.mic2);
    for (std::size_t i = 0; i < m1.size(); i += chunk) {
      const std::size_t n = std::min(chunk, m1.size() - i);
      warm.push(m1.subspan(i, n), m2.subspan(i, n));
    }
    (void)warm.finalize();
    return sys;
  }
  runtime::ServerOptions opts;
  opts.shards = 1;
  opts.threads_per_shard = threads;
  opts.max_in_flight = threads;
  // Closed loop: never more than `threads` outstanding. Open loop: deep
  // enough that the fixed offered rate never sheds.
  opts.max_queued = workload == "serve_open" ? 256 : threads;
  opts.streaming_chunk_samples =
      static_cast<std::size_t>(kPushSeconds * pool.entries.front().session.audio.sample_rate);
  runtime::EngineObs eo;
  if (traced) {
    sys.tracer = std::make_shared<obs::Tracer>();
    sys.tracer_epoch = Clock::now();
    eo.tracer = sys.tracer;
  }
  sys.server = std::make_unique<runtime::Server>(hyperear::core::PipelineConfig{}, opts, eo);
  std::vector<std::future<runtime::Response>> warm;
  for (const std::size_t i : pool.first_of_plan) {
    runtime::SubmitResult r = sys.server->submit(pool.entries[i].session);
    if (r.admission == runtime::Admission::accepted) warm.push_back(std::move(r.response));
  }
  for (auto& f : warm) (void)f.get();
  return sys;
}

// ---------------------------------------------------------------- batch_closed

PhaseSamples run_batch_closed(const Pool& pool, runtime::Server& server,
                              const PhaseOptions& opt) {
  // Closed loop: `threads` callers, each waiting for its reply before it
  // sends the next request. The due time of a request is when it is sent.
  Rng rng(opt.seed);
  const std::vector<std::size_t> order = balanced_order(pool.entries.size(), 1 << 14, rng);
  std::atomic<std::size_t> next{0};
  std::vector<PhaseSamples> per_thread(opt.threads);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = after_ms(t0, opt.seconds * 1000.0);
  const PhaseClock clock = PhaseClock::start(t0);
  const auto caller = [&](std::size_t t) {
    PhaseSamples& s = per_thread[t];
    while (Clock::now() < end) {
      const PoolEntry& e = pool.entries[order[next.fetch_add(1) % order.size()]];
      const Clock::time_point sent = Clock::now();
      runtime::SubmitResult r = server.submit(e.session);
      const Clock::time_point returned = Clock::now();
      const double call_ms = ms_between(sent, returned);
      s.submit_us.push_back(call_ms * 1000.0);
      if (r.admission != runtime::Admission::accepted) {
        s.tally.add(Outcome::shed);
        continue;
      }
      const runtime::Response resp = r.response.get();
      record_response(s, e, resp, 0.0, call_ms);
      if (opt.spans != nullptr) {
        opt.spans->add("request", resp.id, sent, after_ms(returned, resp.latency_ms));
      }
    }
  };
  std::vector<std::thread> callers;
  for (std::size_t t = 1; t < opt.threads; ++t) callers.emplace_back(caller, t);
  caller(0);
  for (std::thread& th : callers) th.join();
  PhaseSamples out;
  clock.stop(out);
  for (const PhaseSamples& s : per_thread) out.merge(s);
  return out;
}

// ---------------------------------------------------------------- serve_open

PhaseSamples run_serve_open(const Pool& pool, runtime::Server& server,
                            const PhaseOptions& opt) {
  // Open loop: one generator sends on a fixed schedule whatever the
  // server does — Poisson arrivals at kServeOpenRate in total, every fifth
  // of them a zero-gap burst rider on the arrival before it.
  Rng rng(opt.seed);
  const auto total = static_cast<std::size_t>(std::llround(kServeOpenRate * opt.seconds));
  const std::vector<double> base = stratified_arrivals(total - total / 5, opt.seconds, rng);
  std::vector<double> due;
  due.reserve(total);
  for (std::size_t i = 0; i < base.size(); ++i) {
    due.push_back(base[i]);
    if (i % 4 == 3 && due.size() < total) due.push_back(base[i]);
  }
  const std::vector<std::size_t> order = balanced_order(pool.entries.size(), due.size(), rng);
  std::vector<runtime::RequestClass> cls(due.size());
  for (auto& c : cls) {
    c = rng.uniform() < kServeOpenStreamingShare ? runtime::RequestClass::streaming
                                                 : runtime::RequestClass::batch;
  }

  struct Sent {
    std::future<runtime::Response> response;
    std::size_t entry = 0;
    double due_ms = 0.0;
    double return_ms = 0.0;
  };
  std::vector<Sent> sent;
  sent.reserve(due.size());
  PhaseSamples s;
  const Clock::time_point t0 = after_ms(Clock::now(), 20.0);
  std::this_thread::sleep_until(t0);
  const PhaseClock clock = PhaseClock::start(t0);
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(after_ms(t0, due[i]));
    const PoolEntry& e = pool.entries[order[i]];
    const Clock::time_point called = Clock::now();
    runtime::SubmitResult r = server.submit(e.session, cls[i]);
    const Clock::time_point returned = Clock::now();
    s.lateness_ms.push_back(std::max(0.0, ms_between(t0, called) - due[i]));
    s.submit_us.push_back(ms_between(called, returned) * 1000.0);
    const double return_ms = ms_between(t0, returned);
    if (r.admission != runtime::Admission::accepted) {
      s.tally.add(Outcome::shed);
      continue;
    }
    sent.push_back({std::move(r.response), order[i], due[i], return_ms});
  }
  server.drain();
  clock.stop(s);
  for (Sent& x : sent) {
    const runtime::Response resp = x.response.get();
    record_response(s, pool.entries[x.entry], resp, x.due_ms, x.return_ms);
    if (opt.spans != nullptr) {
      opt.spans->add("request", resp.id, after_ms(t0, x.due_ms),
                     after_ms(t0, x.return_ms + resp.latency_ms));
    }
  }
  return s;
}

// ---------------------------------------------------------------- stream_live

namespace {

/// One live phone: a pool recording replayed in real time from `start_ms`
/// (phase clock; negative for phones already mid-recording at t0).
struct LivePhone {
  const PoolEntry* entry = nullptr;
  std::uint64_t id = 0;
  double start_ms = 0.0;
  std::size_t chunk = 0;       ///< samples per push
  std::size_t next = 0;        ///< index of the next chunk to push
  std::size_t chunks = 0;
  std::size_t events_seen = 0;
  hyperear::core::SessionWorkspace* workspace = nullptr;
  std::unique_ptr<hyperear::core::StreamingSession> stream;

  [[nodiscard]] double due_ms(std::size_t k) const {
    const std::size_t n = entry->session.audio.mic1.size();
    const std::size_t end = std::min(n, (k + 1) * chunk);
    return start_ms + 1000.0 * static_cast<double>(end) / entry->session.audio.sample_rate;
  }
};

/// Workspaces recycled across phones (one per open session), as the
/// runtime's WorkspacePool does for engine workers.
class WorkspaceShelf {
 public:
  hyperear::core::SessionWorkspace* take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      owned_.push_back(std::make_unique<hyperear::core::SessionWorkspace>());
      return owned_.back().get();
    }
    hyperear::core::SessionWorkspace* ws = free_.back();
    free_.pop_back();
    return ws;
  }
  void give(hyperear::core::SessionWorkspace* ws) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(ws);
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<hyperear::core::SessionWorkspace>> owned_;
  std::vector<hyperear::core::SessionWorkspace*> free_;
};

}  // namespace

PhaseSamples run_stream_live(
    const Pool& pool, const std::shared_ptr<const hyperear::core::PipelineContext>& context,
    const PhaseOptions& opt) {
  namespace core = hyperear::core;
  Rng rng(opt.seed);
  double mean_s = 0.0;
  for (const PoolEntry& e : pool.entries) {
    mean_s += static_cast<double>(e.session.audio.mic1.size()) / e.session.audio.sample_rate;
  }
  mean_s /= static_cast<double>(pool.entries.size());
  // Little's law: kLiveSessions open at once needs this start rate. The
  // phase opens already in steady state — kLiveSessions phones part-way
  // through their recordings (primed below, untimed) — and new phones
  // start on the same Poisson schedule as serve_open's arrivals.
  const double rate = static_cast<double>(kLiveSessions) / mean_s;
  const auto arrivals = static_cast<std::size_t>(std::llround(rate * opt.seconds));
  const std::vector<std::size_t> order =
      balanced_order(pool.entries.size(), kLiveSessions + arrivals, rng);
  std::vector<LivePhone> phones(order.size());
  const std::vector<double> starts = stratified_arrivals(arrivals, opt.seconds, rng);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    LivePhone& p = phones[i];
    p.entry = &pool.entries[order[i]];
    p.id = i + 1;
    const sim::Session& s = p.entry->session;
    p.chunk = static_cast<std::size_t>(kPushSeconds * s.audio.sample_rate);
    p.chunks = (s.audio.mic1.size() + p.chunk - 1) / p.chunk;
    const double duration_ms = 1000.0 * static_cast<double>(s.audio.mic1.size()) /
                               s.audio.sample_rate;
    p.start_ms = i < kLiveSessions ? -rng.uniform() * duration_ms : starts[i - kLiveSessions];
  }

  WorkspaceShelf shelf;
  const core::PipelineConfig config;
  const auto open = [&](LivePhone& p) {
    p.workspace = shelf.take();
    p.stream = std::make_unique<core::StreamingSession>(stream_meta(p.entry->session), config,
                                                        context, p.workspace);
  };
  const auto push_chunk = [](LivePhone& p) {
    const sim::Session& s = p.entry->session;
    const std::size_t from = p.next * p.chunk;
    const std::size_t n = std::min(p.chunk, s.audio.mic1.size() - from);
    p.stream->push(std::span<const double>(s.audio.mic1).subspan(from, n),
                   std::span<const double>(s.audio.mic2).subspan(from, n));
    ++p.next;
  };

  // Prime the phones that are mid-recording at t0: everything due before
  // t0 is pushed now, as fast as possible, and not measured.
  parallel_for(kLiveSessions, opt.threads, [&](std::size_t i) {
    LivePhone& p = phones[i];
    open(p);
    while (p.next < p.chunks && p.due_ms(p.next) <= 0.0) push_chunk(p);
    p.events_seen = p.stream->events().size();
  });

  struct Due {
    double ms;
    std::size_t phone;
    bool operator>(const Due& o) const { return ms > o.ms || (ms == o.ms && phone > o.phone); }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> heap;
  for (std::size_t i = 0; i < phones.size(); ++i) heap.push({phones[i].due_ms(phones[i].next), i});
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<PhaseSamples> per_thread(opt.threads);
  const double end_ms = opt.seconds * 1000.0;
  const Clock::time_point t0 = after_ms(Clock::now(), 20.0);
  const PhaseClock clock = PhaseClock::start(t0);

  // One push (and, after the last chunk, the finalize) of one phone. Only
  // the driver thread that popped the phone's due entry touches it.
  const auto serve = [&](PhaseSamples& s, LivePhone& p, double due) {
    if (!p.stream) open(p);
    const sim::Session& session = p.entry->session;
    const bool last = p.next + 1 == p.chunks;
    const std::size_t retained_before = p.stream->retained_samples();
    const Clock::time_point called = Clock::now();
    bool errored = false;
    try {
      push_chunk(p);
    } catch (const std::exception&) {
      errored = true;
    }
    const Clock::time_point returned = Clock::now();
    ++s.pushes;
    s.lateness_ms.push_back(std::max(0.0, ms_between(t0, called) - due));
    s.push_latency_ms.push_back(std::max(0.0, ms_between(t0, returned) - due));
    s.push_call_ms.push_back(ms_between(called, returned));
    if (opt.spans != nullptr) opt.spans->add("stream.push", p.id, called, returned);
    if (!errored) {
      if (p.stream->retained_samples() < retained_before) ++s.detect_pushes;
      const auto& events = p.stream->events();
      const double heard_ms =
          1000.0 * static_cast<double>(p.stream->samples_ingested()) / session.audio.sample_rate;
      for (; p.events_seen < events.size(); ++p.events_seen) {
        const core::StreamEvent& ev = events[p.events_seen];
        if (ev.kind == core::StreamEvent::Kind::beacon_acquired ||
            ev.kind == core::StreamEvent::Kind::sdf_zero_cross) {
          s.event_lag_ms.push_back(heard_ms - 1000.0 * ev.time_s);
        }
      }
    }
    if (!last && !errored) return;
    core::StageMetrics metrics;
    core::LocalizationResult result;
    std::optional<obs::Tracer> tracer;
    Clock::time_point tracer_epoch{};
    obs::ObsContext traced{nullptr, nullptr, p.id};
    if (opt.spans != nullptr) {
      tracer.emplace();
      tracer_epoch = Clock::now();
      traced.tracer = &*tracer;
    }
    const Clock::time_point f0 = Clock::now();
    if (!errored) {
      try {
        auto fixed = p.stream->finalize(&metrics, tracer ? &traced : nullptr);
        if (fixed.has_value()) {
          result = *std::move(fixed);
        } else {
          errored = true;
        }
      } catch (const std::exception&) {
        errored = true;
      }
    }
    const Clock::time_point f1 = Clock::now();
    const Outcome o = judge(s, *p.entry, errored, result);
    s.tally.add(o);
    if (!errored) {
      record_stages(s, metrics, session, result.used_3d());
      s.peak_retained_samples = std::max(s.peak_retained_samples, p.stream->peak_retained_samples());
    }
    if (!is_failure(o)) {
      s.fix_latency_ms.push_back(std::max(0.0, ms_between(t0, f1) - due));
      s.finalize_ms.push_back(ms_between(f0, f1));
    }
    if (tracer) {
      opt.spans->add("stream.finalize", p.id, f0, f1);
      opt.spans->import(*tracer, tracer_epoch);
    }
    p.stream.reset();
    shelf.give(p.workspace);
    p.next = p.chunks;
  };

  const auto driver = [&](std::size_t t) {
    PhaseSamples& s = per_thread[t];
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (heap.empty() || heap.top().ms > end_ms) return;
      const Due top = heap.top();
      const Clock::time_point at = after_ms(t0, top.ms);
      if (Clock::now() < at) {
        cv.wait_until(lock, at);
        continue;
      }
      heap.pop();
      lock.unlock();
      LivePhone& p = phones[top.phone];
      serve(s, p, top.ms);
      lock.lock();
      if (p.next < p.chunks) {
        heap.push({p.due_ms(p.next), top.phone});
        cv.notify_one();
      }
    }
  };
  std::this_thread::sleep_until(t0);
  std::vector<std::thread> drivers;
  for (std::size_t t = 1; t < opt.threads; ++t) drivers.emplace_back(driver, t);
  driver(0);
  for (std::thread& th : drivers) th.join();
  PhaseSamples out;
  clock.stop(out);
  for (const PhaseSamples& s : per_thread) out.merge(s);
  // Phones still mid-recording at the end are abandoned, not attempted.
  for (LivePhone& p : phones) {
    if (p.stream) {
      p.stream.reset();
      shelf.give(p.workspace);
    }
  }
  return out;
}

}  // namespace perfbench
