#pragma once

#include <cstdint>

#include "core/asp.hpp"
#include "dsp/chirp.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/ols.hpp"

/// @file pipeline_context.hpp
/// The shared DSP plan cache of the localization pipeline.
///
/// Every quantity the ASP stage derives from the *configuration* alone —
/// the sampled matched-filter reference, the reversed reference's
/// overlap-save spectrum and the FFT twiddle/plan tables behind it — is
/// independent of the session being processed. A `PipelineContext`
/// computes them once for a given (AspOptions, ChirpParams, sample rate)
/// triple; `core::try_localize` and `asp::preprocess_audio` accept an
/// optional context and fall back to building a session-local one when
/// none (or an incompatible one) is supplied, so single-session callers
/// keep working unchanged.
///
/// Threading rules: a constructed context is deeply immutable — every
/// accessor is const and the underlying detector/plan state is read-only —
/// so one instance may be shared by any number of concurrent pipeline
/// runs without synchronization. `runtime::Engine` owns a small cache
/// of contexts (keyed by chirp parameters + sample rate) shared read-only
/// by all of its workers. Results are bit-identical with and without a
/// context: the context merely reuses the plans the planless path would
/// rebuild per session.

namespace hyperear::core {

struct PipelineConfig;

/// Immutable, shareable DSP plans for one (asp options, chirp, sample
/// rate) combination. Construction validates the inputs the same way the
/// per-session path does (throws PreconditionError on violations).
/// Deterministic 64-bit key of the (asp options, chirp, sample rate)
/// combination a context is built from — the shard/lookup key of
/// runtime::ContextCache. Pure function of the field values (FNV-1a over
/// their bit patterns), identical across runs and processes; equal inputs
/// hash equal, and `PipelineContext::matches` remains the authoritative
/// equality check behind any hash match.
[[nodiscard]] std::uint64_t plan_key_hash(const AspOptions& asp,
                                          const dsp::ChirpParams& chirp,
                                          double sample_rate);

class PipelineContext {
 public:
  PipelineContext(const AspOptions& asp, const dsp::ChirpParams& chirp,
                  double sample_rate);
  /// Convenience spelling: plans depend only on `config.asp`.
  PipelineContext(const PipelineConfig& config, const dsp::ChirpParams& chirp,
                  double sample_rate);

  /// True when the cached plans are exactly the ones this combination
  /// needs — the compatibility check callers use before reusing a context.
  [[nodiscard]] bool matches(const AspOptions& asp, const dsp::ChirpParams& chirp,
                             double sample_rate) const;

  [[nodiscard]] const AspOptions& asp_options() const { return asp_; }
  [[nodiscard]] const dsp::ChirpParams& chirp_params() const { return chirp_params_; }
  [[nodiscard]] double sample_rate() const { return sample_rate_; }
  [[nodiscard]] const dsp::Chirp& chirp() const { return chirp_; }
  /// Overlap-save convolver for a 255-tap band-pass over the chirp band
  /// +- 200 Hz. No pipeline stage reads it: it exists only for perfbench's
  /// probe, which still times an `asp.bandpass` row through it, until that
  /// row is retired. Never null.
  [[nodiscard]] const dsp::OlsConvolver* bandpass_convolver() const {
    return &bandpass_ols_;
  }
  /// Matched-filter detector with the reference spectrum and FFT plans
  /// precomputed; `detect` is const and safe to call concurrently.
  [[nodiscard]] const dsp::MatchedFilterDetector& detector() const {
    return detector_;
  }

 private:
  AspOptions asp_;
  dsp::ChirpParams chirp_params_;
  double sample_rate_;
  dsp::Chirp chirp_;
  dsp::OlsConvolver bandpass_ols_;
  dsp::MatchedFilterDetector detector_;
};

}  // namespace hyperear::core
