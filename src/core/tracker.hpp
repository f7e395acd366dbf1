#pragma once

#include "core/error_model.hpp"
#include "geom/vec2.hpp"

/// @file tracker.hpp
/// Multi-session fusion for guided search.
///
/// The paper's use case ends with the user walking toward the object; on
/// the way they can re-run the slide protocol from closer positions, where
/// fixes are far more accurate (Figs. 15-16). The tracker fuses the
/// sequence of fixes of a STATIC beacon by inverse-variance weighting,
/// with each fix's variance supplied by the analytic error budget, so
/// early, far, noisy fixes are not allowed to drag down late, close,
/// accurate ones.

namespace hyperear::core {

/// Recursive inverse-variance fusion of 2D fixes of a static beacon.
class BeaconTracker {
 public:
  /// Fold in one fix with the given (isotropic) 1-sigma uncertainty in
  /// meters. Requires sigma > 0.
  void update(const geom::Vec2& fix, double sigma);

  /// Fused beacon position. Requires at least one update.
  [[nodiscard]] geom::Vec2 estimate() const;
  /// 1-sigma radius of the fused estimate. Requires at least one update.
  [[nodiscard]] double uncertainty() const;
  [[nodiscard]] int fixes() const { return fixes_; }

 private:
  double sum_x_ = 0.0;
  double sum_y_ = 0.0;
  double weight_ = 0.0;
  int fixes_ = 0;
};

/// A reasonable per-fix sigma for the tracker, derived from the analytic
/// error budget at the ESTIMATED range of that fix. `hand_held` selects
/// looser displacement/rotation noise than the ruler.
[[nodiscard]] double fix_sigma(double range, bool hand_held,
                               const ErrorBudgetInput& base = {});

/// Walking guidance toward the current estimate: bearing (radians, from
/// +x) and distance from the user's position.
struct Guidance {
  double bearing_rad = 0.0;
  double distance = 0.0;
};
[[nodiscard]] Guidance guide_toward(const geom::Vec2& user, const geom::Vec2& target);

}  // namespace hyperear::core
