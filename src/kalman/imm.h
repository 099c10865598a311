#ifndef KALMANCAST_KALMAN_IMM_H_
#define KALMANCAST_KALMAN_IMM_H_

#include <vector>

#include "common/status.h"
#include "kalman/kalman_filter.h"

namespace kc {

/// Interacting Multiple Model estimator.
///
/// Rather than hard-switching to the best-scoring filter, the IMM
/// soft-mixes a bank of filters that share one state space (e.g. a quiet
/// low-Q model and a maneuvering high-Q model) according to a Markov
/// mode-transition matrix. This is the classical answer to streams that
/// alternate between behavioural modes faster than a switching heuristic
/// can follow. All steps are deterministic, so IMM replicas stay in
/// lockstep under the suppression protocol just like single filters.
class Imm {
 public:
  /// `filters`: bank members; all must share state_dim and obs_dim.
  /// `transition(i, j)`: P(mode j at k+1 | mode i at k); rows must sum
  /// to 1. `initial_prob`: prior mode probabilities (sums to 1).
  Imm(std::vector<KalmanFilter> filters, Matrix transition,
      Vector initial_prob);

  /// Validates the configuration (called by the constructor; exposed for
  /// tests).
  Status Validate() const;

  /// IMM step 1+2: mode mixing, then per-filter time update.
  void Predict();

  /// IMM step 3+4: per-filter measurement update, then mode-probability
  /// update from the filters' likelihoods.
  Status Update(const Vector& z);

  /// Probability-weighted combined state estimate.
  Vector CombinedState() const;
  /// Combined covariance (includes spread-of-means term).
  Matrix CombinedCovariance() const;
  /// Combined predicted observation H x for the (shared) H of filter 0.
  Vector PredictObservation() const;

  const Vector& mode_probabilities() const { return mu_; }
  size_t size() const { return filters_.size(); }
  const KalmanFilter& filter(size_t i) const { return filters_[i]; }
  /// Index of the currently most probable mode.
  size_t MostLikelyMode() const;

  /// Flattens the full estimator state — mode probabilities followed by
  /// each member filter's (x, P) — for replica synchronization under the
  /// suppression protocol. Size = k + k*(n + n^2).
  std::vector<double> SerializeState() const;

  /// Restores SerializeState() output (shape-checked).
  Status DeserializeState(const std::vector<double>& buf);

  /// Reinitializes every member filter and the mode probabilities.
  void ResetAll(const Vector& x0, const Matrix& p0, Vector initial_prob);

 private:
  std::vector<KalmanFilter> filters_;
  Matrix transition_;
  Vector mu_;  ///< Current mode probabilities.

  // Persistent mixing buffers (sized once at construction) so steady-state
  // Predict() performs zero heap allocations.
  std::vector<Vector> mixed_x_;  ///< Mixed initial states, one per mode.
  std::vector<Matrix> mixed_p_;  ///< Mixed initial covariances, one per mode.
};

}  // namespace kc

#endif  // KALMANCAST_KALMAN_IMM_H_
