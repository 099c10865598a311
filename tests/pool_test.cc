#include "fleet/pool.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "kalman/kalman_filter.h"
#include "kalman/model.h"
#include "linalg/decomp.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "streams/generators.h"
#include "streams/reading.h"
#include "suppression/policies.h"

namespace kc {
namespace {

// ------------------------------------------------------------------ Helpers

/// A valid model of any state dimension n (observing component 0): lets
/// the equivalence suite literally cover every dim 1..8 rather than only
/// the dims the named factories provide.
StateSpaceModel MakeDimModel(size_t n) {
  StateSpaceModel model;
  model.f = Matrix::Identity(n);
  for (size_t i = 0; i + 1 < n; ++i) model.f(i, i + 1) = 0.01;
  model.q = Matrix::ScalarDiagonal(n, 0.01);
  model.h = Matrix(1, n);
  model.h(0, 0) = 1.0;
  model.r = Matrix{{0.04}};
  return model;
}

/// A valid model with state dim n and obs dim m, shaped to reach every
/// zero-skip branch of the measurement update. For n >= 2 the last state
/// is isolated in F and unobserved, so its P cross terms and its row of
/// the gain K stay exactly zero; H mixes 1.0-ish, 0.5, +0.0 and -0.0
/// entries, and repeats observed states when m > n.
StateSpaceModel MakeDimsModel(size_t n, size_t m) {
  const size_t observed = n >= 2 ? n - 1 : 1;
  StateSpaceModel model;
  model.f = Matrix::Identity(n);
  for (size_t i = 0; i + 1 < observed; ++i) model.f(i, i + 1) = 0.1;
  model.q = Matrix::ScalarDiagonal(n, 0.01);
  model.h = Matrix(m, n);
  for (size_t r = 0; r < m; ++r) {
    model.h(r, r % observed) = 1.0 + 0.25 * static_cast<double>(r);
    if (observed > 1) {
      model.h(r, (r + 1) % observed) = r % 2 == 0 ? -0.0 : 0.5;
    }
  }
  model.r = Matrix(m, m);
  for (size_t r = 0; r < m; ++r) {
    model.r(r, r) = 0.04 + 0.01 * static_cast<double>(r);
    if (r + 1 < m) {
      model.r(r, r + 1) = 0.005;
      model.r(r + 1, r) = 0.005;
    }
  }
  return model;
}

/// Deterministic reading stream shared by both predictors under test.
class ReadingStream {
 public:
  explicit ReadingStream(size_t dims, uint64_t seed)
      : dims_(dims), state_(seed | 1) {}

  Reading Next() {
    Reading r;
    r.seq = seq_++;
    r.time = static_cast<double>(r.seq);
    r.value = Vector(dims_);
    for (size_t d = 0; d < dims_; ++d) {
      r.value[d] = 2.0 * Uniform() - 1.0 + 0.05 * static_cast<double>(r.seq);
    }
    return r;
  }

 private:
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0);
  }

  size_t dims_;
  uint64_t state_;
  int64_t seq_ = 0;
};

void ExpectBitEqual(const Vector& a, const Vector& b, const char* what,
                    int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "] @" << tick;
  }
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what, int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "] @" << tick;
  }
}

/// Bit-pattern equality: unlike ==, tells -0.0 from 0.0. Any two NaNs
/// count as equal (which NaN an operation propagates is not part of the
/// contract).
void ExpectSameBits(const double* a, const double* b, size_t n,
                    const char* what, int tick) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << "[" << i << "] @" << tick << ": " << a[i] << " vs "
        << b[i];
  }
}

void ExpectSameBits(const Vector& a, const Vector& b, const char* what,
                    int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  ExpectSameBits(a.data().data(), b.data().data(), a.size(), what, tick);
}

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what,
                    int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  ExpectSameBits(a.data(), b.data(), a.size(), what, tick);
}

/// Drives a per-object KalmanPredictor and a pooled equivalent through an
/// identical history — predicts, gated observations (accepts, rejects, and
/// forced-accept runs), corrections, full syncs, and re-Inits — and
/// asserts every externally visible value is bit-identical at every tick.
/// With `expect_forced`, also asserts that the gate forced an accept at
/// least once, equally often on both paths.
void DriveEquivalence(const KalmanPredictor::Config& config, int ticks,
                      uint64_t seed, bool expect_forced = false) {
  KalmanPredictor object(config);
  FilterPoolSet pools;
  PooledKalmanPredictor pooled(config, &pools);
  obs::MetricRegistry object_metrics;
  obs::MetricRegistry pooled_metrics;
  if (expect_forced) {
    object.BindMetrics(&object_metrics);
    pooled.BindMetrics(&pooled_metrics);
  }
  size_t m = config.model.obs_dim();
  ReadingStream stream(m, seed);

  Reading first = stream.Next();
  object.Init(first);
  pooled.Init(first);

  for (int t = 1; t <= ticks; ++t) {
    object.Tick();
    pooled.Tick();

    Reading r = stream.Next();
    if (t % 17 == 0 || (t >= 100 && t < 100 + 2 * config.outlier_gate_limit)) {
      // Isolated outliers exercise the reject branch; the sustained run
      // around t=100 exhausts outlier_gate_limit and forces an accept.
      r.value[0] += 50.0;
    }
    object.ObserveLocal(r);
    pooled.ObserveLocal(r);

    ExpectBitEqual(object.Predict(), pooled.Predict(), "Predict", t);
    ExpectBitEqual(object.Target(), pooled.Target(), "Target", t);
    EXPECT_EQ(object.LastNis(), pooled.LastNis()) << "NIS @" << t;
    EXPECT_EQ(object.OutliersRejected(), pooled.OutliersRejected())
        << "rejects @" << t;

    if (t % 7 == 0) {
      std::vector<double> pa = object.EncodeCorrection(r);
      std::vector<double> pb = pooled.EncodeCorrection(r);
      ExpectBitEqual(pa, pb, "EncodeCorrection", t);
      ASSERT_TRUE(object.ApplyCorrection(r.seq, r.time, pa).ok());
      ASSERT_TRUE(pooled.ApplyCorrection(r.seq, r.time, pa).ok());
    }
    if (t % 23 == 0) {
      std::vector<double> fa = object.EncodeFullState();
      std::vector<double> fb = pooled.EncodeFullState();
      ExpectBitEqual(fa, fb, "EncodeFullState", t);
      ASSERT_TRUE(object.ApplyFullState(fa).ok());
      ASSERT_TRUE(pooled.ApplyFullState(fa).ok());
    }
    if (t % 71 == 0) {
      // Re-Init (the agent's re-anchor path): slots are reused in place.
      object.Init(r);
      pooled.Init(r);
    }
  }
  if (config.sync_mode != KalmanPredictor::SyncMode::kMeasurement) {
    // The outlier gate protects the state-sync modes only; in measurement
    // sync every reading flows into the filter.
    EXPECT_GT(object.OutliersRejected(), 0) << "gate never fired";
  }
  if (expect_forced) {
    const char* kForced = "kc.kalman.gate_forced_accepts";
    EXPECT_GT(object_metrics.GetCounter(kForced)->value(), 0);
    EXPECT_EQ(object_metrics.GetCounter(kForced)->value(),
              pooled_metrics.GetCounter(kForced)->value());
  }
}

KalmanPredictor::Config GatedConfig(StateSpaceModel model) {
  KalmanPredictor::Config config;
  config.model = std::move(model);
  config.outlier_gate_prob = 0.99;
  config.outlier_gate_limit = 3;
  return config;
}

// ------------------------------------------------- Equivalence, dims 1..8

TEST(PoolEquivalenceTest, BitIdenticalAcrossStateDims1To8) {
  for (size_t n = 1; n <= 8; ++n) {
    SCOPED_TRACE(n);
    DriveEquivalence(GatedConfig(MakeDimModel(n)), /*ticks=*/160,
                     /*seed=*/0x9E3779B9u * n);
  }
}

TEST(PoolEquivalenceTest, BitIdenticalOverWholeEnvelopeBothForms) {
  // Every (state_dim, obs_dim) in 1..8 x 1..8 — obs_dim > state_dim
  // included — in both update forms, through gate accepts, rejects and
  // forced accepts.
  for (size_t n = 1; n <= FilterPool::kMaxDim; ++n) {
    for (size_t m = 1; m <= FilterPool::kMaxDim; ++m) {
      for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                        KalmanFilter::UpdateForm::kStandard}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m
                                        << " form=" << static_cast<int>(form));
        KalmanPredictor::Config config = GatedConfig(MakeDimsModel(n, m));
        config.update_form = form;
        DriveEquivalence(config, /*ticks=*/120, /*seed=*/31 * n + m,
                         /*expect_forced=*/true);
      }
    }
  }
}

TEST(PoolEquivalenceTest, BitIdenticalAcrossNamedModels) {
  std::vector<StateSpaceModel> models;
  models.push_back(MakeRandomWalkModel(0.1, 0.25));
  models.push_back(MakeConstantVelocityModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantAccelerationModel(0.1, 0.5, 0.25));
  models.push_back(MakeHarmonicModel(0.8, 0.1, 0.05, 0.25));
  models.push_back(MakeConstantVelocity2DModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantAcceleration2DModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantJerk2DModel(0.1, 0.5, 0.25));
  for (size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE(i);
    DriveEquivalence(GatedConfig(models[i]), /*ticks=*/160,
                     /*seed=*/0x2545F491u + i);
  }
}

TEST(PoolEquivalenceTest, BitIdenticalAcrossSyncModesAndForms) {
  for (auto mode : {KalmanPredictor::SyncMode::kState,
                    KalmanPredictor::SyncMode::kStateAndCov,
                    KalmanPredictor::SyncMode::kMeasurement}) {
    for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                      KalmanFilter::UpdateForm::kStandard}) {
      SCOPED_TRACE(static_cast<int>(mode) * 10 + static_cast<int>(form));
      KalmanPredictor::Config config = GatedConfig(MakeDimModel(3));
      config.sync_mode = mode;
      config.update_form = form;
      DriveEquivalence(config, /*ticks=*/120, /*seed=*/77);
    }
  }
}

TEST(PoolEquivalenceTest, BatchedSweepMatchesLazyCatchUp) {
  // One pooled predictor is driven purely by PredictSlotUpTo (standalone
  // mode); the other's pool is swept by PredictAll before every tick (the
  // fleet's batched mode). Identical inputs must yield identical state.
  KalmanPredictor::Config config = GatedConfig(MakeDimModel(4));
  FilterPoolSet lazy_pools;
  FilterPoolSet swept_pools;
  PooledKalmanPredictor lazy(config, &lazy_pools);
  PooledKalmanPredictor swept(config, &swept_pools);
  ReadingStream stream(1, 0xABCDEF);
  Reading first = stream.Next();
  lazy.Init(first);
  swept.Init(first);
  for (int t = 1; t <= 100; ++t) {
    swept_pools.PredictAll();  // The shard's batched sweep.
    lazy.Tick();
    swept.Tick();
    Reading r = stream.Next();
    lazy.ObserveLocal(r);
    swept.ObserveLocal(r);
    ExpectBitEqual(lazy.Predict(), swept.Predict(), "Predict", t);
    ExpectBitEqual(lazy.Target(), swept.Target(), "Target", t);
    ExpectBitEqual(lazy.EncodeFullState(), swept.EncodeFullState(), "full", t);
  }
}

// ------------------------------------------------------- Batched kernels

TEST(FilterPoolTest, SweepMatchesPerSlotPredict) {
  // A pool advanced by the batched sweep and one advanced slot by slot
  // must then gate and update to identical bits.
  StateSpaceModel model = MakeDimModel(3);
  FilterPool a(model, KalmanFilter::UpdateForm::kJoseph);
  FilterPool b(model, KalmanFilter::UpdateForm::kJoseph);
  constexpr int kSlots = 5;
  std::vector<int32_t> slots_a, slots_b;
  ReadingStream stream(1, 42);
  for (int i = 0; i < kSlots; ++i) {
    slots_a.push_back(a.Acquire(i));
    slots_b.push_back(b.Acquire(i));
    Reading r = stream.Next();
    Vector x0 = model.h.Transposed() * r.value;
    Matrix p0 = Matrix::ScalarDiagonal(3, 100.0);
    a.ResetSlot(slots_a.back(), x0, p0);
    b.ResetSlot(slots_b.back(), x0, p0);
  }
  std::vector<Vector> zs;
  for (int i = 0; i < kSlots; ++i) zs.push_back(stream.Next().value);

  EXPECT_EQ(a.PredictAll(), static_cast<size_t>(kSlots));
  for (int32_t s : slots_b) b.PredictSlot(s);

  for (int i = 0; i < kSlots; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.GateSlot(slots_a[i], zs[i]), b.GateSlot(slots_b[i], zs[i]));
    ASSERT_TRUE(a.UpdateSlot(slots_a[i], zs[i]).ok());
    ASSERT_TRUE(b.UpdateSlot(slots_b[i], zs[i]).ok());
    ExpectBitEqual(a.StateOf(slots_a[i]), b.StateOf(slots_b[i]), "x", i);
    ExpectBitEqual(a.SerializeSlot(slots_a[i]), b.SerializeSlot(slots_b[i]),
                   "xP", i);
    EXPECT_EQ(a.LastNisOf(slots_a[i]), b.LastNisOf(slots_b[i]));
  }
}

TEST(FilterPoolTest, PoolMatchesKalmanFilterExactly) {
  // The pool's per-slot kernels against the reference KalmanFilter
  // itself, not just the predictor wrapper.
  StateSpaceModel model = MakeConstantVelocityModel(0.1, 0.5, 0.25);
  for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                    KalmanFilter::UpdateForm::kStandard}) {
    Vector x0({1.0, -0.5});
    Matrix p0 = Matrix::ScalarDiagonal(2, 100.0);
    KalmanFilter filter(model, x0, p0, form);
    FilterPool pool(model, form);
    int32_t slot = pool.Acquire(0);
    pool.ResetSlot(slot, x0, p0);
    ReadingStream stream(1, 7);
    for (int t = 0; t < 100; ++t) {
      filter.Predict();
      pool.PredictSlot(slot);
      if (t % 3 == 0) {
        Vector z = stream.Next().value;
        ASSERT_TRUE(filter.Update(z).ok());
        ASSERT_TRUE(pool.UpdateSlot(slot, z).ok());
        EXPECT_EQ(filter.last_nis(), pool.LastNisOf(slot)) << t;
      }
      ExpectBitEqual(filter.state(), pool.StateOf(slot), "x", t);
      ExpectBitEqual(filter.SerializeState(), pool.SerializeSlot(slot), "xP",
                     t);
    }
  }
}

/// NIS of z against `filter` exactly as KalmanPredictor's gate computes
/// it, or -1.0 when S does not factor (FilterPool::GateSlot's contract).
double ReferenceGate(KalmanFilter& filter, const Vector& z) {
  Vector nu = z - filter.PredictObservation();
  Matrix s;
  filter.InnovationCovarianceInto(&s);
  Matrix l;
  if (!Cholesky::FactorInto(s, &l)) return -1.0;
  Vector sinv_nu;
  Cholesky::SolveInto(l, nu, &sinv_nu);
  return nu.Dot(sinv_nu);
}

TEST(FilterPoolTest, FixedKernelsMatchKalmanFilterOverWholeEnvelope) {
  // Every (state_dim, obs_dim) the pool accepts, including obs_dim >
  // state_dim, in both update forms: predicted observation, gate NIS,
  // updated x and P, and update NIS must match the per-object filter bit
  // for bit (signed zeros included). x0 and P0 carry -0.0 entries, and
  // MakeDimsModel keeps zeros in H, P and K. A skipped `av == 0.0` term
  // differs from an added one only when its other factor is infinite or
  // NaN, so the run ends with an infinite variance on the isolated state,
  // which every zero-skip must keep out of the observed states.
  for (size_t n = 1; n <= FilterPool::kMaxDim; ++n) {
    for (size_t m = 1; m <= FilterPool::kMaxDim; ++m) {
      for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                        KalmanFilter::UpdateForm::kStandard}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m
                                        << " form=" << static_cast<int>(form));
        StateSpaceModel model = MakeDimsModel(n, m);
        Vector x0(n);
        Matrix p0 = Matrix::ScalarDiagonal(n, 4.0);
        for (size_t i = 0; i < n; ++i) {
          x0[i] = i % 2 == 0 ? -0.5 * static_cast<double>(i) : -0.0;
          for (size_t j = 0; j < n; ++j) {
            if (i != j) p0(i, j) = -0.0;
          }
        }
        KalmanFilter filter(model, x0, p0, form);
        FilterPool pool(model, form);
        pool.Acquire(0);  // A neighbour in the same block.
        int32_t slot = pool.Acquire(1);
        pool.ResetSlot(slot, x0, p0);
        ExpectSameBits(filter.PredictObservation(),
                       pool.PredictObservationOf(slot), "Hx0", 0);
        ReadingStream stream(m, 1000 * n + m);
        for (int t = 0; t < 24; ++t) {
          filter.Predict();
          pool.PredictSlot(slot);
          Vector z = stream.Next().value;
          if (t % 5 == 4) z[0] += 40.0;  // Far outside the gate.
          ExpectSameBits(filter.PredictObservation(),
                         pool.PredictObservationOf(slot), "Hx", t);
          double gate = pool.GateSlot(slot, z);
          EXPECT_GE(gate, 0.0);
          EXPECT_EQ(std::bit_cast<uint64_t>(ReferenceGate(filter, z)),
                    std::bit_cast<uint64_t>(gate))
              << "gate @" << t;
          ASSERT_TRUE(filter.Update(z).ok());
          ASSERT_TRUE(pool.UpdateSlot(slot, z).ok());
          EXPECT_EQ(std::bit_cast<uint64_t>(filter.last_nis()),
                    std::bit_cast<uint64_t>(pool.LastNisOf(slot)))
              << "nis @" << t;
          ExpectSameBits(filter.SerializeState(), pool.SerializeSlot(slot),
                         "xP", t);
        }
        if (n >= 2) {
          // The isolated, unobserved last state kept its zero cross terms.
          EXPECT_EQ(pool.CovarianceOf(slot)(n - 1, 0), 0.0);
          std::vector<double> state = filter.SerializeState();
          state[n + n * n - 1] = std::numeric_limits<double>::infinity();
          ASSERT_TRUE(filter.DeserializeState(state).ok());
          ASSERT_TRUE(pool.DeserializeSlot(slot, state).ok());
          Vector z = stream.Next().value;
          double want_gate = ReferenceGate(filter, z);
          double gate = pool.GateSlot(slot, z);
          ExpectSameBits(&want_gate, &gate, 1, "gate, infinite variance", 0);
          EXPECT_EQ(filter.Update(z).code(), pool.UpdateSlot(slot, z).code());
          double want_nis = filter.last_nis();
          double nis = pool.LastNisOf(slot);
          ExpectSameBits(&want_nis, &nis, 1, "nis, infinite variance", 0);
          ExpectSameBits(filter.SerializeState(), pool.SerializeSlot(slot),
                         "xP, infinite variance", 0);
        }
      }
    }
  }
}

TEST(FilterPoolTest, FailedUpdateLeavesSlotUntouched) {
  // A covariance that makes S = H P H^T + R indefinite (or NaN) fails the
  // Cholesky factorization: UpdateSlot reports it exactly as
  // KalmanFilter::Update does and leaves x, P and the last NIS as they
  // were; GateSlot reports the inconclusive gate as -1.
  for (size_t n : {size_t{1}, size_t{3}, FilterPool::kMaxDim}) {
    for (size_t m : {size_t{1}, size_t{2}, FilterPool::kMaxDim}) {
      for (double bad : {-100.0, std::nan("")}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m
                                        << " bad=" << bad);
        StateSpaceModel model = MakeDimsModel(n, m);
        Vector x0(n);
        for (size_t i = 0; i < n; ++i) x0[i] = 1.0 + static_cast<double>(i);
        Matrix p0 = Matrix::ScalarDiagonal(n, 1.0);
        KalmanFilter filter(model, x0, p0);
        FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
        int32_t slot = pool.Acquire(0);
        pool.ResetSlot(slot, x0, p0);
        Vector z(m);
        z[0] = 2.0;
        ASSERT_TRUE(filter.Update(z).ok());
        ASSERT_TRUE(pool.UpdateSlot(slot, z).ok());
        const double nis = pool.LastNisOf(slot);
        ASSERT_GT(nis, 0.0);

        // Swap in the bad covariance without touching the NIS.
        std::vector<double> bad_state = pool.SerializeSlot(slot);
        for (size_t i = 0; i < n; ++i) bad_state[n + i * n + i] = bad;
        ASSERT_TRUE(filter.DeserializeState(bad_state).ok());
        ASSERT_TRUE(pool.DeserializeSlot(slot, bad_state).ok());
        std::vector<double> before = pool.SerializeSlot(slot);

        Status want = filter.Update(z);
        Status got = pool.UpdateSlot(slot, z);
        EXPECT_FALSE(want.ok());
        EXPECT_EQ(want.code(), got.code());
        ExpectSameBits(before, pool.SerializeSlot(slot), "untouched xP", 0);
        EXPECT_EQ(pool.LastNisOf(slot), nis);
        EXPECT_EQ(pool.GateSlot(slot, z), -1.0);
        EXPECT_EQ(ReferenceGate(filter, z), -1.0);
      }
    }
  }
}

// ------------------------------------------------------- Slot lifecycle

TEST(FilterPoolTest, ReleaseZeroesSlotForReuse) {
  StateSpaceModel model = MakeDimModel(2);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  int32_t slot = pool.Acquire(/*owner_id=*/11);
  pool.ResetSlot(slot, Vector({3.0, 4.0}), Matrix::ScalarDiagonal(2, 9.0));
  pool.PredictSlot(slot);
  ASSERT_TRUE(pool.UpdateSlot(slot, Vector({2.5})).ok());
  EXPECT_NE(pool.StateOf(slot)[0], 0.0);

  pool.Release(slot);
  EXPECT_EQ(pool.num_active(), 0u);

  // The min-heap free list hands back the lowest-indexed free slot — here
  // the one just released — and it must be fully clean.
  int32_t again = pool.Acquire(/*owner_id=*/12);
  EXPECT_EQ(again, slot);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pool.StateOf(again)[i], 0.0) << i;
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(pool.CovarianceOf(again)(i, j), 0.0) << i << "," << j;
    }
  }
  EXPECT_EQ(pool.PredictEpochOf(again), 0);
  EXPECT_EQ(pool.LastNisOf(again), 0.0);
  EXPECT_EQ(pool.OwnerOf(again), 12);
}

TEST(FilterPoolTest, PredictAllSkipsFreedSlots) {
  StateSpaceModel model = MakeDimModel(1);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  int32_t s0 = pool.Acquire(0);
  int32_t s1 = pool.Acquire(1);
  int32_t s2 = pool.Acquire(2);
  for (int32_t s : {s0, s1, s2}) {
    pool.ResetSlot(s, Vector({1.0}), Matrix::ScalarDiagonal(1, 4.0));
  }
  pool.Release(s1);
  EXPECT_EQ(pool.PredictAll(), 2u);
  EXPECT_EQ(pool.PredictEpochOf(s0), 1);
  EXPECT_EQ(pool.PredictEpochOf(s2), 1);
  EXPECT_FALSE(pool.IsActive(s1));
}

TEST(FilterPoolTest, FreeListReusesLowestIndexFirst) {
  // The free list is a min-heap, not a LIFO stack: after releasing slots
  // in arbitrary order, Acquire hands them back lowest-index-first so
  // long-lived pools re-densify toward the front of the slabs instead of
  // churning whatever happened to be freed last.
  StateSpaceModel model = MakeDimModel(1);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  for (int32_t i = 0; i < 8; ++i) ASSERT_EQ(pool.Acquire(i), i);
  // Release out of order: 6, 1, 4, 2.
  for (int32_t s : {6, 1, 4, 2}) pool.Release(s);
  EXPECT_EQ(pool.Acquire(100), 1);
  EXPECT_EQ(pool.Acquire(101), 2);
  EXPECT_EQ(pool.Acquire(102), 4);
  EXPECT_EQ(pool.Acquire(103), 6);
  // Heap exhausted: the next Acquire extends the pool.
  EXPECT_EQ(pool.Acquire(104), 8);
}

TEST(FilterPoolTest, FragmentedPoolSweepsBitIdenticalToDense) {
  // The superlinear-falloff fix pin: a pool with 50% of its slots
  // released (every other slot, maximal fragmentation) must sweep its
  // survivors to bit-identical states as a dense pool holding only those
  // survivors. Freed lanes are masked out of the batched kernels, never
  // fed into them — fragmentation may change speed but not one bit of
  // filter state.
  const size_t kDim = 3;
  const size_t kSlots = 22;  // Partial final block in the fragmented pool.
  StateSpaceModel model = MakeDimModel(kDim);
  Matrix p0 = Matrix::ScalarDiagonal(kDim, 25.0);
  auto x0_of = [&](size_t i) {
    Vector x0(kDim);
    for (size_t e = 0; e < kDim; ++e) {
      x0[e] = 0.1 * static_cast<double>(i) + 0.01 * static_cast<double>(e);
    }
    return x0;
  };

  FilterPool fragmented(model, KalmanFilter::UpdateForm::kJoseph);
  for (size_t i = 0; i < kSlots; ++i) {
    int32_t s = fragmented.Acquire(static_cast<int32_t>(i));
    fragmented.ResetSlot(s, x0_of(i), p0);
  }
  for (size_t i = 1; i < kSlots; i += 2) {
    fragmented.Release(static_cast<int32_t>(i));
  }

  FilterPool dense(model, KalmanFilter::UpdateForm::kJoseph);
  std::vector<int32_t> dense_slot(kSlots, FilterPool::kNoSlot);
  for (size_t i = 0; i < kSlots; i += 2) {
    dense_slot[i] = dense.Acquire(static_cast<int32_t>(i));
    dense.ResetSlot(dense_slot[i], x0_of(i), p0);
  }

  const size_t survivors = (kSlots + 1) / 2;
  for (int sweep = 0; sweep < 10; ++sweep) {
    ASSERT_EQ(fragmented.PredictAll(), survivors);
    ASSERT_EQ(dense.PredictAll(), survivors);
    for (size_t i = 0; i < kSlots; i += 2) {
      ExpectBitEqual(fragmented.SerializeSlot(static_cast<int32_t>(i)),
                     dense.SerializeSlot(dense_slot[i]), "xP", sweep);
    }
  }
}

TEST(FilterPoolTest, IdReuseAfterUnregisterSeesNoStaleState) {
  // The PR 1 TickArchive id-reuse regression, now at the pool layer: a
  // source id that is unregistered and re-registered must behave exactly
  // like a never-before-seen source, even though the pool hands its
  // replica the same physical slot.
  constexpr int32_t kId = 7;
  auto run_replica_value = [&](bool reuse_first) -> std::vector<double> {
    ShardedServer server(4);
    size_t shard = server.ShardOf(kId);
    KalmanPredictor::Config config = GatedConfig(MakeDimModel(2));
    if (reuse_first) {
      // First tenancy: init, tick, correct — then unregister, leaving a
      // dirty (now zeroed) slot behind.
      EXPECT_TRUE(server
                      .RegisterSource(
                          kId, std::make_unique<PooledKalmanPredictor>(
                                   config, server.shard_pools(shard)))
                      .ok());
      Message init;
      init.source_id = kId;
      init.type = MessageType::kInit;
      init.seq = 0;
      init.wire_seq = 0;
      init.payload = {0.5, 123.0};  // delta, value.
      EXPECT_TRUE(server.OnMessage(init).ok());
      for (int t = 0; t < 5; ++t) server.Tick();
      EXPECT_TRUE(server.UnregisterSource(kId).ok());
    }
    EXPECT_TRUE(
        server
            .RegisterSource(kId, std::make_unique<PooledKalmanPredictor>(
                                     config, server.shard_pools(shard)))
            .ok());
    Message init;
    init.source_id = kId;
    init.type = MessageType::kInit;
    init.seq = 0;
    init.wire_seq = 0;
    init.payload = {0.5, -4.0};  // delta, value.
    EXPECT_TRUE(server.OnMessage(init).ok());
    for (int t = 0; t < 8; ++t) server.Tick();
    auto answer = server.SourceValue(kId);
    EXPECT_TRUE(answer.ok());
    std::vector<double> out;
    if (answer.ok()) {
      for (size_t i = 0; i < answer->value.size(); ++i) {
        out.push_back(answer->value[i]);
      }
      out.push_back(answer->bound);
    }
    return out;
  };
  std::vector<double> fresh = run_replica_value(/*reuse_first=*/false);
  std::vector<double> reused = run_replica_value(/*reuse_first=*/true);
  ExpectBitEqual(fresh, reused, "replica value after id reuse", 0);
}

// ------------------------------------------------ Faults-on fleet replay

TEST(PoolEquivalenceTest, RecoveryReplayMatchesPerObjectPath) {
  // Lossy channel + loss-tolerant recovery: gaps, quarantines, resync
  // requests, full syncs, and re-INITs all replay through the pooled path
  // bit-identically to the per-object path.
  auto run = [](bool pooling) {
    ShardedFleet::Config config;
    config.seed = 4242;
    config.threads = 2;
    config.num_shards = 4;
    config.pooling = pooling;
    config.channel.loss_prob = 0.25;
    config.channel.latency_ticks = 2;
    config.control_channel.loss_prob = 0.1;
    config.recovery.enabled = true;
    config.recovery.suspect_after_silent_ticks = 12;
    config.agent_base.heartbeat_every = 8;
    ShardedFleet fleet(config);
    for (int i = 0; i < 10; ++i) {
      RandomWalkGenerator::Config walk;
      walk.start = 3.0 * i;
      walk.step_sigma = 0.3;
      fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                      std::make_unique<KalmanPredictor>(
                          GatedConfig(MakeRandomWalkModel(0.1, 0.25))),
                      /*delta=*/0.5);
    }
    EXPECT_TRUE(fleet.Run(400).ok());
    std::vector<double> fingerprint;
    for (int32_t id = 0; id < 10; ++id) {
      auto answer = fleet.server().SourceValue(id);
      fingerprint.push_back(answer.ok() ? answer->value[0] : -1e9);
      fingerprint.push_back(answer.ok() ? answer->bound : -1e9);
      fingerprint.push_back(
          static_cast<double>(fleet.server().IsDesynced(id) ? 1 : 0));
    }
    NetworkStats net = fleet.TotalNetworkStats();
    fingerprint.push_back(static_cast<double>(net.messages_sent));
    fingerprint.push_back(static_cast<double>(net.messages_dropped));
    fingerprint.push_back(static_cast<double>(net.bytes_delivered));
    EXPECT_GT(net.messages_dropped, 0);
    return fingerprint;
  };
  std::vector<double> pooled = run(/*pooling=*/true);
  std::vector<double> object = run(/*pooling=*/false);
  ExpectBitEqual(pooled, object, "recovery replay", 0);
}

// --------------------------------------------------------------- Factory

TEST(PoolFactoryTest, PoolsOnlyEligiblePredictors) {
  FilterPoolSet pools;
  KalmanPredictor plain(GatedConfig(MakeDimModel(2)));
  EXPECT_NE(MakePooledPredictor(plain, &pools), nullptr);

  KalmanPredictor::Config adaptive_config = GatedConfig(MakeDimModel(2));
  adaptive_config.adaptive = AdaptiveConfig{};
  KalmanPredictor adaptive(adaptive_config);
  EXPECT_EQ(MakePooledPredictor(adaptive, &pools), nullptr)
      << "adaptive configs mutate the model and must stay per-object";

  ValueCachePredictor value_cache;
  EXPECT_EQ(MakePooledPredictor(value_cache, &pools), nullptr)
      << "non-Kalman predictors stay on the virtual path";
}

TEST(PoolFactoryTest, PoolsShareByModelAndForm) {
  FilterPoolSet pools;
  StateSpaceModel m1 = MakeDimModel(2);
  StateSpaceModel m2 = MakeDimModel(3);
  FilterPool* a = pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph);
  FilterPool* b = pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph);
  FilterPool* c = pools.PoolFor(m1, KalmanFilter::UpdateForm::kStandard);
  FilterPool* d = pools.PoolFor(m2, KalmanFilter::UpdateForm::kJoseph);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(pools.num_pools(), 3u);
}

}  // namespace
}  // namespace kc
