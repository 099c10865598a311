#include "fleet/pool.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

#include "common/chisq.h"
#include "linalg/fixed_kernels.h"
#include "obs/metrics.h"

namespace kc {

// ------------------------------------------------ Per-slot measurement path

namespace {

constexpr size_t kLanes = FilterPool::kLanes;

// One slot's view of the AoSoA slabs: x element e at x_lane[e * kLanes],
// P entry i (row-major) at p_lane[i * kLanes] (see FilterPool's class
// comment). The kernels gather onto the stack, compute, and scatter.
template <size_t N>
void GatherSlot(const double* x_lane, const double* p_lane, double* x,
                double* p) {
  for (size_t e = 0; e < N; ++e) x[e] = x_lane[e * kLanes];
  for (size_t i = 0; i < N * N; ++i) p[i] = p_lane[i * kLanes];
}

// The innovation nu = z - H x and the Cholesky factor l of
// S = H P H^T + R (symmetrized), as KalmanFilter::Update and
// KalmanPredictor's gate compute them. False if S is not PD.
template <size_t N, size_t M>
bool FactorInnovation(const double* h, const double* r, const double* x,
                      const double* p, const double* z, double* nu,
                      double* l) {
  fixed::MultiplyVec<M, N>(h, x, nu);  // hx
  for (size_t i = 0; i < M; ++i) nu[i] = z[i] - nu[i];
  double hp[M * N], s[M * M];
  fixed::Multiply<M, N, N>(h, p, hp);
  fixed::MultiplyTransposed<M, N, M>(hp, h, s);
  for (size_t i = 0; i < M * M; ++i) s[i] += r[i];
  fixed::Symmetrize<M>(s);
  return fixed::CholeskyFactor<M>(s, l);
}

// NIS = nu' S^{-1} nu through the factor of S.
template <size_t M>
double Nis(const double* l, const double* nu) {
  double sinv_nu[M];
  for (size_t i = 0; i < M; ++i) sinv_nu[i] = nu[i];
  fixed::CholeskySolve<M>(l, sinv_nu);
  double dot = 0.0;
  for (size_t i = 0; i < M; ++i) dot += nu[i] * sinv_nu[i];
  return dot;
}

// KalmanFilter::Update for state dim N, obs dim M: the same kernel
// sequence (linalg/kernels.h -> linalg/fixed_kernels.h twins), minus the
// log-likelihood diagnostic nothing pooled reads. Scatters back only on
// success, so a failed update (S not PD) leaves the slot untouched.
template <size_t N, size_t M>
bool UpdateKernel(const double* h, const double* r, bool joseph,
                  double* x_lane, double* p_lane, const double* z,
                  double* nis) {
  double x[N], p[N * N], nu[M], l[M * M];
  GatherSlot<N>(x_lane, p_lane, x, p);
  if (!FactorInnovation<N, M>(h, r, x, p, z, nu, l)) return false;

  // Gain K = P H^T S^{-1}, computed as solve(S, H P)^T to stay factored.
  double ph_t[N * M], kt[M * N], k[N * M];
  fixed::MultiplyTransposed<N, N, M>(p, h, ph_t);
  fixed::Transpose<N, M>(ph_t, kt);
  fixed::CholeskySolveCols<M, N>(l, kt);
  fixed::Transpose<M, N>(kt, k);

  double knu[N];
  fixed::MultiplyVec<N, M>(k, nu, knu);
  for (size_t i = 0; i < N; ++i) x[i] += knu[i];

  double i_kh[N * N], j1[N * N];
  fixed::Multiply<N, M, N>(k, h, i_kh);  // kh
  for (size_t row = 0; row < N; ++row) {
    for (size_t c = 0; c < N; ++c) {
      i_kh[row * N + c] = (row == c ? 1.0 : 0.0) - i_kh[row * N + c];
    }
  }
  if (joseph) {
    double tmp[N * N], kr[N * M], krk[N * N];
    fixed::Multiply<N, N, N>(i_kh, p, tmp);
    fixed::MultiplyTransposed<N, N, N>(tmp, i_kh, j1);
    fixed::Multiply<N, M, M>(k, r, kr);
    fixed::MultiplyTransposed<N, M, N>(kr, k, krk);
    for (size_t i = 0; i < N * N; ++i) p[i] = j1[i] + krk[i];
  } else {
    fixed::Multiply<N, N, N>(i_kh, p, j1);
    for (size_t i = 0; i < N * N; ++i) p[i] = j1[i];
  }
  fixed::Symmetrize<N>(p);
  *nis = Nis<M>(l, nu);

  for (size_t e = 0; e < N; ++e) x_lane[e * kLanes] = x[e];
  for (size_t i = 0; i < N * N; ++i) p_lane[i * kLanes] = p[i];
  return true;
}

// KalmanPredictor's innovation gate: NIS of z, or -1.0 if S does not
// factor. Read-only.
template <size_t N, size_t M>
double GateKernel(const double* h, const double* r, const double* x_lane,
                  const double* p_lane, const double* z) {
  double x[N], p[N * N], nu[M], l[M * M];
  GatherSlot<N>(x_lane, p_lane, x, p);
  if (!FactorInnovation<N, M>(h, r, x, p, z, nu, l)) return -1.0;
  return Nis<M>(l, nu);
}

// KalmanFilter::PredictObservation: out = H x.
template <size_t N, size_t M>
void ObserveKernel(const double* h, const double* x_lane, double* out) {
  double x[N];
  for (size_t e = 0; e < N; ++e) x[e] = x_lane[e * kLanes];
  fixed::MultiplyVec<M, N>(h, x, out);
}

}  // namespace

/// The fixed-dimension kernels for one (state_dim, obs_dim).
struct FilterPool::SlotKernels {
  bool (*update)(const double* h, const double* r, bool joseph,
                 double* x_lane, double* p_lane, const double* z,
                 double* nis);
  double (*gate)(const double* h, const double* r, const double* x_lane,
                 const double* p_lane, const double* z);
  void (*observe)(const double* h, const double* x_lane, double* out);
};

namespace {

constexpr size_t kMaxDim = FilterPool::kMaxDim;

// Entry (n - 1) * kMaxDim + (m - 1) holds the (n, m) instantiations.
template <size_t... I>
constexpr std::array<FilterPool::SlotKernels, sizeof...(I)> MakeKernelTable(
    std::index_sequence<I...>) {
  return {{FilterPool::SlotKernels{
      &UpdateKernel<I / kMaxDim + 1, I % kMaxDim + 1>,
      &GateKernel<I / kMaxDim + 1, I % kMaxDim + 1>,
      &ObserveKernel<I / kMaxDim + 1, I % kMaxDim + 1>}...}};
}

constexpr auto kSlotKernelTable =
    MakeKernelTable(std::make_index_sequence<kMaxDim * kMaxDim>());

}  // namespace

// ---------------------------------------------------------------- FilterPool

FilterPool::FilterPool(StateSpaceModel model, KalmanFilter::UpdateForm form)
    : model_(std::move(model)),
      form_(form),
      dim_(model_.state_dim()),
      simd_fn_(batch::SimdPredictFn(dim_)),
      portable_fn_(batch::PortablePredictFn(dim_)) {
  assert(model_.Validate().ok());
  assert(dim_ >= 1 && dim_ <= kMaxDim);
  assert(model_.obs_dim() >= 1 && model_.obs_dim() <= kMaxDim);
  slot_kernels_ =
      &kSlotKernelTable[(dim_ - 1) * kMaxDim + (model_.obs_dim() - 1)];
}

bool FilterPool::Matches(const StateSpaceModel& model,
                         KalmanFilter::UpdateForm form) const {
  return form == form_ && model.f == model_.f && model.q == model_.q &&
         model.h == model_.h && model.r == model_.r;
}

void FilterPool::GrowBlock() {
  xs_.resize(xs_.size() + dim_ * kLanes, 0.0);
  ps_.resize(ps_.size() + dim_ * dim_ * kLanes, 0.0);
  block_mask_.push_back(0);
  owner_.resize(owner_.size() + kLanes, kNoSlot);
  epoch_base_.resize(epoch_base_.size() + kLanes, 0);
  last_nis_.resize(last_nis_.size() + kLanes, 0.0);
}

int32_t FilterPool::Acquire(int32_t owner_id) {
  int32_t slot;
  if (!free_.empty()) {
    // Min-heap pop: always reuse the lowest-indexed freed slot, keeping
    // active slots packed toward the front of the slabs (slab locality
    // for the sweep) regardless of release order.
    std::pop_heap(free_.begin(), free_.end(), std::greater<int32_t>());
    slot = free_.back();
    free_.pop_back();
  } else {
    if (size_ == block_mask_.size() * kLanes) GrowBlock();
    slot = static_cast<int32_t>(size_++);
  }
  block_mask_[static_cast<size_t>(slot) / kLanes] |=
      static_cast<uint8_t>(1u << (static_cast<size_t>(slot) % kLanes));
  owner_[slot] = owner_id;
  // Effective epoch = sweep_count_ + epoch_base_, so "epoch 0 now" is an
  // offset of -sweep_count_ (sweeps before this slot existed don't count).
  epoch_base_[slot] = -sweep_count_;
  last_nis_[slot] = 0.0;
  ++num_active_;
  return slot;
}

void FilterPool::Release(int32_t slot) {
  assert(IsActive(slot));
  // Zero on free: a re-registered source id acquiring this slot later
  // must never observe the previous tenant's state or covariance — and
  // the batch kernel computes on (then discards) inactive lanes, which
  // must hold finite values.
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = 0.0;
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) PAt(slot, r, c) = 0.0;
  }
  block_mask_[static_cast<size_t>(slot) / kLanes] &=
      static_cast<uint8_t>(~(1u << (static_cast<size_t>(slot) % kLanes)));
  owner_[slot] = kNoSlot;
  epoch_base_[slot] = 0;
  last_nis_[slot] = 0.0;
  --num_active_;
  free_.push_back(slot);
  std::push_heap(free_.begin(), free_.end(), std::greater<int32_t>());
}

void FilterPool::ResetSlot(int32_t slot, const Vector& x0, const Matrix& p0) {
  assert(IsActive(slot));
  assert(x0.size() == dim_);
  assert(p0.rows() == dim_ && p0.cols() == dim_);
  StoreSlotFrom(slot, x0, p0);
  epoch_base_[slot] = -sweep_count_;
  last_nis_[slot] = 0.0;
}

void FilterPool::StoreSlotFrom(int32_t slot, const Vector& x,
                               const Matrix& p) {
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = x[e];
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) PAt(slot, r, c) = p(r, c);
  }
}

void FilterPool::SymmetrizeSlotCov(int32_t slot) {
  // Same op order as Matrix::Symmetrize, on the strided slab entries.
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = r + 1; c < dim_; ++c) {
      double avg = 0.5 * (PAt(slot, r, c) + PAt(slot, c, r));
      PAt(slot, r, c) = avg;
      PAt(slot, c, r) = avg;
    }
  }
}

void FilterPool::PredictRaw(int32_t slot) {
  // Single-lane-mask call of the very kernel the sweep uses: computes all
  // four lanes, stores one — bit-identical to a sweep over this block by
  // construction.
  batch::PredictBlockFn fn = simd_ ? simd_fn_ : portable_fn_;
  const size_t block = static_cast<size_t>(slot) / kLanes;
  fn(model_.f.data().data(), model_.q.data().data(), XBlock(block),
     PBlock(block), 1u << (static_cast<size_t>(slot) % kLanes));
}

void FilterPool::PredictSlot(int32_t slot) {
  assert(IsActive(slot));
  PredictRaw(slot);
  ++epoch_base_[slot];
}

void FilterPool::PredictSlotUpTo(int32_t slot, int64_t epoch) {
  assert(IsActive(slot));
  while (PredictEpochOf(slot) < epoch) {
    PredictRaw(slot);
    ++epoch_base_[slot];
  }
}

void FilterPool::BeginSweep() { ++sweep_count_; }

size_t FilterPool::SweepBlocks(size_t begin_block, size_t end_block) {
  // The batched tick: a linear walk over whole blocks, vectorized lane-
  // per-slot. Slots are mutually independent, so neither sweep order nor
  // chunking across threads can affect any slot's state; blocks with no
  // active slots cost one mask test. Thread-safe for disjoint ranges:
  // only block-local slab memory and shared read-only model data are
  // touched.
  batch::PredictBlockFn fn = simd_ ? simd_fn_ : portable_fn_;
  const double* f = model_.f.data().data();
  const double* q = model_.q.data().data();
  size_t advanced = 0;
  for (size_t b = begin_block; b < end_block; ++b) {
    unsigned mask = block_mask_[b];
    if (mask == 0) continue;
    fn(f, q, XBlock(b), PBlock(b), mask);
    advanced += static_cast<size_t>(std::popcount(mask));
  }
  return advanced;
}

size_t FilterPool::PredictAll() {
  BeginSweep();
  return SweepBlocks(0, num_blocks());
}

Status FilterPool::UpdateSlot(int32_t slot, const Vector& z) {
  assert(IsActive(slot));
  // Same kernel sequence as KalmanFilter::Update (minus the log-likelihood
  // diagnostic, which nothing on the pooled path reads), in the fixed-
  // dimension twins: bit-identical state, covariance, and NIS. A failed
  // update leaves the slot untouched.
  if (z.size() != model_.obs_dim()) {
    return Status::InvalidArgument("observation dimension mismatch");
  }
  if (!slot_kernels_->update(model_.h.data().data(), model_.r.data().data(),
                             form_ == KalmanFilter::UpdateForm::kJoseph,
                             XLane(slot), PLane(slot), z.data().data(),
                             &last_nis_[slot])) {
    return Status::FailedPrecondition("innovation covariance not PD");
  }
  return Status::Ok();
}

double FilterPool::GateSlot(int32_t slot, const Vector& z) {
  assert(IsActive(slot));
  assert(z.size() == model_.obs_dim());
  // Exactly KalmanPredictor's gate: nu = z - H x; S = H P H^T + R;
  // NIS = nu' S^{-1} nu via the Cholesky factor, in the same operation
  // order as the value-returning operators the per-object gate uses.
  return slot_kernels_->gate(model_.h.data().data(), model_.r.data().data(),
                             XLane(slot), PLane(slot), z.data().data());
}

Vector FilterPool::StateOf(int32_t slot) const {
  assert(IsActive(slot));
  Vector x;
  x.ResizeUninit(dim_);
  for (size_t e = 0; e < dim_; ++e) x[e] = XAt(slot, e);
  return x;
}

Matrix FilterPool::CovarianceOf(int32_t slot) const {
  assert(IsActive(slot));
  Matrix p;
  p.ResizeUninit(dim_, dim_);
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) p(r, c) = PAt(slot, r, c);
  }
  return p;
}

Vector FilterPool::PredictObservationOf(int32_t slot) const {
  assert(IsActive(slot));
  Vector out;
  out.ResizeUninit(model_.obs_dim());
  slot_kernels_->observe(model_.h.data().data(), XLane(slot),
                         out.data().data());
  return out;
}

std::vector<double> FilterPool::SerializeSlot(int32_t slot) const {
  assert(IsActive(slot));
  std::vector<double> buf;
  buf.reserve(dim_ + dim_ * dim_);
  for (size_t e = 0; e < dim_; ++e) buf.push_back(XAt(slot, e));
  for (size_t r = 0; r < dim_; ++r) {
    for (size_t c = 0; c < dim_; ++c) buf.push_back(PAt(slot, r, c));
  }
  return buf;
}

Status FilterPool::DeserializeSlot(int32_t slot,
                                   const std::vector<double>& payload) {
  assert(IsActive(slot));
  const size_t n = dim_;
  if (payload.size() != n + n * n) {
    return Status::InvalidArgument("serialized state has wrong size");
  }
  for (size_t e = 0; e < n; ++e) XAt(slot, e) = payload[e];
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) PAt(slot, r, c) = payload[n + r * n + c];
  }
  SymmetrizeSlotCov(slot);
  return Status::Ok();
}

Status FilterPool::OverwriteStateOf(int32_t slot,
                                    const std::vector<double>& payload) {
  assert(IsActive(slot));
  if (payload.size() != dim_) {
    return Status::InvalidArgument("state payload has wrong size");
  }
  for (size_t e = 0; e < dim_; ++e) XAt(slot, e) = payload[e];
  // The per-object path round-trips the unchanged P through
  // DeserializeState, whose final Symmetrize we replicate for exact
  // behavioral equivalence.
  SymmetrizeSlotCov(slot);
  return Status::Ok();
}

// ------------------------------------------------------------- FilterPoolSet

FilterPool* FilterPoolSet::PoolFor(const StateSpaceModel& model,
                                   KalmanFilter::UpdateForm form) {
  // Linear scan: a deployment has a handful of distinct models, not
  // thousands, and PoolFor runs only at source registration.
  for (auto& pool : pools_) {
    if (pool->Matches(model, form)) return pool.get();
  }
  pools_.push_back(std::make_unique<FilterPool>(model, form));
  pools_.back()->set_simd(simd_);
  return pools_.back().get();
}

size_t FilterPoolSet::PredictAll() {
  size_t advanced = 0;
  for (auto& pool : pools_) advanced += pool->PredictAll();
  return advanced;
}

size_t FilterPoolSet::num_active() const {
  size_t total = 0;
  for (const auto& pool : pools_) total += pool->num_active();
  return total;
}

void FilterPoolSet::set_simd(bool on) {
  simd_ = on;
  for (auto& pool : pools_) pool->set_simd(on);
}

std::shared_ptr<const KalmanPredictor::Config> FilterPoolSet::InternConfig(
    const KalmanPredictor::Config& config) {
  assert(!config.adaptive.has_value());
  for (const auto& interned : configs_) {
    const KalmanPredictor::Config& c = *interned;
    if (c.sync_mode == config.sync_mode && c.init_var == config.init_var &&
        c.update_form == config.update_form &&
        c.outlier_gate_prob == config.outlier_gate_prob &&
        c.outlier_gate_limit == config.outlier_gate_limit &&
        c.model.f == config.model.f && c.model.q == config.model.q &&
        c.model.h == config.model.h && c.model.r == config.model.r) {
      return interned;
    }
  }
  configs_.push_back(std::make_shared<const KalmanPredictor::Config>(config));
  return configs_.back();
}

// ----------------------------------------------------- PooledKalmanPredictor

PooledKalmanPredictor::PooledKalmanPredictor(KalmanPredictor::Config config,
                                             FilterPoolSet* pools)
    : PooledKalmanPredictor(
          (assert(pools != nullptr), pools->InternConfig(config)), pools) {}

PooledKalmanPredictor::PooledKalmanPredictor(
    std::shared_ptr<const KalmanPredictor::Config> config,
    FilterPoolSet* pools)
    : config_(std::move(config)), pools_(pools) {
  assert(pools_ != nullptr);
  assert(config_->model.Validate().ok());
  // Adaptive noise estimation mutates the per-source model and cannot
  // share a pool; MakePooledPredictor filters such configs out.
  assert(!config_->adaptive.has_value());
  if (config_->outlier_gate_prob > 0.0 && config_->outlier_gate_prob < 1.0) {
    gate_threshold_ = ChiSquaredQuantile(config_->outlier_gate_prob,
                                         config_->model.obs_dim());
  }
}

PooledKalmanPredictor::~PooledKalmanPredictor() { ReleaseSlots(); }

void PooledKalmanPredictor::ReleaseSlots() {
  if (pool_ == nullptr) return;
  if (shadow_slot_ != FilterPool::kNoSlot) pool_->Release(shadow_slot_);
  if (private_slot_ != FilterPool::kNoSlot) pool_->Release(private_slot_);
  shadow_slot_ = FilterPool::kNoSlot;
  private_slot_ = FilterPool::kNoSlot;
}

void PooledKalmanPredictor::Init(const Reading& first) {
  assert(first.value.size() == config_->model.obs_dim());
  if (pool_ == nullptr) {
    pool_ = pools_->PoolFor(config_->model, config_->update_form);
  }
  // Same lift as KalmanPredictor::Init: H^T z places observed values in
  // their state slots, derivatives start at zero.
  size_t n = config_->model.state_dim();
  Vector x0 = config_->model.h.Transposed() * first.value;
  Matrix p0 = Matrix::ScalarDiagonal(n, config_->init_var);
  if (shadow_slot_ == FilterPool::kNoSlot) {
    shadow_slot_ = pool_->Acquire(/*owner_id=*/-1);
  }
  pool_->ResetSlot(shadow_slot_, x0, p0);
  if (config_->sync_mode != KalmanPredictor::SyncMode::kMeasurement) {
    // The private slot is materialized lazily (EnsurePrivateSlot): a
    // server replica clone never observes locally, so its private filter
    // would only waste a slot — and a batched time update per tick.
    if (private_slot_ != FilterPool::kNoSlot) {
      pool_->ResetSlot(private_slot_, x0, p0);
      private_pending_ = false;
    } else {
      private_pending_ = true;
      init_value_ = first.value;
    }
  } else {
    if (private_slot_ != FilterPool::kNoSlot) {
      pool_->Release(private_slot_);
      private_slot_ = FilterPool::kNoSlot;
    }
    private_pending_ = false;
  }
  shadow_ticks_ = 0;
  private_ticks_ = 0;
  consecutive_rejects_ = 0;
  outliers_rejected_ = 0;
  last_nis_ = -1.0;
  last_observed_ = first;
}

void PooledKalmanPredictor::EnsurePrivateSlot() {
  if (!private_pending_) return;
  size_t n = config_->model.state_dim();
  Vector x0 = config_->model.h.Transposed() * init_value_;
  Matrix p0 = Matrix::ScalarDiagonal(n, config_->init_var);
  private_slot_ = pool_->Acquire(/*owner_id=*/-1);
  pool_->ResetSlot(private_slot_, x0, p0);
  private_pending_ = false;
}

void PooledKalmanPredictor::Tick() {
  assert(shadow_slot_ != FilterPool::kNoSlot);
  ++shadow_ticks_;
  // A no-op when the shard's batched PredictAll already advanced the
  // slot this tick; does the time update itself in standalone use.
  pool_->PredictSlotUpTo(shadow_slot_, shadow_ticks_);
}

void PooledKalmanPredictor::ObserveLocal(const Reading& measured) {
  last_observed_ = measured;
  if (config_->sync_mode == KalmanPredictor::SyncMode::kMeasurement) return;
  EnsurePrivateSlot();
  ++private_ticks_;
  pool_->PredictSlotUpTo(private_slot_, private_ticks_);

  if (gate_threshold_ > 0.0) {
    // Identical control flow to KalmanPredictor's innovation gate,
    // including the conclusive-gate-only reset of the rejection run.
    double nis = pool_->GateSlot(private_slot_, measured.value);
    if (nis >= 0.0) {
      last_nis_ = nis;  // A rejected reading is still a consistency sample.
      if (nis > gate_threshold_) {
        if (consecutive_rejects_ + 1 < config_->outlier_gate_limit) {
          ++consecutive_rejects_;
          ++outliers_rejected_;
          if (metrics_.outliers_rejected) metrics_.outliers_rejected->Inc();
          return;  // Predict-only this tick.
        }
        if (metrics_.forced_accepts) metrics_.forced_accepts->Inc();
      }
    }
    consecutive_rejects_ = 0;
  }

  Status s = pool_->UpdateSlot(private_slot_, measured.value);
  assert(s.ok());
  (void)s;
  last_nis_ = pool_->LastNisOf(private_slot_);
}

Vector PooledKalmanPredictor::Target() const {
  if (config_->sync_mode != KalmanPredictor::SyncMode::kMeasurement &&
      (private_slot_ != FilterPool::kNoSlot || private_pending_)) {
    // Materializing the pending slot is logically const: the returned
    // value is exactly what the per-object path computes from x0.
    auto* self = const_cast<PooledKalmanPredictor*>(this);
    self->EnsurePrivateSlot();
    return pool_->PredictObservationOf(private_slot_);
  }
  return last_observed_.value;
}

Vector PooledKalmanPredictor::Predict() const {
  assert(shadow_slot_ != FilterPool::kNoSlot);
  return pool_->PredictObservationOf(shadow_slot_);
}

std::vector<double> PooledKalmanPredictor::EncodeCorrection(
    const Reading& measured) const {
  switch (config_->sync_mode) {
    case KalmanPredictor::SyncMode::kMeasurement:
      return measured.value.data();
    case KalmanPredictor::SyncMode::kState:
      const_cast<PooledKalmanPredictor*>(this)->EnsurePrivateSlot();
      return pool_->StateOf(private_slot_).data();
    case KalmanPredictor::SyncMode::kStateAndCov:
      const_cast<PooledKalmanPredictor*>(this)->EnsurePrivateSlot();
      return pool_->SerializeSlot(private_slot_);
  }
  return {};
}

Status PooledKalmanPredictor::ApplyCorrection(
    int64_t /*seq*/, double /*time*/, const std::vector<double>& payload) {
  if (shadow_slot_ == FilterPool::kNoSlot) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  switch (config_->sync_mode) {
    case KalmanPredictor::SyncMode::kMeasurement: {
      if (payload.size() != config_->model.obs_dim()) {
        return Status::InvalidArgument("correction payload has wrong size");
      }
      z_scratch_.ResizeUninit(payload.size());
      for (size_t i = 0; i < payload.size(); ++i) z_scratch_[i] = payload[i];
      return pool_->UpdateSlot(shadow_slot_, z_scratch_);
    }
    case KalmanPredictor::SyncMode::kState:
      return pool_->OverwriteStateOf(shadow_slot_, payload);
    case KalmanPredictor::SyncMode::kStateAndCov:
      return pool_->DeserializeSlot(shadow_slot_, payload);
  }
  return Status::Internal("unreachable");
}

std::vector<double> PooledKalmanPredictor::EncodeFullState() const {
  assert(shadow_slot_ != FilterPool::kNoSlot);
  return pool_->SerializeSlot(shadow_slot_);
}

Status PooledKalmanPredictor::ApplyFullState(
    const std::vector<double>& payload) {
  if (shadow_slot_ == FilterPool::kNoSlot) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  if (metrics_.filter_resets) metrics_.filter_resets->Inc();
  return pool_->DeserializeSlot(shadow_slot_, payload);
}

void PooledKalmanPredictor::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics();
    return;
  }
  metrics_.outliers_rejected =
      registry->GetCounter("kc.kalman.outliers_rejected");
  metrics_.forced_accepts =
      registry->GetCounter("kc.kalman.gate_forced_accepts");
  metrics_.filter_resets = registry->GetCounter("kc.kalman.filter_resets");
}

std::unique_ptr<Predictor> PooledKalmanPredictor::Clone() const {
  // Clones share the interned config (no per-clone model copies).
  return std::make_unique<PooledKalmanPredictor>(config_, pools_);
}

std::string PooledKalmanPredictor::name() const {
  switch (config_->sync_mode) {
    case KalmanPredictor::SyncMode::kState:
      return "kalman";
    case KalmanPredictor::SyncMode::kStateAndCov:
      return "kalman_cov";
    case KalmanPredictor::SyncMode::kMeasurement:
      return "kalman_meas";
  }
  return "kalman";
}

std::unique_ptr<Predictor> MakePooledPredictor(const Predictor& prototype,
                                               FilterPoolSet* pools) {
  const auto* kp = dynamic_cast<const KalmanPredictor*>(&prototype);
  if (kp == nullptr) return nullptr;
  const KalmanPredictor::Config& config = kp->config();
  if (config.adaptive.has_value()) return nullptr;
  if (config.model.state_dim() > FilterPool::kMaxDim ||
      config.model.obs_dim() > FilterPool::kMaxDim) {
    return nullptr;  // Outside the pooled-kernel envelope.
  }
  return std::make_unique<PooledKalmanPredictor>(pools->InternConfig(config),
                                                 pools);
}

}  // namespace kc
