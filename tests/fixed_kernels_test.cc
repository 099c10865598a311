// Bit-identity pins for the fixed-dimension kernels (linalg/
// fixed_kernels.h) against the runtime-dimension kernels they mirror
// (linalg/kernels.h, Cholesky::FactorInto/SolveInto), on inputs salted
// with +0.0, -0.0, infinities and NaN. A skipped `av == 0.0` term differs
// from an added one only when its other factor is infinite or NaN, so the
// special values are what make the zero-skips observable here.

#include "linalg/fixed_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

#include "linalg/decomp.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace kc {
namespace {

/// Deterministic value stream (xorshift): mostly uniform values, salted
/// with signed zeros and non-finite entries.
class Values {
 public:
  explicit Values(uint64_t seed) : state_(seed | 1) {}

  double Next() {
    switch (Bits() % 16) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::infinity();
      case 3: return -std::numeric_limits<double>::infinity();
      case 4: return std::numeric_limits<double>::quiet_NaN();
      default: return Centered();
    }
  }
  double Centered() {
    return static_cast<double>(Bits() >> 11) * (2.0 / 9007199254740992.0) -
           1.0;
  }

 private:
  uint64_t Bits() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  uint64_t state_;
};

/// Equal bit patterns; any two NaNs count as equal (which NaN an
/// operation propagates is not part of the contract).
void ExpectSame(const double* want, const double* got, size_t n,
                const char* what) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(want[i]),
              std::bit_cast<uint64_t>(got[i]))
        << what << "[" << i << "]: " << want[i] << " vs " << got[i];
  }
}

Matrix Fill(size_t rows, size_t cols, Values* values) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = values->Next();
  return m;
}

/// Random symmetric positive definite n x n matrix: M M^T + I/2.
Matrix SpdMatrix(size_t n, Values* values) {
  Matrix m(n, n);
  for (double& v : m.data()) v = values->Centered();
  Matrix spd = m * m.Transposed();
  for (size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

template <size_t R, size_t K, size_t C>
void CheckProducts(uint64_t seed) {
  SCOPED_TRACE(testing::Message() << R << "x" << K << "x" << C);
  Values values(seed);
  for (int trial = 0; trial < 8; ++trial) {
    Matrix a = Fill(R, K, &values);
    Matrix b = Fill(K, C, &values);
    Matrix bt = Fill(C, K, &values);
    Vector v(K);
    for (size_t i = 0; i < K; ++i) v[i] = values.Next();

    Matrix want;
    double got[R * C];
    MultiplyInto(a, b, &want);
    fixed::Multiply<R, K, C>(a.data().data(), b.data().data(), got);
    ExpectSame(want.data().data(), got, R * C, "a b");

    MultiplyTransposedInto(a, bt, &want);
    fixed::MultiplyTransposed<R, K, C>(a.data().data(), bt.data().data(),
                                       got);
    ExpectSame(want.data().data(), got, R * C, "a bt^T");

    Vector want_v;
    double got_v[R];
    MultiplyInto(a, v, &want_v);
    fixed::MultiplyVec<R, K>(a.data().data(), v.data().data(), got_v);
    ExpectSame(want_v.data().data(), got_v, R, "a v");

    double got_t[K * R];
    TransposeInto(a, &want);
    fixed::Transpose<R, K>(a.data().data(), got_t);
    ExpectSame(want.data().data(), got_t, K * R, "a^T");
  }
}

template <size_t N, size_t C>
void CheckCholesky(uint64_t seed) {
  SCOPED_TRACE(testing::Message() << N << " / " << C << " columns");
  Values values(seed);
  for (int trial = 0; trial < 8; ++trial) {
    Matrix a = Fill(N, N, &values);
    Matrix want = a;
    double got[N * N];
    for (size_t i = 0; i < N * N; ++i) got[i] = a.data()[i];
    want.Symmetrize();
    fixed::Symmetrize<N>(got);
    ExpectSame(want.data().data(), got, N * N, "symmetrize");

    // Positive definite, indefinite and non-finite inputs alike: the
    // verdict must agree, and the factor wherever it succeeded.
    Matrix s = trial % 2 == 0 ? SpdMatrix(N, &values) : want;
    Matrix l;
    double got_l[N * N];
    bool ok = Cholesky::FactorInto(s, &l);
    ASSERT_EQ(ok, fixed::CholeskyFactor<N>(s.data().data(), got_l));
    if (!ok) continue;
    ExpectSame(l.data().data(), got_l, N * N, "L");

    Matrix rhs = Fill(N, C, &values);
    Matrix x;
    double got_x[N * C];
    for (size_t i = 0; i < N * C; ++i) got_x[i] = rhs.data()[i];
    Cholesky::SolveInto(l, rhs, &x);
    fixed::CholeskySolveCols<N, C>(got_l, got_x);
    ExpectSame(x.data().data(), got_x, N * C, "solve columns");

    Vector b(N);
    double got_b[N];
    for (size_t i = 0; i < N; ++i) got_b[i] = b[i] = values.Next();
    Vector y;
    Cholesky::SolveInto(l, b, &y);
    fixed::CholeskySolve<N>(got_l, got_b);
    ExpectSame(y.data().data(), got_b, N, "solve");
  }
}

constexpr size_t kDims[] = {1, 2, 3, 5, 8};

template <size_t... I>
void CheckAllProducts(std::index_sequence<I...>) {
  constexpr size_t n = std::size(kDims);
  (CheckProducts<kDims[I / (n * n)], kDims[I / n % n], kDims[I % n]>(I + 1),
   ...);
}

template <size_t... I>
void CheckAllCholesky(std::index_sequence<I...>) {
  constexpr size_t n = std::size(kDims);
  (CheckCholesky<kDims[I / n], kDims[I % n]>(I + 7), ...);
}

TEST(FixedKernelsTest, ProductsMatchRuntimeKernels) {
  constexpr size_t n = std::size(kDims);
  CheckAllProducts(std::make_index_sequence<n * n * n>());
}

TEST(FixedKernelsTest, CholeskyMatchesRuntimeFactorAndSolves) {
  constexpr size_t n = std::size(kDims);
  CheckAllCholesky(std::make_index_sequence<n * n>());
}

}  // namespace
}  // namespace kc
