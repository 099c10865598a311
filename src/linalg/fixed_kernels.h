#ifndef KALMANCAST_LINALG_FIXED_KERNELS_H_
#define KALMANCAST_LINALG_FIXED_KERNELS_H_

#include <cmath>
#include <cstddef>

namespace kc {
namespace fixed {

/// Compile-time-dimension twins of the destination-passing kernels in
/// linalg/kernels.h and of Cholesky::FactorInto/SolveInto
/// (linalg/decomp.h), operating on plain row-major arrays.
///
/// The runtime-dimension kernels pay a resize, a zero-fill and loop setup
/// per call, which for a 1x1 filter is most of the cost of a measurement
/// update. These templates fix the loop bounds at compile time so the
/// compiler can unroll and keep the operands on the stack, and otherwise
/// copy their twins' arithmetic verbatim:
///   - the same loop nest and accumulation order, starting every
///     accumulator from 0.0 (0.0 + x is not folded: it maps -0.0 to 0.0);
///   - the same data-dependent `av == 0.0` skips (-0.0 skips, NaN does
///     not);
///   - no FMA (the build never enables it, see CMakeLists.txt).
/// Each result is therefore bit-identical to the runtime kernel it
/// mirrors, by construction; tests/pool_test.cc pins it against
/// KalmanFilter for every (state_dim, obs_dim) in 1..8 x 1..8.
///
/// Aliasing: outputs must not alias inputs, except where a kernel says it
/// works in place.

/// out (R x C) = a (R x K) * b (K x C). Twin of MultiplyInto(Matrix,
/// Matrix): zero-skip on a's entries.
template <size_t R, size_t K, size_t C>
inline void Multiply(const double* a, const double* b, double* out) {
  for (size_t i = 0; i < R * C; ++i) out[i] = 0.0;
  for (size_t r = 0; r < R; ++r) {
    for (size_t k = 0; k < K; ++k) {
      double av = a[r * K + k];
      if (av == 0.0) continue;
      for (size_t c = 0; c < C; ++c) out[r * C + c] += av * b[k * C + c];
    }
  }
}

/// out (R) = a (R x C) * v (C). Twin of MultiplyInto(Matrix, Vector): no
/// zero-skip.
template <size_t R, size_t C>
inline void MultiplyVec(const double* a, const double* v, double* out) {
  for (size_t r = 0; r < R; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < C; ++c) sum += a[r * C + c] * v[c];
    out[r] = sum;
  }
}

/// out (R x C) = a (R x K) * b^T, with b stored as (C x K). Twin of
/// MultiplyTransposedInto: zero-skip on a's entries.
template <size_t R, size_t K, size_t C>
inline void MultiplyTransposed(const double* a, const double* b,
                               double* out) {
  for (size_t i = 0; i < R * C; ++i) out[i] = 0.0;
  for (size_t r = 0; r < R; ++r) {
    for (size_t k = 0; k < K; ++k) {
      double av = a[r * K + k];
      if (av == 0.0) continue;
      for (size_t c = 0; c < C; ++c) out[r * C + c] += av * b[c * K + k];
    }
  }
}

/// out (C x R) = a (R x C)^T.
template <size_t R, size_t C>
inline void Transpose(const double* a, double* out) {
  for (size_t r = 0; r < R; ++r) {
    for (size_t c = 0; c < C; ++c) out[c * R + r] = a[r * C + c];
  }
}

/// p (N x N) = (p + p^T) / 2 in place. Twin of Matrix::Symmetrize.
template <size_t N>
inline void Symmetrize(double* p) {
  for (size_t r = 0; r < N; ++r) {
    for (size_t c = r + 1; c < N; ++c) {
      double avg = 0.5 * (p[r * N + c] + p[c * N + r]);
      p[r * N + c] = avg;
      p[c * N + r] = avg;
    }
  }
}

/// Lower Cholesky factor l (N x N) of a. Twin of Cholesky::FactorInto:
/// false if a is not (numerically) positive definite, l then unspecified.
template <size_t N>
inline bool CholeskyFactor(const double* a, double* l) {
  for (size_t i = 0; i < N * N; ++i) l[i] = 0.0;
  for (size_t j = 0; j < N; ++j) {
    const double* l_j = l + j * N;
    double diag = a[j * N + j];
    for (size_t k = 0; k < j; ++k) diag -= l_j[k] * l_j[k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    double ljj = std::sqrt(diag);
    l[j * N + j] = ljj;
    for (size_t i = j + 1; i < N; ++i) {
      double* l_i = l + i * N;
      double sum = a[i * N + j];
      for (size_t k = 0; k < j; ++k) sum -= l_i[k] * l_j[k];
      l_i[j] = sum / ljj;
    }
  }
  return true;
}

/// Solves (L L^T) x = b in place (x holds b on entry). Twin of
/// Cholesky::SolveInto(Matrix, Vector, Vector*).
template <size_t N>
inline void CholeskySolve(const double* l, double* x) {
  for (size_t i = 0; i < N; ++i) {
    const double* l_i = l + i * N;
    double sum = x[i];
    for (size_t k = 0; k < i; ++k) sum -= l_i[k] * x[k];
    x[i] = sum / l_i[i];
  }
  for (size_t ii = N; ii-- > 0;) {
    double sum = x[ii];
    for (size_t k = ii + 1; k < N; ++k) sum -= l[k * N + ii] * x[k];
    x[ii] = sum / l[ii * N + ii];
  }
}

/// Solves (L L^T) X = B in place for every column of the N x C matrix x
/// (B on entry). Twin of Cholesky::SolveInto(Matrix, Matrix, Matrix*).
template <size_t N, size_t C>
inline void CholeskySolveCols(const double* l, double* x) {
  for (size_t i = 0; i < N; ++i) {
    double* x_i = x + i * C;
    for (size_t k = 0; k < i; ++k) {
      double lik = l[i * N + k];
      const double* x_k = x + k * C;
      for (size_t c = 0; c < C; ++c) x_i[c] -= lik * x_k[c];
    }
    double lii = l[i * N + i];
    for (size_t c = 0; c < C; ++c) x_i[c] /= lii;
  }
  for (size_t ii = N; ii-- > 0;) {
    double* x_ii = x + ii * C;
    for (size_t k = ii + 1; k < N; ++k) {
      double lki = l[k * N + ii];
      const double* x_k = x + k * C;
      for (size_t c = 0; c < C; ++c) x_ii[c] -= lki * x_k[c];
    }
    double lii = l[ii * N + ii];
    for (size_t c = 0; c < C; ++c) x_ii[c] /= lii;
  }
}

}  // namespace fixed
}  // namespace kc

#endif  // KALMANCAST_LINALG_FIXED_KERNELS_H_
