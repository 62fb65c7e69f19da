#include "tensor/sgemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace pecan {

namespace {

// Blocked kernel on row-major operands: C += alpha * A * B. Parallel over
// row blocks; each lane packs its own A panels into thread_local scratch
// that persists across calls — steady state allocates nothing — and the
// variant's gemm_rows runs the register-blocked micro-kernels.
void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
             std::int64_t lda, const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
             const kernels::KernelTable& kt) {
  const std::int64_t row_cost = std::max<std::int64_t>(n * k, 1);
  const std::int64_t grain = std::max<std::int64_t>(1, (1 << 16) / row_cost);
  util::parallel_for(
      0, m,
      [&](std::int64_t i0, std::int64_t i1) {
        thread_local std::vector<float> a_panel;
        if (a_panel.size() < static_cast<std::size_t>(k * kt.gemm_mr)) {
          a_panel.resize(static_cast<std::size_t>(k * kt.gemm_mr));
        }
        kt.gemm_rows(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc, a_panel.data());
      },
      grain);
}

void scale_by_beta(std::int64_t m, std::int64_t n, float beta, float* c, std::int64_t ldc) {
  if (beta == 1.f) return;
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.f) {
      std::fill(crow, crow + n, 0.f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}
}  // namespace

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
           float alpha, const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
           float beta, float* c, std::int64_t ldc, const kernels::KernelTable& kt) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm: negative dimension");

  // Scale C by beta first so the accumulating kernel can just add.
  scale_by_beta(m, n, beta, c, ldc);
  if (alpha == 0.f || m == 0 || n == 0 || k == 0) return;

  // Transposed operands are packed row-major into thread_local scratch (the
  // packed kernel is so much more cache-friendly that the copy pays for
  // itself beyond tiny sizes). The buffers persist across calls, so the
  // conv-backward sgemm(trans...) sequence stops reallocating every step.
  // Safe: sgemm never runs nested inside itself on one thread, and pool
  // lanes only read the submitting thread's buffers after the enqueue
  // happens-before edge.
  thread_local std::vector<float> a_packed, b_packed;
  const float* a_eff = a;
  std::int64_t lda_eff = lda;
  if (trans_a) {
    if (a_packed.size() < static_cast<std::size_t>(m * k)) {
      a_packed.resize(static_cast<std::size_t>(m * k));
    }
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) a_packed[static_cast<std::size_t>(i * k + kk)] = a[kk * lda + i];
    }
    a_eff = a_packed.data();
    lda_eff = k;
  }
  const float* b_eff = b;
  std::int64_t ldb_eff = ldb;
  if (trans_b) {
    if (b_packed.size() < static_cast<std::size_t>(k * n)) {
      b_packed.resize(static_cast<std::size_t>(k * n));
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) b_packed[static_cast<std::size_t>(kk * n + j)] = b[j * ldb + kk];
    }
    b_eff = b_packed.data();
    ldb_eff = n;
  }
  gemm_nn(m, n, k, alpha, a_eff, lda_eff, b_eff, ldb_eff, c, ldc, kt);
}

void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm_reference: negative dimension");
  scale_by_beta(m, n, beta, c, ldc);
  if (alpha == 0.f || m == 0 || n == 0 || k == 0) return;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = alpha * (trans_a ? a[kk * lda + i] : a[i * lda + kk]);
        acc += aik * (trans_b ? b[j * ldb + kk] : b[kk * ldb + j]);
      }
      c[i * ldc + j] += acc;
    }
  }
}

void matmul(const float* a, const float* b, float* c, std::int64_t m, std::int64_t n,
            std::int64_t k) {
  sgemm(false, false, m, n, k, 1.f, a, k, b, n, 0.f, c, n);
}

}  // namespace pecan
