// Single-precision GEMM, the compute kernel behind Conv2d (im2col),
// Linear, and the PECAN-A attention scores.
//
// Row-major. C[M,N] = alpha * op(A)[M,K] * op(B)[K,N] + beta * C[M,N].
// Register-blocked micro-kernel whose tile follows the ISA variant that
// runs it (12x16 on AVX-512, 6x16 on AVX2 and aarch64, 4x8 on baseline
// x86-64; see kernels/kernels_impl.hpp) with thread_local panel packing,
// parallel over row blocks of C.
//
// Determinism contract: every C element is produced by exactly one lane as
//   beta-scaled C  +  (sum over k, ascending, of (alpha*a)*b accumulated in
//   a single float register)
// so results are bitwise-identical at any thread count AND bitwise-equal to
// the serial sgemm_reference below — the equivalence tests assert both.
#pragma once

#include <cstdint>

#include "kernels/kernels.hpp"

namespace pecan {

/// `kt` is the ISA variant that runs the micro-kernels; every variant gives
/// the same bits.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
           float alpha, const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
           float beta, float* c, std::int64_t ldc,
           const kernels::KernelTable& kt = kernels::active());

/// Serial naive triple loop implementing the exact accumulation semantics
/// the blocked kernel must reproduce bitwise (the spec, and the "before"
/// side of bench_kernels). Not a fast path — tests and benches only.
void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// Convenience: C = A * B for contiguous row-major matrices.
void matmul(const float* a, const float* b, float* c, std::int64_t m, std::int64_t n,
            std::int64_t k);

}  // namespace pecan
