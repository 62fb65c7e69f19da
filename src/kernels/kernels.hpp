// Runtime ISA dispatch for the hot kernels.
//
// The CAM scans (per precision and metric), the fused L1 and softmax
// epilogues, the weighted LUT accumulate and the sgemm row-panel kernel are
// compiled once per ISA level from one shared body (kernels_impl.hpp): a
// `baseline` variant everywhere, plus `avx2` and `avx512` (F+BW+VL) on
// x86-64. active() picks one table at first use from cpuid, or from the
// PECAN_ISA=baseline|avx2|avx512 environment override, and logs the choice.
//
// Variant TUs see only this header: plain structs, plain pointers, and
// caller-sized scratch. They must not instantiate shared templates or
// inline functions (std::vector, Tensor, std::fill, ...): a weak symbol
// emitted by an AVX-512 TU can be the copy the linker keeps for baseline
// callers. The check_isa_symbols ctest enforces this on the object files.
// Everything that must be identical across variants — argument checks, op
// counting, usage histograms, scratch sizing — stays in the baseline TUs
// (cam_array.cpp, lut.cpp, sgemm.cpp), so every variant produces the same
// ledger by construction.
#pragma once

#include <cstdint>

namespace pecan::kernels {

/// Instruction-set level of a kernel variant, ordered: a host that runs
/// one level runs every level below it.
enum class Isa { Baseline, Avx2, Avx512 };

const char* isa_name(Isa isa);

/// Max queries per CAM tile (cam::kCamTileMax).
constexpr std::int64_t kTileMax = 64;

/// Affine uint8 quantization parameters of one CAM subspace:
/// q(x) = clamp(round(x / scale) + zero_point, 0, 255).
struct AffineQuant {
  float scale = 1.f;            ///< > 0 even for zero-range inputs
  float inv_scale = 1.f;        ///< 1 / scale, precomputed: quantization is a hot loop
  std::int32_t zero_point = 0;  ///< uint8 code of real zero
};

/// Round-half-away-from-zero onto the uint8 grid. Multiply + truncate, no
/// libm call. `static` on purpose: every TU, variant or not, keeps its own
/// copy, so no variant's instructions can leak to another's callers.
static inline std::uint8_t affine_quantize(float v, const AffineQuant& q) {
  const float r = v * q.inv_scale;
  std::int32_t code = static_cast<std::int32_t>(r >= 0.f ? r + 0.5f : r - 0.5f) + q.zero_point;
  code = code < 0 ? 0 : (code > 255 ? 255 : code);
  return static_cast<std::uint8_t>(code);
}

/// Read-only view of one CamArray's stored planes (layouts documented on
/// cam::CamArray's members).
struct CamView {
  std::int64_t p = 0, d = 0;
  const float* words = nullptr;  ///< [p, d] float prototypes
  const float* noise = nullptr;  ///< [p] match-line offsets, null = off
  // Int8 plane.
  AffineQuant q;
  const std::uint8_t* qwords = nullptr;  ///< [p, qstride] codes, rows zero-padded
  std::int64_t qstride = 0;
  const std::int32_t* qwsum = nullptr;    ///< [p] per-word code sums
  const std::uint32_t* wpairs = nullptr;  ///< [p, wpair_dp] pair-interleaved codes
  std::int64_t wpair_dp = 0;
  // Binary plane.
  const std::uint64_t* bwords = nullptr;  ///< [p, bword_stride] packed sign bits
  std::int64_t bword_stride = 0;
  const std::uint8_t* wbytes = nullptr;  ///< [p, d] sign bytes
  const float* bthresh = nullptr;        ///< [d] sign thresholds
};

/// Per-lane scratch for the quantized scans, sized by the caller (see
/// CamArray's lane scratch): qquery holds 2 * 8*ceil(d/8) * kTileMax bytes
/// (int8) or d * kTileMax (binary); qpair wpair_dp * kTileMax words and
/// qdot p * kTileMax ints (int8); bquery kTileMax * bword_stride words
/// (binary).
struct CamScratch {
  std::uint8_t* qquery = nullptr;
  std::uint32_t* qpair = nullptr;
  std::int32_t* qdot = nullptr;
  std::uint64_t* bquery = nullptr;
};

/// Best match of each of lb <= kTileMax dim-major queries
/// (queries[i * lb + l]) into hit32[0..lb), lowest index on ties.
using SearchFn = void (*)(const CamView& a, const float* queries, std::int64_t lb,
                          const CamScratch& s, std::int32_t* hit32);
/// Match-line scores of a query tile as [p, lb] rows.
using ScoresFn = void (*)(const CamView& a, const float* queries, std::int64_t lb,
                          const CamScratch& s, float* scores);

/// One ISA variant's kernels. Float kernels keep the scalar spec's
/// per-element summation order (the project builds with -ffp-contract=off),
/// so every variant is bitwise-equal to the scalar spec and to each other.
struct KernelTable {
  Isa isa;
  SearchFn search_f32_l1;
  SearchFn search_f32_dot;
  SearchFn search_int8_l1;
  SearchFn search_int8_dot;
  SearchFn search_binary;  ///< L1 only
  ScoresFn scores_f32;     ///< <word_m, query_l> (+ noise)
  ScoresFn scores_int8;    ///< dequantized integer crossbar reads
  /// Column softmax of a [p, lb] score tile in place (float exp, double
  /// denominator, one float normalize multiply); hit32[l] = pre-softmax
  /// argmax of column l.
  void (*softmax_columns)(float* scores, std::int64_t p, std::int64_t lb, float temperature,
                          std::int32_t* hit32);
  /// out[c * out_stride + l] += table[c * p + hit32[l]].
  void (*lut_accumulate)(const float* table, std::int64_t cout, std::int64_t p,
                         const std::int32_t* hit32, std::int64_t lb, float* out,
                         std::int64_t out_stride);
  /// out[c * out_stride + l] += sum_m weights[m * lb + l] * table[c * p + m],
  /// ascending m.
  void (*lut_weighted_accumulate)(const float* table, std::int64_t cout, std::int64_t p,
                                  const float* weights, std::int64_t lb, float* out,
                                  std::int64_t out_stride);
  /// sgemm register-tile height: gemm_rows needs k * gemm_mr floats of
  /// a_panel scratch.
  std::int64_t gemm_mr;
  /// C[i0..i1, 0..n) += alpha * A[i0..i1, :] * B on row-major operands.
  void (*gemm_rows)(std::int64_t i0, std::int64_t i1, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float* c, std::int64_t ldc, float* a_panel);
};

/// The table of `isa`, or nullptr when this binary has no such variant or
/// the host CPU lacks its instructions.
const KernelTable* table_for(Isa isa);

/// The variant a PECAN_ISA value selects: null or empty = the highest one
/// table_for() offers; a known name = that variant, or the best supported
/// one below it; an unknown name = the highest supported.
Isa resolve_isa(const char* requested);

/// The table serving this process. Chosen once, at first use: the highest
/// variant table_for() offers, or the PECAN_ISA override. An override the
/// host cannot run (or an unknown name) falls back to the best supported
/// variant below it — never SIGILL — and the choice is logged once.
const KernelTable& active();

}  // namespace pecan::kernels
