#include "cam/cam_array.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#if defined(__AVX512BW__)
#include <immintrin.h>
#endif

#include "cam/lut.hpp"

namespace pecan::cam {

const char* precision_name(CamPrecision p) {
  switch (p) {
    case CamPrecision::Float32: return "float32";
    case CamPrecision::Int8: return "int8";
    case CamPrecision::Binary: return "binary";
  }
  return "float32";
}

CamPrecision precision_from_name(const std::string& name) {
  if (name == "float32" || name == "fp32" || name == "float") return CamPrecision::Float32;
  if (name == "int8") return CamPrecision::Int8;
  if (name == "binary" || name == "bin" || name == "sign") return CamPrecision::Binary;
  throw std::invalid_argument("unknown cam precision '" + name +
                              "' (expected float32 | int8 | binary)");
}

AffineQuant affine_qparams(const float* values, std::int64_t n) {
  float mn = values[0], mx = values[0];
  for (std::int64_t i = 1; i < n; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  AffineQuant q;
  if (mx > mn) {
    q.scale = (mx - mn) / 255.f;
  } else {
    // Zero range (all-equal words): any grid works, distances are all equal.
    q.scale = 1.f;
  }
  q.inv_scale = 1.f / q.scale;
  const std::int32_t zp = static_cast<std::int32_t>(std::lround(-mn / q.scale));
  q.zero_point = zp < 0 ? 0 : (zp > 255 ? 255 : zp);
  return q;
}

CamArray::CamArray(Tensor words, SearchMetric metric)
    : words_(std::move(words)), metric_(metric) {
  if (words_.ndim() != 2) throw std::invalid_argument("CamArray: words must be [p, d]");
  p_ = words_.dim(0);
  d_ = words_.dim(1);
  if (p_ <= 0 || d_ <= 0) throw std::invalid_argument("CamArray: empty array");
  usage_.assign(static_cast<std::size_t>(p_), 0);
}

std::int64_t CamArray::search(const float* query, std::int64_t stride, OpCounter& counter) const {
  count_into(&OpCounter::cam_searches, counter, bank_port_, 1);
  std::int64_t best = 0;
  // Match-line noise (empty = off): word m's offset is applied AFTER its
  // full d-term accumulation — the same point the blocked kernel applies
  // it, so scalar and blocked stay bitwise-identical with noise on too.
  const float* nz = mlnoise_.empty() ? nullptr : mlnoise_.data();
  if (metric_ == SearchMetric::L1BestMatch) {
    float best_dist = std::numeric_limits<float>::max();
    for (std::int64_t m = 0; m < p_; ++m) {
      const float* w = words_.data() + m * d_;
      float dist = 0.f;
      for (std::int64_t i = 0; i < d_; ++i) dist += std::fabs(query[i * stride] - w[i]);
      if (nz) dist += nz[m];
      if (dist < best_dist) {
        best_dist = dist;
        best = m;
      }
    }
    // Match-line arithmetic: per word, d subtractions + d accumulations.
    count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(2 * p_ * d_));
  } else {
    float best_score = -std::numeric_limits<float>::max();
    for (std::int64_t m = 0; m < p_; ++m) {
      const float* w = words_.data() + m * d_;
      float score = 0.f;
      for (std::int64_t i = 0; i < d_; ++i) score += query[i * stride] * w[i];
      if (nz) score += nz[m];
      if (score > best_score) {
        best_score = score;
        best = m;
      }
    }
    count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_));
    count_into(&OpCounter::muls, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_));
  }
  record_usage(best);
  return best;
}

namespace {

// Per-lane quantization scratch for the int8/binary paths: one tile's
// quantized queries (uint8 codes / sign bytes in [d, kCamTileMax] rows,
// pair-interleaved uint16 codes for the dot scan, or [lb, bstride] packed
// sign words). thread_local so the blocked kernels stay allocation-free on
// the steady path at any thread count.
thread_local std::vector<std::uint8_t> tl_qquery;
thread_local std::vector<std::uint32_t> tl_qpair;
thread_local std::vector<std::int32_t> tl_qdot;
thread_local std::vector<std::uint64_t> tl_bquery;

#if defined(__AVX512BW__)

/// 8x16 byte transpose from the dim-major code tile into the query-major
/// layout the SAD scan wants: group g's 512-byte block holds, for each query
/// l, its 8 codes of dimensions 8g..8g+7 as one contiguous u64 at byte
/// offset 8l. Three unpack levels, no cross-lane shuffles.
inline void oct_transpose_avx512(const std::uint8_t* qq, std::int64_t ngroups, std::uint8_t* qt) {
  for (std::int64_t g = 0; g < ngroups; ++g) {
    const std::uint8_t* rows = qq + g * 8 * kCamTileMax;
    std::uint8_t* dst = qt + g * 8 * kCamTileMax;
    for (std::int64_t c = 0; c < 4; ++c) {
      __m128i r[8];
      for (int i = 0; i < 8; ++i) {
        r[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i * kCamTileMax + c * 16));
      }
      __m128i s[8];
      for (int i = 0; i < 4; ++i) {
        s[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
        s[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
      }
      __m128i t[8];
      t[0] = _mm_unpacklo_epi16(s[0], s[2]);
      t[1] = _mm_unpackhi_epi16(s[0], s[2]);
      t[2] = _mm_unpacklo_epi16(s[4], s[6]);
      t[3] = _mm_unpackhi_epi16(s[4], s[6]);
      t[4] = _mm_unpacklo_epi16(s[1], s[3]);
      t[5] = _mm_unpackhi_epi16(s[1], s[3]);
      t[6] = _mm_unpacklo_epi16(s[5], s[7]);
      t[7] = _mm_unpackhi_epi16(s[5], s[7]);
      __m128i u[8];
      u[0] = _mm_unpacklo_epi32(t[0], t[2]);
      u[1] = _mm_unpackhi_epi32(t[0], t[2]);
      u[2] = _mm_unpacklo_epi32(t[1], t[3]);
      u[3] = _mm_unpackhi_epi32(t[1], t[3]);
      u[4] = _mm_unpacklo_epi32(t[4], t[6]);
      u[5] = _mm_unpackhi_epi32(t[4], t[6]);
      u[6] = _mm_unpacklo_epi32(t[5], t[7]);
      u[7] = _mm_unpackhi_epi32(t[5], t[7]);
      for (int k = 0; k < 8; ++k) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + c * 128 + k * 16), u[k]);
      }
    }
  }
}

/// Int8 L1 match scan built on VPSADBW: with queries transposed into 8-dim
/// u64 groups (oct_transpose_avx512) and the zero-padded word row read as
/// u64 groups, ONE sad_epu8 both forms |q - w| and sums 8 dimensions of 8
/// queries — versus ~8 ops for a subtract/accumulate pipeline. Distances
/// accumulate exactly in u64 lanes, get packed to u32 for the winner-take-
/// all (strict < on ascending m keeps the scalar lowest-index tie-break),
/// so the only shape bound is p fitting an int32 index. Lanes >= lb carry
/// garbage and are never extracted.
inline void int8_l1_scan_avx512(const std::uint8_t* qt, const std::uint8_t* words,
                                std::int64_t p, std::int64_t ngroups, std::int64_t wstride,
                                std::int64_t lb, std::int32_t* hit32) {
  // Low dwords of a:b's u64 lanes, in query order (lanes 0-7 from a, 8-15
  // from b) — u64 distances are < 2^32, so the packed u32s are exact.
  const __m512i evens =
      _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
  __m512i best[4], hit[4];
  for (int k = 0; k < 4; ++k) {
    best[k] = _mm512_set1_epi32(-1);
    hit[k] = _mm512_setzero_si512();
  }
  for (std::int64_t m = 0; m < p; ++m) {
    const std::uint8_t* w = words + m * wstride;
    __m512i acc[8];
    for (int c = 0; c < 8; ++c) acc[c] = _mm512_setzero_si512();
    for (std::int64_t g = 0; g < ngroups; ++g) {
      std::uint64_t w8;
      std::memcpy(&w8, w + 8 * g, sizeof(w8));
      const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w8));
      const std::uint8_t* q = qt + g * 8 * kCamTileMax;
      for (int c = 0; c < 8; ++c) {
        acc[c] = _mm512_add_epi64(acc[c], _mm512_sad_epu8(_mm512_loadu_si512(q + c * 64), wv));
      }
    }
    const __m512i mv = _mm512_set1_epi32(static_cast<int>(m));
    for (int k = 0; k < 4; ++k) {
      const __m512i dk = _mm512_permutex2var_epi32(acc[2 * k], evens, acc[2 * k + 1]);
      const __mmask16 lt = _mm512_cmplt_epu32_mask(dk, best[k]);
      best[k] = _mm512_mask_mov_epi32(best[k], lt, dk);
      hit[k] = _mm512_mask_mov_epi32(hit[k], lt, mv);
    }
  }
  alignas(64) std::int32_t hb[kCamTileMax];
  for (int k = 0; k < 4; ++k) _mm512_storeu_si512(hb + 16 * k, hit[k]);
  for (std::int64_t l = 0; l < lb; ++l) hit32[l] = hb[l];
}

/// Binary Hamming scan in the sign BYTE plane: the XOR+popcount of the
/// packed-word spec with the popcount distributed across 64 uint8 query
/// lanes — each step XORs one dimension's sign bytes (0/1) against the
/// word's sign byte and adds, so after d steps each lane holds the exact
/// Hamming distance (d <= 254 keeps uint8 exact AND below the 0xFF init).
/// Winner indices live in uint8 lanes, so p <= 256.
inline void binary_scan_avx512(const std::uint8_t* sb, const std::uint8_t* wbytes,
                               std::int64_t p, std::int64_t d, std::int64_t lb,
                               std::int32_t* hit32) {
  __m512i best = _mm512_set1_epi8(-1);
  __m512i hit = _mm512_setzero_si512();
  for (std::int64_t m = 0; m < p; ++m) {
    const std::uint8_t* w = wbytes + m * d;
    __m512i acc = _mm512_setzero_si512();
    for (std::int64_t i = 0; i < d; ++i) {
      const __m512i s = _mm512_loadu_si512(sb + i * kCamTileMax);
      acc = _mm512_add_epi8(acc, _mm512_xor_si512(s, _mm512_set1_epi8(static_cast<char>(w[i]))));
    }
    const __mmask64 lt = _mm512_cmplt_epu8_mask(acc, best);
    best = _mm512_mask_mov_epi8(best, lt, acc);
    hit = _mm512_mask_mov_epi8(hit, lt, _mm512_set1_epi8(static_cast<char>(m)));
  }
  alignas(64) std::uint8_t hb[64];
  _mm512_storeu_si512(hb, hit);
  for (std::int64_t l = 0; l < lb; ++l) hit32[l] = hb[l];
}

/// Int8 crossbar read with pair-interleaved codes: qpair lane l of row ip
/// holds codes (q_{2ip}, q_{2ip+1}) as two uint16 halves, so VPMADDWD
/// multiplies and pair-sums along the DIMENSION axis — the one place the
/// madd pairing lines up with the math. Writes the raw int32 dot products
/// (no zero-point correction) as [p, kCamTileMax] rows.
inline void int8_dot_rows_avx512(const std::uint32_t* qpair, const std::uint32_t* wpairs,
                                 std::int64_t p, std::int64_t dp, std::int32_t* dot) {
  for (std::int64_t m = 0; m < p; ++m) {
    const std::uint32_t* wp = wpairs + m * dp;
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
    for (std::int64_t ip = 0; ip < dp; ++ip) {
      const __m512i wv = _mm512_set1_epi32(static_cast<int>(wp[ip]));
      const std::uint32_t* q = qpair + ip * kCamTileMax;
      a0 = _mm512_add_epi32(a0, _mm512_madd_epi16(_mm512_loadu_si512(q), wv));
      a1 = _mm512_add_epi32(a1, _mm512_madd_epi16(_mm512_loadu_si512(q + 16), wv));
      a2 = _mm512_add_epi32(a2, _mm512_madd_epi16(_mm512_loadu_si512(q + 32), wv));
      a3 = _mm512_add_epi32(a3, _mm512_madd_epi16(_mm512_loadu_si512(q + 48), wv));
    }
    std::int32_t* row = dot + m * kCamTileMax;
    _mm512_storeu_si512(row, a0);
    _mm512_storeu_si512(row + 16, a1);
    _mm512_storeu_si512(row + 32, a2);
    _mm512_storeu_si512(row + 48, a3);
  }
}

/// Vectorized replica of affine_quantize over a dim-major [d, lb] query
/// block, written as [d, kCamTileMax] uint8 rows: multiply by inv_scale, add
/// copysign(0.5), truncate (CVTT rounds toward zero, exactly the scalar
/// cast), add the zero point, clamp to [0, 255]. Lane for lane the codes are
/// bitwise-identical to the scalar helper. Tail lanes load an implicit 0.0f
/// (masked load) and quantize to the clamped zero point — garbage the scans
/// carry but never extract.
inline void quantize_tile_avx512(const float* queries, std::int64_t lb, std::int64_t d,
                                 const AffineQuant& qp, std::uint8_t* qq) {
  const __m512 inv = _mm512_set1_ps(qp.inv_scale);
  const __m512i half = _mm512_castps_si512(_mm512_set1_ps(0.5f));
  const __m512i signbit = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512i zp = _mm512_set1_epi32(qp.zero_point);
  const __m512i hi255 = _mm512_set1_epi32(255);
  for (std::int64_t i = 0; i < d; ++i) {
    const float* q = queries + i * lb;
    std::uint8_t* row = qq + i * kCamTileMax;
    for (std::int64_t l = 0; l < lb; l += 16) {
      const __mmask16 mk = lb - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                                        : static_cast<__mmask16>((1u << (lb - l)) - 1);
      const __m512 r = _mm512_mul_ps(_mm512_maskz_loadu_ps(mk, q + l), inv);
      const __m512 h = _mm512_castsi512_ps(
          _mm512_or_epi32(_mm512_and_epi32(_mm512_castps_si512(r), signbit), half));
      __m512i code = _mm512_add_epi32(_mm512_cvttps_epi32(_mm512_add_ps(r, h)), zp);
      code = _mm512_min_epi32(_mm512_max_epi32(code, _mm512_setzero_si512()), hi255);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(row + l), _mm512_cvtepi32_epi8(code));
    }
  }
}

/// Sign-byte tile for the Hamming scan: row i, lane l holds 1 iff query l's
/// component i clears that component's calibrated threshold (same >=
/// predicate as the packed-word spec, NaN maps to 0 either way). Tail
/// lanes see a masked-in 0.0f; garbage, never read past lb.
inline void sign_tile_avx512(const float* queries, std::int64_t lb, std::int64_t d,
                             const float* thresh, std::uint8_t* sb) {
  for (std::int64_t i = 0; i < d; ++i) {
    const __m512 tv = _mm512_set1_ps(thresh[i]);
    const float* q = queries + i * lb;
    std::uint8_t* row = sb + i * kCamTileMax;
    for (std::int64_t l = 0; l < lb; l += 16) {
      const __mmask16 mk = lb - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                                        : static_cast<__mmask16>((1u << (lb - l)) - 1);
      const __mmask16 ge = _mm512_cmp_ps_mask(_mm512_maskz_loadu_ps(mk, q + l), tv, _CMP_GE_OQ);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(row + l),
                       _mm512_cvtepi32_epi8(_mm512_maskz_set1_epi32(ge, 1)));
    }
  }
}

/// Interleaves adjacent quantized rows of a [2*dp, kCamTileMax] code tile
/// into the VPMADDWD pair layout: uint32 lane l of row ip = code(2ip) |
/// code(2ip+1) << 16. The caller zeroes row d when d is odd so the pad
/// half contributes 0 to every product.
inline void pair_tile_avx512(const std::uint8_t* qq, std::int64_t dp, std::uint32_t* qp) {
  for (std::int64_t ip = 0; ip < dp; ++ip) {
    const std::uint8_t* lo = qq + (2 * ip) * kCamTileMax;
    const std::uint8_t* hi = lo + kCamTileMax;
    std::uint32_t* row = qp + ip * kCamTileMax;
    for (std::int64_t l = 0; l < kCamTileMax; l += 16) {
      const __m512i a =
          _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(lo + l)));
      const __m512i b =
          _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(hi + l)));
      _mm512_storeu_si512(row + l, _mm512_or_si512(a, _mm512_slli_epi32(b, 16)));
    }
  }
}

#endif  // __AVX512BW__

}  // namespace

void CamArray::prepare_quantized(CamPrecision precision) {
  if (precision == CamPrecision::Float32) return;
  if (precision == CamPrecision::Int8) {
    qparams_ = affine_qparams(words_.data(), p_ * d_);
    qstride_ = (d_ + 15) & ~std::int64_t{15};
    qwords_.assign(static_cast<std::size_t>(p_ * qstride_), 0);
    qwsum_.assign(static_cast<std::size_t>(p_), 0);
    // Pair-interleaved codes for the VPMADDWD dot scan: word ip packs codes
    // (w_{2ip}, w_{2ip+1}) into uint16 halves; odd d pads the high half with
    // 0, which contributes 0 to every product.
    wpair_dp_ = (d_ + 1) / 2;
    wpairs_.assign(static_cast<std::size_t>(p_ * wpair_dp_), 0);
    for (std::int64_t m = 0; m < p_; ++m) {
      std::uint8_t* w = qwords_.data() + m * qstride_;
      const float* src = words_.data() + m * d_;
      std::int32_t s = 0;
      for (std::int64_t i = 0; i < d_; ++i) {
        w[i] = affine_quantize(src[i], qparams_);
        s += w[i];
      }
      qwsum_[static_cast<std::size_t>(m)] = s;
      std::uint32_t* wp = wpairs_.data() + m * wpair_dp_;
      for (std::int64_t ip = 0; ip < wpair_dp_; ++ip) {
        const std::uint32_t lo = w[2 * ip];
        const std::uint32_t hi = 2 * ip + 1 < d_ ? w[2 * ip + 1] : 0;
        wp[ip] = lo | (hi << 16);
      }
    }
    int8_ready_ = true;
    return;
  }
  // Binary: little-endian sign planes, bit i%64 of word i/64 set iff
  // component i clears that component's threshold. Thresholds are
  // calibrated to the per-component mean over the stored words rather than
  // fixed at 0: one-sided subspaces (first-layer image patches are almost
  // entirely non-negative) would binarize to all-ones against 0 and carry
  // zero Hamming information, while per-component centering keeps each bit
  // position near maximum entropy. The 0/1 sign BYTE plane next to the
  // packed words feeds the lane-parallel Hamming scan (same bits,
  // byte-addressable).
  bthresh_.assign(static_cast<std::size_t>(d_), 0.f);
  for (std::int64_t i = 0; i < d_; ++i) {
    double sum = 0;
    for (std::int64_t m = 0; m < p_; ++m) sum += words_.data()[m * d_ + i];
    bthresh_[static_cast<std::size_t>(i)] = static_cast<float>(sum / static_cast<double>(p_));
  }
  bword_stride_ = (d_ + 63) / 64;
  bwords_.assign(static_cast<std::size_t>(p_ * bword_stride_), 0);
  wbytes_.assign(static_cast<std::size_t>(p_ * d_), 0);
  for (std::int64_t m = 0; m < p_; ++m) {
    std::uint64_t* w = bwords_.data() + m * bword_stride_;
    std::uint8_t* wb = wbytes_.data() + m * d_;
    const float* src = words_.data() + m * d_;
    for (std::int64_t i = 0; i < d_; ++i) {
      if (src[i] >= bthresh_[static_cast<std::size_t>(i)]) {
        w[i >> 6] |= (std::uint64_t{1} << (i & 63));
        wb[i] = 1;
      }
    }
  }
  binary_ready_ = true;
}

bool CamArray::quantized_ready(CamPrecision precision) const {
  if (precision == CamPrecision::Int8) return int8_ready_;
  if (precision == CamPrecision::Binary) return binary_ready_;
  return true;
}

void CamArray::search_block_core(const float* queries, std::int64_t lb, std::int32_t* hit32,
                                 OpCounter& counter, CamPrecision precision) const {
  // Tile-wide running state stays on the stack (lb <= kCamTileMax): the
  // whole scan works out of L1 — one stored word versus lb contiguous
  // queries — and the inner loops over l are unit-stride so the compiler
  // can vectorize them. The winner-take-all update is branchless over
  // 32-bit indices (select, not branch) for the same reason; a strict
  // </> keeps the scalar path's lowest-index tie-break in every precision.
  std::fill(hit32, hit32 + lb, 0);
  if (precision == CamPrecision::Int8) {
    if (!int8_ready_) throw std::logic_error("CamArray: prepare_quantized(Int8) not called");
    if (metric_ == SearchMetric::L1BestMatch) {
      // |q - w| in codes: the zero point cancels, so the integer argmin
      // agrees with the quantized-value L1 argmin exactly.
      bool done = false;
#if defined(__AVX512BW__)
      if (p_ <= std::numeric_limits<std::int32_t>::max() && d_ < (std::int64_t{1} << 24)) {
        const std::int64_t ngroups = (d_ + 7) / 8;
        const std::int64_t dpad = 8 * ngroups;
        if (tl_qquery.size() < static_cast<std::size_t>(2 * dpad * kCamTileMax)) {
          tl_qquery.resize(static_cast<std::size_t>(2 * dpad * kCamTileMax));
        }
        std::uint8_t* qq = tl_qquery.data();
        std::uint8_t* qt = qq + dpad * kCamTileMax;
        quantize_tile_avx512(queries, lb, d_, qparams_, qq);
        // Pad dimensions must read 0 on BOTH sides — the word rows are
        // zero-padded — so the SAD groups past d contribute nothing.
        if (dpad > d_) std::fill(qq + d_ * kCamTileMax, qq + dpad * kCamTileMax, std::uint8_t{0});
        oct_transpose_avx512(qq, ngroups, qt);
        int8_l1_scan_avx512(qt, qwords_.data(), p_, ngroups, qstride_, lb, hit32);
        done = true;
      }
#endif
      if (!done) {
        // Portable scan, dim-major like the float kernel with int32 lanes.
        if (tl_qquery.size() < static_cast<std::size_t>(d_ * lb)) {
          tl_qquery.resize(static_cast<std::size_t>(d_ * lb));
        }
        std::uint8_t* qq = tl_qquery.data();
        for (std::int64_t i = 0; i < d_ * lb; ++i) qq[i] = affine_quantize(queries[i], qparams_);
        std::int32_t dist[kCamTileMax];
        std::int32_t best[kCamTileMax];
        std::fill(best, best + lb, std::numeric_limits<std::int32_t>::max());
        for (std::int64_t m = 0; m < p_; ++m) {
          const std::uint8_t* w = qwords_.data() + m * qstride_;
          std::fill(dist, dist + lb, 0);
          for (std::int64_t i = 0; i < d_; ++i) {
            const std::int32_t wi = w[i];
            const std::uint8_t* q = qq + i * lb;
            for (std::int64_t l = 0; l < lb; ++l) {
              const std::int32_t diff = static_cast<std::int32_t>(q[l]) - wi;
              dist[l] += diff < 0 ? -diff : diff;
            }
          }
          const std::int32_t m32 = static_cast<std::int32_t>(m);
          for (std::int64_t l = 0; l < lb; ++l) {
            const bool better = dist[l] < best[l];
            best[l] = better ? dist[l] : best[l];
            hit32[l] = better ? m32 : hit32[l];
          }
        }
      }
      count_into(&OpCounter::adds_q, counter, bank_port_,
                 static_cast<std::uint64_t>(2 * p_ * d_ * lb));
    } else {
      // Integer crossbar read. With q = round(x/s)+zp, the real-value dot
      // is s^2 * (sum q*w - zp*sum(w) - zp*sum(q) + d*zp^2); only the first
      // two terms vary with m, so the argmax needs just dot - zp*wsum[m].
      bool done = false;
#if defined(__AVX512BW__)
      {
        const std::int64_t dp = wpair_dp_;
        if (tl_qquery.size() < static_cast<std::size_t>(2 * dp * kCamTileMax)) {
          tl_qquery.resize(static_cast<std::size_t>(2 * dp * kCamTileMax));
        }
        if (tl_qpair.size() < static_cast<std::size_t>(dp * kCamTileMax)) {
          tl_qpair.resize(static_cast<std::size_t>(dp * kCamTileMax));
        }
        if (tl_qdot.size() < static_cast<std::size_t>(p_ * kCamTileMax)) {
          tl_qdot.resize(static_cast<std::size_t>(p_ * kCamTileMax));
        }
        std::uint8_t* qq = tl_qquery.data();
        quantize_tile_avx512(queries, lb, d_, qparams_, qq);
        if (d_ & 1) {
          std::fill(qq + d_ * kCamTileMax, qq + (d_ + 1) * kCamTileMax, std::uint8_t{0});
        }
        std::uint32_t* qp = tl_qpair.data();
        pair_tile_avx512(qq, dp, qp);
        int8_dot_rows_avx512(qp, wpairs_.data(), p_, dp, tl_qdot.data());
        std::int32_t best[kCamTileMax];
        std::fill(best, best + lb, std::numeric_limits<std::int32_t>::min());
        for (std::int64_t m = 0; m < p_; ++m) {
          const std::int32_t* row = tl_qdot.data() + m * kCamTileMax;
          const std::int32_t bias = qparams_.zero_point * qwsum_[static_cast<std::size_t>(m)];
          const std::int32_t m32 = static_cast<std::int32_t>(m);
          for (std::int64_t l = 0; l < lb; ++l) {
            const std::int32_t score = row[l] - bias;
            const bool better = score > best[l];
            best[l] = better ? score : best[l];
            hit32[l] = better ? m32 : hit32[l];
          }
        }
        done = true;
      }
#endif
      if (!done) {
        if (tl_qquery.size() < static_cast<std::size_t>(d_ * lb)) {
          tl_qquery.resize(static_cast<std::size_t>(d_ * lb));
        }
        std::uint8_t* qq = tl_qquery.data();
        for (std::int64_t i = 0; i < d_ * lb; ++i) qq[i] = affine_quantize(queries[i], qparams_);
        std::int32_t dist[kCamTileMax];
        std::int32_t best[kCamTileMax];
        std::fill(best, best + lb, std::numeric_limits<std::int32_t>::min());
        for (std::int64_t m = 0; m < p_; ++m) {
          const std::uint8_t* w = qwords_.data() + m * qstride_;
          std::fill(dist, dist + lb, 0);
          for (std::int64_t i = 0; i < d_; ++i) {
            const std::int32_t wi = w[i];
            const std::uint8_t* q = qq + i * lb;
            for (std::int64_t l = 0; l < lb; ++l) dist[l] += static_cast<std::int32_t>(q[l]) * wi;
          }
          const std::int32_t bias = qparams_.zero_point * qwsum_[static_cast<std::size_t>(m)];
          const std::int32_t m32 = static_cast<std::int32_t>(m);
          for (std::int64_t l = 0; l < lb; ++l) {
            const std::int32_t score = dist[l] - bias;
            const bool better = score > best[l];
            best[l] = better ? score : best[l];
            hit32[l] = better ? m32 : hit32[l];
          }
        }
      }
      count_into(&OpCounter::adds_q, counter, bank_port_,
                 static_cast<std::uint64_t>(p_ * d_ * lb));
      count_into(&OpCounter::muls_q, counter, bank_port_,
                 static_cast<std::uint64_t>(p_ * d_ * lb));
    }
  } else if (precision == CamPrecision::Binary) {
    if (!binary_ready_) throw std::logic_error("CamArray: prepare_quantized(Binary) not called");
    if (metric_ != SearchMetric::L1BestMatch) {
      throw std::invalid_argument(
          "CamArray: binary sign-plane search is L1-only (map Binary to Int8 for dot/softmax)");
    }
    bool done = false;
#if defined(__AVX512BW__)
    if (d_ <= 254 && p_ <= 256) {
      // Sign-byte tile for the lane-parallel Hamming scan.
      if (tl_qquery.size() < static_cast<std::size_t>(d_ * kCamTileMax)) {
        tl_qquery.resize(static_cast<std::size_t>(d_ * kCamTileMax));
      }
      std::uint8_t* sb = tl_qquery.data();
      sign_tile_avx512(queries, lb, d_, bthresh_.data(), sb);
      binary_scan_avx512(sb, wbytes_.data(), p_, d_, lb, hit32);
      done = true;
    }
#endif
    if (!done) {
      // Portable path: pack the tile's sign planes query-major
      // ([lb, bstride]) so each word-vs-query scan is a contiguous
      // XOR+popcount run.
      const std::int64_t bstride = bword_stride_;
      if (tl_bquery.size() < static_cast<std::size_t>(lb * bstride)) {
        tl_bquery.resize(static_cast<std::size_t>(lb * bstride));
      }
      std::uint64_t* qb = tl_bquery.data();
      std::fill(qb, qb + lb * bstride, 0);
      for (std::int64_t i = 0; i < d_; ++i) {
        const float* q = queries + i * lb;
        const float ti = bthresh_[static_cast<std::size_t>(i)];
        const std::int64_t word = i >> 6;
        const int shift = static_cast<int>(i & 63);
        // Branchless set: a mispredicted sign branch costs more than the
        // shift on random data.
        for (std::int64_t l = 0; l < lb; ++l) {
          qb[l * bstride + word] |= static_cast<std::uint64_t>(q[l] >= ti) << shift;
        }
      }
      std::int32_t best[kCamTileMax];
      std::fill(best, best + lb, std::numeric_limits<std::int32_t>::max());
      for (std::int64_t m = 0; m < p_; ++m) {
        const std::uint64_t* w = bwords_.data() + m * bstride;
        const std::int32_t m32 = static_cast<std::int32_t>(m);
        for (std::int64_t l = 0; l < lb; ++l) {
          const std::uint64_t* q = qb + l * bstride;
          std::int32_t ham = 0;
          for (std::int64_t t = 0; t < bstride; ++t) {
            ham += std::popcount(q[t] ^ w[t]);
          }
          const bool better = ham < best[l];
          best[l] = better ? ham : best[l];
          hit32[l] = better ? m32 : hit32[l];
        }
      }
    }
    // Same op accounting for both layouts: the byte-plane scan computes the
    // identical XOR+popcount totals, just spread across lanes.
    count_into(&OpCounter::xor_popcounts, counter, bank_port_,
               static_cast<std::uint64_t>(p_ * bword_stride_ * lb));
  } else if (metric_ == SearchMetric::L1BestMatch) {
    // Match-line noise injects here only (the Float32 spec path): word m's
    // static offset lands after its full d-term accumulation, identically
    // to the scalar search(), so blocked == scalar holds with noise on.
    const float* nz = mlnoise_.empty() ? nullptr : mlnoise_.data();
    float dist[kCamTileMax];
    float best[kCamTileMax];
    std::fill(best, best + lb, std::numeric_limits<float>::max());
    for (std::int64_t m = 0; m < p_; ++m) {
      const float* w = words_.data() + m * d_;
      std::fill(dist, dist + lb, 0.f);
      for (std::int64_t i = 0; i < d_; ++i) {
        const float wi = w[i];
        const float* q = queries + i * lb;
        for (std::int64_t l = 0; l < lb; ++l) dist[l] += std::fabs(q[l] - wi);
      }
      if (nz) {
        const float nm = nz[m];
        for (std::int64_t l = 0; l < lb; ++l) dist[l] += nm;
      }
      const std::int32_t m32 = static_cast<std::int32_t>(m);
      for (std::int64_t l = 0; l < lb; ++l) {
        const bool better = dist[l] < best[l];
        best[l] = better ? dist[l] : best[l];
        hit32[l] = better ? m32 : hit32[l];
      }
    }
    count_into(&OpCounter::adds, counter, bank_port_,
               static_cast<std::uint64_t>(2 * p_ * d_ * lb));
  } else {
    const float* nz = mlnoise_.empty() ? nullptr : mlnoise_.data();
    float dist[kCamTileMax];
    float best[kCamTileMax];
    std::fill(best, best + lb, -std::numeric_limits<float>::max());
    for (std::int64_t m = 0; m < p_; ++m) {
      const float* w = words_.data() + m * d_;
      std::fill(dist, dist + lb, 0.f);
      for (std::int64_t i = 0; i < d_; ++i) {
        const float wi = w[i];
        const float* q = queries + i * lb;
        for (std::int64_t l = 0; l < lb; ++l) dist[l] += q[l] * wi;
      }
      if (nz) {
        const float nm = nz[m];
        for (std::int64_t l = 0; l < lb; ++l) dist[l] += nm;
      }
      const std::int32_t m32 = static_cast<std::int32_t>(m);
      for (std::int64_t l = 0; l < lb; ++l) {
        const bool better = dist[l] > best[l];
        best[l] = better ? dist[l] : best[l];
        hit32[l] = better ? m32 : hit32[l];
      }
    }
    count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_ * lb));
    count_into(&OpCounter::muls, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_ * lb));
  }
  count_into(&OpCounter::cam_searches, counter, bank_port_, static_cast<std::uint64_t>(lb));
  record_usage_block_i32(hit32, lb);
}

void CamArray::search_accumulate_block(const float* queries, std::int64_t lb, const LutMemory& lut,
                                       float* out, std::int64_t out_stride, OpCounter& counter,
                                       CamPrecision precision) const {
  if (lb <= 0) return;
  if (lb > kCamTileMax) throw std::invalid_argument("CamArray: tile larger than kCamTileMax");
  if (lut.entries() != p_) {
    throw std::invalid_argument("CamArray: LUT entry count does not match word count");
  }
  std::int32_t hit32[kCamTileMax];
  search_block_core(queries, lb, hit32, counter, precision);
  // Fused epilogue: the winners go straight into the LUT row sweep while
  // still hot. hits are < p_ by construction, so unlike
  // LutMemory::accumulate no per-element bounds check is needed. Each
  // output element receives EXACTLY ONE add (one LUT entry per query
  // column), so any sweep order is bitwise-equal to per-column scalar
  // accumulates — freedom the gathered sweep below uses.
  const float* table = lut.table().data();
  const std::int64_t cout = lut.cout();
#if defined(__AVX512F__)
  // Hit indices live in registers across the whole sweep; each LUT row is
  // read with one 16-lane gather per query chunk instead of lb dependent
  // scalar loads.
  const std::int64_t nchunk = (lb + 15) / 16;
  __m512i idx[kCamTileMax / 16];
  __mmask16 mks[kCamTileMax / 16];
  for (std::int64_t k = 0; k < nchunk; ++k) {
    const std::int64_t l = 16 * k;
    // Tail lanes hold stack garbage — the masked gather never dereferences
    // them.
    mks[k] = lb - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                          : static_cast<__mmask16>((1u << (lb - l)) - 1);
    idx[k] = _mm512_maskz_loadu_epi32(mks[k], hit32 + l);
  }
  for (std::int64_t c = 0; c < cout; ++c) {
    const float* row = table + c * p_;
    float* o = out + c * out_stride;
    for (std::int64_t k = 0; k < nchunk; ++k) {
      const std::int64_t l = 16 * k;
      const __m512 g = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), mks[k], idx[k], row, 4);
      const __m512 ov = _mm512_maskz_loadu_ps(mks[k], o + l);
      _mm512_mask_storeu_ps(o + l, mks[k], _mm512_add_ps(ov, g));
    }
  }
#else
  for (std::int64_t c = 0; c < cout; ++c) {
    const float* row = table + c * p_;
    float* o = out + c * out_stride;
    for (std::int64_t l = 0; l < lb; ++l) o[l] += row[hit32[l]];
  }
#endif
  count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(cout * lb));
  count_into(&OpCounter::lut_reads, counter, bank_port_, static_cast<std::uint64_t>(lb));
}

void CamArray::similarity_softmax_accumulate_block(const float* queries, std::int64_t lb,
                                                   float temperature, const LutMemory& lut,
                                                   float* scores, float* out,
                                                   std::int64_t out_stride, OpCounter& counter,
                                                   CamPrecision precision) const {
  if (lb <= 0) return;
  if (lb > kCamTileMax) throw std::invalid_argument("CamArray: tile larger than kCamTileMax");
  if (lut.entries() != p_) {
    throw std::invalid_argument("CamArray: LUT entry count does not match word count");
  }
  if (precision == CamPrecision::Binary) {
    throw std::invalid_argument(
        "CamArray: binary sign-plane has no match-line magnitudes; use Int8 for softmax layers");
  }
  if (precision == CamPrecision::Int8) {
    if (!int8_ready_) throw std::logic_error("CamArray: prepare_quantized(Int8) not called");
    // Integer crossbar read, dequantized to real-value scores so the softmax
    // temperature keeps its calibrated meaning:
    //   score = s^2 * (sum q*w - zp*wsum[m] - zp*qsum[l] + d*zp^2).
    const std::int32_t zp = qparams_.zero_point;
    const float s2 = qparams_.scale * qparams_.scale;
    const std::int32_t dzp2 = static_cast<std::int32_t>(d_) * zp * zp;
    std::int32_t qsum[kCamTileMax];
    std::fill(qsum, qsum + lb, 0);
#if defined(__AVX512BW__)
    const std::int64_t dp = wpair_dp_;
    if (tl_qquery.size() < static_cast<std::size_t>(2 * dp * kCamTileMax)) {
      tl_qquery.resize(static_cast<std::size_t>(2 * dp * kCamTileMax));
    }
    if (tl_qpair.size() < static_cast<std::size_t>(dp * kCamTileMax)) {
      tl_qpair.resize(static_cast<std::size_t>(dp * kCamTileMax));
    }
    if (tl_qdot.size() < static_cast<std::size_t>(p_ * kCamTileMax)) {
      tl_qdot.resize(static_cast<std::size_t>(p_ * kCamTileMax));
    }
    std::uint8_t* qq = tl_qquery.data();
    quantize_tile_avx512(queries, lb, d_, qparams_, qq);
    if (d_ & 1) {
      std::fill(qq + d_ * kCamTileMax, qq + (d_ + 1) * kCamTileMax, std::uint8_t{0});
    }
    std::uint32_t* qp = tl_qpair.data();
    pair_tile_avx512(qq, dp, qp);
    // Per-query code sums for the zero-point correction; next to the exp
    // calls below this scalar pass is noise.
    for (std::int64_t i = 0; i < d_; ++i) {
      const std::uint8_t* qrow = qq + i * kCamTileMax;
      for (std::int64_t l = 0; l < lb; ++l) qsum[l] += qrow[l];
    }
    int8_dot_rows_avx512(qp, wpairs_.data(), p_, dp, tl_qdot.data());
    for (std::int64_t m = 0; m < p_; ++m) {
      const std::int32_t* dot = tl_qdot.data() + m * kCamTileMax;
      const std::int32_t bias = zp * qwsum_[static_cast<std::size_t>(m)] - dzp2;
      float* row = scores + m * lb;
      for (std::int64_t l = 0; l < lb; ++l) {
        row[l] = s2 * static_cast<float>(dot[l] - bias - zp * qsum[l]);
      }
    }
#else
    if (tl_qquery.size() < static_cast<std::size_t>(d_ * lb)) {
      tl_qquery.resize(static_cast<std::size_t>(d_ * lb));
    }
    std::uint8_t* qq = tl_qquery.data();
    for (std::int64_t i = 0; i < d_ * lb; ++i) qq[i] = affine_quantize(queries[i], qparams_);
    for (std::int64_t i = 0; i < d_; ++i) {
      const std::uint8_t* q = qq + i * lb;
      for (std::int64_t l = 0; l < lb; ++l) qsum[l] += q[l];
    }
    std::int32_t dot[kCamTileMax];
    for (std::int64_t m = 0; m < p_; ++m) {
      const std::uint8_t* w = qwords_.data() + m * qstride_;
      std::fill(dot, dot + lb, 0);
      for (std::int64_t i = 0; i < d_; ++i) {
        const std::int32_t wi = w[i];
        const std::uint8_t* q = qq + i * lb;
        for (std::int64_t l = 0; l < lb; ++l) dot[l] += static_cast<std::int32_t>(q[l]) * wi;
      }
      const std::int32_t bias = zp * qwsum_[static_cast<std::size_t>(m)] - dzp2;
      float* row = scores + m * lb;
      for (std::int64_t l = 0; l < lb; ++l) {
        row[l] = s2 * static_cast<float>(dot[l] - bias - zp * qsum[l]);
      }
    }
#endif
    count_into(&OpCounter::cam_searches, counter, bank_port_, static_cast<std::uint64_t>(lb));
    count_into(&OpCounter::adds_q, counter, bank_port_,
               static_cast<std::uint64_t>(p_ * d_ * lb));
    count_into(&OpCounter::muls_q, counter, bank_port_,
               static_cast<std::uint64_t>(p_ * d_ * lb));
  } else {
    similarity_scores_block(queries, lb, scores, counter);
  }
  // Column softmax of the [p, lb] score tile, in place — same per-element
  // operations as the scalar path (float exp, double denominator, one float
  // normalize multiply) so the Float32 fused path stays bitwise-identical
  // to the scalar similarity_scores + softmax + weighted_accumulate spec.
  std::int32_t hit32[kCamTileMax];
  for (std::int64_t l = 0; l < lb; ++l) {
    float mx = scores[l];
    std::int32_t best = 0;
    for (std::int64_t m = 1; m < p_; ++m) {
      const float v = scores[m * lb + l];
      if (v > mx) {
        mx = v;
        best = static_cast<std::int32_t>(m);
      }
    }
    hit32[l] = best;
    double denom = 0;
    for (std::int64_t m = 0; m < p_; ++m) {
      float& v = scores[m * lb + l];
      v = std::exp((v - mx) / temperature);
      denom += v;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t m = 0; m < p_; ++m) scores[m * lb + l] *= inv;
  }
  record_usage_block_i32(hit32, lb);
  lut.weighted_accumulate_block(scores, lb, out, out_stride, counter, bank_port_);
}

void CamArray::similarity_scores_block(const float* queries, std::int64_t lb, float* scores,
                                       OpCounter& counter) const {
  if (lb <= 0) return;
  if (lb > kCamTileMax) throw std::invalid_argument("CamArray: tile larger than kCamTileMax");
  const float* nz = mlnoise_.empty() ? nullptr : mlnoise_.data();
  for (std::int64_t m = 0; m < p_; ++m) {
    const float* w = words_.data() + m * d_;
    float* row = scores + m * lb;
    std::fill(row, row + lb, 0.f);
    for (std::int64_t i = 0; i < d_; ++i) {
      const float wi = w[i];
      const float* q = queries + i * lb;
      for (std::int64_t l = 0; l < lb; ++l) row[l] += q[l] * wi;
    }
    if (nz) {
      const float nm = nz[m];
      for (std::int64_t l = 0; l < lb; ++l) row[l] += nm;
    }
  }
  count_into(&OpCounter::cam_searches, counter, bank_port_, static_cast<std::uint64_t>(lb));
  count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_ * lb));
  count_into(&OpCounter::muls, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_ * lb));
}

void CamArray::record_usage_block_i32(const std::int32_t* hits, std::int64_t lb) const {
  if (lb <= 0) return;
  if (lb > kCamTileMax) throw std::invalid_argument("CamArray: tile larger than kCamTileMax");
  // Aggregate before touching the shared histogram: lb hits usually land on
  // a handful of distinct words, so this turns lb atomics into a few. The
  // scratch vector is kept all-zero between calls (entries are reset as
  // they are flushed), so only `touched` distinct words cost anything.
  thread_local std::vector<std::uint32_t> counts;
  if (counts.size() < static_cast<std::size_t>(p_)) counts.resize(static_cast<std::size_t>(p_), 0);
  std::int32_t touched[kCamTileMax];
  std::int64_t nt = 0;
  for (std::int64_t l = 0; l < lb; ++l) {
    const std::size_t m = static_cast<std::size_t>(hits[l]);
    if (counts[m]++ == 0) touched[nt++] = hits[l];
  }
  for (std::int64_t t = 0; t < nt; ++t) {
    const std::size_t m = static_cast<std::size_t>(touched[t]);
    std::atomic_ref<std::uint64_t>(usage_[m]).fetch_add(counts[m], std::memory_order_relaxed);
    counts[m] = 0;
  }
}

void CamArray::similarity_scores(const float* query, std::int64_t stride, float* scores,
                                 OpCounter& counter) const {
  count_into(&OpCounter::cam_searches, counter, bank_port_, 1);
  const float* nz = mlnoise_.empty() ? nullptr : mlnoise_.data();
  for (std::int64_t m = 0; m < p_; ++m) {
    const float* w = words_.data() + m * d_;
    float score = 0.f;
    for (std::int64_t i = 0; i < d_; ++i) score += query[i * stride] * w[i];
    if (nz) score += nz[m];
    scores[m] = score;
  }
  count_into(&OpCounter::adds, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_));
  count_into(&OpCounter::muls, counter, bank_port_, static_cast<std::uint64_t>(p_ * d_));
}

void CamArray::set_matchline_noise(std::vector<float> offsets) {
  if (static_cast<std::int64_t>(offsets.size()) != p_) {
    throw std::invalid_argument("CamArray: matchline noise needs one offset per word (" +
                                std::to_string(p_) + "), got " +
                                std::to_string(offsets.size()));
  }
  mlnoise_ = std::move(offsets);
}

std::vector<std::int64_t> CamArray::prune_unused() {
  std::vector<std::int64_t> kept;
  for (std::int64_t m = 0; m < p_; ++m) {
    if (usage_[static_cast<std::size_t>(m)] > 0) kept.push_back(m);
  }
  if (kept.empty()) kept.push_back(0);  // never leave an empty array
  Tensor compact({static_cast<std::int64_t>(kept.size()), d_});
  std::vector<std::uint64_t> usage_compact;
  usage_compact.reserve(kept.size());
  std::vector<float> noise_compact;
  if (!mlnoise_.empty()) noise_compact.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const float* src = words_.data() + kept[i] * d_;
    std::copy(src, src + d_, compact.data() + static_cast<std::int64_t>(i) * d_);
    usage_compact.push_back(usage_[static_cast<std::size_t>(kept[i])]);
    // A word keeps its match-line offset across pruning: the offset models
    // the physical line the word stays on.
    if (!mlnoise_.empty()) noise_compact.push_back(mlnoise_[static_cast<std::size_t>(kept[i])]);
  }
  words_ = std::move(compact);
  p_ = words_.dim(0);
  usage_ = std::move(usage_compact);
  mlnoise_ = std::move(noise_compact);
  // Quantized planes snapshot the words, so pruning invalidates them;
  // rebuild whichever planes were already prepared.
  if (int8_ready_) prepare_quantized(CamPrecision::Int8);
  if (binary_ready_) prepare_quantized(CamPrecision::Binary);
  return kept;
}

}  // namespace pecan::cam
