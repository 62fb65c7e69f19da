// Kernel bodies shared by every ISA variant. Each variant TU defines
// PECAN_KERNELS_NS, includes this file once, and is compiled with its own
// -m flags; intrinsic paths switch on the compiler's __AVX512BW__/__AVX__
// macros, everything else is portable C++ the compiler vectorizes for the
// variant's ISA. Rules for this file (see kernels.hpp): plain pointers and
// caller-sized scratch only — no std:: templates or inline functions, no
// allocation, no exceptions — and every helper in an anonymous namespace.
#ifndef PECAN_KERNELS_NS
#error "define PECAN_KERNELS_NS before including kernels_impl.hpp"
#endif

#include <float.h>
#include <math.h>
#include <string.h>

#include <cstdint>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "kernels/kernels.hpp"

namespace pecan::kernels::PECAN_KERNELS_NS {

namespace {

constexpr std::int64_t kT = kTileMax;

/// Callers guarantee 1 <= lb <= kTileMax (the baseline TU checks and
/// throws). Saying so lets the compiler fully unroll the short lane loops:
/// without it the float dot scan measured ~1.6x slower (g++ 12, baseline
/// variant, AVX-512 Xeon).
inline void assume_tile(std::int64_t lb) {
  if (lb < 1 || lb > kT) __builtin_unreachable();
}

inline void fill_i32(std::int32_t* p, std::int64_t n, std::int32_t v) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = v;
}
inline void fill_f32(float* p, std::int64_t n, float v) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = v;
}

/// Branchless winner-take-all update for one word over a tile: a strict
/// comparison on ascending m keeps the scalar lowest-index tie-break.
template <bool kLess, typename V>
inline void take_winners(const V* dist, V* best, std::int32_t* hit32, std::int64_t lb,
                         std::int64_t m) {
  const std::int32_t m32 = static_cast<std::int32_t>(m);
  for (std::int64_t l = 0; l < lb; ++l) {
    const bool better = kLess ? dist[l] < best[l] : dist[l] > best[l];
    best[l] = better ? dist[l] : best[l];
    hit32[l] = better ? m32 : hit32[l];
  }
}

// ------------------------------------------------------------ float scans

// Tile-wide running state stays on the stack (lb <= kTileMax): one stored
// word versus lb contiguous queries, unit-stride inner loops over l.
// Match-line noise lands after each word's full d-term accumulation, the
// same point the scalar search() applies it. L1 takes the argmin of
// sum |q - w|, dot the argmax of sum q * w.
template <bool kL1>
void search_f32(const CamView& a, const float* queries, std::int64_t lb, const CamScratch&,
                std::int32_t* hit32) {
  assume_tile(lb);
  float dist[kT];
  float best[kT];
  fill_f32(best, lb, kL1 ? FLT_MAX : -FLT_MAX);
  fill_i32(hit32, lb, 0);
  for (std::int64_t m = 0; m < a.p; ++m) {
    const float* w = a.words + m * a.d;
    fill_f32(dist, lb, 0.f);
    for (std::int64_t i = 0; i < a.d; ++i) {
      const float wi = w[i];
      const float* q = queries + i * lb;
      for (std::int64_t l = 0; l < lb; ++l) dist[l] += kL1 ? fabsf(q[l] - wi) : q[l] * wi;
    }
    if (a.noise) {
      const float nm = a.noise[m];
      for (std::int64_t l = 0; l < lb; ++l) dist[l] += nm;
    }
    take_winners<kL1>(dist, best, hit32, lb, m);
  }
}

void scores_f32(const CamView& a, const float* queries, std::int64_t lb, const CamScratch&,
                float* scores) {
  assume_tile(lb);
  for (std::int64_t m = 0; m < a.p; ++m) {
    const float* w = a.words + m * a.d;
    float* row = scores + m * lb;
    fill_f32(row, lb, 0.f);
    for (std::int64_t i = 0; i < a.d; ++i) {
      const float wi = w[i];
      const float* q = queries + i * lb;
      for (std::int64_t l = 0; l < lb; ++l) row[l] += q[l] * wi;
    }
    if (a.noise) {
      const float nm = a.noise[m];
      for (std::int64_t l = 0; l < lb; ++l) row[l] += nm;
    }
  }
}

// ------------------------------------------------- portable quantized scans

/// Quantizes a dim-major [d, lb] tile into [d, lb] uint8 codes.
void quantize_tile(const CamView& a, const float* queries, std::int64_t lb, std::uint8_t* qq) {
  for (std::int64_t i = 0; i < a.d * lb; ++i) qq[i] = affine_quantize(queries[i], a.q);
}

/// Raw int32 code dot products of word m against a [d, lb] code tile.
[[maybe_unused]] void int8_dot_row(const CamView& a, const std::uint8_t* qq, std::int64_t lb,
                                   std::int64_t m, std::int32_t* dot) {
  const std::uint8_t* w = a.qwords + m * a.qstride;
  fill_i32(dot, lb, 0);
  for (std::int64_t i = 0; i < a.d; ++i) {
    const std::int32_t wi = w[i];
    const std::uint8_t* q = qq + i * lb;
    for (std::int64_t l = 0; l < lb; ++l) dot[l] += static_cast<std::int32_t>(q[l]) * wi;
  }
}

void int8_l1_portable(const CamView& a, const float* queries, std::int64_t lb,
                      const CamScratch& s, std::int32_t* hit32) {
  std::uint8_t* qq = s.qquery;
  quantize_tile(a, queries, lb, qq);
  std::int32_t dist[kT];
  std::int32_t best[kT];
  fill_i32(best, lb, INT32_MAX);
  for (std::int64_t m = 0; m < a.p; ++m) {
    const std::uint8_t* w = a.qwords + m * a.qstride;
    fill_i32(dist, lb, 0);
    for (std::int64_t i = 0; i < a.d; ++i) {
      const std::int32_t wi = w[i];
      const std::uint8_t* q = qq + i * lb;
      for (std::int64_t l = 0; l < lb; ++l) {
        const std::int32_t diff = static_cast<std::int32_t>(q[l]) - wi;
        dist[l] += diff < 0 ? -diff : diff;
      }
    }
    take_winners<true>(dist, best, hit32, lb, m);
  }
}

void binary_portable(const CamView& a, const float* queries, std::int64_t lb,
                     const CamScratch& s, std::int32_t* hit32) {
  // Pack the tile's sign planes query-major ([lb, bstride]) so each
  // word-vs-query scan is a contiguous XOR+popcount run.
  const std::int64_t bstride = a.bword_stride;
  std::uint64_t* qb = s.bquery;
  for (std::int64_t t = 0; t < lb * bstride; ++t) qb[t] = 0;
  for (std::int64_t i = 0; i < a.d; ++i) {
    const float* q = queries + i * lb;
    const float ti = a.bthresh[i];
    const std::int64_t word = i >> 6;
    const int shift = static_cast<int>(i & 63);
    // Branchless set: a mispredicted sign branch costs more than the shift
    // on random data.
    for (std::int64_t l = 0; l < lb; ++l) {
      qb[l * bstride + word] |= static_cast<std::uint64_t>(q[l] >= ti) << shift;
    }
  }
  std::int32_t ham[kT];
  std::int32_t best[kT];
  fill_i32(best, lb, INT32_MAX);
  for (std::int64_t m = 0; m < a.p; ++m) {
    const std::uint64_t* w = a.bwords + m * bstride;
    for (std::int64_t l = 0; l < lb; ++l) {
      const std::uint64_t* q = qb + l * bstride;
      ham[l] = 0;
      for (std::int64_t t = 0; t < bstride; ++t) ham[l] += __builtin_popcountll(q[t] ^ w[t]);
    }
    take_winners<true>(ham, best, hit32, lb, m);
  }
}

#if defined(__AVX512BW__)

// -------------------------------------------------- AVX-512 quantized scans

/// Lanes [l, lb) of a 16-lane chunk as a mask.
inline __mmask16 tail_mask16(std::int64_t lb, std::int64_t l) {
  return lb - l >= 16 ? static_cast<__mmask16>(0xFFFF)
                      : static_cast<__mmask16>((1u << (lb - l)) - 1);
}

/// 8x16 byte transpose from the dim-major code tile into the query-major
/// layout the SAD scan wants: group g's 512-byte block holds, for each query
/// l, its 8 codes of dimensions 8g..8g+7 as one contiguous u64 at byte
/// offset 8l. Three unpack levels, no cross-lane shuffles.
void oct_transpose_avx512(const std::uint8_t* qq, std::int64_t ngroups, std::uint8_t* qt) {
  for (std::int64_t g = 0; g < ngroups; ++g) {
    const std::uint8_t* rows = qq + g * 8 * kT;
    std::uint8_t* dst = qt + g * 8 * kT;
    for (std::int64_t c = 0; c < 4; ++c) {
      __m128i r[8];
      for (int i = 0; i < 8; ++i) {
        r[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i * kT + c * 16));
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
/// all (strict < on ascending m keeps the scalar lowest-index tie-break).
/// Lanes >= lb carry garbage and are never extracted.
void int8_l1_scan_avx512(const std::uint8_t* qt, const std::uint8_t* words, std::int64_t p,
                         std::int64_t ngroups, std::int64_t wstride, std::int64_t lb,
                         std::int32_t* hit32) {
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
      memcpy(&w8, w + 8 * g, sizeof(w8));
      const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w8));
      const std::uint8_t* q = qt + g * 8 * kT;
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
  alignas(64) std::int32_t hb[kT];
  for (int k = 0; k < 4; ++k) _mm512_storeu_si512(hb + 16 * k, hit[k]);
  for (std::int64_t l = 0; l < lb; ++l) hit32[l] = hb[l];
}

/// Binary Hamming scan in the sign BYTE plane: the XOR+popcount of the
/// packed-word spec with the popcount distributed across 64 uint8 query
/// lanes — each step XORs one dimension's sign bytes (0/1) against the
/// word's sign byte and adds, so after d steps each lane holds the exact
/// Hamming distance (d <= 254 keeps uint8 exact AND below the 0xFF init).
/// Winner indices live in uint8 lanes, so p <= 256.
void binary_scan_avx512(const std::uint8_t* sb, const std::uint8_t* wbytes, std::int64_t p,
                        std::int64_t d, std::int64_t lb, std::int32_t* hit32) {
  __m512i best = _mm512_set1_epi8(-1);
  __m512i hit = _mm512_setzero_si512();
  for (std::int64_t m = 0; m < p; ++m) {
    const std::uint8_t* w = wbytes + m * d;
    __m512i acc = _mm512_setzero_si512();
    for (std::int64_t i = 0; i < d; ++i) {
      const __m512i s = _mm512_loadu_si512(sb + i * kT);
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
/// (no zero-point correction) as [p, kTileMax] rows.
void int8_dot_rows_avx512(const std::uint32_t* qpair, const std::uint32_t* wpairs,
                          std::int64_t p, std::int64_t dp, std::int32_t* dot) {
  for (std::int64_t m = 0; m < p; ++m) {
    const std::uint32_t* wp = wpairs + m * dp;
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
    for (std::int64_t ip = 0; ip < dp; ++ip) {
      const __m512i wv = _mm512_set1_epi32(static_cast<int>(wp[ip]));
      const std::uint32_t* q = qpair + ip * kT;
      a0 = _mm512_add_epi32(a0, _mm512_madd_epi16(_mm512_loadu_si512(q), wv));
      a1 = _mm512_add_epi32(a1, _mm512_madd_epi16(_mm512_loadu_si512(q + 16), wv));
      a2 = _mm512_add_epi32(a2, _mm512_madd_epi16(_mm512_loadu_si512(q + 32), wv));
      a3 = _mm512_add_epi32(a3, _mm512_madd_epi16(_mm512_loadu_si512(q + 48), wv));
    }
    std::int32_t* row = dot + m * kT;
    _mm512_storeu_si512(row, a0);
    _mm512_storeu_si512(row + 16, a1);
    _mm512_storeu_si512(row + 32, a2);
    _mm512_storeu_si512(row + 48, a3);
  }
}

/// Vectorized replica of affine_quantize over a dim-major [d, lb] query
/// block, written as [d, kTileMax] uint8 rows: multiply by inv_scale, add
/// copysign(0.5), truncate (CVTT rounds toward zero, exactly the scalar
/// cast), add the zero point, clamp to [0, 255]. Lane for lane the codes are
/// bitwise-identical to the scalar helper. Tail lanes load an implicit 0.0f
/// (masked load) and quantize to the clamped zero point — garbage the scans
/// carry but never extract.
void quantize_tile_avx512(const float* queries, std::int64_t lb, std::int64_t d,
                          const AffineQuant& qp, std::uint8_t* qq) {
  const __m512 inv = _mm512_set1_ps(qp.inv_scale);
  const __m512i half = _mm512_castps_si512(_mm512_set1_ps(0.5f));
  const __m512i signbit = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512i zp = _mm512_set1_epi32(qp.zero_point);
  const __m512i hi255 = _mm512_set1_epi32(255);
  for (std::int64_t i = 0; i < d; ++i) {
    const float* q = queries + i * lb;
    std::uint8_t* row = qq + i * kT;
    for (std::int64_t l = 0; l < lb; l += 16) {
      const __m512 r = _mm512_mul_ps(_mm512_maskz_loadu_ps(tail_mask16(lb, l), q + l), inv);
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
void sign_tile_avx512(const float* queries, std::int64_t lb, std::int64_t d,
                      const float* thresh, std::uint8_t* sb) {
  for (std::int64_t i = 0; i < d; ++i) {
    const __m512 tv = _mm512_set1_ps(thresh[i]);
    const float* q = queries + i * lb;
    std::uint8_t* row = sb + i * kT;
    for (std::int64_t l = 0; l < lb; l += 16) {
      const __mmask16 ge =
          _mm512_cmp_ps_mask(_mm512_maskz_loadu_ps(tail_mask16(lb, l), q + l), tv, _CMP_GE_OQ);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(row + l),
                       _mm512_cvtepi32_epi8(_mm512_maskz_set1_epi32(ge, 1)));
    }
  }
}

/// Interleaves adjacent quantized rows of a [2*dp, kTileMax] code tile
/// into the VPMADDWD pair layout: uint32 lane l of row ip = code(2ip) |
/// code(2ip+1) << 16. The caller zeroes row d when d is odd so the pad
/// half contributes 0 to every product.
void pair_tile_avx512(const std::uint8_t* qq, std::int64_t dp, std::uint32_t* qp) {
  for (std::int64_t ip = 0; ip < dp; ++ip) {
    const std::uint8_t* lo = qq + (2 * ip) * kT;
    const std::uint8_t* hi = lo + kT;
    std::uint32_t* row = qp + ip * kT;
    for (std::int64_t l = 0; l < kT; l += 16) {
      const __m512i a =
          _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(lo + l)));
      const __m512i b =
          _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(hi + l)));
      _mm512_storeu_si512(row + l, _mm512_or_si512(a, _mm512_slli_epi32(b, 16)));
    }
  }
}

/// Quantizes the tile as [d, kTileMax] rows (row d zeroed for odd d) and
/// runs the VPMADDWD read into s.qdot as [p, kTileMax] raw dot rows.
/// Returns the code tile.
const std::uint8_t* int8_dot_tile_avx512(const CamView& a, const float* queries,
                                         std::int64_t lb, const CamScratch& s) {
  std::uint8_t* qq = s.qquery;
  quantize_tile_avx512(queries, lb, a.d, a.q, qq);
  if (a.d & 1) memset(qq + a.d * kT, 0, static_cast<std::size_t>(kT));
  pair_tile_avx512(qq, a.wpair_dp, s.qpair);
  int8_dot_rows_avx512(s.qpair, a.wpairs, a.p, a.wpair_dp, s.qdot);
  return qq;
}

#endif  // __AVX512BW__

// ------------------------------------------------------ quantized entries

// |q - w| in codes: the zero point cancels, so the integer argmin agrees
// with the quantized-value L1 argmin exactly.
void search_int8_l1(const CamView& a, const float* queries, std::int64_t lb,
                    const CamScratch& s, std::int32_t* hit32) {
  assume_tile(lb);
  fill_i32(hit32, lb, 0);
#if defined(__AVX512BW__)
  if (a.p <= INT32_MAX && a.d < (std::int64_t{1} << 24)) {
    const std::int64_t ngroups = (a.d + 7) / 8;
    const std::int64_t dpad = 8 * ngroups;
    std::uint8_t* qq = s.qquery;
    std::uint8_t* qt = qq + dpad * kT;
    quantize_tile_avx512(queries, lb, a.d, a.q, qq);
    // Pad dimensions must read 0 on BOTH sides — the word rows are
    // zero-padded — so the SAD groups past d contribute nothing.
    if (dpad > a.d) memset(qq + a.d * kT, 0, static_cast<std::size_t>((dpad - a.d) * kT));
    oct_transpose_avx512(qq, ngroups, qt);
    int8_l1_scan_avx512(qt, a.qwords, a.p, ngroups, a.qstride, lb, hit32);
    return;
  }
#endif
  int8_l1_portable(a, queries, lb, s, hit32);
}

// Integer crossbar read. With q = round(x/s)+zp, the real-value dot is
// s^2 * (sum q*w - zp*sum(w) - zp*sum(q) + d*zp^2); only the first two
// terms vary with m, so the argmax needs just dot - zp*wsum[m].
void search_int8_dot(const CamView& a, const float* queries, std::int64_t lb,
                     const CamScratch& s, std::int32_t* hit32) {
  assume_tile(lb);
  fill_i32(hit32, lb, 0);
  std::int32_t best[kT];
  fill_i32(best, lb, INT32_MIN);
  std::int32_t score[kT];
#if defined(__AVX512BW__)
  int8_dot_tile_avx512(a, queries, lb, s);
#else
  quantize_tile(a, queries, lb, s.qquery);
  std::int32_t dot[kT];
#endif
  for (std::int64_t m = 0; m < a.p; ++m) {
#if defined(__AVX512BW__)
    const std::int32_t* dot = s.qdot + m * kT;
#else
    int8_dot_row(a, s.qquery, lb, m, dot);
#endif
    const std::int32_t bias = a.q.zero_point * a.qwsum[m];
    for (std::int64_t l = 0; l < lb; ++l) score[l] = dot[l] - bias;
    take_winners<false>(score, best, hit32, lb, m);
  }
}

void search_binary(const CamView& a, const float* queries, std::int64_t lb, const CamScratch& s,
                   std::int32_t* hit32) {
  assume_tile(lb);
  fill_i32(hit32, lb, 0);
#if defined(__AVX512BW__)
  if (a.d <= 254 && a.p <= 256) {
    sign_tile_avx512(queries, lb, a.d, a.bthresh, s.qquery);
    binary_scan_avx512(s.qquery, a.wbytes, a.p, a.d, lb, hit32);
    return;
  }
#endif
  binary_portable(a, queries, lb, s, hit32);
}

// Integer crossbar read, dequantized to real-value scores so the softmax
// temperature keeps its calibrated meaning:
//   score = s^2 * (sum q*w - zp*wsum[m] - zp*qsum[l] + d*zp^2).
void scores_int8(const CamView& a, const float* queries, std::int64_t lb, const CamScratch& s,
                 float* scores) {
  assume_tile(lb);
  const std::int32_t zp = a.q.zero_point;
  const float s2 = a.q.scale * a.q.scale;
  const std::int32_t dzp2 = static_cast<std::int32_t>(a.d) * zp * zp;
#if defined(__AVX512BW__)
  const std::uint8_t* qq = int8_dot_tile_avx512(a, queries, lb, s);
  const std::int64_t qrow = kT;
#else
  std::uint8_t* qq = s.qquery;
  quantize_tile(a, queries, lb, qq);
  const std::int64_t qrow = lb;
  std::int32_t dot[kT];
#endif
  // Per-query code sums for the zero-point correction; next to the exp
  // calls of the softmax this scalar pass is noise.
  std::int32_t qsum[kT];
  fill_i32(qsum, lb, 0);
  for (std::int64_t i = 0; i < a.d; ++i) {
    for (std::int64_t l = 0; l < lb; ++l) qsum[l] += qq[i * qrow + l];
  }
  for (std::int64_t m = 0; m < a.p; ++m) {
#if defined(__AVX512BW__)
    const std::int32_t* dot = s.qdot + m * kT;
#else
    int8_dot_row(a, qq, lb, m, dot);
#endif
    const std::int32_t bias = zp * a.qwsum[m] - dzp2;
    float* row = scores + m * lb;
    for (std::int64_t l = 0; l < lb; ++l) {
      row[l] = s2 * static_cast<float>(dot[l] - bias - zp * qsum[l]);
    }
  }
}

// ---------------------------------------------------------------- epilogues

void softmax_columns(float* scores, std::int64_t p, std::int64_t lb, float temperature,
                     std::int32_t* hit32) {
  assume_tile(lb);
  for (std::int64_t l = 0; l < lb; ++l) {
    float mx = scores[l];
    std::int32_t best = 0;
    for (std::int64_t m = 1; m < p; ++m) {
      const float v = scores[m * lb + l];
      if (v > mx) {
        mx = v;
        best = static_cast<std::int32_t>(m);
      }
    }
    hit32[l] = best;
    double denom = 0;
    for (std::int64_t m = 0; m < p; ++m) {
      float& v = scores[m * lb + l];
      v = expf((v - mx) / temperature);
      denom += v;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t m = 0; m < p; ++m) scores[m * lb + l] *= inv;
  }
}

// Each output element receives EXACTLY ONE add (one LUT entry per query
// column), so any sweep order is bitwise-equal to per-column scalar
// accumulates. hits are < p by construction: no bounds check.
void lut_accumulate(const float* table, std::int64_t cout, std::int64_t p,
                    const std::int32_t* hit32, std::int64_t lb, float* out,
                    std::int64_t out_stride) {
  assume_tile(lb);
  std::int64_t tail = 0;  // first lane the scalar loop below handles
#if defined(__AVX512F__)
  // Hit indices live in registers across the whole sweep; each LUT row is
  // read with one 16-lane gather per full query chunk instead of 16
  // dependent scalar loads. Only full chunks: a partial chunk needs masked
  // loads/stores, and with the short rows of FC layers (out_stride = 1) a
  // masked store into row c stalls the masked load of row c + 1 in the
  // same cache line — measured 2x slower than the scalar loop at lb = 1
  // (g++ 12, AVX-512 Xeon).
  const std::int64_t nchunk = lb / 16;
  __m512i idx[kT / 16];
  for (std::int64_t k = 0; k < nchunk; ++k) {
    idx[k] = _mm512_loadu_si512(hit32 + 16 * k);
  }
  for (std::int64_t c = 0; c < cout && nchunk > 0; ++c) {
    const float* row = table + c * p;
    float* o = out + c * out_stride;
    for (std::int64_t k = 0; k < nchunk; ++k) {
      const __m512 g = _mm512_i32gather_ps(idx[k], row, 4);
      _mm512_storeu_ps(o + 16 * k, _mm512_add_ps(_mm512_loadu_ps(o + 16 * k), g));
    }
  }
  tail = 16 * nchunk;
#endif
  for (std::int64_t c = 0; c < cout && tail < lb; ++c) {
    const float* row = table + c * p;
    float* o = out + c * out_stride;
    for (std::int64_t l = tail; l < lb; ++l) o[l] += row[hit32[l]];
  }
}

// A [cout, lb] += [cout, p] x [p, lb] micro-product: the table row and the
// weight rows stream unit-stride, and the stack accumulator keeps the
// per-element m-order serial (bitwise contract).
void lut_weighted_accumulate(const float* table, std::int64_t cout, std::int64_t p,
                             const float* weights, std::int64_t lb, float* out,
                             std::int64_t out_stride) {
  assume_tile(lb);
  float acc[kT];
  for (std::int64_t c = 0; c < cout; ++c) {
    const float* row = table + c * p;
    fill_f32(acc, lb, 0.f);
    for (std::int64_t m = 0; m < p; ++m) {
      const float t = row[m];
      const float* wrow = weights + m * lb;
      for (std::int64_t l = 0; l < lb; ++l) acc[l] += wrow[l] * t;
    }
    float* o = out + c * out_stride;
    for (std::int64_t l = 0; l < lb; ++l) o[l] += acc[l];
  }
}

// -------------------------------------------------------------------- sgemm

// Register-blocking geometry: each micro-kernel call produces an MrxNr C
// tile from a packed A panel and Nr consecutive B columns, sized to the
// variant's vector register file:
//   * AVX-512: 12x16 — 24 ymm accumulators, using the 32-register file
//     AVX-512VL gives 8-wide vectors. (A 6x32 zmm tile measured ~2x slower
//     with g++ 12 on an AVX-512 Xeon.)
//   * AVX2 / 64-bit ARM: 6x16 — 12 accumulator registers at 8-wide.
//   * baseline x86-64 / 128-bit SIMD: 4x8 — 8 accumulator xmm registers; a
//     6x16 tile (96 floats) would spill to the stack every k step.
// The tile shape never changes results: each C element is one serial
// ascending-k accumulation chain regardless of Mr/Nr.
//
// The full-tile kernel uses GCC/Clang vector extensions rather than
// auto-vectorized loops: with the loops fully unrolled gcc's SLP pass was
// observed to produce shuffle-heavy xmm code at a fraction of the
// attainable rate. Vector lanes are independent adds/muls, so each C
// element still accumulates in serial ascending-k order — bitwise-equal to
// the scalar tail kernel and to sgemm_reference.
#if defined(__AVX512F__)
constexpr std::int64_t kMr = 12;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kVl = 8;
#elif defined(__AVX__) || (defined(__ARM_NEON) && defined(__aarch64__))
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kVl = 8;  ///< vector lanes (two 128-bit ops on NEON)
#else
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 8;
constexpr std::int64_t kVl = 4;
#endif
constexpr std::int64_t kNv = kNr / kVl;  ///< vectors per micro-tile row

typedef float Vf __attribute__((vector_size(kVl * sizeof(float)), aligned(4)));

inline Vf splat(float x) {
  Vf v;
  for (std::int64_t i = 0; i < kVl; ++i) v[i] = x;
  return v;
}

// Micro-kernel: C[0..kMr, 0..kNr) += sum_k a_panel[k,:] x b[k, 0..kNr).
// a_panel is k-major ([k][kMr], alpha already folded in); b is row-major
// with leading dimension ldb, so the lane loads are unit-stride. The k loop
// runs over the FULL depth with the C tile held in registers: each output
// element sees one serial ascending-k accumulation chain and a single
// read-modify-write of C.
void micro_full(std::int64_t k, const float* a_panel, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc) {
  Vf acc[kMr][kNv] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    Vf bv[kNv];
    memcpy(&bv, brow, sizeof(bv));  // unaligned vector loads
    const float* arow = a_panel + kk * kMr;
    for (std::int64_t ii = 0; ii < kMr; ++ii) {
      const Vf av = splat(arow[ii]);
      for (std::int64_t v = 0; v < kNv; ++v) acc[ii][v] += av * bv[v];
    }
  }
  for (std::int64_t ii = 0; ii < kMr; ++ii) {
    float* crow = c + ii * ldc;
    Vf cv[kNv];
    memcpy(&cv, crow, sizeof(cv));
    for (std::int64_t v = 0; v < kNv; ++v) cv[v] += acc[ii][v];
    memcpy(crow, &cv, sizeof(cv));
  }
}

// Edge-tile variant for mr < kMr and/or nr < kNr (odd tails). Identical
// per-element accumulation order.
void micro_tail(std::int64_t mr, std::int64_t nr, std::int64_t k, const float* a_panel,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[kMr][kNr] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    const float* arow = a_panel + kk * kMr;
    for (std::int64_t ii = 0; ii < mr; ++ii) {
      const float aik = arow[ii];
      for (std::int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] += aik * brow[jj];
    }
  }
  for (std::int64_t ii = 0; ii < mr; ++ii) {
    float* crow = c + ii * ldc;
    for (std::int64_t jj = 0; jj < nr; ++jj) crow[jj] += acc[ii][jj];
  }
}

// Packs kMr-row A panels (alpha folded in, k-major so the micro-kernel
// reads them unit-stride) and sweeps the micro-kernels across n.
void gemm_rows(std::int64_t i0, std::int64_t i1, std::int64_t n, std::int64_t k, float alpha,
               const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
               std::int64_t ldc, float* a_panel) {
  for (std::int64_t i = i0; i < i1; i += kMr) {
    const std::int64_t mr = i1 - i < kMr ? i1 - i : kMr;
    for (std::int64_t ii = 0; ii < mr; ++ii) {
      const float* arow = a + (i + ii) * lda;
      for (std::int64_t kk = 0; kk < k; ++kk) a_panel[kk * kMr + ii] = alpha * arow[kk];
    }
    for (std::int64_t j = 0; j < n; j += kNr) {
      const std::int64_t nr = n - j < kNr ? n - j : kNr;
      if (mr == kMr && nr == kNr) {
        micro_full(k, a_panel, b + j, ldb, c + i * ldc + j, ldc);
      } else {
        micro_tail(mr, nr, k, a_panel, b + j, ldb, c + i * ldc + j, ldc);
      }
    }
  }
}

}  // namespace

extern const KernelTable table;
const KernelTable table = {
    .isa = PECAN_KERNELS_ISA,
    .search_f32_l1 = search_f32<true>,
    .search_f32_dot = search_f32<false>,
    .search_int8_l1 = search_int8_l1,
    .search_int8_dot = search_int8_dot,
    .search_binary = search_binary,
    .scores_f32 = scores_f32,
    .scores_int8 = scores_int8,
    .softmax_columns = softmax_columns,
    .lut_accumulate = lut_accumulate,
    .lut_weighted_accumulate = lut_weighted_accumulate,
    .gemm_mr = kMr,
    .gemm_rows = gemm_rows,
};

}  // namespace pecan::kernels::PECAN_KERNELS_NS
