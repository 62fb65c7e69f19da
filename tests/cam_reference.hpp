// Scalar references for the CAM kernels, written against the documented
// code grids (affine uint8 codes, sign bits) and op orders rather than the
// kernels' packed layouts: the spec every blocked kernel and every ISA
// variant is compared with.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "cam/cam_array.hpp"
#include "tensor/tensor.hpp"

namespace pecan::camtest {

// Winners of the quantized planes for the [d, len] query columns `cols`.
// Hits resolve with the kernels' lowest-index tie-break.
inline std::vector<std::int64_t> quantized_reference_hits(const cam::CamArray& array,
                                                          const Tensor& cols,
                                                          cam::CamPrecision precision) {
  const std::int64_t d = array.word_dim(), p = array.word_count(), len = cols.dim(1);
  const float* words = array.words().data();
  std::vector<std::int64_t> hits(static_cast<std::size_t>(len));
  for (std::int64_t l = 0; l < len; ++l) {
    std::int64_t best_m = 0;
    if (precision == cam::CamPrecision::Binary) {
      const std::vector<float>& thresh = array.binary_thresholds();
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (std::int64_t m = 0; m < p; ++m) {
        std::int64_t ham = 0;
        for (std::int64_t i = 0; i < d; ++i) {
          const bool qs = cols[i * len + l] >= thresh[static_cast<std::size_t>(i)];
          const bool ws = words[m * d + i] >= thresh[static_cast<std::size_t>(i)];
          ham += qs != ws;
        }
        if (ham < best) {
          best = ham;
          best_m = m;
        }
      }
    } else {
      const cam::AffineQuant& qp = array.qparams();
      std::vector<std::int32_t> q(static_cast<std::size_t>(d));
      for (std::int64_t i = 0; i < d; ++i) {
        q[static_cast<std::size_t>(i)] = cam::affine_quantize(cols[i * len + l], qp);
      }
      if (array.metric() == cam::SearchMetric::L1BestMatch) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (std::int64_t m = 0; m < p; ++m) {
          std::int64_t dist = 0;
          for (std::int64_t i = 0; i < d; ++i) {
            const std::int32_t w = cam::affine_quantize(words[m * d + i], qp);
            dist += std::abs(q[static_cast<std::size_t>(i)] - w);
          }
          if (dist < best) {
            best = dist;
            best_m = m;
          }
        }
      } else {
        // Argmax of the zero-point-corrected crossbar read dot - zp*sum(w).
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (std::int64_t m = 0; m < p; ++m) {
          std::int64_t dot = 0, wsum = 0;
          for (std::int64_t i = 0; i < d; ++i) {
            const std::int32_t w = cam::affine_quantize(words[m * d + i], qp);
            dot += static_cast<std::int64_t>(q[static_cast<std::size_t>(i)]) * w;
            wsum += w;
          }
          const std::int64_t score = dot - qp.zero_point * wsum;
          if (score > best) {
            best = score;
            best_m = m;
          }
        }
      }
    }
    hits[static_cast<std::size_t>(l)] = best_m;
  }
  return hits;
}

// Dequantized int8 crossbar scores of lb queries (component i of query l
// at cols[i * stride + l]) as [p, lb] rows, in exact integers:
//   s^2 * (dot - zp*wsum[m] - zp*qsum[l] + d*zp^2).
inline void int8_reference_scores(const cam::CamArray& array, const float* cols,
                                  std::int64_t stride, std::int64_t lb, float* scores) {
  const std::int64_t d = array.word_dim(), p = array.word_count();
  const cam::AffineQuant& qp = array.qparams();
  const std::int64_t zp = qp.zero_point;
  std::vector<std::int64_t> q(static_cast<std::size_t>(d));
  for (std::int64_t l = 0; l < lb; ++l) {
    std::int64_t qsum = 0;
    for (std::int64_t i = 0; i < d; ++i) {
      q[static_cast<std::size_t>(i)] = cam::affine_quantize(cols[i * stride + l], qp);
      qsum += q[static_cast<std::size_t>(i)];
    }
    for (std::int64_t m = 0; m < p; ++m) {
      std::int64_t dot = 0, wsum = 0;
      for (std::int64_t i = 0; i < d; ++i) {
        const std::int64_t w = cam::affine_quantize(array.words()[m * d + i], qp);
        dot += q[static_cast<std::size_t>(i)] * w;
        wsum += w;
      }
      const std::int64_t integer = dot - zp * wsum - zp * qsum + d * zp * zp;
      scores[m * lb + l] =
          qp.scale * qp.scale * static_cast<float>(static_cast<std::int32_t>(integer));
    }
  }
}

inline std::vector<std::uint64_t> usage_of(const std::vector<std::int64_t>& hits, std::int64_t p) {
  std::vector<std::uint64_t> usage(static_cast<std::size_t>(p), 0);
  for (const std::int64_t h : hits) ++usage[static_cast<std::size_t>(h)];
  return usage;
}

// Softmax replica with the exact op order of the fused kernel (float exp,
// double denominator, one float normalize multiply); returns the
// pre-softmax argmax recorded in the usage histogram.
inline std::int64_t softmax_column_replica(float* scores, std::int64_t p, std::int64_t lb,
                                           std::int64_t l, float temperature) {
  float mx = scores[l];
  std::int64_t best = 0;
  for (std::int64_t m = 1; m < p; ++m) {
    const float v = scores[m * lb + l];
    if (v > mx) {
      mx = v;
      best = m;
    }
  }
  double denom = 0;
  for (std::int64_t m = 0; m < p; ++m) {
    float& v = scores[m * lb + l];
    v = std::exp((v - mx) / temperature);
    denom += v;
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::int64_t m = 0; m < p; ++m) scores[m * lb + l] *= inv;
  return best;
}

}  // namespace pecan::camtest
