// Reads CAM best-match winners through the production kernel,
// CamArray::search_accumulate_block: accumulating an "index LUT" (cout = 1,
// table[0][m] = m) into a zeroed row leaves out[l] equal to query l's hit
// exactly (word indices are far below 2^24, so the float add is exact).
// On top of the search cost, every call charges the LUT's share to the
// counter: adds += lb, lut_reads += lb.
#pragma once

#include <cstdint>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "tensor/tensor.hpp"

namespace pecan::camtest {

inline cam::LutMemory index_lut(std::int64_t p) {
  Tensor table({1, p});
  for (std::int64_t m = 0; m < p; ++m) table[m] = static_cast<float>(m);
  return cam::LutMemory(std::move(table));
}

/// Hits of one dim-major query tile of lb <= kCamTileMax queries.
inline void tile_hits(const cam::CamArray& array, const float* tile, std::int64_t lb,
                      std::int64_t* hits, cam::OpCounter& counter,
                      cam::CamPrecision precision = cam::CamPrecision::Float32) {
  const cam::LutMemory index = index_lut(array.word_count());
  float out[cam::kCamTileMax] = {};
  array.search_accumulate_block(tile, lb, index, out, lb, counter, precision);
  for (std::int64_t l = 0; l < lb; ++l) hits[l] = static_cast<std::int64_t>(out[l]);
}

}  // namespace pecan::camtest
