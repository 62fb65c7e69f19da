// Every ISA variant this host runs, called through its own kernel table
// (kernels::table_for, never the process-wide selection), against the
// scalar spec: CAM winners and LUT outputs at every precision and metric,
// the fused softmax epilogue, and sgemm — bitwise. The op ledger and the
// usage histogram must come out identical in every variant too. The shapes
// are the adversarial ones: tiles of 1/15/17/63/64 queries, odd d and d not
// a multiple of 8, a single word, a zero-range subspace, match-line noise,
// and both sides of the byte-plane limits (d 254/255, p 256/257).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "cam_reference.hpp"
#include "kernels/kernels.hpp"
#include "tensor/rng.hpp"
#include "tensor/sgemm.hpp"

namespace pecan {
namespace {

using cam::CamArray;
using cam::CamPrecision;
using cam::LutMemory;
using cam::OpCounter;
using cam::SearchMetric;
using kernels::Isa;
using kernels::KernelTable;

constexpr Isa kIsas[] = {Isa::Baseline, Isa::Avx2, Isa::Avx512};

std::vector<const KernelTable*> host_variants() {
  std::vector<const KernelTable*> out;
  for (const Isa isa : kIsas) {
    if (const KernelTable* kt = kernels::table_for(isa)) out.push_back(kt);
  }
  return out;
}

/// Op ledger plus usage histogram after a run.
struct Ledger {
  ops::OpTotals ops;
  std::vector<std::uint64_t> usage;
  bool operator==(const Ledger&) const = default;
};

struct Shape {
  std::int64_t p, d;
  bool zero_range;  ///< every stored word identical
};

const Shape kShapes[] = {
    {1, 9, false},      // a single word
    {32, 7, false},     // odd d
    {17, 12, false},    // d not a multiple of 8
    {64, 16, false},    // whole 8-dim groups
    {8, 5, true},       // zero-range subspace: all distances tie
    {256, 254, false},  // the largest shape the AVX-512 sign-byte scan takes
    {256, 255, false},  // d one past the byte-plane limit
    {257, 254, false},  // p one past the byte-plane limit
};
const std::int64_t kTiles[] = {1, 15, 17, 63, 64};

std::string label(const Shape& s, SearchMetric metric, CamPrecision precision, bool noise) {
  return "p=" + std::to_string(s.p) + " d=" + std::to_string(s.d) +
         (metric == SearchMetric::L1BestMatch ? " l1 " : " dot ") +
         cam::precision_name(precision) + (noise ? " noise" : "");
}

CamArray make_array(const Shape& s, SearchMetric metric, CamPrecision precision, bool noise,
                    Rng& rng) {
  Tensor words = s.zero_range ? Tensor({s.p, s.d}, std::vector<float>(
                                                       static_cast<std::size_t>(s.p * s.d), 0.3f))
                              : rng.randn({s.p, s.d});
  CamArray array(std::move(words), metric);
  if (precision != CamPrecision::Float32) array.prepare_quantized(precision);
  if (noise) {
    Tensor offsets = rng.randn({s.p});
    array.set_matchline_noise(
        std::vector<float>(offsets.data(), offsets.data() + offsets.numel()));
  }
  return array;
}

/// [2, p] LUT: row 0 reads back the winning word index, row 1 is random.
LutMemory make_lut(std::int64_t p, Rng& rng) {
  Tensor table = rng.randn({2, p});
  for (std::int64_t m = 0; m < p; ++m) table[m] = static_cast<float>(m);
  return LutMemory(std::move(table));
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(IsaVariants, HostRunsBaselineAndEachTableIsItsOwn) {
  ASSERT_NE(kernels::table_for(Isa::Baseline), nullptr);
  for (const Isa isa : kIsas) {
    if (const KernelTable* kt = kernels::table_for(isa)) EXPECT_EQ(kt->isa, isa);
  }
}

TEST(IsaVariants, OverrideResolvesDownwardAndActiveHonorsIt) {
  const Isa best = host_variants().back()->isa;
  EXPECT_EQ(kernels::resolve_isa(nullptr), best);
  EXPECT_EQ(kernels::resolve_isa(""), best);
  EXPECT_EQ(kernels::resolve_isa("sse9"), best);  // unknown name
  for (const Isa isa : kIsas) {
    const Isa got = kernels::resolve_isa(kernels::isa_name(isa));
    if (kernels::table_for(isa)) {
      EXPECT_EQ(got, isa);
    } else {
      // Unsupported request: the best variant below it, never above.
      EXPECT_LT(static_cast<int>(got), static_cast<int>(isa));
      EXPECT_EQ(got, best);
    }
  }
  // The process-wide choice is what this run's PECAN_ISA resolves to (CI
  // runs the whole suite once more with PECAN_ISA=baseline).
  EXPECT_EQ(kernels::active().isa, kernels::resolve_isa(std::getenv("PECAN_ISA")));
}

// Fused search -> LUT accumulate against scalar search() (Float32) or the
// independent quantized reference, followed by scalar LutMemory::accumulate.
TEST(IsaVariants, SearchAccumulateMatchesScalarSpec) {
  const std::vector<const KernelTable*> variants = host_variants();
  for (const Shape& shape : kShapes) {
    for (const SearchMetric metric : {SearchMetric::L1BestMatch, SearchMetric::DotProduct}) {
      for (const CamPrecision precision :
           {CamPrecision::Float32, CamPrecision::Int8, CamPrecision::Binary}) {
        if (precision == CamPrecision::Binary && metric == SearchMetric::DotProduct) continue;
        for (const bool noise : {false, true}) {
          if (noise && precision != CamPrecision::Float32) continue;  // Float32-only study
          SCOPED_TRACE(label(shape, metric, precision, noise));
          Rng rng(static_cast<std::uint64_t>(shape.p * 1000 + shape.d));
          const CamArray array = make_array(shape, metric, precision, noise, rng);
          const LutMemory lut = make_lut(shape.p, rng);

          std::vector<Tensor> tiles;
          std::vector<std::vector<float>> spec_out;
          std::vector<std::int64_t> spec_hits;
          OpCounter spec_counter;
          for (const std::int64_t lb : kTiles) {
            tiles.push_back(rng.randn({shape.d, lb}));
            const Tensor& cols = tiles.back();
            std::vector<std::int64_t> hits;
            if (precision == CamPrecision::Float32) {
              for (std::int64_t l = 0; l < lb; ++l) {
                hits.push_back(array.search(cols.data() + l, lb, spec_counter));
              }
            } else {
              hits = camtest::quantized_reference_hits(array, cols, precision);
            }
            std::vector<float> out(static_cast<std::size_t>(2 * lb), 0.f);
            for (std::int64_t l = 0; l < lb; ++l) {
              lut.accumulate(hits[static_cast<std::size_t>(l)], out.data() + l, lb, spec_counter);
            }
            spec_out.push_back(out);
            spec_hits.insert(spec_hits.end(), hits.begin(), hits.end());
          }
          array.reset_usage();

          std::vector<Ledger> ledgers;
          for (const KernelTable* kt : variants) {
            SCOPED_TRACE(kernels::isa_name(kt->isa));
            OpCounter counter;
            for (std::size_t t = 0; t < tiles.size(); ++t) {
              const std::int64_t lb = tiles[t].dim(1);
              std::vector<float> out(static_cast<std::size_t>(2 * lb), 0.f);
              array.search_accumulate_block(tiles[t].data(), lb, lut, out.data(), lb, counter,
                                            precision, *kt);
              EXPECT_TRUE(bitwise_equal(out, spec_out[t])) << "lb=" << lb;
            }
            ledgers.push_back({counter.totals(), array.usage()});
            array.reset_usage();
            EXPECT_EQ(ledgers.back().usage, camtest::usage_of(spec_hits, shape.p));
            EXPECT_TRUE(ledgers.back() == ledgers.front()) << "ledger differs from baseline";
          }
          if (precision == CamPrecision::Float32) {
            // The blocked kernel charges exactly what lb scalar calls do.
            EXPECT_TRUE((Ledger{spec_counter.totals(), ledgers.front().usage}) ==
                        ledgers.front());
          }
        }
      }
    }
  }
}

// Fused score -> softmax -> weighted accumulate against scalar
// similarity_scores() (Float32) or the exact-integer dequantized read
// (Int8), the softmax replica, and scalar LutMemory::weighted_accumulate.
// The softmax weights left in the score tile are compared too.
TEST(IsaVariants, SoftmaxAccumulateMatchesScalarSpec) {
  constexpr float kTemp = 0.75f;
  const std::vector<const KernelTable*> variants = host_variants();
  for (const Shape& shape : kShapes) {
    for (const CamPrecision precision : {CamPrecision::Float32, CamPrecision::Int8}) {
      for (const bool noise : {false, true}) {
        if (noise && precision != CamPrecision::Float32) continue;
        SCOPED_TRACE(label(shape, SearchMetric::DotProduct, precision, noise));
        const std::int64_t p = shape.p, d = shape.d;
        Rng rng(static_cast<std::uint64_t>(p * 1000 + d + 7));
        const CamArray array = make_array(shape, SearchMetric::DotProduct, precision, noise, rng);
        const LutMemory lut = make_lut(p, rng);

        std::vector<Tensor> tiles;
        std::vector<std::vector<float>> spec_out, spec_weights;
        std::vector<std::int64_t> spec_argmax;
        for (const std::int64_t lb : kTiles) {
          tiles.push_back(rng.randn({d, lb}));
          const Tensor& cols = tiles.back();
          std::vector<float> scores(static_cast<std::size_t>(p * lb));
          if (precision == CamPrecision::Float32) {
            OpCounter scratch;
            std::vector<float> col(static_cast<std::size_t>(p));
            for (std::int64_t l = 0; l < lb; ++l) {
              array.similarity_scores(cols.data() + l, lb, col.data(), scratch);
              for (std::int64_t m = 0; m < p; ++m) {
                scores[static_cast<std::size_t>(m * lb + l)] = col[static_cast<std::size_t>(m)];
              }
            }
          } else {
            camtest::int8_reference_scores(array, cols.data(), lb, lb, scores.data());
          }
          std::vector<float> out(static_cast<std::size_t>(2 * lb), 0.f);
          OpCounter scratch;
          std::vector<float> w(static_cast<std::size_t>(p));
          for (std::int64_t l = 0; l < lb; ++l) {
            spec_argmax.push_back(camtest::softmax_column_replica(scores.data(), p, lb, l, kTemp));
            for (std::int64_t m = 0; m < p; ++m) {
              w[static_cast<std::size_t>(m)] = scores[static_cast<std::size_t>(m * lb + l)];
            }
            lut.weighted_accumulate(w.data(), out.data() + l, lb, scratch);
          }
          spec_out.push_back(out);
          spec_weights.push_back(scores);
        }

        std::vector<Ledger> ledgers;
        for (const KernelTable* kt : variants) {
          SCOPED_TRACE(kernels::isa_name(kt->isa));
          OpCounter counter;
          for (std::size_t t = 0; t < tiles.size(); ++t) {
            const std::int64_t lb = tiles[t].dim(1);
            std::vector<float> out(static_cast<std::size_t>(2 * lb), 0.f);
            std::vector<float> scores(static_cast<std::size_t>(p * lb));
            array.similarity_softmax_accumulate_block(tiles[t].data(), lb, kTemp, lut,
                                                      scores.data(), out.data(), lb, counter,
                                                      precision, *kt);
            EXPECT_TRUE(bitwise_equal(scores, spec_weights[t])) << "softmax, lb=" << lb;
            EXPECT_TRUE(bitwise_equal(out, spec_out[t])) << "output, lb=" << lb;
          }
          ledgers.push_back({counter.totals(), array.usage()});
          array.reset_usage();
          EXPECT_EQ(ledgers.back().usage, camtest::usage_of(spec_argmax, p));
          EXPECT_TRUE(ledgers.back() == ledgers.front()) << "ledger differs from baseline";
        }
      }
    }
  }
}

TEST(IsaVariants, SgemmMatchesReference) {
  struct Dims {
    std::int64_t m, n, k;
  };
  // Tails of every variant's register tile (4x8, 6x16, 12x16) and whole
  // tiles.
  const Dims kDims[] = {{1, 1, 1},    {5, 7, 3},    {6, 16, 9},  {12, 32, 4},
                        {13, 50, 17}, {25, 97, 40}, {64, 64, 64}};
  const std::vector<const KernelTable*> variants = host_variants();
  for (const Dims& dm : kDims) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const auto& [alpha, beta] : {std::pair{1.f, 0.f}, std::pair{0.5f, 1.25f}}) {
          Rng rng(static_cast<std::uint64_t>(dm.m * 10000 + dm.n * 100 + dm.k));
          const Tensor a = rng.randn({dm.m, dm.k});  // stored [k, m] when transposed
          const Tensor b = rng.randn({dm.k, dm.n});  // stored [n, k] when transposed
          const Tensor c0 = rng.randn({dm.m, dm.n});
          const std::int64_t lda = ta ? dm.m : dm.k, ldb = tb ? dm.k : dm.n;
          std::vector<float> expected(c0.data(), c0.data() + c0.numel());
          sgemm_reference(ta, tb, dm.m, dm.n, dm.k, alpha, a.data(), lda, b.data(), ldb, beta,
                          expected.data(), dm.n);
          for (const KernelTable* kt : variants) {
            std::vector<float> c(c0.data(), c0.data() + c0.numel());
            sgemm(ta, tb, dm.m, dm.n, dm.k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
                  dm.n, *kt);
            EXPECT_TRUE(bitwise_equal(c, expected))
                << kernels::isa_name(kt->isa) << " m=" << dm.m << " n=" << dm.n
                << " k=" << dm.k << " ta=" << ta << " tb=" << tb << " alpha=" << alpha;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pecan
