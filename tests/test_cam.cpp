// Tests for the CAM simulator: array search semantics, LUT accumulation,
// the PQ-lookup equivalence (CAM inference == direct PECAN layer forward),
// the zero-multiplication invariant, BN folding, conversion, and pruning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cam/cam_array.hpp"
#include "cam/cam_conv2d.hpp"
#include "cam/convert.hpp"
#include "cam/lut.hpp"
#include "core/pecan_linear.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "nn/adder_conv.hpp"
#include "nn/batchnorm.hpp"
#include "tensor/rng.hpp"

namespace pecan::cam {
namespace {

pq::PqLayerConfig dist_cfg(std::int64_t p, std::int64_t d) {
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Distance;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = 0.5f;
  return cfg;
}

pq::PqLayerConfig angle_cfg(std::int64_t p, std::int64_t d) {
  pq::PqLayerConfig cfg;
  cfg.mode = pq::MatchMode::Angle;
  cfg.p = p;
  cfg.d = d;
  cfg.temperature = 1.f;
  return cfg;
}

TEST(CamArray, L1BestMatchFindsNearest) {
  Tensor words({3, 2}, std::vector<float>{0.f, 0.f, 5.f, 5.f, -5.f, 5.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  const float q1[2] = {4.5f, 4.f};
  EXPECT_EQ(array.search(q1, 1, counter), 1);
  const float q2[2] = {-4.f, 6.f};
  EXPECT_EQ(array.search(q2, 1, counter), 2);
  EXPECT_EQ(counter.cam_searches, 2u);
  EXPECT_EQ(counter.adds, 2u * 2 * 3 * 2);  // 2 searches x 2*p*d
  EXPECT_EQ(counter.muls, 0u);
}

TEST(CamArray, DotProductScores) {
  Tensor words({2, 3}, std::vector<float>{1.f, 0.f, 0.f, 0.f, 1.f, 0.f});
  CamArray array(std::move(words), SearchMetric::DotProduct);
  OpCounter counter;
  const float q[3] = {0.2f, 0.9f, 0.f};
  float scores[2];
  array.similarity_scores(q, 1, scores, counter);
  EXPECT_FLOAT_EQ(scores[0], 0.2f);
  EXPECT_FLOAT_EQ(scores[1], 0.9f);
  EXPECT_EQ(counter.muls, 6u);
}

TEST(CamArray, StridedQueryAccess) {
  // Queries are columns of an im2col matrix; stride = number of columns.
  Tensor words({2, 2}, std::vector<float>{0.f, 0.f, 10.f, 10.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  const float matrix[6] = {9.f, 0.1f, -1.f, 11.f, -0.2f, -1.f};  // [2 rows, 3 cols]
  EXPECT_EQ(array.search(matrix + 0, 3, counter), 1);  // column 0 = (9, 11)
  EXPECT_EQ(array.search(matrix + 1, 3, counter), 0);  // column 1 = (0.1, -0.2)
}

TEST(CamArray, UsageAndPrune) {
  Tensor words({4, 1}, std::vector<float>{0.f, 10.f, 20.f, 30.f});
  CamArray array(std::move(words), SearchMetric::L1BestMatch);
  OpCounter counter;
  const float q0[1] = {1.f}, q2[1] = {19.f};
  array.search(q0, 1, counter);
  array.search(q2, 1, counter);
  array.search(q2, 1, counter);
  EXPECT_EQ(array.usage()[0], 1u);
  EXPECT_EQ(array.usage()[2], 2u);
  const auto kept = array.prune_unused();
  EXPECT_EQ(kept, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(array.word_count(), 2);
}

TEST(LutMemory, AccumulateIsColumnFetch) {
  Tensor table({3, 2}, std::vector<float>{1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  LutMemory lut(std::move(table));
  OpCounter counter;
  float out[3] = {10.f, 10.f, 10.f};
  lut.accumulate(1, out, 1, counter);
  EXPECT_FLOAT_EQ(out[0], 12.f);
  EXPECT_FLOAT_EQ(out[1], 14.f);
  EXPECT_FLOAT_EQ(out[2], 16.f);
  EXPECT_EQ(counter.adds, 3u);
  EXPECT_EQ(counter.muls, 0u);
  EXPECT_EQ(counter.lut_reads, 1u);
}

TEST(LutMemory, WeightedAccumulate) {
  Tensor table({2, 2}, std::vector<float>{1.f, 3.f, 2.f, 4.f});
  LutMemory lut(std::move(table));
  OpCounter counter;
  float out[2] = {0.f, 0.f};
  const float w[2] = {0.25f, 0.75f};
  lut.weighted_accumulate(w, out, 1, counter);
  EXPECT_FLOAT_EQ(out[0], 0.25f * 1 + 0.75f * 3);
  EXPECT_FLOAT_EQ(out[1], 0.25f * 2 + 0.75f * 4);
  EXPECT_EQ(counter.muls, 4u);
}

TEST(CamConv2d, EquivalentToPecanDistanceLayer) {
  // The central PQ-lookup equivalence: CAM search + LUT accumulate must
  // reproduce the direct layer forward EXACTLY for PECAN-D (same argmax,
  // and Y(j) columns precomputed from the same weights).
  Rng rng(1);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, true, dist_cfg(8, 9), rng);
  layer.set_training(false);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({2, 4, 6, 6});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
}

TEST(CamConv2d, EquivalentToPecanAngleLayer) {
  Rng rng(2);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, angle_cfg(4, 9), rng);
  layer.set_training(false);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({1, 2, 5, 5});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
}

TEST(CamConv2d, InferIsBitwiseUnderBatchSplit) {
  // Every output element is owned by one (sample, tile) work item, so a
  // batch's rows equal per-sample calls bit for bit, with the same ledger.
  // forward() is infer() plus the shape probe that inference_ops() reads.
  Rng rng(5);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, true, dist_cfg(8, 9), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  EXPECT_EQ(exported.inference_ops().adds, 0u);
  Tensor x = rng.randn({3, 4, 6, 6});
  nn::InferContext ctx;
  Tensor batched = exported.infer(x, ctx);
  const std::uint64_t batched_adds = counter->adds.load();
  counter->reset();
  const std::int64_t in_row = 4 * 6 * 6, out_row = 8 * 6 * 6;
  for (std::int64_t s = 0; s < 3; ++s) {
    Tensor sample({1, 4, 6, 6});
    std::copy(x.data() + s * in_row, x.data() + (s + 1) * in_row, sample.data());
    ctx.reset();
    Tensor row = exported.infer(sample, ctx);
    EXPECT_EQ(std::memcmp(row.data(), batched.data() + s * out_row, out_row * sizeof(float)), 0)
        << "sample " << s;
  }
  EXPECT_EQ(counter->adds.load(), batched_adds);
  EXPECT_EQ(counter->muls.load(), 0u);
  EXPECT_EQ(exported.inference_ops().adds, 0u);  // infer() records nothing
  exported.forward(x);
  EXPECT_EQ(exported.inference_ops().adds * 3, batched_adds);
}

TEST(CamConv2d, DistanceInferenceHasZeroMultiplications) {
  // The paper's headline property: PECAN-D is truly multiplier-free.
  Rng rng(3);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, dist_cfg(16, 3), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  exported.forward(rng.randn({2, 4, 8, 8}));
  EXPECT_GT(counter->adds, 0u);
  EXPECT_EQ(counter->muls, 0u);
}

TEST(CamConv2d, DynamicCountMatchesClosedForm) {
  // The counter incremented at the arithmetic call sites must equal the
  // Table 1 closed form for one sample.
  Rng rng(4);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, dist_cfg(8, 9), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  Tensor x = rng.randn({1, 4, 8, 8});
  exported.forward(x);
  const ops::OpCount expected = exported.inference_ops();
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

TEST(CamConv2d, AngleDynamicCountMatchesClosedForm) {
  Rng rng(5);
  pq::PecanConv2d layer("p", 4, 8, 3, 1, 1, false, angle_cfg(4, 9), rng);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  exported.forward(rng.randn({1, 4, 8, 8}));
  const ops::OpCount expected = exported.inference_ops();
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

TEST(CamConv2d, FoldScaleShiftMatchesBatchNorm) {
  Rng rng(6);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(4, 9), rng);
  nn::BatchNorm2d bn("bn", 4);
  // Give BN non-trivial running stats.
  layer.set_training(true);
  bn.set_training(true);
  Tensor warm = rng.randn({4, 2, 6, 6});
  for (int i = 0; i < 10; ++i) bn.forward(layer.forward(warm));
  layer.set_training(false);
  bn.set_training(false);

  Tensor x = rng.randn({2, 2, 6, 6});
  Tensor reference = bn.forward(layer.forward(x));

  CamConv2d exported(layer, std::make_shared<OpCounter>());
  exported.fold_scale_shift(bn.inference_scale(), bn.inference_shift());
  Tensor folded = exported.forward(x);
  for (std::int64_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(reference[i], folded[i], 2e-3);
  }
}

TEST(CamConv2d, PruningPreservesOutputs) {
  // §5: prototypes never used on the evaluation set can be pruned with no
  // output change on that set.
  Rng rng(7);
  pq::PecanConv2d layer("p", 2, 4, 3, 1, 1, false, dist_cfg(32, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({4, 2, 6, 6});
  Tensor before = exported.forward(x);
  const auto [pruned, total] = exported.prune_unused();
  EXPECT_GT(pruned, 0);  // with p=32 and 144 columns, some words go unused
  EXPECT_EQ(total, 2 * 32);
  Tensor after = exported.forward(x);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(Convert, LeNetPecanDEndToEnd) {
  Rng rng(8);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  model->set_training(false);
  Tensor x = rng.randn({2, 1, 28, 28});
  Tensor direct = model->forward(x);

  CamNetworkExport exported = convert_to_cam(*model);
  Tensor via_cam = exported.net->forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 5e-3);
  }
  EXPECT_EQ(exported.counter->muls, 0u);       // multiplier-free network
  EXPECT_EQ(exported.cam_layers.size(), 5u);   // 2 conv + 3 fc
}

TEST(Convert, ResNetPecanDWithBnFolding) {
  Rng rng(9);
  auto model = models::make_resnet20(models::Variant::PecanD, 10, rng);
  // Warm BN running stats so folding is non-trivial.
  model->set_training(true);
  Tensor warm = rng.randn({4, 3, 16, 16});
  model->forward(warm);
  model->set_training(false);
  Tensor x = rng.randn({1, 3, 16, 16});
  Tensor direct = model->forward(x);

  CamNetworkExport exported = convert_to_cam(*model);
  Tensor via_cam = exported.net->forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 5e-2) << i;
  }
  EXPECT_EQ(exported.counter->muls, 0u);
  EXPECT_EQ(exported.cam_layers.size(), 20u);  // 19 convs + 1 fc
}

TEST(Convert, UsageHistogramsPopulated) {
  Rng rng(10);
  auto model = models::make_lenet5(models::Variant::PecanD, rng);
  model->set_training(false);
  CamNetworkExport exported = convert_to_cam(*model);
  exported.net->forward(rng.randn({4, 1, 28, 28}));
  std::uint64_t total_usage = 0;
  for (const CamConv2d* layer : exported.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      for (std::uint64_t u : layer->usage(j)) total_usage += u;
    }
  }
  EXPECT_GT(total_usage, 0u);
  exported.reset_usage();
  std::uint64_t after_reset = 0;
  for (const CamConv2d* layer : exported.cam_layers) {
    for (std::int64_t j = 0; j < layer->groups(); ++j) {
      for (std::uint64_t u : layer->usage(j)) after_reset += u;
    }
  }
  EXPECT_EQ(after_reset, 0u);
}

TEST(Convert, RejectsAdderLayers) {
  Rng rng(11);
  nn::Sequential net;
  net.emplace<nn::AdderConv2d>("a", 1, 2, 3, 1, 0, rng);
  EXPECT_THROW(convert_to_cam(net), std::invalid_argument);
}

TEST(CamLinear, EquivalentToPecanLinear) {
  Rng rng(13);
  pq::PecanLinear fc("fc", 32, 6, true, dist_cfg(8, 4), rng);
  fc.set_training(false);
  auto counter = std::make_shared<OpCounter>();
  CamLinear exported(fc.conv(), counter);
  Tensor x = rng.randn({5, 32});
  Tensor direct = fc.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct[i], via_cam[i], 1e-3) << i;
  }
  EXPECT_EQ(counter->muls, 0u);
  // FC op formula: per sample, D*(2pd + cout) adds.
  EXPECT_EQ(counter->adds, 5u * 8 * (2 * 8 * 4 + 6));
}

TEST(CamLinear, RejectsNonFcLayer) {
  Rng rng(14);
  pq::PecanConv2d conv("c", 2, 2, 3, 1, 1, false, dist_cfg(4, 9), rng);
  EXPECT_THROW(CamLinear(conv, std::make_shared<OpCounter>()), std::invalid_argument);
}

// Property sweep: CAM == direct layer across geometries (stride, padding,
// kernel sizes, group shapes) for both match modes.
struct GeomParam {
  std::int64_t cin, cout, k, stride, pad, p, d;
  bool angle;
};
class CamGeometrySweep : public ::testing::TestWithParam<GeomParam> {};

TEST_P(CamGeometrySweep, CamMatchesDirectForward) {
  const auto [cin, cout, k, stride, pad, p, d, angle] = GetParam();
  Rng rng(100 + cin + cout + k + p);
  pq::PecanConv2d layer("g", cin, cout, k, stride, pad, true,
                        angle ? angle_cfg(p, d) : dist_cfg(p, d), rng);
  layer.set_training(false);
  auto counter = std::make_shared<OpCounter>();
  CamConv2d exported(layer, counter);
  Tensor x = rng.randn({2, cin, 9, 9});
  Tensor direct = layer.forward(x);
  Tensor via_cam = exported.forward(x);
  ASSERT_TRUE(direct.same_shape(via_cam));
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    ASSERT_NEAR(direct[i], via_cam[i], 2e-3) << i;
  }
  if (!angle) EXPECT_EQ(counter->muls, 0u);
  // Dynamic count equals the closed form regardless of geometry.
  const ops::OpCount expected = exported.inference_ops() * 2;  // batch of 2
  EXPECT_EQ(counter->adds, expected.adds);
  EXPECT_EQ(counter->muls, expected.muls);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CamGeometrySweep,
    ::testing::Values(GeomParam{2, 3, 3, 1, 1, 4, 9, false},
                      GeomParam{2, 3, 3, 2, 1, 4, 9, false},
                      GeomParam{3, 4, 3, 1, 0, 8, 3, false},
                      GeomParam{4, 2, 5, 1, 2, 4, 25, false},
                      GeomParam{1, 6, 3, 3, 0, 16, 9, false},
                      GeomParam{2, 3, 3, 1, 1, 4, 9, true},
                      GeomParam{3, 4, 3, 2, 1, 3, 27, true},
                      GeomParam{4, 2, 5, 1, 2, 4, 20, true}));

TEST(CamConv2d, BackwardThrows) {
  Rng rng(12);
  pq::PecanConv2d layer("p", 1, 2, 3, 1, 0, false, dist_cfg(4, 9), rng);
  CamConv2d exported(layer, std::make_shared<OpCounter>());
  Tensor x = rng.randn({1, 1, 3, 3});
  exported.forward(x);
  EXPECT_THROW(exported.backward(Tensor({1, 2, 1, 1})), std::logic_error);
}

}  // namespace
}  // namespace pecan::cam
