// BatchNorm2d with inference-time folding support.
//
// The paper folds BN into convolutions at inference ("batch normalization
// can be folded into convolution layers in the inference stage, we do not
// count FLOPs for both baseline and PECAN"), so BatchNorm2d exposes the
// per-channel (scale, shift) pair that Conv2d::fold_scale_shift consumes.
#pragma once

#include <utility>

#include "nn/module.hpp"

namespace pecan::nn {

class BatchNorm2d : public Module {
 public:
  BatchNorm2d(std::string name, std::int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input) override;  ///< [N, C, H, W]
  Tensor backward(const Tensor& grad_output) override;
  /// Frozen-statistics normalization; batch stats never enter the serving
  /// path, so infer() reads only running_mean/var + gamma/beta.
  Tensor infer(const Tensor& input, InferContext& ctx) const override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> buffers() override {
    return {{name_ + ".running_mean", &running_mean_}, {name_ + ".running_var", &running_var_}};
  }
  std::string name() const override { return name_; }

  /// y = scale * x + shift equivalent of the (frozen) running statistics.
  Tensor inference_scale() const;
  Tensor inference_shift() const;

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::string name_;
  std::int64_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  /// Channel c's frozen y = scale * x + shift: the one definition infer()
  /// and the folding accessors share, so both round identically.
  std::pair<float, float> affine(std::int64_t c) const;

  // Backward context (training batch statistics).
  Tensor cached_xhat_;
  Tensor batch_inv_std_;
  Shape input_shape_;
};

}  // namespace pecan::nn
