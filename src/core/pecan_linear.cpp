#include "core/pecan_linear.hpp"

namespace pecan::pq {

PecanLinear::PecanLinear(std::string name, std::int64_t in_features, std::int64_t out_features,
                         bool bias, PqLayerConfig config, Rng& rng)
    : in_(in_features), out_(out_features),
      conv_(std::move(name), in_features, out_features, /*k=*/1, /*stride=*/1, /*pad=*/0, bias,
            config, rng) {}

Tensor PecanLinear::forward(const Tensor& input) {
  return nn::as_1x1_conv(name(), input, in_, out_,
                         [&](const Tensor& x) { return conv_.forward(x); });
}

Tensor PecanLinear::infer(const Tensor& input, nn::InferContext& ctx) const {
  return nn::as_1x1_conv(name(), input, in_, out_,
                         [&](const Tensor& x) { return conv_.infer(x, ctx); });
}

Tensor PecanLinear::backward(const Tensor& grad_output) {
  const std::int64_t n = grad_output.dim(0);
  Tensor grad = conv_.backward(grad_output.reshaped({n, out_, 1, 1}));
  return std::move(grad).reshaped({n, in_});
}

void PecanLinear::set_training(bool training) {
  Module::set_training(training);
  conv_.set_training(training);
}

}  // namespace pecan::pq
