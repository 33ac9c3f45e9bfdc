#ifndef FVAE_NN_LAYER_H_
#define FVAE_NN_LAYER_H_

#include <vector>

#include "math/matrix.h"

namespace fvae::nn {

/// A trainable parameter: value plus its gradient, both owned by a layer.
struct ParamRef {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// A differentiable transformation over mini-batches (rows = examples).
///
/// Contract: Backward must be called after Forward with the same batch, and
/// consumes the activations Forward cached. Backward *sets* (not
/// accumulates) parameter gradients; one optimizer Step per Forward/Backward
/// pair.
class Layer {
 public:
  virtual ~Layer() = default;

  /// output = f(input). `training` enables stochastic behaviour (dropout).
  virtual void Forward(const Matrix& input, Matrix* output, bool training) = 0;

  /// Inference-mode output = f(input), bitwise equal to
  /// Forward(input, output, /*training=*/false) but caching nothing: the
  /// layer is only read, so concurrent callers with distinct `output`s are
  /// safe. `output` must not alias `input`.
  virtual void Infer(const Matrix& input, Matrix* output) const = 0;

  /// grad_input = df/dinput^T grad_output; also fills parameter gradients.
  /// `grad_input` may be null when the input gradient is not needed (first
  /// layer of a network).
  virtual void Backward(const Matrix& grad_output, Matrix* grad_input) = 0;

  /// Appends this layer's trainable parameters to `out`.
  virtual void CollectParams(std::vector<ParamRef>* out) { (void)out; }
};

}  // namespace fvae::nn

#endif  // FVAE_NN_LAYER_H_
