#include "nn/losses.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "math/kernels/kernel_table.h"
#include "math/vector_ops.h"

namespace fvae::nn {

double GaussianKl(const Matrix& mu, const Matrix& logvar) {
  FVAE_CHECK(mu.rows() == logvar.rows() && mu.cols() == logvar.cols())
      << "KL shape mismatch";
  FVAE_CHECK(mu.rows() > 0);
  double total = 0.0;
  for (size_t i = 0; i < mu.size(); ++i) {
    const double m = mu.data()[i];
    const double lv = logvar.data()[i];
    total += -0.5 * (1.0 + lv - m * m - std::exp(lv));
  }
  return total / double(mu.rows());
}

void GaussianKlBackward(const Matrix& mu, const Matrix& logvar, float weight,
                        Matrix* mu_grad, Matrix* logvar_grad) {
  FVAE_CHECK(mu_grad->rows() == mu.rows() && mu_grad->cols() == mu.cols())
      << "mu grad shape mismatch";
  FVAE_CHECK(logvar_grad->rows() == logvar.rows() &&
             logvar_grad->cols() == logvar.cols())
      << "logvar grad shape mismatch";
  for (size_t i = 0; i < mu.size(); ++i) {
    mu_grad->data()[i] += weight * mu.data()[i];
    logvar_grad->data()[i] +=
        weight * 0.5f * (std::exp(logvar.data()[i]) - 1.0f);
  }
}

double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts, std::span<float> grad) {
  FVAE_CHECK(logits.size() == counts.size()) << "logits/counts mismatch";
  FVAE_CHECK(grad.size() == logits.size()) << "grad size mismatch";
  if (logits.empty()) return 0.0;

  // Stable log-softmax, staged in `grad` so the call never allocates:
  // multinomial_grad is elementwise and may overwrite its own input.
  std::copy(logits.begin(), logits.end(), grad.begin());
  LogSoftmaxInPlace(grad);

  double total_count = 0.0;
  double loss = 0.0;
  for (size_t j = 0; j < counts.size(); ++j) {
    total_count += counts[j];
    loss -= double(counts[j]) * grad[j];
  }
  // grad = total_count * softmax - counts, via the ISA-dispatched kernel.
  // Candidates whose softmax mass underflows below FLT_MIN are flushed to
  // exactly zero there, so the gradient never feeds subnormal garbage into
  // the optimizer even when FVAE_FTZ=0.
  Kernels().multinomial_grad(grad.data(), counts.data(),
                             static_cast<float>(total_count), grad.data(),
                             grad.size());
  return loss;
}

double MultinomialNll(std::span<const float> logits,
                      std::span<const float> counts) {
  FVAE_CHECK(logits.size() == counts.size()) << "logits/counts mismatch";
  if (logits.empty()) return 0.0;
  std::vector<float> log_probs(logits.begin(), logits.end());
  LogSoftmaxInPlace(log_probs);
  double loss = 0.0;
  for (size_t j = 0; j < counts.size(); ++j) {
    loss -= double(counts[j]) * log_probs[j];
  }
  return loss;
}

}  // namespace fvae::nn
