#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>

#include "common/random.h"
#include "math/matrix.h"
#include "math/vector_ops.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace fvae::nn {
namespace {

/// Numerical gradient check of a layer: loss = sum(weights ⊙ layer(input)).
/// Checks both the input gradient and every parameter gradient against
/// central differences.
void CheckLayerGradients(Layer& layer, Matrix input, double tolerance,
                         uint64_t seed) {
  Rng rng(seed);
  Matrix output;
  layer.Forward(input, &output, /*training=*/false);
  Matrix loss_weights = Matrix::Gaussian(output.rows(), output.cols(), 1.0f,
                                         rng);

  auto loss_of = [&](const Matrix& in) {
    Matrix out;
    layer.Forward(in, &out, /*training=*/false);
    double total = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      total += double(out.data()[i]) * loss_weights.data()[i];
    }
    return total;
  };

  // Analytic gradients.
  layer.Forward(input, &output, /*training=*/false);
  Matrix input_grad;
  layer.Backward(loss_weights, &input_grad);

  // Input gradient vs central differences.
  const float h = 1e-3f;
  for (size_t i = 0; i < input.size(); ++i) {
    Matrix plus = input, minus = input;
    plus.data()[i] += h;
    minus.data()[i] -= h;
    const double numeric = (loss_of(plus) - loss_of(minus)) / (2.0 * h);
    ASSERT_NEAR(input_grad.data()[i], numeric, tolerance)
        << "input grad element " << i;
  }

  // Parameter gradients.
  std::vector<ParamRef> params;
  layer.CollectParams(&params);
  // Recompute analytic grads (loss_of calls overwrote caches).
  layer.Forward(input, &output, /*training=*/false);
  layer.Backward(loss_weights, &input_grad);
  for (size_t p = 0; p < params.size(); ++p) {
    Matrix& value = *params[p].value;
    const Matrix analytic = *params[p].grad;
    for (size_t i = 0; i < value.size(); ++i) {
      const float original = value.data()[i];
      value.data()[i] = original + h;
      const double lp = loss_of(input);
      value.data()[i] = original - h;
      const double lm = loss_of(input);
      value.data()[i] = original;
      const double numeric = (lp - lm) / (2.0 * h);
      ASSERT_NEAR(analytic.data()[i], numeric, tolerance)
          << "param " << p << " element " << i;
    }
  }
}

TEST(DenseLayerTest, ForwardMatchesManual) {
  Rng rng(1);
  DenseLayer layer(2, 3, rng);
  layer.weight() = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  layer.bias() = Matrix::FromRows({{0.5, -0.5, 0.0}});
  Matrix input = Matrix::FromRows({{1, 1}, {2, 0}});
  Matrix output;
  layer.Forward(input, &output, false);
  EXPECT_FLOAT_EQ(output(0, 0), 5.5f);   // 1+4+0.5
  EXPECT_FLOAT_EQ(output(0, 1), 6.5f);   // 2+5-0.5
  EXPECT_FLOAT_EQ(output(1, 2), 6.0f);   // 2*3
}

TEST(DenseLayerTest, GradientsMatchNumerical) {
  Rng rng(2);
  DenseLayer layer(4, 3, rng);
  Matrix input = Matrix::Gaussian(5, 4, 1.0f, rng);
  CheckLayerGradients(layer, input, 2e-2, 77);
}

TEST(DenseLayerTest, NullGradInputSkipsInputGradient) {
  Rng rng(3);
  DenseLayer layer(2, 2, rng);
  Matrix input = Matrix::Gaussian(3, 2, 1.0f, rng);
  Matrix output;
  layer.Forward(input, &output, false);
  Matrix grad_out(3, 2, 1.0f);
  layer.Backward(grad_out, nullptr);  // must not crash
  SUCCEED();
}

TEST(ActivationTest, TanhGradients) {
  TanhLayer layer;
  Rng rng(4);
  CheckLayerGradients(layer, Matrix::Gaussian(4, 6, 1.0f, rng), 1e-2, 5);
}

TEST(ActivationTest, ReluGradients) {
  ReluLayer layer;
  Rng rng(6);
  // Keep inputs away from the kink at 0.
  Matrix input = Matrix::Gaussian(4, 5, 1.0f, rng);
  for (size_t i = 0; i < input.size(); ++i) {
    if (std::fabs(input.data()[i]) < 0.05f) input.data()[i] = 0.5f;
  }
  CheckLayerGradients(layer, input, 1e-2, 7);
}

TEST(ActivationTest, SigmoidGradients) {
  SigmoidLayer layer;
  Rng rng(8);
  CheckLayerGradients(layer, Matrix::Gaussian(3, 7, 1.0f, rng), 1e-2, 9);
}

TEST(DropoutTest, InferenceIsIdentity) {
  DropoutLayer layer(0.5, 42);
  Matrix input = Matrix::FromRows({{1, 2, 3}});
  Matrix output;
  layer.Forward(input, &output, /*training=*/false);
  EXPECT_LT(Matrix::MaxAbsDiff(input, output), 1e-9f);
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  DropoutLayer layer(0.5, 43);
  Matrix input(1, 10000, 1.0f);
  Matrix output;
  layer.Forward(input, &output, /*training=*/true);
  size_t zeros = 0;
  double total = 0.0;
  for (size_t i = 0; i < output.size(); ++i) {
    if (output.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(output.data()[i], 2.0f, 1e-6f);  // 1/(1-0.5)
    }
    total += output.data()[i];
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(total / 10000.0, 1.0, 0.06);  // expectation preserved
}

TEST(DropoutTest, BackwardUsesSameMask) {
  DropoutLayer layer(0.3, 44);
  Matrix input(1, 100, 1.0f);
  Matrix output;
  layer.Forward(input, &output, /*training=*/true);
  Matrix grad_out(1, 100, 1.0f);
  Matrix grad_in;
  layer.Backward(grad_out, &grad_in);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(grad_in.data()[i], output.data()[i]);
  }
}

TEST(MlpTest, GradientsMatchNumerical) {
  Rng rng(10);
  Mlp mlp({3, 5, 2}, Activation::kTanh, rng);
  CheckLayerGradients(mlp, Matrix::Gaussian(4, 3, 1.0f, rng), 3e-2, 11);
}

TEST(MlpTest, ActivateOutputChangesRange) {
  Rng rng(12);
  Mlp bounded({2, 4, 4}, Activation::kTanh, rng, /*activate_output=*/true);
  Matrix input = Matrix::Gaussian(8, 2, 10.0f, rng);
  Matrix output;
  bounded.Forward(input, &output, false);
  for (size_t i = 0; i < output.size(); ++i) {
    EXPECT_LE(std::fabs(output.data()[i]), 1.0f);
  }
}

TEST(MlpTest, DimsExposed) {
  Rng rng(13);
  Mlp mlp({7, 5, 3, 2}, Activation::kRelu, rng);
  EXPECT_EQ(mlp.in_dim(), 7u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  EXPECT_EQ(mlp.num_dense_layers(), 3u);
}

TEST(InferTest, MatchesEvalForwardBitwiseAndCachesNothing) {
  Rng rng(14);
  const Matrix input = Matrix::Gaussian(5, 4, 2.0f, rng);
  DenseLayer dense(4, 4, rng);
  TanhLayer tanh_layer;
  ReluLayer relu;
  SigmoidLayer sigmoid;
  DropoutLayer dropout(0.5, 15);
  LayerNorm norm(4);
  Mlp mlp({4, 6, 5, 3}, Activation::kTanh, rng);
  for (Layer* layer : std::initializer_list<Layer*>{
           &dense, &tanh_layer, &relu, &sigmoid, &dropout, &norm, &mlp}) {
    Matrix forward, inferred;
    layer->Forward(input, &forward, /*training=*/false);
    // A different batch through Infer must leave Forward's caches alone:
    // Backward still sees the batch Forward ran.
    Matrix grad_before;
    layer->Backward(forward, &grad_before);
    layer->Infer(Matrix::Gaussian(2, 4, 1.0f, rng), &inferred);
    Matrix grad_after;
    layer->Backward(forward, &grad_after);
    EXPECT_EQ(Matrix::MaxAbsDiff(grad_before, grad_after), 0.0f);

    layer->Infer(input, &inferred);
    ASSERT_EQ(inferred.rows(), forward.rows());
    ASSERT_EQ(inferred.cols(), forward.cols());
    EXPECT_EQ(std::memcmp(inferred.data(), forward.data(),
                          forward.size() * sizeof(float)),
              0);
  }
}

// ---------- Optimizers ----------

TEST(SgdTest, ConvergesOnQuadratic) {
  // Minimize ||x - target||^2 by gradient steps.
  Matrix x(1, 4, 0.0f);
  Matrix grad(1, 4, 0.0f);
  Matrix target = Matrix::FromRows({{1, -2, 3, 0.5}});
  SgdOptimizer opt({{&x, &grad}}, 0.1f, 0.9f);
  for (int step = 0; step < 200; ++step) {
    for (size_t i = 0; i < 4; ++i) {
      grad.data()[i] = 2.0f * (x.data()[i] - target.data()[i]);
    }
    opt.Step();
  }
  EXPECT_LT(Matrix::MaxAbsDiff(x, target), 1e-3f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix x(1, 4, 5.0f);
  Matrix grad(1, 4, 0.0f);
  Matrix target = Matrix::FromRows({{1, -2, 3, 0.5}});
  AdamOptimizer opt({{&x, &grad}}, 0.05f);
  for (int step = 0; step < 2000; ++step) {
    for (size_t i = 0; i < 4; ++i) {
      grad.data()[i] = 2.0f * (x.data()[i] - target.data()[i]);
    }
    opt.Step();
  }
  EXPECT_LT(Matrix::MaxAbsDiff(x, target), 1e-2f);
  EXPECT_EQ(opt.step_count(), 2000);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Matrix x(1, 2, 1.0f);
  Matrix grad(1, 2, 3.0f);
  AdamOptimizer opt({{&x, &grad}}, 0.01f);
  opt.Step();
  EXPECT_EQ(grad(0, 0), 0.0f);
  EXPECT_EQ(grad(0, 1), 0.0f);
}

// ---------- EmbeddingTable ----------

TEST(EmbeddingTableTest, CreatesRowsLazily) {
  EmbeddingTable table(4, /*with_bias=*/true, 0.1f, 1);
  EXPECT_EQ(table.num_rows(), 0u);
  const uint32_t r0 = table.GetOrCreateRow(1000);
  const uint32_t r1 = table.GetOrCreateRow(2000);
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  EXPECT_EQ(table.GetOrCreateRow(1000), 0u);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_FALSE(table.FindRow(3000).has_value());
  EXPECT_EQ(table.FindRow(2000).value(), 1u);
}

TEST(EmbeddingTableTest, NewRowsAreRandomlyInitialized) {
  EmbeddingTable table(16, false, 0.5f, 2);
  const uint32_t r0 = table.GetOrCreateRow(1);
  const uint32_t r1 = table.GetOrCreateRow(2);
  double diff = 0.0;
  for (size_t d = 0; d < 16; ++d) {
    diff += std::fabs(double(table.Row(r0)[d]) - table.Row(r1)[d]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(EmbeddingTableTest, ZeroInitStddevGivesZeroRows) {
  EmbeddingTable table(4, false, 0.0f, 3);
  const uint32_t row = table.GetOrCreateRow(5);
  for (float v : table.Row(row)) EXPECT_EQ(v, 0.0f);
}

TEST(EmbeddingTableTest, AdagradStepMovesAgainstGradient) {
  EmbeddingTable table(2, true, 0.0f, 4);
  const uint32_t row = table.GetOrCreateRow(7);
  const std::vector<float> grad{1.0f, -2.0f};
  table.AccumulateGrad(row, grad, 0.5f);
  EXPECT_EQ(table.touched_rows().size(), 1u);
  table.ApplyGradients(0.1f);
  // AdaGrad first step: w -= lr * g / (|g| + eps) = -lr * sign(g).
  EXPECT_NEAR(table.Row(row)[0], -0.1f, 1e-5f);
  EXPECT_NEAR(table.Row(row)[1], 0.1f, 1e-5f);
  EXPECT_NEAR(table.bias(row), -0.1f, 1e-5f);
  EXPECT_TRUE(table.touched_rows().empty());
}

TEST(EmbeddingTableTest, GradientsAccumulateUntilApplied) {
  EmbeddingTable table(1, false, 0.0f, 5);
  const uint32_t row = table.GetOrCreateRow(1);
  const std::vector<float> g{1.0f};
  table.AccumulateGrad(row, g);
  table.AccumulateGrad(row, g);
  EXPECT_FLOAT_EQ(table.RowGrad(row)[0], 2.0f);
  EXPECT_EQ(table.touched_rows().size(), 1u);  // deduplicated
  table.ApplyGradients(0.1f);
  EXPECT_FLOAT_EQ(table.RowGrad(row)[0], 0.0f);
}

TEST(EmbeddingTableTest, AdagradShrinksEffectiveStep) {
  EmbeddingTable table(1, false, 0.0f, 6);
  const uint32_t row = table.GetOrCreateRow(1);
  const std::vector<float> g{1.0f};
  table.AccumulateGrad(row, g);
  table.ApplyGradients(0.1f);
  const float first_step = std::fabs(table.Row(row)[0]);
  const float before = table.Row(row)[0];
  table.AccumulateGrad(row, g);
  table.ApplyGradients(0.1f);
  const float second_step = std::fabs(table.Row(row)[0] - before);
  EXPECT_LT(second_step, first_step);
}

// ---------- Losses ----------

TEST(GaussianKlTest, ZeroAtPrior) {
  Matrix mu(3, 4);
  Matrix logvar(3, 4);
  EXPECT_NEAR(GaussianKl(mu, logvar), 0.0, 1e-9);
}

TEST(GaussianKlTest, PositiveAwayFromPrior) {
  Matrix mu(1, 2, 1.0f);
  Matrix logvar(1, 2, 0.0f);
  // KL = 0.5 * sum(mu^2) = 1.0 for two dims of mu=1.
  EXPECT_NEAR(GaussianKl(mu, logvar), 1.0, 1e-6);
}

TEST(GaussianKlTest, GradientsMatchNumerical) {
  Rng rng(20);
  Matrix mu = Matrix::Gaussian(2, 3, 1.0f, rng);
  Matrix logvar = Matrix::Gaussian(2, 3, 0.5f, rng);
  Matrix mu_grad(2, 3), logvar_grad(2, 3);
  // Unnormalized (weight 1): gradients of batch-sum KL... GaussianKlBackward
  // uses per-element formulas matching batch-mean times weight=batch.
  GaussianKlBackward(mu, logvar, 1.0f, &mu_grad, &logvar_grad);
  const float h = 1e-3f;
  for (size_t i = 0; i < mu.size(); ++i) {
    Matrix mp = mu, mm = mu;
    mp.data()[i] += h;
    mm.data()[i] -= h;
    // GaussianKl averages over rows; scale numeric diff by rows.
    const double numeric =
        (GaussianKl(mp, logvar) - GaussianKl(mm, logvar)) / (2.0 * h) *
        double(mu.rows());
    EXPECT_NEAR(mu_grad.data()[i], numeric, 2e-2);
  }
  for (size_t i = 0; i < logvar.size(); ++i) {
    Matrix lp = logvar, lm = logvar;
    lp.data()[i] += h;
    lm.data()[i] -= h;
    const double numeric =
        (GaussianKl(mu, lp) - GaussianKl(mu, lm)) / (2.0 * h) *
        double(mu.rows());
    EXPECT_NEAR(logvar_grad.data()[i], numeric, 2e-2);
  }
}

TEST(MultinomialNllTest, UniformLogitsGiveLogC) {
  const std::vector<float> logits(4, 0.0f);
  const std::vector<float> counts{1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_NEAR(MultinomialNll(logits, counts), std::log(4.0), 1e-6);
}

TEST(MultinomialNllTest, GradientIsSoftmaxMinusCounts) {
  const std::vector<float> logits{0.0f, 1.0f, -1.0f};
  const std::vector<float> counts{2.0f, 0.0f, 1.0f};  // N = 3
  std::vector<float> grad(3);
  MultinomialNll(logits, counts, grad);
  std::vector<float> probs = logits;
  SoftmaxInPlace(probs);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(grad[j], 3.0f * probs[j] - counts[j], 1e-5f);
  }
  // Gradient sums to zero (softmax mass = counts mass).
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0f, 1e-5f);
}

TEST(MultinomialNllTest, GradientMatchesNumerical) {
  std::vector<float> logits{0.3f, -0.7f, 1.2f, 0.0f};
  const std::vector<float> counts{1.0f, 2.0f, 0.0f, 3.0f};
  std::vector<float> grad(4);
  const double base = MultinomialNll(logits, counts, grad);
  EXPECT_GT(base, 0.0);
  const float h = 1e-3f;
  for (int j = 0; j < 4; ++j) {
    std::vector<float> lp = logits, lm = logits;
    lp[j] += h;
    lm[j] -= h;
    const double numeric =
        (MultinomialNll(lp, counts) - MultinomialNll(lm, counts)) / (2.0 * h);
    EXPECT_NEAR(grad[j], numeric, 1e-2);
  }
}

TEST(MultinomialNllTest, EmptyCandidatesIsZero) {
  EXPECT_EQ(MultinomialNll({}, {}), 0.0);
}

TEST(MultinomialNllTest, PerfectPredictionHasLowLoss) {
  // Logit strongly favors the observed feature.
  const std::vector<float> logits{20.0f, 0.0f, 0.0f};
  const std::vector<float> counts{1.0f, 0.0f, 0.0f};
  EXPECT_LT(MultinomialNll(logits, counts), 1e-6);
}

}  // namespace
}  // namespace fvae::nn
