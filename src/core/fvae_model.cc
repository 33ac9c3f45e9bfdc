#include "core/fvae_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "math/kernels/kernel_table.h"
#include "nn/losses.h"
#include "obs/trace.h"

namespace fvae::core {

namespace {

/// Normalized per-field reconstruction weights alpha_k / |alpha| (Eq. 7).
std::vector<float> NormalizedAlpha(const std::vector<float>& alpha,
                                   size_t num_fields) {
  std::vector<float> weights =
      alpha.empty() ? std::vector<float>(num_fields, 1.0f) : alpha;
  FVAE_CHECK(weights.size() == num_fields)
      << "alpha size " << weights.size() << " != fields " << num_fields;
  float total = 0.0f;
  for (float a : weights) {
    FVAE_CHECK(a >= 0.0f) << "negative alpha";
    total += std::fabs(a);
  }
  FVAE_CHECK(total > 0.0f) << "all-zero alpha";
  for (float& a : weights) a /= total;
  return weights;
}

}  // namespace

/// Activations and per-user feature lists the backward pass needs.
struct FieldVae::EncoderCache {
  /// Per batch row: (field, table row, value) of every input feature.
  struct InputRef {
    uint32_t field;
    uint32_t row;
    float value;
  };
  std::vector<std::vector<InputRef>> inputs;
  Matrix h1;  // tanh output of the embedding-sum first layer (B x H1)
};

FieldVae::FieldVae(const FvaeConfig& config,
                   std::vector<FieldSchema> field_schemas)
    : config_(config),
      field_schemas_(std::move(field_schemas)),
      rng_(config.seed) {
  FVAE_CHECK(!field_schemas_.empty()) << "FVAE needs at least one field";
  FVAE_CHECK(config_.latent_dim > 0);
  FVAE_CHECK(!config_.encoder_hidden.empty());
  FVAE_CHECK(!config_.decoder_hidden.empty());
  FVAE_CHECK(config_.sampling_rate > 0.0 && config_.sampling_rate <= 1.0);

  const size_t h1 = config_.encoder_hidden.front();
  const size_t enc_out = config_.encoder_hidden.back();
  const size_t dec_out = config_.decoder_hidden.back();

  for (size_t k = 0; k < field_schemas_.size(); ++k) {
    input_tables_.push_back(std::make_unique<nn::EmbeddingTable>(
        h1, /*with_bias=*/false, config_.embedding_init_stddev,
        config_.seed * 31 + k));
    output_tables_.push_back(std::make_unique<nn::EmbeddingTable>(
        dec_out, /*with_bias=*/true, config_.embedding_init_stddev,
        config_.seed * 37 + k));
  }

  first_bias_.Resize(1, h1);
  first_bias_grad_.Resize(1, h1);

  if (config_.encoder_hidden.size() > 1) {
    encoder_trunk_ = std::make_unique<nn::Mlp>(
        config_.encoder_hidden, nn::Activation::kTanh, rng_,
        /*activate_output=*/true);
  }
  mu_head_ = std::make_unique<nn::DenseLayer>(enc_out, config_.latent_dim,
                                              rng_);
  logvar_head_ = std::make_unique<nn::DenseLayer>(enc_out,
                                                  config_.latent_dim, rng_);

  std::vector<size_t> dec_dims;
  dec_dims.push_back(config_.latent_dim);
  for (size_t d : config_.decoder_hidden) dec_dims.push_back(d);
  decoder_trunk_ = std::make_unique<nn::Mlp>(dec_dims, nn::Activation::kTanh,
                                             rng_, /*activate_output=*/true);

  std::vector<nn::ParamRef> dense_params;
  dense_params.push_back({&first_bias_, &first_bias_grad_});
  if (encoder_trunk_) encoder_trunk_->CollectParams(&dense_params);
  mu_head_->CollectParams(&dense_params);
  logvar_head_->CollectParams(&dense_params);
  decoder_trunk_->CollectParams(&dense_params);
  dense_optimizer_ = std::make_unique<nn::AdamOptimizer>(
      std::move(dense_params), config_.dense_learning_rate);
}

void FieldVae::EncodeInternal(const MultiFieldDataset& dataset,
                              std::span<const uint32_t> users, bool training,
                              Matrix* mu, Matrix* logvar,
                              EncoderCache* cache) {
  FVAE_CHECK(dataset.num_fields() == field_schemas_.size())
      << "dataset field count mismatch";
  const size_t batch = users.size();
  const size_t h1_dim = config_.encoder_hidden.front();

  Matrix h1(batch, h1_dim);
  if (cache != nullptr) {
    cache->inputs.assign(batch, {});
  }
  for (size_t i = 0; i < batch; ++i) {
    float* out = h1.Row(i);
    const float* bias = first_bias_.Row(0);
    for (size_t d = 0; d < h1_dim; ++d) out[d] = bias[d];
    for (size_t k = 0; k < field_schemas_.size(); ++k) {
      nn::EmbeddingTable& table = *input_tables_[k];
      for (const FeatureEntry& e : dataset.UserField(users[i], k)) {
        uint32_t row;
        if (training) {
          row = table.GetOrCreateRow(e.id);
        } else {
          auto found = table.FindRow(e.id);
          if (!found.has_value()) continue;  // cold feature at inference
          row = *found;
        }
        std::span<const float> weights = table.Row(row);
        Kernels().axpy(e.value, weights.data(), out, h1_dim);
        if (cache != nullptr) {
          cache->inputs[i].push_back(
              {static_cast<uint32_t>(k), row, e.value});
        }
      }
    }
    Kernels().tanh_inplace(out, h1_dim);
  }
  if (cache != nullptr) cache->h1 = h1;

  const Matrix* enc_out = &h1;
  Matrix trunk_out;
  if (encoder_trunk_) {
    encoder_trunk_->Forward(h1, &trunk_out, training);
    enc_out = &trunk_out;
  }
  mu_head_->Forward(*enc_out, mu, training);
  logvar_head_->Forward(*enc_out, logvar, training);
  // Clamp log-variance for numeric safety (exp() in KL and reparam).
  for (size_t i = 0; i < logvar->size(); ++i) {
    logvar->data()[i] = std::clamp(logvar->data()[i], -10.0f, 10.0f);
  }
}

void FieldVae::EncodeConst(const MultiFieldDataset& dataset,
                           std::span<const uint32_t> users, Matrix* mu,
                           Matrix* logvar) const {
  // Lookups are read-only, but the shared EncodeInternal runs the layers'
  // training Forward, which writes their backward caches — hence the
  // const_cast, and why Encode is not reentrant (EncodeFoldInInto is).
  auto* self = const_cast<FieldVae*>(this);
  self->EncodeInternal(dataset, users, /*training=*/false, mu, logvar,
                       nullptr);
}

Matrix FieldVae::Encode(const MultiFieldDataset& dataset,
                        std::span<const uint32_t> users) const {
  Matrix mu, logvar;
  EncodeConst(dataset, users, &mu, &logvar);
  return mu;
}

void FieldVae::EncodeWithVariance(const MultiFieldDataset& dataset,
                                  std::span<const uint32_t> users, Matrix* mu,
                                  Matrix* logvar) const {
  EncodeConst(dataset, users, mu, logvar);
}

Matrix FieldVae::EncodeFoldIn(
    std::span<const RawUserFeatures* const> users) const {
  FoldInScratch scratch;
  Matrix mu;
  EncodeFoldInInto(users, &scratch, &mu);
  return mu;
}

void FieldVae::EncodeFoldInInto(std::span<const RawUserFeatures* const> users,
                                FoldInScratch* scratch, Matrix* mu) const {
  // The first hidden activation is computed straight from the raw feature
  // vectors — no throwaway dataset build (the old fold-in path copied every
  // feature into a MultiFieldDataset::Builder first). Mirrors
  // EncodeInternal's inference branch exactly: cold feature IDs are
  // skipped, h1 = tanh(bias + sum value * embedding_row).
  const size_t batch = users.size();
  const size_t h1_dim = config_.encoder_hidden.front();
  Matrix& h1 = scratch->h1;
  h1.Resize(batch, h1_dim);
  for (size_t i = 0; i < batch; ++i) {
    const RawUserFeatures* user = users[i];
    FVAE_CHECK(user != nullptr);
    FVAE_CHECK(user->size() == field_schemas_.size())
        << "fold-in user has " << user->size() << " fields, model expects "
        << field_schemas_.size();
    float* out = h1.Row(i);
    const float* bias = first_bias_.Row(0);
    for (size_t d = 0; d < h1_dim; ++d) out[d] = bias[d];
    for (size_t k = 0; k < field_schemas_.size(); ++k) {
      const nn::EmbeddingTable& table = *input_tables_[k];
      for (const FeatureEntry& e : (*user)[k]) {
        const auto found = table.FindRow(e.id);
        if (!found.has_value()) continue;  // cold feature at inference
        std::span<const float> weights = table.Row(*found);
        Kernels().axpy(e.value, weights.data(), out, h1_dim);
      }
    }
    Kernels().tanh_inplace(out, h1_dim);
  }
  // The logvar head is never run — fold-in consumers use the posterior
  // mean alone.
  const Matrix* enc_out = &h1;
  if (encoder_trunk_) {
    encoder_trunk_->Infer(h1, &scratch->trunk_out, &scratch->trunk_acts);
    enc_out = &scratch->trunk_out;
  }
  mu_head_->Infer(*enc_out, mu);
}

Matrix FieldVae::DecoderHidden(const Matrix& z) const {
  Matrix hidden;
  decoder_trunk_->Infer(z, &hidden);
  return hidden;
}

Matrix FieldVae::ScoreField(const Matrix& z, size_t k,
                            std::span<const uint64_t> candidate_ids) const {
  FVAE_CHECK(k < field_schemas_.size()) << "field out of range";
  Matrix hdec;
  decoder_trunk_->Infer(z, &hdec);

  // Gather the known candidates' rows, score them in one GEMM, then
  // scatter with the bias; unseen candidates keep logit 0.
  const nn::EmbeddingTable& table = *output_tables_[k];
  std::vector<size_t> known_cols;
  std::vector<float> known_bias;
  std::vector<uint32_t> known_rows;
  for (size_t c = 0; c < candidate_ids.size(); ++c) {
    const auto row = table.FindRow(candidate_ids[c]);
    if (!row.has_value()) continue;
    known_cols.push_back(c);
    known_rows.push_back(*row);
    known_bias.push_back(table.bias(*row));
  }
  Matrix wc(known_cols.size(), table.dim());
  for (size_t c = 0; c < known_rows.size(); ++c) {
    std::span<const float> w = table.Row(known_rows[c]);
    std::copy(w.begin(), w.end(), wc.Row(c));
  }
  Matrix known_logits;
  GemmNT(hdec, wc, &known_logits);

  Matrix logits(z.rows(), candidate_ids.size());
  for (size_t i = 0; i < z.rows(); ++i) {
    const float* src = known_logits.Row(i);
    float* dst = logits.Row(i);
    for (size_t c = 0; c < known_cols.size(); ++c) {
      dst[known_cols[c]] = src[c] + known_bias[c];
    }
  }
  return logits;
}

Matrix FieldVae::EncodeAndScore(const MultiFieldDataset& dataset,
                                std::span<const uint32_t> users, size_t k,
                                std::span<const uint64_t> candidate_ids)
    const {
  const Matrix z = Encode(dataset, users);
  return ScoreField(z, k, candidate_ids);
}

size_t FieldVae::KnownFeatures(size_t k) const {
  FVAE_CHECK(k < input_tables_.size());
  return input_tables_[k]->num_rows();
}

size_t FieldVae::ParameterCount() const {
  size_t total = first_bias_.size();
  std::vector<nn::ParamRef> params;
  if (encoder_trunk_) encoder_trunk_->CollectParams(&params);
  mu_head_->CollectParams(&params);
  logvar_head_->CollectParams(&params);
  decoder_trunk_->CollectParams(&params);
  for (const nn::ParamRef& p : params) total += p.value->size();
  for (size_t k = 0; k < field_schemas_.size(); ++k) {
    total += input_tables_[k]->num_rows() * input_tables_[k]->dim();
    total += output_tables_[k]->num_rows() * (output_tables_[k]->dim() + 1);
  }
  return total;
}

std::vector<const Matrix*> FieldVae::DenseParams() const {
  auto mutable_params = const_cast<FieldVae*>(this)->DenseParams();
  return {mutable_params.begin(), mutable_params.end()};
}

std::vector<Matrix*> FieldVae::DenseParams() {
  std::vector<nn::ParamRef> refs;
  refs.push_back({&first_bias_, &first_bias_grad_});
  if (encoder_trunk_) encoder_trunk_->CollectParams(&refs);
  mu_head_->CollectParams(&refs);
  logvar_head_->CollectParams(&refs);
  decoder_trunk_->CollectParams(&refs);
  std::vector<Matrix*> params;
  params.reserve(refs.size());
  for (const nn::ParamRef& ref : refs) params.push_back(ref.value);
  return params;
}

StepStats FieldVae::TrainStep(const MultiFieldDataset& dataset,
                              std::span<const uint32_t> users, float beta) {
  FVAE_CHECK(!users.empty()) << "empty batch";
  const size_t batch = users.size();
  const size_t num_fields = field_schemas_.size();
  const std::vector<float> alpha_w =
      NormalizedAlpha(config_.alpha, num_fields);

  StepStats stats;
  stats.field_nll.assign(num_fields, 0.0);
  stats.candidates_per_field.assign(num_fields, 0);

  // ---- Encoder forward ----
  obs::TraceSpan forward_span("train.forward");
  EncoderCache cache;
  Matrix mu, logvar;
  EncodeInternal(dataset, users, /*training=*/true, &mu, &logvar, &cache);
  const size_t latent = config_.latent_dim;

  // ---- Reparameterization ----
  // std_dev = exp(0.5 * logvar), computed once through the vectorized exp
  // kernel and reused by the logvar gradient in the backward pass below.
  Matrix eps(batch, latent);
  Matrix z(batch, latent);
  Matrix std_dev(batch, latent);
  for (size_t i = 0; i < std_dev.size(); ++i) {
    std_dev.data()[i] = 0.5f * logvar.data()[i];
  }
  Kernels().exp_inplace(std_dev.data(), std_dev.size());
  for (size_t i = 0; i < eps.size(); ++i) {
    eps.data()[i] = static_cast<float>(rng_.Normal());
    z.data()[i] = mu.data()[i] + std_dev.data()[i] * eps.data()[i];
  }

  // ---- Decoder trunk forward ----
  Matrix hdec;
  decoder_trunk_->Forward(z, &hdec, /*training=*/true);
  const size_t dec_dim = hdec.cols();
  Matrix hdec_grad(batch, dec_dim);
  forward_span.End();

  // ---- Per-field batched softmax + feature sampling + likelihood ----
  obs::TraceSpan fields_span("train.fields");
  std::unordered_map<uint64_t, uint32_t> freq;
  std::unordered_map<uint64_t, uint32_t> position;
  std::vector<Candidate> candidates;
  std::vector<uint64_t> chosen_ids;
  std::vector<uint32_t> rows;
  Matrix wc, wc_grad, logits, logits_grad;
  std::vector<float> bc, counts;
  std::vector<double> bias_grad;
  std::vector<uint32_t> touched_positions;

  for (size_t k = 0; k < num_fields; ++k) {
    // Batch union of observed features with in-batch frequencies.
    freq.clear();
    for (uint32_t u : users) {
      for (const FeatureEntry& e : dataset.UserField(u, k)) ++freq[e.id];
    }
    candidates.clear();
    if (config_.batched_softmax) {
      candidates.reserve(freq.size());
      for (const auto& [id, f] : freq) candidates.push_back({id, f});
    } else {
      // Legacy full softmax: every feature the model has ever seen, plus
      // this batch's new ones.
      for (const auto& [id, f] : freq) {
        output_tables_[k]->GetOrCreateRow(id);
      }
      for (const auto& [id, row] : output_tables_[k]->Items()) {
        (void)row;
        auto it = freq.find(id);
        candidates.push_back(
            {id, it == freq.end() ? 0u : static_cast<uint32_t>(it->second)});
      }
    }
    if (candidates.empty()) continue;

    const bool sample_field =
        field_schemas_[k].is_sparse &&
        config_.sampling_strategy != SamplingStrategy::kNone &&
        config_.batched_softmax;
    if (sample_field) {
      chosen_ids = SampleCandidates(candidates, config_.sampling_rate,
                                    config_.sampling_strategy, rng_);
    } else {
      chosen_ids.clear();
      chosen_ids.reserve(candidates.size());
      for (const Candidate& c : candidates) chosen_ids.push_back(c.id);
    }
    const size_t num_cand = chosen_ids.size();
    stats.candidates_per_field[k] = num_cand;

    position.clear();
    rows.resize(num_cand);
    wc.Resize(num_cand, dec_dim);
    bc.resize(num_cand);
    for (size_t c = 0; c < num_cand; ++c) {
      position[chosen_ids[c]] = static_cast<uint32_t>(c);
      rows[c] = output_tables_[k]->GetOrCreateRow(chosen_ids[c]);
      std::span<const float> w = output_tables_[k]->Row(rows[c]);
      std::copy(w.begin(), w.end(), wc.Row(c));
      bc[c] = output_tables_[k]->bias(rows[c]);
    }

    // logits = hdec * Wc^T + bc.
    GemmNT(hdec, wc, &logits);
    for (size_t i = 0; i < batch; ++i) {
      float* row = logits.Row(i);
      for (size_t c = 0; c < num_cand; ++c) row[c] += bc[c];
    }

    // Per-user multinomial NLL and gradient over the candidate subset.
    logits_grad.Resize(batch, num_cand);
    counts.assign(num_cand, 0.0f);
    double field_loss = 0.0;
    const float weight = alpha_w[k] / static_cast<float>(batch);
    for (size_t i = 0; i < batch; ++i) {
      touched_positions.clear();
      for (const FeatureEntry& e : dataset.UserField(users[i], k)) {
        auto it = position.find(e.id);
        if (it == position.end()) continue;  // sampled out this step
        counts[it->second] += e.value;
        touched_positions.push_back(it->second);
      }
      std::span<float> grad_row{logits_grad.Row(i), num_cand};
      if (touched_positions.empty()) {
        std::fill(grad_row.begin(), grad_row.end(), 0.0f);
      } else {
        field_loss += nn::MultinomialNll({logits.Row(i), num_cand}, counts,
                                         grad_row);
        for (float& g : grad_row) g *= weight;
      }
      for (uint32_t p : touched_positions) counts[p] = 0.0f;
    }
    stats.field_nll[k] = field_loss / double(batch);

    // Backprop into the decoder hidden state and the candidate rows.
    GemmAccumulate(logits_grad, wc, &hdec_grad);
    GemmTN(logits_grad, hdec, &wc_grad);
    // Bias gradient: column sums of logits_grad, accumulated row by row.
    bias_grad.assign(num_cand, 0.0);
    for (size_t i = 0; i < batch; ++i) {
      const float* g = logits_grad.Row(i);
      for (size_t c = 0; c < num_cand; ++c) bias_grad[c] += g[c];
    }
    for (size_t c = 0; c < num_cand; ++c) {
      output_tables_[k]->AccumulateGrad(rows[c], {wc_grad.Row(c), dec_dim},
                                        static_cast<float>(bias_grad[c]));
    }
  }
  fields_span.End();

  // ---- KL term ----
  obs::TraceSpan backward_span("train.backward");
  stats.kl = nn::GaussianKl(mu, logvar);
  stats.loss = beta * stats.kl;
  for (size_t k = 0; k < num_fields; ++k) {
    stats.loss += alpha_w[k] * stats.field_nll[k];
  }

  // ---- Backward: decoder trunk -> z -> (mu, logvar) ----
  Matrix z_grad;
  decoder_trunk_->Backward(hdec_grad, &z_grad);

  Matrix mu_grad = z_grad;
  Matrix logvar_grad(batch, latent);
  for (size_t i = 0; i < z_grad.size(); ++i) {
    logvar_grad.data()[i] =
        z_grad.data()[i] * eps.data()[i] * 0.5f * std_dev.data()[i];
  }
  nn::GaussianKlBackward(mu, logvar, beta / static_cast<float>(batch),
                         &mu_grad, &logvar_grad);

  // ---- Heads -> encoder trunk -> first layer ----
  Matrix henc_grad_mu, henc_grad_logvar;
  mu_head_->Backward(mu_grad, &henc_grad_mu);
  logvar_head_->Backward(logvar_grad, &henc_grad_logvar);
  henc_grad_mu.Add(henc_grad_logvar);

  Matrix h1_grad;
  if (encoder_trunk_) {
    encoder_trunk_->Backward(henc_grad_mu, &h1_grad);
  } else {
    h1_grad = std::move(henc_grad_mu);
  }

  // tanh backward of the first layer.
  const size_t h1_dim = config_.encoder_hidden.front();
  FVAE_CHECK(h1_grad.rows() == batch && h1_grad.cols() == h1_dim);
  for (size_t i = 0; i < h1_grad.size(); ++i) {
    const float y = cache.h1.data()[i];
    h1_grad.data()[i] *= (1.0f - y * y);
  }

  first_bias_grad_.SetZero();
  for (size_t i = 0; i < batch; ++i) {
    const float* g = h1_grad.Row(i);
    float* bg = first_bias_grad_.Row(0);
    for (size_t d = 0; d < h1_dim; ++d) bg[d] += g[d];
  }

  std::vector<float> scaled(h1_dim);
  for (size_t i = 0; i < batch; ++i) {
    const float* g = h1_grad.Row(i);
    for (const EncoderCache::InputRef& ref : cache.inputs[i]) {
      for (size_t d = 0; d < h1_dim; ++d) scaled[d] = ref.value * g[d];
      input_tables_[ref.field]->AccumulateGrad(ref.row, scaled);
    }
  }

  backward_span.End();

  // ---- Parameter updates ----
  obs::TraceSpan update_span("train.update");
  dense_optimizer_->Step();
  for (size_t k = 0; k < num_fields; ++k) {
    input_tables_[k]->ApplyGradients(config_.sparse_learning_rate);
    output_tables_[k]->ApplyGradients(config_.sparse_learning_rate);
  }
  return stats;
}

}  // namespace fvae::core
