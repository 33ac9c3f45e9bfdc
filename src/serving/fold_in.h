#ifndef FVAE_SERVING_FOLD_IN_H_
#define FVAE_SERVING_FOLD_IN_H_

#include <span>

#include "common/hot_path.h"
#include "core/fvae_model.h"
#include "math/matrix.h"

namespace fvae::serving {

/// Batch encoder for cold users (fold-in): turns raw sparse field vectors
/// into embeddings when a user's embedding was never materialized offline.
///
/// Implementations MUST be safe for concurrent callers: EmbeddingService
/// encodes every cold user on the thread that asks for it.
class FoldInEncoder {
 public:
  virtual ~FoldInEncoder() = default;

  /// Encodes `users` in one forward pass; returns users.size() x dim().
  virtual Matrix EncodeBatch(
      std::span<const core::RawUserFeatures* const> users) = 0;

  /// Encodes into a caller-owned matrix (users.size() x dim()), letting
  /// steady-state callers reuse `out`'s capacity across batches instead of
  /// returning a fresh Matrix per call. The default adapter just moves
  /// EncodeBatch's result; allocation-conscious implementations override.
  virtual void EncodeBatchInto(
      std::span<const core::RawUserFeatures* const> users, Matrix* out) {
    *out = EncodeBatch(users);
  }

  /// Embedding dimensionality produced by EncodeBatch.
  virtual size_t dim() const = 0;
};

/// FoldInEncoder over a frozen FieldVae.
///
/// FieldVae::EncodeFoldInInto only reads the model, so encodes run
/// concurrently with no lock: each calling thread keeps its own scratch.
class FvaeFoldInEncoder : public FoldInEncoder {
 public:
  /// `model` must outlive the encoder and must not be trained concurrently.
  explicit FvaeFoldInEncoder(const core::FieldVae* model) : model_(model) {}

  Matrix EncodeBatch(
      std::span<const core::RawUserFeatures* const> users) override {
    Matrix out;
    EncodeBatchInto(users, &out);
    return out;
  }

  /// Zero-allocation once warm: the calling thread's scratch + the caller's
  /// `out` grow to the high-water batch shape and are reused ever after
  /// (FVAE_NOALLOC is checked transitively by fvae_lint and witnessed by
  /// serving_test's operator-new interposer).
  void EncodeBatchInto(std::span<const core::RawUserFeatures* const> users,
                       Matrix* out) override FVAE_HOT FVAE_NOALLOC {
    thread_local core::FieldVae::FoldInScratch scratch;
    model_->EncodeFoldInInto(users, &scratch, out);
  }

  size_t dim() const override { return model_->latent_dim(); }

 private:
  const core::FieldVae* model_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_FOLD_IN_H_
