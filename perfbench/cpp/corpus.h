// The benchmark's own KD-like corpus: a topic-structured, Zipf-tailed
// multi-field profile generator whose shape follows the repository's
// small-scale Kandian stand-in (four fields ch1/ch2/ch3/tag, the tag field
// sparse). It lives here, not in src/datagen, so that the benchmark's
// inputs depend on the seed alone and stay fixed while the program changes.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/fvae_model.h"
#include "data/dataset.h"
#include "math/matrix.h"

namespace perfbench {

struct FieldShape {
  const char* name;
  size_t vocab;        // distinct features J_k
  double mean;         // mean observed features per user (Poisson)
  double zipf;         // popularity decay inside a topic's window
  bool sparse;         // eligible for feature sampling in training
};

/// KD-like field make-up (72 mean features per user).
inline constexpr FieldShape kKdFields[] = {
    {"ch1", 128, 6.0, 1.3, false},
    {"ch2", 2048, 10.0, 1.0, false},
    {"ch3", 8192, 16.0, 1.05, false},
    {"tag", 32768, 40.0, 1.15, true},
};
inline constexpr size_t kNumFields = 4;
inline constexpr size_t kTopics = 24;

/// Generates users [first, first + count) of the corpus of `seed`. Every
/// user depends on (seed, index) alone, so a corpus can be cut into
/// disjoint parts (training users, held-out users, a cold pool).
fvae::MultiFieldDataset GenerateCorpus(size_t count, uint64_t seed,
                                       size_t first = 0);

/// Raw 64-bit id of dense feature `index` of field `k`.
uint64_t FeatureId(size_t k, uint64_t index);

/// User `u`'s raw field vector, as a fold-in caller would send it.
fvae::core::RawUserFeatures RawFeatures(const fvae::MultiFieldDataset& data,
                                        uint32_t u);

/// Held-out reconstruction task over some users of a corpus: a fraction
/// of each field's features is removed from the model input and must be
/// ranked above sampled unobserved features of the same field.
struct HeldOutTask {
  /// Reduced inputs, one user per held-out user, in order.
  fvae::MultiFieldDataset input;
  /// candidates[i][k]: ids to score for user i in field k; labels[i][k]:
  /// 1 for a held-out (positive) id, 0 for a sampled negative.
  std::vector<std::vector<std::vector<uint64_t>>> candidates;
  std::vector<std::vector<std::vector<uint8_t>>> labels;
};
HeldOutTask MakeHeldOutTask(const fvae::MultiFieldDataset& data,
                            std::span<const uint32_t> users, uint64_t seed);

struct ReconstructionAuc {
  /// Per user, positive/negative pairs compared within each field and
  /// pooled over fields; averaged over users.
  double overall = 0.0;
  std::vector<double> per_field;
};

/// Scores one field: rows = task users [begin, begin + count), columns =
/// `ids`.
using FieldScorer = std::function<fvae::Matrix(
    size_t begin, size_t count, size_t k, std::span<const uint64_t> ids)>;

/// Rank-AUC of a scorer on the task (ties count half).
ReconstructionAuc ScoreHeldOut(const HeldOutTask& task,
                               const FieldScorer& scorer);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
