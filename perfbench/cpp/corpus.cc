#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common.h"

namespace perfbench {
namespace {

/// Counter-based random stream: reproducible per (seed, stream id).
class Stream {
 public:
  Stream(uint64_t seed, uint64_t id) : state_(Mix64(seed ^ Mix64(id))) {}
  uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ull); }
  double Uniform() { return double(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return size_t(Uniform() * double(n)); }
  size_t Poisson(double mean) {
    const double limit = std::exp(-mean);
    size_t k = 0;
    for (double p = Uniform(); p > limit; p *= Uniform()) ++k;
    return k;
  }

 private:
  uint64_t state_;
};

/// Cumulative Zipf weights over a topic window of each field.
struct ZipfTable {
  size_t window = 0;
  std::vector<double> cdf;

  ZipfTable(size_t vocab, double exponent)
      : window(std::max<size_t>(8, 4 * vocab / kTopics)) {
    window = std::min(window, vocab);
    double total = 0.0;
    for (size_t r = 0; r < window; ++r) {
      total += 1.0 / std::pow(double(r + 1), exponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  size_t Draw(Stream& rng) const {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.Uniform());
    return std::min<size_t>(size_t(it - cdf.begin()), window - 1);
  }
};

/// Probability that a draw ignores the user's topics.
constexpr double kNoise = 0.05;
/// Probability that a topical draw uses the dominant topic.
constexpr double kDominant = 0.75;

}  // namespace

uint64_t FeatureId(size_t k, uint64_t index) {
  return Mix64((uint64_t(k + 1) << 40) ^ index);
}

fvae::MultiFieldDataset GenerateCorpus(size_t count, uint64_t seed,
                                       size_t first) {
  std::vector<fvae::FieldSchema> schemas;
  std::vector<ZipfTable> zipf;
  for (const FieldShape& f : kKdFields) {
    schemas.push_back({f.name, f.sparse});
    zipf.emplace_back(f.vocab, f.zipf);
  }
  fvae::MultiFieldDataset::Builder builder(schemas);
  std::vector<std::vector<fvae::FeatureEntry>> fields(kNumFields);
  std::map<uint64_t, float> counts;
  for (size_t u = first; u < first + count; ++u) {
    Stream rng(seed, u);
    const size_t dominant = rng.Below(kTopics);
    const size_t secondary = (dominant + 1 + rng.Below(kTopics - 1)) % kTopics;
    for (size_t k = 0; k < kNumFields; ++k) {
      const FieldShape& shape = kKdFields[k];
      const size_t draws = std::max<size_t>(1, rng.Poisson(shape.mean));
      counts.clear();
      for (size_t d = 0; d < draws; ++d) {
        size_t index;
        if (rng.Uniform() < kNoise) {
          index = rng.Below(shape.vocab);
        } else {
          const size_t topic =
              rng.Uniform() < kDominant ? dominant : secondary;
          index = (topic * shape.vocab / kTopics + zipf[k].Draw(rng)) %
                  shape.vocab;
        }
        counts[FeatureId(k, index)] += 1.0f;
      }
      fields[k].clear();
      for (const auto& [id, value] : counts) fields[k].push_back({id, value});
    }
    builder.AddUser(fields);
  }
  return builder.Build();
}

fvae::core::RawUserFeatures RawFeatures(const fvae::MultiFieldDataset& data,
                                        uint32_t u) {
  fvae::core::RawUserFeatures raw(data.num_fields());
  for (size_t k = 0; k < data.num_fields(); ++k) {
    const auto span = data.UserField(u, k);
    raw[k].assign(span.begin(), span.end());
  }
  return raw;
}

HeldOutTask MakeHeldOutTask(const fvae::MultiFieldDataset& data,
                            std::span<const uint32_t> users, uint64_t seed) {
  HeldOutTask task;
  fvae::MultiFieldDataset::Builder builder(data.fields());
  for (uint32_t u : users) {
    Stream rng(seed ^ 0x4E1D0u, u);
    std::vector<std::vector<fvae::FeatureEntry>> input(data.num_fields());
    std::vector<std::vector<uint64_t>> candidates(data.num_fields());
    std::vector<std::vector<uint8_t>> labels(data.num_fields());
    for (size_t k = 0; k < data.num_fields(); ++k) {
      const auto observed = data.UserField(u, k);
      std::unordered_set<uint64_t> seen;
      for (const fvae::FeatureEntry& e : observed) seen.insert(e.id);
      // Hold out one feature in five (at least one when the field has two
      // or more), keeping the rest as the model's input.
      for (const fvae::FeatureEntry& e : observed) {
        const bool hold = observed.size() >= 2 && rng.Uniform() < 0.2;
        if (hold) {
          candidates[k].push_back(e.id);
          labels[k].push_back(1);
        } else {
          input[k].push_back(e);
        }
      }
      if (observed.size() >= 2 && candidates[k].empty()) {
        candidates[k].push_back(input[k].back().id);
        labels[k].push_back(1);
        input[k].pop_back();
      }
      const size_t positives = candidates[k].size();
      for (size_t n = 0; n < positives; ++n) {
        uint64_t id;
        do {
          id = FeatureId(k, rng.Below(kKdFields[k].vocab));
        } while (seen.count(id) != 0);
        seen.insert(id);
        candidates[k].push_back(id);
        labels[k].push_back(0);
      }
    }
    builder.AddUser(input);
    task.candidates.push_back(std::move(candidates));
    task.labels.push_back(std::move(labels));
  }
  task.input = builder.Build();
  return task;
}

namespace {

/// Pairs (positive, negative) ranked correctly, ties counting half.
void CountPairs(std::span<const float> scores, std::span<const uint8_t> labels,
                double* correct, double* total) {
  for (size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] != 1) continue;
    for (size_t j = 0; j < scores.size(); ++j) {
      if (labels[j] != 0) continue;
      *total += 1.0;
      if (scores[i] > scores[j]) {
        *correct += 1.0;
      } else if (scores[i] == scores[j]) {
        *correct += 0.5;
      }
    }
  }
}

}  // namespace

ReconstructionAuc ScoreHeldOut(const HeldOutTask& task,
                               const FieldScorer& scorer) {
  const size_t users = task.candidates.size();
  const size_t fields = task.input.num_fields();
  constexpr size_t kChunk = 256;
  std::vector<double> field_sum(fields, 0.0), field_users(fields, 0.0);
  double overall_sum = 0.0, overall_users = 0.0;
  for (size_t begin = 0; begin < users; begin += kChunk) {
    const size_t count = std::min(kChunk, users - begin);
    std::vector<double> user_correct(count, 0.0), user_total(count, 0.0);
    for (size_t k = 0; k < fields; ++k) {
      std::vector<uint64_t> ids;
      std::map<uint64_t, size_t> column;
      for (size_t i = 0; i < count; ++i) {
        for (uint64_t id : task.candidates[begin + i][k]) {
          if (column.emplace(id, ids.size()).second) ids.push_back(id);
        }
      }
      if (ids.empty()) continue;
      const fvae::Matrix scores = scorer(begin, count, k, ids);
      for (size_t i = 0; i < count; ++i) {
        const auto& cand = task.candidates[begin + i][k];
        if (cand.empty()) continue;
        std::vector<float> row;
        for (uint64_t id : cand) row.push_back(scores(i, column[id]));
        double correct = 0.0, total = 0.0;
        CountPairs(row, task.labels[begin + i][k], &correct, &total);
        if (total == 0.0) continue;
        field_sum[k] += correct / total;
        field_users[k] += 1.0;
        user_correct[i] += correct;
        user_total[i] += total;
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (user_total[i] == 0.0) continue;
      overall_sum += user_correct[i] / user_total[i];
      overall_users += 1.0;
    }
  }
  ReconstructionAuc auc;
  auc.overall = overall_users > 0.0 ? overall_sum / overall_users : 0.0;
  for (size_t k = 0; k < fields; ++k) {
    auc.per_field.push_back(field_users[k] > 0.0 ? field_sum[k] / field_users[k]
                                                 : 0.0);
  }
  return auc;
}

}  // namespace perfbench
