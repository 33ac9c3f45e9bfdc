#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/random.h"
#include "datagen/barabasi_albert.h"
#include "datagen/powerlaw.h"
#include "datagen/profile_generator.h"

namespace fvae {
namespace {

// ---------- ZipfSampler ----------

TEST(ZipfSamplerTest, ProbabilitiesNormalizedAndDecreasing) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (size_t r = 0; r < 100; ++r) {
    total += zipf.Probability(r);
    if (r > 0) {
      EXPECT_LE(zipf.Probability(r), zipf.Probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.Probability(r), 0.1, 1e-12);
  }
}

TEST(ZipfSamplerTest, EmpiricalMatchesTheoretical) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(3);
  std::vector<int> counts(20, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (size_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(counts[r] / double(kDraws), zipf.Probability(r), 0.01);
  }
}

// ---------- PopularityHistogram ----------

TEST(PopularityHistogramTest, CountsAndRanks) {
  PopularityHistogram hist;
  for (int i = 0; i < 8; ++i) hist.Add(1);
  for (int i = 0; i < 4; ++i) hist.Add(2);
  for (int i = 0; i < 2; ++i) hist.Add(3);
  hist.Add(4);
  EXPECT_EQ(hist.distinct_features(), 4u);
  EXPECT_EQ(hist.total_observations(), 15u);
  const auto ranks = hist.RankFrequency();
  EXPECT_EQ(ranks[0], 8u);
  EXPECT_EQ(ranks[3], 1u);
  // Frequencies 8,4,2,1 over ranks 1..4: slope is strongly negative.
  EXPECT_LT(hist.LogLogSlope(), -1.0);
}

TEST(PopularityHistogramTest, ZipfStreamHasSlopeNearMinusExponent) {
  ZipfSampler zipf(500, 1.2);
  Rng rng(7);
  PopularityHistogram hist;
  for (int i = 0; i < 200000; ++i) {
    hist.Add(static_cast<uint64_t>(zipf.Sample(rng)));
  }
  // The empirical log-log slope should be in the right ballpark.
  EXPECT_LT(hist.LogLogSlope(), -0.6);
  EXPECT_GT(hist.LogLogSlope(), -1.8);
}

// ---------- Barabasi-Albert ----------

TEST(BarabasiAlbertTest, RespectsShapeKnobs) {
  BarabasiAlbertConfig config;
  config.num_users = 500;
  config.features_per_user = 50;
  config.max_features = 300;
  config.seed = 42;
  const MultiFieldDataset data = GenerateBarabasiAlbert(config);
  EXPECT_EQ(data.num_users(), 500u);
  EXPECT_EQ(data.num_fields(), 1u);
  EXPECT_TRUE(data.field(0).is_sparse);
  // Vocabulary never exceeds the cap.
  EXPECT_LE(data.DistinctFeatureIds(0).size(), 300u);
  // Total attachments per user = features_per_user (counts sum to it).
  for (size_t u = 0; u < 10; ++u) {
    EXPECT_DOUBLE_EQ(data.UserFieldTotal(u, 0), 50.0);
  }
}

TEST(BarabasiAlbertTest, PopularityIsHeavyTailed) {
  BarabasiAlbertConfig config;
  config.num_users = 2000;
  config.features_per_user = 30;
  config.max_features = 5000;
  config.new_feature_prob = 0.1;
  config.seed = 11;
  const MultiFieldDataset data = GenerateBarabasiAlbert(config);
  PopularityHistogram hist;
  for (size_t u = 0; u < data.num_users(); ++u) {
    for (const FeatureEntry& e : data.UserField(u, 0)) hist.Add(e.id);
  }
  // Preferential attachment produces a clearly negative log-log slope.
  EXPECT_LT(hist.LogLogSlope(), -0.4);
}

TEST(BarabasiAlbertTest, DeterministicGivenSeed) {
  BarabasiAlbertConfig config;
  config.num_users = 100;
  config.features_per_user = 10;
  config.max_features = 200;
  config.seed = 9;
  const MultiFieldDataset a = GenerateBarabasiAlbert(config);
  const MultiFieldDataset b = GenerateBarabasiAlbert(config);
  ASSERT_EQ(a.TotalNnz(), b.TotalNnz());
  for (size_t u = 0; u < a.num_users(); ++u) {
    auto sa = a.UserField(u, 0);
    auto sb = b.UserField(u, 0);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

// ---------- Profile generator ----------

TEST(ProfileGeneratorTest, ShapeMatchesConfig) {
  ProfileGeneratorConfig config = ShortContentConfig(300, /*seed=*/1);
  const GeneratedProfiles gen = GenerateProfiles(config);
  EXPECT_EQ(gen.dataset.num_users(), 300u);
  EXPECT_EQ(gen.dataset.num_fields(), 4u);
  EXPECT_EQ(gen.dominant_topic.size(), 300u);
  EXPECT_EQ(gen.topic_mixture.size(), 300u);
  EXPECT_EQ(gen.field_vocab.size(), 4u);
  EXPECT_EQ(gen.field_vocab[0].size(), 64u);
  EXPECT_EQ(gen.dataset.field(3).name, "tag");
  EXPECT_TRUE(gen.dataset.field(3).is_sparse);
}

TEST(ProfileGeneratorTest, TopicMixturesAreDistributions) {
  ProfileGeneratorConfig config = ShortContentConfig(100, /*seed=*/2);
  const GeneratedProfiles gen = GenerateProfiles(config);
  for (const auto& mixture : gen.topic_mixture) {
    double total = 0.0;
    for (float w : mixture) {
      EXPECT_GE(w, 0.0f);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
  for (uint32_t t : gen.dominant_topic) {
    EXPECT_LT(t, config.num_topics);
  }
}

TEST(ProfileGeneratorTest, FeatureIdsComeFromDeclaredVocab) {
  ProfileGeneratorConfig config = ShortContentConfig(100, /*seed=*/3);
  const GeneratedProfiles gen = GenerateProfiles(config);
  for (size_t k = 0; k < 4; ++k) {
    std::unordered_set<uint64_t> vocab(gen.field_vocab[k].begin(),
                                       gen.field_vocab[k].end());
    for (size_t u = 0; u < gen.dataset.num_users(); ++u) {
      for (const FeatureEntry& e : gen.dataset.UserField(u, k)) {
        ASSERT_TRUE(vocab.count(e.id)) << "field " << k;
      }
    }
  }
}

TEST(ProfileGeneratorTest, ScatterIdsProduceSparseIdSpace) {
  ProfileGeneratorConfig config = ShortContentConfig(10, /*seed=*/4);
  config.scatter_ids = true;
  const GeneratedProfiles scattered = GenerateProfiles(config);
  // Scattered IDs should exceed the dense vocabulary range.
  bool any_large = false;
  for (uint64_t id : scattered.field_vocab[0]) {
    if (id > 1u << 20) any_large = true;
  }
  EXPECT_TRUE(any_large);

  config.scatter_ids = false;
  const GeneratedProfiles dense = GenerateProfiles(config);
  for (size_t j = 0; j < dense.field_vocab[0].size(); ++j) {
    EXPECT_EQ(dense.field_vocab[0][j], j);
  }
}

TEST(ProfileGeneratorTest, SameTopicUsersShareMoreFeatures) {
  // Inter-field correlation sanity: users of the same dominant topic should
  // overlap more in ch1 than users of different topics.
  ProfileGeneratorConfig config = ShortContentConfig(400, /*seed=*/5);
  config.num_topics = 4;
  const GeneratedProfiles gen = GenerateProfiles(config);

  auto jaccard = [&](size_t a, size_t b) {
    std::set<uint64_t> sa, sb, inter;
    for (const FeatureEntry& e : gen.dataset.UserField(a, 0)) sa.insert(e.id);
    for (const FeatureEntry& e : gen.dataset.UserField(b, 0)) sb.insert(e.id);
    if (sa.empty() || sb.empty()) return -1.0;
    for (uint64_t id : sa) {
      if (sb.count(id)) inter.insert(id);
    }
    std::set<uint64_t> uni = sa;
    uni.insert(sb.begin(), sb.end());
    return double(inter.size()) / double(uni.size());
  };

  double same_sum = 0.0, diff_sum = 0.0;
  int same_n = 0, diff_n = 0;
  for (size_t a = 0; a < 200; ++a) {
    for (size_t b = a + 1; b < a + 20 && b < 400; ++b) {
      const double j = jaccard(a, b);
      if (j < 0) continue;
      if (gen.dominant_topic[a] == gen.dominant_topic[b]) {
        same_sum += j;
        ++same_n;
      } else {
        diff_sum += j;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 10);
  ASSERT_GT(diff_n, 10);
  EXPECT_GT(same_sum / same_n, diff_sum / diff_n);
}

TEST(ProfileGeneratorTest, PresetsDiffer) {
  const auto sc = ShortContentConfig(10, 1);
  const auto kd = KandianConfig(10, 1);
  const auto qb = QQBrowserConfig(10, 1);
  EXPECT_LT(sc.fields[3].vocab_size, kd.fields[3].vocab_size);
  EXPECT_LT(qb.fields[3].vocab_size, kd.fields[3].vocab_size);
  EXPECT_EQ(sc.fields.size(), 4u);
  EXPECT_EQ(kd.fields.size(), 4u);
  EXPECT_EQ(qb.fields.size(), 4u);
}

}  // namespace
}  // namespace fvae
