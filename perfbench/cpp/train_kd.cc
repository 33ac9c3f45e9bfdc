// train_kd: Algorithm-1 training (TrainFvae) of the bench FVAE on the
// KD-like corpus for a fixed number of epochs, single-threaded, then a
// held-out reconstruction check. Rounds of identical work repeat until the
// run's time is used; every round trains a fresh model from the same seed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "baselines/most_popular.h"
#include "common/stopwatch.h"
#include "corpus.h"
#include "workloads.h"

namespace perfbench {

fvae::core::FvaeConfig BenchFvaeConfig(uint64_t seed) {
  fvae::core::FvaeConfig config;
  config.latent_dim = 48;
  config.encoder_hidden = {192};
  config.decoder_hidden = {192};
  config.beta = 0.1f;
  config.anneal_steps = 400;
  config.sampling_strategy = fvae::core::SamplingStrategy::kUniform;
  config.sampling_rate = 0.2;
  config.sparse_learning_rate = 0.1f;
  config.seed = seed;
  return config;
}

std::string CheckTraining(const fvae::core::TrainResult& result) {
  if (result.epoch_loss.empty()) return "training ran no epoch";
  for (size_t e = 0; e < result.epoch_loss.size(); ++e) {
    if (!std::isfinite(result.epoch_loss[e])) {
      return "epoch " + std::to_string(e) + " loss is not finite";
    }
  }
  if (result.epoch_loss.size() >= 2 &&
      !(result.epoch_loss.back() < result.epoch_loss.front())) {
    return "last epoch loss " + std::to_string(result.epoch_loss.back()) +
           " is not below the first " +
           std::to_string(result.epoch_loss.front());
  }
  return "";
}

std::string CheckHeldOutAuc(const std::vector<double>& per_field_auc) {
  if (per_field_auc.size() != kNumFields) return "missing per-field AUC";
  for (size_t k = 0; k < per_field_auc.size(); ++k) {
    if (!(per_field_auc[k] > 0.5)) {
      return std::string("held-out AUC of field ") + kKdFields[k].name +
             " is " + std::to_string(per_field_auc[k]) + ", not above 0.5";
    }
  }
  return "";
}

ReconstructionAuc EvaluateFvae(const fvae::core::FieldVae& model,
                               const HeldOutTask& task) {
  std::vector<uint32_t> users(task.input.num_users());
  std::iota(users.begin(), users.end(), 0u);
  const fvae::Matrix z = model.Encode(task.input, users);
  return ScoreHeldOut(task, [&](size_t begin, size_t count, size_t k,
                                std::span<const uint64_t> ids) {
    fvae::Matrix rows(count, z.cols());
    for (size_t i = 0; i < count; ++i) {
      std::copy(z.Row(begin + i), z.Row(begin + i) + z.cols(), rows.Row(i));
    }
    return model.ScoreField(rows, k, ids);
  });
}

namespace {

struct Sizes {
  size_t train_users;
  size_t heldout_users;
  size_t epochs;
  size_t setups;
};

Sizes SizesFor(const RunArgs& args) {
  if (args.small) return {2000, 200, 2, 2};
  return {3072, 2000, 2, 3};
}

struct Round {
  double cpu_us_per_user = 0.0;
  double users_per_s = 0.0;     // wall clock
  std::vector<double> step_us;  // wall clock per step
  fvae::core::TrainResult result;
  ReconstructionAuc auc;
};

Round TrainRound(fvae::core::FieldVae& model,
                 const fvae::MultiFieldDataset& train, const HeldOutTask& task,
                 const Sizes& sizes, const RunArgs& args, Report& report) {
  Round round;
  fvae::core::TrainOptions options;
  options.batch_size = kTrainBatch;
  options.epochs = sizes.epochs;
  options.shuffle_seed = Mix64(args.seed ^ 0x5EEDu);
  // Step boundaries seen from outside: the callback fires after every
  // step, so consecutive calls bracket one step with its bookkeeping.
  options.eval_every_steps = 1;
  double last_s = 0.0;
  options.step_callback = [&](size_t, double elapsed_s) {
    round.step_us.push_back((elapsed_s - last_s) * 1e6);
    last_s = elapsed_s;
  };
  const double cpu_start = ProcessCpuSeconds();
  fvae::Stopwatch watch;
  round.result = fvae::core::TrainFvae(model, train, options);
  const double users = double(round.result.users_processed);
  round.users_per_s = users / watch.ElapsedSeconds();
  round.cpu_us_per_user = (ProcessCpuSeconds() - cpu_start) * 1e6 / users;
  if (args.corrupt == Corruption::kNonFiniteLoss) {
    round.result.epoch_loss.back() = std::nan("");
  }

  OpTally& steps = report.Ops("train_step");
  for (size_t s = 0; s < round.result.steps; ++s) {
    steps.Record(fvae::Status::Ok(), false);
  }
  const std::string trained = CheckTraining(round.result);
  if (!trained.empty()) report.Fail("train_kd: " + trained);

  round.auc = EvaluateFvae(model, task);
  report.Ops("heldout_eval").Record(fvae::Status::Ok(), false);
  const std::string scored = CheckHeldOutAuc(round.auc.per_field);
  if (!scored.empty()) report.Fail("train_kd: " + scored);
  return round;
}

}  // namespace

double EncodeRate(const fvae::core::FieldVae& model,
                  const fvae::MultiFieldDataset& data, double budget_s) {
  std::vector<uint32_t> users(data.num_users());
  std::iota(users.begin(), users.end(), 0u);
  const std::span<const uint32_t> all(users);
  size_t encoded = 0;
  double checksum = 0.0;
  fvae::Stopwatch watch;
  do {
    for (size_t begin = 0; begin < all.size(); begin += 1024) {
      const size_t n = std::min<size_t>(1024, all.size() - begin);
      const fvae::Matrix mu = model.Encode(data, all.subspan(begin, n));
      checksum += mu(0, 0);
      encoded += n;
    }
  } while (watch.ElapsedSeconds() < budget_s);
  return std::isfinite(checksum) ? double(encoded) / watch.ElapsedSeconds()
                                 : 0.0;
}

void RunTrainKd(const RunArgs& args, Report& report) {
  const Sizes sizes = SizesFor(args);
  const fvae::core::FvaeConfig config = BenchFvaeConfig(args.seed);

  // Set-up: corpus generation plus model construction, repeated; the
  // corpora of every repetition must be identical.
  std::vector<double> setup_s;
  fvae::MultiFieldDataset train, heldout;
  std::unique_ptr<fvae::core::FieldVae> model;
  for (size_t i = 0; i < sizes.setups; ++i) {
    const size_t previous_nnz = train.TotalNnz();
    fvae::Stopwatch watch;
    train = GenerateCorpus(sizes.train_users, args.seed);
    heldout = GenerateCorpus(sizes.heldout_users, args.seed,
                             sizes.train_users);
    model = std::make_unique<fvae::core::FieldVae>(config, train.fields());
    setup_s.push_back(watch.ElapsedSeconds());
    if (i > 0 && train.TotalNnz() != previous_nnz) {
      report.Fail("train_kd: the corpus differs between set-ups of one seed");
    }
  }
  std::printf("corpus: train_users=%zu heldout_users=%zu "
              "mean_features=%.2f epochs=%zu batch=%zu\n",
              train.num_users(), heldout.num_users(),
              train.AverageFeaturesPerUser(), sizes.epochs, kTrainBatch);
  std::vector<uint32_t> heldout_ids(heldout.num_users());
  std::iota(heldout_ids.begin(), heldout_ids.end(), 0u);
  const HeldOutTask task = MakeHeldOutTask(heldout, heldout_ids, args.seed);

  // Untraced rounds for the whole run, or its first half in a traced run.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Round> rounds;
  fvae::Stopwatch run;
  do {
    if (!rounds.empty()) {
      model = std::make_unique<fvae::core::FieldVae>(config, train.fields());
    }
    rounds.push_back(
        TrainRound(*model, train, task, sizes, args, report));
    // Read after fixed work, so that the number of rounds a run fits in
    // its time does not move the figure.
    if (rounds.size() == 1) report.EndToEnd("peak_rss_mb", PeakRssMb());
  } while (run.ElapsedSeconds() < untraced_budget);

  std::vector<double> cpu_us_per_user, users_per_s, step_us;
  for (const Round& r : rounds) {
    cpu_us_per_user.push_back(r.cpu_us_per_user);
    users_per_s.push_back(r.users_per_s);
    step_us.insert(step_us.end(), r.step_us.begin(), r.step_us.end());
    if (r.auc.overall != rounds.front().auc.overall) {
      report.Fail("train_kd: held-out AUC differs between rounds that train "
                  "identically seeded models");
    }
  }
  const double untraced_cost = Median(cpu_us_per_user);
  report.EndToEnd("setup_s", Median(setup_s));
  report.EndToEnd("cpu_us_per_op", untraced_cost);
  report.EndToEnd("p50_us", Quantile(step_us, 0.50));
  report.EndToEnd("heldout_auc", rounds.front().auc.overall);
  std::printf("train_kd: rounds=%zu steps=%zu users_per_cpu_s=%.1f "
              "users_per_s=%.1f step_p50_us=%.1f step_p99_us=%.1f "
              "heldout_auc=%.5f per_field=[%.4f %.4f %.4f %.4f]\n",
              rounds.size(), step_us.size(), 1e6 / untraced_cost,
              Median(users_per_s), Quantile(step_us, 0.50),
              Quantile(step_us, 0.99),
              rounds.front().auc.overall, rounds.front().auc.per_field[0],
              rounds.front().auc.per_field[1], rounds.front().auc.per_field[2],
              rounds.front().auc.per_field[3]);

  // Context for heldout_auc: a non-personalized popularity ranking.
  fvae::baselines::MostPopularModel popular;
  popular.Fit(train);
  const ReconstructionAuc popular_auc = ScoreHeldOut(
      task, [&](size_t begin, size_t count, size_t k,
                std::span<const uint64_t> ids) {
        std::vector<uint32_t> users(count);
        std::iota(users.begin(), users.end(), uint32_t(begin));
        return popular.Score(task.input, users, k, ids);
      });
  std::printf("context: most_popular_heldout_auc=%.5f\n", popular_auc.overall);

  if (args.trace) {
    std::vector<Round> traced;
    StartTracing();
    fvae::Stopwatch traced_run;
    do {
      model = std::make_unique<fvae::core::FieldVae>(config, train.fields());
      traced.push_back(
          TrainRound(*model, train, task, sizes, args, report));
    } while (traced_run.ElapsedSeconds() < args.seconds - untraced_budget);
    StopTracing();
    std::map<std::string, SpanSample> spans = CollectSpans();
    const double steps = double(spans["train.step"].count);
    report.Layer("core.train_step_us", spans["train.step"].MeanUs());
    report.Layer("core.forward_us", spans["train.forward"].MeanUs());
    report.Layer("core.fields_us", spans["train.fields"].MeanUs());
    report.Layer("core.backward_us", spans["train.backward"].MeanUs());
    report.Layer("nn.update_us", spans["train.update"].MeanUs());
    report.Layer("data.between_steps_us",
                 steps > 0 ? (spans["train.epoch"].total_us -
                              spans["train.step"].total_us) /
                                 steps
                           : 0.0);
    report.Layer("hash.grow_count",
                 double(spans["hash.grow"].count) / double(traced.size()));
    report.Layer("hash.grow_us",
                 spans["hash.grow"].total_us / double(traced.size()));
    const auto& candidates = traced.front().result.mean_candidates_per_field;
    for (size_t k = 0; k < kNumFields && k < candidates.size(); ++k) {
      report.Layer(std::string("core.candidates.") + kKdFields[k].name,
                   candidates[k]);
    }
    std::vector<double> traced_cost;
    for (const Round& r : traced) traced_cost.push_back(r.cpu_us_per_user);
    report.Layer("obs.trace_overhead_pct",
                 (Median(traced_cost) - untraced_cost) / untraced_cost * 100);
    report.Layer("core.encode_users_per_s", EncodeRate(*model, heldout, 0.5));
    report.Layer("kernels.gemm_gflops",
                 GemmGflops(kTrainBatch, config.encoder_hidden[0],
                            config.latent_dim, 0.3));
  }
}

}  // namespace perfbench
