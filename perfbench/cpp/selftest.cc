// Self-test of the benchmark's checks at a small size: every workload must
// pass clean, and every check must reject a deliberately corrupted output.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "corpus.h"
#include "math/kernels/kernel_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using Runner = void (*)(const RunArgs&, Report&);

/// Runs a workload at self-test size and returns whether its checks held.
bool RunSmall(Runner run, const char* workload, bool trace,
              Corruption corrupt) {
  RunArgs args;
  args.workload = workload;
  args.seed = 7;
  args.seconds = 1.0;
  args.trace = trace;
  args.small = true;
  args.corrupt = corrupt;
  Report report;
  run(args, report);
  report.Print(trace);
  return report.correct();
}

void CheckFunctions() {
  fvae::core::TrainResult trained;
  trained.epoch_loss = {2.0, 1.5};
  Expect(CheckTraining(trained).empty(), "a falling finite loss passes");
  trained.epoch_loss = {2.0, std::nan("")};
  Expect(!CheckTraining(trained).empty(), "a NaN epoch loss is rejected");
  trained.epoch_loss = {2.0, INFINITY};
  Expect(!CheckTraining(trained).empty(), "an infinite epoch loss is rejected");
  trained.epoch_loss = {1.5, 2.0};
  Expect(!CheckTraining(trained).empty(), "a rising loss is rejected");
  Expect(CheckHeldOutAuc({0.7, 0.6, 0.8, 0.9}).empty(),
         "per-field AUCs above 0.5 pass");
  Expect(!CheckHeldOutAuc({0.7, 0.5, 0.8, 0.9}).empty(),
         "a per-field AUC of 0.5 is rejected");

  // Embedding checks on a briefly trained model's encodes (an untrained
  // encoder maps every user to nearly the same point).
  const fvae::MultiFieldDataset data = GenerateCorpus(1024, 11);
  fvae::core::FieldVae model(BenchFvaeConfig(11), data.fields());
  fvae::core::TrainOptions options;
  options.batch_size = kTrainBatch;
  options.epochs = 1;
  const fvae::core::TrainResult trained_model =
      fvae::core::TrainFvae(model, data, options);
  Expect(CheckTraining(trained_model).empty(), "the probe model trains");
  std::vector<uint32_t> users(64);
  std::iota(users.begin(), users.end(), 0u);
  const fvae::Matrix native = model.Encode(data, users);
  const fvae::Isa isa = fvae::ActiveIsa();
  fvae::ForceIsa(fvae::Isa::kScalar);
  const fvae::Matrix scalar = model.Encode(data, users);
  fvae::ForceIsa(isa);
  const size_t dim = native.cols();
  const std::span<const float> row0(native.Row(0), dim);
  Expect(CheckEmbedding(row0, {scalar.Row(0), dim}).empty(),
         "a native encode matches its scalar reference");
  std::vector<float> nudged(row0.begin(), row0.end());
  nudged[dim / 2] += 1e-2f;
  Expect(!CheckEmbedding(nudged, {scalar.Row(0), dim}).empty(),
         "a perturbed embedding is rejected");
  Expect(!CheckEmbedding({native.Row(1), dim}, {scalar.Row(0), dim}).empty(),
         "another user's embedding is rejected");
  nudged.assign(row0.begin(), row0.end());
  nudged[0] = std::nanf("");
  Expect(!CheckEmbedding(nudged, {scalar.Row(0), dim}).empty(),
         "a non-finite embedding is rejected");
}

}  // namespace

int RunSelfTest() {
  CheckFunctions();
  Expect(RunSmall(RunTrainKd, "train_kd", true, Corruption::kNone),
         "train_kd (traced) passes its checks");
  Expect(RunSmall(RunFoldinCold, "foldin_cold", true, Corruption::kNone),
         "foldin_cold (traced) passes its checks");
  Expect(RunSmall(RunNetMixed, "net_mixed", true, Corruption::kNone),
         "net_mixed (traced) passes its checks");
  Expect(!RunSmall(RunTrainKd, "train_kd", false, Corruption::kNonFiniteLoss),
         "train_kd rejects a non-finite loss");
  Expect(!RunSmall(RunFoldinCold, "foldin_cold", false,
                   Corruption::kPerturbedEmbedding),
         "foldin_cold rejects a perturbed fold-in embedding");
  Expect(!RunSmall(RunNetMixed, "net_mixed", false,
                   Corruption::kWrongUserVector),
         "net_mixed rejects another user's vector");
  std::printf("selftest: %s (%d failures)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures;
}

}  // namespace perfbench
