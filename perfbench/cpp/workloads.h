// The benchmark's workloads and the model configuration they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "corpus.h"
#include "core/fvae_config.h"
#include "core/fvae_model.h"
#include "core/trainer.h"

namespace perfbench {

/// The repository's small-scale bench FVAE (DefaultFvaeConfig at the
/// "small" scale of bench/bench_common.h), seeded from the run seed.
fvae::core::FvaeConfig BenchFvaeConfig(uint64_t seed);

/// Training batch of Algorithm 1 in every workload.
inline constexpr size_t kTrainBatch = 256;

/// Output checks shared by the workloads and the self-test. Each returns
/// an empty string when the output passes, else what is wrong.
std::string CheckTraining(const fvae::core::TrainResult& result);
std::string CheckHeldOutAuc(const std::vector<double>& per_field_auc);
std::string CheckEmbedding(std::span<const float> got,
                           std::span<const float> want);

/// Held-out AUC of the FVAE: encode the reduced inputs, score their
/// candidates with the per-field decoder heads.
ReconstructionAuc EvaluateFvae(const fvae::core::FieldVae& model,
                               const HeldOutTask& task);

/// Batch FieldVae::Encode rate (users/s) over `data` in chunks of 1024
/// users (the chunk the serving store materializes with), timed for about
/// `budget_s` seconds.
double EncodeRate(const fvae::core::FieldVae& model,
                  const fvae::MultiFieldDataset& data, double budget_s);

void RunTrainKd(const RunArgs& args, Report& report);
void RunFoldinCold(const RunArgs& args, Report& report);
void RunNetMixed(const RunArgs& args, Report& report);

/// Runs every workload at self-test size and feeds each check a corrupted
/// output. Returns the number of self-test failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
