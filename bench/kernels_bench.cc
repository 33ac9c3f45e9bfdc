// Per-ISA throughput for the runtime-dispatched SIMD kernel layer
// (src/math/kernels/): GEMM, softmax, exp, tanh microkernels at serving
// shapes, plus the end-to-end metric the layer exists for — cold fold-in
// encode rate (FieldVae::EncodeFoldInInto) with the dispatch table pinned
// to each ISA the host supports. The scalar row is the "before" of the
// SIMD change; the native row is the "after".
//
// Outputs: BENCH_kernels.json + bench_results/BENCH_kernels.json with one
// object per ISA and the native-vs-scalar cold fold-in speedup, and
// bench_results/kernels_bench.txt (human-readable).

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "core/trainer.h"
#include "math/kernels/kernel_table.h"
#include "serving/load_gen.h"

namespace fvae::bench {
namespace {

/// Calls `op` until `budget_s` elapses (at least once); returns calls/s.
double MeasureRate(double budget_s, const std::function<void()>& op) {
  // Warm-up: touch caches, settle the dispatch table and FTZ state.
  op();
  size_t calls = 0;
  Stopwatch watch;
  do {
    op();
    ++calls;
  } while (watch.ElapsedSeconds() < budget_s);
  return static_cast<double>(calls) / watch.ElapsedSeconds();
}

struct IsaNumbers {
  double gemm_gflops = 0.0;
  double softmax_melems_s = 0.0;
  double exp_melems_s = 0.0;
  double tanh_melems_s = 0.0;
  double foldin_users_s = 0.0;
};

// GEMM at the serving encoder's hidden-layer shape; element counts sized
// so one call is ~100us of scalar work.
constexpr size_t kGemmM = 64, kGemmK = 512, kGemmN = 256;
constexpr size_t kElems = 4096;

IsaNumbers MeasureIsa(const core::FieldVae& model,
                      std::span<const core::RawUserFeatures* const> raw,
                      double budget_s) {
  IsaNumbers out;
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> a(kGemmM * kGemmK), b(kGemmK * kGemmN),
      c(kGemmM * kGemmN, 0.0f);
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);
  std::vector<float> logits(kElems);
  for (float& v : logits) v = dist(rng);
  std::vector<float> scratch(kElems);

  const KernelTable& t = Kernels();
  const double gemm_calls_s = MeasureRate(budget_s, [&] {
    t.gemm_accumulate(a.data(), b.data(), c.data(), kGemmM, kGemmK, kGemmN);
  });
  out.gemm_gflops =
      gemm_calls_s * 2.0 * double(kGemmM) * double(kGemmK) * double(kGemmN) /
      1e9;
  const double softmax_calls_s = MeasureRate(budget_s, [&] {
    scratch = logits;
    t.softmax_inplace(scratch.data(), scratch.size());
  });
  out.softmax_melems_s = softmax_calls_s * double(kElems) / 1e6;
  const double exp_calls_s = MeasureRate(budget_s, [&] {
    scratch = logits;
    t.exp_inplace(scratch.data(), scratch.size());
  });
  out.exp_melems_s = exp_calls_s * double(kElems) / 1e6;
  const double tanh_calls_s = MeasureRate(budget_s, [&] {
    scratch = logits;
    t.tanh_inplace(scratch.data(), scratch.size());
  });
  out.tanh_melems_s = tanh_calls_s * double(kElems) / 1e6;

  // Cold fold-in encode in batches of 8, persistent scratch as in
  // serving.
  core::FieldVae::FoldInScratch foldin_scratch;
  Matrix mu;
  const size_t batch = 8;
  size_t cursor = 0;
  const double batches_s = MeasureRate(budget_s, [&] {
    if (cursor + batch > raw.size()) cursor = 0;
    model.EncodeFoldInInto(raw.subspan(cursor, batch), &foldin_scratch, &mu);
    cursor += batch;
  });
  out.foldin_users_s = batches_s * double(batch);
  return out;
}

int Main() {
  const Scale scale = GetScale();
  PrintBanner("SIMD kernel layer: per-ISA throughput",
              "runtime-dispatched math kernels under the fold-in encoder");

  // Serving-sized model (same shape as bench/serving_load.cc): this is the
  // regime the kernel layer targets.
  GeneratedProfiles gen = MakeShortContent(scale, /*seed=*/17);
  core::FvaeConfig config = SweepFvaeConfig(scale, /*seed=*/17);
  config.latent_dim = ByScale<size_t>(scale, 32, 64, 96);
  config.encoder_hidden = {ByScale<size_t>(scale, 256, 512, 768),
                           ByScale<size_t>(scale, 128, 256, 384)};
  config.decoder_hidden = config.encoder_hidden;
  core::FieldVae model(config, gen.dataset.fields());
  core::TrainOptions train_options;
  train_options.batch_size = 256;
  train_options.epochs = 1;
  train_options.time_budget_seconds = ByScale<double>(scale, 0.5, 2.0, 4.0);
  core::TrainFvae(model, gen.dataset, train_options);

  const size_t pool =
      std::min<size_t>(gen.dataset.num_users(), ByScale<size_t>(scale, 256, 1024, 4096));
  std::vector<core::RawUserFeatures> raw_storage;
  raw_storage.reserve(pool);
  std::vector<const core::RawUserFeatures*> raw;
  raw.reserve(pool);
  for (size_t u = 0; u < pool; ++u) {
    raw_storage.push_back(
        serving::RawFeaturesOf(gen.dataset, static_cast<uint32_t>(u)));
    raw.push_back(&raw_storage.back());
  }

  const Isa native = ActiveIsa();
  const double budget_s = ByScale<double>(scale, 0.1, 0.4, 1.0);
  std::map<Isa, IsaNumbers> numbers;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) {
      std::printf("%-8s unsupported on this host, skipped\n", IsaName(isa));
      continue;
    }
    FVAE_CHECK(ForceIsa(isa));
    numbers[isa] = MeasureIsa(model, raw, budget_s);
  }
  FVAE_CHECK(ForceIsa(native));

  std::string table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-8s %12s %14s %12s %12s %14s\n", "isa",
                "gemm_gflops", "softmax_Mel/s", "exp_Mel/s", "tanh_Mel/s",
                "foldin_users/s");
  table += line;
  for (const auto& [isa, n] : numbers) {
    std::snprintf(line, sizeof(line),
                  "%-8s %12.2f %14.1f %12.1f %12.1f %14.1f\n", IsaName(isa),
                  n.gemm_gflops, n.softmax_melems_s, n.exp_melems_s,
                  n.tanh_melems_s, n.foldin_users_s);
    table += line;
  }
  const double scalar_foldin = numbers[Isa::kScalar].foldin_users_s;
  const double native_foldin = numbers[native].foldin_users_s;
  const double foldin_speedup =
      scalar_foldin > 0.0 ? native_foldin / scalar_foldin : 0.0;
  std::snprintf(line, sizeof(line),
                "\ncold fold-in encode speedup, native (%s) vs scalar: "
                "%.2fx\n",
                IsaName(native), foldin_speedup);
  table += line;
  std::printf("%s", table.c_str());

  std::string json = "{\n";
  json += "  \"scale\": \"" + std::string(ScaleName(scale)) + "\",\n";
  json += "  \"native_isa\": \"" + std::string(IsaName(native)) + "\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  \"gemm_shape\": [%zu, %zu, %zu],\n",
                kGemmM, kGemmK, kGemmN);
  json += buf;
  json += "  \"isas\": {\n";
  bool first = true;
  for (const auto& [isa, n] : numbers) {
    std::snprintf(
        buf, sizeof(buf),
        "%s    \"%s\": {\"gemm_gflops\": %.2f, \"softmax_melems_s\": %.1f, "
        "\"exp_melems_s\": %.1f, \"tanh_melems_s\": %.1f, "
        "\"foldin_users_s\": %.1f}",
        first ? "" : ",\n", IsaName(isa), n.gemm_gflops, n.softmax_melems_s,
        n.exp_melems_s, n.tanh_melems_s, n.foldin_users_s);
    json += buf;
    first = false;
  }
  json += "\n  },\n";
  std::snprintf(buf, sizeof(buf),
                "  \"cold_foldin_speedup_native_vs_scalar\": %.3f\n",
                foldin_speedup);
  json += buf;
  json += "}\n";

  std::filesystem::create_directories("bench_results");
  for (const char* path :
       {"BENCH_kernels.json", "bench_results/BENCH_kernels.json"}) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
  }
  if (std::FILE* f = std::fopen("bench_results/kernels_bench.txt", "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::printf("\nwrote BENCH_kernels.json and bench_results/kernels_bench.txt\n");

  if (native != Isa::kScalar && foldin_speedup < 1.5) {
    std::printf("WARNING: native fold-in speedup %.2fx below the 1.5x "
                "target\n",
                foldin_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace fvae::bench

int main() { return fvae::bench::Main(); }
