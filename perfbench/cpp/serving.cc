// The serving workloads. Both serve a model trained for a fixed number of
// steps on the run's corpus, through EmbeddingService configured as
// `fvae serve` configures it with no flags.
//
// foldin_cold: closed-loop in-process clients call LookupOrEncode for
//   users never materialized; every request is a fold-in encode followed
//   by a store write.
// net_mixed: closed-loop clients go through one ShardRouterClient to two
//   loopback RpcServer replicas that each hold every materialized user;
//   each client repeats rounds of 19 Lookups of materialized users and one
//   EncodeFoldIn of a user neither replica has seen.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "corpus.h"
#include "math/kernels/kernel_table.h"
#include "net/rpc_server.h"
#include "net/shard_router.h"
#include "obs/trace.h"
#include "serving/embedding_service.h"
#include "serving/fold_in.h"
#include "serving/load_gen.h"
#include "workloads.h"

namespace perfbench {

std::string CheckEmbedding(std::span<const float> got,
                           std::span<const float> want) {
  const double diff = MaxAbsDiff(got, want);
  if (diff <= kEmbeddingTolerance) return "";
  return "embedding differs from its reference by " + std::to_string(diff);
}

namespace {

using fvae::serving::EmbeddingService;

struct Sizes {
  size_t hot_users;    // materialized at set-up (ids 0 .. hot_users - 1)
  size_t cold_pool;    // feature vectors of never-materialized users
  size_t train_users;  // the serving model trains one epoch over these
  size_t heldout;      // cold-pool users scored for heldout_auc
  size_t setups;
  size_t warmup;       // fixed-work phase: iterations per client
};

/// Ids of fold-in requests start here, far above every materialized id;
/// request n uses id kColdBase + n with the features of cold user n mod
/// cold_pool, so every request is a user the service has never seen.
constexpr uint64_t kColdBase = uint64_t{1} << 40;

/// Lookups per fold-in in one net_mixed round.
constexpr size_t kLookupsPerRound = 19;

/// The service options `fvae serve` uses when given no flags.
fvae::serving::EmbeddingServiceOptions ServeOptions() {
  fvae::serving::EmbeddingServiceOptions options;
  options.num_shards = 16;
  options.enable_batcher = true;
  options.batcher.max_batch_size = 8;
  options.batcher.max_wait_micros = 100;
  options.batcher.queue_capacity = 8192;
  options.default_deadline_micros = 0;
  return options;
}

/// What both serving workloads build before their set-up: the corpus, the
/// fixed-step model, and the reference embeddings the checks compare with.
struct Inputs {
  fvae::MultiFieldDataset hot;
  fvae::MultiFieldDataset cold;
  std::vector<fvae::core::RawUserFeatures> cold_raw;
  std::vector<uint32_t> hot_ids;
  /// Encode of every cold user with the kernel table forced to scalar.
  fvae::Matrix cold_reference;
  std::unique_ptr<fvae::core::FieldVae> model;
  double heldout_auc = 0.0;
};

Inputs Prepare(const RunArgs& args, const Sizes& sizes, Report& report) {
  Inputs in;
  in.hot = GenerateCorpus(sizes.hot_users, args.seed);
  in.cold = GenerateCorpus(sizes.cold_pool, args.seed, sizes.hot_users);
  in.hot_ids.resize(sizes.hot_users);
  std::iota(in.hot_ids.begin(), in.hot_ids.end(), 0u);
  for (uint32_t u = 0; u < in.cold.num_users(); ++u) {
    in.cold_raw.push_back(RawFeatures(in.cold, u));
  }

  // Fixed work: one epoch over the first train_users users, so every run
  // of a seed serves the same weights.
  const fvae::MultiFieldDataset train = GenerateCorpus(sizes.train_users,
                                                       args.seed);
  in.model = std::make_unique<fvae::core::FieldVae>(BenchFvaeConfig(args.seed),
                                                    train.fields());
  fvae::core::TrainOptions options;
  options.batch_size = kTrainBatch;
  options.epochs = 1;
  options.shuffle_seed = Mix64(args.seed ^ 0x5EEDu);
  const fvae::core::TrainResult trained =
      fvae::core::TrainFvae(*in.model, train, options);
  const std::string checked = CheckTraining(trained);
  if (!checked.empty()) report.Fail("serving model: " + checked);

  std::vector<uint32_t> heldout_ids(
      std::min(sizes.heldout, in.cold.num_users()));
  std::iota(heldout_ids.begin(), heldout_ids.end(), 0u);
  const ReconstructionAuc auc =
      EvaluateFvae(*in.model, MakeHeldOutTask(in.cold, heldout_ids, args.seed));
  const std::string scored = CheckHeldOutAuc(auc.per_field);
  if (!scored.empty()) report.Fail("serving model: " + scored);
  in.heldout_auc = auc.overall;

  // Reference fold-in embeddings from the scalar kernels, so a SIMD or
  // batching fault in the serving path cannot hide in its own reference.
  const fvae::Isa native = fvae::ActiveIsa();
  fvae::ForceIsa(fvae::Isa::kScalar);
  std::vector<uint32_t> cold_ids(in.cold.num_users());
  std::iota(cold_ids.begin(), cold_ids.end(), 0u);
  in.cold_reference = in.model->Encode(in.cold, cold_ids);
  fvae::ForceIsa(native);
  std::printf("corpus: hot_users=%zu cold_pool=%zu mean_features=%.2f "
              "model_train_users=%zu model_steps=%zu\n",
              in.hot.num_users(), in.cold.num_users(),
              in.hot.AverageFeaturesPerUser(), train.num_users(),
              trained.steps);
  return in;
}

/// Checks one fold-in answer for request `n` against the scalar reference.
void CheckFoldIn(const Inputs& in, uint64_t n, std::span<const float> got,
                 Report& report, const char* workload) {
  const size_t row = size_t(n % in.cold.num_users());
  const std::string bad = CheckEmbedding(
      got, std::span<const float>(in.cold_reference.Row(row),
                                  in.cold_reference.cols()));
  if (!bad.empty()) {
    report.Fail(std::string(workload) + ": fold-in of cold user " +
                std::to_string(row) + ": " + bad);
  }
}

/// Closed-loop latency samples of one client thread.
struct ClientLog {
  std::vector<double> latency_us;  // every request
  std::vector<double> lookup_us;
  std::vector<double> foldin_us;
  std::vector<std::pair<uint64_t, std::vector<float>>> folded;
};

std::vector<double> Concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

/// A later Lookup of each folded-in user must return the vector its
/// fold-in answered with, from one of the services (a hedged fold-in may
/// have been encoded by both replicas).
void CheckLaterLookups(const std::vector<ClientLog>& logs,
                       const std::vector<EmbeddingService*>& services,
                       Report& report, const char* workload) {
  OpTally& tally = report.Ops("later_lookup");
  for (const ClientLog& log : logs) {
    for (const auto& [id, vector] : log.folded) {
      fvae::Status status = fvae::Status::NotFound("no service");
      bool same = false;
      for (EmbeddingService* service : services) {
        const EmbeddingService::EmbeddingResult stored = service->Lookup(id);
        if (!stored.ok()) continue;
        status = fvae::Status::Ok();
        same = same || MaxAbsDiff(*stored, vector) == 0.0;
      }
      tally.Record(status, false);
      if (!status.ok()) {
        report.Fail(std::string(workload) + ": folded-in user " +
                    std::to_string(id) + " is missing from the store");
      } else if (!same) {
        report.Fail(std::string(workload) + ": later Lookup of user " +
                    std::to_string(id) +
                    " returned another vector than its fold-in");
      }
    }
  }
}

/// Per-layer probes from one caller, at the batch size the batcher formed.
void ProbeEncoder(const Inputs& in, double mean_batch, Report& report) {
  const size_t batch = std::max<size_t>(1, size_t(std::lround(mean_batch)));
  std::vector<const fvae::core::RawUserFeatures*> users;
  for (const auto& raw : in.cold_raw) users.push_back(&raw);
  const std::span<const fvae::core::RawUserFeatures* const> all(users);
  fvae::core::FieldVae::FoldInScratch scratch;
  fvae::Matrix mu;
  in.model->EncodeFoldInInto(all.subspan(0, batch), &scratch, &mu);  // warm
  std::vector<double> call_us;
  size_t cursor = 0;
  fvae::Stopwatch watch;
  do {
    if (cursor + batch > all.size()) cursor = 0;
    fvae::Stopwatch call;
    in.model->EncodeFoldInInto(all.subspan(cursor, batch), &scratch, &mu);
    call_us.push_back(call.ElapsedSeconds() * 1e6);
    cursor += batch;
  } while (watch.ElapsedSeconds() < 0.3);
  report.Layer("serving.encoder.batch_us", Median(call_us));
  report.Layer("serving.encoder.users_per_s",
               double(batch) / (Mean(call_us) * 1e-6));
  const auto& config = in.model->config();
  report.Layer("kernels.gemm_gflops",
               GemmGflops(batch, config.encoder_hidden[0], config.latent_dim,
                          0.3));
  report.Layer("core.encode_users_per_s", EncodeRate(*in.model, in.cold, 0.3));
}

/// Mean in-process Lookup time of materialized users.
void ProbeStore(EmbeddingService& service, const Inputs& in, uint64_t seed,
                Report& report) {
  constexpr size_t kLookups = 50000;
  std::vector<uint64_t> ids(kLookups);
  for (size_t i = 0; i < kLookups; ++i) {
    ids[i] = Mix64(seed + i) % in.hot.num_users();
  }
  size_t found = 0;
  fvae::Stopwatch watch;
  for (uint64_t id : ids) found += service.Lookup(id).ok() ? 1 : 0;
  const double seconds = watch.ElapsedSeconds();
  if (found != kLookups) {
    report.Fail("store probe: a materialized user was not found");
  }
  report.Layer("serving.store.lookup_us", seconds * 1e6 / double(kLookups));
}

/// Telemetry counters of services, summed.
struct BatcherCounters {
  double fold_ins = 0;
  double batches = 0;
  double queue_peak = 0;
};

BatcherCounters ReadBatchers(const std::vector<EmbeddingService*>& services) {
  BatcherCounters c;
  for (const EmbeddingService* service : services) {
    const std::string json = service->TelemetryJson();
    c.fold_ins += JsonNumber(json, "fold_ins");
    c.batches += JsonNumber(json, "batches");
    c.queue_peak = std::max(c.queue_peak, JsonNumber(json, "queue_peak"));
  }
  return c;
}

/// Users per encoder batch between two counter readings.
double MeanBatch(const BatcherCounters& before, const BatcherCounters& after) {
  const double batches = after.batches - before.batches;
  return batches > 0 ? (after.fold_ins - before.fold_ins) / batches : 0.0;
}

void ReportBatcher(const BatcherCounters& before, const BatcherCounters& after,
                   std::map<std::string, SpanSample>& spans, Report& report) {
  report.Layer("serving.batcher.mean_batch_size", MeanBatch(before, after));
  report.Layer("serving.batcher.queue_peak", after.queue_peak);
  report.Layer("serving.batcher.queue_wait_us",
               Median(spans["serving.batcher.queue_wait"].durations_us));
  report.Layer("serving.batcher.encode_us",
               Median(spans["serving.batcher.encode"].durations_us));
}

/// How far a closed-loop phase runs: each client stops at `end_us` on the
/// monotonic clock or after `per_client` iterations, whichever comes first.
struct Extent {
  int64_t end_us;
  size_t per_client;
};

Extent Timed(double seconds) {
  return {fvae::MonotonicMicros() + int64_t(seconds * 1e6),
          std::numeric_limits<size_t>::max()};
}

/// Fixed work, whatever the speed: peak_rss_mb is read after such a phase,
/// so that a faster program, which would write more fold-ins to the store
/// and keep more latency samples in a timed phase, does not read as using
/// more memory.
Extent Counted(size_t per_client) {
  return {std::numeric_limits<int64_t>::max(), per_client};
}

/// One measured closed-loop phase.
struct Phase {
  std::vector<ClientLog> logs;
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU time over the phase
};

/// The gated figures of a phase, chosen to hold still on a shared VM: the
/// host deschedules the guest's vCPUs for stretches of seconds (steal
/// time), which moved the whole-run rate 30-80% between runs of one build.
/// Process CPU time per request does not advance while descheduled, and
/// the median latency over all requests (fold-ins on foldin_cold; on
/// net_mixed 19 in 20 are lookups, so it is the lookup median) moved far
/// less. Whole-run rate, p99 and the per-kind medians are printed beside
/// them.
struct PhaseStats {
  double cpu_us_per_op = 0.0;
  double p50_us = 0.0;
};

PhaseStats Summarize(const Phase& phase, const char* label) {
  const std::vector<double> all = Concat(phase.logs, &ClientLog::latency_us);
  const std::vector<double> lookup = Concat(phase.logs, &ClientLog::lookup_us);
  const std::vector<double> foldin = Concat(phase.logs, &ClientLog::foldin_us);
  PhaseStats stats;
  stats.cpu_us_per_op =
      phase.cpu_s * 1e6 / double(std::max<size_t>(1, all.size()));
  stats.p50_us = Quantile(all, 0.50);
  std::printf("%s phase: clients=%zu requests=%zu seconds=%.3f "
              "whole_run_qps=%.1f cpu_us_per_request=%.2f p50_us=%.1f "
              "p99_us=%.1f lookups=%zu lookup_p50_us=%.1f "
              "lookup_p99_us=%.1f foldins=%zu foldin_p50_us=%.1f "
              "foldin_p99_us=%.1f\n",
              label, phase.logs.size(), all.size(), phase.seconds,
              double(all.size()) / phase.seconds, stats.cpu_us_per_op,
              stats.p50_us, Quantile(all, 0.99), lookup.size(),
              Quantile(lookup, 0.50), Quantile(lookup, 0.99), foldin.size(),
              Quantile(foldin, 0.50), Quantile(foldin, 0.99));
  return stats;
}

void ReportLatency(const PhaseStats& stats, Report& report) {
  report.EndToEnd("cpu_us_per_op", stats.cpu_us_per_op);
  report.EndToEnd("p50_us", stats.p50_us);
}

/// Trace overhead: the CPU cost per request of the traced phase against
/// the untraced one's.
void ReportOverhead(const PhaseStats& untraced, const PhaseStats& traced,
                    Report& report) {
  report.Layer("obs.trace_overhead_pct",
               (traced.cpu_us_per_op - untraced.cpu_us_per_op) /
                   untraced.cpu_us_per_op * 100);
}

// ---------------------------------------------------------------------------
// foldin_cold

Phase DriveFoldins(EmbeddingService& service, const Inputs& in,
                   size_t clients, Extent extent, bool traced,
                   Corruption corrupt, std::atomic<uint64_t>& next,
                   Report& report) {
  Phase phase;
  phase.logs.resize(clients);
  OpTally& tally = report.Ops("lookup_or_encode");
  std::vector<std::thread> threads;
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start_us = fvae::MonotonicMicros();
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = phase.logs[t];
      for (size_t i = 0;
           i < extent.per_client && fvae::MonotonicMicros() < extent.end_us;
           ++i) {
        const uint64_t n = next.fetch_add(1);
        const uint64_t id = kColdBase + n;
        // A traced caller carries a trace context, so the batcher records
        // its queue-wait and encode spans for this request.
        fvae::obs::ScopedTraceContext context(
            traced ? fvae::obs::MintTraceContext() : fvae::obs::TraceContext{});
        fvae::Stopwatch call;
        EmbeddingService::EmbeddingResult result =
            service.LookupOrEncode(id, in.cold_raw[n % in.cold_raw.size()])
                .get();
        const double us = call.ElapsedSeconds() * 1e6;
        log.latency_us.push_back(us);
        log.foldin_us.push_back(us);
        tally.Record(result.status(), false);
        if (!result.ok()) continue;
        if (corrupt == Corruption::kPerturbedEmbedding && n == 0) {
          (*result)[0] += 1e-2f;
        }
        CheckFoldIn(in, n, *result, report, "foldin_cold");
        if (n % 64 == 0) log.folded.emplace_back(id, std::move(*result));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.seconds = double(fvae::MonotonicMicros() - start_us) * 1e-6;
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  return phase;
}

}  // namespace

void RunFoldinCold(const RunArgs& args, Report& report) {
  const Sizes sizes = args.small ? Sizes{2000, 512, 1024, 200, 2, 256}
                                 : Sizes{20000, 4096, 4096, 4096, 3, 4096};
  const Inputs in = Prepare(args, sizes, report);
  report.EndToEnd("heldout_auc", in.heldout_auc);

  // Set-up: from the loaded model to the first servable request.
  fvae::serving::FvaeFoldInEncoder encoder(in.model.get());
  std::unique_ptr<EmbeddingService> service;
  std::vector<double> setup_s, materialize_s;
  for (size_t i = 0; i < sizes.setups; ++i) {
    service.reset();
    fvae::Stopwatch watch;
    auto store = fvae::serving::MaterializeEmbeddings(
        *in.model, in.hot, in.hot_ids, ServeOptions().num_shards);
    materialize_s.push_back(watch.ElapsedSeconds());
    service = std::make_unique<EmbeddingService>(std::move(store), &encoder,
                                                 ServeOptions());
    const EmbeddingService::EmbeddingResult first = service->Lookup(0);
    setup_s.push_back(watch.ElapsedSeconds());
    if (!first.ok()) report.Fail("foldin_cold: materialized user 0 missing");
  }
  report.EndToEnd("setup_s", Median(setup_s));

  const size_t clients = std::min<size_t>(4, HostProcessors());
  std::atomic<uint64_t> next{0};
  const Phase warmup = DriveFoldins(*service, in, clients,
                                    Counted(sizes.warmup), false, args.corrupt,
                                    next, report);
  Summarize(warmup, "warm-up");
  report.EndToEnd("peak_rss_mb", PeakRssMb());

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase phase = DriveFoldins(*service, in, clients, Timed(untraced_s),
                                   false, Corruption::kNone, next, report);
  const PhaseStats stats = Summarize(phase, "untraced");
  ReportLatency(stats, report);

  std::vector<ClientLog> all_logs = warmup.logs;
  all_logs.insert(all_logs.end(), phase.logs.begin(), phase.logs.end());
  if (args.trace) {
    const std::vector<EmbeddingService*> services = {service.get()};
    const BatcherCounters before = ReadBatchers(services);
    StartTracing();
    const Phase traced =
        DriveFoldins(*service, in, clients, Timed(args.seconds - untraced_s),
                     true, Corruption::kNone, next, report);
    StopTracing();
    std::map<std::string, SpanSample> spans = CollectSpans();
    const BatcherCounters after = ReadBatchers(services);
    ReportBatcher(before, after, spans, report);
    ReportOverhead(stats, Summarize(traced, "traced"), report);
    report.Layer("serving.store.materialize_s", Median(materialize_s));
    ProbeEncoder(in, MeanBatch(before, after), report);
    ProbeStore(*service, in, args.seed, report);
    all_logs.insert(all_logs.end(), traced.logs.begin(), traced.logs.end());
  }
  CheckLaterLookups(all_logs, {service.get()}, report, "foldin_cold");
}

// ---------------------------------------------------------------------------
// net_mixed

namespace {

/// One loopback serving replica: encoder, service and RPC front-end.
/// Members are destroyed server first.
struct Replica {
  std::unique_ptr<fvae::serving::FvaeFoldInEncoder> encoder;
  std::unique_ptr<EmbeddingService> service;
  std::unique_ptr<fvae::net::RpcServer> server;
};

/// Two replicas behind one router.
struct Fleet {
  std::vector<Replica> replicas;
  std::unique_ptr<fvae::net::ShardRouterClient> router;

  std::vector<EmbeddingService*> services() const {
    std::vector<EmbeddingService*> out;
    for (const Replica& r : replicas) out.push_back(r.service.get());
    return out;
  }
  /// Closes the router's connections, then drains and stops the servers;
  /// the services stay readable.
  void Stop() {
    router.reset();
    for (Replica& r : replicas) r.server->Stop();
  }
};

constexpr size_t kReplicas = 2;

std::unique_ptr<Fleet> StartFleet(const Inputs& in,
                                  std::vector<double>& materialize_s,
                                  Report& report) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<std::string> endpoints;
  for (size_t r = 0; r < kReplicas; ++r) {
    Replica replica;
    replica.encoder =
        std::make_unique<fvae::serving::FvaeFoldInEncoder>(in.model.get());
    fvae::Stopwatch watch;
    auto store = fvae::serving::MaterializeEmbeddings(
        *in.model, in.hot, in.hot_ids, ServeOptions().num_shards);
    materialize_s.push_back(watch.ElapsedSeconds());
    replica.service = std::make_unique<EmbeddingService>(
        std::move(store), replica.encoder.get(), ServeOptions());
    // `fvae serve`'s defaults, on an ephemeral port.
    fvae::net::RpcServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.slow_trace_threshold_micros = 50'000;
    replica.server = std::make_unique<fvae::net::RpcServer>(
        replica.service.get(), options);
    const fvae::Status started = replica.server->Start();
    if (!started.ok()) {
      report.Fail("net_mixed: server start: " + started.ToString());
    }
    endpoints.push_back("127.0.0.1:" + std::to_string(replica.server->port()));
    fleet->replicas.push_back(std::move(replica));
  }
  // Router defaults, except that the background health prober stays off:
  // it would open connections beyond the client budget of one per
  // processor.
  fvae::net::ShardRouterOptions options;
  options.enable_health_checks = false;
  fleet->router =
      std::make_unique<fvae::net::ShardRouterClient>(endpoints, options);
  const auto first = fleet->router->Lookup(0);
  if (!first.ok()) {
    report.Fail("net_mixed: first lookup: " + first.status().ToString());
  }
  return fleet;
}

Phase DriveNet(Fleet& fleet, const Inputs& in,
               const fvae::Matrix& hot_reference, size_t clients,
               Extent extent, uint64_t seed, Corruption corrupt,
               std::atomic<uint64_t>& next, Report& report) {
  Phase phase;
  phase.logs.resize(clients);
  OpTally& lookups = report.Ops("net_lookup");
  OpTally& foldins = report.Ops("net_encode_fold_in");
  fvae::net::ShardRouterClient& router = *fleet.router;
  std::vector<std::thread> threads;
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start_us = fvae::MonotonicMicros();
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = phase.logs[t];
      uint64_t stream = Mix64(seed ^ (0xC11E47ull + t));
      // Whole rounds only, so every run attempts the same operation mix.
      for (size_t round = 0; round < extent.per_client &&
                             fvae::MonotonicMicros() < extent.end_us;
           ++round) {
        for (size_t j = 0; j < kLookupsPerRound; ++j) {
          const uint64_t user = Mix64(++stream) % in.hot.num_users();
          fvae::Stopwatch call;
          const auto result = router.Lookup(user);
          const double us = call.ElapsedSeconds() * 1e6;
          log.latency_us.push_back(us);
          log.lookup_us.push_back(us);
          lookups.Record(result.status(), true);
          if (!result.ok()) continue;
          std::span<const float> got = *result;
          if (corrupt == Corruption::kWrongUserVector && j == 0) {
            const size_t other = (user + 1) % in.hot.num_users();
            got = {hot_reference.Row(other), hot_reference.cols()};
          }
          const std::string bad = CheckEmbedding(
              got, std::span<const float>(hot_reference.Row(user),
                                          hot_reference.cols()));
          if (!bad.empty()) {
            report.Fail("net_mixed: lookup of user " + std::to_string(user) +
                        ": " + bad);
          }
        }
        const uint64_t n = next.fetch_add(1);
        const uint64_t id = kColdBase + n;
        fvae::Stopwatch call;
        auto result =
            router.EncodeFoldIn(id, in.cold_raw[n % in.cold_raw.size()]);
        const double us = call.ElapsedSeconds() * 1e6;
        log.latency_us.push_back(us);
        log.foldin_us.push_back(us);
        foldins.Record(result.status(), true);
        if (!result.ok()) continue;
        CheckFoldIn(in, n, *result, report, "net_mixed");
        log.folded.emplace_back(id, std::move(*result));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.seconds = double(fvae::MonotonicMicros() - start_us) * 1e-6;
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  return phase;
}

/// Client send minus server reply per trace_id, over traces holding
/// exactly one of each (hedged traces hold two sends and are skipped).
std::vector<double> StitchWire() {
  using Durations = std::vector<double>;
  std::map<uint64_t, std::pair<Durations, Durations>> by_trace;
  for (const fvae::obs::TraceEvent& e :
       fvae::obs::TraceRecorder::Global().Events()) {
    if (e.trace_id == 0) continue;
    const std::string name = e.name;
    if (name == "net.client.send") {
      by_trace[e.trace_id].first.push_back(double(e.duration_us));
    } else if (name == "net.server.reply") {
      by_trace[e.trace_id].second.push_back(double(e.duration_us));
    }
  }
  std::vector<double> wire;
  for (const auto& [trace, spans] : by_trace) {
    if (spans.first.size() == 1 && spans.second.size() == 1) {
      wire.push_back(spans.first[0] - spans.second[0]);
    }
  }
  return wire;
}

}  // namespace

void RunNetMixed(const RunArgs& args, Report& report) {
  const Sizes sizes = args.small ? Sizes{4000, 512, 1024, 200, 2, 50}
                                 : Sizes{100000, 4096, 4096, 4096, 3, 500};
  const Inputs in = Prepare(args, sizes, report);
  report.EndToEnd("heldout_auc", in.heldout_auc);
  // What every materialized user's lookup must return.
  fvae::Matrix hot_reference(in.hot.num_users(), in.model->latent_dim());
  for (size_t begin = 0; begin < in.hot_ids.size(); begin += 1024) {
    const size_t n = std::min<size_t>(1024, in.hot_ids.size() - begin);
    const fvae::Matrix mu = in.model->Encode(
        in.hot, std::span<const uint32_t>(in.hot_ids).subspan(begin, n));
    std::copy(mu.data(), mu.data() + mu.size(), hot_reference.Row(begin));
  }

  // Set-up: from the loaded model to the first servable routed request.
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s, materialize_s;
  for (size_t i = 0; i < sizes.setups; ++i) {
    if (fleet != nullptr) fleet->Stop();
    fleet.reset();
    fvae::Stopwatch watch;
    fleet = StartFleet(in, materialize_s, report);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  report.EndToEnd("setup_s", Median(setup_s));

  // One connection per client per replica stays within one per processor.
  const size_t clients = std::max<size_t>(1, HostProcessors() / kReplicas);
  std::atomic<uint64_t> next{0};
  const Phase warmup =
      DriveNet(*fleet, in, hot_reference, clients, Counted(sizes.warmup),
               args.seed + 2, args.corrupt, next, report);
  Summarize(warmup, "warm-up");
  report.EndToEnd("peak_rss_mb", PeakRssMb());

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase phase =
      DriveNet(*fleet, in, hot_reference, clients, Timed(untraced_s),
               args.seed, Corruption::kNone, next, report);
  const PhaseStats stats = Summarize(phase, "untraced");
  ReportLatency(stats, report);

  std::vector<ClientLog> all_logs = warmup.logs;
  all_logs.insert(all_logs.end(), phase.logs.begin(), phase.logs.end());
  if (args.trace) {
    fvae::net::RouterMetrics& router = fleet->router->metrics();
    const double requests_before = double(router.requests.Value());
    const double hedges_before = double(router.hedges.Value());
    const double failovers_before = double(router.failovers.Value());
    const BatcherCounters before = ReadBatchers(fleet->services());
    StartTracing();
    const Phase traced =
        DriveNet(*fleet, in, hot_reference, clients,
                 Timed(args.seconds - untraced_s), args.seed + 1,
                 Corruption::kNone, next, report);
    StopTracing();
    const double requests = double(router.requests.Value()) - requests_before;
    const double hedges = double(router.hedges.Value()) - hedges_before;
    report.Layer("net.router.hedges_per_1k",
                 requests > 0 ? hedges / requests * 1000 : 0);
    report.Layer("net.router.failovers",
                 double(router.failovers.Value()) - failovers_before);
    std::map<std::string, SpanSample> spans = CollectSpans();
    ReportBatcher(before, ReadBatchers(fleet->services()), spans, report);
    report.Layer("net.client.send_us",
                 Median(spans["net.client.send"].durations_us));
    // Parse spans are mostly under the recorder's 1 us resolution, so
    // their mean says more than their median.
    report.Layer("net.server.parse_us", spans["net.server.parse"].MeanUs());
    report.Layer("net.server.reply_us",
                 Median(spans["net.server.reply"].durations_us));
    const std::vector<double> wire = StitchWire();
    report.Layer("net.wire_us", Median(wire));
    report.Layer("net.stitched_traces", double(wire.size()));
    ReportOverhead(stats, Summarize(traced, "traced"), report);
    report.Layer("serving.store.materialize_s", Median(materialize_s));
    ProbeEncoder(in, MeanBatch(before, ReadBatchers(fleet->services())),
                 report);
    all_logs.insert(all_logs.end(), traced.logs.begin(), traced.logs.end());
  }
  fleet->Stop();
  if (args.trace) {
    ProbeStore(*fleet->replicas[0].service, in, args.seed, report);
  }
  CheckLaterLookups(all_logs, fleet->services(), report, "net_mixed");
}

}  // namespace perfbench
