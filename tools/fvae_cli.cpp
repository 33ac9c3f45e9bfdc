// fvae — command-line driver for the library: generate synthetic profile
// datasets, train FVAE models, evaluate them, and export embeddings.
//
// Usage:
//   fvae generate --preset sc --users 4000 --seed 7 --out data.bin
//   fvae train    --data data.bin --model model.bin --epochs 10
//   fvae evaluate --data data.bin --model model.bin --task tag
//   fvae export   --data data.bin --model model.bin --out embeddings.bin
//   fvae inspect  --model model.bin
//   fvae inspect  --data data.bin
//   fvae metrics  --in metrics.jsonl
//
// Observability flags (train / serve-bench):
//   --trace-out F       record trace spans, write Chrome trace JSON to F
//   --metrics-out F     write a JSONL metrics snapshot to F at the end
//   --metrics-every-s N also dump the snapshot every N seconds (appends)
//
// Every command prints a short report to stdout; errors go to stderr with a
// non-zero exit code.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/fvae_model.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/io.h"
#include "data/split.h"
#include "datagen/profile_generator.h"
#include "eval/representation_model.h"
#include "eval/tasks.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/shard_router.h"
#include "obs/metrics_registry.h"
#include "obs/periodic_dumper.h"
#include "obs/trace.h"
#include "serving/embedding_service.h"
#include "serving/embedding_store.h"
#include "serving/fold_in.h"
#include "serving/load_gen.h"
#include "serving/sharded_store.h"

namespace {

using namespace fvae;

/// Minimal --flag value parser: flags must be "--name value" pairs.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseInt64(it->second).value_or(fallback);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseDouble(it->second).value_or(fallback);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Shared --trace-out / --metrics-out / --metrics-every-s handling for the
/// instrumented commands. Construct before the work (enables tracing, starts
/// the periodic dumper), call Finish() after it (writes the trace file and
/// the final snapshot, prints the registry to stdout).
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : trace_path_(args.Get("trace-out", "")),
        metrics_path_(args.Get("metrics-out", "")) {
    if (!trace_path_.empty()) obs::TraceRecorder::Global().Enable();
    const double every_s = args.GetDouble("metrics-every-s", 0.0);
    if (every_s > 0.0 && !metrics_path_.empty()) {
      obs::PeriodicDumperOptions options;
      options.interval_seconds = every_s;
      options.path = metrics_path_;
      dumper_ = std::make_unique<obs::PeriodicDumper>(
          &obs::MetricsRegistry::Global(), options);
      dumper_->Start();
    }
  }

  ~ObsSession() { Finish(); }

  void Finish() {
    if (finished_) return;
    finished_ = true;
    // Stop() emits one final snapshot, so the file always ends with the
    // complete end-of-run numbers even in periodic mode.
    if (dumper_ != nullptr) {
      dumper_->Stop();
    } else if (!metrics_path_.empty()) {
      const Status status = obs::MetricsRegistry::Global().WriteJsonlSnapshot(
          metrics_path_, /*append=*/false);
      if (!status.ok()) {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      std::printf("-- metrics (%s) --\n%s", metrics_path_.c_str(),
                  obs::MetricsRegistry::Global().TextSnapshot().c_str());
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
      recorder.Disable();
      const Status status = recorder.WriteChromeTrace(trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     status.ToString().c_str());
        return;
      }
      std::printf("-- trace (%zu spans -> %s, %llu dropped) --\n%s",
                  recorder.EventCount(), trace_path_.c_str(),
                  static_cast<unsigned long long>(recorder.DroppedCount()),
                  recorder.ProfileText().c_str());
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::PeriodicDumper> dumper_;
  bool finished_ = false;
};

int CmdGenerate(const Args& args) {
  const std::string preset = args.Get("preset", "sc");
  const size_t users = size_t(args.GetInt("users", 4000));
  const uint64_t seed = uint64_t(args.GetInt("seed", 7));
  const std::string out = args.Get("out", "data.bin");

  ProfileGeneratorConfig config;
  if (preset == "sc") {
    config = ShortContentConfig(users, seed);
  } else if (preset == "kd") {
    config = KandianConfig(users, seed);
  } else if (preset == "qb") {
    config = QQBrowserConfig(users, seed);
  } else {
    return Fail("unknown preset (sc|kd|qb): " + preset);
  }
  const GeneratedProfiles gen = GenerateProfiles(config);
  std::printf("generated %s\n", gen.dataset.Summary().c_str());

  const Status status = args.Has("text")
                            ? SaveDatasetText(gen.dataset, out)
                            : SaveDatasetBinary(gen.dataset, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

Result<MultiFieldDataset> LoadData(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return LoadDatasetText(path);
  }
  return LoadDatasetBinary(path);
}

int CmdTrain(const Args& args) {
  const std::string data_path = args.Get("data", "data.bin");
  const std::string model_path = args.Get("model", "model.bin");
  auto data = LoadData(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  std::printf("loaded %s\n", data->Summary().c_str());

  core::FvaeConfig config;
  config.latent_dim = size_t(args.GetInt("latent", 64));
  const size_t hidden = size_t(args.GetInt("hidden", 256));
  config.encoder_hidden = {hidden};
  config.decoder_hidden = {hidden};
  config.beta = float(args.GetDouble("beta", 0.1));
  config.sampling_strategy =
      core::ParseSamplingStrategy(args.Get("strategy", "uniform"));
  config.sampling_rate = args.GetDouble("rate", 0.1);
  config.seed = uint64_t(args.GetInt("seed", 1234));

  ObsSession obs_session(args);
  core::TrainOptions options;
  options.batch_size = size_t(args.GetInt("batch", 512));
  options.epochs = size_t(args.GetInt("epochs", 10));
  options.checkpoint_every_steps =
      size_t(args.GetInt("checkpoint-every", 0));
  options.checkpoint_dir = args.Get("checkpoint-dir", "");
  options.checkpoint_retain = size_t(args.GetInt("checkpoint-retain", 3));
  if (options.checkpoint_every_steps > 0 && options.checkpoint_dir.empty()) {
    return Fail("--checkpoint-every requires --checkpoint-dir");
  }
  options.epoch_callback = [](size_t epoch, double loss, double seconds) {
    std::printf("epoch %3zu  loss %.4f  %.1fs\n", epoch, loss, seconds);
    return true;
  };

  // --resume 1: pick up from the newest checkpoint in --checkpoint-dir
  // (falling back to a fresh start when there is none yet, so a restarted
  // job needs no flag changes).
  std::unique_ptr<core::FieldVae> resumed_model;
  core::TrainingCursor cursor;
  bool resuming = false;
  if (args.GetInt("resume", 0) != 0) {
    if (options.checkpoint_dir.empty()) {
      return Fail("--resume requires --checkpoint-dir");
    }
    core::CheckpointManagerOptions manager_options;
    manager_options.dir = options.checkpoint_dir;
    manager_options.retain = options.checkpoint_retain;
    core::CheckpointManager manager(manager_options);
    auto loaded = manager.LoadLatest();
    if (loaded.ok()) {
      if (!loaded->has_cursor) {
        return Fail("checkpoint in " + options.checkpoint_dir +
                    " has no training cursor to resume from");
      }
      resumed_model = std::move(loaded->model);
      cursor = std::move(loaded->cursor);
      resuming = true;
      std::printf("resuming at step %llu (epoch %llu)\n",
                  (unsigned long long)cursor.step,
                  (unsigned long long)cursor.epoch);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return Fail(loaded.status().ToString());
    }
  }

  core::FieldVae fresh_model(config, data->fields());
  core::FieldVae& model = resuming ? *resumed_model : fresh_model;
  const core::TrainResult result =
      resuming ? core::TrainFvaeResumingFrom(model, *data, options, cursor)
               : core::TrainFvae(model, *data, options);
  std::printf("trained %zu steps, %.0f users/s, %zu parameters\n",
              result.steps, result.UsersPerSecond(),
              model.ParameterCount());
  obs_session.Finish();

  const Status status = core::SaveFieldVae(model, model_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("saved model to %s\n", model_path.c_str());
  return 0;
}

/// Adapter for the evaluation tasks.
class CliModel : public eval::RepresentationModel {
 public:
  explicit CliModel(core::FieldVae* model) : model_(model) {}
  std::string Name() const override { return "FVAE"; }
  void Fit(const MultiFieldDataset&) override {}
  Matrix Embed(const MultiFieldDataset& data,
               std::span<const uint32_t> users) const override {
    return model_->Encode(data, users);
  }
  Matrix Score(const MultiFieldDataset& input,
               std::span<const uint32_t> users, size_t field,
               std::span<const uint64_t> candidates) const override {
    return model_->EncodeAndScore(input, users, field, candidates);
  }

 private:
  core::FieldVae* model_;
};

int CmdEvaluate(const Args& args) {
  auto data = LoadData(args.Get("data", "data.bin"));
  if (!data.ok()) return Fail(data.status().ToString());
  auto model = core::LoadFieldVae(args.Get("model", "model.bin"));
  if (!model.ok()) return Fail(model.status().ToString());
  const std::string task = args.Get("task", "tag");
  const size_t max_users = size_t(args.GetInt("eval-users", 1000));
  Rng rng(uint64_t(args.GetInt("seed", 99)));

  std::vector<uint32_t> users(std::min(max_users, data->num_users()));
  std::iota(users.begin(), users.end(), 0u);
  CliModel wrapper(model->get());

  if (task == "tag") {
    const size_t field =
        size_t(args.GetInt("field", int64_t(data->num_fields() - 1)));
    if (field >= data->num_fields()) return Fail("field out of range");
    const std::vector<uint64_t> vocab = data->DistinctFeatureIds(field);
    const eval::TaskMetrics metrics = eval::RunTagPrediction(
        wrapper, *data, users, field, vocab, rng);
    std::printf("tag prediction on field '%s': AUC %.4f  mAP %.4f\n",
                data->field(field).name.c_str(), metrics.auc, metrics.map);
    return 0;
  }
  if (task == "recon") {
    const ReconstructionSplit split =
        HoldOutWithinUsers(*data, args.GetDouble("holdout", 0.3), rng);
    std::vector<std::vector<uint64_t>> vocab(data->num_fields());
    for (size_t k = 0; k < data->num_fields(); ++k) {
      vocab[k] = data->DistinctFeatureIds(k);
    }
    const eval::ReconstructionMetrics metrics = eval::RunReconstruction(
        wrapper, *data, split, users, vocab, rng);
    std::printf("reconstruction: overall AUC %.4f mAP %.4f\n",
                metrics.overall.auc, metrics.overall.map);
    for (size_t k = 0; k < data->num_fields(); ++k) {
      std::printf("  %-8s AUC %.4f  mAP %.4f\n",
                  data->field(k).name.c_str(), metrics.per_field[k].auc,
                  metrics.per_field[k].map);
    }
    return 0;
  }
  return Fail("unknown task (tag|recon): " + task);
}

int CmdExport(const Args& args) {
  auto data = LoadData(args.Get("data", "data.bin"));
  if (!data.ok()) return Fail(data.status().ToString());
  auto model = core::LoadFieldVae(args.Get("model", "model.bin"));
  if (!model.ok()) return Fail(model.status().ToString());
  const std::string out = args.Get("out", "embeddings.bin");

  Stopwatch watch;
  std::vector<uint32_t> users(data->num_users());
  std::iota(users.begin(), users.end(), 0u);
  serving::EmbeddingStore store;
  // Batch to bound peak memory.
  constexpr size_t kChunk = 4096;
  for (size_t begin = 0; begin < users.size(); begin += kChunk) {
    const size_t end = std::min(users.size(), begin + kChunk);
    std::span<const uint32_t> chunk{users.data() + begin, end - begin};
    const Matrix z = (*model)->Encode(*data, chunk);
    std::vector<uint64_t> ids(chunk.begin(), chunk.end());
    store.PutBatch(ids, z);
  }
  const Status status = store.Save(out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("exported %zu embeddings (dim %zu) to %s in %.1fs\n",
              store.size(), store.dim(), out.c_str(),
              watch.ElapsedSeconds());
  return 0;
}

int CmdServeBench(const Args& args) {
  auto data = LoadData(args.Get("data", "data.bin"));
  if (!data.ok()) return Fail(data.status().ToString());
  auto model = core::LoadFieldVae(args.Get("model", "model.bin"));
  if (!model.ok()) return Fail(model.status().ToString());

  const size_t threads = size_t(args.GetInt("threads", 8));
  const size_t requests = size_t(args.GetInt("requests", 20000));
  const double hot_frac = args.GetDouble("hot-frac", 0.8);

  ObsSession obs_session(args);
  serving::EmbeddingServiceOptions options;
  options.metrics_registry = &obs::MetricsRegistry::Global();
  options.num_shards = size_t(args.GetInt("shards", 16));
  options.batcher.queue_capacity = size_t(args.GetInt("queue", 8192));
  options.default_deadline_micros =
      uint64_t(args.GetInt("deadline-us", 0));

  // Materialize the leading half of the users (the offline dump); the rest
  // arrive cold and exercise the fold-in path.
  const size_t num_hot = data->num_users() / 2;
  if (num_hot == 0 || num_hot == data->num_users()) {
    return Fail("dataset too small to split into hot/cold users");
  }
  std::vector<uint32_t> hot_ids(num_hot);
  std::iota(hot_ids.begin(), hot_ids.end(), 0u);
  std::vector<uint32_t> cold_ids(data->num_users() - num_hot);
  std::iota(cold_ids.begin(), cold_ids.end(), uint32_t(num_hot));

  Stopwatch watch;
  serving::FvaeFoldInEncoder encoder(model->get());
  serving::EmbeddingService service(
      serving::MaterializeEmbeddings(**model, *data, hot_ids,
                                     options.num_shards),
      &encoder, options);
  std::printf("materialized %zu embeddings (dim %zu) across %zu shards "
              "in %.1fs\n",
              service.store().size(), service.store().dim(),
              options.num_shards, watch.ElapsedSeconds());

  serving::LoadGenOptions load;
  load.num_threads = threads;
  load.requests_per_thread = std::max<size_t>(requests / threads, 1);
  load.hot_fraction = hot_frac;
  load.deadline_micros = options.default_deadline_micros;
  load.seed = uint64_t(args.GetInt("seed", 42));
  const serving::LoadGenReport report =
      serving::RunClosedLoopLoad(service, *data, hot_ids, cold_ids, load);

  std::printf("load: %zu threads x %zu requests, hot fraction %.2f\n",
              threads, load.requests_per_thread, hot_frac);
  std::printf("client: %s\n", report.Json().c_str());
  std::printf("service: %s\n", service.TelemetryJson().c_str());
  obs_session.Finish();
  return 0;
}

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

/// `fvae serve` — stand up the epoll RPC front-end over an
/// EmbeddingService built from --data/--model, then block until
/// SIGINT/SIGTERM. The first stdout line reports the bound port and pid so
/// scripts (the CI loopback smoke job) can scrape them.
int CmdServe(const Args& args) {
  auto data = LoadData(args.Get("data", "data.bin"));
  if (!data.ok()) return Fail(data.status().ToString());
  auto model = core::LoadFieldVae(args.Get("model", "model.bin"));
  if (!model.ok()) return Fail(model.status().ToString());

  ObsSession obs_session(args);
  serving::EmbeddingServiceOptions options;
  options.metrics_registry = &obs::MetricsRegistry::Global();
  options.num_shards = size_t(args.GetInt("shards", 16));
  options.batcher.queue_capacity = size_t(args.GetInt("queue", 8192));
  options.default_deadline_micros = uint64_t(args.GetInt("deadline-us", 0));

  // Default: materialize every user, so any shard replica can answer any
  // key — the failover path then keeps full coverage when a peer dies.
  const double hot_frac = args.GetDouble("hot-frac", 1.0);
  const size_t num_hot = std::max<size_t>(
      1, std::min(data->num_users(), size_t(hot_frac * data->num_users())));
  std::vector<uint32_t> hot_ids(num_hot);
  std::iota(hot_ids.begin(), hot_ids.end(), 0u);

  serving::FvaeFoldInEncoder encoder(model->get());
  serving::EmbeddingService service(
      serving::MaterializeEmbeddings(**model, *data, hot_ids,
                                     options.num_shards),
      &encoder, options);

  net::RpcServerOptions server_options;
  server_options.port = uint16_t(args.GetInt("port", 7070));
  server_options.num_workers = size_t(args.GetInt("workers", 2));
  server_options.slow_trace_threshold_micros = args.GetInt("slow-us", 50'000);
  net::RpcServer server(&service, server_options,
                        &obs::MetricsRegistry::Global());
  const Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::printf("serving on 127.0.0.1:%u pid %d (%zu embeddings, dim %zu)\n",
              unsigned(server.port()), int(::getpid()),
              service.store().size(), service.store().dim());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::printf("service: %s\n", service.TelemetryJson().c_str());
  std::printf("transport: %s\n", server.metrics().ToJson().c_str());
  obs_session.Finish();
  return 0;
}

/// `fvae net-load` — closed-loop lookup load through a ShardRouterClient
/// against running `fvae serve` endpoints. Prints a single machine-readable
/// JSON line; the CI smoke job asserts on its `ok` and `failovers` fields.
int CmdNetLoad(const Args& args) {
  const std::string endpoints_flag = args.Get("endpoints", "");
  if (endpoints_flag.empty()) {
    return Fail("net-load needs --endpoints host:port[,host:port...]");
  }
  std::vector<std::string> endpoints = Split(endpoints_flag, ',');
  const size_t threads = size_t(args.GetInt("threads", 4));
  const size_t requests = size_t(args.GetInt("requests", 2000));
  const size_t num_users = size_t(args.GetInt("users", 1000));

  // --trace-out here captures the client half of the distributed traces
  // (net.client.call / net.client.send); the server writes its half on
  // shutdown. The CI smoke job joins the two files on trace_id.
  ObsSession obs_session(args);
  net::ShardRouterOptions router_options;
  router_options.call_deadline_micros = args.GetInt("deadline-us", 1'000'000);
  router_options.enable_hedging = args.GetInt("hedge", 1) != 0;
  router_options.breaker_failure_threshold =
      uint32_t(args.GetInt("breaker-threshold", 3));
  net::ShardRouterClient router(endpoints, router_options,
                                &obs::MetricsRegistry::Global());

  std::atomic<uint64_t> ok{0}, not_found{0}, failed{0};
  LatencyHistogram latency;
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < requests; i += threads) {
        const uint64_t user = uint64_t(i % num_users);
        const int64_t start = MonotonicMicros();
        const Result<std::vector<float>> embedding = router.Lookup(user);
        latency.Record(double(MonotonicMicros() - start));
        if (embedding.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (embedding.status().code() == StatusCode::kNotFound) {
          not_found.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed = watch.ElapsedSeconds();

  net::RouterMetrics& metrics = router.metrics();
  std::string per_shard;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    if (!per_shard.empty()) per_shard += ",";
    per_shard += std::to_string(metrics.shard_requests(i).Value());
  }
  std::printf(
      "{\"requests\":%zu,\"ok\":%llu,\"not_found\":%llu,\"failed\":%llu,"
      "\"qps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"failovers\":%llu,\"hedges\":%llu,\"breaker_trips\":%llu,"
      "\"per_shard\":[%s]}\n",
      requests, (unsigned long long)ok.load(),
      (unsigned long long)not_found.load(), (unsigned long long)failed.load(),
      elapsed > 0.0 ? double(requests) / elapsed : 0.0,
      latency.Percentile(50.0), latency.Percentile(99.0),
      (unsigned long long)metrics.failovers.Value(),
      (unsigned long long)metrics.hedges.Value(),
      (unsigned long long)metrics.breaker_trips.Value(), per_shard.c_str());
  return 0;
}

/// Returns the value of `"key":` in `json` — the balanced {...}/[...] for
/// containers, the bare token (unquoted) for scalars, "" when absent.
/// First occurrence wins, so call it on an already-narrowed subobject.
/// Good enough for the introspection JSON (no braces inside strings).
std::string JsonValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  if (begin >= json.size()) return "";
  const char open = json[begin];
  if (open == '{' || open == '[') {
    const char close = open == '{' ? '}' : ']';
    int depth = 0;
    for (size_t i = begin; i < json.size(); ++i) {
      if (json[i] == open) ++depth;
      if (json[i] == close && --depth == 0) {
        return json.substr(begin, i - begin + 1);
      }
    }
    return "";
  }
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  std::string value = json.substr(begin, end - begin);
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

double JsonNumber(const std::string& json, const std::string& key,
                  double fallback = 0.0) {
  const std::string value = JsonValue(json, key);
  if (value.empty()) return fallback;
  return ParseDouble(value).value_or(fallback);
}

/// Splits a JSON array of flat objects into per-object strings.
std::vector<std::string> JsonArrayObjects(const std::string& array_json) {
  std::vector<std::string> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < array_json.size(); ++i) {
    if (array_json[i] == '{' && depth++ == 0) start = i;
    if (array_json[i] == '}' && --depth == 0) {
      out.push_back(array_json.substr(start, i - start + 1));
    }
  }
  return out;
}

const char* const kTopVerbNames[] = {"health", "lookup", "encode_fold_in",
                                     "stats", "introspect"};

/// `fvae top` — live dashboard over running `fvae serve` endpoints: polls
/// the Introspect verb each interval and renders QPS, per-verb p50/p99,
/// endpoint health (a poll-failure mini-breaker), and the slowest captured
/// traces with their trace ids. `--once 1` renders a single frame without
/// clearing the screen (scriptable; the CI smoke job uses it); `--prom 1`
/// dumps the Prometheus text exposition instead and exits.
int CmdTop(const Args& args) {
  const std::string endpoints_flag = args.Get("endpoints", "");
  if (endpoints_flag.empty()) {
    return Fail("top needs --endpoints host:port[,host:port...]");
  }
  const std::vector<std::string> endpoints = Split(endpoints_flag, ',');
  const double interval_s = args.GetDouble("interval-s", 2.0);
  const bool once = args.GetInt("once", 0) != 0;

  if (args.GetInt("prom", 0) != 0) {
    for (const std::string& endpoint : endpoints) {
      auto channel = net::RpcChannel::Connect(endpoint);
      if (!channel.ok()) return Fail(channel.status().ToString());
      auto text = (*channel)->Introspect(net::IntrospectFormat::kPrometheus);
      if (!text.ok()) return Fail(text.status().ToString());
      std::printf("%s", text->c_str());
    }
    return 0;
  }

  struct EndpointState {
    double last_frames_rx = 0.0;
    int64_t last_poll_us = 0;
    uint32_t consecutive_failures = 0;
  };
  std::vector<EndpointState> states(endpoints.size());
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  for (;;) {
    std::string screen;
    for (size_t e = 0; e < endpoints.size(); ++e) {
      EndpointState& state = states[e];
      auto channel = net::RpcChannel::Connect(endpoints[e], /*timeout_ms=*/500);
      Result<std::string> body =
          channel.ok() ? (*channel)->Introspect() : Result<std::string>(
                                                        channel.status());
      const int64_t now_us = MonotonicMicros();
      if (!body.ok()) {
        ++state.consecutive_failures;
        // Same threshold the router's breaker defaults to: three strikes.
        const char* breaker =
            state.consecutive_failures >= 3 ? "OPEN" : "DEGRADED";
        screen += StrFormat("%s  [%s]  %s\n", endpoints[e].c_str(), breaker,
                            body.status().ToString().c_str());
        continue;
      }
      state.consecutive_failures = 0;
      const std::string net_json = JsonValue(*body, "net");
      const double frames_rx = JsonNumber(net_json, "frames_rx");
      double qps = 0.0;
      if (state.last_poll_us != 0 && now_us > state.last_poll_us) {
        qps = (frames_rx - state.last_frames_rx) * 1e6 /
              double(now_us - state.last_poll_us);
      }
      state.last_frames_rx = frames_rx;
      state.last_poll_us = now_us;

      screen += StrFormat(
          "%s  [CLOSED]  qps %.1f  conns %.0f  frames_rx %.0f  "
          "protocol_errors %.0f\n",
          endpoints[e].c_str(), qps, JsonNumber(net_json, "open_connections"),
          frames_rx, JsonNumber(net_json, "protocol_errors"));
      const std::string verbs = JsonValue(net_json, "verb_latency_us");
      screen += "  verb            count        p50_us       p99_us\n";
      for (const char* verb : kTopVerbNames) {
        const std::string histo = JsonValue(verbs, verb);
        if (histo.empty() || JsonNumber(histo, "count") == 0.0) continue;
        screen += StrFormat("  %-14s %8.0f %12.1f %12.1f\n", verb,
                            JsonNumber(histo, "count"),
                            JsonNumber(histo, "p50"),
                            JsonNumber(histo, "p99"));
      }
      const std::vector<std::string> slow =
          JsonArrayObjects(JsonValue(*body, "slow_traces"));
      if (!slow.empty()) {
        screen += "  slowest traces:\n";
        for (size_t i = 0; i < slow.size() && i < 5; ++i) {
          const size_t verb = size_t(JsonNumber(slow[i], "verb"));
          screen += StrFormat(
              "    trace %s  %-14s status %.0f  %.0f us\n",
              JsonValue(slow[i], "trace_id").c_str(),
              verb < 5 ? kTopVerbNames[verb] : "?",
              JsonNumber(slow[i], "status"),
              JsonNumber(slow[i], "duration_us"));
        }
      }
    }
    if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home
    std::printf("%s", screen.c_str());
    std::fflush(stdout);
    if (once || g_stop.load(std::memory_order_relaxed)) break;
    for (int tick = 0; tick < int(interval_s * 10.0) &&
                       !g_stop.load(std::memory_order_relaxed);
         ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_stop.load(std::memory_order_relaxed)) break;
  }
  return 0;
}

/// Pretty-prints a JSONL metrics snapshot written by --metrics-out (or the
/// periodic dumper). Minimal field extraction — enough to read a dump
/// without other tooling; rows appear in file order, so an appended file
/// shows the dump history.
int CmdMetrics(const Args& args) {
  const std::string path = args.Get("in", "metrics.jsonl");
  std::ifstream in(path);
  if (!in) return Fail("cannot open " + path);

  auto field = [](const std::string& line,
                  const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":";
    const size_t at = line.find(needle);
    if (at == std::string::npos) return "";
    size_t begin = at + needle.size();
    if (begin < line.size() && line[begin] == '"') {
      const size_t end = line.find('"', begin + 1);
      if (end == std::string::npos) return "";
      return line.substr(begin + 1, end - begin - 1);
    }
    size_t end = begin;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(begin, end - begin);
  };

  std::string line;
  size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string name = field(line, "name");
    const std::string type = field(line, "type");
    if (name.empty() || type.empty()) {
      return Fail("not a metrics snapshot line: " + line);
    }
    if (type == "histogram") {
      std::printf("%-36s %-9s count=%s mean=%s p50=%s p99=%s\n",
                  name.c_str(), type.c_str(), field(line, "count").c_str(),
                  field(line, "mean").c_str(), field(line, "p50").c_str(),
                  field(line, "p99").c_str());
    } else {
      std::printf("%-36s %-9s %s\n", name.c_str(), type.c_str(),
                  field(line, "value").c_str());
    }
    ++rows;
  }
  std::printf("%zu metrics from %s\n", rows, path.c_str());
  return 0;
}

int CmdInspect(const Args& args) {
  if (args.Has("model")) {
    auto model = core::LoadFieldVae(args.Get("model", ""));
    if (!model.ok()) return Fail(model.status().ToString());
    const core::FieldVae& m = **model;
    std::printf("FVAE checkpoint:\n  latent_dim: %zu\n  fields: %zu\n",
                m.latent_dim(), m.num_fields());
    for (size_t k = 0; k < m.num_fields(); ++k) {
      std::printf("    %-8s known_features=%zu%s\n",
                  m.field_schemas()[k].name.c_str(), m.KnownFeatures(k),
                  m.field_schemas()[k].is_sparse ? " (sparse)" : "");
    }
    std::printf("  parameters: %zu\n  sampling: %s r=%.2f  beta=%.2f\n",
                m.ParameterCount(),
                core::SamplingStrategyName(m.config().sampling_strategy),
                m.config().sampling_rate, m.config().beta);
    return 0;
  }
  if (args.Has("data")) {
    auto data = LoadData(args.Get("data", ""));
    if (!data.ok()) return Fail(data.status().ToString());
    std::printf("%s\n", data->Summary().c_str());
    for (size_t k = 0; k < data->num_fields(); ++k) {
      std::printf("  %-8s distinct_features=%zu nnz=%zu%s\n",
                  data->field(k).name.c_str(),
                  data->DistinctFeatureIds(k).size(), data->FieldNnz(k),
                  data->field(k).is_sparse ? " (sparse)" : "");
    }
    return 0;
  }
  return Fail("inspect needs --model or --data");
}

void PrintUsage() {
  std::printf(
      "fvae <command> [--flag value ...]\n"
      "commands:\n"
      "  generate  --preset sc|kd|qb --users N --seed S --out F [--text 1]\n"
      "  train     --data F --model F [--latent D --hidden H --epochs E\n"
      "             --batch B --rate R --strategy uniform|frequency|zipfian\n"
      "             --beta B --seed S --trace-out F --metrics-out F\n"
      "             --metrics-every-s N --checkpoint-dir D\n"
      "             --checkpoint-every STEPS --checkpoint-retain N\n"
      "             --resume 1]\n"
      "  evaluate  --data F --model F --task tag|recon [--field K]\n"
      "  export    --data F --model F --out F\n"
      "  inspect   --model F | --data F\n"
      "  metrics   --in metrics.jsonl\n"
      "  serve-bench --data F --model F [--threads N --requests N\n"
      "             --hot-frac H --queue Q --deadline-us D --shards S\n"
      "             --seed S --trace-out F --metrics-out F]\n"
      "  serve     --data F --model F [--port P --workers W --shards S\n"
      "             --queue Q --deadline-us D --hot-frac H\n"
      "             --metrics-out F --slow-us N --trace-out F]\n"
      "  net-load  --endpoints h:p[,h:p...] [--threads N --requests N\n"
      "             --users N --deadline-us D --hedge 0|1\n"
      "             --breaker-threshold N --trace-out F]\n"
      "  top       --endpoints h:p[,h:p...] [--interval-s S --once 1\n"
      "             --prom 1]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "generate") return CmdGenerate(args);
  if (command == "train") return CmdTrain(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "export") return CmdExport(args);
  if (command == "inspect") return CmdInspect(args);
  if (command == "metrics") return CmdMetrics(args);
  if (command == "serve-bench") return CmdServeBench(args);
  if (command == "serve") return CmdServe(args);
  if (command == "net-load") return CmdNetLoad(args);
  if (command == "top") return CmdTop(args);
  PrintUsage();
  return 1;
}
