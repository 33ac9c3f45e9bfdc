#include "serving/embedding_service.h"

#include <algorithm>

#include "obs/trace.h"

namespace fvae::serving {

EmbeddingService::EmbeddingService(ShardedEmbeddingStore store,
                                   FoldInEncoder* encoder,
                                   EmbeddingServiceOptions options)
    : store_(std::move(store)),
      encoder_(encoder),
      options_(options),
      telemetry_(options.metrics_registry) {
  options_.batcher.queue_capacity =
      std::max<size_t>(options_.batcher.queue_capacity, 1);
}

EmbeddingService::EmbeddingResult EmbeddingService::Lookup(
    uint64_t user_id) {
  Stopwatch watch;
  telemetry_.requests.Increment();
  if (auto embedding = store_.Get(user_id); embedding.has_value()) {
    telemetry_.store_hits.Increment();
    telemetry_.lookup_latency_us().Record(watch.ElapsedSeconds() * 1e6);
    return *std::move(embedding);
  }
  telemetry_.not_found.Increment();
  return Status::NotFound("user not materialized");
}

std::future<EmbeddingService::EmbeddingResult>
EmbeddingService::LookupOrEncode(uint64_t user_id,
                                 const core::RawUserFeatures& features,
                                 uint64_t deadline_micros) {
  Stopwatch watch;
  std::promise<EmbeddingResult> promise;
  promise.set_value(Serve(user_id, features, deadline_micros, watch));
  return promise.get_future();
}

void EmbeddingService::LookupOrEncodeAsync(
    uint64_t user_id, const core::RawUserFeatures& features,
    uint64_t deadline_micros, DoneCallback done) {
  Stopwatch watch;
  done(Serve(user_id, features, deadline_micros, watch));
}

EmbeddingService::EmbeddingResult EmbeddingService::Serve(
    uint64_t user_id, const core::RawUserFeatures& features,
    uint64_t deadline_micros, const Stopwatch& watch) {
  telemetry_.requests.Increment();
  if (auto embedding = store_.Get(user_id); embedding.has_value()) {
    telemetry_.store_hits.Increment();
    telemetry_.lookup_latency_us().Record(watch.ElapsedSeconds() * 1e6);
    return *std::move(embedding);
  }
  if (encoder_ == nullptr) {
    telemetry_.not_found.Increment();
    return Status::NotFound("user not materialized, no encoder");
  }
  if (deadline_micros == 0) deadline_micros = options_.default_deadline_micros;

  const size_t in_flight = in_flight_.fetch_add(1) + 1;
  if (in_flight > options_.batcher.queue_capacity) {
    in_flight_.fetch_sub(1);
    telemetry_.rejected.Increment();
    return Status::Unavailable("fold-in capacity reached");
  }
  telemetry_.UpdateQueueDepth(in_flight);
  EmbeddingResult result = FoldIn(user_id, features, deadline_micros, watch);
  telemetry_.UpdateQueueDepth(in_flight_.fetch_sub(1) - 1);
  return result;
}

EmbeddingService::EmbeddingResult EmbeddingService::FoldIn(
    uint64_t user_id, const core::RawUserFeatures& features,
    uint64_t deadline_micros, const Stopwatch& watch) {
  // Per-thread output buffer, so a warmed-up encode allocates nothing.
  thread_local Matrix embedding;
  const core::RawUserFeatures* user = &features;
  {
    // Named after the benchmark's serving.batcher.encode_us layer.
    obs::TraceSpan span("serving.batcher.encode");
    encoder_->EncodeBatchInto({&user, 1}, &embedding);
  }
  telemetry_.batches.Increment();
  std::vector<float> row(embedding.Row(0),
                         embedding.Row(0) + embedding.cols());
  // Materialized even when late: the encode is paid for, and a retry then
  // hits the store.
  store_.Put(user_id, row);
  const double latency_us = watch.ElapsedSeconds() * 1e6;
  if (deadline_micros != 0 && latency_us > double(deadline_micros)) {
    telemetry_.deadline_expired.Increment();
    return Status::DeadlineExceeded("fold-in finished past its deadline");
  }
  telemetry_.fold_ins.Increment();
  telemetry_.foldin_latency_us().Record(latency_us);
  return row;
}

std::string EmbeddingService::TelemetryJson() const {
  const auto shards = store_.Stats();
  return telemetry_.ToJson(&shards);
}

}  // namespace fvae::serving
