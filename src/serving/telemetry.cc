#include "serving/telemetry.h"

#include <cstdio>

namespace fvae::serving {

ServingTelemetry::ServingTelemetry(obs::MetricsRegistry* registry)
    : owned_registry_(registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      requests(registry_->Counter("serving.requests")),
      store_hits(registry_->Counter("serving.store_hits")),
      fold_ins(registry_->Counter("serving.fold_ins")),
      rejected(registry_->Counter("serving.rejected")),
      deadline_expired(registry_->Counter("serving.deadline_expired")),
      not_found(registry_->Counter("serving.not_found")),
      batches(registry_->Counter("serving.batches")),
      queue_depth_(registry_->Gauge("serving.queue_depth")),
      queue_peak_(registry_->Gauge("serving.queue_peak")),
      lookup_latency_us_(registry_->Histo("serving.lookup_latency_us")),
      foldin_latency_us_(registry_->Histo("serving.foldin_latency_us")),
      start_us_(MonotonicMicros()) {}

std::string ServingTelemetry::ToJson(
    const std::vector<ShardedEmbeddingStore::ShardStats>* shards) const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"elapsed_s\":%.3f,\"qps\":%.1f,"
      "\"requests\":%llu,\"store_hits\":%llu,\"fold_ins\":%llu,"
      "\"rejected\":%llu,\"deadline_expired\":%llu,"
      "\"not_found\":%llu,"
      "\"queue_depth\":%zu,\"queue_peak\":%zu,\"batches\":%llu",
      ElapsedSeconds(), Qps(),
      static_cast<unsigned long long>(requests.Value()),
      static_cast<unsigned long long>(store_hits.Value()),
      static_cast<unsigned long long>(fold_ins.Value()),
      static_cast<unsigned long long>(rejected.Value()),
      static_cast<unsigned long long>(deadline_expired.Value()),
      static_cast<unsigned long long>(not_found.Value()), queue_depth(),
      queue_peak(), static_cast<unsigned long long>(batches.Value()));
  std::string out = buf;
  out += ",\"lookup_latency_us\":" + lookup_latency_us_.SummaryJson();
  out += ",\"foldin_latency_us\":" + foldin_latency_us_.SummaryJson();
  if (shards != nullptr) {
    out += ",\"shards\":[";
    for (size_t i = 0; i < shards->size(); ++i) {
      const auto& s = (*shards)[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"entries\":%zu,\"hits\":%llu,\"misses\":%llu,"
                    "\"hit_rate\":%.4f}",
                    i == 0 ? "" : ",", s.entries,
                    static_cast<unsigned long long>(s.hits),
                    static_cast<unsigned long long>(s.misses), s.HitRate());
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace fvae::serving
