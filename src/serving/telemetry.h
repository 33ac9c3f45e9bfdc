#ifndef FVAE_SERVING_TELEMETRY_H_
#define FVAE_SERVING_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "serving/sharded_store.h"

namespace fvae::serving {

/// Counters, gauges and latency histograms of the serving stack, registered
/// in an obs::MetricsRegistry under the `serving.` prefix, owned by one
/// EmbeddingService. Everything is atomics / lock-free histograms, so
/// request threads update
/// it on the hot path without contention. Accordingly the class carries no
/// capability annotations: there is no lock to hold, and all members are
/// individually thread-safe (the cross-counter invariant below is
/// eventually consistent, not a snapshot).
///
/// Pass a registry (typically obs::MetricsRegistry::Global()) to surface
/// the serving metrics in process-wide dumps next to the training, data
/// and hash-table instruments; with no registry the instance owns a
/// private one, which keeps concurrent services (and tests) isolated.
///
/// Invariant maintained by the service:
///   requests == store_hits + fold_ins + rejected + deadline_expired
///             + not_found
/// (every request terminates in exactly one of those outcomes; the stress
/// test asserts it).
class ServingTelemetry {
 private:
  // Declared before the instrument references below: members initialize in
  // declaration order, and the references bind into this registry.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

 public:
  explicit ServingTelemetry(obs::MetricsRegistry* registry = nullptr);
  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  /// The registry the instruments live in (owned or injected).
  obs::MetricsRegistry& registry() { return *registry_; }
  const obs::MetricsRegistry& registry() const { return *registry_; }

  // --- request outcome counters ---
  obs::Counter& requests;
  /// Served straight from the sharded store (hot users).
  obs::Counter& store_hits;
  /// Served by running the encoder on the raw field vector (cold users).
  obs::Counter& fold_ins;
  /// Admission control: bounced because the fold-in capacity was reached.
  obs::Counter& rejected;
  /// Fold-in finished past the per-request deadline.
  obs::Counter& deadline_expired;
  /// No embedding and no feature vector to fold in.
  obs::Counter& not_found;

  /// Encoder calls, one per fold-in (late ones included).
  obs::Counter& batches;

  /// Sets the fold-ins-in-flight gauge and folds it into the peak
  /// watermark. Named queue_depth/queue_peak in the registry and JSON,
  /// which the repository benchmark reads.
  void UpdateQueueDepth(size_t depth) {
    queue_depth_.Set(double(depth));
    queue_peak_.SetMax(double(depth));
  }
  size_t queue_depth() const { return size_t(queue_depth_.Value()); }
  size_t queue_peak() const { return size_t(queue_peak_.Value()); }

  /// End-to-end latency of store-hit answers, microseconds.
  LatencyHistogram& lookup_latency_us() { return lookup_latency_us_; }
  const LatencyHistogram& lookup_latency_us() const {
    return lookup_latency_us_;
  }
  /// End-to-end latency of fold-in answers (request -> embedding ready).
  LatencyHistogram& foldin_latency_us() { return foldin_latency_us_; }
  const LatencyHistogram& foldin_latency_us() const {
    return foldin_latency_us_;
  }

  /// Seconds since construction / ResetClock — the QPS denominator.
  double ElapsedSeconds() const {
    return double(MonotonicMicros() -
                  start_us_.load(std::memory_order_relaxed)) *
           1e-6;
  }
  /// Restarts the QPS clock. Safe against concurrent Qps() /
  /// ElapsedSeconds() readers: the time base is a single atomic
  /// start-timestamp.
  void ResetClock() {
    start_us_.store(MonotonicMicros(), std::memory_order_relaxed);
  }

  double Qps() const {
    const double s = ElapsedSeconds();
    return s > 0.0 ? double(requests.Value()) / s : 0.0;
  }

  /// Full JSON snapshot; `shards` (optional) adds per-shard hit rates.
  std::string ToJson(
      const std::vector<ShardedEmbeddingStore::ShardStats>* shards) const;

 private:
  obs::Gauge& queue_depth_;
  obs::Gauge& queue_peak_;
  LatencyHistogram& lookup_latency_us_;
  LatencyHistogram& foldin_latency_us_;
  std::atomic<int64_t> start_us_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_TELEMETRY_H_
