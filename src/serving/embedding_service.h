#ifndef FVAE_SERVING_EMBEDDING_SERVICE_H_
#define FVAE_SERVING_EMBEDDING_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "serving/fold_in.h"
#include "serving/sharded_store.h"
#include "serving/telemetry.h"

namespace fvae::serving {

#define FVAE_FOLD_IN_INLINE_DEPRECATED \
  [[deprecated("ignored: fold-in runs on the caller's thread")]]

// GCC flags the deprecated fields' default member initializers inside every
// implicitly defined constructor; only a caller naming a field should warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

/// Fold-in admission knobs. Only `queue_capacity` is read; the rest are
/// accepted and ignored (fold-in has no queue, batch window or worker).
struct RequestBatcherOptions {
  FVAE_FOLD_IN_INLINE_DEPRECATED size_t max_batch_size = 32;
  FVAE_FOLD_IN_INLINE_DEPRECATED uint64_t max_wait_micros = 200;
  /// Admission control: at most this many fold-ins encode at once across
  /// all callers; past it LookupOrEncode answers kUnavailable.
  size_t queue_capacity = 1024;
  FVAE_FOLD_IN_INLINE_DEPRECATED size_t num_workers = 1;
};

struct EmbeddingServiceOptions {
  /// Shards of the materialized-embedding store.
  size_t num_shards = 16;
  FVAE_FOLD_IN_INLINE_DEPRECATED bool enable_batcher = true;
  RequestBatcherOptions batcher;
  /// Deadline applied to fold-in requests that do not pass their own
  /// (microseconds; 0 = none).
  uint64_t default_deadline_micros = 0;
  /// Registry the service's telemetry registers into. Null (default) gives
  /// the service a private registry; pass &obs::MetricsRegistry::Global()
  /// to surface serving metrics in process-wide snapshots.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

#pragma GCC diagnostic pop
#undef FVAE_FOLD_IN_INLINE_DEPRECATED

/// In-process front-end of the online module (Fig. 2): the look-alike
/// system's view of user embeddings under concurrent traffic.
///
/// Request path:
///   1. sharded store Get            — hot users, reader-concurrent;
///   2. on miss, fold-in encode      — one encoder pass on the calling
///      thread (the encoder is reentrant), result materialized into the
///      store so the user is hot from then on;
///   3. overload                     — past `batcher.queue_capacity`
///      fold-ins in flight a request bounces with kUnavailable (admission
///      control); a fold-in that finishes past its deadline answers
///      kDeadlineExceeded. Callers degrade gracefully: a kUnavailable
///      answer means "retry later or serve the cache-only fallback".
///
/// All public methods are safe for concurrent callers. The service holds
/// no locks of its own: every member is either set in the constructor and
/// immutable afterwards (`encoder_`, `options_`), owns its synchronization
/// (`store_` is per-shard reader/writer-locked and capability-annotated,
/// `telemetry_` is lock-free atomics), or is a single atomic
/// (`in_flight_`). Adding mutable service-level state requires a
/// `common::Mutex` with `FVAE_GUARDED_BY` (docs/ARCHITECTURE.md §7).
class EmbeddingService {
 public:
  using EmbeddingResult = Result<std::vector<float>>;
  using DoneCallback = std::function<void(EmbeddingResult)>;

  /// `store` seeds the materialized embeddings (moved in). `encoder` may be
  /// null — the service then answers store lookups only — and must outlive
  /// the service.
  EmbeddingService(ShardedEmbeddingStore store, FoldInEncoder* encoder,
                   EmbeddingServiceOptions options = {});

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Store-only lookup (no fold-in): kNotFound for unmaterialized users.
  EmbeddingResult Lookup(uint64_t user_id);

  /// Full serving path: a store hit answers straight away, a miss folds
  /// the raw field vector in on the calling thread. The returned future is
  /// always ready. `deadline_micros` overrides the configured default
  /// (0 = default).
  std::future<EmbeddingResult> LookupOrEncode(
      uint64_t user_id, const core::RawUserFeatures& features,
      uint64_t deadline_micros = 0);

  /// Callback flavor of LookupOrEncode. `done` fires exactly once, on the
  /// calling thread, before this returns.
  void LookupOrEncodeAsync(uint64_t user_id,
                           const core::RawUserFeatures& features,
                           uint64_t deadline_micros, DoneCallback done);

  const ShardedEmbeddingStore& store() const { return store_; }
  ServingTelemetry& telemetry() { return telemetry_; }
  const ServingTelemetry& telemetry() const { return telemetry_; }

  /// Telemetry + per-shard stats as one JSON object.
  std::string TelemetryJson() const;

 private:
  /// Both LookupOrEncode flavors; `watch` started when the request came in.
  EmbeddingResult Serve(uint64_t user_id,
                        const core::RawUserFeatures& features,
                        uint64_t deadline_micros, const Stopwatch& watch);

  /// Admitted cold path: encode, materialize, account.
  EmbeddingResult FoldIn(uint64_t user_id,
                         const core::RawUserFeatures& features,
                         uint64_t deadline_micros, const Stopwatch& watch);

  ShardedEmbeddingStore store_;
  FoldInEncoder* encoder_;
  EmbeddingServiceOptions options_;
  ServingTelemetry telemetry_;
  /// Fold-ins currently encoding, for admission control.
  std::atomic<size_t> in_flight_{0};
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_EMBEDDING_SERVICE_H_
