#ifndef FVAE_OBS_METRICS_REGISTRY_H_
#define FVAE_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/exemplars.h"

namespace fvae::obs {

/// True iff `name` is a snake_case dotted path: two or more '.'-separated
/// segments, each matching [a-z][a-z0-9_]* ("train.epoch_loss").
/// Registration FVAE_CHECKs this, and fvae_lint's `metric-name` rule
/// enforces it statically on string literals — keep the two in sync.
bool IsValidMetricName(std::string_view name);

/// Monotonically increasing event count. Updates are wait-free (one relaxed
/// atomic add), so hot paths stamp counters without contention.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;

  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, load factor, last epoch
/// loss). Doubles cover both integral and fractional instruments; updates
/// are lock-free.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Folds `v` into a high-watermark: the gauge only ever rises.
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<double> value_{0.0};
};

/// Read-side callback interface over a registry's instruments, invoked in
/// name order under the registration lock — keep the callbacks cheap and
/// lock-free (they feed exporters like obs::PrometheusText).
class MetricVisitor {
 public:
  virtual ~MetricVisitor() = default;
  virtual void OnCounter(const std::string& name, uint64_t value) = 0;
  virtual void OnGauge(const std::string& name, double value) = 0;
  virtual void OnHistogram(const std::string& name,
                           const LatencyHistogram& histogram) = 0;
};

/// Process-wide registry of named counters, gauges and histograms.
///
/// Registration (`Counter()`/`Gauge()`/`Histo()`) takes `mutex_` once to
/// create or look up the instrument; callers cache the returned reference
/// (instruments are never destroyed before the registry), so steady-state
/// updates never touch the lock — they are plain relaxed atomics on the
/// instrument itself. Snapshots lock only to walk the name table; the
/// values they read are the same relaxed atomics, i.e. eventually
/// consistent, not a cross-metric atomic cut.
///
/// `Global()` is the process-wide instance every instrumented module
/// (trainer, data pipeline, hash table, serving) registers into; separate
/// instances keep tests and embedded services isolated.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// `name` must satisfy IsValidMetricName and not already name an
  /// instrument of a different type (FVAE_CHECK on both).
  fvae::obs::Counter& Counter(std::string_view name);

  /// As Counter(), for gauges.
  fvae::obs::Gauge& Gauge(std::string_view name);

  /// As Counter(), for histograms. The bucket parameters apply on first
  /// creation only (see LatencyHistogram).
  LatencyHistogram& Histo(std::string_view name, double min_value = 1.0,
                          double growth = 1.3, size_t num_buckets = 64);

  /// Exemplar store attached to the histogram registered under `name`
  /// (created on first use; `name` follows the metric-name grammar).
  /// Callers cache the reference like any instrument: the store outlives
  /// every caller and its Offer path is lock-free in the common case.
  ExemplarStore& Exemplars(std::string_view name, size_t capacity = 4);

  /// All exemplar stores as one JSON object: {"<name>":[...],...}.
  std::string ExemplarsJson() const;

  /// Walks every instrument in name order. See MetricVisitor.
  void Visit(MetricVisitor& visitor) const;

  /// Number of registered instruments.
  size_t MetricCount() const;

  /// Human-readable snapshot, one instrument per line, sorted by name.
  std::string TextSnapshot() const;

  /// Machine-readable snapshot: one JSON object per line, sorted by name.
  ///   {"name":"data.batches","type":"counter","value":352}
  ///   {"name":"serving.queue_depth","type":"gauge","value":3}
  ///   {"name":"train.step_us","type":"histogram","count":64,
  ///    "mean":812.0,"p50":790.1,"p95":1180.4,"p99":1423.9}
  std::string JsonlSnapshot() const;

  /// Writes JsonlSnapshot() to `path` (append mode adds a snapshot block —
  /// the PeriodicDumper's time-series format).
  Status WriteJsonlSnapshot(const std::string& path, bool append) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    // Exactly one of these is set, per `kind`. unique_ptr keeps the
    // instrument address stable across map rebalancing.
    std::unique_ptr<fvae::obs::Counter> counter;
    std::unique_ptr<fvae::obs::Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& Register(std::string_view name, Kind kind)
      FVAE_REQUIRES(mutex_);

  // Registration happens at startup; the only steady-state acquisitions
  // are snapshot/exposition reads (Introspect on the server event loop):
  // bounded map walks and string formatting, no IO, no nested locks
  // beyond ExemplarStore's own exempt mutex — hence loop-exempt.
  mutable Mutex mutex_ FVAE_LOOP_LOCK_EXEMPT;
  std::map<std::string, Entry, std::less<>> metrics_ FVAE_GUARDED_BY(mutex_);
  /// Exemplar stores keyed by histogram name. unique_ptr keeps addresses
  /// stable so cached references survive map rebalancing.
  std::map<std::string, std::unique_ptr<ExemplarStore>, std::less<>>
      exemplars_ FVAE_GUARDED_BY(mutex_);
};

}  // namespace fvae::obs

#endif  // FVAE_OBS_METRICS_REGISTRY_H_
