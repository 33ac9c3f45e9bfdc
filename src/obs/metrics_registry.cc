#include "obs/metrics_registry.h"

#include <cstdio>
#include <fstream>

#include "common/atomic_file.h"
#include "common/check.h"

namespace fvae::obs {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  bool seen_dot = false;
  bool segment_start = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_start) return false;  // empty segment
      seen_dot = true;
      segment_start = true;
      continue;
    }
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;
      segment_start = false;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return seen_dot && !segment_start;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::Register(std::string_view name,
                                                  Kind kind) {
  FVAE_CHECK(IsValidMetricName(name))
      << "metric name must be a snake_case dotted path "
         "(\"train.epoch_loss\"), got: "
      << std::string(name);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Entry{kind, {}, {}, {}}).first;
  }
  FVAE_CHECK(it->second.kind == kind)
      << "metric registered twice with different types: "
      << std::string(name);
  return it->second;
}

fvae::obs::Counter& MetricsRegistry::Counter(std::string_view name) {
  MutexLock lock(mutex_);
  Entry& entry = Register(name, Kind::kCounter);
  if (entry.counter == nullptr) {
    entry.counter.reset(new fvae::obs::Counter());
  }
  return *entry.counter;
}

fvae::obs::Gauge& MetricsRegistry::Gauge(std::string_view name) {
  MutexLock lock(mutex_);
  Entry& entry = Register(name, Kind::kGauge);
  if (entry.gauge == nullptr) {
    entry.gauge.reset(new fvae::obs::Gauge());
  }
  return *entry.gauge;
}

LatencyHistogram& MetricsRegistry::Histo(std::string_view name,
                                         double min_value, double growth,
                                         size_t num_buckets) {
  MutexLock lock(mutex_);
  Entry& entry = Register(name, Kind::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<LatencyHistogram>(min_value, growth,
                                                         num_buckets);
  }
  return *entry.histogram;
}

ExemplarStore& MetricsRegistry::Exemplars(std::string_view name,
                                          size_t capacity) {
  FVAE_CHECK(IsValidMetricName(name))
      << "exemplar store name must be a snake_case dotted path, got: "
      << std::string(name);
  MutexLock lock(mutex_);
  auto it = exemplars_.find(name);
  if (it == exemplars_.end()) {
    it = exemplars_
             .emplace(std::string(name),
                      std::make_unique<ExemplarStore>(capacity))
             .first;
  }
  return *it->second;
}

std::string MetricsRegistry::ExemplarsJson() const {
  MutexLock lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, store] : exemplars_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + store->ToJson();
  }
  out += "}";
  return out;
}

void MetricsRegistry::Visit(MetricVisitor& visitor) const {
  MutexLock lock(mutex_);
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        visitor.OnCounter(name, entry.counter->Value());
        break;
      case Kind::kGauge:
        visitor.OnGauge(name, entry.gauge->Value());
        break;
      case Kind::kHistogram:
        visitor.OnHistogram(name, *entry.histogram);
        break;
    }
  }
}

size_t MetricsRegistry::MetricCount() const {
  MutexLock lock(mutex_);
  return metrics_.size();
}

std::string MetricsRegistry::TextSnapshot() const {
  MutexLock lock(mutex_);
  std::string out;
  char buf[256];
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%-36s counter    %llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(
                          entry.counter->Value()));
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "%-36s gauge      %.6g\n",
                      name.c_str(), entry.gauge->Value());
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = *entry.histogram;
        std::snprintf(buf, sizeof(buf),
                      "%-36s histogram  count=%llu mean=%.1f p50=%.1f "
                      "p95=%.1f p99=%.1f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(h.Count()), h.Mean(),
                      h.Percentile(50.0), h.Percentile(95.0),
                      h.Percentile(99.0));
        break;
      }
    }
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::JsonlSnapshot() const {
  MutexLock lock(mutex_);
  std::string out;
  char buf[320];
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"type\":\"counter\","
                      "\"value\":%llu}\n",
                      name.c_str(),
                      static_cast<unsigned long long>(
                          entry.counter->Value()));
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"type\":\"gauge\","
                      "\"value\":%.6g}\n",
                      name.c_str(), entry.gauge->Value());
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = *entry.histogram;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"type\":\"histogram\","
                      "\"count\":%llu,\"mean\":%.1f,\"p50\":%.1f,"
                      "\"p95\":%.1f,\"p99\":%.1f}\n",
                      name.c_str(),
                      static_cast<unsigned long long>(h.Count()), h.Mean(),
                      h.Percentile(50.0), h.Percentile(95.0),
                      h.Percentile(99.0));
        break;
      }
    }
    out += buf;
  }
  return out;
}

Status MetricsRegistry::WriteJsonlSnapshot(const std::string& path,
                                           bool append) const {
  if (append) {
    // Appending to a shared log cannot go through the atomic rename path
    // (a rename would clobber the records already in the file), so this
    // branch keeps the direct stream; partial trailing lines are tolerated
    // by JSONL consumers.
    std::ofstream out(path, std::ios::app);  // fvae-lint: allow(atomic-write)
    if (!out) return Status::IoError("cannot open for write: " + path);
    out << JsonlSnapshot();
    out.flush();
    if (!out.good()) {
      return Status::IoError("snapshot write failed: " + path);
    }
    return Status::Ok();
  }
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "obs.metrics_snapshot"));
  writer.stream() << JsonlSnapshot();
  return writer.Commit();
}

}  // namespace fvae::obs
