#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/stopwatch.h"
#include "math/kernels/kernel_table.h"
#include "obs/trace.h"

namespace perfbench {

void OpTally::Record(const fvae::Status& status, bool over_network) {
  using fvae::StatusCode;
  attempted.fetch_add(1, std::memory_order_relaxed);
  switch (status.code()) {
    case StatusCode::kOk:
      succeeded.fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kResourceExhausted:
      rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kUnavailable:
      (over_network ? transport : rejected)
          .fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kDeadlineExceeded:
      deadline_expired.fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kNotFound:
      not_found.fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kIoError:
      transport.fetch_add(1, std::memory_order_relaxed);
      return;
    default:
      other.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

namespace {

// The metric tables; BENCHMARK.json lists the same names and units.
constexpr const char* kEndToEnd[][2] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"cpu_us_per_op", "us"},
    {"p50_us", "us"},         {"heldout_auc", "AUC"},
};

constexpr const char* kPerLayer[][2] = {
    {"core.train_step_us", "us"},
    {"core.forward_us", "us"},
    {"core.fields_us", "us"},
    {"core.backward_us", "us"},
    {"core.candidates.ch1", "count"},
    {"core.candidates.ch2", "count"},
    {"core.candidates.ch3", "count"},
    {"core.candidates.tag", "count"},
    {"core.encode_users_per_s", "1/s"},
    {"nn.update_us", "us"},
    {"hash.grow_count", "count"},
    {"hash.grow_us", "us"},
    {"data.between_steps_us", "us"},
    {"kernels.gemm_gflops", "GFLOP/s"},
    {"serving.encoder.batch_us", "us"},
    {"serving.encoder.users_per_s", "1/s"},
    {"serving.batcher.queue_wait_us", "us"},
    {"serving.batcher.encode_us", "us"},
    {"serving.batcher.mean_batch_size", "count"},
    {"serving.batcher.queue_peak", "count"},
    {"serving.store.materialize_s", "s"},
    {"serving.store.lookup_us", "us"},
    {"net.client.send_us", "us"},
    {"net.server.parse_us", "us"},
    {"net.server.reply_us", "us"},
    {"net.wire_us", "us"},
    {"net.stitched_traces", "count"},
    {"net.router.hedges_per_1k", "count"},
    {"net.router.failovers", "count"},
    {"obs.trace_overhead_pct", "%"},
};

}  // namespace

Report::Report() {
  for (const auto& row : kEndToEnd) end_to_end_.push_back({row[0], row[1], 0});
  for (const auto& row : kPerLayer) layer_.push_back({row[0], row[1], 0});
}

void Report::Set(std::vector<Metric>& table, const std::string& name,
                 double value) {
  for (Metric& metric : table) {
    if (name == metric.name) {
      metric.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

void Report::EndToEnd(const std::string& name, double value) {
  Set(end_to_end_, name, value);
}

void Report::Layer(const std::string& name, double value) {
  Set(layer_, name, value);
}

OpTally& Report::Ops(const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_[kind];
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failure_count_;
  if (failures_.size() < 20) failures_.push_back(what);
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failure_count_ == 0;
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

void Report::Print(bool trace) const {
  std::printf(
      "host: {\"cpu\":\"%s\",\"isa\":\"%s\",\"nproc\":%zu,"
      "\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
      JsonEscape(CpuModel()).c_str(), fvae::IsaName(fvae::ActiveIsa()),
      HostProcessors(), JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& [kind, t] : ops_) {
    std::printf(
        "ops %s: attempted=%llu succeeded=%llu failed=%llu rejected=%llu "
        "deadline_expired=%llu not_found=%llu transport=%llu other=%llu\n",
        kind.c_str(), (unsigned long long)t.attempted.load(),
        (unsigned long long)t.succeeded.load(),
        (unsigned long long)t.Failed(), (unsigned long long)t.rejected.load(),
        (unsigned long long)t.deadline_expired.load(),
        (unsigned long long)t.not_found.load(),
        (unsigned long long)t.transport.load(),
        (unsigned long long)t.other.load());
    attempted += t.attempted.load();
    failed += t.Failed();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& f : failures_) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    if (failure_count_ > failures_.size()) {
      std::printf("CHECK FAILED: ... %zu failures in all\n", failure_count_);
    }
  }
  const std::vector<Metric>& metrics = trace ? layer_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    json += std::string(i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double MaxAbsDiff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(double(a[i]) - double(b[i]));
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const size_t index =
      std::min(values.size() - 1, size_t(std::max(1.0, rank)) - 1);
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

double ProcessCpuSeconds() {
  struct timespec ts {};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::map<std::string, SpanSample> CollectSpans() {
  fvae::obs::TraceRecorder& recorder = fvae::obs::TraceRecorder::Global();
  std::map<std::string, SpanSample> spans;
  for (const fvae::obs::TraceEvent& event : recorder.Events()) {
    spans[event.name].durations_us.push_back(double(event.duration_us));
  }
  for (const fvae::obs::SpanProfile& row : recorder.Profile()) {
    spans[row.name].count = row.count;
    spans[row.name].total_us = row.total_us;
  }
  return spans;
}

void StartTracing() {
  fvae::obs::TraceRecorder::Global().Reset();
  fvae::obs::TraceRecorder::Global().Enable();
}

void StopTracing() { fvae::obs::TraceRecorder::Global().Disable(); }

double GemmGflops(size_t m, size_t k, size_t n, double budget_s) {
  std::vector<float> a(m * k), b(k * n), out(m * n, 0.0f);
  for (size_t i = 0; i < a.size(); ++i) a[i] = float(i % 7) * 0.01f;
  for (size_t i = 0; i < b.size(); ++i) b[i] = float(i % 5) * 0.02f;
  const fvae::KernelTable& kernels = fvae::Kernels();
  kernels.gemm_accumulate(a.data(), b.data(), out.data(), m, k, n);  // warm
  uint64_t calls = 0;
  fvae::Stopwatch watch;
  do {
    for (int i = 0; i < 64; ++i) {
      kernels.gemm_accumulate(a.data(), b.data(), out.data(), m, k, n);
    }
    calls += 64;
  } while (watch.ElapsedSeconds() < budget_s);
  const double seconds = watch.ElapsedSeconds();
  if (!std::isfinite(out[0])) return 0.0;
  return 2.0 * double(m * k * n) * double(calls) / seconds * 1e-9;
}

double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

size_t HostProcessors() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? size_t(n) : 1;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
