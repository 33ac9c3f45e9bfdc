// Shared pieces of the repository benchmark: run arguments, the result
// report (metrics, per-operation failure accounting, output checks), the
// span readers used by traced runs, and small statistics helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Output corruptions the self-test injects to prove each check fires.
enum class Corruption {
  kNone,
  kNonFiniteLoss,       // train_kd: an epoch loss becomes NaN
  kPerturbedEmbedding,  // foldin_cold: one fold-in answer is nudged
  kWrongUserVector,     // net_mixed: a lookup answers another user's row
};

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: small corpora and short phases.
  bool small = false;
  Corruption corrupt = Corruption::kNone;
};

/// Outcome counts of one operation kind. Every attempt ends in exactly one
/// of: succeeded, rejected (admission control), deadline_expired,
/// not_found, transport (connection/wire errors) or other.
struct OpTally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> succeeded{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> deadline_expired{0};
  std::atomic<uint64_t> not_found{0};
  std::atomic<uint64_t> transport{0};
  std::atomic<uint64_t> other{0};

  /// Counts one attempt with its final status. `over_network` decides how
  /// kUnavailable reads: admission rejection in process, a transport
  /// failure through the router (which fails over on it).
  void Record(const fvae::Status& status, bool over_network);
  uint64_t Failed() const { return attempted.load() - succeeded.load(); }
};

/// Collects metrics, operation tallies and check failures of one run, and
/// prints them. Every metric of the benchmark is printed in every run of
/// its kind: the report starts from the full tables (kEndToEnd, kPerLayer)
/// and a workload fills in what it measures; per-layer metrics of a layer
/// the workload leaves idle read 0. Thread-safe for Fail() and tallies.
class Report {
 public:
  Report();
  /// Sets a metric by name; aborts on a name missing from the tables.
  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  OpTally& Ops(const std::string& kind);

  /// Records a failed output check (the run is then reported incorrect).
  void Fail(const std::string& what);
  bool correct() const;

  /// Prints the host fingerprint, the tallies, any check failures, and the
  /// final one-line JSON result (end-to-end or per-layer metrics).
  void Print(bool trace) const;

 private:
  struct Metric {
    const char* name;
    const char* unit;
    double value;
  };
  static void Set(std::vector<Metric>& table, const std::string& name,
                  double value);
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::map<std::string, OpTally> ops_;
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
  size_t failure_count_ = 0;
};

/// Max absolute difference between two vectors; +inf on a size mismatch
/// or a non-finite entry.
double MaxAbsDiff(std::span<const float> a, std::span<const float> b);

/// Tolerance for an embedding computed through another path (ISA, batch
/// shape, wire) against its reference. Cross-ISA encodes differ by ~1e-6;
/// a different user's embedding differs by ~1e-1.
inline constexpr double kEmbeddingTolerance = 1e-4;

/// Exact order statistic of `values` at quantile q in [0, 1] (sorts a
/// copy; nearest-rank). 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// CPU time of this process (all threads, user + system), seconds. Unlike
/// the wall clock it does not advance while the host deschedules the
/// guest's vCPUs (steal time), which on a shared VM comes in stretches of
/// seconds and moves wall-clock rates by tens of percent between runs.
double ProcessCpuSeconds();

/// Peak resident set of this process, MiB (getrusage).
double PeakRssMb();

/// Durations (us) of the buffered spans of one name, plus the recorded
/// count and total (which include spans beyond the per-thread buffer).
struct SpanSample {
  std::vector<double> durations_us;
  uint64_t count = 0;
  double total_us = 0.0;
  double MeanUs() const { return count == 0 ? 0.0 : total_us / double(count); }
};
std::map<std::string, SpanSample> CollectSpans();

/// Tracing switch for the measured phases of a traced run: clears earlier
/// spans and enables the global recorder; Stop() disables it.
void StartTracing();
void StopTracing();

/// GEMM rate (GFLOP/s) of the active kernel table at out[m x n] +=
/// a[m x k] * b[k x n], timed over ~`budget_s` seconds.
double GemmGflops(size_t m, size_t k, size_t n, double budget_s);

/// The JSON number that follows "key": in `json`; NaN when absent.
double JsonNumber(const std::string& json, const std::string& key);

/// Clients allowed on this host: never more threads or connections than
/// processors.
size_t HostProcessors();

/// Deterministic 64-bit mixer (splitmix64 finaliser).
uint64_t Mix64(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
