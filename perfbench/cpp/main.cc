// perfbench: the repository benchmark. One workload per process:
//
//   perfbench --workload train_kd|foldin_cold|net_mixed --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest
//
// The last line of standard output is the run's JSON result; the lines
// before it give the host fingerprint, per-operation outcome counts and
// context. The exit code is non-zero only when an output check failed or
// the arguments are wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train_kd|foldin_cold|net_mixed "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0.0)) return Usage();
  perfbench::Report report;
  if (args.workload == "train_kd") {
    perfbench::RunTrainKd(args, report);
  } else if (args.workload == "foldin_cold") {
    perfbench::RunFoldinCold(args, report);
  } else if (args.workload == "net_mixed") {
    perfbench::RunNetMixed(args, report);
  } else {
    return Usage();
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
