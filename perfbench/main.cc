// Odyssey end-to-end benchmark.
//
//   odyssey_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--work-dir <dir>]
//
// Prints the host and configuration, one line per metric (value, unit,
// sample count) and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// from a traced run. README.md in this directory describes the workloads.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/workloads.h"
#include "src/distance/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Environment variables that change the library's defaults or sizes. Any
/// of them set would silently change what is measured.
constexpr const char* kGuardedEnv[] = {
    "ODYSSEY_BATCHED_SCORING", "ODYSSEY_STEAL_DONATION",
    "ODYSSEY_BATCH_INFLIGHT",  "ODYSSEY_SIMD",
    "ODYSSEY_NUMA",            "ODYSSEY_BENCH_SCALE",
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "odyssey_perfbench: %s\nusage: odyssey_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\nworkloads:",
               message);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  return CPU_COUNT(&set);
}

std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unknown" : line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  run.work_dir = ".bench_build/work";
  long long trace = -1;
  bool have_seed = false, have_seconds = false;
  if (argc % 2 != 1) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    unsigned long long number = 0;
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      run.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      run.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      trace = static_cast<long long>(number);
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (run.workload.empty() || !have_seed || !have_seconds || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  run.trace = trace == 1;

  // Host and configuration record, and the guards on both.
  const int cpus = UsableCpus();
  const std::string l3 =
      FirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::printf("host: nproc %d | cpu %s | L3 %s | isa %s | build %s\n", cpus,
              CpuModel().c_str(), l3.c_str(),
              odyssey::simd::IsaName(odyssey::simd::ActiveIsa()),
              PERFBENCH_BUILD_TYPE);
  std::printf("config: workload %s | seed %llu | seconds %.0f | trace %d | "
              "%d nodes x %d workers\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.trace ? 1 : 0, perfbench::kNodes,
              perfbench::kWorkersPerNode);
  std::fflush(stdout);
  if (perfbench::kNodes * perfbench::kWorkersPerNode > cpus) {
    std::fprintf(stderr,
                 "odyssey_perfbench: refusing to run: %d nodes x %d workers "
                 "needs %d CPUs, this process has %d\n",
                 perfbench::kNodes, perfbench::kWorkersPerNode,
                 perfbench::kNodes * perfbench::kWorkersPerNode, cpus);
    return 3;
  }
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "odyssey_perfbench: refusing to run: %s is set and would "
                   "change the library defaults being measured\n",
                   name);
      return 3;
    }
  }

  perfbench::RunOutcome outcome;
  std::string error;
  if (!perfbench::RunWorkload(run, &outcome, &error)) {
    std::fprintf(stderr, "odyssey_perfbench: %s\n", error.c_str());
    return 1;
  }

  for (const perfbench::Metric& m : outcome.metrics) {
    std::printf("  %-36s %14.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    if (!std::isfinite(m.value)) outcome.correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
