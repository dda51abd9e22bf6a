#ifndef ODYSSEY_PERFBENCH_WORKLOADS_H_
#define ODYSSEY_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads (README.md says why each exists):
//
//   batch-skewed-full   1.25 M random walks in memory, FULL replication,
//                       closed loop of fresh 100-query mixed-difficulty
//                       AnswerBatch calls
//   point-repeat-split  64 Ki series ingested from an fvecs archive,
//                       DENSITY-AWARE + EQUALLY-SPLIT, closed loop of
//                       single-query AnswerBatch calls re-issuing 64 jittered
//                       templates
//   stream-dtw-full     32 Ki series in memory, FULL, DTW with a 5% window,
//                       open-loop AnswerStream calls arriving 1 ms apart
//
// Every generated input is a function of the run's seed alone.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed loop. A traced run splits it into an untraced
  /// and a traced half.
  double seconds = 10.0;
  bool trace = false;
  /// Directory for fixture archives and the span dump.
  std::string work_dir;
};

struct RunOutcome {
  /// End-to-end metrics, or with `trace` the per-layer ones.
  std::vector<Metric> metrics;
  size_t attempted = 0;  ///< timed queries issued
  size_t failed = 0;     ///< of those, not ok, missing or wrong
  bool correct = false;  ///< failed == 0 and the oracle self-check passed
};

/// Workload names, in README order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false, with `*error` set, when a call the run
/// cannot continue without fails (writing or ingesting the archive, the
/// streaming build); wrong answers are counted in the outcome instead.
bool RunWorkload(const RunOptions& options, RunOutcome* outcome,
                 std::string* error);

}  // namespace perfbench

#endif  // ODYSSEY_PERFBENCH_WORKLOADS_H_
