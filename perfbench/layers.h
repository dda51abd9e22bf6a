#ifndef ODYSSEY_PERFBENCH_LAYERS_H_
#define ODYSSEY_PERFBENCH_LAYERS_H_

// Per-layer replays of the traced run. Each layer below the coordinator is
// timed by calling its public functions directly from here, on the cluster's
// own node-0 index and with the workload's own queries:
//
//   query     PreparedQuery::Prepare per query (with the DTW envelope on
//             DTW workloads)
//   index     ApproximateSearchSquared[Dtw], then QueryExecution
//             SeedInitialBsf + Run on a 2-worker ThreadPool
//   executor  that ThreadPool's construction and teardown
//   isax      MindistPaaToSax over the node's SAX rows
//   distance  SquaredEuclidean, SquaredLbKeogh and SquaredDtw sweeps over
//             the node's series
//   dataset   SeriesIngestor pulls over an fvecs archive
//
// The core, net and executor-counter metrics come from the cluster's own
// reports in workloads.cc.

#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "src/core/driver.h"

namespace perfbench {

struct LayerInputs {
  const odyssey::OdysseyCluster* cluster = nullptr;
  /// Queries to replay, in order (the traced run's own queries).
  std::vector<const float*> queries;
  /// fvecs archive of kLength-point series for the ingest pulls.
  std::string archive;
  /// Replays continue past the first few queries only while this many
  /// seconds have not yet elapsed.
  double budget_seconds = 1.0;
};

/// Runs every replay under `tracer` and returns the layer metrics. A
/// failing library call (only the archive ingest can fail) is described in
/// `*error`, which is left untouched otherwise.
std::vector<Metric> MeasureLayers(const LayerInputs& inputs, Tracer* tracer,
                                  std::string* error);

}  // namespace perfbench

#endif  // ODYSSEY_PERFBENCH_LAYERS_H_
