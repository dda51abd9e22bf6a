#ifndef ODYSSEY_PERFBENCH_ORACLE_H_
#define ODYSSEY_PERFBENCH_ORACLE_H_

// The output oracle: grades the cluster's 1-NN answers against brute force
// over the same series the cluster indexed. Every answer is checked for
// shape (exactly one neighbor, an id inside the collection) and for
// self-consistency (its reported distance is the distance to the series it
// names); the graded subset is additionally checked against the exact
// nearest-neighbor distance — SquaredEuclidean, or for DTW an
// LB_Keogh-pruned SquaredDtwEarlyAbandon scan.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/driver.h"

namespace perfbench {

/// What the oracle compares against: the indexed collection and the
/// distance the workload searches under.
struct OracleSpec {
  const odyssey::SeriesCollection* data = nullptr;
  bool dtw = false;
  size_t dtw_window = 0;
};

/// Exact squared 1-NN distance of every query in `queries` (rows of a
/// collection of data->length() points). For DTW, `hints[i]` (optional, the
/// answer under test) only seeds the pruning bound; the result is exact
/// either way. Runs on `threads` threads of its own.
std::vector<float> ExactNearest(const OracleSpec& spec,
                                const std::vector<const float*>& queries,
                                const std::vector<odyssey::QueryAnswer>* hints,
                                int threads);

/// Grades one answer. `exact` is the oracle's squared 1-NN distance, or
/// null to check shape and self-consistency only. Returns true when the
/// answer passes.
bool AnswerPasses(const OracleSpec& spec, const float* query,
                  const odyssey::QueryAnswer& answer, const float* exact);

}  // namespace perfbench

#endif  // ODYSSEY_PERFBENCH_ORACLE_H_
