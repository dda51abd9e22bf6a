#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/thread_pool.h"
#include "src/dataset/ingest.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"
#include "src/index/approx_search.h"
#include "src/index/query_engine.h"
#include "src/isax/mindist.h"
#include "src/query/prepared_query.h"

namespace perfbench {
namespace {

/// Replays always cover at least this many queries, budget or not.
constexpr size_t kMinReplays = 16;
/// Queries each kernel and mindist sweep runs.
constexpr size_t kSweepQueries = 4;
/// Series the ED and LB_Keogh sweeps cover (64 MiB: inside the L3).
constexpr size_t kSweepSeries = 1 << 16;
/// Series the DTW sweep covers.
constexpr size_t kDtwSweepSeries = 1024;

/// Keeps sweep results observable so the compiler cannot drop the calls.
volatile double g_sink = 0.0;

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

/// DP cells a Sakoe-Chiba band of half-width `window` covers on length-n
/// series.
double DtwCells(size_t n, size_t window) {
  double cells = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(n - 1, i + window);
    cells += static_cast<double>(hi - lo + 1);
  }
  return cells;
}

}  // namespace

std::vector<Metric> MeasureLayers(const LayerInputs& in, Tracer* tracer,
                                  std::string* error) {
  using namespace odyssey;
  const Index& index = in.cluster->node(0).index();
  const IsaxConfig& config = index.config();
  const QueryOptions& qo = in.cluster->options().query_options;
  const SeriesCollection& series = index.data();
  // DTW workloads replay with their own window; the others time the DTW
  // kernels at the paper's 5% window.
  const size_t window =
      qo.use_dtw ? qo.dtw_window : WarpingWindowFromFraction(kLength, 0.05);
  std::vector<Metric> out;

  // executor: the replay pool, timed around construction and teardown.
  std::unique_ptr<ThreadPool> pool;
  {
    Tracer::Scope span(tracer, "executor", "ThreadPool::ThreadPool");
    pool = std::make_unique<ThreadPool>(kWorkersPerNode);
  }

  // query + index: per-query replays.
  std::vector<PreparedQuery> sweep_queries;
  std::vector<double> prepare_us, approx_us, exact_ms, leaves, real, prune,
      quality;
  const double deadline = NowSeconds() + in.budget_seconds;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    if (i >= kMinReplays && NowSeconds() > deadline) break;
    const int64_t id = static_cast<int64_t>(i);
    Tracer::Scope replay(tracer, "bench", "replay", id);
    PreparedQuery prepared;
    {
      Tracer::Scope span(tracer, "query", "PreparedQuery::Prepare", id);
      const double t0 = NowSeconds();
      prepared = PreparedQuery::Prepare(in.queries[i], config, qo.use_dtw,
                                        qo.use_dtw ? qo.dtw_window : 0);
      prepare_us.push_back((NowSeconds() - t0) * 1e6);
    }
    {
      Tracer::Scope span(tracer, "index",
                         qo.use_dtw ? "ApproximateSearchSquaredDtw"
                                    : "ApproximateSearchSquared",
                         id);
      const double t0 = NowSeconds();
      g_sink = qo.use_dtw ? ApproximateSearchSquaredDtw(index, prepared)
                          : ApproximateSearchSquared(index, prepared);
      approx_us.push_back((NowSeconds() - t0) * 1e6);
    }
    const double t0 = NowSeconds();
    QueryExecution exec(&index, prepared, qo);
    float initial_bsf = 0.0f;
    {
      Tracer::Scope span(tracer, "index", "QueryExecution::SeedInitialBsf",
                         id);
      initial_bsf = exec.SeedInitialBsf();
    }
    {
      Tracer::Scope span(tracer, "index", "QueryExecution::Run", id);
      exec.Run(pool.get());
    }
    exact_ms.push_back((NowSeconds() - t0) * 1e3);
    const QueryStats stats = exec.stats();
    const std::vector<Neighbor> best = exec.results().SortedResults();
    leaves.push_back(static_cast<double>(stats.leaves_processed));
    real.push_back(static_cast<double>(stats.real_distances));
    prune.push_back(1.0 - Ratio(static_cast<double>(stats.real_distances),
                                static_cast<double>(series.size())));
    if (!best.empty() && best[0].squared_distance > 0.0f) {
      quality.push_back(initial_bsf / std::sqrt(best[0].squared_distance));
    }
    if (sweep_queries.size() < kSweepQueries) {
      sweep_queries.push_back(std::move(prepared));
    }
  }
  out.push_back({"query.prepare_us", Median(prepare_us), "us",
                 prepare_us.size()});
  out.push_back({"index.approx_us", Median(approx_us), "us",
                 approx_us.size()});
  out.push_back({"index.exact_ms_p50", Percentile(exact_ms, 50), "ms",
                 exact_ms.size()});
  out.push_back({"index.exact_ms_p99", Percentile(exact_ms, 99), "ms",
                 exact_ms.size()});
  out.push_back({"index.leaves_per_query", Mean(leaves), "count",
                 leaves.size()});
  out.push_back({"index.real_distances_per_query", Mean(real), "count",
                 real.size()});
  out.push_back({"index.prune_ratio", Mean(prune), "ratio", prune.size()});
  out.push_back({"index.approx_quality", Median(quality), "ratio",
                 quality.size()});

  {
    Tracer::Scope span(tracer, "executor", "ThreadPool::~ThreadPool");
    pool.reset();
  }

  // isax: the summary filter over every SAX row of the node.
  {
    const size_t segments = static_cast<size_t>(config.segments());
    const std::vector<uint8_t>& sax = index.sax_table();
    const size_t rows = sax.size() / segments;
    double acc = 0.0;
    const double t0 = NowSeconds();
    for (const PreparedQuery& q : sweep_queries) {
      Tracer::Scope span(tracer, "isax", "MindistPaaToSax");
      for (size_t r = 0; r < rows; ++r) {
        acc += MindistPaaToSax(q.paa(), sax.data() + r * segments, config);
      }
    }
    const double calls = static_cast<double>(rows * sweep_queries.size());
    g_sink = acc;
    out.push_back({"isax.mindist_ns", Ratio((NowSeconds() - t0) * 1e9, calls),
                   "ns", static_cast<size_t>(calls)});
  }

  // distance: kernel sweeps over the node's series.
  {
    const size_t n = std::min(series.size(), kSweepSeries);
    double acc = 0.0;
    double t0 = NowSeconds();
    for (const PreparedQuery& q : sweep_queries) {
      Tracer::Scope span(tracer, "distance", "SquaredEuclidean");
      for (size_t s = 0; s < n; ++s) {
        acc += SquaredEuclidean(q.series(), series.data(s), kLength);
      }
    }
    const double ed_points =
        static_cast<double>(n * sweep_queries.size() * kLength);
    out.push_back({"distance.ed_ns_per_point",
                   Ratio((NowSeconds() - t0) * 1e9, ed_points), "ns",
                   static_cast<size_t>(ed_points)});
    // Query point + candidate point.
    out.push_back({"distance.ed_bytes_per_point", 2.0 * sizeof(float), "B",
                   1});

    t0 = NowSeconds();
    for (const PreparedQuery& q : sweep_queries) {
      const Envelope envelope =
          q.has_envelope() ? q.envelope()
                           : BuildEnvelope(q.series(), kLength, window);
      Tracer::Scope span(tracer, "distance", "SquaredLbKeogh");
      for (size_t s = 0; s < n; ++s) {
        acc += SquaredLbKeogh(envelope, series.data(s));
      }
    }
    out.push_back({"distance.lb_keogh_ns_per_point",
                   Ratio((NowSeconds() - t0) * 1e9, ed_points), "ns",
                   static_cast<size_t>(ed_points)});
    // Candidate point + upper and lower envelope points.
    out.push_back({"distance.lb_keogh_bytes_per_point", 3.0 * sizeof(float),
                   "B", 1});

    const size_t dtw_n = std::min(series.size(), kDtwSweepSeries);
    t0 = NowSeconds();
    for (const PreparedQuery& q : sweep_queries) {
      Tracer::Scope span(tracer, "distance", "SquaredDtw");
      for (size_t s = 0; s < dtw_n; ++s) {
        acc += SquaredDtw(q.series(), series.data(s), kLength, window);
      }
    }
    const double cells = DtwCells(kLength, window) *
                         static_cast<double>(dtw_n * sweep_queries.size());
    out.push_back({"distance.dtw_ns_per_cell",
                   Ratio((NowSeconds() - t0) * 1e9, cells), "ns",
                   static_cast<size_t>(cells)});
    // One query point + one candidate point per DP cell.
    out.push_back({"distance.dtw_bytes_per_cell", 2.0 * sizeof(float), "B",
                   1});
    g_sink = acc;
  }

  // dataset: pulls over the archive (page-cache warm: it was just written
  // or ingested).
  {
    IngestOptions options;
    options.length = kLength;
    double bytes = 0.0;
    const double t0 = NowSeconds();
    StatusOr<SeriesIngestor> ingestor = [&] {
      Tracer::Scope span(tracer, "dataset", "SeriesIngestor::Open");
      return SeriesIngestor::Open(in.archive, options);
    }();
    Status status = ingestor.status();
    while (status.ok()) {
      Tracer::Scope span(tracer, "dataset", "SeriesIngestor::NextChunk");
      StatusOr<SeriesCollection> chunk = ingestor->NextChunk();
      status = chunk.status();
      if (!status.ok() || chunk->empty()) break;
      // fvecs record: int32 dimension header + the float components.
      bytes += static_cast<double>(chunk->size() * (kLength + 1) * 4);
    }
    if (!status.ok()) {
      *error = "ingest of " + in.archive + ": " + status.ToString();
    }
    out.push_back({"dataset.ingest_mb_s",
                   Ratio(bytes / 1e6, NowSeconds() - t0), "MB/s", 1});
  }
  return out;
}

}  // namespace perfbench
