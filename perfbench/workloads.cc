#include "perfbench/workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "src/common/summary_stats.h"
#include "src/core/driver.h"
#include "src/dataset/file_io.h"
#include "src/dataset/generators.h"
#include "src/dataset/ingest.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"

namespace perfbench {
namespace {

using odyssey::BatchReport;
using odyssey::OdysseyCluster;
using odyssey::OdysseyOptions;
using odyssey::QueryAnswer;
using odyssey::SeriesCollection;

enum class Kind { kBatchSkewedFull, kPointRepeatSplit, kStreamDtwFull };

struct Spec {
  Kind kind;
  const char* name;
  size_t series;            ///< collection size
  int groups;               ///< 1 = FULL, kNodes = EQUALLY-SPLIT
  int setups;               ///< timed set-ups per run; the median is reported
  size_t queries_per_call;
  size_t min_calls;         ///< timed calls per run, however long they take
  size_t graded;            ///< answers checked against the oracle; 0 = all
};

constexpr Spec kSpecs[] = {
    {Kind::kBatchSkewedFull, "batch-skewed-full", 1'250'000, 1, 3, 20, 1,
     64},
    {Kind::kPointRepeatSplit, "point-repeat-split", 1 << 16, kNodes, 9, 1,
     1000, 0},
    {Kind::kStreamDtwFull, "stream-dtw-full", 1 << 15, 1, 15, 32, 1, 0},
};

/// Seed streams: MixSeed(run seed, stream, index) keys every input.
enum SeedStream : uint64_t {
  kDataStream = 1,
  kBatchStream,
  kTemplateStream,
  kJitterStream,
  kStreamQueryStream,
  kGradeStream,
};

/// point-repeat-split: distinct query templates and their noise, and the
/// jitter every re-issue adds.
constexpr size_t kTemplates = 64;
constexpr double kTemplateNoise = 0.1;
constexpr double kJitterNoise = 0.05;
/// Jittered re-issues generated at a time (between calls, untimed).
constexpr size_t kJitterBlock = 1024;
/// stream-dtw-full: open-loop arrival gap, far below the ~12 ms a query
/// takes, so the stream runs at capacity.
constexpr double kArrivalGapSeconds = 0.001;
/// Series of the ingest-probe archive the in-memory workloads write for the
/// dataset layer's traced pulls.
constexpr size_t kProbeSeries = 1 << 16;
/// Collections are generated in this many slices, one thread each.
constexpr size_t kGenerateSlices = 4;
/// A traced run always makes this many calls per half.
constexpr size_t kMinTracedCalls = 8;

struct Fixture {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  OdysseyOptions options;
  /// The indexed series exactly as the cluster sees them (for the
  /// point workload: as ingested back from the archive).
  SeriesCollection data{kLength};
  /// fvecs archive: the point workload's source; for the other workloads
  /// a probe slice written only for traced runs.
  std::string archive;
  SeriesCollection templates{kLength};
  size_t jitter_block = static_cast<size_t>(-1);
  SeriesCollection jitter{kLength};
};

struct SetupSample {
  double seconds = 0.0;
  double partition = 0.0;
  double ingest = 0.0;
  double overlap = 0.0;
  double buffer = 0.0;
  double tree = 0.0;
};

struct CallInput {
  SeriesCollection queries{kLength};
  std::vector<double> arrivals;  ///< stream workload only
};

struct CallRecord {
  double wall = 0.0;
  BatchReport report;  ///< answers moved into the Log
  size_t queries = 0;
  uint64_t threads_spawned = 0;
  uint64_t summaries = 0;
};

/// Shortest steal window: a timed loop reads the host's CPU steal before
/// its first call, before the first call at least kWindowSeconds after the
/// last read, and after its last call. A window is then about 60 of the
/// point workload's calls, or one call of the other two workloads.
constexpr double kWindowSeconds = 0.1;

/// Every timed query and what came back for it.
struct Log {
  SeriesCollection queries{kLength};
  std::vector<QueryAnswer> answers;
  std::vector<bool> status_ok;
  std::vector<CallRecord> calls;
  /// CpuStealAndTotal() at each window boundary, and the first call of
  /// each window; window w holds calls [window_first[w],
  /// window_first[w + 1]), the last one up to the end of `calls`.
  std::vector<std::pair<double, double>> window_cpu;
  std::vector<size_t> window_first;
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Library defaults except the workload definition: shape, partitioning,
/// distance.
OdysseyOptions ClusterOptions(const Spec& spec) {
  OdysseyOptions options;
  options.num_nodes = kNodes;
  options.num_groups = spec.groups;
  options.index_options.config = odyssey::IsaxConfig(kLength, kSegments);
  options.build_threads_per_node = kWorkersPerNode;
  options.query_options.num_threads = kWorkersPerNode;
  if (spec.kind == Kind::kPointRepeatSplit) {
    options.partitioning = odyssey::PartitioningScheme::kDensityAware;
  }
  if (spec.kind == Kind::kStreamDtwFull) {
    options.query_options.use_dtw = true;
    options.query_options.dtw_window =
        odyssey::WarpingWindowFromFraction(kLength, 0.05);
  }
  return options;
}

/// GenerateRandomWalk over `count` series, generated as kGenerateSlices
/// independently seeded slices on as many threads and concatenated.
SeriesCollection GenerateCollection(size_t count, uint64_t seed) {
  std::vector<SeriesCollection> slices(kGenerateSlices,
                                       SeriesCollection(kLength));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kGenerateSlices; ++i) {
    threads.emplace_back([&, i] {
      const size_t begin = count * i / kGenerateSlices;
      const size_t end = count * (i + 1) / kGenerateSlices;
      slices[i] = odyssey::GenerateRandomWalk(end - begin, kLength,
                                              MixSeed(seed, i, 0));
    });
  }
  for (std::thread& thread : threads) thread.join();
  SeriesCollection out(kLength);
  out.Reserve(count);
  for (SeriesCollection& slice : slices) {
    for (size_t s = 0; s < slice.size(); ++s) out.Append(slice.data(s));
    slice = SeriesCollection(kLength);
  }
  return out;
}

/// WriteFvecs, then fsync: the archive's writeback must not land inside a
/// later timed loop.
odyssey::Status WriteArchive(const SeriesCollection& series,
                             const std::string& path) {
  odyssey::Status status = odyssey::WriteFvecs(series, path);
  if (!status.ok()) return status;
  const int fd = open(path.c_str(), O_RDONLY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  return synced ? status : odyssey::Status::IoError("fsync " + path);
}

bool PrepareFixture(const Spec& spec, const RunOptions& run, Fixture* f,
                    std::string* error) {
  f->spec = &spec;
  f->seed = run.seed;
  f->options = ClusterOptions(spec);
  SeriesCollection generated =
      GenerateCollection(spec.series, MixSeed(run.seed, kDataStream, 0));
  const std::string stem = run.work_dir + "/" + spec.name + "-seed" +
                           std::to_string(run.seed);
  if (spec.kind == Kind::kPointRepeatSplit) {
    f->archive = stem + ".fvecs";
    odyssey::Status status = WriteArchive(generated, f->archive);
    odyssey::IngestOptions ingest;
    ingest.length = kLength;
    odyssey::StatusOr<SeriesCollection> read =
        status.ok() ? odyssey::IngestFile(f->archive, ingest)
                    : odyssey::StatusOr<SeriesCollection>(status);
    if (!read.ok()) {
      *error = "archive " + f->archive + ": " + read.status().ToString();
      return false;
    }
    f->data = std::move(read).value();
    f->templates = odyssey::GenerateUniformQueries(
        f->data, kTemplates, kTemplateNoise,
        MixSeed(run.seed, kTemplateStream, 0));
    return true;
  }
  f->data = std::move(generated);
  if (run.trace) {
    f->archive = stem + "-probe.fvecs";
    std::vector<uint32_t> ids(std::min(kProbeSeries, f->data.size()));
    std::iota(ids.begin(), ids.end(), 0u);
    const odyssey::Status status =
        WriteArchive(f->data.Subset(ids), f->archive);
    if (!status.ok()) {
      *error = "archive " + f->archive + ": " + status.ToString();
      return false;
    }
  }
  return true;
}

std::unique_ptr<OdysseyCluster> SetUp(const Fixture& f, Tracer* tracer,
                                      SetupSample* sample,
                                      std::string* error) {
  std::unique_ptr<OdysseyCluster> cluster;
  const double t0 = NowSeconds();
  if (f.spec->kind == Kind::kPointRepeatSplit) {
    Tracer::Scope span(tracer, "core", "OdysseyCluster::IngestAndBuild");
    odyssey::IngestOptions ingest;
    ingest.length = kLength;
    odyssey::StatusOr<odyssey::SeriesIngestor> source = [&] {
      Tracer::Scope open(tracer, "dataset", "SeriesIngestor::Open");
      return odyssey::SeriesIngestor::Open(f.archive, ingest);
    }();
    if (!source.ok()) {
      *error = "open " + f.archive + ": " + source.status().ToString();
      return nullptr;
    }
    auto built = OdysseyCluster::IngestAndBuild(*source, f.options);
    if (!built.ok()) {
      *error = "IngestAndBuild: " + built.status().ToString();
      return nullptr;
    }
    cluster = std::move(built).value();
  } else {
    Tracer::Scope span(tracer, "core", "OdysseyCluster::OdysseyCluster");
    cluster = std::make_unique<OdysseyCluster>(f.data, f.options);
  }
  sample->seconds = NowSeconds() - t0;
  sample->partition = cluster->partition_seconds();
  sample->ingest = cluster->ingest_seconds();
  sample->overlap = cluster->overlap_seconds();
  sample->buffer = cluster->max_buffer_seconds();
  sample->tree = cluster->max_tree_seconds();
  return cluster;
}

/// `count` queries, `unrelated` of them unrelated random walks and the rest
/// perturbed collection members with noise levels evenly spaced over
/// [lo, hi], in seeded shuffled order. Every call thus has the same
/// difficulty mix (GenerateQueries' recipe with its noise draws and
/// unrelated coin flips stratified); only the sampled series differ.
SeriesCollection StratifiedQueries(const SeriesCollection& data, size_t count,
                                   double lo, double hi, size_t unrelated,
                                   uint64_t seed) {
  std::vector<size_t> slots(count);
  std::iota(slots.begin(), slots.end(), size_t{0});
  for (size_t i = count; i > 1; --i) {
    std::swap(slots[i - 1], slots[MixSeed(seed, 0, i) % i]);
  }
  const size_t related = count - unrelated;
  SeriesCollection out(kLength);
  for (size_t i = 0; i < count; ++i) {
    odyssey::WorkloadOptions options;
    options.count = 1;
    options.seed = MixSeed(seed, 1, i);
    if (slots[i] < unrelated) {
      options.unrelated_fraction = 1.0;
    } else {
      const double step = related > 1 ? (hi - lo) / (related - 1) : 0.0;
      options.min_noise = options.max_noise =
          lo + step * static_cast<double>(slots[i] - unrelated);
    }
    out.Append(odyssey::GenerateQueries(data, options).data(0));
  }
  return out;
}

CallInput MakeCall(Fixture* f, size_t call) {
  CallInput in;
  switch (f->spec->kind) {
    case Kind::kBatchSkewedFull:
      // The bench::MixedQueries mix: noise 0.05-2.0, 10% unrelated.
      in.queries = StratifiedQueries(f->data, f->spec->queries_per_call, 0.05,
                                     2.0, f->spec->queries_per_call / 10,
                                     MixSeed(f->seed, kBatchStream, call));
      break;
    case Kind::kPointRepeatSplit: {
      const size_t block = call / kJitterBlock;
      if (block != f->jitter_block) {
        // Each row re-issues a uniformly drawn template plus fresh jitter.
        f->jitter = odyssey::GenerateUniformQueries(
            f->templates, kJitterBlock, kJitterNoise,
            MixSeed(f->seed, kJitterStream, block));
        f->jitter_block = block;
      }
      in.queries.Append(f->jitter.data(call % kJitterBlock));
      break;
    }
    case Kind::kStreamDtwFull:
      in.queries = StratifiedQueries(
          f->data, f->spec->queries_per_call, 0.05, 0.5, 0,
          MixSeed(f->seed, kStreamQueryStream, call));
      for (size_t q = 0; q < in.queries.size(); ++q) {
        in.arrivals.push_back(static_cast<double>(q) * kArrivalGapSeconds);
      }
      break;
  }
  return in;
}

uint64_t SummariesSoFar() {
  return odyssey::summary_stats::PaaCalls() +
         odyssey::summary_stats::SaxCalls() +
         odyssey::summary_stats::EnvelopeCalls();
}

/// Cumulative {steal, total} jiffies of all CPUs from /proc/stat: the
/// hypervisor's steal time shows how much the rest of the host took from
/// a timed loop. {0, 0} where the file is unreadable.
std::pair<double, double> CpuStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, field = 0.0;
  // Fields: user nice system idle iowait irq softirq steal.
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

BatchReport Answer(OdysseyCluster& cluster, const Fixture& f,
                   const CallInput& in) {
  return f.spec->kind == Kind::kStreamDtwFull
             ? cluster.AnswerStream(in.queries, in.arrivals)
             : cluster.AnswerBatch(in.queries);
}

/// Closed loop of calls for at least `seconds` and `min_calls`, appending
/// to `log` (when non-null). `*next_call` numbers the inputs across loops.
/// A loop still short of `min_calls` at twice `seconds` stops anyway, so a
/// slow host cannot push a run past its time limit.
void RunCalls(OdysseyCluster& cluster, Fixture* f, size_t* next_call,
              double seconds, size_t min_calls, Tracer* tracer, Log* log) {
  const bool stream = f->spec->kind == Kind::kStreamDtwFull;
  const double start = NowSeconds();
  double window_start = start;
  for (size_t calls = 0;; ++calls) {
    const double elapsed = NowSeconds() - start;
    if (calls >= min_calls && elapsed >= seconds) break;
    if (calls > 0 && elapsed >= 2 * seconds) break;
    const CallInput in = MakeCall(f, (*next_call)++);
    if (log != nullptr &&
        (calls == 0 || NowSeconds() - window_start >= kWindowSeconds)) {
      window_start = NowSeconds();
      log->window_cpu.push_back(CpuStealAndTotal());
      log->window_first.push_back(calls);
    }
    const size_t first_query = log != nullptr ? log->answers.size() : 0;
    CallRecord record;
    const uint64_t spawned = odyssey::executor_stats::ThreadsSpawned();
    const uint64_t summaries = SummariesSoFar();
    const double t0 = NowSeconds();
    {
      Tracer::Scope span(
          tracer, "core",
          stream ? "OdysseyCluster::AnswerStream"
                 : "OdysseyCluster::AnswerBatch",
          in.queries.size() == 1 ? static_cast<int64_t>(first_query) : -1);
      record.report = Answer(cluster, *f, in);
    }
    record.wall = NowSeconds() - t0;
    record.threads_spawned =
        odyssey::executor_stats::ThreadsSpawned() - spawned;
    record.summaries = SummariesSoFar() - summaries;
    record.queries = in.queries.size();
    if (log == nullptr) continue;
    const bool ok = record.report.status.ok();
    for (size_t q = 0; q < in.queries.size(); ++q) {
      log->queries.Append(in.queries.data(q));
      log->answers.push_back(q < record.report.answers.size()
                                 ? std::move(record.report.answers[q])
                                 : QueryAnswer());
      log->status_ok.push_back(ok);
    }
    record.report.answers.clear();
    log->calls.push_back(std::move(record));
  }
  if (log != nullptr) log->window_cpu.push_back(CpuStealAndTotal());
}

int OracleThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Grades every logged answer (the spec's sample against the exact oracle,
/// all of them for shape and self-consistency) and runs the oracle
/// self-check. Returns the failed count.
size_t Grade(const Fixture& f, const Log& log, bool* self_check_ok) {
  const OracleSpec spec{&f.data, f.options.query_options.use_dtw,
                        f.options.query_options.dtw_window};
  const size_t total = log.answers.size();
  std::vector<size_t> graded(total);
  std::iota(graded.begin(), graded.end(), size_t{0});
  if (f.spec->graded != 0 && f.spec->graded < total) {
    // Seeded partial Fisher-Yates: a fixed-size sample of the run.
    for (size_t i = 0; i < f.spec->graded; ++i) {
      const size_t j = i + MixSeed(f.seed, kGradeStream, i) % (total - i);
      std::swap(graded[i], graded[j]);
    }
    graded.resize(f.spec->graded);
    std::sort(graded.begin(), graded.end());
  }
  std::vector<const float*> queries;
  std::vector<QueryAnswer> hints;
  for (size_t q : graded) {
    queries.push_back(log.queries.data(q));
    hints.push_back(log.answers[q]);
  }
  const std::vector<float> exact =
      ExactNearest(spec, queries, &hints, OracleThreads());
  std::vector<const float*> exact_of(total, nullptr);
  for (size_t i = 0; i < graded.size(); ++i) exact_of[graded[i]] = &exact[i];

  auto count_failures = [&](const std::vector<QueryAnswer>& answers) {
    size_t failed = 0;
    for (size_t q = 0; q < total; ++q) {
      if (!log.status_ok[q] ||
          !AnswerPasses(spec, log.queries.data(q), answers[q], exact_of[q])) {
        ++failed;
      }
    }
    return failed;
  };
  const size_t failed = count_failures(log.answers);

  // Self-check: one corrupted answer (the first graded one, pointed at the
  // next series) must raise failed_frac.
  *self_check_ok = false;
  if (!graded.empty()) {
    std::vector<QueryAnswer> corrupted = log.answers;
    QueryAnswer& victim = corrupted[graded[0]];
    if (victim.empty()) victim.push_back({});
    victim[0].id = static_cast<uint32_t>((victim[0].id + 1) % f.data.size());
    const size_t corrupted_failed = count_failures(corrupted);
    *self_check_ok = corrupted_failed > failed;
    std::printf("oracle: %zu of %zu answers graded exactly; self-check with "
                "one corrupted answer: failed_frac %.6f (%s)\n",
                graded.size(), total,
                static_cast<double>(corrupted_failed) / total,
                *self_check_ok ? "detected" : "NOT DETECTED");
  }
  return failed;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename Fn>
double MedianOf(const std::vector<SetupSample>& setups, Fn field) {
  std::vector<double> values;
  for (const SetupSample& s : setups) values.push_back(field(s));
  return Median(values);
}

std::vector<double> CallWallMs(const Log& log) {
  std::vector<double> wall_ms;
  for (const CallRecord& c : log.calls) wall_ms.push_back(c.wall * 1e3);
  return wall_ms;
}

/// The e2e statistics are taken over the calls of the steal windows in
/// which the rest of the host took no CPU time, or the least. Hypervisor
/// steal stalls whichever thread a call is waiting for: a single-query call
/// hands off between several threads within a millisecond or two, and
/// 10-20% steal was seen to double its median latency and triple its p99
/// (README.md, "Host noise"). The pick is every window without steal (to
/// /proc/stat's 10 ms resolution), grown in order of least steal share until
/// it holds a quarter of the windows and of the calls, and kMinPickedCalls
/// calls where the loop made four times that (its p99 then has >= 10 calls
/// beyond it). Ties go in an order that spreads the pick over the whole
/// loop: every fourth window first. A loop of fewer than kMinWindows
/// windows (the batch workload's dozen calls) uses every call.
constexpr size_t kMinWindows = 20;
constexpr size_t kMinPickedCalls = 1000;

struct CallPick {
  std::vector<size_t> calls;  ///< indices into Log::calls, ascending
  size_t windows = 0;         ///< windows picked
  double steal = 0.0;         ///< host steal share over the picked windows
};

CallPick PickQuietCalls(const Log& log) {
  const size_t total = log.calls.size();
  const size_t windows = log.window_first.size();
  std::vector<double> steal(windows), cpu(windows), share(windows);
  std::vector<size_t> end(windows);
  for (size_t w = 0; w < windows; ++w) {
    steal[w] = log.window_cpu[w + 1].first - log.window_cpu[w].first;
    cpu[w] = log.window_cpu[w + 1].second - log.window_cpu[w].second;
    share[w] = Ratio(steal[w], cpu[w]);
    end[w] = w + 1 < windows ? log.window_first[w + 1] : total;
  }
  std::vector<size_t> order(windows);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&share](size_t a, size_t b) {
    return std::make_tuple(share[a], a % 4, a) <
           std::make_tuple(share[b], b % 4, b);
  });
  const size_t wanted = windows < kMinWindows ? windows : (windows + 3) / 4;
  const size_t wanted_calls = std::max(
      (total + 3) / 4, total >= 4 * kMinPickedCalls ? kMinPickedCalls : 0);
  std::vector<size_t> picked;
  size_t picked_calls = 0;
  for (size_t w : order) {
    if (share[w] > 0.0 && picked.size() >= wanted &&
        picked_calls >= wanted_calls) {
      break;
    }
    picked.push_back(w);
    picked_calls += end[w] - log.window_first[w];
  }
  std::sort(picked.begin(), picked.end());
  CallPick pick;
  double picked_steal = 0.0, picked_cpu = 0.0;
  for (size_t w : picked) {
    for (size_t c = log.window_first[w]; c < end[w]; ++c) {
      pick.calls.push_back(c);
    }
    picked_steal += steal[w];
    picked_cpu += cpu[w];
  }
  pick.windows = picked.size();
  pick.steal = Ratio(picked_steal, picked_cpu);
  return pick;
}

std::vector<Metric> EndToEndMetrics(const Log& log,
                                    const std::vector<SetupSample>& setups) {
  const CallPick pick = PickQuietCalls(log);
  std::printf("e2e: %zu of %zu calls, from the %zu of %zu steal windows "
              "picked (%.1f%% steal in them)\n",
              pick.calls.size(), log.calls.size(), pick.windows,
              log.window_first.size(), 100.0 * pick.steal);
  std::vector<double> qps, wall_ms;
  for (size_t c : pick.calls) {
    const CallRecord& call = log.calls[c];
    qps.push_back(Ratio(static_cast<double>(call.queries),
                        call.report.query_seconds));
    wall_ms.push_back(call.wall * 1e3);
  }
  const size_t n = pick.calls.size();
  return {
      {"qps", Median(qps), "1/s", n},
      {"latency_p50_ms", Percentile(wall_ms, 50), "ms", n},
      {"latency_p99_ms", Percentile(wall_ms, 99), "ms", n},
      {"setup_s",
       MedianOf(setups, [](const SetupSample& s) { return s.seconds; }), "s",
       setups.size()},
      {"peak_rss_mb", PeakRssMiB(), "MiB", 1},
  };
}

/// core, net and executor metrics from the traced calls' own reports.
std::vector<Metric> ClusterLayerMetrics(const Log& traced,
                                        const std::vector<SetupSample>& setups,
                                        const OdysseyCluster& cluster) {
  std::vector<double> prepare_ms, schedule_ms, overhead_ms, imbalance;
  double queries = 0, steals = 0, attempts = 0, messages = 0, bsf = 0,
         steal_requests = 0, spawned = 0, summaries = 0;
  for (const CallRecord& c : traced.calls) {
    const BatchReport& r = c.report;
    prepare_ms.push_back(r.prepare_seconds * 1e3);
    schedule_ms.push_back(r.scheduling_seconds * 1e3);
    overhead_ms.push_back((c.wall - r.query_seconds) * 1e3);
    double busy_max = 0.0, busy_sum = 0.0;
    for (const odyssey::NodeBatchStats& s : r.node_stats) {
      busy_max = std::max(busy_max, s.busy_seconds);
      busy_sum += s.busy_seconds;
      steals += s.successful_steals;
      attempts += s.steal_attempts;
    }
    imbalance.push_back(
        Ratio(busy_max, busy_sum / static_cast<double>(r.node_stats.size())));
    queries += static_cast<double>(c.queries);
    messages += static_cast<double>(r.messages_sent);
    bsf += static_cast<double>(r.bsf_updates);
    steal_requests += static_cast<double>(r.steal_requests);
    spawned += static_cast<double>(c.threads_spawned);
    summaries += static_cast<double>(c.summaries);
  }
  const size_t calls = traced.calls.size();
  const size_t q = static_cast<size_t>(queries);
  const size_t n = setups.size();
  constexpr double kMiB = 1024.0 * 1024.0;
  return {
      {"core.prepare_ms", Median(prepare_ms), "ms", calls},
      {"core.schedule_ms", Median(schedule_ms), "ms", calls},
      {"core.call_overhead_ms", Median(overhead_ms), "ms", calls},
      {"core.busy_imbalance", Median(imbalance), "ratio", calls},
      {"core.steals_per_query", Ratio(steals, queries), "count", q},
      {"core.steal_success", Ratio(steals, attempts), "ratio",
       static_cast<size_t>(attempts)},
      {"core.ingest_s",
       MedianOf(setups, [](const SetupSample& s) { return s.ingest; }), "s", n},
      {"core.ingest_overlap_s",
       MedianOf(setups, [](const SetupSample& s) { return s.overlap; }), "s",
       n},
      {"core.partition_s",
       MedianOf(setups, [](const SetupSample& s) { return s.partition; }), "s",
       n},
      {"core.buffer_s",
       MedianOf(setups, [](const SetupSample& s) { return s.buffer; }), "s", n},
      {"core.tree_s",
       MedianOf(setups, [](const SetupSample& s) { return s.tree; }), "s", n},
      {"core.index_mb", static_cast<double>(cluster.total_index_bytes()) / kMiB,
       "MiB", 1},
      {"core.data_mb", static_cast<double>(cluster.total_data_bytes()) / kMiB,
       "MiB", 1},
      {"net.messages_per_query", Ratio(messages, queries), "count", q},
      {"net.bsf_updates_per_query", Ratio(bsf, queries), "count", q},
      {"net.steal_requests_per_query", Ratio(steal_requests, queries), "count",
       q},
      {"executor.threads_spawned_per_call",
       Ratio(spawned, static_cast<double>(calls)), "count", calls},
      {"query.summaries_per_query", Ratio(summaries, queries), "count", q},
  };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) out.push_back(spec.name);
    return out;
  }();
  return names;
}

bool RunWorkload(const RunOptions& run, RunOutcome* outcome,
                 std::string* error) {
  const Spec* spec = FindSpec(run.workload);
  if (spec == nullptr) {
    *error = "unknown workload " + run.workload;
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(run.work_dir, ec);

  Fixture fixture;
  // Removes the fixture archive however the run ends.
  struct RemoveArchive {
    const std::string& path;
    ~RemoveArchive() {
      std::error_code ignored;
      if (!path.empty()) std::filesystem::remove(path, ignored);
    }
  } remove_archive{fixture.archive};
  if (!PrepareFixture(*spec, run, &fixture, error)) return false;
  Tracer tracer(run.trace);
  Tracer untraced(false);

  // Set-up, several times; the last cluster answers the queries.
  std::vector<SetupSample> setups(static_cast<size_t>(spec->setups));
  std::unique_ptr<OdysseyCluster> cluster;
  for (SetupSample& sample : setups) {
    cluster.reset();
    cluster = SetUp(fixture, &tracer, &sample, error);
    if (cluster == nullptr) return false;
  }

  size_t next_call = 0;
  // One untimed warm-up call: the first batch pays one-time costs.
  RunCalls(*cluster, &fixture, &next_call, 0.0, 1, &untraced, nullptr);

  Log log;
  Log traced;
  const std::pair<double, double> cpu_before = CpuStealAndTotal();
  if (!run.trace) {
    RunCalls(*cluster, &fixture, &next_call, run.seconds, spec->min_calls,
             &untraced, &log);
  } else {
    const size_t half_min = std::max(kMinTracedCalls, spec->min_calls / 2);
    RunCalls(*cluster, &fixture, &next_call, run.seconds / 2, half_min,
             &untraced, &log);
    RunCalls(*cluster, &fixture, &next_call, run.seconds / 2, half_min,
             &tracer, &traced);
  }

  const std::pair<double, double> cpu_after = CpuStealAndTotal();
  std::printf("host: cpu steal %.1f%% of CPU time during the timed loop\n",
              100.0 * Ratio(cpu_after.first - cpu_before.first,
                            cpu_after.second - cpu_before.second));

  // Grade the untraced and traced halves as one log.
  const size_t untraced_queries = log.answers.size();
  for (size_t q = 0; q < traced.answers.size(); ++q) {
    log.queries.Append(traced.queries.data(q));
    log.answers.push_back(traced.answers[q]);
    log.status_ok.push_back(traced.status_ok[q]);
  }
  bool self_check_ok = false;
  outcome->attempted = log.answers.size();
  outcome->failed = Grade(fixture, log, &self_check_ok);
  outcome->correct = outcome->failed == 0 && self_check_ok;
  std::printf("%s seed %llu: %zu calls, %zu queries, failed_frac %.6f\n",
              spec->name, static_cast<unsigned long long>(run.seed),
              log.calls.size() + traced.calls.size(), outcome->attempted,
              Ratio(static_cast<double>(outcome->failed),
                    static_cast<double>(outcome->attempted)));

  if (!run.trace) {
    outcome->metrics = EndToEndMetrics(log, setups);
  } else {
    outcome->metrics = ClusterLayerMetrics(traced, setups, *cluster);
    LayerInputs inputs;
    inputs.cluster = cluster.get();
    for (size_t q = untraced_queries; q < log.answers.size(); ++q) {
      inputs.queries.push_back(log.queries.data(q));
    }
    inputs.archive = fixture.archive;
    inputs.budget_seconds = run.seconds / 4;
    for (Metric& m : MeasureLayers(inputs, &tracer, error)) {
      outcome->metrics.push_back(std::move(m));
    }
    if (!error->empty()) return false;

    const double untraced_ms = Median(CallWallMs(log));
    const double traced_ms = Median(CallWallMs(traced));
    outcome->metrics.push_back({"trace.overhead_ms", traced_ms - untraced_ms,
                                "ms", traced.calls.size()});
    const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
    for (const char* layer : {"core", "executor", "query", "index", "isax",
                              "distance", "dataset"}) {
      const auto it = self.find(layer);
      outcome->metrics.push_back({std::string(layer) + ".self_ms",
                                  it == self.end() ? 0.0 : it->second * 1e3,
                                  "ms", 1});
    }
    const std::string dump = run.work_dir + "/trace-" + spec->name + "-seed" +
                             std::to_string(run.seed) + ".json";
    if (!tracer.WriteChromeTrace(dump)) {
      *error = "cannot write " + dump;
      return false;
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                dump.c_str());
  }
  return true;
}

}  // namespace perfbench
