#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/baselines/dmessi.h"
#include "src/baselines/dpisax.h"
#include "src/core/driver.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/distance/dtw.h"
#include "tests/testing_utils.h"

namespace odyssey {
namespace {

using testing_utils::BruteForceKnn;
using testing_utils::BruteForceKnnDtw;
using testing_utils::NearlyEqual;

IndexOptions TestIndexOptions(size_t length = 64) {
  IndexOptions options;
  options.config = IsaxConfig(length, 8);
  options.leaf_capacity = 32;
  return options;
}

void ExpectAnswersMatchBruteForce(const SeriesCollection& data,
                                  const SeriesCollection& queries,
                                  const BatchReport& report, int k,
                                  const std::string& label) {
  ASSERT_EQ(report.answers.size(), queries.size()) << label;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.data(q), k);
    const QueryAnswer& got = report.answers[q];
    ASSERT_EQ(got.size(), expected.size()) << label << " query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(NearlyEqual(got[i].squared_distance,
                              expected[i].squared_distance))
          << label << " query " << q << " rank " << i << ": got "
          << got[i].squared_distance << " want "
          << expected[i].squared_distance;
    }
  }
}

// ----------------------------------------------------------- MergeAnswers

TEST(MergeAnswersTest, DeduplicatesByIdKeepingBestDistance) {
  const std::vector<Neighbor> candidates = {
      {5.0f, 1}, {3.0f, 2}, {4.0f, 1}, {1.0f, 3}, {2.0f, 2}};
  const QueryAnswer merged = MergeAnswers(candidates, 10);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 3u);
  EXPECT_EQ(merged[0].squared_distance, 1.0f);
  EXPECT_EQ(merged[1].id, 2u);
  EXPECT_EQ(merged[1].squared_distance, 2.0f);
  EXPECT_EQ(merged[2].id, 1u);
  EXPECT_EQ(merged[2].squared_distance, 4.0f);
}

TEST(MergeAnswersTest, TruncatesToK) {
  std::vector<Neighbor> candidates;
  for (uint32_t i = 0; i < 20; ++i) {
    candidates.push_back({static_cast<float>(i), i});
  }
  EXPECT_EQ(MergeAnswers(candidates, 5).size(), 5u);
  EXPECT_TRUE(MergeAnswers({}, 5).empty());
}

// ------------------------------------------------- Distributed exactness

struct ClusterCase {
  const char* name;
  int nodes;
  int groups;
  SchedulingPolicy policy;
  bool worksteal;
  PartitioningScheme partitioning;
};

class DistributedExactnessTest : public ::testing::TestWithParam<ClusterCase> {
};

TEST_P(DistributedExactnessTest, MatchesBruteForce) {
  const ClusterCase param = GetParam();
  const SeriesCollection data = GenerateSeismicLike(2400, 64, 51);
  WorkloadOptions wl;
  wl.count = 16;
  wl.min_noise = 0.1;
  wl.max_noise = 2.5;
  wl.seed = 53;
  const SeriesCollection queries = GenerateQueries(data, wl);

  OdysseyOptions options;
  options.num_nodes = param.nodes;
  options.num_groups = param.groups;
  options.partitioning = param.partitioning;
  options.index_options = TestIndexOptions();
  options.build_threads_per_node = 2;
  options.scheduling = param.policy;
  options.worksteal.enabled = param.worksteal;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, param.name);
  EXPECT_GT(report.query_seconds, 0.0);
  EXPECT_EQ(report.node_stats.size(), static_cast<size_t>(param.nodes));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributedExactnessTest,
    ::testing::Values(
        ClusterCase{"n1_full_static", 1, 1, SchedulingPolicy::kStatic, false,
                    PartitioningScheme::kEquallySplit},
        ClusterCase{"n2_full_dynamic_ws", 2, 1, SchedulingPolicy::kDynamic,
                    true, PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_full_predictdn_ws", 4, 1,
                    SchedulingPolicy::kPredictDynamic, true,
                    PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_full_predictst", 4, 1, SchedulingPolicy::kPredictStatic,
                    false, PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_full_predictst_unsorted", 4, 1,
                    SchedulingPolicy::kPredictStaticUnsorted, false,
                    PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_partial2_predictdn_ws", 4, 2,
                    SchedulingPolicy::kPredictDynamic, true,
                    PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_split_static", 4, 4, SchedulingPolicy::kStatic, false,
                    PartitioningScheme::kEquallySplit},
        ClusterCase{"n4_split_densityaware", 4, 4, SchedulingPolicy::kStatic,
                    false, PartitioningScheme::kDensityAware},
        ClusterCase{"n4_partial2_shuffle_ws", 4, 2,
                    SchedulingPolicy::kPredictDynamic, true,
                    PartitioningScheme::kRandomShuffle},
        ClusterCase{"n6_partial3_dynamic_ws", 6, 3, SchedulingPolicy::kDynamic,
                    true, PartitioningScheme::kDensityAware}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DistributedKnnTest, TenNnMatchesBruteForceAcrossReplication) {
  const SeriesCollection data = GenerateRandomWalk(1600, 64, 55);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.5, 57);
  for (int groups : {1, 2, 4}) {
    OdysseyOptions options;
    options.num_nodes = 4;
    options.num_groups = groups;
    options.index_options = TestIndexOptions();
    options.build_threads_per_node = 2;
    options.query_options.num_threads = 2;
    options.query_options.k = 10;
    OdysseyCluster cluster(data, options);
    const BatchReport report = cluster.AnswerBatch(queries);
    ExpectAnswersMatchBruteForce(data, queries, report, 10,
                                 "PARTIAL-" + std::to_string(groups));
  }
}

TEST(DistributedDtwTest, MatchesBruteForceDtw) {
  const SeriesCollection data = GenerateSeismicLike(900, 64, 59);
  const SeriesCollection queries = GenerateUniformQueries(data, 6, 1.0, 61);
  const size_t window = WarpingWindowFromFraction(64, 0.05);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.build_threads_per_node = 2;
  options.query_options.num_threads = 2;
  options.query_options.use_dtw = true;
  options.query_options.dtw_window = window;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  ASSERT_EQ(report.answers.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnnDtw(data, queries.data(q), 1, window);
    ASSERT_EQ(report.answers[q].size(), 1u);
    EXPECT_TRUE(NearlyEqual(report.answers[q][0].squared_distance,
                            expected[0].squared_distance))
        << "query " << q;
  }
}

TEST(DistributedTest, ReusingClusterAcrossBatchesStaysExact) {
  const SeriesCollection data = GenerateRandomWalk(1200, 64, 63);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  for (uint64_t seed : {65u, 67u, 69u}) {
    const SeriesCollection queries =
        GenerateUniformQueries(data, 5, 1.0, seed);
    const BatchReport report = cluster.AnswerBatch(queries);
    ExpectAnswersMatchBruteForce(data, queries, report, 1,
                                 "batch seed " + std::to_string(seed));
  }
}

TEST(DistributedTest, NonFiniteQueriesAreRefusedBeforeDispatch) {
  // A NaN defeats every bound comparison, so a NaN query would come back
  // with a fabricated neighbour. Batch and stream calls refuse the whole
  // call, naming the query, and the cluster keeps answering valid batches
  // afterwards.
  const SeriesCollection data = GenerateRandomWalk(800, 64, 71);
  OdysseyOptions options;
  options.num_nodes = 2;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  const SeriesCollection clean = GenerateUniformQueries(data, 4, 1.0, 73);
  const std::vector<double> arrivals(clean.size(), 0.0);
  for (const float bad : {std::nanf(""), INFINITY, -INFINITY}) {
    SeriesCollection queries = clean;
    queries.mutable_data(2)[17] = bad;
    const std::string label = "value " + std::to_string(bad);
    for (const BatchReport& report :
         {cluster.AnswerBatch(queries), cluster.AnswerStream(queries, arrivals)}) {
      EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument) << label;
      EXPECT_NE(report.status.message().find("query 2"), std::string::npos)
          << label << ": " << report.status.ToString();
      EXPECT_EQ(report.messages_sent, 0u) << label;
      ASSERT_EQ(report.answers.size(), queries.size()) << label;
      for (const QueryAnswer& answer : report.answers) {
        EXPECT_TRUE(answer.empty()) << label;
      }
    }
  }
  const BatchReport report = cluster.AnswerBatch(clean);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ExpectAnswersMatchBruteForce(data, clean, report, 1, "after refusals");
}

TEST(DistributedTest, WorkStealingActuallyHappensOnSkewedBatch) {
  // A batch whose last queries are much harder than the rest, dispatched
  // un-sorted (plain DYNAMIC): the early-finishing nodes must steal.
  const SeriesCollection data = GenerateSeismicLike(6000, 64, 71);
  SeriesCollection queries(64);
  {
    const SeriesCollection easy = GenerateUniformQueries(data, 12, 0.05, 73);
    WorkloadOptions hard_wl;
    hard_wl.count = 2;
    hard_wl.unrelated_fraction = 1.0;
    hard_wl.seed = 75;
    const SeriesCollection hard = GenerateQueries(data, hard_wl);
    for (size_t i = 0; i < easy.size(); ++i) queries.Append(easy.data(i));
    for (size_t i = 0; i < hard.size(); ++i) queries.Append(hard.data(i));
  }
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;  // FULL: everyone can steal from everyone
  options.index_options = TestIndexOptions();
  options.build_threads_per_node = 2;
  options.scheduling = SchedulingPolicy::kDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 1;
  options.query_options.num_batches = 16;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "skewed");
  EXPECT_GT(report.steal_requests, 0u);
}

TEST(DistributedTest, ReportAccountsForIndexAndMemory) {
  const SeriesCollection data = GenerateRandomWalk(1000, 64, 77);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  OdysseyCluster cluster(data, options);
  EXPECT_GE(cluster.partition_seconds(), 0.0);
  EXPECT_GT(cluster.index_seconds(), 0.0);
  EXPECT_GT(cluster.total_index_bytes(), 0u);
  // PARTIAL-2 over 4 nodes stores the dataset twice.
  const size_t raw = data.size() * 64 * sizeof(float);
  EXPECT_GE(cluster.total_data_bytes(), 2 * raw);
  EXPECT_LT(cluster.total_data_bytes(), 3 * raw);
}

TEST(DistributedTest, ReplicationDegreeScalesStoredData) {
  const SeriesCollection data = GenerateRandomWalk(800, 64, 79);
  size_t previous = 0;
  for (int groups : {4, 2, 1}) {  // increasing replication
    OdysseyOptions options;
    options.num_nodes = 4;
    options.num_groups = groups;
    options.index_options = TestIndexOptions();
    OdysseyCluster cluster(data, options);
    EXPECT_GT(cluster.total_data_bytes(), previous);
    previous = cluster.total_data_bytes();
  }
}

TEST(DistributedTest, ThresholdAndCostModelsIntegrate) {
  const SeriesCollection data = GenerateSeismicLike(2000, 64, 81);
  const SeriesCollection train = GenerateUniformQueries(data, 12, 1.5, 83);
  // Calibrate both models on a single-node index.
  const Index probe = Index::Build(SeriesCollection(data), TestIndexOptions());
  QueryOptions calib_options;
  calib_options.num_threads = 2;
  const auto samples = CollectCalibrationSamples(probe, train, calib_options);
  std::vector<double> bsf, secs, sizes;
  for (const auto& s : samples) {
    bsf.push_back(s.initial_bsf);
    secs.push_back(s.exec_seconds);
    sizes.push_back(s.median_pq_size);
  }
  CostModel cost_model;
  ASSERT_TRUE(cost_model.Fit(bsf, secs).ok());
  ThresholdModel threshold_model;
  ASSERT_TRUE(threshold_model.Calibrate(bsf, sizes).ok());

  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kPredictDynamic;
  options.cost_model = &cost_model;
  options.threshold_model = &threshold_model;
  options.query_options.num_threads = 2;
  OdysseyCluster cluster(data, options);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 85);
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "with models");
}

// ---------------------------------------------------------------- Baselines

TEST(BaselinesTest, DMessiMatchesBruteForce) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 87);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 89);
  QueryOptions qo;
  qo.num_threads = 2;
  OdysseyCluster cluster(
      data, MakeDMessiOptions(4, TestIndexOptions(), qo, /*swbsf=*/false));
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "DMESSI");
  // DMESSI exchanges no BSF messages.
  EXPECT_EQ(report.bsf_updates, 0u);
  EXPECT_EQ(report.steal_requests, 0u);
}

TEST(BaselinesTest, DMessiSwBsfMatchesBruteForceAndShares) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 91);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 93);
  QueryOptions qo;
  qo.num_threads = 2;
  OdysseyCluster cluster(
      data, MakeDMessiOptions(4, TestIndexOptions(), qo, /*swbsf=*/true));
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "DMESSI-SW-BSF");
  EXPECT_GT(report.bsf_updates, 0u);
}

TEST(BaselinesTest, DpisaxPartitionIsValidAndSkewed) {
  const SeriesCollection data = GenerateEmbeddingLike(2000, 64, 8, 95);
  const IsaxConfig config(64, 8);
  const auto chunks = DpisaxPartition(data, 4, config, 0.2, 97);
  ASSERT_EQ(chunks.size(), 4u);
  std::set<uint32_t> seen;
  for (const auto& chunk : chunks) {
    EXPECT_FALSE(chunk.empty());
    for (uint32_t id : chunk) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), data.size());
}

TEST(DistributedTest, StealAccountingIsConsistent) {
  // Every RS-batch a victim gives away is run by exactly one thief: the
  // cluster-wide given-away and stolen-run counters must match.
  const SeriesCollection data = GenerateSeismicLike(4000, 64, 161);
  SeriesCollection queries(64);
  {
    const SeriesCollection easy = GenerateUniformQueries(data, 10, 0.05, 163);
    WorkloadOptions hard_wl;
    hard_wl.count = 2;
    hard_wl.unrelated_fraction = 1.0;
    hard_wl.seed = 165;
    const SeriesCollection hard = GenerateQueries(data, hard_wl);
    for (size_t i = 0; i < easy.size(); ++i) queries.Append(easy.data(i));
    for (size_t i = 0; i < hard.size(); ++i) queries.Append(hard.data(i));
  }
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 1;
  options.index_options = TestIndexOptions();
  options.scheduling = SchedulingPolicy::kDynamic;
  options.worksteal.enabled = true;
  options.query_options.num_threads = 1;
  options.query_options.num_batches = 16;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  int given = 0, run = 0, succeeded = 0, attempted = 0;
  for (const auto& stats : report.node_stats) {
    given += stats.batches_given_away;
    run += stats.batches_stolen_run;
    succeeded += stats.successful_steals;
    attempted += stats.steal_attempts;
  }
  EXPECT_EQ(given, run);
  EXPECT_LE(succeeded, attempted);
  EXPECT_EQ(report.steal_requests, static_cast<size_t>(attempted));
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "steal accounting");
}

TEST(DistributedTest, NoRawSeriesEverCrossTheWire) {
  // Structural audit of the "no data moves" claim: the only message type
  // that carries payload beyond scalars is kLocalAnswer (distance, id)
  // pairs and kStealReply (batch ids) — both O(1) per entry, independent
  // of the series length. Run a steal-heavy batch and check the message
  // counters exist for exactly the protocol's types.
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 167);
  const SeriesCollection queries = GenerateUniformQueries(data, 8, 1.5, 169);
  OdysseyOptions options;
  options.num_nodes = 4;
  options.num_groups = 2;
  options.index_options = TestIndexOptions();
  options.worksteal.enabled = true;
  OdysseyCluster cluster(data, options);
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "wire audit");
  // Messages were exchanged, and the Message struct itself cannot carry a
  // float* or SeriesCollection — checked at compile time by its definition;
  // here we just confirm the protocol actually ran.
  EXPECT_GT(report.messages_sent, 0u);
}

TEST(PartitioningTest, DensityAwareRebalancesPathologicalSkew) {
  // Every series identical => a single summarization buffer. Step 6 of the
  // DENSITY-AWARE flowchart must still spread the load across chunks.
  SeriesCollection data(64);
  const SeriesCollection seeded = GenerateRandomWalk(1, 64, 171);
  for (int i = 0; i < 1000; ++i) data.Append(seeded.data(0));
  const IsaxConfig config(64, 8);
  DensityAwareOptions density;
  density.lambda = 0;  // disable pre-splitting: force the rebalancing path
  const auto chunks =
      PartitionSeries(data, 4, PartitioningScheme::kDensityAware, config, 173,
                      nullptr, density);
  size_t total = 0;
  for (const auto& chunk : chunks) {
    EXPECT_GT(chunk.size(), 100u);  // no starving chunk
    total += chunk.size();
  }
  EXPECT_EQ(total, 1000u);
}

TEST(BaselinesTest, DpisaxMatchesBruteForce) {
  const SeriesCollection data = GenerateSeismicLike(1500, 64, 99);
  const SeriesCollection queries = GenerateUniformQueries(data, 10, 1.5, 101);
  QueryOptions qo;
  qo.num_threads = 2;
  OdysseyCluster cluster(
      data, MakeDpisaxOptions(data, 4, TestIndexOptions(), qo));
  const BatchReport report = cluster.AnswerBatch(queries);
  ExpectAnswersMatchBruteForce(data, queries, report, 1, "DPiSAX");
}

}  // namespace
}  // namespace odyssey
