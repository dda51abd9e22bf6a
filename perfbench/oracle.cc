#include "perfbench/oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lb_keogh.h"

namespace perfbench {
namespace {

/// Series per cache block of the Euclidean scan: 512 x 1 KiB stays in L2
/// while every query passes over it.
constexpr size_t kBlockSeries = 512;

/// The library and the oracle call the same kernels, but a scan path may
/// sum in another order; this absorbs that rounding and nothing larger.
bool Close(float a, float b) {
  return std::fabs(a - b) <= 1e-4f * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-5f;
}

/// Squared distance between `query` and series `id` under the spec.
float PairDistance(const OracleSpec& spec, const float* query, uint32_t id) {
  const odyssey::SeriesCollection& data = *spec.data;
  return spec.dtw ? odyssey::SquaredDtw(query, data.data(id), data.length(),
                                        spec.dtw_window)
                  : odyssey::SquaredEuclidean(query, data.data(id),
                                              data.length());
}

/// Runs fn(t) on `threads` threads and joins them all.
template <typename Fn>
void RunThreads(int threads, const Fn& fn) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& thread : pool) thread.join();
}

std::vector<float> EuclideanNearest(const odyssey::SeriesCollection& data,
                                    const std::vector<const float*>& queries,
                                    int threads) {
  const size_t n = data.size();
  const size_t length = data.length();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> partial(
      static_cast<size_t>(threads), std::vector<float>(queries.size(), inf));
  RunThreads(threads, [&](int t) {
    std::vector<float>& best = partial[static_cast<size_t>(t)];
    const size_t begin = n * static_cast<size_t>(t) / threads;
    const size_t end = n * static_cast<size_t>(t + 1) / threads;
    for (size_t block = begin; block < end; block += kBlockSeries) {
      const size_t block_end = std::min(end, block + kBlockSeries);
      for (size_t q = 0; q < queries.size(); ++q) {
        float b = best[q];
        for (size_t s = block; s < block_end; ++s) {
          b = std::min(b, odyssey::SquaredEuclidean(queries[q], data.data(s),
                                                    length));
        }
        best[q] = b;
      }
    }
  });
  std::vector<float> result(queries.size(), inf);
  for (const auto& best : partial) {
    for (size_t q = 0; q < queries.size(); ++q) {
      result[q] = std::min(result[q], best[q]);
    }
  }
  return result;
}

std::vector<float> DtwNearest(const OracleSpec& spec,
                              const std::vector<const float*>& queries,
                              const std::vector<odyssey::QueryAnswer>* hints,
                              int threads) {
  const odyssey::SeriesCollection& data = *spec.data;
  std::vector<float> result(queries.size());
  std::atomic<size_t> next{0};
  RunThreads(threads, [&](int) {
    for (size_t q = next.fetch_add(1); q < queries.size();
         q = next.fetch_add(1)) {
      const float* query = queries[q];
      const odyssey::Envelope envelope =
          odyssey::BuildEnvelope(query, data.length(), spec.dtw_window);
      // A real distance (the hinted series') is an upper bound on the
      // nearest one, so seeding the pruning bound with it loses nothing.
      float best = std::numeric_limits<float>::infinity();
      if (hints != nullptr && !(*hints)[q].empty() &&
          (*hints)[q][0].id < data.size()) {
        best = PairDistance(spec, query, (*hints)[q][0].id);
      }
      for (size_t s = 0; s < data.size(); ++s) {
        // Slack on the bound keeps float rounding in LB_Keogh from
        // pruning a tie.
        const float bound = best * (1.0f + 1e-5f);
        if (odyssey::SquaredLbKeogh(envelope, data.data(s)) > bound) continue;
        best = std::min(best, odyssey::SquaredDtwEarlyAbandon(
                                  query, data.data(s), data.length(),
                                  spec.dtw_window, bound));
      }
      result[q] = best;
    }
  });
  return result;
}

}  // namespace

std::vector<float> ExactNearest(const OracleSpec& spec,
                                const std::vector<const float*>& queries,
                                const std::vector<odyssey::QueryAnswer>* hints,
                                int threads) {
  threads = std::max(1, threads);
  return spec.dtw ? DtwNearest(spec, queries, hints, threads)
                  : EuclideanNearest(*spec.data, queries, threads);
}

bool AnswerPasses(const OracleSpec& spec, const float* query,
                  const odyssey::QueryAnswer& answer, const float* exact) {
  if (answer.size() != 1 || answer[0].id >= spec.data->size()) return false;
  const float actual = PairDistance(spec, query, answer[0].id);
  if (!Close(answer[0].squared_distance, actual)) return false;
  return exact == nullptr || Close(actual, *exact);
}

}  // namespace perfbench
