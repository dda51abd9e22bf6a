#ifndef ODYSSEY_PERFBENCH_PERFBENCH_H_
#define ODYSSEY_PERFBENCH_PERFBENCH_H_

// Shared vocabulary of the end-to-end benchmark: the cluster shape every
// workload runs on, named metrics, clocks, seeds and order statistics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Cluster shape of every workload: 2 nodes x 2 query workers, each node
/// building with 2 threads — one compute thread per core on a 4-core host.
inline constexpr int kNodes = 2;
inline constexpr int kWorkersPerNode = 2;
/// Series length of every workload (points).
inline constexpr size_t kLength = 256;
/// iSAX segments of every index (the MESSI geometry the library's benches
/// and examples use).
inline constexpr int kSegments = 16;

/// One reported number. `samples` is how many measurements the value
/// summarizes (1 for counts and single timings).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Derives an independent 64-bit seed for (stream, index) from the
/// workload seed (splitmix64 finalizer over the combined words), so every
/// generated input is a pure function of the command-line seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xc2b2ae3d27d4eb4fULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of nothing).
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace perfbench

#endif  // ODYSSEY_PERFBENCH_PERFBENCH_H_
