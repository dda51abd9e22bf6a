#include "src/isax/mindist.h"

#include <algorithm>
#include <limits>

namespace odyssey {
namespace {

/// Squared, count-weighted gap between value `q` and region [lo, hi]. At
/// most one of the two clamped differences is positive (lo <= hi), so the
/// sum is exactly that one; branch-free because MindistTable evaluates it
/// for every (level, segment, symbol).
inline double SegmentGapSq(double q, double lo, double hi, size_t count) {
  const double gap = std::max(lo - q, 0.0) + std::max(q - hi, 0.0);
  return static_cast<double>(count) * gap * gap;
}

/// Squared, count-weighted gap between the band [ql, qu] and region
/// [lo, hi]: positive only when the intervals are disjoint (ql <= qu and
/// lo <= hi, so again at most one clamped difference is positive).
inline double BandGapSq(double ql, double qu, double lo, double hi,
                        size_t count) {
  const double gap = std::max(lo - qu, 0.0) + std::max(ql - hi, 0.0);
  return static_cast<double>(count) * gap * gap;
}

}  // namespace

template <typename TermFn>
MindistTable MindistTable::Build(const IsaxConfig& config, const TermFn& term) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const BreakpointTable& breakpoints = BreakpointTable::Get();
  MindistTable table;
  table.segments_ = config.segments();
  table.max_bits_ = config.max_bits;
  const size_t w = static_cast<size_t>(config.segments());
  table.terms_.resize(w * ((size_t{2} << config.max_bits) - 2));
  double* out = table.terms_.data();
  // Region r at a level spans [edges[r], edges[r + 1]]: the level's
  // breakpoints framed by -inf and +inf, the edges RegionLower/RegionUpper
  // return.
  double edges[(1u << kMaxSaxBits) + 1];
  for (int bits = 1; bits <= config.max_bits; ++bits) {
    const std::vector<double>& bps = breakpoints.ForBits(bits);
    const uint32_t regions = 1u << bits;
    edges[0] = -kInfinity;
    std::copy(bps.begin(), bps.end(), edges + 1);
    edges[regions] = kInfinity;
    for (size_t i = 0; i < w; ++i) {
      const int segment = static_cast<int>(i);
      const size_t count = config.paa.SegmentCount(segment);
      for (uint32_t r = 0; r < regions; ++r) {
        *out++ = term(segment, edges[r], edges[r + 1], count);
      }
    }
  }
  return table;
}

MindistTable MindistTable::ForPaa(const double* query_paa,
                                  const IsaxConfig& config) {
  return Build(config, [query_paa](int i, double lo, double hi,
                                   size_t count) {
    return SegmentGapSq(query_paa[i], lo, hi, count);
  });
}

MindistTable MindistTable::ForEnvelope(const EnvelopePaa& env_paa,
                                       const IsaxConfig& config) {
  return Build(config, [&env_paa](int i, double lo, double hi,
                                  size_t count) {
    return BandGapSq(env_paa.lower[i], env_paa.upper[i], lo, hi, count);
  });
}

float MindistPaaToWord(const double* query_paa, const IsaxWord& word,
                       const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    const int bits = word.bits[i];
    const uint32_t symbol = word.symbols[i];
    sum += SegmentGapSq(query_paa[i], table.RegionLower(bits, symbol),
                        table.RegionUpper(bits, symbol),
                        config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

float MindistPaaToSax(const double* query_paa, const uint8_t* sax,
                      const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  const int bits = config.max_bits;
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    sum += SegmentGapSq(query_paa[i], table.RegionLower(bits, sax[i]),
                        table.RegionUpper(bits, sax[i]),
                        config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config) {
  EnvelopePaa out;
  out.upper = ComputePaa(envelope.upper.data(), config.paa);
  out.lower = ComputePaa(envelope.lower.data(), config.paa);
  return out;
}

float MindistEnvelopeToWord(const EnvelopePaa& env_paa, const IsaxWord& word,
                            const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    const int bits = word.bits[i];
    const uint32_t symbol = word.symbols[i];
    sum += BandGapSq(env_paa.lower[i], env_paa.upper[i],
                     table.RegionLower(bits, symbol),
                     table.RegionUpper(bits, symbol),
                     config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

float MindistEnvelopeToSax(const EnvelopePaa& env_paa, const uint8_t* sax,
                           const IsaxConfig& config) {
  const BreakpointTable& table = BreakpointTable::Get();
  const int bits = config.max_bits;
  double sum = 0.0;
  for (int i = 0; i < config.segments(); ++i) {
    sum += BandGapSq(env_paa.lower[i], env_paa.upper[i],
                     table.RegionLower(bits, sax[i]),
                     table.RegionUpper(bits, sax[i]),
                     config.paa.SegmentCount(i));
  }
  return static_cast<float>(sum);
}

}  // namespace odyssey
