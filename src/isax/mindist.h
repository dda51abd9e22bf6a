#ifndef ODYSSEY_ISAX_MINDIST_H_
#define ODYSSEY_ISAX_MINDIST_H_

#include <cstdint>
#include <vector>

#include "src/common/hotpath.h"
#include "src/distance/lb_keogh.h"
#include "src/isax/isax_word.h"

namespace odyssey {

/// Lower-bound ("mindist") distances between a query and iSAX summaries.
/// All results are squared, consistent with the distance kernels, and are
/// guaranteed <= the squared Euclidean (resp. DTW) distance between the
/// query and ANY series summarized by the word — the invariant that makes
/// pruning exact.

/// The four Mindist* functions below are the reference definitions of the
/// bounds. The query path evaluates them through a per-query MindistTable
/// (further down), which returns the same floats bit for bit.

/// Squared lower bound between a query PAA and a variable-cardinality iSAX
/// word. Per segment: the gap between the query's PAA value and the
/// breakpoint region of the word's symbol, squared, weighted by the
/// segment's point count.
float MindistPaaToWord(const double* query_paa, const IsaxWord& word,
                       const IsaxConfig& config);

/// Squared lower bound between a query PAA and a full-cardinality SAX
/// summary (a leaf's per-series summary; the tightest summary-level filter
/// applied before computing a real distance).
float MindistPaaToSax(const double* query_paa, const uint8_t* sax,
                      const IsaxConfig& config);

/// Per-segment PAA of a DTW warping envelope: means of the upper and lower
/// envelope over each segment. Precomputed once per query.
struct EnvelopePaa {
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Builds the per-segment envelope PAA.
EnvelopePaa ComputeEnvelopePaa(const Envelope& envelope,
                               const IsaxConfig& config);

/// Squared DTW lower bound between a query envelope (segment-level) and an
/// iSAX word: a segment contributes only when the word's whole breakpoint
/// region lies outside the envelope band (LB_PAA of Keogh & Ratanamahatana
/// lifted to iSAX regions). Guaranteed <= squared LB_Keogh <= squared DTW.
float MindistEnvelopeToWord(const EnvelopePaa& env_paa, const IsaxWord& word,
                            const IsaxConfig& config);

/// Same bound against a full-cardinality SAX summary.
float MindistEnvelopeToSax(const EnvelopePaa& env_paa, const uint8_t* sax,
                           const IsaxConfig& config);

/// Every per-segment term one query's bounds can need, computed once per
/// query: for each bit depth b in 1..max_bits, each segment i and each b-bit
/// symbol r, the entry is the reference functions' per-segment term for
/// (i, b, r) — `count(i) * gap(value, region(b, r))^2`, with the query's PAA
/// value (ForPaa) or its envelope band (ForEnvelope). A bound is then the
/// segment-ordered double sum of one lookup per segment, cast to float: the
/// same expression summed in the same order as the reference function, so
/// ToWord/ToSax equal MindistPaaTo{Word,Sax} (resp. MindistEnvelopeTo{Word,
/// Sax}) bit for bit and pruning decisions cannot change.
///
/// Layout: level-major. Level b is a segments x 2^b block starting at
/// segments * (2^b - 2); segment i's row in it starts i * 2^b further. A
/// table holds segments * (2^(max_bits+1) - 2) doubles: 16 segments x 510
/// = 64 KiB at 8 bits, of which the max-bits level the per-series filter
/// reads is the last, contiguous 32 KiB.
class MindistTable {
 public:
  /// An empty table (no lookups allowed); a slot to assign a built one into.
  MindistTable() = default;

  /// Table of MindistPaaToWord / MindistPaaToSax terms for `query_paa`.
  static MindistTable ForPaa(const double* query_paa, const IsaxConfig& config);
  /// Table of MindistEnvelopeToWord / MindistEnvelopeToSax terms.
  static MindistTable ForEnvelope(const EnvelopePaa& env_paa,
                                  const IsaxConfig& config);

  int max_bits() const { return max_bits_; }

  /// The bound against a variable-cardinality word (every word.bits[i] in
  /// 1..max_bits, as on every index node).
  ODYSSEY_HOT float ToWord(const IsaxWord& word) const {
    const size_t w = static_cast<size_t>(segments_);
    double sum = 0.0;
    for (size_t i = 0; i < w; ++i) {
      // Row start of (level bits, segment i): (w + i) * 2^bits - 2w.
      sum += terms_[((w + i) << word.bits[i]) - 2 * w + word.symbols[i]];
    }
    return static_cast<float>(sum);
  }

  /// The bound against a full-cardinality SAX row (max_bits-bit symbols).
  ODYSSEY_HOT float ToSax(const uint8_t* sax) const {
    const size_t w = static_cast<size_t>(segments_);
    const double* level = terms_.data() + ((w << max_bits_) - 2 * w);
    double sum = 0.0;
    for (size_t i = 0; i < w; ++i) sum += level[(i << max_bits_) + sax[i]];
    return static_cast<float>(sum);
  }

 private:
  /// Fills one entry per (level, segment, symbol) with
  /// `term(segment, lo, hi, count)`; defined (and instantiated) in
  /// mindist.cc only.
  template <typename TermFn>
  static MindistTable Build(const IsaxConfig& config, const TermFn& term);

  int segments_ = 0;
  int max_bits_ = 0;
  std::vector<double> terms_;
};

}  // namespace odyssey

#endif  // ODYSSEY_ISAX_MINDIST_H_
