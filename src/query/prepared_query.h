#ifndef ODYSSEY_QUERY_PREPARED_QUERY_H_
#define ODYSSEY_QUERY_PREPARED_QUERY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/sync.h"
#include "src/dataset/series_collection.h"
#include "src/distance/lb_keogh.h"
#include "src/isax/isax_word.h"
#include "src/isax/mindist.h"

namespace odyssey {

class ThreadPool;

/// Immutable per-query summaries, computed once and shared by every
/// consumer of the query-answering path (Figure 3, stages 3-5): the
/// scheduler's execution-time estimation, every replica's execution, and
/// stolen-work runs on thief nodes. Holds the query's PAA, its
/// full-cardinality SAX word, the root-level MindistTable of its PAA bounds
/// and — when built for DTW — the Sakoe-Chiba envelope and its per-segment
/// PAA.
///
/// The full-width MindistTable every node and series bound of the exact
/// search reads (64 KiB at 16 segments x 8 bits: PAA bounds for ED,
/// envelope bounds for DTW) is not kept for the query's lifetime:
/// AcquireBounds builds it on first request and every concurrent execution
/// of the query (replicas, stolen work, grouped members) shares that one
/// build. It is freed when the last of them drops it, so a batch holds
/// tables only for the queries in flight, not for all of them.
///
/// A PreparedQuery does not own the raw series; the underlying
/// SeriesCollection must outlive it (NodeRuntime already requires the query
/// batch to outlive the batch run, so this adds no new constraint).
class PreparedQuery {
 public:
  /// Empty summary; only useful as a slot to assign a real one into.
  PreparedQuery() = default;

  /// Builds the summaries of `series` under `config`. With
  /// `build_dtw_envelope`, additionally builds the warping envelope for
  /// `dtw_window` and its PAA (required by DTW executions).
  static PreparedQuery Prepare(const float* series, const IsaxConfig& config,
                               bool build_dtw_envelope = false,
                               size_t dtw_window = 0);

  const float* series() const { return series_; }
  size_t length() const { return length_; }
  int segments() const { return static_cast<int>(sax_.size()); }

  /// Segment means (segments() doubles).
  const double* paa() const { return paa_.data(); }
  /// Full-cardinality SAX word (segments() bytes).
  const uint8_t* sax() const { return sax_.data(); }
  /// The 1-bit level of MindistPaaToWord's terms (2 x segments() doubles):
  /// bounds root words only, for approximate search's root fallback.
  const MindistTable& root_bounds() const { return root_bounds_; }

  bool has_envelope() const { return has_envelope_; }
  /// Warping window the envelope was built for (0 without an envelope).
  size_t dtw_window() const { return dtw_window_; }
  const Envelope& envelope() const;

  /// The full-width bound table of exact search under the query's distance:
  /// the terms of MindistEnvelopeTo{Word,Sax} when prepared with a DTW
  /// envelope, of MindistPaaTo{Word,Sax} otherwise. Returns the table a
  /// concurrent holder already has, else builds it. Thread-safe.
  std::shared_ptr<const MindistTable> AcquireBounds() const;

 private:
  /// The shared table of AcquireBounds; it expires with its last holder.
  struct BoundsSlot {
    Mutex mu;
    std::weak_ptr<const MindistTable> table ODYSSEY_GUARDED_BY(mu);
  };

  const float* series_ = nullptr;
  size_t length_ = 0;
  size_t dtw_window_ = 0;
  bool has_envelope_ = false;
  IsaxConfig config_;
  std::vector<double> paa_;
  std::vector<uint8_t> sax_;
  MindistTable root_bounds_;
  Envelope envelope_;        // DTW only
  EnvelopePaa envelope_paa_;  // DTW only
  std::unique_ptr<BoundsSlot> bounds_slot_;
};

/// The prepared form of one query batch: one PreparedQuery per query, built
/// either up front (Prepare, optionally across a thread pool) or
/// incrementally (Allocate + Admit — the online-stream path, where each
/// query is summarized at its arrival time) and shared — by reference —
/// across scheduling estimates, all replicas, and work-stealing thieves.
/// This turns the former O(replicas x retries) summarization cost into O(1)
/// per query per batch.
class PreparedBatch {
 public:
  PreparedBatch() = default;

  // Movable despite the atomic admission counter (moves happen only at
  // build/return time, never concurrently with admission).
  PreparedBatch(PreparedBatch&& other) noexcept
      : queries_(std::move(other.queries_)),
        admitted_(other.admitted_.load(std::memory_order_relaxed)) {}
  PreparedBatch& operator=(PreparedBatch&& other) noexcept {
    queries_ = std::move(other.queries_);
    admitted_.store(other.admitted_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }

  /// Prepares every query of `queries`. When `pool` is non-null the
  /// per-query work is spread over the pool's workers (summaries are
  /// independent, so the result is identical to the serial build).
  static PreparedBatch Prepare(const SeriesCollection& queries,
                               const IsaxConfig& config,
                               bool build_dtw_envelope = false,
                               size_t dtw_window = 0,
                               ThreadPool* pool = nullptr);

  /// Allocates `count` empty slots for online admission (AnswerStream):
  /// slot q is later filled in place by Admit at query q's arrival time.
  /// Slots never reallocate, so admission on a prep thread is safe while
  /// earlier queries execute; a slot must not be read before its admission
  /// (readers are synchronized externally — the coordinator dispatches a
  /// query only after admitting it, and dispatch messages order the
  /// memory).
  static PreparedBatch Allocate(size_t count);

  /// Prepares slot `i` in place (the incremental form of Prepare's loop).
  /// Thread-safe for distinct slots. Returns the admitted count so far.
  size_t Admit(size_t i, const float* series, const IsaxConfig& config,
               bool build_dtw_envelope = false, size_t dtw_window = 0);

  /// Number of slots admitted so far (== size() after Prepare).
  size_t admitted() const {
    return admitted_.load(std::memory_order_acquire);
  }

  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  const PreparedQuery& query(size_t i) const;

 private:
  std::vector<PreparedQuery> queries_;
  std::atomic<size_t> admitted_{0};
};

}  // namespace odyssey

#endif  // ODYSSEY_QUERY_PREPARED_QUERY_H_
