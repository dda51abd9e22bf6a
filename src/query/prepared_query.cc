#include "src/query/prepared_query.h"

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace odyssey {

PreparedQuery PreparedQuery::Prepare(const float* series,
                                     const IsaxConfig& config,
                                     bool build_dtw_envelope,
                                     size_t dtw_window) {
  ODYSSEY_CHECK(series != nullptr);
  PreparedQuery out;
  out.series_ = series;
  out.length_ = config.series_length();
  out.paa_.resize(config.segments());
  ComputePaa(series, config.paa, out.paa_.data());
  out.sax_.resize(config.segments());
  // The SAX word is quantized from the PAA just computed, so preparing a
  // query costs exactly one PAA pass (the counters in summary_stats rely on
  // this).
  ComputeSaxFromPaa(out.paa_.data(), config, out.sax_.data());
  out.config_ = config;
  // Approximate search bounds root words only, and level 1 sits first in a
  // table of any width, so a 1-bit table gives those bounds bit for bit.
  out.root_bounds_ = MindistTable::ForPaa(
      out.paa_.data(),
      IsaxConfig(config.series_length(), config.segments(), /*bits=*/1));
  out.bounds_slot_ = std::make_unique<BoundsSlot>();
  if (build_dtw_envelope) {
    out.envelope_ = BuildEnvelope(series, config.series_length(), dtw_window);
    out.envelope_paa_ = ComputeEnvelopePaa(out.envelope_, config);
    out.dtw_window_ = dtw_window;
    out.has_envelope_ = true;
  }
  return out;
}

const Envelope& PreparedQuery::envelope() const {
  ODYSSEY_CHECK_MSG(has_envelope_, "query prepared without a DTW envelope");
  return envelope_;
}

std::shared_ptr<const MindistTable> PreparedQuery::AcquireBounds() const {
  ODYSSEY_CHECK_MSG(bounds_slot_ != nullptr, "query was never prepared");
  // Built under the lock, so executions that start together share one
  // build instead of racing to make copies.
  MutexLock lock(&bounds_slot_->mu);
  std::shared_ptr<const MindistTable> table = bounds_slot_->table.lock();
  if (table == nullptr) {
    table = std::make_shared<const MindistTable>(
        has_envelope_ ? MindistTable::ForEnvelope(envelope_paa_, config_)
                      : MindistTable::ForPaa(paa_.data(), config_));
    bounds_slot_->table = table;
  }
  return table;
}

PreparedBatch PreparedBatch::Prepare(const SeriesCollection& queries,
                                     const IsaxConfig& config,
                                     bool build_dtw_envelope,
                                     size_t dtw_window, ThreadPool* pool) {
  ODYSSEY_CHECK(queries.length() == config.series_length());
  PreparedBatch batch;
  batch.queries_.resize(queries.size());
  auto prepare_range = [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      batch.queries_[q] = PreparedQuery::Prepare(
          queries.data(q), config, build_dtw_envelope, dtw_window);
    }
  };
  if (pool != nullptr && queries.size() > 1) {
    pool->ParallelFor(queries.size(), prepare_range);
  } else {
    prepare_range(0, queries.size());
  }
  batch.admitted_.store(queries.size(), std::memory_order_release);
  return batch;
}

PreparedBatch PreparedBatch::Allocate(size_t count) {
  PreparedBatch batch;
  batch.queries_.resize(count);
  return batch;
}

size_t PreparedBatch::Admit(size_t i, const float* series,
                            const IsaxConfig& config, bool build_dtw_envelope,
                            size_t dtw_window) {
  ODYSSEY_CHECK(i < queries_.size());
  queries_[i] =
      PreparedQuery::Prepare(series, config, build_dtw_envelope, dtw_window);
  return admitted_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

const PreparedQuery& PreparedBatch::query(size_t i) const {
  ODYSSEY_CHECK(i < queries_.size());
  return queries_[i];
}

}  // namespace odyssey
