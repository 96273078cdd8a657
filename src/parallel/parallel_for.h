// Deterministic data-parallel helpers over a ThreadPool.
//
// Work is split into fixed chunks (independent of the thread count), and
// reductions combine per-chunk partials in chunk order. Consequently every
// parallel result is bitwise identical across thread counts — a property
// the tests assert and the determinism contract (docs/ARCHITECTURE.md,
// "The determinism contract", item 3) relies on.

#ifndef KMEANSLL_PARALLEL_PARALLEL_FOR_H_
#define KMEANSLL_PARALLEL_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "parallel/thread_pool.h"

namespace kmeansll {

/// Contiguous index range [begin, end).
struct IndexRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// Splits [0, total) into at most `max_chunks` near-equal ranges.
std::vector<IndexRange> MakeChunks(int64_t total, int64_t max_chunks);

/// Fixed chunk count used by ParallelFor/ParallelReduce. Independent of
/// the pool's thread count (and of whether a pool is used at all), so
/// chunked reductions produce bitwise-identical results sequentially and
/// at any parallelism.
inline constexpr int64_t kDeterministicChunks = 64;

/// Execution schedule for a chunked pass over a storage-backed range
/// (built by MakeScanSchedule in matrix/dataset_view.h). `order` permutes
/// chunk *submission* so concurrently running workers scan distinct
/// shards of an out-of-core source instead of piling onto one shard's
/// pin. It changes WHEN chunks run, never what they compute: reductions
/// still fold per-chunk partials in ascending chunk-index order, so
/// results are bitwise identical with or without a schedule, at any
/// thread count.
struct ScanSchedule {
  std::vector<size_t> order;  ///< submission order; empty = ascending
};

/// Runs body(range) for each chunk of [0, total) on the pool. Blocks until
/// all chunks complete. `pool` may be null: runs inline (sequentially).
/// `schedule` (may be null) reorders chunk submission; it never changes
/// the chunk grid. Passing a schedule — even an empty one — also opts
/// the sequential path into the fixed chunk grid (chunk-by-chunk,
/// ascending), so consumers whose per-row values could depend on tile
/// origins see the pooled path's grid at every pool size; with no
/// schedule the sequential path runs the whole range as one body call.
void ParallelFor(ThreadPool* pool, int64_t total,
                 const std::function<void(IndexRange)>& body,
                 const ScanSchedule* schedule = nullptr);

/// Map-reduce over chunks: `map` produces a partial P per chunk, and the
/// partials are folded left-to-right in chunk order by `combine` into
/// `init`. Deterministic for any thread count; `schedule` (may be null)
/// affects submission order only, never the fold order.
template <typename P>
P ParallelReduce(ThreadPool* pool, int64_t total, P init,
                 const std::function<P(IndexRange)>& map,
                 const std::function<P(P, P)>& combine,
                 const ScanSchedule* schedule = nullptr) {
  std::vector<IndexRange> chunks = MakeChunks(total, kDeterministicChunks);
  std::vector<P> partials(chunks.size());
  const bool reordered = schedule != nullptr && !schedule->order.empty();
  auto run_position = [&](size_t p) {
    const size_t c = reordered ? schedule->order[p] : p;
    partials[c] = map(chunks[c]);
  };
  if (pool == nullptr) {
    for (size_t p = 0; p < chunks.size(); ++p) run_position(p);
  } else {
    for (size_t p = 0; p < chunks.size(); ++p) {
      pool->Submit([&run_position, p] { run_position(p); });
    }
    pool->Wait();
  }
  P acc = std::move(init);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace kmeansll

#endif  // KMEANSLL_PARALLEL_PARALLEL_FOR_H_
