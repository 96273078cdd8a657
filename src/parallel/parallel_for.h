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

/// Runs body(range) for each chunk of the fixed grid
/// MakeChunks(total, kDeterministicChunks) on the pool, and blocks until
/// all chunks complete. `pool` may be null: the same chunks then run
/// inline in ascending order, so a body whose per-row values could
/// depend on tile origins sees one grid at every pool size.
void ParallelFor(ThreadPool* pool, int64_t total,
                 const std::function<void(IndexRange)>& body);

/// Map-reduce over chunks: `map` produces a partial P per chunk, and the
/// partials are folded left-to-right in chunk order by `combine` into
/// `init`. Deterministic for any thread count: chunks are submitted in
/// index order and folded in index order.
template <typename P>
P ParallelReduce(ThreadPool* pool, int64_t total, P init,
                 const std::function<P(IndexRange)>& map,
                 const std::function<P(P, P)>& combine) {
  std::vector<IndexRange> chunks = MakeChunks(total, kDeterministicChunks);
  std::vector<P> partials(chunks.size());
  if (pool == nullptr) {
    for (size_t c = 0; c < chunks.size(); ++c) partials[c] = map(chunks[c]);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) {
      pool->Submit([&, c] { partials[c] = map(chunks[c]); });
    }
    pool->Wait();
  }
  P acc = std::move(init);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace kmeansll

#endif  // KMEANSLL_PARALLEL_PARALLEL_FOR_H_
