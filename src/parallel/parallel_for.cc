#include "parallel/parallel_for.h"

namespace kmeansll {

std::vector<IndexRange> MakeChunks(int64_t total, int64_t max_chunks) {
  KMEANSLL_CHECK_GE(total, 0);
  KMEANSLL_CHECK_GE(max_chunks, 1);
  std::vector<IndexRange> chunks;
  if (total == 0) return chunks;
  int64_t parts = max_chunks < total ? max_chunks : total;
  chunks.reserve(static_cast<size_t>(parts));
  int64_t base = total / parts;
  int64_t extra = total % parts;
  int64_t begin = 0;
  for (int64_t p = 0; p < parts; ++p) {
    int64_t len = base + (p < extra ? 1 : 0);
    chunks.push_back(IndexRange{begin, begin + len});
    begin += len;
  }
  return chunks;
}

void ParallelFor(ThreadPool* pool, int64_t total,
                 const std::function<void(IndexRange)>& body) {
  if (total <= 0) return;
  const std::vector<IndexRange> chunks =
      MakeChunks(total, kDeterministicChunks);
  if (pool == nullptr) {
    for (const IndexRange& r : chunks) body(r);
    return;
  }
  for (const IndexRange& r : chunks) {
    pool->Submit([&body, r] { body(r); });
  }
  pool->Wait();
}

}  // namespace kmeansll
