// Random initialization: k distinct points chosen uniformly at random —
// the paper's `Random` baseline (§4.2) and the classical Forgy seeding.

#ifndef KMEANSLL_CLUSTERING_INIT_RANDOM_H_
#define KMEANSLL_CLUSTERING_INIT_RANDOM_H_

#include <cstdint>

#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "rng/rng.h"

namespace kmeansll {

/// Selects k distinct rows uniformly at random (weights ignored: the
/// baseline in the paper is plain uniform row sampling). Fails if
/// k <= 0 or k > n.
Result<InitResult> RandomInit(const Dataset& data, int64_t k, rng::Rng rng);

/// As above over a DatasetSource (the selection touches no point data
/// until the final gather, which pins only the chosen rows, each run of
/// consecutive ones once).
Result<InitResult> RandomInit(const DatasetSource& data, int64_t k,
                              rng::Rng rng);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_INIT_RANDOM_H_
