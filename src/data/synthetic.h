// Synthetic dataset generators.
//
// GaussMixture reproduces the paper's §4.1 construction exactly: k centers
// drawn from a d-dimensional spherical Gaussian with variance R ∈
// {1, 10, 100}, unit-variance Gaussian clouds around each center, equal
// weights.
//
// SpamLike and KddLike are offline stand-ins for the UCI Spam and
// KDDCup1999 datasets: they preserve the properties the experiments
// depend on — uneven cluster masses (power-law for KDD), feature scales
// spanning orders of magnitude, and a small fraction of far outliers
// that "confuse" k-means++ (paper §5.1).

#ifndef KMEANSLL_DATA_SYNTHETIC_H_
#define KMEANSLL_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"
#include "rng/rng.h"

namespace kmeansll::data {

/// A generated dataset together with its ground truth.
struct LabeledData {
  Dataset data;          ///< points with labels attached
  Matrix true_centers;   ///< the generating centers (k × d)
};

/// Parameters of the paper's GaussMixture dataset (§4.1).
struct GaussMixtureParams {
  int64_t n = 10000;            ///< points sampled from the mixture
  int64_t k = 50;               ///< number of Gaussians
  int64_t dim = 15;             ///< dimensionality
  double center_stddev = 1.0;   ///< sqrt(R): center distribution stddev
  double cluster_stddev = 1.0;  ///< within-cluster stddev (paper: 1)
};

/// Generates GaussMixture. Fails if n < k or any size is non-positive.
Result<LabeledData> GenerateGaussMixture(const GaussMixtureParams& params,
                                         rng::Rng rng);

/// Parameters of the Spam stand-in (UCI Spambase is 4601 × 58).
struct SpamLikeParams {
  int64_t n = 4601;
  int64_t dim = 58;
  int64_t num_clusters = 12;      ///< latent cluster count
  double outlier_fraction = 0.01; ///< points placed far out on few features
  double scale_base = 4.0;        ///< per-feature scale ~ base^U(0,1)-ish
};

/// Generates the Spam-like dataset.
Result<LabeledData> GenerateSpamLike(const SpamLikeParams& params,
                                     rng::Rng rng);

/// Parameters of the KDDCup1999 stand-in (42 numeric features; cluster
/// sizes follow a power law, as network traffic categories do).
struct KddLikeParams {
  int64_t n = 65536;
  int64_t dim = 42;
  int64_t num_clusters = 23;       ///< KDD has 23 traffic classes
  double size_power = 1.6;         ///< cluster-size power-law exponent
  double outlier_fraction = 0.003; ///< extreme flows
  double scale_spread = 1e4;       ///< max/min feature scale ratio
};

/// Generates the KDD-like dataset.
Result<LabeledData> GenerateKddLike(const KddLikeParams& params,
                                    rng::Rng rng);

/// Uniform noise in [lo, hi]^dim — used by tests as an unclusterable
/// baseline.
Result<Dataset> GenerateUniform(int64_t n, int64_t dim, double lo, double hi,
                                rng::Rng rng);

/// `k` well-separated unit-variance clusters with `per_cluster` points
/// each, centers on a scaled integer grid. The optimum is known to be near
/// the grid centers; used by property tests on approximation quality.
Result<LabeledData> GenerateSeparatedClusters(int64_t k, int64_t per_cluster,
                                              int64_t dim, double separation,
                                              rng::Rng rng);

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_SYNTHETIC_H_
