// Squared Euclidean distance kernels. Everything in the paper runs on
// d²(x, y) = ||x - y||²; these kernels are the innermost loops of all
// initializers and of Lloyd's iteration.
//
// Two formulations are provided and tested against each other:
//  * Plain: sum of squared coordinate differences. Branch-free, exact,
//    best for small d.
//  * Norm-expanded: ||x||² + ||y||² - 2·x·y with precomputed norms; turns
//    the k-center scan into dot products (fewer loads per candidate) at
//    the price of cancellation for near-identical points, so results are
//    clamped at zero. Ablated in bench/bm_distance.

#ifndef KMEANSLL_DISTANCE_L2_H_
#define KMEANSLL_DISTANCE_L2_H_

#include <cstdint>

namespace kmeansll {

/// ||a - b||² over `dim` coordinates.
double SquaredL2(const double* a, const double* b, int64_t dim);

/// ||a||² over `dim` coordinates.
double SquaredNorm(const double* a, int64_t dim);

/// a · b over `dim` coordinates.
double DotProduct(const double* a, const double* b, int64_t dim);

/// max(0, a_norm + b_norm - 2·a·b): norm-expanded ||a - b||², written as
/// (a_norm + b_norm) − (dot + dot), the form every batch kernel uses. The
/// doubling is exact, so the value is the product form's. The library
/// builds with floating-point contraction off (CMakeLists.txt), so no
/// build fuses the subtraction into an FMA.
inline double SquaredL2Expanded(double a_norm, double b_norm, double dot) {
  double d2 = (a_norm + b_norm) - (dot + dot);
  return d2 > 0.0 ? d2 : 0.0;
}

}  // namespace kmeansll

#endif  // KMEANSLL_DISTANCE_L2_H_
