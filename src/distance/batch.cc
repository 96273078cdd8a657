#include "distance/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/macros.h"
#include "distance/l2.h"

namespace kmeansll {

namespace {

// The engine packs each block of kCenterTile center rows into a t-major
// "panel": panel[t * kCenterTile + j] = centers(c_begin + j, t). In the
// packed layout the innermost step touches kCenterTile contiguous
// accumulators — per-center chains that are mutually independent — so the
// SIMD kernels below get full-width FMA without reordering any one
// chain's additions. Each (point, center) value is still accumulated in a
// single chain in coordinate order, so results do not depend on tile
// placement, panel residue, or thread count.
//
// Two implementations are provided per kernel: a portable scalar version
// and an AVX2+FMA version selected once at startup via
// __builtin_cpu_supports — the default build stays baseline-ISA while
// capable machines get 4-wide FMA. The nearest merges add an AVX-512
// block kernel on CPUs that have it, lane-for-lane the AVX2 chain. The
// dispatch is constant per machine, preserving run-to-run and
// thread-count determinism.

// Dot products of two point rows against one full packed panel:
// acc{0,1}[j] += x{0,1}[t] * panel[t][j]. 2 points × 4 vector
// accumulators gives the FMA units 8 independent chains — enough to run
// at throughput instead of latency — while staying within 16 registers.
void DotPanel2Generic(const double* x0, const double* x1,
                      const double* panel, int64_t d, double* acc0,
                      double* acc1) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double x0t = x0[t];
    const double x1t = x1[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      acc0[j] += x0t * row[j];
      acc1[j] += x1t * row[j];
    }
  }
}

void DotPanel1Generic(const double* x, const double* panel, int64_t d,
                      double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double xt = x[t];
    for (int64_t j = 0; j < kCenterTile; ++j) acc[j] += xt * row[j];
  }
}

// Plain subtract-square panels: acc[j] += (x[t] - panel[t][j])².
void SqPanel2Generic(const double* x0, const double* x1,
                     const double* panel, int64_t d, double* acc0,
                     double* acc1) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double x0t = x0[t];
    const double x1t = x1[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      double e0 = x0t - row[j];
      acc0[j] += e0 * e0;
      double e1 = x1t - row[j];
      acc1[j] += e1 * e1;
    }
  }
}

void SqPanel1Generic(const double* x, const double* panel, int64_t d,
                     double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double xt = x[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      double e = xt - row[j];
      acc[j] += e * e;
    }
  }
}

// Narrow-panel variants for the trailing k % kCenterTile centers (panel
// stride = width). Runtime trip count; padding the residue to a full
// panel would make small-k callers (k-means++ adds one center at a time)
// pay kCenterTile× the flops, so the residue is computed exactly. Like
// the full panels they come in a portable version and an FMA version
// (below) so the per-pair chain is the same in the residue as in the
// micro-kernel on every machine.
void DotPanelTailGeneric(const double* x, const double* panel, int64_t d,
                         int64_t width, double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    const double xt = x[t];
    for (int64_t j = 0; j < width; ++j) acc[j] += xt * row[j];
  }
}

void SqPanelTailGeneric(const double* x, const double* panel, int64_t d,
                        int64_t width, double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    const double xt = x[t];
    for (int64_t j = 0; j < width; ++j) {
      double e = xt - row[j];
      acc[j] += e * e;
    }
  }
}

// --- The one-row screen's certificate -------------------------------------
//
// Inputs. x is the query and c a center; every coordinate of both is 0 or
// of magnitude in [2^-50, 2^50] (kScreenMin, kScreenMax), so no float
// conversion overflows and no nonzero float product is subnormal, and
// d < 2^20. pn is ||x||² as the engine has it (the SquaredNorm chain, or
// the caller's point norm) and cn the stored ||c||². D is the engine's
// value SquaredL2Expanded(pn, cn, PairDotProduct(x, c, d)) and D̃ the same
// before its clamp at +0. s is a float dot product of (float)x and
// (float)c, summed in any order, and v = (pn + cn) − 2·(double)s.
//
// Bound. |D̃ − v| ≤ e = κ_d·(pn + cn) with κ_d = 4(d + 4)·u, u = 2^-24,
// from four facts (Higham, Accuracy and Stability of Numerical
// Algorithms, 2nd ed., §3.1):
//  * rounding x and c to float moves x·c by at most (2u + u²)·Σ|x_t c_t|;
//  * the float dot adds at most γ_d(1 + u)²·Σ|x_t c_t|, γ_d = du/(1 − du),
//    in any summation order;
//  * Σ|x_t c_t| ≤ ||x||·||c|| ≤ (||x||² + ||c||²)/2, which is (pn + cn)/2
//    up to the norms' own (d + 1)·2^-53 relative error;
//  * the double dot chain, the norms, and the operations that form v and
//    the bounds add less than 8(d + 2)·2^-53·(pn + cn).
// v carries twice the float dot's error, so the total stays under
// (d + 3)·u·(pn + cn), and κ_d has a 4× margin. A partial float sum that
// cancels below 2^-126 errs by at most 2^-150 per step, d·2^-150 in all:
// far below e whenever x or c is nonzero (then pn + cn ≥ 2^-100), and
// when both are zero every value here is exactly 0.
//
// Candidate set. D clamps at +0, so lower = v − e ≤ D ≤ upper =
// max(0, v + e). Let U be the m-th least upper bound (ScreenedTopM only
// runs with m ≤ k). At least m centers have D ≤ U, so the m-th least
// engine value is at most U, and every center attaining one of the m
// least values, ties included, has lower ≤ U. S = {j : lower_j ≤ U} thus
// holds every center that BatchTopM's strict-< ascending merge keeps, and
// the same merge over S in ascending index yields the same slots.
double ScreenKappa(int64_t d) {
  return 4.0 * static_cast<double>(d + 4) * 0x1p-24;
}
constexpr double kScreenMin = 0x1p-50;
constexpr double kScreenMax = 0x1p50;
constexpr int64_t kScreenMaxDim = int64_t{1} << 20;

// A NaN fails every comparison and so is out of range.
inline bool InScreenRange(double v) {
  const double a = std::fabs(v);
  return a == 0.0 || (a >= kScreenMin && a <= kScreenMax);
}

// A candidate's re-rank is one latency-bound FMA chain, about as costly
// as kScreenShare centers of the panel scan. So a row keeps at most
// k / kScreenShare candidates, or it takes the engine scan, and no row
// costs more than the screen pass plus the scan it replaces.
constexpr int64_t kScreenShare = 16;

// The top-m merge step: inserts (v, index) into m slots held ascending
// when v is strictly below the last one. Fed in ascending index order,
// an equal value never displaces or outranks an earlier center, so tied
// centers sort by ascending index (see BatchTopM).
inline void InsertTopM(double v, int32_t index, int64_t m, double* slot_d2,
                       int32_t* slot_index) {
  if (!(v < slot_d2[m - 1])) return;
  int64_t s = m - 1;
  while (s > 0 && v < slot_d2[s - 1]) {
    slot_d2[s] = slot_d2[s - 1];
    slot_index[s] = slot_index[s - 1];
    --s;
  }
  slot_d2[s] = v;
  slot_index[s] = index;
}

#if defined(__x86_64__)

static_assert(kCenterTile == 16,
              "AVX2 panel kernels assume 4 × 4-double accumulators");

__attribute__((target("avx2,fma"))) void DotPanel2Avx2(
    const double* x0, const double* x1, const double* panel, int64_t d,
    double* acc0, double* acc1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d r0 = _mm256_loadu_pd(row);
    const __m256d r1 = _mm256_loadu_pd(row + 4);
    const __m256d r2 = _mm256_loadu_pd(row + 8);
    const __m256d r3 = _mm256_loadu_pd(row + 12);
    const __m256d xv0 = _mm256_broadcast_sd(x0 + t);
    const __m256d xv1 = _mm256_broadcast_sd(x1 + t);
    a00 = _mm256_fmadd_pd(xv0, r0, a00);
    a01 = _mm256_fmadd_pd(xv0, r1, a01);
    a02 = _mm256_fmadd_pd(xv0, r2, a02);
    a03 = _mm256_fmadd_pd(xv0, r3, a03);
    a10 = _mm256_fmadd_pd(xv1, r0, a10);
    a11 = _mm256_fmadd_pd(xv1, r1, a11);
    a12 = _mm256_fmadd_pd(xv1, r2, a12);
    a13 = _mm256_fmadd_pd(xv1, r3, a13);
  }
  _mm256_storeu_pd(acc0, a00);
  _mm256_storeu_pd(acc0 + 4, a01);
  _mm256_storeu_pd(acc0 + 8, a02);
  _mm256_storeu_pd(acc0 + 12, a03);
  _mm256_storeu_pd(acc1, a10);
  _mm256_storeu_pd(acc1 + 4, a11);
  _mm256_storeu_pd(acc1 + 8, a12);
  _mm256_storeu_pd(acc1 + 12, a13);
}

__attribute__((target("avx2,fma"))) void DotPanel1Avx2(const double* x,
                                                       const double* panel,
                                                       int64_t d,
                                                       double* acc) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d xv = _mm256_broadcast_sd(x + t);
    a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row), a0);
    a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 4), a1);
    a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 8), a2);
    a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 12), a3);
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}

__attribute__((target("avx2,fma"))) void SqPanel2Avx2(
    const double* x0, const double* x1, const double* panel, int64_t d,
    double* acc0, double* acc1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d r0 = _mm256_loadu_pd(row);
    const __m256d r1 = _mm256_loadu_pd(row + 4);
    const __m256d r2 = _mm256_loadu_pd(row + 8);
    const __m256d r3 = _mm256_loadu_pd(row + 12);
    const __m256d xv0 = _mm256_broadcast_sd(x0 + t);
    const __m256d xv1 = _mm256_broadcast_sd(x1 + t);
    __m256d e;
    e = _mm256_sub_pd(xv0, r0);
    a00 = _mm256_fmadd_pd(e, e, a00);
    e = _mm256_sub_pd(xv0, r1);
    a01 = _mm256_fmadd_pd(e, e, a01);
    e = _mm256_sub_pd(xv0, r2);
    a02 = _mm256_fmadd_pd(e, e, a02);
    e = _mm256_sub_pd(xv0, r3);
    a03 = _mm256_fmadd_pd(e, e, a03);
    e = _mm256_sub_pd(xv1, r0);
    a10 = _mm256_fmadd_pd(e, e, a10);
    e = _mm256_sub_pd(xv1, r1);
    a11 = _mm256_fmadd_pd(e, e, a11);
    e = _mm256_sub_pd(xv1, r2);
    a12 = _mm256_fmadd_pd(e, e, a12);
    e = _mm256_sub_pd(xv1, r3);
    a13 = _mm256_fmadd_pd(e, e, a13);
  }
  _mm256_storeu_pd(acc0, a00);
  _mm256_storeu_pd(acc0 + 4, a01);
  _mm256_storeu_pd(acc0 + 8, a02);
  _mm256_storeu_pd(acc0 + 12, a03);
  _mm256_storeu_pd(acc1, a10);
  _mm256_storeu_pd(acc1 + 4, a11);
  _mm256_storeu_pd(acc1 + 8, a12);
  _mm256_storeu_pd(acc1 + 12, a13);
}

__attribute__((target("avx2,fma"))) void SqPanel1Avx2(const double* x,
                                                      const double* panel,
                                                      int64_t d,
                                                      double* acc) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d xv = _mm256_broadcast_sd(x + t);
    __m256d e;
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row));
    a0 = _mm256_fmadd_pd(e, e, a0);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 4));
    a1 = _mm256_fmadd_pd(e, e, a1);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 8));
    a2 = _mm256_fmadd_pd(e, e, a2);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 12));
    a3 = _mm256_fmadd_pd(e, e, a3);
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}

// Single-pair chains matching the panel kernels lane-for-lane: one
// accumulator, coordinate order, hardware FMA. A lane of the AVX2 panel
// kernels performs acc = fma(x[t], c[t], acc) (dot) or
// acc = fma(e, e, acc) with e = x[t] − c[t] (plain) per coordinate;
// __builtin_fma inside a target("fma") function lowers to the same
// vfmadd, so these reproduce the batched values bitwise.
__attribute__((target("fma"))) double PairDotFma(const double* a,
                                                 const double* b,
                                                 int64_t dim) {
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) acc = __builtin_fma(a[t], b[t], acc);
  return acc;
}

__attribute__((target("fma"))) double PairSqFma(const double* a,
                                                const double* b,
                                                int64_t dim) {
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) {
    double e = a[t] - b[t];
    acc = __builtin_fma(e, e, acc);
  }
  return acc;
}

// FMA tail variants: on machines where the full panels run the AVX2+FMA
// micro-kernels, the residue must accumulate with the same fused chain,
// or a pair's value would depend on which panel its center landed in.
__attribute__((target("fma"))) void DotPanelTailFma(const double* x,
                                                    const double* panel,
                                                    int64_t d,
                                                    int64_t width,
                                                    double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    const double xt = x[t];
    for (int64_t j = 0; j < width; ++j) {
      acc[j] = __builtin_fma(xt, row[j], acc[j]);
    }
  }
}

__attribute__((target("fma"))) void SqPanelTailFma(const double* x,
                                                   const double* panel,
                                                   int64_t d,
                                                   int64_t width,
                                                   double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    const double xt = x[t];
    for (int64_t j = 0; j < width; ++j) {
      double e = xt - row[j];
      acc[j] = __builtin_fma(e, e, acc[j]);
    }
  }
}

// --- AVX-512 nearest-merge blocks ------------------------------------------
//
// BatchNearestMerge's argmin and distance-only merges over whole blocks of
// kAvx512BlockRows point rows. Each step scores the block against one
// panel of 16 centers in zmm accumulators (two 8-lane halves per row),
// and every lane runs exactly the AVX2 lane chain: acc = fma(x[t], c[t],
// acc) from +0 in coordinate order (dot), or e = x[t] − c[t], acc =
// fma(e, e, acc) (plain). The expanded value is (‖x‖² + ‖c‖²) − (acc +
// acc) clamped at +0: the scalar convert's operations in its order, none
// fused (the build turns contraction off). So every (point, center) value
// is bitwise the AVX2 path's. The k mod 16 residue panel runs in the same
// loop with masked loads at its own packed width; masked-off lanes never
// reach the merge.
//
// Lane argmin: lane j of a row keeps (min d², first index) over centers
// j, j + 16, j + 32, ... with strict-< updates in ascending panel order,
// so it holds the first index attaining its lane's minimum. After the
// last panel the row's minimum is the least lane minimum, and its index
// is the lowest index among the lanes holding that minimum: the first
// center attaining it, which is what a sequential ascending strict-< scan
// finds. That one candidate is merged strict-< into the caller's
// (best_d2, best_index), so a tie keeps the incumbent.
constexpr int64_t kAvx512BlockRows = 8;

// Lane-wise b < a ? b : a, and the same reduced over all 8 lanes (the
// result is in every lane). Written with compares, blends and masked
// shuffles: GCC 12's unmasked min/max/extract intrinsics pass an
// undefined vector through and trip -Wuninitialized.
__attribute__((target("avx512f"), always_inline)) inline __m512d LaneMin(
    __m512d a, __m512d b) {
  return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(b, a, _CMP_LT_OQ), a, b);
}

__attribute__((target("avx512f"), always_inline)) inline __m512d LeastLane(
    __m512d v) {
  v = LaneMin(v, _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0x4E));
  v = LaneMin(v, _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0xB1));
  return LaneMin(v, _mm512_maskz_permute_pd(0xFF, v, 0x55));
}

template <bool kExpanded, bool kWithIndex>
__attribute__((target("avx512f,avx2,fma"))) void NearestBlockAvx512(
    const double* x, int64_t d, const double* point_norms,
    const double* packed, int64_t k, const double* center_norms,
    int64_t base, double* best_d2, int32_t* best_index) {
  constexpr int kRows = static_cast<int>(kAvx512BlockRows);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d inf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __m512d lane_min[kRows][2];
  __m512i lane_arg[kRows];
  for (int r = 0; r < kRows; ++r) {
    lane_min[r][0] = inf;
    lane_min[r][1] = inf;
    lane_arg[r] = _mm512_setzero_si512();
  }
  __m512i lane_center = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  const __m512i panel_step = _mm512_set1_epi32(kCenterTile);

  for (int64_t c_off = 0; c_off < k; c_off += kCenterTile) {
    const int64_t count = std::min<int64_t>(kCenterTile, k - c_off);
    const double* panel = packed + c_off * d;
    const __mmask8 live0 =
        count >= 8 ? 0xFF : static_cast<__mmask8>((1u << count) - 1);
    const __mmask8 live1 =
        count > 8 ? static_cast<__mmask8>((1u << (count - 8)) - 1) : 0;
    __m512d acc[kRows][2];
    for (int r = 0; r < kRows; ++r) {
      acc[r][0] = zero;
      acc[r][1] = zero;
    }
    // Row t of a panel holds coordinate t of its `count` centers; the
    // residue panel is packed at stride `count`, so its loads are masked
    // (a half with no live lane is not loaded at all).
    for (int64_t t = 0; t < d; ++t) {
      const double* row = panel + t * count;
      __m512d c0, c1 = zero;
      if (count == kCenterTile) {
        c0 = _mm512_loadu_pd(row);
        c1 = _mm512_loadu_pd(row + 8);
      } else {
        c0 = _mm512_maskz_loadu_pd(live0, row);
        if (live1 != 0) c1 = _mm512_maskz_loadu_pd(live1, row + 8);
      }
      for (int r = 0; r < kRows; ++r) {
        const __m512d xv = _mm512_set1_pd(x[r * d + t]);
        if (kExpanded) {
          acc[r][0] = _mm512_fmadd_pd(xv, c0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_pd(xv, c1, acc[r][1]);
        } else {
          const __m512d e0 = _mm512_sub_pd(xv, c0);
          const __m512d e1 = _mm512_sub_pd(xv, c1);
          acc[r][0] = _mm512_fmadd_pd(e0, e0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_pd(e1, e1, acc[r][1]);
        }
      }
    }
    __m512d cn0 = zero, cn1 = zero;
    if (kExpanded) {
      cn0 = _mm512_maskz_loadu_pd(live0, center_norms + c_off);
      if (live1 != 0) {
        cn1 = _mm512_maskz_loadu_pd(live1, center_norms + c_off + 8);
      }
    }
    for (int r = 0; r < kRows; ++r) {
      __m512d v0 = acc[r][0], v1 = acc[r][1];
      if (kExpanded) {
        // (pn + cn) − (acc + acc), then v > 0 ? v : +0, as the scalar
        // convert computes it.
        const __m512d pn = _mm512_set1_pd(point_norms[r]);
        v0 = _mm512_sub_pd(_mm512_add_pd(pn, cn0), _mm512_add_pd(v0, v0));
        v1 = _mm512_sub_pd(_mm512_add_pd(pn, cn1), _mm512_add_pd(v1, v1));
        v0 = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(v0, zero, _CMP_GT_OQ),
                                 v0);
        v1 = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(v1, zero, _CMP_GT_OQ),
                                 v1);
      }
      const __mmask8 lt0 =
          _mm512_mask_cmp_pd_mask(live0, v0, lane_min[r][0], _CMP_LT_OQ);
      const __mmask8 lt1 =
          _mm512_mask_cmp_pd_mask(live1, v1, lane_min[r][1], _CMP_LT_OQ);
      lane_min[r][0] = _mm512_mask_mov_pd(lane_min[r][0], lt0, v0);
      lane_min[r][1] = _mm512_mask_mov_pd(lane_min[r][1], lt1, v1);
      if (kWithIndex) {
        lane_arg[r] = _mm512_mask_mov_epi32(
            lane_arg[r], _mm512_kunpackb(lt1, lt0), lane_center);
      }
    }
    lane_center = _mm512_add_epi32(lane_center, panel_step);
  }

  for (int r = 0; r < kRows; ++r) {
    const __m512d least = LeastLane(LaneMin(lane_min[r][0], lane_min[r][1]));
    const double m = _mm512_cvtsd_f64(least);
    if (!(m < best_d2[r])) continue;
    best_d2[r] = m;
    if (kWithIndex) {
      alignas(64) int32_t args[kCenterTile];
      _mm512_store_si512(args, lane_arg[r]);
      unsigned tied = _mm512_kunpackb(
          _mm512_cmp_pd_mask(lane_min[r][1], least, _CMP_EQ_OQ),
          _mm512_cmp_pd_mask(lane_min[r][0], least, _CMP_EQ_OQ));
      int32_t arg = args[std::countr_zero(tied)];
      for (tied &= tied - 1; tied != 0; tied &= tied - 1) {
        arg = std::min(arg, args[std::countr_zero(tied)]);
      }
      best_index[r] = static_cast<int32_t>(base + arg);
    }
  }
}

// --- One-row fp32 screen kernels (see ScreenKappa) ----------------------
//
// Float dot products of one query against kPanels consecutive full panels
// of the fp32 copy: 2·kPanels accumulators of 8 centers, so four panels
// per coordinate step keep eight independent FMA chains in flight.
template <int kPanels>
__attribute__((target("avx2,fma"), always_inline)) inline void
ScreenPanelsAvx2(const float* x, const float* panels, int64_t d,
                 float* out) {
  const int64_t stride = kCenterTile * d;
  __m256 acc[2 * kPanels];
  for (int q = 0; q < 2 * kPanels; ++q) acc[q] = _mm256_setzero_ps();
  for (int64_t t = 0; t < d; ++t) {
    const __m256 xv = _mm256_broadcast_ss(x + t);
    for (int q = 0; q < kPanels; ++q) {
      const float* row = panels + q * stride + t * kCenterTile;
      acc[2 * q] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(row), acc[2 * q]);
      acc[2 * q + 1] =
          _mm256_fmadd_ps(xv, _mm256_loadu_ps(row + 8), acc[2 * q + 1]);
    }
  }
  for (int q = 0; q < 2 * kPanels; ++q) _mm256_storeu_ps(out + 8 * q, acc[q]);
}

// out[c] = a float dot product of x with packed center c, for all k.
__attribute__((target("avx2,fma"))) void ScreenDotsAvx2(const float* x,
                                                        const float* packed,
                                                        int64_t k, int64_t d,
                                                        float* out) {
  const int64_t full = k / kCenterTile;
  const int64_t stride = kCenterTile * d;
  int64_t p = 0;
  for (; p + 4 <= full; p += 4) {
    ScreenPanelsAvx2<4>(x, packed + p * stride, d, out + p * kCenterTile);
  }
  for (; p < full; ++p) {
    ScreenPanelsAvx2<1>(x, packed + p * stride, d, out + p * kCenterTile);
  }
  const int64_t width = k - full * kCenterTile;
  if (width == 0) return;
  const float* panel = packed + full * stride;
  float* tail = out + full * kCenterTile;
  for (int64_t j = 0; j < width; ++j) tail[j] = 0.0f;
  for (int64_t t = 0; t < d; ++t) {
    for (int64_t j = 0; j < width; ++j) {
      tail[j] = __builtin_fmaf(x[t], panel[t * width + j], tail[j]);
    }
  }
}

// dst = (float)src over n values; false (dst unspecified) when one is
// outside the certified range. Out-of-range lanes convert as 0, so no
// conversion overflows.
__attribute__((target("avx2,fma"))) bool ScreenConvertAvx2(const double* src,
                                                           int64_t n,
                                                           float* dst) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d lo = _mm256_set1_pd(kScreenMin);
  const __m256d hi = _mm256_set1_pd(kScreenMax);
  __m256d all_in = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(src + i);
    const __m256d a = _mm256_andnot_pd(sign, v);
    const __m256d in = _mm256_or_pd(
        _mm256_cmp_pd(a, zero, _CMP_EQ_OQ),
        _mm256_and_pd(_mm256_cmp_pd(a, lo, _CMP_GE_OQ),
                      _mm256_cmp_pd(a, hi, _CMP_LE_OQ)));
    all_in = _mm256_and_pd(all_in, in);
    _mm_storeu_ps(dst + i, _mm256_cvtpd_ps(_mm256_and_pd(v, in)));
  }
  bool ok = _mm256_movemask_pd(all_in) == 0xF;
  for (; i < n; ++i) {
    const bool in = InScreenRange(src[i]);
    ok = ok && in;
    dst[i] = static_cast<float>(in ? src[i] : 0.0);
  }
  return ok;
}

// The certified interval of four engine values from their float dots s:
// with a = pn + cn, v = a − (s + s) and e = κ·a, lower = v − e and
// upper = max(v + e, 0). ScreenBounds1 is the same for one center.
__attribute__((target("avx2,fma"), always_inline)) inline void ScreenBounds4(
    const float* s, const double* cn, __m256d pn, __m256d kappa,
    __m256d* lower, __m256d* upper) {
  const __m256d a = _mm256_add_pd(pn, _mm256_loadu_pd(cn));
  const __m256d sd = _mm256_cvtps_pd(_mm_loadu_ps(s));
  const __m256d v = _mm256_sub_pd(a, _mm256_add_pd(sd, sd));
  const __m256d e = _mm256_mul_pd(kappa, a);
  *lower = _mm256_sub_pd(v, e);
  *upper = _mm256_max_pd(_mm256_add_pd(v, e), _mm256_setzero_pd());
}

inline void ScreenBounds1(float s, double cn, double pn, double kappa,
                          double* lower, double* upper) {
  const double a = pn + cn;
  const double sd = static_cast<double>(s);
  const double v = a - (sd + sd);
  const double e = kappa * a;
  *lower = v - e;
  *upper = std::max(v + e, 0.0);
}

// Writes to *candidates, ascending, every center whose lower bound does
// not exceed U, the m-th least upper bound; returns false as soon as more
// than `cap` centers qualify.
__attribute__((target("avx2,fma"))) bool ScreenSelectAvx2(
    const float* s, double pn, const double* cn, int64_t k, double kappa,
    int64_t m, int64_t cap, std::vector<int32_t>* candidates) {
  const __m256d pn4 = _mm256_set1_pd(pn);
  const __m256d kappa4 = _mm256_set1_pd(kappa);
  // The m least upper bounds so far, ascending, and their centers.
  std::vector<double> least(static_cast<size_t>(m),
                            std::numeric_limits<double>::infinity());
  std::vector<int32_t> least_index(static_cast<size_t>(m), -1);
  __m256d lower = _mm256_setzero_pd();
  __m256d upper = _mm256_setzero_pd();
  double lo = 0.0;
  double up = 0.0;
  int64_t j = 0;
  for (; j + 4 <= k; j += 4) {
    ScreenBounds4(s + j, cn + j, pn4, kappa4, &lower, &upper);
    unsigned below = static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
        upper, _mm256_set1_pd(least[m - 1]), _CMP_LT_OQ)));
    if (below == 0) continue;
    alignas(32) double ups[4];
    _mm256_store_pd(ups, upper);
    for (; below != 0; below &= below - 1) {
      const int lane = std::countr_zero(below);
      InsertTopM(ups[lane], static_cast<int32_t>(j + lane), m, least.data(),
                 least_index.data());
    }
  }
  for (; j < k; ++j) {
    ScreenBounds1(s[j], cn[j], pn, kappa, &lo, &up);
    InsertTopM(up, static_cast<int32_t>(j), m, least.data(),
               least_index.data());
  }
  const double u = least[m - 1];
  const __m256d u4 = _mm256_set1_pd(u);
  candidates->clear();
  for (j = 0; j + 4 <= k; j += 4) {
    ScreenBounds4(s + j, cn + j, pn4, kappa4, &lower, &upper);
    unsigned kept = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(lower, u4, _CMP_LE_OQ)));
    for (; kept != 0; kept &= kept - 1) {
      candidates->push_back(static_cast<int32_t>(j + std::countr_zero(kept)));
    }
    if (static_cast<int64_t>(candidates->size()) > cap) return false;
  }
  for (; j < k; ++j) {
    ScreenBounds1(s[j], cn[j], pn, kappa, &lo, &up);
    if (lo <= u) candidates->push_back(static_cast<int32_t>(j));
  }
  return static_cast<int64_t>(candidates->size()) <= cap;
}

// The engine's per-pair dot of x with one packed center, read down the
// center's panel column (`stride` apart): the lane chain of the panel
// kernels and PairDotFma's, acc = fma(x[t], c[t], acc) from +0 in
// coordinate order.
__attribute__((target("fma"))) double PanelColumnDotFma(const double* x,
                                                        const double* column,
                                                        int64_t d,
                                                        int64_t stride) {
  double acc = 0.0;
  for (int64_t t = 0; t < d; ++t) {
    acc = __builtin_fma(x[t], column[t * stride], acc);
  }
  return acc;
}

bool DetectAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
const bool kUseAvx2 = DetectAvx2Fma();
// Only where the AVX2+FMA kernels run too: the AVX-512 lanes reproduce
// their chain, and the rows short of a block still take them.
const bool kUseAvx512 = kUseAvx2 && __builtin_cpu_supports("avx512f");

// Merges the leading whole blocks of `rows` with the AVX-512 kernel;
// returns how many rows it covered.
int64_t NearestMergeBlocksAvx512(ConstMatrixView points, IndexRange rows,
                                 const double* point_norms,
                                 const CenterPanels& panels,
                                 const double* center_norms, bool expanded,
                                 double* best_d2, int32_t* best_index) {
  using Kernel = void (*)(const double*, int64_t, const double*,
                          const double*, int64_t, const double*, int64_t,
                          double*, int32_t*);
  const bool with_index = best_index != nullptr;
  const Kernel kernel =
      expanded ? (with_index ? &NearestBlockAvx512<true, true>
                             : &NearestBlockAvx512<true, false>)
               : (with_index ? &NearestBlockAvx512<false, true>
                             : &NearestBlockAvx512<false, false>);
  const int64_t blocked = rows.size() - rows.size() % kAvx512BlockRows;
  for (int64_t p = 0; p < blocked; p += kAvx512BlockRows) {
    kernel(points.Row(rows.begin + p), points.cols(),
           expanded ? point_norms + p : nullptr, panels.data(),
           panels.num_centers(), center_norms, panels.first_center(),
           best_d2 + p, with_index ? best_index + p : nullptr);
  }
  return blocked;
}

#else
constexpr bool kUseAvx2 = false;
constexpr bool kUseAvx512 = false;
inline int64_t NearestMergeBlocksAvx512(ConstMatrixView, IndexRange,
                                        const double*, const CenterPanels&,
                                        const double*, bool, double*,
                                        int32_t*) {
  return 0;
}
inline void DotPanel2Avx2(const double*, const double*, const double*,
                          int64_t, double*, double*) {}
inline void DotPanel1Avx2(const double*, const double*, int64_t, double*) {}
inline void SqPanel2Avx2(const double*, const double*, const double*,
                         int64_t, double*, double*) {}
inline void SqPanel1Avx2(const double*, const double*, int64_t, double*) {}
inline double PairDotFma(const double*, const double*, int64_t) {
  return 0.0;
}
inline double PairSqFma(const double*, const double*, int64_t) {
  return 0.0;
}
inline void DotPanelTailFma(const double*, const double*, int64_t, int64_t,
                            double*) {}
inline void SqPanelTailFma(const double*, const double*, int64_t, int64_t,
                           double*) {}
inline bool ScreenConvertAvx2(const double*, int64_t, float*) {
  return false;
}
inline void ScreenDotsAvx2(const float*, const float*, int64_t, int64_t,
                           float*) {}
inline bool ScreenSelectAvx2(const float*, double, const double*, int64_t,
                             double, int64_t, int64_t,
                             std::vector<int32_t>*) {
  return false;
}
inline double PanelColumnDotFma(const double*, const double*, int64_t,
                                int64_t) {
  return 0.0;
}
#endif  // defined(__x86_64__)

// Dispatch wrappers. The AVX2 kernels store their register accumulators
// over `acc`; the generic kernels accumulate in place, so the wrappers
// zero-fill for them.
inline void DotPanel2(const double* x0, const double* x1,
                      const double* panel, int64_t d, double* acc0,
                      double* acc1) {
  if (kUseAvx2) {
    DotPanel2Avx2(x0, x1, panel, d, acc0, acc1);
  } else {
    std::memset(acc0, 0, kCenterTile * sizeof(double));
    std::memset(acc1, 0, kCenterTile * sizeof(double));
    DotPanel2Generic(x0, x1, panel, d, acc0, acc1);
  }
}

inline void DotPanel1(const double* x, const double* panel, int64_t d,
                      double* acc) {
  if (kUseAvx2) {
    DotPanel1Avx2(x, panel, d, acc);
  } else {
    std::memset(acc, 0, kCenterTile * sizeof(double));
    DotPanel1Generic(x, panel, d, acc);
  }
}

inline void SqPanel2(const double* x0, const double* x1,
                     const double* panel, int64_t d, double* acc0,
                     double* acc1) {
  if (kUseAvx2) {
    SqPanel2Avx2(x0, x1, panel, d, acc0, acc1);
  } else {
    std::memset(acc0, 0, kCenterTile * sizeof(double));
    std::memset(acc1, 0, kCenterTile * sizeof(double));
    SqPanel2Generic(x0, x1, panel, d, acc0, acc1);
  }
}

inline void SqPanel1(const double* x, const double* panel, int64_t d,
                     double* acc) {
  if (kUseAvx2) {
    SqPanel1Avx2(x, panel, d, acc);
  } else {
    std::memset(acc, 0, kCenterTile * sizeof(double));
    SqPanel1Generic(x, panel, d, acc);
  }
}

// Tail dispatch (accumulates in place; the caller zero-fills).
inline void DotPanelTail(const double* x, const double* panel, int64_t d,
                         int64_t width, double* acc) {
  if (kUseAvx2) {
    DotPanelTailFma(x, panel, d, width, acc);
  } else {
    DotPanelTailGeneric(x, panel, d, width, acc);
  }
}

inline void SqPanelTail(const double* x, const double* panel, int64_t d,
                        int64_t width, double* acc) {
  if (kUseAvx2) {
    SqPanelTailFma(x, panel, d, width, acc);
  } else {
    SqPanelTailGeneric(x, panel, d, width, acc);
  }
}

// --- Shared loop nest --------------------------------------------------
//
// PanelScan drives the tiling and micro-kernel dispatch once for every
// reduction. For each (point, panel) visit it produces the panel's final
// squared distances (expanded values converted and clamped exactly like
// the legacy merge step) in a stack buffer and hands them to `merge` as
//   merge(p, c_off, count, d2v)
// where p is the range-relative point row, c_off the panel's first
// center relative to the packed set, count the panel width, and d2v the
// per-center squared distances. Panels are visited in ascending center
// order within each point tile, so a merge that scans d2v left-to-right
// observes centers exactly like a sequential ascending scan.
//
// `centers` restricts the visit to panels intersecting that
// packed-relative range (the Subset entry points); boundary panels are
// still computed at full width — per-pair chains are placement-
// independent, so the extra lanes are bitwise-identical values the
// subset merges simply do not read. Full-set callers pass
// {0, panels.num_centers()}.
template <typename Merge>
void PanelScan(ConstMatrixView points, IndexRange rows,
               const double* point_norms, const CenterPanels& panels,
               const double* center_norms, bool expanded,
               IndexRange centers, Merge&& merge) {
  const int64_t d = panels.dim();
  const int64_t n = rows.size();
  const int64_t k = panels.num_centers();
  const int64_t panel_lo = centers.begin / kCenterTile;
  const double* packed = panels.data();

  double acc0[kCenterTile];
  double acc1[kCenterTile];
  double d2v0[kCenterTile];
  double d2v1[kCenterTile];

  // Branchless distance conversion (vectorizable) ahead of the merge, in
  // SquaredL2Expanded's form.
  auto convert = [&](const double* acc, int64_t count, double pn,
                     const double* cn, double* d2v) {
    for (int64_t j = 0; j < count; ++j) {
      double v = (pn + cn[j]) - (acc[j] + acc[j]);
      d2v[j] = v > 0.0 ? v : 0.0;
    }
  };

  // Loop nest: point tiles stream while each ~kCenterTile·d-double panel
  // stays L1-resident across the whole tile.
  for (int64_t pb = 0; pb < n; pb += kPointTile) {
    const int64_t pe = std::min(pb + kPointTile, n);
    for (int64_t panel = panel_lo; panel * kCenterTile < centers.end;
         ++panel) {
      const int64_t c_off = panel * kCenterTile;
      const int64_t count = std::min<int64_t>(kCenterTile, k - c_off);
      const double* panel_data = packed + c_off * d;
      const double* cn = expanded ? center_norms + c_off : nullptr;
      int64_t p = pb;
      if (count == kCenterTile) {
        for (; p + 2 <= pe; p += 2) {
          if (expanded) {
            DotPanel2(points.Row(rows.begin + p),
                      points.Row(rows.begin + p + 1), panel_data, d, acc0,
                      acc1);
            convert(acc0, count, point_norms[p], cn, d2v0);
            convert(acc1, count, point_norms[p + 1], cn, d2v1);
            merge(p, c_off, count, d2v0);
            merge(p + 1, c_off, count, d2v1);
          } else {
            SqPanel2(points.Row(rows.begin + p),
                     points.Row(rows.begin + p + 1), panel_data, d, acc0,
                     acc1);
            merge(p, c_off, count, acc0);
            merge(p + 1, c_off, count, acc1);
          }
        }
        for (; p < pe; ++p) {
          if (expanded) {
            DotPanel1(points.Row(rows.begin + p), panel_data, d, acc0);
            convert(acc0, count, point_norms[p], cn, d2v0);
            merge(p, c_off, count, d2v0);
          } else {
            SqPanel1(points.Row(rows.begin + p), panel_data, d, acc0);
            merge(p, c_off, count, acc0);
          }
        }
      } else {
        for (; p < pe; ++p) {
          std::memset(acc0, 0, sizeof(acc0));
          if (expanded) {
            DotPanelTail(points.Row(rows.begin + p), panel_data, d, count,
                         acc0);
            convert(acc0, count, point_norms[p], cn, d2v0);
            merge(p, c_off, count, d2v0);
          } else {
            SqPanelTail(points.Row(rows.begin + p), panel_data, d, count,
                        acc0);
            merge(p, c_off, count, acc0);
          }
        }
      }
    }
  }
}

// Validates shared preconditions and reports whether there is anything to
// scan; resolves the kernel choice into *expanded.
bool PrepareScan(ConstMatrixView points, IndexRange rows,
                 const CenterPanels& panels, const double* center_norms,
                 BatchKernel kernel, bool* expanded) {
  KMEANSLL_CHECK_EQ(panels.dim(), points.cols());
  KMEANSLL_CHECK(rows.begin >= 0 && rows.end <= points.rows());
  if (rows.size() <= 0 || panels.num_centers() <= 0) return false;
  *expanded = ResolveExpandedKernel(kernel, points.cols());
  if (*expanded) {
    // Panels are t-major: norms cannot be recomputed here with the
    // caller-visible SquaredNorm chain, so expanded scans require them.
    KMEANSLL_CHECK(center_norms != nullptr);
  }
  return true;
}

// Point norms the caller did not provide, materialized with the shared
// SquaredNorm chain (amortized over the whole n × k scan, so a per-call
// vector is fine). One definition: this chain is the bitwise-consistency
// linchpin between provided and internal norms.
const double* EnsurePointNorms(ConstMatrixView points, IndexRange rows,
                               bool expanded, const double* point_norms,
                               std::vector<double>* storage) {
  if (!expanded || point_norms != nullptr) return point_norms;
  const int64_t n = rows.size();
  storage->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    (*storage)[static_cast<size_t>(i)] =
        SquaredNorm(points.Row(rows.begin + i), points.cols());
  }
  return storage->data();
}

}  // namespace

void CenterPanels::Pack(const Matrix& centers, int64_t first_center) {
  KMEANSLL_CHECK(first_center >= 0 && first_center <= centers.rows());
  dim_ = centers.cols();
  first_center_ = first_center;
  num_centers_ = centers.rows() - first_center;
  const int64_t k = num_centers_;
  const int64_t d = dim_;
  const int64_t full_panels = k / kCenterTile;
  const int64_t tail_width = k % kCenterTile;
  packed_.resize(static_cast<size_t>(k * d));
  for (int64_t c = 0; c < k; ++c) {
    const int64_t panel = c / kCenterTile;
    const bool in_tail = panel == full_panels;
    const int64_t stride = in_tail ? tail_width : kCenterTile;
    double* base = packed_.data() + panel * kCenterTile * d;
    const double* row = centers.Row(first_center + c);
    const int64_t j = c % kCenterTile;
    for (int64_t t = 0; t < d; ++t) base[t * stride + j] = row[t];
  }
  screen_.clear();
}

void CenterPanels::PackScreen() {
  screen_.clear();
  if (!kUseAvx2 || empty() || dim_ >= kScreenMaxDim) return;
  screen_.resize(packed_.size());
  if (!ScreenConvertAvx2(packed_.data(),
                         static_cast<int64_t>(packed_.size()),
                         screen_.data())) {
    screen_ = std::vector<float>();
  }
}

void CenterPanels::Clear() {
  packed_.clear();
  screen_.clear();
  num_centers_ = 0;
  dim_ = 0;
  first_center_ = 0;
}

bool ScreenedTopM(const double* x, const double* point_norm,
                  const CenterPanels& panels, const double* center_norms,
                  int64_t m, int32_t* out_index, double* out_d2) {
  KMEANSLL_CHECK_GT(m, 0);
  const int64_t k = panels.num_centers();
  const int64_t d = panels.dim();
  const int64_t cap = k / kScreenShare;
  if (!panels.has_screen() || m > cap) return false;
  // Per-call scratch: the query in float, then the k float dots.
  std::vector<float> scratch(static_cast<size_t>(d + k));
  float* xf = scratch.data();
  if (!ScreenConvertAvx2(x, d, xf)) return false;
  const double pn = point_norm != nullptr ? *point_norm : SquaredNorm(x, d);
  float* dots = xf + d;
  ScreenDotsAvx2(xf, panels.screen_data(), k, d, dots);
  std::vector<int32_t> candidates;
  if (!ScreenSelectAvx2(dots, pn, center_norms, k, ScreenKappa(d), m, cap,
                        &candidates)) {
    return false;
  }
  // BatchTopM's merge over the candidates, each valued by the expanded
  // kernel's convert of its panel chain.
  for (int64_t s = 0; s < m; ++s) {
    out_index[s] = -1;
    out_d2[s] = std::numeric_limits<double>::infinity();
  }
  const int64_t full_end = k - k % kCenterTile;
  for (const int32_t c : candidates) {
    const int64_t panel_begin = c - c % kCenterTile;
    const int64_t stride = c < full_end ? kCenterTile : k - full_end;
    const double v = SquaredL2Expanded(
        pn, center_norms[c],
        PanelColumnDotFma(x, panels.data() + panel_begin * d + c % kCenterTile,
                          d, stride));
    InsertTopM(v, static_cast<int32_t>(panels.first_center() + c), m, out_d2,
               out_index);
  }
  return true;
}

void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms,
                       const CenterPanels& panels,
                       const double* center_norms, BatchKernel kernel,
                       double* best_d2, int32_t* best_index) {
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  // Whole blocks of rows take the AVX-512 kernel where the CPU has it; the
  // rows short of a block take the panel scan below. A row's result does
  // not depend on which of the two scored it.
  if (kUseAvx512) {
    const int64_t done =
        NearestMergeBlocksAvx512(points, rows, point_norms, panels,
                                 center_norms, expanded, best_d2, best_index);
    rows.begin += done;
    if (rows.size() == 0) return;
    if (expanded) point_norms += done;
    best_d2 += done;
    if (best_index != nullptr) best_index += done;
  }
  const int64_t base = panels.first_center();
  const IndexRange all{0, panels.num_centers()};
  if (best_index == nullptr) {
    // Distance-only caller: skip the argmin bookkeeping.
    PanelScan(points, rows, point_norms, panels, center_norms, expanded, all,
              [&](int64_t p, int64_t, int64_t count, const double* d2v) {
                double* bd = best_d2 + p;
                for (int64_t j = 0; j < count; ++j) {
                  if (d2v[j] < *bd) *bd = d2v[j];
                }
              });
    return;
  }
  // Centers are visited in ascending index order with strict-< updates,
  // so ties keep the lowest index / the existing value — identical to a
  // sequential scan.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded, all,
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              double* bd = best_d2 + p;
              int32_t* bi = best_index + p;
              for (int64_t j = 0; j < count; ++j) {
                if (d2v[j] < *bd) {
                  *bd = d2v[j];
                  *bi = static_cast<int32_t>(base + c_off + j);
                }
              }
            });
}

void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms, const Matrix& centers,
                       int64_t first_center, const double* center_norms,
                       BatchKernel kernel, double* best_d2,
                       int32_t* best_index) {
  const int64_t d = points.cols();
  KMEANSLL_CHECK_EQ(centers.cols(), d);
  KMEANSLL_CHECK(rows.begin >= 0 && rows.end <= points.rows());
  KMEANSLL_CHECK(first_center >= 0 && first_center <= centers.rows());
  const int64_t k = centers.rows() - first_center;
  if (rows.size() <= 0 || k <= 0) return;

  const bool expanded = ResolveExpandedKernel(kernel, d);
  // Center norms the caller did not provide — computed from the matrix
  // rows with the same SquaredNorm chain callers use, so provided and
  // internal norms are bitwise interchangeable.
  std::vector<double> cn_storage;
  if (expanded && center_norms == nullptr) {
    cn_storage.resize(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) {
      cn_storage[static_cast<size_t>(c)] =
          SquaredNorm(centers.Row(first_center + c), d);
    }
    center_norms = cn_storage.data();
  }
  CenterPanels panels;
  panels.Pack(centers, first_center);
  BatchNearestMerge(points, rows, point_norms, panels, center_norms,
                    kernel, best_d2, best_index);
}

void BatchTopM(ConstMatrixView points, IndexRange rows,
               const double* point_norms, const CenterPanels& panels,
               const double* center_norms, BatchKernel kernel, int64_t m,
               int32_t* out_index, double* out_d2) {
  KMEANSLL_CHECK_GT(m, 0);
  const int64_t n = rows.size();
  for (int64_t s = 0; s < n * m; ++s) {
    out_index[s] = -1;
    out_d2[s] = std::numeric_limits<double>::infinity();
  }
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // Sorted-insertion merge: slots hold the m best distances ascending.
  // Strict-< at every comparison means an equal later distance never
  // displaces or outranks an earlier center, so tied centers sort by
  // ascending index and slot 0 reproduces BatchNearestMerge exactly.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            IndexRange{0, panels.num_centers()},
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              double* pd = out_d2 + p * m;
              int32_t* pi = out_index + p * m;
              for (int64_t j = 0; j < count; ++j) {
                InsertTopM(d2v[j], static_cast<int32_t>(base + c_off + j), m,
                           pd, pi);
              }
            });
}

void BatchNearestMergeSubset(ConstMatrixView points, IndexRange rows,
                             const double* point_norms,
                             const CenterPanels& panels,
                             const double* center_norms, BatchKernel kernel,
                             IndexRange centers, double* best_d2,
                             int32_t* best_index) {
  KMEANSLL_CHECK(centers.begin >= 0 && centers.end <= panels.num_centers());
  if (centers.size() <= 0) return;
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // Same strict-< ascending merge as the full-set overload, with the
  // lane window clipped to the subset on the boundary panels.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            centers,
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              const int64_t j_lo = std::max<int64_t>(0, centers.begin - c_off);
              const int64_t j_hi =
                  std::min<int64_t>(count, centers.end - c_off);
              double* bd = best_d2 + p;
              int32_t* bi = best_index + p;
              for (int64_t j = j_lo; j < j_hi; ++j) {
                if (d2v[j] < *bd) {
                  *bd = d2v[j];
                  *bi = static_cast<int32_t>(base + c_off + j);
                }
              }
            });
}

void BatchTopMSubset(ConstMatrixView points, IndexRange rows,
                     const double* point_norms, const CenterPanels& panels,
                     const double* center_norms, BatchKernel kernel,
                     IndexRange centers, int64_t m, int32_t* out_index,
                     double* out_d2) {
  KMEANSLL_CHECK_GT(m, 0);
  KMEANSLL_CHECK(centers.begin >= 0 && centers.end <= panels.num_centers());
  const int64_t n = rows.size();
  for (int64_t s = 0; s < n * m; ++s) {
    out_index[s] = -1;
    out_d2[s] = std::numeric_limits<double>::infinity();
  }
  if (centers.size() <= 0) return;
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // BatchTopM's sorted-insertion merge, lane-clipped to the subset.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            centers,
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              const int64_t j_lo = std::max<int64_t>(0, centers.begin - c_off);
              const int64_t j_hi =
                  std::min<int64_t>(count, centers.end - c_off);
              double* pd = out_d2 + p * m;
              int32_t* pi = out_index + p * m;
              for (int64_t j = j_lo; j < j_hi; ++j) {
                InsertTopM(d2v[j], static_cast<int32_t>(base + c_off + j), m,
                           pd, pi);
              }
            });
}

void BatchDistances(ConstMatrixView points, IndexRange rows,
                    const double* point_norms, const CenterPanels& panels,
                    const double* center_norms, BatchKernel kernel,
                    double* out_d2) {
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t k = panels.num_centers();
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            IndexRange{0, k},
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              std::memcpy(out_d2 + p * k + c_off, d2v,
                          static_cast<size_t>(count) * sizeof(double));
            });
}

const char* BatchKernelIsa() {
  return kUseAvx512 ? "avx512" : kUseAvx2 ? "avx2" : "scalar";
}

double PairSquaredL2(const double* a, const double* b, int64_t dim) {
  if (kUseAvx2) return PairSqFma(a, b, dim);
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) {
    double e = a[t] - b[t];
    acc += e * e;
  }
  return acc;
}

double PairDotProduct(const double* a, const double* b, int64_t dim) {
  if (kUseAvx2) return PairDotFma(a, b, dim);
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) acc += a[t] * b[t];
  return acc;
}

}  // namespace kmeansll
