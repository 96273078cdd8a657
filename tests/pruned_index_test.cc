// Pruned-index determinism tests: the two-level pruned CenterIndex is
// BITWISE identical to the flat index — every query
// surface (AssignOne / AssignRange / AssignBatch / AssignTopM /
// AssignTopMRange), every kernel regime (plain d < 32, expanded
// d >= 32), every data regime (isotropic gaussian where pruning has no
// power, clustered where it has lots), and adversarial duplicate-center
// ties where the coarse clustering scatters equal-distance centers
// across different groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/model_io.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/model_server.h"
#include "parallel/thread_pool.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using serving::CenterIndex;
using serving::CenterIndexOptions;
using serving::ModelServer;
using serving::PruneStats;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      m.At(i, j) = scale * rng.NextGaussian();
    }
  }
  return m;
}

// Blob mixture: `blobs` means at scale 8, unit jitter. This is the
// regime where the triangle-inequality bounds actually prune; the
// gaussian regime above exercises the same code with near-zero prune
// power (every group survives the bound).
Matrix ClusteredMatrix(int64_t rows, int64_t cols, int64_t blobs,
                       uint64_t seed) {
  rng::Rng rng(seed);
  Matrix means(blobs, cols);
  for (int64_t b = 0; b < blobs; ++b) {
    for (int64_t j = 0; j < cols; ++j) {
      means.At(b, j) = 8.0 * rng.NextGaussian();
    }
  }
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t b = static_cast<int64_t>(rng.NextUInt64() %
                                           static_cast<uint64_t>(blobs));
    for (int64_t j = 0; j < cols; ++j) {
      m.At(i, j) = means.At(b, j) + rng.NextGaussian();
    }
  }
  return m;
}

CenterIndexOptions PrunedOptions(int64_t num_groups = 0) {
  CenterIndexOptions o;
  o.enable_pruning = true;
  o.min_prune_k = 1;  // tests use small k; production default is 512
  o.num_groups = num_groups;
  return o;
}

struct Shape {
  int64_t n, k, d;
};
// Plain kernel (d=8), expanded kernel (d=48), odd/tail-heavy sizes
// (257 points, 33 centers = two full panels + 1-lane tail).
const Shape kShapes[] = {{300, 9, 8}, {257, 33, 48}, {128, 17, 32}};

void ExpectBitwiseEqual(const CenterIndex& flat, const CenterIndex& pruned,
                        const Matrix& queries, const char* label) {
  const int64_t n = queries.rows();
  const int64_t k = flat.k();
  SCOPED_TRACE(label);

  // AssignOne, one query at a time.
  for (int64_t i = 0; i < n; ++i) {
    const NearestResult a = flat.AssignOne(queries.Row(i));
    const NearestResult b = pruned.AssignOne(queries.Row(i));
    ASSERT_EQ(a.index, b.index) << "query " << i;
    ASSERT_EQ(a.distance2, b.distance2) << "query " << i;
  }

  // AssignRange over the whole block, plus the null-out_d2 path.
  std::vector<int32_t> ia(n), ib(n), ic(n);
  std::vector<double> da(n), db(n);
  flat.AssignRange(queries.view(), IndexRange{0, n}, ia.data(), da.data());
  pruned.AssignRange(queries.view(), IndexRange{0, n}, ib.data(), db.data());
  pruned.AssignRange(queries.view(), IndexRange{0, n}, ic.data(), nullptr);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ia[i], ib[i]) << "range query " << i;
    ASSERT_EQ(da[i], db[i]) << "range query " << i;
    ASSERT_EQ(ia[i], ic[i]) << "range (null d2) query " << i;
  }

  // AssignBatch: clusters AND the Kahan-folded cost, serial and pooled.
  Dataset data{Matrix(queries)};
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const Assignment a = flat.AssignBatch(data, p);
    const Assignment b = pruned.AssignBatch(data, p);
    ASSERT_EQ(a.cluster, b.cluster);
    ASSERT_EQ(a.cost, b.cost) << "cost must be bitwise, pool=" << (p != nullptr);
  }

  // AssignTopM at several m, including m > k (padded contract).
  for (const int64_t m : {int64_t{1}, int64_t{3}, k + 5}) {
    for (int64_t i = 0; i < std::min<int64_t>(n, 40); ++i) {
      std::vector<int32_t> ta, tb;
      std::vector<double> tda, tdb;
      const int64_t fa = flat.AssignTopM(queries.Row(i), m, &ta, &tda);
      const int64_t fb = pruned.AssignTopM(queries.Row(i), m, &tb, &tdb);
      ASSERT_EQ(fa, fb);
      ASSERT_EQ(ta, tb) << "top-" << m << " query " << i;
      ASSERT_EQ(tda, tdb) << "top-" << m << " query " << i;
      // Slot 0 is the bitwise nearest — same contract as AssignOne.
      const NearestResult one = pruned.AssignOne(queries.Row(i));
      ASSERT_EQ(static_cast<int64_t>(ta[0]), one.index);
      ASSERT_EQ(tda[0], one.distance2);
    }
  }

  // AssignTopMRange over the block.
  const int64_t m = std::min<int64_t>(4, k);
  std::vector<int32_t> ra(n * m), rb(n * m);
  std::vector<double> rda(n * m), rdb(n * m);
  flat.AssignTopMRange(queries.view(), IndexRange{0, n}, m, ra.data(),
                       rda.data());
  pruned.AssignTopMRange(queries.view(), IndexRange{0, n}, m, rb.data(),
                         rdb.data());
  ASSERT_EQ(ra, rb);
  ASSERT_EQ(rda, rdb);
}

TEST(PrunedIndexTest, BitwiseIdenticalToFlatAcrossSeedsAndShapes) {
  for (const Shape& s : kShapes) {
    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      for (const bool clustered : {false, true}) {
        Matrix centers =
            clustered ? ClusteredMatrix(s.k, s.d, 4, seed * 31 + s.d)
                      : RandomMatrix(s.k, s.d, seed * 31 + s.d, 3.0);
        Matrix queries =
            clustered ? ClusteredMatrix(s.n, s.d, 4, seed * 77 + s.d)
                      : RandomMatrix(s.n, s.d, seed * 77 + s.d, 3.0);
        const auto flat = CenterIndex::Build(Matrix(centers));
        // Auto group count and an adversarially tiny explicit one.
        for (const int64_t g : {int64_t{0}, int64_t{2}}) {
          const auto pruned =
              CenterIndex::Build(Matrix(centers), PrunedOptions(g));
          ASSERT_TRUE(pruned->pruned());
          char label[96];
          std::snprintf(label, sizeof(label),
                        "n=%lld k=%lld d=%lld seed=%llu clustered=%d g=%lld",
                        static_cast<long long>(s.n),
                        static_cast<long long>(s.k),
                        static_cast<long long>(s.d),
                        static_cast<unsigned long long>(seed),
                        clustered ? 1 : 0, static_cast<long long>(g));
          ExpectBitwiseEqual(*flat, *pruned, queries, label);
        }
      }
    }
  }
}

TEST(PrunedIndexTest, DuplicateCenterTiesResolveIdentically) {
  // Duplicate centers placed FAR apart in index order: the flat scan
  // resolves the tie to the lowest original index via strict-<; the
  // pruned scan must do the same even though the coarse clustering puts
  // the duplicates in (potentially) different groups visited in bound
  // order, not index order.
  for (const int64_t d : {int64_t{8}, int64_t{48}}) {
    Matrix centers = RandomMatrix(24, d, 5, 4.0);
    for (int64_t j = 0; j < d; ++j) {
      centers.At(7, j) = centers.At(2, j);    // dup pair (2, 7)
      centers.At(23, j) = centers.At(0, j);   // dup pair (0, 23)
      centers.At(15, j) = centers.At(14, j);  // adjacent dup (14, 15)
    }
    const auto flat = CenterIndex::Build(Matrix(centers));
    const auto pruned = CenterIndex::Build(Matrix(centers), PrunedOptions(5));
    ASSERT_TRUE(pruned->pruned());

    // Queries AT the duplicated centers (exact-zero ties) and at
    // midpoints between distinct centers (equidistant ties).
    Matrix queries(8, d);
    for (int64_t j = 0; j < d; ++j) {
      queries.At(0, j) = centers.At(2, j);
      queries.At(1, j) = centers.At(0, j);
      queries.At(2, j) = centers.At(14, j);
      queries.At(3, j) = 0.5 * (centers.At(3, j) + centers.At(9, j));
      queries.At(4, j) = 0.5 * (centers.At(1, j) + centers.At(20, j));
      queries.At(5, j) = centers.At(7, j) + 1e-9;
      queries.At(6, j) = 0.0;
      queries.At(7, j) = centers.At(23, j) - 1e-9;
    }
    ExpectBitwiseEqual(*flat, *pruned, queries, "duplicate ties");

    // Ties must land on the LOWEST index of each duplicate pair.
    EXPECT_EQ(pruned->AssignOne(queries.Row(0)).index, 2);
    EXPECT_EQ(pruned->AssignOne(queries.Row(1)).index, 0);
    EXPECT_EQ(pruned->AssignOne(queries.Row(2)).index, 14);
  }
}

TEST(PrunedIndexTest, AllIdenticalCentersDegenerate) {
  Matrix centers(16, 8);
  for (int64_t i = 0; i < 16; ++i) {
    for (int64_t j = 0; j < 8; ++j) centers.At(i, j) = 1.5;
  }
  const auto flat = CenterIndex::Build(Matrix(centers));
  const auto pruned = CenterIndex::Build(Matrix(centers), PrunedOptions());
  Matrix queries = RandomMatrix(50, 8, 17, 2.0);
  ExpectBitwiseEqual(*flat, *pruned, queries, "all-identical centers");
  EXPECT_EQ(pruned->AssignOne(queries.Row(0)).index, 0);
}

TEST(PrunedIndexTest, PruneStatsInvariants) {
  Matrix centers = ClusteredMatrix(64, 32, 6, 91);
  Matrix queries = ClusteredMatrix(200, 32, 6, 93);
  const auto index = CenterIndex::Build(Matrix(centers), PrunedOptions());
  ASSERT_TRUE(index->pruned());

  std::vector<int32_t> idx(queries.rows());
  std::vector<double> d2(queries.rows());
  index->AssignRange(queries.view(), IndexRange{0, queries.rows()},
                     idx.data(), d2.data());
  const PruneStats s = index->prune_stats();
  EXPECT_EQ(s.queries, queries.rows());
  EXPECT_EQ(s.exact_fallbacks, 0);
  // Every query scans at least one group and accounts for every
  // nonempty group exactly once (scanned or pruned) — so the sum is
  // queries x A for a fixed nonempty-group count A in [1, num_groups].
  EXPECT_GE(s.groups_scanned, s.queries);
  ASSERT_GT(s.queries, 0);
  const int64_t total = s.groups_scanned + s.groups_pruned;
  EXPECT_EQ(total % s.queries, 0);
  const int64_t active = total / s.queries;
  EXPECT_GE(active, 1);
  EXPECT_LE(active, index->num_groups());
  // Clustered data must actually prune (this is the tentpole's point).
  EXPECT_GT(s.groups_pruned, 0);
}

// Per-call counter deltas of one index.
PruneStats Delta(const PruneStats& after, const PruneStats& before) {
  PruneStats d;
  d.queries = after.queries - before.queries;
  d.groups_scanned = after.groups_scanned - before.groups_scanned;
  d.groups_pruned = after.groups_pruned - before.groups_pruned;
  d.exact_fallbacks = after.exact_fallbacks - before.exact_fallbacks;
  return d;
}

// A tile whose bounds cannot skip most groups is answered by the flat
// panels and counted as full scans; a tile whose bounds can keeps
// walking. A single row is a tile of one and takes the same rule. Every
// path stays bitwise equal to a flat twin.
TEST(PrunedIndexTest, TilesThatCannotSkipGoFlat) {
  const int64_t k = 1024, d = 64, rows = 64;
  struct Case {
    const char* name;
    Matrix centers;
    Matrix queries;
    bool expect_flat;
  };
  Case cases[] = {
      {"diffuse", RandomMatrix(k, d, 71, 10.0),
       RandomMatrix(rows, d, 72, 10.0), true},
      {"clustered", ClusteredMatrix(k, d, 32, 73), Matrix(), false},
  };
  // Clustered queries: the first centers, jittered, so they share the
  // centers' blobs.
  cases[1].queries = RandomMatrix(rows, d, 74, 0.5);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      cases[1].queries.At(i, j) += cases[1].centers.At(i, j);
    }
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto flat = CenterIndex::Build(Matrix(c.centers));
    const auto pruned =
        CenterIndex::Build(Matrix(c.centers), PrunedOptions());
    ASSERT_TRUE(pruned->pruned());

    // Single rows, with every group scanned or pruned.
    std::vector<int32_t> one_index(rows);
    std::vector<double> one_d2(rows);
    const PruneStats before_single = pruned->prune_stats();
    int64_t active = 0;
    for (int64_t i = 0; i < rows; ++i) {
      const PruneStats before = pruned->prune_stats();
      const NearestResult r = pruned->AssignOne(c.queries.Row(i));
      const PruneStats row = Delta(pruned->prune_stats(), before);
      ASSERT_EQ(row.queries, 1);
      ASSERT_GE(row.groups_scanned, 1);
      if (active == 0) active = row.groups_scanned + row.groups_pruned;
      ASSERT_EQ(row.groups_scanned + row.groups_pruned, active);
      one_index[static_cast<size_t>(i)] = static_cast<int32_t>(r.index);
      one_d2[static_cast<size_t>(i)] = r.distance2;
    }
    const PruneStats single = Delta(pruned->prune_stats(), before_single);
    // Single rows take the tiles' rule: diffuse rows go flat, counted as
    // full scans, and clustered rows still walk.
    if (c.expect_flat) {
      EXPECT_EQ(single.groups_pruned, 0);
      EXPECT_EQ(single.groups_scanned, rows * active);
    } else {
      EXPECT_GT(single.groups_pruned, 0);
    }

    // The same rows as one tile.
    std::vector<int32_t> tile_index(rows), flat_index(rows);
    std::vector<double> tile_d2(rows), flat_d2(rows);
    const PruneStats before_tile = pruned->prune_stats();
    pruned->AssignRange(c.queries.view(), IndexRange{0, rows},
                        tile_index.data(), tile_d2.data());
    const PruneStats tile = Delta(pruned->prune_stats(), before_tile);
    EXPECT_EQ(tile.queries, rows);
    EXPECT_EQ(tile.exact_fallbacks, 0);
    EXPECT_EQ(tile.groups_scanned + tile.groups_pruned, rows * active);
    if (c.expect_flat) {
      EXPECT_EQ(tile.groups_scanned, rows * active);
      EXPECT_EQ(tile.groups_pruned, 0);
    } else {
      EXPECT_GT(tile.groups_pruned, rows * active / 2);
      // Each row's walk ends in its nearest-coarse group here, so the
      // seeded walk scans no group the single-row walk did not.
      EXPECT_LE(tile.groups_scanned, single.groups_scanned);
    }

    flat->AssignRange(c.queries.view(), IndexRange{0, rows},
                      flat_index.data(), flat_d2.data());
    EXPECT_EQ(tile_index, flat_index);
    EXPECT_EQ(tile_d2, flat_d2);
    EXPECT_EQ(one_index, flat_index);
    EXPECT_EQ(one_d2, flat_d2);
    EXPECT_EQ(pruned->AssignBatch(Dataset(Matrix(c.queries))).cost,
              flat->AssignBatch(Dataset(Matrix(c.queries))).cost);
  }
}

TEST(PrunedIndexTest, FallbackBelowMinPruneK) {
  CenterIndexOptions o;
  o.enable_pruning = true;
  o.min_prune_k = 1000;  // above k: pruning requested but not built
  Matrix centers = RandomMatrix(20, 16, 7, 2.0);
  const auto index = CenterIndex::Build(Matrix(centers), o);
  EXPECT_FALSE(index->pruned());
  EXPECT_EQ(index->num_groups(), 0);

  Matrix queries = RandomMatrix(30, 16, 9, 2.0);
  const auto flat = CenterIndex::Build(Matrix(centers));
  for (int64_t i = 0; i < queries.rows(); ++i) {
    const NearestResult a = flat.get()->AssignOne(queries.Row(i));
    const NearestResult b = index->AssignOne(queries.Row(i));
    ASSERT_EQ(a.index, b.index);
    ASSERT_EQ(a.distance2, b.distance2);
  }
  EXPECT_EQ(index->prune_stats().exact_fallbacks, queries.rows());
}

TEST(PrunedIndexTest, FromModelReusesValidatedNormsBitwise) {
  const std::string path = ScratchPath("pruned_artifact.bin");
  Matrix centers = ClusteredMatrix(48, 48, 5, 13);
  data::ModelMetadata md;
  md.init_method = "k-means||";
  md.seed = 13;
  const data::ModelArtifact artifact =
      data::MakeModelArtifact(Matrix(centers), md);
  ASSERT_TRUE(data::SaveModel(artifact, path).ok());

  const Result<data::ModelArtifact> loaded = data::LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  // FromModel adopts the loader-validated norms (asserted bitwise inside
  // FreezeWithNorms against the constructor's own chain); the result
  // must serve bitwise like a from-scratch Build of the same centers.
  const auto from_model = CenterIndex::FromModel(
      *loaded, PrunedOptions(), /*version=*/3).ValueOrDie();
  const auto built = CenterIndex::Build(Matrix(centers), PrunedOptions());
  ASSERT_TRUE(from_model->pruned());
  Matrix queries = ClusteredMatrix(120, 48, 5, 29);
  ExpectBitwiseEqual(*built, *from_model, queries, "FromModel norm reuse");
  std::remove(path.c_str());
}

TEST(PrunedIndexTest, RefineAndPublishCarryPruningOptions) {
  Matrix centers = ClusteredMatrix(40, 32, 5, 3);
  ModelServer server(CenterIndex::Build(Matrix(centers), PrunedOptions()));
  ASSERT_TRUE(server.Acquire()->pruned());

  // Refine: the rebuilt snapshot inherits the options and stays pruned.
  ASSERT_TRUE(server
                  .Refine([](const CenterIndex& cur) -> Result<Matrix> {
                    Matrix next(cur.centers());
                    for (int64_t i = 0; i < next.rows(); ++i) {
                      next.At(i, 0) += 0.25;
                    }
                    return next;
                  })
                  .ok());
  const auto refined = server.Acquire();
  EXPECT_TRUE(refined->options().enable_pruning);
  EXPECT_TRUE(refined->pruned());

  // PublishFromFile: a file-published artifact inherits them too.
  const std::string path = ScratchPath("pruned_publish.bin");
  data::ModelMetadata md;
  const data::ModelArtifact artifact =
      data::MakeModelArtifact(ClusteredMatrix(56, 32, 5, 9), md);
  ASSERT_TRUE(data::SaveModel(artifact, path).ok());
  ASSERT_TRUE(server.PublishFromFile(path).ok());
  const auto published = server.Acquire();
  EXPECT_TRUE(published->options().enable_pruning);
  EXPECT_TRUE(published->pruned());
  EXPECT_EQ(published->k(), 56);
  std::remove(path.c_str());
}

// Several threads query one flat and one pruned index at once; every
// one-row answer (screened, walked or routed flat) must still be the
// unscreened engine's. Under TSan this also proves the screen's scratch
// is per call: the indexes are shared by every thread.
TEST(PrunedIndexTest, ConcurrentOneRowQueriesMatchTheEngine) {
  const int64_t k = 512, d = 64, n = 48, m = 4, threads = 4;
  const Matrix centers = ClusteredMatrix(k, d, 16, 57);
  Matrix queries = ClusteredMatrix(n, d, 16, 58);
  const Matrix diffuse = RandomMatrix(n, d, 59, 8.0);
  for (int64_t i = 1; i < n; i += 2) {
    std::copy(diffuse.Row(i), diffuse.Row(i) + d, queries.Row(i));
  }
  CenterPanels panels;
  panels.Pack(centers);
  const std::vector<double> norms = RowSquaredNorms(centers);
  std::vector<int32_t> want_index(n), want_top(n * m);
  std::vector<double> want_d2(n, std::numeric_limits<double>::infinity()),
      want_top_d2(n * m);
  BatchNearestMerge(queries.view(), IndexRange{0, n}, nullptr, panels,
                    norms.data(), BatchKernel::kExpanded, want_d2.data(),
                    want_index.data());
  BatchTopM(queries.view(), IndexRange{0, n}, nullptr, panels, norms.data(),
            BatchKernel::kExpanded, m, want_top.data(), want_top_d2.data());

  const auto flat = CenterIndex::Build(Matrix(centers));
  const auto pruned = CenterIndex::Build(Matrix(centers), PrunedOptions());
  ASSERT_TRUE(pruned->pruned());
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (int64_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (int64_t r = 0; r < 3; ++r) {
        for (int64_t j = 0; j < n; ++j) {
          const int64_t i = (j + w * 11) % n;
          for (const CenterIndex* index : {flat.get(), pruned.get()}) {
            const NearestResult one = index->AssignOne(queries.Row(i));
            std::vector<int32_t> top;
            std::vector<double> top_d2;
            index->AssignTopM(queries.Row(i), m, &top, &top_d2);
            const bool same =
                one.index == want_index[i] && one.distance2 == want_d2[i] &&
                std::equal(top.begin(), top.end(),
                           want_top.begin() + i * m) &&
                std::equal(top_d2.begin(), top_d2.end(),
                           want_top_d2.begin() + i * m);
            if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace kmeansll
