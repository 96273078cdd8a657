// Tests for the multi-tenant ServerRegistry: registration rules, named
// routing (bitwise vs the underlying snapshot), per-tenant telemetry
// accounting, and concurrent cross-tenant traffic. The deeper isolation
// regressions (overload shedding leaves other tenants untouched;
// publish-under-load leaves other snapshots untouched) live in
// serving_test.cc next to the batcher semantics they share machinery
// with; this suite covers the registry surface itself.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/server_registry.h"

namespace kmeansll {
namespace {

using serving::CenterIndex;
using serving::ServerRegistry;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

/// Tenant name "m<i>", built by appending: gcc 12 at -O2 and above
/// misreads `"m" + std::to_string(i)` as an overlapping memcpy and warns
/// under -Wrestrict.
std::string ModelName(uint64_t i) {
  std::string name = "m";
  name += std::to_string(i);
  return name;
}

TEST(ServerRegistryTest, RegisterValidation) {
  ServerRegistry registry;
  const auto index = CenterIndex::Build(RandomMatrix(4, 3, 1));
  EXPECT_TRUE(registry.Register("a", index).ok());
  // Duplicate and empty names, and a null index, are refused.
  EXPECT_TRUE(registry.Register("a", index).IsInvalidArgument());
  EXPECT_TRUE(registry.Register("", index).IsInvalidArgument());
  EXPECT_TRUE(registry.Register("b", nullptr).IsInvalidArgument());
  EXPECT_EQ(registry.num_models(), 1);
}

TEST(ServerRegistryTest, UnknownNamesFailEverywhere) {
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("known", CenterIndex::Build(RandomMatrix(4, 3, 1)))
          .ok());
  const double point[3] = {0.0, 0.0, 0.0};
  std::vector<int32_t> idx;
  std::vector<double> d2;
  EXPECT_TRUE(
      registry.Assign("missing", point).status().IsInvalidArgument());
  EXPECT_TRUE(registry.AssignTopM("missing", point, 2, &idx, &d2)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.AcquireSnapshot("missing")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.stats("missing").status().IsInvalidArgument());
  EXPECT_TRUE(registry
                  .Publish("missing", CenterIndex::Build(RandomMatrix(4, 3, 2)))
                  .IsInvalidArgument());
}

TEST(ServerRegistryTest, ModelNamesAreSorted) {
  ServerRegistry registry;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(
        registry.Register(name, CenterIndex::Build(RandomMatrix(2, 2, 1)))
            .ok());
  }
  const std::vector<std::string> names = registry.model_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
  EXPECT_EQ(registry.num_models(), 3);
}

// Named routing is real: each tenant answers from ITS model, bitwise
// identical to AssignOne on that tenant's snapshot — even when the
// models share k and d and only differ in center values.
TEST(ServerRegistryTest, RoutesToTheNamedModelBitwise) {
  const int64_t k = 16, d = 8, queries = 64;
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("a", CenterIndex::Build(RandomMatrix(k, d, 1))).ok());
  ASSERT_TRUE(
      registry.Register("b", CenterIndex::Build(RandomMatrix(k, d, 2))).ok());
  const Matrix points = RandomMatrix(queries, d, 3);
  const auto snap_a = registry.AcquireSnapshot("a").ValueOrDie();
  const auto snap_b = registry.AcquireSnapshot("b").ValueOrDie();

  int64_t diverged = 0;
  for (int64_t i = 0; i < queries; ++i) {
    const NearestResult via_a = registry.Assign("a", points.Row(i)).ValueOrDie();
    const NearestResult via_b = registry.Assign("b", points.Row(i)).ValueOrDie();
    const NearestResult want_a = snap_a->AssignOne(points.Row(i));
    const NearestResult want_b = snap_b->AssignOne(points.Row(i));
    ASSERT_EQ(via_a.index, want_a.index);
    ASSERT_EQ(via_a.distance2, want_a.distance2);
    ASSERT_EQ(via_b.index, want_b.index);
    ASSERT_EQ(via_b.distance2, want_b.distance2);
    if (via_a.index != via_b.index) ++diverged;
  }
  // Different models must actually answer differently somewhere,
  // otherwise the routing assertion above proves nothing.
  EXPECT_GT(diverged, 0);
}

TEST(ServerRegistryTest, PerTenantTelemetryAccounting) {
  const int64_t k = 8, d = 4;
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("a", CenterIndex::Build(RandomMatrix(k, d, 1))).ok());
  ASSERT_TRUE(
      registry.Register("b", CenterIndex::Build(RandomMatrix(k, d, 2))).ok());
  const Matrix points = RandomMatrix(32, d, 3);

  // 10 assigns + 3 top-m to "a"; 2 bulk (32 rows each) to "b".
  std::vector<int32_t> idx;
  std::vector<double> d2;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(registry.Assign("a", points.Row(i)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.AssignTopM("a", points.Row(i), 2, &idx, &d2).ok());
  }
  InMemorySource source(points.view(), nullptr, nullptr);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(registry.AssignBulk("b", source).ok());
  }

  const ServerRegistry::TenantStats a = registry.stats("a").ValueOrDie();
  const ServerRegistry::TenantStats b = registry.stats("b").ValueOrDie();
  EXPECT_EQ(a.batcher.queries, 10);
  EXPECT_EQ(a.batcher.served, 10);
  EXPECT_EQ(a.batcher.shed, 0);
  EXPECT_EQ(a.topm_queries, 3);
  EXPECT_EQ(a.bulk_queries, 0);
  EXPECT_EQ(a.latency.count, 13);  // served assigns + top-m
  EXPECT_GT(a.latency.sum, 0);
  EXPECT_GE(a.latency.PercentileValue(100.0), a.latency.max);

  EXPECT_EQ(b.batcher.queries, 0);
  EXPECT_EQ(b.topm_queries, 0);
  EXPECT_EQ(b.bulk_queries, 2);
  EXPECT_EQ(b.bulk_rows, 64);
  EXPECT_EQ(b.latency.count, 0);  // bulk is not a latency-path op
}

TEST(ServerRegistryTest, PublishMovesOnlyTheNamedTenant) {
  const int64_t k = 8, d = 4;
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("a", CenterIndex::Build(RandomMatrix(k, d, 1), 1))
          .ok());
  ASSERT_TRUE(
      registry.Register("b", CenterIndex::Build(RandomMatrix(k, d, 2), 1))
          .ok());
  ASSERT_TRUE(
      registry.Publish("a", CenterIndex::Build(RandomMatrix(k, d, 3), 2))
          .ok());
  EXPECT_EQ(registry.AcquireSnapshot("a").ValueOrDie()->version(), 2u);
  EXPECT_EQ(registry.AcquireSnapshot("b").ValueOrDie()->version(), 1u);
  EXPECT_EQ(registry.stats("a").ValueOrDie().server.publishes, 1);
  EXPECT_EQ(registry.stats("b").ValueOrDie().server.publishes, 0);
}

// Concurrent mixed traffic across tenants plus a concurrent Register:
// every query is answered, accounting adds up, and registration of a
// NEW tenant never disturbs in-flight queries to existing ones.
TEST(ServerRegistryTest, ConcurrentTrafficAndRegistration) {
  const int64_t k = 16, d = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  ServerRegistry registry;
  for (int m = 0; m < 3; ++m) {
    ASSERT_TRUE(registry
                    .Register(ModelName(m),
                              CenterIndex::Build(RandomMatrix(
                                  k, d, 10 + static_cast<uint64_t>(m))))
                    .ok());
  }
  const Matrix points = RandomMatrix(256, d, 3);
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rng::Rng rng(static_cast<uint64_t>(t) + 100);
      for (int i = 0; i < kPerThread; ++i) {
        const std::string name = ModelName(rng.NextBounded(3));
        const auto row =
            static_cast<int64_t>(rng.NextBounded(points.rows()));
        const auto r = registry.Assign(name, points.Row(row));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    for (int m = 3; m < 8; ++m) {
      ASSERT_TRUE(registry
                      .Register(ModelName(m),
                                CenterIndex::Build(RandomMatrix(
                                    k, d, 10 + static_cast<uint64_t>(m))))
                      .ok());
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(answered.load(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.num_models(), 8);
  int64_t total_served = 0;
  for (int m = 0; m < 3; ++m) {
    const auto s = registry.stats(ModelName(m)).ValueOrDie();
    EXPECT_EQ(s.batcher.shed, 0);
    EXPECT_EQ(s.batcher.served, s.latency.count);
    total_served += s.batcher.served;
  }
  EXPECT_EQ(total_served, int64_t{kThreads} * kPerThread);
}

}  // namespace
}  // namespace kmeansll
