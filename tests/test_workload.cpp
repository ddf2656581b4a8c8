#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "rng/lazy_mt19937_64.hpp"
#include "workload/dataset.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::workload {
namespace {

TEST(Dataset, CardinalityMatchesSpec) {
  const Dataset d = make_pa(5000);
  EXPECT_EQ(d.store.size(), 5000u);
  EXPECT_EQ(d.tree.node_count(), rtree::packed_node_count(5000));
  EXPECT_TRUE(d.tree.validate(d.store));
}

TEST(Dataset, Deterministic) {
  const Dataset a = make_pa(2000);
  const Dataset b = make_pa(2000);
  ASSERT_EQ(a.store.size(), b.store.size());
  for (std::uint32_t i = 0; i < a.store.size(); ++i) {
    EXPECT_EQ(a.store.segment(i), b.store.segment(i));
    EXPECT_EQ(a.store.id(i), b.store.id(i));
  }
}

TEST(Dataset, FootprintsMatchPaperScale) {
  // Full-size stand-ins must land near the paper's reported sizes:
  // PA ~10.06 MB data / ~3.5 MB index, NYC smaller.
  const Dataset pa = make_pa();
  EXPECT_NEAR(static_cast<double>(pa.data_bytes()) / (1 << 20), 10.06, 0.5);
  EXPECT_GT(pa.index_bytes(), 2u << 20);
  EXPECT_LT(pa.index_bytes(), 4u << 20);

  const Dataset nyc = make_nyc();
  EXPECT_NEAR(static_cast<double>(nyc.data_bytes()) / (1 << 20), 2.81, 0.3);
  EXPECT_LT(nyc.index_bytes(), pa.index_bytes());
}

TEST(Dataset, SegmentsAreShortStreets) {
  const Dataset d = make_pa(10000);
  double total_len = 0;
  for (const auto& s : d.store.segments()) {
    total_len += s.length();
    EXPECT_LE(s.length(), 0.03);  // no cross-county "streets"
  }
  EXPECT_LT(total_len / d.store.size(), 0.01);
}

TEST(Dataset, UrbanCoresAreDenser) {
  const DatasetSpec spec = pa_spec(50000);
  const Dataset d = make_dataset(spec);
  // Count segments near the heaviest cluster vs an empty-ish corner.
  const geom::Point core = spec.clusters[1].center;
  const geom::Rect urban{{core.x - 0.03, core.y - 0.03}, {core.x + 0.03, core.y + 0.03}};
  const geom::Rect rural{{0.95, 0.45}, {1.0, 0.51}};  // off-cluster band, same area
  EXPECT_GT(d.tree.count_range(urban), 4 * d.tree.count_range(rural));
}

TEST(Dataset, NycIsMoreClusteredThanPa) {
  const Dataset pa = make_pa(30000);
  const Dataset nyc = make_nyc(30000);
  // Measure concentration: fraction of segments inside the densest 10%
  // of the extent around the main core.
  auto concentration = [](const Dataset& d, const geom::Point& core) {
    const geom::Rect w{{core.x - 0.16, core.y - 0.16}, {core.x + 0.16, core.y + 0.16}};
    return static_cast<double>(d.tree.count_range(w)) / static_cast<double>(d.store.size());
  };
  EXPECT_GT(concentration(nyc, {0.50, 0.52}), concentration(pa, {0.58, 0.26}));
}

TEST(QueryGen, PointQueriesHitEndpoints) {
  const Dataset d = make_pa(3000);
  QueryGen gen(d, 1);
  for (int i = 0; i < 50; ++i) {
    const rtree::PointQuery q = gen.point_query();
    bool is_endpoint = false;
    for (const auto& s : d.store.segments()) {
      if (s.a == q.p || s.b == q.p) {
        is_endpoint = true;
        break;
      }
    }
    EXPECT_TRUE(is_endpoint);
  }
}

TEST(QueryGen, RangeWindowsRespectPaperDistribution) {
  const Dataset d = make_pa(3000);
  QueryGen gen(d, 2);
  const double extent_area = d.extent.area();
  for (int i = 0; i < 100; ++i) {
    const rtree::RangeQuery q = gen.range_query();
    const double frac = q.window.area() / extent_area;
    // Clipping at the extent boundary can only shrink windows.
    EXPECT_GT(frac, 0.0);
    EXPECT_LE(frac, 1.01e-2);
    EXPECT_TRUE(d.extent.contains(q.window));
  }
}

TEST(QueryGen, NNPointsInsideExtent) {
  const Dataset d = make_pa(3000);
  QueryGen gen(d, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(d.extent.contains(gen.nn_query().p));
  }
}

TEST(QueryGen, BatchesAreReproducible) {
  const Dataset d = make_pa(3000);
  QueryGen g1(d, 9);
  QueryGen g2(d, 9);
  const auto b1 = g1.batch(rtree::QueryKind::Range, 20);
  const auto b2 = g2.batch(rtree::QueryKind::Range, 20);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(std::get<rtree::RangeQuery>(b1[i]).window,
              std::get<rtree::RangeQuery>(b2[i]).window);
  }
}

TEST(QueryGen, EmptyDatasetThrowsInsteadOfIndexing) {
  const Dataset d = make_pa(0);
  ASSERT_EQ(d.store.size(), 0u);
  QueryGen gen(d, 1);
  EXPECT_THROW(gen.point_query(), std::invalid_argument);
  EXPECT_THROW(gen.range_query(), std::invalid_argument);
  EXPECT_THROW(gen.route_query(), std::invalid_argument);
  EXPECT_THROW(gen.batch(rtree::QueryKind::Point, 3), std::invalid_argument);
}

// --- the lazily twisted engine ------------------------------------------

/// 101 distinct seeds: 0, 2^64 - 1, the std default seed, two fleet
/// QueryGen streams (seed * 1000 + stream), and the fleet's per-client
/// forms seed * golden + k (hotspots) and seed * golden + k + 1 (churn,
/// batteries) for k < 24, each form with two base seeds of its own.
std::vector<std::uint64_t> engine_seeds() {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::vector<std::uint64_t> seeds = {0, ~std::uint64_t{0}, 5489, 3000, 3001};
  for (std::uint64_t k = 0; k < 24; ++k) {
    for (const std::uint64_t base : {std::uint64_t{1}, std::uint64_t{20031}}) {
      seeds.push_back(base * kGolden + k);
    }
    for (const std::uint64_t base : {std::uint64_t{5}, std::uint64_t{6}}) {
      seeds.push_back(base * kGolden + k + 1);
    }
  }
  return seeds;
}

TEST(LazyMt19937_64, RawOutputsMatchStdMt19937_64) {
  // 10^4 draws cross the lazy first block (156 outputs), the first full
  // twist (312) and later blocks (624, ...).
  std::vector<std::uint64_t> seeds = engine_seeds();
  std::sort(seeds.begin(), seeds.end());
  ASSERT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  ASSERT_GE(seeds.size(), 100u);
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 want(seed);
    rng::LazyMt19937_64 got(seed);
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t w = want();
      const std::uint64_t g = got();
      if (w != g) {
        ADD_FAILURE() << "seed " << seed << " draw " << i << ": " << g << " != " << w;
        break;
      }
    }
  }
}

TEST(LazyMt19937_64, QueryGenDistributionsMatchStdMt19937_64) {
  // The distributions QueryGen draws, interleaved as a query batch would,
  // read the same values from either engine.
  for (const std::uint64_t seed : engine_seeds()) {
    std::mt19937_64 want(seed);
    rng::LazyMt19937_64 got(seed);
    std::uniform_int_distribution<std::uint32_t> pick(0, 139005);
    std::bernoulli_distribution end(0.5);
    std::uniform_real_distribution<double> log_area(std::log(1e-4), std::log(1e-2));
    std::normal_distribution<double> drift_w(0.0, 0.5);
    std::normal_distribution<double> drift_g(0.0, 0.5);  // caches its second value
    for (int i = 0; i < 2500; ++i) {
      ASSERT_EQ(pick(got), pick(want)) << "seed " << seed << " step " << i;
      ASSERT_EQ(end(got), end(want)) << "seed " << seed << " step " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(log_area(got)),
                std::bit_cast<std::uint64_t>(log_area(want)))
          << "seed " << seed << " step " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(drift_g(got)),
                std::bit_cast<std::uint64_t>(drift_w(want)))
          << "seed " << seed << " step " << i;
    }
  }
}

TEST(ProximityWorkload, BurstStructure) {
  const Dataset d = make_pa(3000);
  const auto bursts = make_proximity_workload(d, 4, 10, 0.01, 7);
  ASSERT_EQ(bursts.size(), 4u);
  for (const auto& b : bursts) {
    ASSERT_EQ(b.queries.size(), 11u);  // anchor + 10 follow-ups
    const geom::Point c = b.queries[0].window.center();
    for (std::size_t i = 1; i < b.queries.size(); ++i) {
      const geom::Point fc = b.queries[i].window.center();
      // Follow-up centers stay near the anchor (jitter + clipping slack).
      EXPECT_LT(std::abs(fc.x - c.x), 0.08);
      EXPECT_LT(std::abs(fc.y - c.y), 0.08);
    }
  }
}

TEST(ProximityWorkload, FollowUpAreaBoundsHonored) {
  const Dataset d = make_pa(3000);
  const auto bursts = make_proximity_workload(d, 2, 20, 0.005, 11, 1e-5, 1e-4);
  const double extent_area = d.extent.area();
  for (const auto& b : bursts) {
    for (std::size_t i = 1; i < b.queries.size(); ++i) {
      EXPECT_LE(b.queries[i].window.area() / extent_area, 1.01e-4);
    }
  }
}

}  // namespace
}  // namespace mosaiq::workload
