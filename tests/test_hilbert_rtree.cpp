#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/predicates.hpp"
#include "rtree/dynamic_rtree.hpp"
#include "rtree/hilbert_rtree.hpp"

namespace mosaiq::rtree {
namespace {

std::vector<geom::Segment> random_segments(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_real_distribution<double> len(-0.01, 0.01);
  std::vector<geom::Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point a{u(rng), u(rng)};
    segs.push_back({a, {a.x + len(rng), a.y + len(rng)}});
  }
  return segs;
}

std::vector<std::uint32_t> brute_range(const SegmentStore& store, const geom::Rect& w) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    if (geom::segment_intersects_rect(store.segment(i), w)) out.push_back(i);
  }
  return out;
}

TEST(HilbertRTree, EmptyAndSmall) {
  HilbertRTree t(geom::Rect{{0, 0}, {1, 1}});
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 0u);
  t.insert(0, {{0.1, 0.1}, {0.2, 0.2}});
  t.insert(1, {{0.7, 0.7}, {0.8, 0.8}});
  EXPECT_TRUE(t.validate());
  std::vector<std::uint32_t> out;
  t.filter_point({0.15, 0.15}, null_hooks(), out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(HilbertRTree, ValidatesThroughGrowth) {
  SegmentStore store(random_segments(1200, 3));
  HilbertRTree t(store.extent());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    t.insert(i, store.segment(i));
    if (i % 67 == 0) {
      ASSERT_TRUE(t.validate()) << "after insert " << i;
    }
  }
  EXPECT_EQ(t.size(), 1200u);
  EXPECT_TRUE(t.validate());
  EXPECT_GE(t.height(), 2u);
}

class HilbertDynEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HilbertDynEquivalence, MatchesBruteForce) {
  SegmentStore store(random_segments(2500, GetParam()));
  const HilbertRTree t = HilbertRTree::build(store);
  ASSERT_TRUE(t.validate());
  const DynamicRTree guttman = DynamicRTree::build(store);

  std::mt19937_64 rng(GetParam() * 61);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int k = 0; k < 12; ++k) {
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.04, c.y - 0.04}, {c.x + 0.04, c.y + 0.04}};
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ids;
    t.filter_range(w, null_hooks(), cand);
    refine_range(store, w, cand, null_hooks(), ids);
    std::sort(ids.begin(), ids.end());
    std::vector<std::uint32_t> oracle_ids;
    refine_range(store, w, brute_range(store, w), null_hooks(), oracle_ids);
    std::sort(oracle_ids.begin(), oracle_ids.end());
    EXPECT_EQ(ids, oracle_ids);

    const geom::Point q{u(rng), u(rng)};
    const auto nh = t.nearest_k(q, 4, store, null_hooks());
    const auto ng = guttman.nearest_k(q, 4, store, null_hooks());
    ASSERT_EQ(nh.size(), ng.size());
    for (std::size_t j = 0; j < nh.size(); ++j) EXPECT_NEAR(nh[j].dist, ng[j].dist, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HilbertDynEquivalence, ::testing::Values(1u, 2u));

TEST(HilbertRTree, DeferredSplittingBeatsGuttmanUtilization) {
  // The structure's headline claim: 2-to-3 deferred splits keep nodes
  // much fuller than Guttman's immediate quadratic split.
  SegmentStore store(random_segments(8000, 17));
  const HilbertRTree hil = HilbertRTree::build(store);
  const DynamicRTree gut = DynamicRTree::build(store);
  EXPECT_GT(hil.average_utilization(), 0.66);  // the paper-family ~2/3 bound
  EXPECT_LT(hil.node_count(), gut.node_count());
}

TEST(HilbertRTree, FilterWorkBelowGuttman) {
  SegmentStore store(random_segments(8000, 19));
  const HilbertRTree hil = HilbertRTree::build(store);
  const DynamicRTree gut = DynamicRTree::build(store);
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  CountingHooks ch;
  CountingHooks cg;
  for (int k = 0; k < 30; ++k) {
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.03, c.y - 0.03}, {c.x + 0.03, c.y + 0.03}};
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    hil.filter_range(w, ch, a);
    gut.filter_range(w, cg, b);
    EXPECT_EQ(a.size(), b.size());
  }
  EXPECT_LT(ch.instructions(), cg.instructions());
}

TEST(HilbertRTree, DegenerateStackedSegments) {
  // Identical midpoints give identical Hilbert keys: ordering must stay
  // stable and the structure valid.
  HilbertRTree t(geom::Rect{{0, 0}, {1, 1}});
  for (std::uint32_t i = 0; i < 200; ++i) {
    t.insert(i, {{0.5, 0.5}, {0.5001, 0.5001}});
  }
  EXPECT_TRUE(t.validate());
  std::vector<std::uint32_t> out;
  t.filter_point({0.5, 0.5}, null_hooks(), out);
  EXPECT_EQ(out.size(), 200u);
}

}  // namespace
}  // namespace mosaiq::rtree
