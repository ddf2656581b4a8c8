#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/predicates.hpp"
#include "rtree/dynamic_rtree.hpp"
#include "rtree/rstar_tree.hpp"

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

TEST(RStarTree, EmptyAndSingle) {
  RStarTree t;
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 0u);
  t.insert(0, geom::Rect{{0.1, 0.1}, {0.2, 0.2}});
  EXPECT_TRUE(t.validate());
  std::vector<std::uint32_t> out;
  t.filter_point({0.15, 0.15}, null_hooks(), out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(RStarTree, ValidatesThroughGrowth) {
  SegmentStore store(random_segments(800, 3));
  RStarTree t;
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    t.insert(i, store.segment(i).mbr());
    if (i % 101 == 0) {
      ASSERT_TRUE(t.validate()) << "after insert " << i;
    }
  }
  EXPECT_EQ(t.size(), 800u);
  EXPECT_TRUE(t.validate());
  EXPECT_GE(t.height(), 2u);
}

class RStarEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RStarEquivalence, MatchesBruteForce) {
  SegmentStore store(random_segments(2500, GetParam()));
  const RStarTree t = RStarTree::build(store);
  ASSERT_TRUE(t.validate());
  const DynamicRTree guttman = DynamicRTree::build(store);

  std::mt19937_64 rng(GetParam() * 37);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int k = 0; k < 15; ++k) {
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

    // kNN distances match the Guttman tree's.
    const geom::Point q{u(rng), u(rng)};
    const auto kr = t.nearest_k(q, 5, store, null_hooks());
    const auto kg = guttman.nearest_k(q, 5, store, null_hooks());
    ASSERT_EQ(kr.size(), kg.size());
    for (std::size_t j = 0; j < kr.size(); ++j) EXPECT_NEAR(kr[j].dist, kg[j].dist, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarEquivalence, ::testing::Values(1u, 2u));

TEST(RStarTree, LessSiblingOverlapThanGuttman) {
  // The R* design goal: forced reinsertion + margin/overlap splits give
  // a structurally tighter tree than the quadratic-split Guttman tree.
  SegmentStore store(random_segments(8000, 11));
  const RStarTree rstar = RStarTree::build(store);
  const DynamicRTree guttman = DynamicRTree::build(store);

  // Compare filtering work: the tighter R* tree must scan fewer entries.
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  CountingHooks hr;
  CountingHooks hg;
  for (int k = 0; k < 40; ++k) {
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.03, c.y - 0.03}, {c.x + 0.03, c.y + 0.03}};
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    rstar.filter_range(w, hr, a);
    guttman.filter_range(w, hg, b);
    EXPECT_EQ(a.size(), b.size());
  }
  EXPECT_LT(hr.instructions(), hg.instructions());
  EXPECT_LT(rstar.total_sibling_overlap(), 1.0);  // finite sanity bound
}

TEST(RStarTree, ForcedReinsertionBoundsNodeCount) {
  // Reinsertion repacks nodes: the R* tree should not use more nodes
  // than the Guttman tree on the same input.
  SegmentStore store(random_segments(5000, 21));
  const RStarTree rstar = RStarTree::build(store);
  const DynamicRTree guttman = DynamicRTree::build(store);
  EXPECT_LE(rstar.node_count(), guttman.node_count());
}

TEST(RStarTree, InstrumentationChargesWork) {
  SegmentStore store(random_segments(2000, 31));
  const RStarTree t = RStarTree::build(store);
  CountingHooks hooks;
  std::vector<std::uint32_t> out;
  t.filter_range({{0.3, 0.3}, {0.6, 0.6}}, hooks, out);
  EXPECT_GT(hooks.instructions(), 0u);
}

}  // namespace
}  // namespace mosaiq::rtree
