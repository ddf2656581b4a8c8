#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/predicates.hpp"
#include "rtree/buddy_tree.hpp"
#include "rtree/dynamic_rtree.hpp"

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

TEST(BuddyTree, EmptyAndSmall) {
  BuddyTree t(geom::Rect{{0, 0}, {1, 1}});
  EXPECT_EQ(t.size(), 0u);
  std::vector<std::uint32_t> out;
  t.filter_range({{0, 0}, {1, 1}}, null_hooks(), out);
  EXPECT_TRUE(out.empty());

  SegmentStore store(random_segments(10, 1));
  const BuddyTree t2 = BuddyTree::build(store);
  EXPECT_TRUE(t2.validate(store));
  EXPECT_EQ(t2.node_count(), 1u);  // below capacity: root stays a leaf
}

TEST(BuddyTree, ValidatesThroughGrowth) {
  SegmentStore store(random_segments(2000, 3));
  BuddyTree t(store.extent());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    t.insert(i, store.segment(i));
    if (i % 131 == 0) {
      ASSERT_TRUE(t.validate(store)) << "after insert " << i;
    }
  }
  EXPECT_TRUE(t.validate(store));
  EXPECT_GT(t.depth(), 1u);
}

class BuddyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyEquivalence, MatchesBruteForce) {
  SegmentStore store(random_segments(2500, GetParam()));
  const BuddyTree t = BuddyTree::build(store);
  ASSERT_TRUE(t.validate(store));
  const DynamicRTree guttman = DynamicRTree::build(store);

  std::mt19937_64 rng(GetParam() * 83);
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
    const auto nb = t.nearest_k(q, 4, store, null_hooks());
    const auto ng = guttman.nearest_k(q, 4, store, null_hooks());
    ASSERT_EQ(nb.size(), ng.size());
    for (std::size_t j = 0; j < nb.size(); ++j) EXPECT_NEAR(nb[j].dist, ng[j].dist, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyEquivalence, ::testing::Values(1u, 2u));

TEST(BuddyTree, NoDuplicationUnlikeQuadtree) {
  // One record per leaf: total leaf entries equal the record count even
  // with long segments crossing many buddy cells.
  std::vector<geom::Segment> segs = random_segments(500, 7);
  segs.push_back({{0.02, 0.5}, {0.98, 0.52}});  // a cross-map street
  SegmentStore store(std::move(segs));
  const BuddyTree t = BuddyTree::build(store);
  EXPECT_TRUE(t.validate(store));  // validate counts each record exactly once
  std::vector<std::uint32_t> out;
  t.filter_range({{0.0, 0.4}, {1.0, 0.6}}, null_hooks(), out);
  EXPECT_EQ(std::count(out.begin(), out.end(), 500u), 1);
}

TEST(BuddyTree, StackedMidpointsStayBounded) {
  BuddyTree t(geom::Rect{{0, 0}, {1, 1}});
  std::vector<geom::Segment> segs;
  for (std::uint32_t i = 0; i < 200; ++i) {
    segs.push_back({{0.5, 0.5}, {0.5001, 0.5001}});
    t.insert(i, segs.back());
  }
  EXPECT_LE(t.depth(), 49u);
  std::vector<std::uint32_t> out;
  t.filter_point({0.5, 0.5}, null_hooks(), out);
  EXPECT_EQ(out.size(), 200u);
}

TEST(BuddyTree, DirectoryCellsNeverOverlap) {
  // Implied by validate()'s tiling check; assert the consequence: a
  // point query's candidate set equals exactly the entries whose MBR
  // contains the point (no duplicated visits inflate it).
  SegmentStore store(random_segments(3000, 9));
  const BuddyTree t = BuddyTree::build(store);
  std::mt19937_64 rng(10);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int k = 0; k < 20; ++k) {
    const geom::Point p = store.segment(static_cast<std::uint32_t>(k * 53 % 3000)).a;
    std::vector<std::uint32_t> cand;
    t.filter_point(p, null_hooks(), cand);
    std::sort(cand.begin(), cand.end());
    EXPECT_EQ(std::adjacent_find(cand.begin(), cand.end()), cand.end());
    std::vector<std::uint32_t> oracle;
    for (std::uint32_t i = 0; i < store.size(); ++i) {
      if (store.segment(i).mbr().contains(p)) oracle.push_back(i);
    }
    EXPECT_EQ(cand, oracle);
  }
}

TEST(BuddyTree, InstrumentationChargesWork) {
  SegmentStore store(random_segments(2000, 11));
  const BuddyTree t = BuddyTree::build(store);
  CountingHooks hooks;
  std::vector<std::uint32_t> out;
  t.filter_range({{0.3, 0.3}, {0.6, 0.6}}, hooks, out);
  EXPECT_GT(hooks.instructions(), 0u);
}

}  // namespace
}  // namespace mosaiq::rtree
