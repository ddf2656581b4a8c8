#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/predicates.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/pmr_quadtree.hpp"

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

TEST(PmrQuadtree, EmptyTree) {
  PmrQuadtree t(geom::Rect{{0, 0}, {1, 1}});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.node_count(), 1u);
  std::vector<std::uint32_t> out;
  t.filter_range({{0, 0}, {1, 1}}, null_hooks(), out);
  EXPECT_TRUE(out.empty());
  SegmentStore store;
  EXPECT_FALSE(t.nearest({0.5, 0.5}, store, null_hooks()).has_value());
}

TEST(PmrQuadtree, NoSplitBelowThreshold) {
  SegmentStore store(random_segments(8, 1));
  const PmrQuadtree t = PmrQuadtree::build(store, {8, 16});
  EXPECT_EQ(t.node_count(), 1u);  // root still a leaf
  EXPECT_TRUE(t.validate(store));
}

TEST(PmrQuadtree, SplitsWhenOverfull) {
  SegmentStore store(random_segments(64, 2));
  const PmrQuadtree t = PmrQuadtree::build(store, {8, 16});
  EXPECT_GT(t.node_count(), 1u);
  EXPECT_GT(t.depth(), 1u);
  EXPECT_TRUE(t.validate(store));
}

TEST(PmrQuadtree, ValidateCatchesMembership) {
  // validate() is itself exercised against a known-good build across
  // several seeds (it is the oracle the other tests rely on).
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    SegmentStore store(random_segments(300, seed));
    const PmrQuadtree t = PmrQuadtree::build(store, {6, 12});
    EXPECT_TRUE(t.validate(store)) << "seed " << seed;
  }
}

TEST(PmrQuadtree, DuplicatesAreDeduplicated) {
  // A segment spanning many cells must appear once in a range answer.
  std::vector<geom::Segment> segs = random_segments(200, 6);
  segs.push_back({{0.05, 0.5}, {0.95, 0.52}});  // long horizontal street
  SegmentStore store(std::move(segs));
  const PmrQuadtree t = PmrQuadtree::build(store, {4, 12});
  std::vector<std::uint32_t> out;
  t.filter_range({{0.0, 0.4}, {1.0, 0.6}}, null_hooks(), out);
  EXPECT_EQ(std::count(out.begin(), out.end(), 200u), 1);
}

class PmrEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PmrEquivalence, MatchesBruteForceAndRTree) {
  SegmentStore store(random_segments(2000, GetParam()));
  const PmrQuadtree quad = PmrQuadtree::build(store);
  const PackedRTree rtree = PackedRTree::build(store, SortOrder::Hilbert);
  ASSERT_TRUE(quad.validate(store));

  std::mt19937_64 rng(GetParam() * 977);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 15; ++i) {
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.05, c.y - 0.03}, {c.x + 0.05, c.y + 0.03}};

    // Range: quadtree candidates are exactly the brute-force filter set
    // (cells refine space fully, so candidates == MBR-free intersectors
    // is not guaranteed; but refined answers must match).
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ids;
    quad.filter_range(w, null_hooks(), cand);
    refine_range(store, w, cand, null_hooks(), ids);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, brute_range(store, w));

    // Point query via an endpoint.
    const geom::Point p = store.segment(static_cast<std::uint32_t>((i * 131) % store.size())).a;
    cand.clear();
    ids.clear();
    quad.filter_point(p, null_hooks(), cand);
    refine_point(store, p, cand, null_hooks(), ids);
    EXPECT_FALSE(ids.empty());

    // NN distance equals the R-tree's.
    const geom::Point q{u(rng), u(rng)};
    const auto nq = quad.nearest(q, store, null_hooks());
    const auto nr = rtree.nearest(q, store, null_hooks());
    ASSERT_TRUE(nq.has_value());
    ASSERT_TRUE(nr.has_value());
    EXPECT_NEAR(nq->dist, nr->dist, 1e-9);

    // kNN distances equal the R-tree's.
    const auto kq = quad.nearest_k(q, 7, store, null_hooks());
    const auto kr = rtree.nearest_k(q, 7, store, null_hooks());
    ASSERT_EQ(kq.size(), kr.size());
    for (std::size_t j = 0; j < kq.size(); ++j) EXPECT_NEAR(kq[j].dist, kr[j].dist, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmrEquivalence, ::testing::Values(1u, 2u, 3u));

TEST(PmrQuadtree, MaxDepthBoundsDegeneracy) {
  // Many near-identical segments through one point cannot split forever.
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 100; ++i) {
    const double eps = 1e-7 * i;
    segs.push_back({{0.5 - eps, 0.5}, {0.5 + eps, 0.5 + 1e-9}});
  }
  SegmentStore store(std::move(segs));
  const PmrQuadtree t = PmrQuadtree::build(store, {4, 8});
  EXPECT_LE(t.depth(), 9u);
  std::vector<std::uint32_t> out;
  t.filter_point({0.5, 0.5}, null_hooks(), out);
  EXPECT_GE(out.size(), 90u);  // all stacked segments found
}

TEST(PmrQuadtree, InstrumentationChargesWork) {
  SegmentStore store(random_segments(3000, 11));
  const PmrQuadtree t = PmrQuadtree::build(store);
  CountingHooks hooks;
  std::vector<std::uint32_t> out;
  t.filter_range({{0.2, 0.2}, {0.6, 0.6}}, hooks, out);
  EXPECT_GT(hooks.mix().total(), 0u);
  EXPECT_GT(hooks.bytes_read(), 0u);
}

TEST(PmrQuadtree, FootprintAccountsOverflowChains) {
  SegmentStore store(random_segments(5000, 12));
  const PmrQuadtree t = PmrQuadtree::build(store);
  EXPECT_GE(t.bytes(), t.node_count() * std::uint64_t{kQuadNodeBytes});
}

}  // namespace
}  // namespace mosaiq::rtree
