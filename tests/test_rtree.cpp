#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <type_traits>

#include "geom/predicates.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/segment_store.hpp"

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

// Brute-force oracles --------------------------------------------------------

std::vector<std::uint32_t> brute_point(const SegmentStore& store, const geom::Point& p) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    if (geom::point_on_segment(p, store.segment(i))) out.push_back(store.id(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> brute_range(const SegmentStore& store, const geom::Rect& w) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    if (geom::segment_intersects_rect(store.segment(i), w)) out.push_back(store.id(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double brute_nn_dist(const SegmentStore& store, const geom::Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    best = std::min(best, geom::point_segment_dist2(p, store.segment(i)));
  }
  return std::sqrt(best);
}

TEST(PackedNodeCount, Formula) {
  EXPECT_EQ(packed_node_count(0), 0u);
  EXPECT_EQ(packed_node_count(1), 1u);
  EXPECT_EQ(packed_node_count(kNodeCapacity), 1u);
  EXPECT_EQ(packed_node_count(kNodeCapacity + 1), 3u);  // 2 leaves + root
  // 25^2 items: 25 leaves + 1 root.
  EXPECT_EQ(packed_node_count(625), 26u);
  EXPECT_EQ(packed_node_count(626), 26u + 2u + 1u);  // 26 leaves + 2 level-1 + root
}

TEST(PackedRTree, EmptyStore) {
  SegmentStore store;
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.validate(store));
  std::vector<std::uint32_t> out;
  t.filter_range({{0, 0}, {1, 1}}, null_hooks(), out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(t.nearest({0.5, 0.5}, store, null_hooks()).has_value());
}

TEST(PackedRTree, SingleSegment) {
  SegmentStore store(std::vector<geom::Segment>{{{0.2, 0.2}, {0.4, 0.4}}});
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_TRUE(t.validate(store));

  std::vector<std::uint32_t> cand;
  t.filter_point({0.3, 0.3}, null_hooks(), cand);
  ASSERT_EQ(cand.size(), 1u);
  std::vector<std::uint32_t> ids;
  refine_point(store, {0.3, 0.3}, cand, null_hooks(), ids);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{0});

  const auto nn = t.nearest({1.0, 1.0}, store, null_hooks());
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 0u);
  EXPECT_NEAR(nn->dist, std::sqrt(2 * 0.6 * 0.6), 1e-12);
}

TEST(PackedRTree, HeightAndFootprint) {
  SegmentStore store(random_segments(10000, 3));
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  EXPECT_EQ(t.node_count(), packed_node_count(10000));
  EXPECT_EQ(t.height(), 3u);  // 400 leaves -> 16 -> 1
  EXPECT_EQ(t.bytes(), t.node_count() * kNodeBytes);
  EXPECT_TRUE(t.validate(store));
}

TEST(PackedRTree, Mbr32IsConservative) {
  // Values that don't round-trip through float exactly must expand
  // outward, never inward.
  const geom::Rect r{{0.1, 0.2}, {0.3, 0.7}};
  const Mbr32 m = Mbr32::from(r);
  EXPECT_LE(static_cast<double>(m.lox), r.lo.x);
  EXPECT_LE(static_cast<double>(m.loy), r.lo.y);
  EXPECT_GE(static_cast<double>(m.hix), r.hi.x);
  EXPECT_GE(static_cast<double>(m.hiy), r.hi.y);
}

TEST(PackedRTree, LeafSequenceIsAllLeaves) {
  SegmentStore store(random_segments(2000, 9));
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  const auto leaves = t.leaf_sequence();
  EXPECT_EQ(leaves.size(), (2000 + kNodeCapacity - 1) / kNodeCapacity);
  std::uint64_t items = 0;
  for (const auto li : leaves) {
    EXPECT_TRUE(t.node(li).is_leaf());
    items += t.node(li).count;
  }
  EXPECT_EQ(items, 2000u);
}

TEST(PackedRTree, CountRangeMatchesFilter) {
  SegmentStore store(random_segments(3000, 10));
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  const geom::Rect w{{0.4, 0.4}, {0.6, 0.6}};
  std::vector<std::uint32_t> cand;
  t.filter_range(w, null_hooks(), cand);
  EXPECT_EQ(t.count_range(w), cand.size());
}

TEST(PackedRTree, FilterIsSupersetOfAnswers) {
  SegmentStore store(random_segments(3000, 11));
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  const geom::Rect w{{0.2, 0.3}, {0.5, 0.45}};
  std::vector<std::uint32_t> cand;
  t.filter_range(w, null_hooks(), cand);
  std::vector<std::uint32_t> ids;
  refine_range(store, w, cand, null_hooks(), ids);
  const auto oracle = brute_range(store, w);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, oracle);
  EXPECT_GE(cand.size(), ids.size());
}

TEST(PackedRTree, InstrumentationCountsWork) {
  SegmentStore store(random_segments(3000, 12));
  const PackedRTree t = PackedRTree::build(store, SortOrder::Hilbert);
  CountingHooks hooks;
  std::vector<std::uint32_t> cand;
  t.filter_range({{0.1, 0.1}, {0.9, 0.9}}, hooks, cand);
  EXPECT_GT(hooks.mix().total(), 0u);
  EXPECT_GT(hooks.bytes_read(), 0u);
  // A bigger window strictly increases both work measures.
  CountingHooks small;
  std::vector<std::uint32_t> cand2;
  t.filter_range({{0.45, 0.45}, {0.55, 0.55}}, small, cand2);
  EXPECT_LT(small.mix().total(), hooks.mix().total());
  EXPECT_LT(small.bytes_read(), hooks.bytes_read());
}

// Parameterized equivalence sweep: every sort order must answer every
// query identically (packing affects performance, never correctness).
// CMake's gtest_discover_tests names each case after gtest's byte dump of
// its parameter, so every byte of TreeCase must be a value byte: the four
// bytes after `order` are an explicit zero, not padding that would carry
// stack garbage into the test names.
struct TreeCase {
  TreeCase(std::size_t n_, SortOrder order_, std::uint64_t seed_)
      : n(n_), order(order_), seed(seed_) {}

  std::size_t n;
  SortOrder order;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TreeCase>);

class PackedRTreeEquivalence : public ::testing::TestWithParam<TreeCase> {};

TEST_P(PackedRTreeEquivalence, MatchesBruteForce) {
  const auto param = GetParam();
  SegmentStore store(random_segments(param.n, param.seed));
  const PackedRTree t = PackedRTree::build(store, param.order);
  ASSERT_TRUE(t.validate(store));

  std::mt19937_64 rng(param.seed * 31 + 7);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  for (int k = 0; k < 20; ++k) {
    // Range query.
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.05, c.y - 0.02}, {c.x + 0.05, c.y + 0.02}};
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ids;
    t.filter_range(w, null_hooks(), cand);
    refine_range(store, w, cand, null_hooks(), ids);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, brute_range(store, w));

    // Point query on an actual endpoint (guaranteed non-empty).
    const geom::Point p = store.segment(static_cast<std::uint32_t>(k % store.size())).a;
    cand.clear();
    ids.clear();
    t.filter_point(p, null_hooks(), cand);
    refine_point(store, p, cand, null_hooks(), ids);
    std::sort(ids.begin(), ids.end());
    const auto oracle = brute_point(store, p);
    EXPECT_EQ(ids, oracle);
    EXPECT_FALSE(ids.empty());

    // NN query: distance must match the oracle (id may differ on ties).
    const geom::Point q{u(rng), u(rng)};
    const auto nn = t.nearest(q, store, null_hooks());
    ASSERT_TRUE(nn.has_value());
    EXPECT_NEAR(nn->dist, brute_nn_dist(store, q), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedRTreeEquivalence,
    ::testing::Values(TreeCase{24, SortOrder::Hilbert, 1}, TreeCase{25, SortOrder::Hilbert, 2},
                      TreeCase{26, SortOrder::Hilbert, 3}, TreeCase{625, SortOrder::Hilbert, 4},
                      TreeCase{1000, SortOrder::Hilbert, 5}, TreeCase{1000, SortOrder::Morton, 6},
                      TreeCase{1000, SortOrder::None, 7}, TreeCase{5000, SortOrder::Hilbert, 8}));

TEST(HilbertPacking, ImprovesRangeFilterWork) {
  // The reason the paper uses Hilbert packing: contiguous leaves cover
  // compact regions, so filtering touches fewer nodes than packing in
  // arrival order.  Compare entry tests via CountingHooks.
  auto segs = random_segments(20000, 21);
  SegmentStore store(segs);
  const PackedRTree hil = PackedRTree::build(store, SortOrder::Hilbert);
  const PackedRTree none = PackedRTree::build(store, SortOrder::None);

  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  CountingHooks ch;
  CountingHooks cn;
  for (int k = 0; k < 30; ++k) {
    const geom::Point c{u(rng), u(rng)};
    const geom::Rect w{{c.x - 0.03, c.y - 0.03}, {c.x + 0.03, c.y + 0.03}};
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    hil.filter_range(w, ch, a);
    none.filter_range(w, cn, b);
    EXPECT_EQ(a.size(), b.size());
  }
  EXPECT_LT(ch.instructions() * 2, cn.instructions());
}

}  // namespace
}  // namespace mosaiq::rtree
