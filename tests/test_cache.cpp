#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "rtree/exec.hpp"
#include "sim/cache.hpp"
#include "sim/energy.hpp"

namespace mosaiq::sim {
namespace {

/// A timestamp-LRU cache: 24-byte lines stamped with a per-access tick,
/// the victim an invalid way or else the oldest stamp.  It lives only
/// here, as the reference that Cache's packed LRU ranks must match.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg),
        n_sets_(cfg.size_bytes / (cfg.line_bytes * cfg.assoc)),
        line_shift_(static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes))),
        lines_(std::size_t{n_sets_} * cfg.assoc) {}

  Cache::AccessResult access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    ++tick_;
    Line* base = set_of(addr);
    const std::uint64_t tag = tag_of(addr);
    Line* victim = base;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == tag) {
        ++stats_.hits;
        l.lru = tick_;
        l.dirty = l.dirty || is_write;
        return {true, false};
      }
      if (!l.valid) {
        victim = &l;
      } else if (victim->valid && l.lru < victim->lru) {
        victim = &l;
      }
    }
    ++stats_.misses;
    const bool writeback = victim->valid && victim->dirty;
    if (writeback) ++stats_.writebacks;
    *victim = Line{tag, tick_, true, is_write};
    return {false, writeback};
  }

  bool probe(std::uint64_t addr) {
    const Line* base = set_of(addr);
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].tag == tag_of(addr)) return true;
    }
    return false;
  }

  void flush() {
    for (Line& l : lines_) {
      if (l.valid && l.dirty) ++stats_.writebacks;
      l = Line{};
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  Line* set_of(std::uint64_t addr) {
    const std::uint64_t set = (addr >> line_shift_) & (n_sets_ - 1);
    return &lines_[set * cfg_.assoc];
  }
  std::uint64_t tag_of(std::uint64_t addr) const {
    return (addr >> line_shift_) >> std::countr_zero(n_sets_);
  }

  CacheConfig cfg_;
  std::uint32_t n_sets_;
  std::uint32_t line_shift_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

TEST(Cache, ColdMissThenHit) {
  Cache c({1024, 2, 32});
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101f, false).hit);   // same line
  EXPECT_FALSE(c.access(0x1020, false).hit);  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // 2-way, 32 B lines, 2 sets (128 B total).  Addresses 0, 64, 128 all
  // map to set 0.
  Cache c({128, 2, 32});
  c.access(0, false);
  c.access(64, false);
  c.access(0, false);    // 0 becomes MRU
  c.access(128, false);  // evicts 64 (LRU)
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_FALSE(c.access(64, false).hit);  // was evicted
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c({128, 1, 32});  // direct-mapped, 4 sets
  c.access(0, true);      // dirty line in set 0
  const auto r = c.access(128, false);  // conflicts, evicts dirty line
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 1u);
  // Evicting a clean line does not write back.
  const auto r2 = c.access(0, false);
  EXPECT_FALSE(r2.hit);
  EXPECT_FALSE(r2.writeback);
}

TEST(Cache, WriteAllocate) {
  Cache c({1024, 4, 32});
  EXPECT_FALSE(c.access(0x40, true).hit);
  EXPECT_TRUE(c.access(0x40, false).hit);  // allocated by the write
}

TEST(Cache, ProbeDoesNotTouchState) {
  Cache c({1024, 4, 32});
  EXPECT_FALSE(c.probe(0x40));
  c.access(0x40, false);
  EXPECT_TRUE(c.probe(0x40));
  EXPECT_EQ(c.stats().accesses, 1u);  // probe did not count
}

TEST(Cache, FlushCountsDirtyLines) {
  Cache c({1024, 4, 32});
  c.access(0x00, true);
  c.access(0x20, true);
  c.access(0x40, false);
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 2u);
  EXPECT_FALSE(c.probe(0x00));
}

TEST(Cache, FullyAssociativeSweep) {
  // 8 lines fully associative (1 set): a 9-line loop thrashes with LRU
  // (every access misses), an 8-line loop fits perfectly.
  Cache c({256, 8, 32});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 8 * 32; a += 32) c.access(a, false);
  }
  EXPECT_EQ(c.stats().misses, 8u);  // only the cold pass

  Cache c2({256, 8, 32});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 9 * 32; a += 32) c2.access(a, false);
  }
  EXPECT_EQ(c2.stats().hits, 0u);  // classic LRU pathological case
}

TEST(Cache, Table3ClientConfigsConstruct) {
  // The paper's client caches must be constructible and behave sanely.
  Cache icache({16 * 1024, 4, 32});
  Cache dcache({8 * 1024, 4, 32});
  for (std::uint64_t a = 0; a < 16 * 1024; a += 32) icache.access(a, false);
  for (std::uint64_t a = 0; a < 16 * 1024; a += 32) icache.access(a, false);
  EXPECT_DOUBLE_EQ(icache.stats().hit_rate(), 0.5);  // fits exactly: 2nd pass all hits
  (void)dcache;
}

TEST(CactiLite, MonotoneInSize) {
  const double e8k = cacti_lite_nj({8 * 1024, 4, 32});
  const double e16k = cacti_lite_nj({16 * 1024, 4, 32});
  const double e1m = cacti_lite_nj({1024 * 1024, 2, 128});
  EXPECT_GT(e16k, e8k);
  EXPECT_GT(e1m, e16k);
  // Calibration window: L1-class arrays are a fraction of a nanojoule.
  EXPECT_GT(e8k, 0.05);
  EXPECT_LT(e16k, 1.0);
}

struct SweepParam {
  std::uint32_t size;
  std::uint32_t assoc;
  std::uint32_t line;
};

class CacheSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CacheSweep, SequentialStreamMissesOncePerLine) {
  const auto p = GetParam();
  Cache c({p.size, p.assoc, p.line});
  const std::uint64_t lines = 3ull * p.size / p.line;  // 3x capacity stream
  for (std::uint64_t i = 0; i < lines; ++i) {
    for (std::uint32_t b = 0; b < p.line; b += 4) {
      c.access(i * p.line + b, false);
    }
  }
  // Streaming has no reuse: exactly one miss per line regardless of
  // geometry, everything else hits within the line.
  EXPECT_EQ(c.stats().misses, lines);
  EXPECT_EQ(c.stats().accesses, lines * (p.line / 4));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheSweep,
                         ::testing::Values(SweepParam{8 * 1024, 4, 32},
                                           SweepParam{16 * 1024, 4, 32},
                                           SweepParam{32 * 1024, 2, 64},
                                           SweepParam{1024 * 1024, 2, 128},
                                           SweepParam{1024, 1, 32},
                                           SweepParam{256, 8, 32}));

class CacheReference : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(CacheReference, PackedRanksMatchTimestampLru) {
  const CacheConfig cfg = GetParam();
  // Working sets of half, one and four times the capacity: mostly hits,
  // capacity-bound, and thrashing.
  for (const double scale : {0.5, 1.0, 4.0}) {
    SCOPED_TRACE("working set " + std::to_string(scale) + "x capacity");
    Cache cache(cfg);
    ReferenceCache ref(cfg);
    const auto span = static_cast<std::uint64_t>(scale * cfg.size_bytes);
    std::mt19937_64 rng(0x5eed + static_cast<std::uint64_t>(scale * 10) + cfg.size_bytes +
                        cfg.assoc);
    std::uniform_int_distribution<std::uint64_t> pick(0, span - 1);
    std::bernoulli_distribution write(0.3);
    std::bernoulli_distribution sequential(0.5);
    std::uint64_t addr = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      // Half the accesses step to the next word (repeat hits on the MRU
      // way), half jump anywhere in the working set.
      addr = sequential(rng) ? (addr + 4) % span : pick(rng);
      const std::uint64_t a = 0x4000'0000ull + addr;
      const bool w = write(rng);
      const Cache::AccessResult got = cache.access(a, w);
      const Cache::AccessResult want = ref.access(a, w);
      ASSERT_EQ(got.hit, want.hit) << "access " << i;
      ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
      if (i % 97 == 0) {
        const std::uint64_t p = 0x4000'0000ull + pick(rng);
        ASSERT_EQ(cache.probe(p), ref.probe(p)) << "probe after access " << i;
      }
      if (i == n / 2) {
        cache.flush();
        ref.flush();
        expect_same_stats(cache.stats(), ref.stats());
        ASSERT_FALSE(cache.probe(a));
        // The flush also forgets the last line: repeating it misses.
        const Cache::AccessResult again = cache.access(a, w);
        const Cache::AccessResult want_again = ref.access(a, w);
        ASSERT_FALSE(want_again.hit);
        ASSERT_EQ(again.hit, want_again.hit);
        ASSERT_EQ(again.writeback, want_again.writeback);
      }
    }
    expect_same_stats(cache.stats(), ref.stats());
  }

  // A fleet client's traffic: a 31 B request read from the application
  // buffer and written to the NIC buffer 4 MB on, then an 8 B response
  // back.  Both buffers start set-aligned, so only set 0 is touched.
  // Probes over twice the capacity then ask about sets never touched,
  // and after a flush the last access lands in the highest set.
  SCOPED_TRACE("fleet client traffic");
  Cache cache(cfg);
  ReferenceCache ref(cfg);
  const std::uint64_t app = rtree::simaddr::kNetBase;
  const std::uint64_t nic = app + (4u << 20);
  struct Access {
    std::uint64_t addr;
    bool write;
  };
  const Access traffic[] = {
      {app, false}, {app + 28, false}, {nic, true}, {nic + 28, true},  // request
      {nic, false}, {nic + 4, false},  {app, true}, {app + 4, true}};  // response
  for (const Access& x : traffic) {
    const Cache::AccessResult got = cache.access(x.addr, x.write);
    const Cache::AccessResult want = ref.access(x.addr, x.write);
    ASSERT_EQ(got.hit, want.hit) << "address " << x.addr;
    ASSERT_EQ(got.writeback, want.writeback) << "address " << x.addr;
  }
  for (std::uint64_t off = 0; off < 2ull * cfg.size_bytes; off += cfg.size_bytes / 64) {
    for (const std::uint64_t base : {app, nic}) {
      ASSERT_EQ(cache.probe(base + off), ref.probe(base + off)) << "probe at offset " << off;
    }
  }
  cache.flush();
  ref.flush();
  expect_same_stats(cache.stats(), ref.stats());
  const std::uint64_t highest_set = app + cfg.size_bytes / cfg.assoc - cfg.line_bytes;
  const Cache::AccessResult got = cache.access(highest_set, true);
  const Cache::AccessResult want = ref.access(highest_set, true);
  ASSERT_EQ(got.hit, want.hit);
  ASSERT_EQ(got.writeback, want.writeback);
  ASSERT_EQ(cache.probe(highest_set), ref.probe(highest_set));
  ASSERT_EQ(cache.probe(app), ref.probe(app));
  expect_same_stats(cache.stats(), ref.stats());
}

// The CacheSweep geometries, the server's 16-way buffer cache of 8 KB
// pages, and the 1-64 KB client D-caches that abl_cache_model sweeps.
INSTANTIATE_TEST_SUITE_P(Geometries, CacheReference,
                         ::testing::Values(CacheConfig{8 * 1024, 4, 32},
                                           CacheConfig{16 * 1024, 4, 32},
                                           CacheConfig{32 * 1024, 2, 64},
                                           CacheConfig{1024 * 1024, 2, 128},
                                           CacheConfig{1024, 1, 32},
                                           CacheConfig{256, 8, 32},
                                           CacheConfig{16 * 1024 * 1024, 16, 8192},
                                           CacheConfig{1024, 4, 32},
                                           CacheConfig{2 * 1024, 4, 32},
                                           CacheConfig{4 * 1024, 4, 32},
                                           CacheConfig{32 * 1024, 4, 32},
                                           CacheConfig{64 * 1024, 4, 32}),
                         [](const ::testing::TestParamInfo<CacheConfig>& info) {
                           const CacheConfig& c = info.param;
                           return std::to_string(c.size_bytes) + "B_" + std::to_string(c.assoc) +
                                  "way_" + std::to_string(c.line_bytes) + "Bline";
                         });

}  // namespace
}  // namespace mosaiq::sim
