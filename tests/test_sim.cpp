#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "rtree/exec.hpp"
#include "sim/client_cpu.hpp"
#include "sim/dvfs.hpp"
#include "sim/server_cpu.hpp"

namespace mosaiq::sim {
namespace {

using rtree::InstrMix;
namespace simaddr = rtree::simaddr;

TEST(ClientCpu, OneCyclePerInstruction) {
  ClientCpu cpu{ClientConfig{}};
  cpu.instr(InstrMix{100, 20, 30});
  EXPECT_EQ(cpu.instructions(), 150u);
  // Cycles = instructions + I-cache cold-miss stalls (cold code region).
  EXPECT_GE(cpu.busy_cycles(), 150u);
  EXPECT_EQ(cpu.busy_cycles() - cpu.stall_cycles(), 150u);
}

TEST(ClientCpu, ReadCountsWordLoads) {
  ClientCpu cpu{ClientConfig{}};
  cpu.read(simaddr::kDataBase, 76);
  EXPECT_EQ(cpu.instructions(), 19u);  // ceil(76/4)
  EXPECT_GE(cpu.dcache_stats().misses, 1u);
  EXPECT_LE(cpu.dcache_stats().misses, 4u);  // 76 B span at most 4 x 32 B lines
}

TEST(ClientCpu, CacheMissesStall) {
  ClientConfig cfg;
  ClientCpu cpu{cfg};
  // Two reads of the same line: first misses (+100 cycles), second hits.
  cpu.read(simaddr::kDataBase, 4);
  const std::uint64_t after_miss = cpu.busy_cycles();
  cpu.read(simaddr::kDataBase, 4);
  const std::uint64_t after_hit = cpu.busy_cycles();
  EXPECT_GE(after_miss, cfg.mem_latency_cycles);
  // mosaiq-lint: allow(unsigned-wrap) — busy_cycles() is cumulative; after_hit >= after_miss
  EXPECT_LT(after_hit - after_miss, cfg.mem_latency_cycles);
}

TEST(ClientCpu, EnergyAccumulatesPerComponent) {
  ClientCpu cpu{ClientConfig{}};
  cpu.instr(InstrMix{1000, 100, 200});
  cpu.read(simaddr::kDataBase, 1024);
  cpu.write(simaddr::kScratchBase, 256);
  const EnergyBreakdown& e = cpu.energy();
  EXPECT_GT(e.datapath_j, 0.0);
  EXPECT_GT(e.clock_j, 0.0);
  EXPECT_GT(e.icache_j, 0.0);
  EXPECT_GT(e.dcache_j, 0.0);
  EXPECT_GT(e.dram_j, 0.0);  // cold misses
  EXPECT_GT(e.bus_j, 0.0);
  EXPECT_DOUBLE_EQ(e.idle_j, 0.0);
  EXPECT_NEAR(e.total_j(),
              e.datapath_j + e.clock_j + e.icache_j + e.dcache_j + e.bus_j + e.dram_j, 1e-18);
}

TEST(ClientCpu, MulCostsMoreThanAlu) {
  ClientCpu a{ClientConfig{}};
  ClientCpu b{ClientConfig{}};
  a.instr(InstrMix{1000, 0, 0});
  b.instr(InstrMix{0, 1000, 0});
  EXPECT_LT(a.energy().datapath_j, b.energy().datapath_j);
  EXPECT_EQ(a.busy_cycles(), b.busy_cycles());  // timing identical
}

TEST(ClientCpu, ICacheWarmsUp) {
  ClientCpu cpu{ClientConfig{}};
  cpu.instr(InstrMix{100000, 0, 0});
  // The 8 KB footprint is walked once (2048 fetches, one miss per 32 B
  // line); after that every fetch hits and the stats stay put.
  const CacheStats& ic = cpu.icache_stats();
  EXPECT_EQ(ic.accesses, 2048u);
  EXPECT_EQ(ic.hits, 1792u);
  EXPECT_EQ(ic.misses, 256u);
  EXPECT_EQ(ic.writebacks, 0u);
  EXPECT_EQ(cpu.stall_cycles(), 25600u);  // 256 misses x 100 cycles

  ClientCpu cold{ClientConfig{}};
  cold.instr(InstrMix{100, 0, 0});
  EXPECT_EQ(cold.icache_stats().accesses, 100u);
  EXPECT_EQ(cold.icache_stats().misses, 13u);  // PCs 0, 32, ..., 384
}

/// The client model with its I-cache warm-up walked one fetch at a time:
/// each walk fetch adds its I-cache energy and, when its PC starts a
/// line, one bus and one DRAM transfer.  ClientCpu computes the walk in
/// closed form and must match this bit for bit.
class PerFetchClient final : public rtree::ExecHooks {
 public:
  explicit PerFetchClient(const ClientConfig& cfg) : cfg_(cfg), dcache_(cfg.dcache) {
    t_.icache_nj = cacti_lite_nj(cfg.icache) * cfg.energy_scale;
    t_.dcache_nj = cacti_lite_nj(cfg.dcache) * cfg.energy_scale;
    for (double* nj : {&t_.alu_nj, &t_.mul_nj, &t_.branch_nj, &t_.mem_op_nj, &t_.clock_nj,
                       &t_.bus_line_nj, &t_.dram_line_nj}) {
      *nj *= cfg.energy_scale;
    }
  }

  void instr(const InstrMix& mix) override {
    const std::uint64_t n = mix.total();
    if (n == 0) return;
    instructions_ += n;
    cycles_ += n;
    fetch(n);
    e_.datapath_j +=
        (mix.alu * t_.alu_nj + mix.mul * t_.mul_nj + mix.branch * t_.branch_nj) * kNanojoule;
    e_.clock_j += static_cast<double>(n) * t_.clock_nj * kNanojoule;
  }
  void read(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, false); }
  void write(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, true); }

  /// A busy-poll wait charges the spin's energy and cache traffic but
  /// is not compute: the busy and stall cycles end where they started.
  void busy_poll(double seconds) {
    const std::uint64_t cycles = cycles_;
    const std::uint64_t stalls = stalls_;
    const auto iters = static_cast<std::uint64_t>(seconds * cfg_.clock_hz() / 4.0);
    for (std::uint64_t i = 0; i < iters; i += 1u << 16) {
      const std::uint64_t chunk = std::min<std::uint64_t>(1u << 16, iters - i);
      instr(InstrMix{chunk, 0, chunk});
      read(simaddr::kNetBase, 4);
      if (chunk > 1) {
        instructions_ += chunk - 1;
        fetch(chunk - 1);
        e_.datapath_j += static_cast<double>(chunk - 1) * t_.mem_op_nj * kNanojoule;
        e_.clock_j += static_cast<double>(chunk - 1) * t_.clock_nj * kNanojoule;
        e_.dcache_j += static_cast<double>(chunk - 1) * t_.dcache_nj * kNanojoule;
      }
    }
    cycles_ = cycles;
    stalls_ = stalls;
  }

  std::uint64_t fetches() const { return fetches_; }  ///< walk or not
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t busy_cycles() const { return cycles_; }
  std::uint64_t stall_cycles() const { return stalls_; }
  const EnergyBreakdown& energy() const { return e_; }
  const CacheStats& icache_stats() const { return icache_; }
  const CacheStats& dcache_stats() const { return dcache_.stats(); }

 private:
  void fetch(std::uint64_t n) {
    fetches_ += n;
    const std::uint64_t walk = cfg_.code_footprint_bytes / 4;
    while (n > 0 && icache_.accesses < walk) {
      const std::uint64_t pc = 0x10'0000ull + 4 * icache_.accesses;
      ++icache_.accesses;
      if ((pc & (cfg_.icache.line_bytes - 1)) == 0) {
        ++icache_.misses;
        stalls_ += cfg_.mem_latency_cycles;
        cycles_ += cfg_.mem_latency_cycles;
        e_.bus_j += t_.bus_line_nj * kNanojoule;
        e_.dram_j += t_.dram_line_nj * kNanojoule;
      } else {
        ++icache_.hits;
      }
      e_.icache_j += t_.icache_nj * kNanojoule;
      --n;
    }
    if (n > 0) e_.icache_j += static_cast<double>(n) * t_.icache_nj * kNanojoule;
  }

  void access(std::uint64_t addr, std::uint32_t bytes, bool is_write) {
    if (bytes == 0) return;
    const std::uint64_t line = cfg_.dcache.line_bytes;
    const std::uint64_t first = addr / line;
    const std::uint64_t last = (addr + bytes - 1) / line;
    const std::uint64_t words = (bytes + 3) / 4;
    instructions_ += words;
    cycles_ += words * cfg_.cache_hit_cycles;
    fetch(words);
    e_.datapath_j += static_cast<double>(words) * t_.mem_op_nj * kNanojoule;
    e_.clock_j += static_cast<double>(words) * t_.clock_nj * kNanojoule;
    // mosaiq-lint: allow(unsigned-wrap) — bytes > 0, so last >= first
    const std::uint64_t lines = last - first + 1;
    if (words > lines) {
      e_.dcache_j += static_cast<double>(words - lines) * t_.dcache_nj * kNanojoule;
    }
    for (std::uint64_t l = first; l <= last; ++l) {
      const auto r = dcache_.access(l * line, is_write);
      e_.dcache_j += t_.dcache_nj * kNanojoule;
      if (!r.hit) {
        stalls_ += cfg_.mem_latency_cycles;
        cycles_ += cfg_.mem_latency_cycles;
        e_.clock_j += static_cast<double>(cfg_.mem_latency_cycles) * t_.clock_nj * kNanojoule;
        e_.bus_j += t_.bus_line_nj * kNanojoule;
        e_.dram_j += t_.dram_line_nj * kNanojoule;
      }
      if (r.writeback) {
        e_.bus_j += t_.bus_line_nj * kNanojoule;
        e_.dram_j += t_.dram_line_nj * kNanojoule;
      }
    }
  }

  ClientConfig cfg_;
  EnergyTable t_;
  Cache dcache_;
  CacheStats icache_;
  std::uint64_t fetches_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t stalls_ = 0;
  EnergyBreakdown e_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ClientCpu, ICacheCountersMatchASimulatedICache) {
  // Drive the closed-form warm-up, the per-fetch walk and a real Cache
  // over the walk's PC stream, kCodeBase + 4 i wrapping at the footprint,
  // through the same calls; compare after every call.
  ClientConfig dvfs = client_at_opp(default_opp_ladder().front());
  ASSERT_NE(dvfs.energy_scale, 1.0);
  std::vector<ClientConfig> configs = {ClientConfig{}, dvfs};
  for (const CacheConfig icache : {CacheConfig{16 * 1024, 2, 64}, CacheConfig{8 * 1024, 1, 16}}) {
    configs.push_back(ClientConfig{});
    configs.back().icache = icache;
  }
  struct Step {
    char op;  // 'i' instr, 'r' read, 'w' write, 'p' busy poll
    std::uint64_t n;  // instructions, bytes, or nanoseconds of polling
    std::uint64_t addr = 0;
  };
  // At 125 MHz the calls end after 1, 7, 8, 9, 34, 100, 116, 209, 300,
  // 309, 2047, 2049, 2050, ... fetches: reads and writes that miss the
  // D-cache and a busy-poll wait land in the middle of the 2048-fetch
  // walk, a write straddles its end, and the 32 KB read writes the dirty
  // lines back.
  const std::vector<Step> steps = {
      {'i', 1},    {'i', 6},   {'r', 4, simaddr::kDataBase},
      {'i', 1},    {'w', 100, simaddr::kScratchBase},
      {'i', 66},   {'r', 64, simaddr::kDataBase + 3 * 8192 + 30},
      {'p', 1000}, {'i', 91},  {'w', 36, simaddr::kScratchBase + 4096 + 4},
      {'i', 1738}, {'w', 8, simaddr::kScratchBase + 200},
      {'i', 1},    {'r', 32 * 1024, simaddr::kDataBase + 64 * 1024},
      {'i', 2951}, {'p', 500000},  {'i', 15000}};
  for (const ClientConfig& cfg : configs) {
    SCOPED_TRACE(::testing::Message() << "line " << cfg.icache.line_bytes << " energy_scale "
                                      << cfg.energy_scale);
    ClientCpu cpu{cfg};
    PerFetchClient ref{cfg};
    Cache real(cfg.icache);
    const std::uint64_t walk = cfg.code_footprint_bytes / 4;
    std::uint64_t fetched = 0;
    for (const Step& step : steps) {
      switch (step.op) {
        case 'i':
          cpu.instr(InstrMix{step.n, 0, 0});
          ref.instr(InstrMix{step.n, 0, 0});
          break;
        case 'r':
          cpu.read(step.addr, static_cast<std::uint32_t>(step.n));
          ref.read(step.addr, static_cast<std::uint32_t>(step.n));
          break;
        case 'w':
          cpu.write(step.addr, static_cast<std::uint32_t>(step.n));
          ref.write(step.addr, static_cast<std::uint32_t>(step.n));
          break;
        default:
          cpu.wait_seconds(1e-9 * static_cast<double>(step.n), WaitPolicy::BusyPoll);
          ref.busy_poll(1e-9 * static_cast<double>(step.n));
          break;
      }
      for (; fetched < ref.fetches(); ++fetched) {
        real.access(0x10'0000ull + 4 * (fetched % walk), false);
      }
      SCOPED_TRACE(::testing::Message() << "after " << fetched << " fetches");
      const CacheStats& model = cpu.icache_stats();
      // Every fetch after the walk hits, so the misses never diverge...
      EXPECT_EQ(model.misses, real.stats().misses);
      // ...and the model's stats freeze once the walk is done.
      EXPECT_EQ(model.accesses, std::min(fetched, walk));
      if (fetched <= walk) {
        EXPECT_EQ(model.hits, real.stats().hits);
        EXPECT_EQ(model.accesses, real.stats().accesses);
      }

      EXPECT_EQ(model.accesses, ref.icache_stats().accesses);
      EXPECT_EQ(model.hits, ref.icache_stats().hits);
      EXPECT_EQ(model.misses, ref.icache_stats().misses);
      EXPECT_EQ(model.writebacks, ref.icache_stats().writebacks);
      EXPECT_EQ(cpu.dcache_stats().misses, ref.dcache_stats().misses);
      EXPECT_EQ(cpu.dcache_stats().writebacks, ref.dcache_stats().writebacks);
      EXPECT_EQ(cpu.instructions(), ref.instructions());
      EXPECT_EQ(cpu.busy_cycles(), ref.busy_cycles());
      EXPECT_EQ(cpu.stall_cycles(), ref.stall_cycles());
      const EnergyBreakdown& a = cpu.energy();
      const EnergyBreakdown& b = ref.energy();
      EXPECT_EQ(bits(a.datapath_j), bits(b.datapath_j));
      EXPECT_EQ(bits(a.clock_j), bits(b.clock_j));
      EXPECT_EQ(bits(a.icache_j), bits(b.icache_j));
      EXPECT_EQ(bits(a.dcache_j), bits(b.dcache_j));
      EXPECT_EQ(bits(a.bus_j), bits(b.bus_j));
      EXPECT_EQ(bits(a.dram_j), bits(b.dram_j));
      EXPECT_EQ(bits(a.idle_j), bits(b.idle_j));
    }
    // The steps reached the D-cache paths the walk interleaves with.
    EXPECT_GT(ref.dcache_stats().writebacks, 0u);
    EXPECT_GT(fetched, walk);
  }
}

TEST(ClientCpu, ClientPowerIsInPaperRegime) {
  // The energy balance of the paper requires the client CPU to draw well
  // below the NIC's 100 mW idle power while active.
  ClientCpu cpu{client_at_ratio(1.0 / 8.0)};
  for (int i = 0; i < 100; ++i) {
    cpu.instr(InstrMix{800, 100, 200});
    cpu.read(simaddr::kDataBase + (i % 64) * 1024, 256);
  }
  const double p = cpu.average_active_power_w();
  EXPECT_GT(p, 0.02);
  EXPECT_LT(p, 0.25);
}

TEST(ClientCpu, WaitPolicyEnergyOrdering) {
  const double wait_s = 0.05;
  ClientCpu poll{ClientConfig{}};
  ClientCpu block{ClientConfig{}};
  ClientCpu lowp{ClientConfig{}};
  poll.wait_seconds(wait_s, WaitPolicy::BusyPoll);
  block.wait_seconds(wait_s, WaitPolicy::Block);
  lowp.wait_seconds(wait_s, WaitPolicy::BlockLowPower);
  const double ep = poll.energy().total_j();
  const double eb = block.energy().total_j();
  const double el = lowp.energy().total_j();
  EXPECT_GT(ep, eb);
  EXPECT_GT(eb, el);
  // Section 5.2: blocking cuts the receive-phase energy by more than
  // half relative to polling.
  EXPECT_GT(ep, 2.0 * eb);
  EXPECT_GT(el, 0.0);
}

TEST(ClientCpu, BusyPollExercisesCaches) {
  ClientCpu poll{ClientConfig{}};
  poll.wait_seconds(0.01, WaitPolicy::BusyPoll);
  EXPECT_GT(poll.icache_stats().accesses + poll.instructions(), 0u);
  EXPECT_GT(poll.energy().icache_j, 0.0);  // "keeps hitting the I-cache"
  EXPECT_GT(poll.energy().dcache_j, 0.0);
}

TEST(ClientCpu, ClockRatioHelper) {
  const ClientConfig c8 = client_at_ratio(1.0 / 8.0);
  EXPECT_DOUBLE_EQ(c8.clock_mhz, 125.0);
  const ClientConfig c2 = client_at_ratio(0.5);
  EXPECT_DOUBLE_EQ(c2.clock_mhz, 500.0);
}

// --- server ------------------------------------------------------------

TEST(ServerCpu, IssueWidthDividesCycles) {
  ServerCpu cpu{ServerConfig{}};
  cpu.instr(InstrMix{4000, 0, 0});
  EXPECT_EQ(cpu.cycles(), 1000u);
}

TEST(ServerCpu, MemoryStallsAreDiscounted) {
  ServerConfig cfg;
  ServerCpu cpu{cfg};
  // One cold L1+L2 miss: stall = l2_hit + mem, discounted by overlap.
  cpu.read(simaddr::kDataBase, 4);
  const double raw_stall = cfg.l2_hit_cycles + cfg.mem_latency_cycles + cfg.tlb_miss_cycles;
  EXPECT_LE(cpu.cycles(), static_cast<std::uint64_t>(raw_stall) + 1);
  EXPECT_GE(cpu.cycles(), static_cast<std::uint64_t>(raw_stall * (1.0 - cfg.stall_overlap)));
}

TEST(ServerCpu, L2CatchesL1Misses) {
  ServerConfig cfg;
  ServerCpu cpu{cfg};
  // Touch 64 KB (doesn't fit 32 KB L1, fits 1 MB L2) twice.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) cpu.read(simaddr::kDataBase + a, 4);
  }
  EXPECT_GT(cpu.l1d_stats().misses, 1024u);     // second pass still misses L1
  EXPECT_EQ(cpu.l2_stats().misses, 512u);       // but L2 (128 B lines) only misses cold
}

TEST(ServerCpu, TlbMissesCounted) {
  ServerConfig cfg;
  ServerCpu cpu{cfg};
  // Touch more pages than TLB entries, twice, with LRU-hostile stride.
  const std::uint32_t pages = cfg.tlb_entries + 8;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t p = 0; p < pages; ++p) {
      cpu.read(simaddr::kDataBase + std::uint64_t{p} * cfg.page_bytes, 4);
    }
  }
  EXPECT_GE(cpu.tlb_misses(), pages);  // cyclic sweep defeats LRU
}

/// Address streams for TlbReference: runs of 64 B lines (repeat hits on
/// the last entry, and page crossings), each starting at a random line
/// of a random page.  Both streams draw from about 3 * tlb_entries + 8
/// pages, so they overflow the TLB at every size.
enum class TlbStream {
  /// Pages 7 apart in the data region.
  Scattered,
  /// The first pages of the five region bases, interleaved.  Every base
  /// is a page that is 0 mod 1024, so a slot masked from the page number,
  /// or one trusted without checking its entry, would alias them.
  RegionBases,
};

struct TlbCase {
  TlbStream stream;
  std::uint32_t entries;
};

const char* stream_name(TlbStream s) {
  return s == TlbStream::Scattered ? "Scattered" : "RegionBases";
}

void PrintTo(const TlbCase& c, std::ostream* os) {
  *os << '{' << stream_name(c.stream) << ", " << c.entries << '}';
}

class TlbReference : public ::testing::TestWithParam<TlbCase> {};

TEST_P(TlbReference, MatchesLinearScanLru) {
  ServerConfig cfg;
  cfg.tlb_entries = GetParam().entries;
  ServerCpu cpu{cfg};
  // Reference: a fully-associative LRU list, most recent page first.
  std::vector<std::uint64_t> lru;
  std::uint64_t ref_misses = 0;
  const auto ref_lookup = [&](std::uint64_t page) {
    const auto it = std::find(lru.begin(), lru.end(), page);
    if (it != lru.end()) {
      lru.erase(it);
    } else {
      ++ref_misses;
      if (lru.size() == cfg.tlb_entries) lru.pop_back();
    }
    lru.insert(lru.begin(), page);
  };
  constexpr std::uint64_t kRegionBases[] = {simaddr::kIndexBase, simaddr::kDataBase,
                                            simaddr::kScratchBase, simaddr::kNetBase,
                                            simaddr::kNetBase + (4u << 20)};
  const std::uint64_t pages = 3ull * cfg.tlb_entries + 8;
  const int runs = 3000;
  std::mt19937_64 rng(13);
  for (int run = 0; run < runs; ++run) {
    std::uint64_t addr = 0;
    if (GetParam().stream == TlbStream::Scattered) {
      addr = simaddr::kDataBase + rng() % pages * 7 * cfg.page_bytes;
    } else {
      addr = kRegionBases[rng() % std::size(kRegionBases)];
      addr += rng() % (pages / std::size(kRegionBases) + 1) * cfg.page_bytes;
    }
    addr += rng() % 64 * 64;
    const std::uint64_t lines = 1 + rng() % 96;
    for (std::uint64_t l = 0; l < lines; ++l, addr += 64) {
      cpu.read(addr, 4);
      ref_lookup(addr / cfg.page_bytes);
    }
    ASSERT_EQ(cpu.tlb_misses(), ref_misses) << "run " << run;
  }
  EXPECT_GT(ref_misses, std::uint64_t{runs} / 3);  // the stream really does overflow the TLB
}

// One entry, a small TLB, the Table-4 TLB, and one whose entry indices
// need more than 8 bits.
INSTANTIATE_TEST_SUITE_P(
    Streams, TlbReference,
    ::testing::Values(TlbCase{TlbStream::Scattered, 64}, TlbCase{TlbStream::Scattered, 1},
                      TlbCase{TlbStream::Scattered, 8}, TlbCase{TlbStream::Scattered, 300},
                      TlbCase{TlbStream::RegionBases, 64}, TlbCase{TlbStream::RegionBases, 1},
                      TlbCase{TlbStream::RegionBases, 8}, TlbCase{TlbStream::RegionBases, 300}),
    [](const ::testing::TestParamInfo<TlbCase>& info) {
      return std::string(stream_name(info.param.stream)) + "_" +
             std::to_string(info.param.entries);
    });

TEST(ServerCpu, MuchFasterThanClientOnSameWork) {
  // The premise of offloading: identical work, ~order-of-magnitude
  // fewer wall-clock seconds on the server (4-issue + 8x clock).
  ClientCpu client{client_at_ratio(1.0 / 8.0)};
  ServerCpu server{ServerConfig{}};
  for (int i = 0; i < 200; ++i) {
    const InstrMix mix{2000, 200, 400};
    client.instr(mix);
    server.instr(mix);
    client.read(simaddr::kDataBase + (i % 100) * 76, 32);
    server.read(simaddr::kDataBase + (i % 100) * 76, 32);
  }
  EXPECT_GT(client.busy_seconds(), 10.0 * server.seconds());
}

}  // namespace
}  // namespace mosaiq::sim
