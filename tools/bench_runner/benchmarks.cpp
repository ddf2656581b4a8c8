// The mosaiq-bench registry: one timed kernel per hot layer of the
// stack — index build, query execution, serialization, transport under
// faults, the simulated memory hierarchy, fleet stepping, and the perf
// substrate itself.  Sizes are chosen so the full suite runs in seconds
// at the default repetition count: the gate compares relative medians
// across builds, not absolute paper-scale numbers (those stay with the
// fig*/abl_* harnesses).
//
// The shared dataset comes from perf::BuildCache, so it is constructed
// once per process no matter how many benchmarks (or repetitions) touch
// it; per-benchmark `setup` pulls it into the cache outside the timed
// region.  The build/* entries rebuild their index on every repetition
// on purpose: the build is what they time.
#include "benchmarks.hpp"

#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "core/fleet.hpp"
#include "core/session.hpp"
#include "hilbert/hilbert.hpp"
#include "net/fault.hpp"
#include "net/protocol.hpp"
#include "perf/build_cache.hpp"
#include "perf/benchmark.hpp"
#include "rtree/buddy_tree.hpp"
#include "rtree/dynamic_rtree.hpp"
#include "rtree/exec.hpp"
#include "rtree/hilbert_rtree.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/pmr_quadtree.hpp"
#include "rtree/rstar_tree.hpp"
#include "rtree/shipment.hpp"
#include "serial/buffer.hpp"
#include "serial/messages.hpp"
#include "sim/cache.hpp"
#include "sim/client_cpu.hpp"
#include "sim/config.hpp"
#include "sim/server_cpu.hpp"
#include "stats/parallel.hpp"
#include "workload/dataset.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::bench_runner {

namespace {

constexpr std::uint32_t kSegments = 20000;  // PA profile, bench-sized

workload::DatasetSpec spec() { return workload::pa_spec(kSegments); }

const workload::Dataset& data() {
  // Held by the process-wide BuildCache; every benchmark shares it.
  static std::shared_ptr<const workload::Dataset> d =
      perf::BuildCache::shared().dataset(spec());
  return *d;
}

core::SessionConfig session_config(core::Scheme scheme) {
  core::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

std::vector<rtree::Query> queries(rtree::QueryKind kind, std::size_t n,
                                  std::uint64_t seed = 42) {
  workload::QueryGen gen(data(), seed);
  return gen.batch(kind, n);
}

/// Filter + refine over a batch of point and range queries, charged to
/// `hooks`; returns the answer count.  A template over the hooks type,
/// as the kernels are, so the sim/ entries time the copy compiled for
/// their machine model (the one Session and the fleet run).
template <typename Hooks>
std::uint64_t filter_refine(const std::vector<rtree::Query>& qs, Hooks& hooks) {
  std::vector<std::uint32_t> cand;
  std::vector<std::uint32_t> ids;
  std::uint64_t answers = 0;
  for (const rtree::Query& q : qs) {
    cand.clear();
    ids.clear();
    if (const auto* pq = std::get_if<rtree::PointQuery>(&q)) {
      data().tree.filter_point(pq->p, hooks, cand);
      rtree::refine_point(data().store, pq->p, cand, hooks, ids);
    } else {
      const geom::Rect& w = std::get<rtree::RangeQuery>(q).window;
      data().tree.filter_range(w, hooks, cand);
      rtree::refine_range(data().store, w, cand, hooks, ids);
    }
    answers += ids.size();
  }
  return answers;
}

void add(const char* name, std::function<void()> setup,
         std::function<std::uint64_t()> run) {
  perf::BenchRegistry::shared().add({name, std::move(setup), std::move(run)});
}

}  // namespace

void register_all_benchmarks() {
  // --- build: dataset generation and every index family -------------
  add("build/dataset", {}, [] {
    // Uncached on purpose: this is the cost BuildCache amortizes.
    const workload::Dataset d = workload::make_dataset(workload::pa_spec(5000));
    return static_cast<std::uint64_t>(d.store.size());
  });
  add("build/packed_rtree", [] { data(); }, [] {
    const rtree::PackedRTree t =
        rtree::PackedRTree::build(data().store, rtree::SortOrder::PreSorted);
    return static_cast<std::uint64_t>(t.node_count());
  });
  add("build/dynamic_rtree", [] { data(); }, [] {
    const rtree::DynamicRTree t = rtree::DynamicRTree::build(data().store);
    return static_cast<std::uint64_t>(data().store.size());
  });
  add("build/hilbert_rtree", [] { data(); }, [] {
    const rtree::HilbertRTree t = rtree::HilbertRTree::build(data().store);
    return static_cast<std::uint64_t>(data().store.size());
  });
  add("build/rstar_tree", [] { data(); }, [] {
    const rtree::RStarTree t = rtree::RStarTree::build(data().store);
    return static_cast<std::uint64_t>(data().store.size());
  });
  add("build/buddy_tree", [] { data(); }, [] {
    const rtree::BuddyTree t = rtree::BuddyTree::build(data().store);
    return static_cast<std::uint64_t>(data().store.size());
  });
  add("build/pmr_quadtree", [] { data(); }, [] {
    const rtree::PmrQuadtree t = rtree::PmrQuadtree::build(data().store, {64, 12});
    return static_cast<std::uint64_t>(data().store.size());
  });
  add("build/cache_hit", [] { data(); }, [] {
    // The memoized path the harnesses actually take: hash + map lookup.
    std::uint64_t total = 0;
    for (int i = 0; i < 64; ++i) {
      total += perf::BuildCache::shared().dataset(spec())->store.size();
    }
    return total / 64;
  });

  // --- query kernels over the packed R-tree -------------------------
  add("query/point_filter", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Point, 256);
    std::vector<std::uint32_t> out;
    std::uint64_t answers = 0;
    for (const rtree::Query& q : qs) {
      out.clear();
      data().tree.filter_point(std::get<rtree::PointQuery>(q).p, rtree::null_hooks(), out);
      answers += out.size();
    }
    return answers;
  });
  add("query/range_filter", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Range, 64);
    std::vector<std::uint32_t> out;
    std::uint64_t answers = 0;
    for (const rtree::Query& q : qs) {
      out.clear();
      data().tree.filter_range(std::get<rtree::RangeQuery>(q).window, rtree::null_hooks(),
                               out);
      answers += out.size();
    }
    return answers;
  });
  add("query/nn", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::NN, 128);
    std::uint64_t found = 0;
    for (const rtree::Query& q : qs) {
      found += data()
                   .tree.nearest(std::get<rtree::NNQuery>(q).p, data().store,
                                 rtree::null_hooks())
                   .has_value();
    }
    return found;
  });
  add("query/knn", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Knn, 64);
    std::uint64_t found = 0;
    for (const rtree::Query& q : qs) {
      found += data()
                   .tree
                   .nearest_k(std::get<rtree::KnnQuery>(q).p, 16, data().store,
                              rtree::null_hooks())
                   .size();
    }
    return found;
  });

  add("query/point_filter_refine", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Point, 256);
    return filter_refine(qs, rtree::null_hooks());
  });
  add("query/range_filter_refine", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Range, 64);
    return filter_refine(qs, rtree::null_hooks());
  });
  add("query/shipment_extract", [] { data(); }, [] {
    // A 128 KiB client budget is about a tenth of this store, as 1 MB
    // is of the full PA dataset.
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Range, 16);
    std::uint64_t shipped = 0;
    for (const rtree::Query& q : qs) {
      shipped += rtree::extract_shipment(data().tree, data().store,
                                         std::get<rtree::RangeQuery>(q).window, {128 * 1024},
                                         rtree::ShipPolicy::HilbertRange, rtree::null_hooks())
                     .ids.size();
    }
    return shipped;
  });

  // --- serialization round trips ------------------------------------
  add("serial/shipment_roundtrip", [] { data(); }, [] {
    static const rtree::Shipment ship = rtree::extract_shipment(
        data().tree, data().store, geom::Rect{{0.45, 0.45}, {0.55, 0.55}}, {512 * 1024},
        rtree::ShipPolicy::HilbertRange, rtree::null_hooks());
    serial::ShipmentResponse msg;
    msg.safe_rect = ship.safe_rect;
    msg.node_count = ship.node_count;
    msg.records.reserve(ship.ids.size());
    for (std::size_t i = 0; i < ship.ids.size(); ++i) {
      msg.records.push_back({ship.segments[i], ship.ids[i]});
    }
    serial::ByteWriter w;
    msg.encode(w);
    serial::ByteReader r(w.data());
    const serial::ShipmentResponse back = serial::ShipmentResponse::decode(r);
    return static_cast<std::uint64_t>(back.records.size());
  });
  add("serial/idlist_roundtrip", {}, [] {
    serial::IdListResponse msg;
    msg.ids.resize(50000);
    for (std::uint32_t i = 0; i < msg.ids.size(); ++i) msg.ids[i] = i * 7;
    serial::ByteWriter w;
    msg.encode(w);
    serial::ByteReader r(w.data());
    return static_cast<std::uint64_t>(serial::IdListResponse::decode(r).ids.size());
  });

  // --- transport / link-fault machinery ------------------------------
  add("session/range_batch", [] { data(); }, [] {
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Range, 10);
    const stats::Outcome o = core::Session::run_batch(
        data(), session_config(core::Scheme::FullyAtServer), qs);
    return o.answers;
  });
  add("net/faulty_transfer_plan", {}, [] {
    net::LinkFaultModel fault(net::bursty_loss_config(0.2, /*seed=*/9));
    net::RetryConfig retry;
    std::uint64_t frames = 0;
    double t = 0;
    for (int i = 0; i < 2000; ++i) {
      const net::TransferPlan plan =
          net::plan_transfer(fault, /*payload_bytes=*/8192, /*mtu_bytes=*/1500,
                             /*header_bytes=*/40, /*bits_per_s=*/4e6, retry, t);
      frames += plan.transmissions;
      t += plan.air_s + plan.wait_s;
    }
    return frames;
  });

  // --- the simulated machine model -----------------------------------
  add("sim/server_mem_access", {}, [] {
    // A fresh server memory hierarchy fed a fixed stream of 32 B reads
    // that alternate among the index, data, scratch and net regions, as
    // the query kernels hop between nodes, records, result lists and
    // protocol buffers.  The 56 working pages fit the 64-entry TLB, so
    // most reads hit an entry other than the last one used; one read in
    // 64 lands on a cold data page, so entries are also evicted.
    static const std::vector<std::uint64_t> addrs = [] {
      struct Region {
        std::uint64_t base;
        std::uint64_t pages;
      };
      const Region regions[] = {{rtree::simaddr::kIndexBase, 24},
                                {rtree::simaddr::kDataBase, 24},
                                {rtree::simaddr::kScratchBase, 4},
                                {rtree::simaddr::kNetBase, 4}};
      const std::uint64_t page_bytes = sim::ServerConfig{}.page_bytes;
      std::mt19937_64 rng(29);
      std::vector<std::uint64_t> out(200000);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Region& r = regions[i % std::size(regions)];
        const bool cold = rng() % 64 == 0;
        out[i] = cold ? rtree::simaddr::kDataBase + (24 + rng() % 1000) * page_bytes
                      : r.base + rng() % (r.pages * page_bytes);
      }
      return out;
    }();
    sim::ServerCpu cpu{sim::ServerConfig{}};
    for (const std::uint64_t a : addrs) cpu.read(a, 32);
    return static_cast<std::uint64_t>(addrs.size());
  });

  add("sim/client_fetch_warmup", [] { data(); }, [] {
    // Client start-up the way run_fleet pays it: 10,000 clients of one
    // config sharing one ClientConstants, each charged the protocol work
    // of one FullyAtServer point request and its one-answer response,
    // which walks most of the I-cache warm-up.
    static const net::WireCost request = [] {
      serial::QueryRequest req;
      req.op = serial::RemoteOp::FullQuery;
      req.query = queries(rtree::QueryKind::Point, 1).front();
      return net::wire_cost(req.encoded_size());
    }();
    const net::WireCost response = net::wire_cost(4 + 4);
    const auto constants = std::make_shared<const sim::ClientConstants>(
        session_config(core::Scheme::FullyAtServer).client);
    std::vector<std::unique_ptr<sim::ClientCpu>> clients;
    clients.reserve(10000);
    for (int k = 0; k < 10000; ++k) {
      clients.push_back(std::make_unique<sim::ClientCpu>(constants));
      net::charge_protocol_tx(request, *clients.back());
      net::charge_protocol_rx(response, *clients.back());
    }
    return static_cast<std::uint64_t>(clients.size());
  });

  add("sim/dcache_access", {}, [] {
    // The client's 8 KB D-cache fed a fixed stream: sequential word
    // reads, which mostly hit, alternating with reads spread over 16 MB,
    // which mostly miss.
    static const std::vector<std::uint64_t> addrs = [] {
      std::mt19937_64 rng(31);
      std::vector<std::uint64_t> out(200000);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = i % 2 == 0 ? rtree::simaddr::kIndexBase + 2 * i : rng() % (1u << 24);
      }
      return out;
    }();
    sim::Cache cache(sim::ClientConfig{}.dcache);
    for (const std::uint64_t a : addrs) cache.access(a, false);
    return static_cast<std::uint64_t>(addrs.size());
  });

  add("sim/client_range_query", [] { data(); }, [] {
    // Filter + refine charged to a fresh instrumented client model: the
    // D-cache, I-cache warm-up and energy accounting every simulated
    // client query pays.
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Range, 64);
    sim::ClientCpu cpu{session_config(core::Scheme::FullyAtClient).client};
    return filter_refine(qs, cpu);
  });

  add("sim/server_point_query", [] { data(); }, [] {
    // Point filter + refine charged to a fresh server memory model: the
    // fleet's stage-2 kernel under FullyAtServer, whose node and record
    // scans mostly repeat the line and page of the access before.
    static const std::vector<rtree::Query> qs = queries(rtree::QueryKind::Point, 256);
    sim::ServerCpu cpu{session_config(core::Scheme::FullyAtServer).server};
    return filter_refine(qs, cpu);
  });

  // --- Hilbert keys -----------------------------------------------------
  add("hilbert/key", {}, [] {
    static const std::vector<geom::Point> points = [] {
      std::mt19937_64 rng(37);
      std::uniform_real_distribution<double> u(0.0, 1.0);
      std::vector<geom::Point> out(100000);
      for (geom::Point& p : out) p = {u(rng), u(rng)};
      return out;
    }();
    const hilbert::Mapper mapper({{0, 0}, {1, 1}});
    for (const geom::Point& p : points) mapper.hilbert_key(p);
    return static_cast<std::uint64_t>(points.size());
  });

  // --- fleet stepping -------------------------------------------------
  add("fleet/step_8clients", [] { data(); }, [] {
    core::FleetConfig fleet;
    fleet.clients = 8;
    fleet.queries_per_client = 4;
    fleet.think_time_s = 0.1;
    const core::FleetOutcome o =
        core::run_fleet(data(), session_config(core::Scheme::FullyAtServer), fleet);
    return o.answers;
  });

  add("fleet/churn_replicated", [] { data(); }, [] {
    // The full robustness stack: batteries draining, churn killing,
    // replicas racing, reassignment — the event loop's worst case.
    core::FleetConfig fleet;
    fleet.clients = 8;
    fleet.queries_per_client = 4;
    fleet.think_time_s = 0.1;
    fleet.battery.enabled = true;
    fleet.battery.pack.capacity_mah = 0.1;
    fleet.battery.min_initial_charge = 0.05;
    fleet.battery.max_initial_charge = 0.5;
    fleet.churn.departure_rate_per_s = 0.1;
    fleet.churn.seed = 7;
    fleet.replication = 2;
    fleet.scheduler.enabled = true;
    const core::FleetOutcome o =
        core::run_fleet(data(), session_config(core::Scheme::FullyAtServer), fleet);
    return o.units_answered + o.answers;
  });

  add("fleet/step_100k", [] { data(); }, [] {
    // Fleet scale: 100k clients, one point query each, all contending
    // for the one medium and server.
    core::FleetConfig fleet;
    fleet.clients = 100000;
    fleet.queries_per_client = 1;
    fleet.think_time_s = 0.05;
    fleet.query_kind = rtree::QueryKind::Point;
    const core::FleetOutcome o =
        core::run_fleet(data(), session_config(core::Scheme::FullyAtServer), fleet);
    return o.units_answered;
  });

  add("fleet/zipf_hotspots_100k", [] { data(); }, [] {
    // 100k clients drawing from 1000 Zipf-skewed shared query streams:
    // the server's caches see the popularity skew real point-of-
    // interest traffic produces.
    core::FleetConfig fleet;
    fleet.clients = 100000;
    fleet.queries_per_client = 1;
    fleet.think_time_s = 0.05;
    fleet.query_kind = rtree::QueryKind::Point;
    fleet.hotspots = 1000;
    fleet.zipf_theta = 0.9;
    const core::FleetOutcome o =
        core::run_fleet(data(), session_config(core::Scheme::FullyAtServer), fleet);
    return o.units_answered;
  });

  // --- the perf substrate itself --------------------------------------
  add("perf/parallel_map", {}, [] {
    const auto out = stats::parallel_map<std::uint64_t>(512, [](std::size_t i) {
      std::uint64_t acc = 0;
      for (std::size_t k = 0; k < 20000; ++k) acc += k ^ i;
      return acc;
    });
    return static_cast<std::uint64_t>(out.size());
  });
}

}  // namespace mosaiq::bench_runner
