// Workload `scale`: the scale-out path at 100k overlay nodes, past the
// last-level cache. A bare eCAN is built (join_random, bulk landmark
// vectors and numbers, build_all_tables with a RandomSelector and dense
// fill), then CompactMapService soft-state epochs run through the
// stub-sharded runner with one shard per pool thread: a publish round, a
// chunked map-lookup round and the expiry round that ends the epoch,
// one epoch per two seconds of --seconds (at least three). Pub/sub,
// selection and probing are bypassed entirely. The build repeats
// kReplicas times and the overlay lookups make kRoutePasses passes; every
// timing keeps its fastest repetition.
#include "net/streamed_build.hpp"
#include "core/selectors.hpp"
#include "replay.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

namespace {

using topo::overlay::NodeId;
using Service = topo::softstate::CompactMapService;
using Runner = topo::softstate::ShardedMapRunner<Service>;

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kWarmupNodes = 4096;
constexpr std::size_t kMapLookups = 200'000;
constexpr std::size_t kRouteLookups = 5000;
constexpr int kRoutePasses = 5;
constexpr double kLookupTime = 1000.0;
constexpr double kEpochsPerS = 0.5;

struct World {
  topo::net::Topology topology;
  std::unique_ptr<topo::net::RttOracle> oracle;
  std::unique_ptr<topo::proximity::LandmarkSet> landmarks;
};

/// Streamed topology + hierarchical RTT engine + landmark choice.
std::unique_ptr<World> make_world() {
  auto world = std::make_unique<World>();
  topo::util::Rng topo_rng(kTopologySeed);
  topo::util::Rng latency_rng(kTopologySeed ^ 0x9e3779b97f4a7c15ull);
  topo::net::StreamedBuildOptions build;
  build.latency_model = topo::net::LatencyModel::kManual;
  topo::net::StreamedWorld streamed = topo::net::build_streamed_world(
      topo::net::tsk_large(), topo_rng, latency_rng, build);
  world->topology = std::move(streamed.topology);
  world->oracle = std::make_unique<topo::net::RttOracle>(
      world->topology, std::move(streamed.engine));
  topo::proximity::LandmarkConfig landmark;
  landmark.scale_ms = 80.0;
  topo::util::Rng rng(kSystemSeed);
  world->landmarks = std::make_unique<topo::proximity::LandmarkSet>(
      topo::proximity::LandmarkSet::choose_random(world->topology, 15, rng,
                                                  landmark));
  return world;
}

struct Overlay {
  std::unique_ptr<topo::overlay::EcanNetwork> ecan;
  std::vector<topo::proximity::LandmarkVector> vectors;  // by node id
  std::vector<NodeRecord> records;
  std::vector<MapQuery> queries;
  double join_s = 0.0;
  double vectors_s = 0.0;
  double tables_s = 0.0;
  double probes = 0.0;
  std::vector<double> join_us;  // per join_random call (traced run only)
};

Overlay build_overlay(World& world, std::size_t n, std::size_t queries,
                      topo::util::Rng& rng, Tracer& tracer) {
  Overlay ov;
  ov.ecan = std::make_unique<topo::overlay::EcanNetwork>(2);
  auto& ecan = *ov.ecan;
  const std::size_t host_count = world.topology.host_count();
  std::vector<topo::net::HostId> hosts(n);
  for (auto& host : hosts)
    host = static_cast<topo::net::HostId>(rng.next_u64(host_count));
  {
    Span span(tracer, "overlay.join_random", "overlay");
    if (tracer.enabled()) ov.join_us.reserve(n);
    const auto start = Clock::now();
    for (const auto host : hosts) {
      if (tracer.enabled()) {
        const auto t0 = Clock::now();
        ecan.join_random(host, rng);
        ov.join_us.push_back(seconds_since(t0) * 1e6);
      } else {
        ecan.join_random(host, rng);
      }
    }
    ov.join_s = seconds_since(start);
  }
  // Fresh networks assign ids 0..n-1 in join order, so hosts[i] is node i.
  ov.vectors.resize(n);
  std::vector<topo::util::BigUint> numbers(n);
  {
    const double probes0 = static_cast<double>(world.oracle->probe_count());
    const auto start = Clock::now();
    {
      Span span(tracer, "proximity.measure_many", "proximity");
      std::vector<double> arena;
      world.landmarks->measure_many(*world.oracle, hosts, ov.vectors, arena);
    }
    {
      Span span(tracer, "geom.landmark_numbers", "geom");
      std::vector<std::uint32_t> coords;
      world.landmarks->landmark_numbers(ov.vectors, coords, numbers);
    }
    ov.vectors_s = seconds_since(start);
    ov.probes = static_cast<double>(world.oracle->probe_count()) - probes0;
  }
  {
    Span span(tracer, "overlay.build_all_tables", "overlay");
    topo::core::RandomSelector selector{rng.fork()};
    const auto start = Clock::now();
    ecan.build_all_tables(selector, /*dense_fill=*/true);
    ov.tables_s = seconds_since(start);
  }
  ov.records.reserve(n);
  for (NodeId id = 0; id < n; ++id)
    ov.records.push_back({id, &ov.vectors[id], std::move(numbers[id])});
  ov.queries = make_map_queries(ecan, ov.records, queries, rng);
  return ov;
}

struct Epoch {
  double publish_s = 0.0;
  double lookup_s = 0.0;
  double expire_s = 0.0;
  double hops = 0.0;
};

/// One soft-state epoch through the sharded runner on a fresh service:
/// publish at t = 0, lookups at t = 1 s, expiry of everything at TTL.
/// With `report` set, the steady state is checked and measured between
/// the lookup and expiry rounds.
Epoch run_epoch(World& world, Overlay& ov,
                const topo::softstate::MapConfig& config, Tracer& tracer,
                Report* report) {
  auto& pool = topo::util::ThreadPool::global();
  const auto shards = static_cast<std::uint32_t>(pool.size());
  Epoch e;
  Service maps(*ov.ecan, *world.landmarks, config);
  Runner runner(maps,
                topo::softstate::shard_by_stub(*ov.ecan, world.topology, shards,
                                               ov.ecan->slot_count()),
                shards, pool);
  std::vector<Runner::PublishRequest> requests;
  requests.reserve(ov.records.size());
  for (const NodeRecord& r : ov.records)
    requests.push_back({r.id, r.vector, &r.number, 0.0, 1.0});
  {
    Span span(tracer, "softstate.publish_round", "softstate");
    const auto start = Clock::now();
    e.hops = static_cast<double>(runner.publish_round(requests, 0.0));
    e.publish_s = seconds_since(start);
  }
  {
    Span span(tracer, "softstate.lookup_round", "softstate");
    const auto start = Clock::now();
    chunked_lookup_round(runner, ov.records, ov.queries, kLookupTime);
    e.lookup_s = seconds_since(start);
  }
  if (report != nullptr) {
    const auto n = static_cast<double>(ov.records.size());
    report->check(maps.check_placement_invariant(),
                  "placement invariant on the sharded publish round");
    report->e2e("softstate_bytes_per_node",
                ratio(static_cast<double>(maps.memory_bytes()), n), "B");
    report->layer("softstate.bytes_per_node",
                  ratio(static_cast<double>(maps.memory_bytes()), n), "B");
    if (tracer.enabled()) {
      replay_map_lookups(maps, ov.records, ov.queries, kLookupTime, tracer, *report);
      report->layer("softstate.expire_us",
                    replay_expiry_us(maps, kLookupTime, tracer), "us");
    }
  }
  {
    Span span(tracer, "softstate.expire_round", "softstate");
    const auto start = Clock::now();
    runner.expire_round(config.ttl_ms + 1.0);
    e.expire_s = seconds_since(start);
  }
  return e;
}

}  // namespace

Report run_scale(const Options& options, Tracer& tracer) {
  Report report;
  topo::softstate::MapConfig map_config;
  map_config.scalable_router = true;

  Samples setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i <= kSetups; ++i) {  // the first, cold one is discarded
    world.reset();
    const auto start = Clock::now();
    world = make_world();
    if (i > 0) setup_s.add(seconds_since(start));
  }

  // One discarded warm-up at a small size.
  {
    Tracer off(false);
    topo::util::Rng warm_rng = input_rng(options, 99);
    Overlay warm = build_overlay(*world, kWarmupNodes, kWarmupNodes, warm_rng, off);
    run_epoch(*world, warm, map_config, off, nullptr);
  }

  Span root(tracer, "workload.scale", "bench");
  // kReplicas identical builds (same inputs), one alive at a time; each
  // phase keeps its fastest build.
  Overlay ov;
  double join_s = 0.0, vectors_s = 0.0, tables_s = 0.0;
  for (int replica = 0; replica < kReplicas; ++replica) {
    ov = Overlay{};
    topo::util::Rng rng = input_rng(options, 2);
    ov = build_overlay(*world, kNodes, kMapLookups, rng, tracer);
    join_s = replica == 0 ? ov.join_s : std::min(join_s, ov.join_s);
    vectors_s = replica == 0 ? ov.vectors_s : std::min(vectors_s, ov.vectors_s);
    tables_s = replica == 0 ? ov.tables_s : std::min(tables_s, ov.tables_s);
  }
  const auto n = static_cast<double>(kNodes);
  const double build_s = join_s + vectors_s + tables_s;

  // Identical soft-state epochs; each round keeps its fastest epoch.
  const int epochs = work_units(options, kEpochsPerS, kReplicas);
  Epoch best;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const Epoch e = run_epoch(*world, ov, map_config, tracer,
                              epoch == 0 ? &report : nullptr);
    best.publish_s = epoch == 0 ? e.publish_s : std::min(best.publish_s, e.publish_s);
    best.lookup_s = epoch == 0 ? e.lookup_s : std::min(best.lookup_s, e.lookup_s);
    best.expire_s = epoch == 0 ? e.expire_s : std::min(best.expire_s, e.expire_s);
    best.hops = e.hops;
  }
  const double epoch_sim_s = map_config.ttl_ms / 1000.0;

  // Routed overlay lookups from random nodes to random keys, the same
  // sequence kRoutePasses times; each lookup keeps its fastest pass.
  Samples stretch, hops;
  std::vector<double> latency_us;
  {
    const auto& ecan = *ov.ecan;
    topo::overlay::RouteScratch scratch;
    Span span(tracer, "overlay.route_ecan_scalable", "overlay");
    for (int pass = 0; pass < kRoutePasses; ++pass) {
      const bool first = pass == 0;
      topo::util::Rng key_rng = probe_rng();
      std::vector<double> timings;
      timings.reserve(kRouteLookups);
      for (std::size_t q = 0; q < kRouteLookups; ++q) {
        const NodeId from = static_cast<NodeId>(key_rng.next_u64(kNodes));
        const topo::geom::Point key = topo::geom::Point::random(ecan.dims(), key_rng);
        const auto start = Clock::now();
        const bool reached = ecan.route_ecan_scalable(from, key, scratch);
        timings.push_back(seconds_since(start) * 1e6);
        if (!first) continue;
        ++report.attempted;
        if (!reached) {
          ++report.failed;
          continue;
        }
        hops.add(static_cast<double>(scratch.path.size() - 1));
        if (scratch.path.size() < 2) continue;
        const double direct = world->oracle->latency_ms(
            ecan.node(from).host, ecan.node(scratch.path.back()).host);
        if (direct <= 0.0) continue;
        stretch.add(topo::sim::path_latency_ms(ecan, *world->oracle, scratch.path) /
                    direct);
      }
      keep_fastest(latency_us, timings);
    }
  }
  Samples latency;
  for (const double us : latency_us) latency.add(us);

  report.check(ov.ecan->check_invariants(), "eCAN invariants (scale)");
  report.check(ov.ecan->check_membership_index(), "eCAN membership index (scale)");

  report.e2e("setup_s", setup_s.median(), "s");
  report.layer("core.join_per_s", ratio(n, build_s), "joins/s");
  report.e2e("stretch_p50", stretch.median(), "ratio");
  report.layer("core.lookup_us_p50", latency.median(), "us");
  report.layer("core.lookup_us_p99", latency.percentile(99.0), "us");
  report.layer("sim_s_per_s",
             ratio(epoch_sim_s, best.publish_s + best.lookup_s + best.expire_s),
             "sim-s/s");
  report.e2e("maint_hops_per_node_s", ratio(best.hops, n * epoch_sim_s), "hops/node/s");
  report.layer("softstate.publish_per_s", ratio(n, best.publish_s), "publishes/s");
  report.layer("softstate.map_lookup_per_s",
             ratio(static_cast<double>(ov.queries.size()), best.lookup_s), "lookups/s");
  std::fprintf(stderr,
               "scale: build %.2f s (join %.2f, vectors %.2f, tables %.2f), "
               "%d epochs, %u threads\n",
               build_s, join_s, vectors_s, tables_s, epochs,
               topo::util::ThreadPool::global().size());

  if (!tracer.enabled()) return report;

  Samples join_us;
  for (const double v : ov.join_us) join_us.add(v);
  report.layer("net.probes_per_join", ratio(ov.probes, n), "count");
  report.layer("overlay.join_us_p50", join_us.median(), "us");
  report.layer("overlay.join_growth", growth_ratio(ov.join_us), "ratio");
  report.layer("overlay.tables_us_per_node", ratio(tables_s * 1e6, n), "us");
  report.layer("overlay.bytes_per_node",
               ratio(static_cast<double>(ov.ecan->memory_bytes()), n), "B");
  report.layer("overlay.hops_per_lookup", hops.median(), "count");

  std::vector<topo::net::HostId> hosts;
  for (NodeId id = 0; id < 4096; ++id) hosts.push_back(ov.ecan->node(id).host);
  replay_landmark_layers(*world->oracle, *world->landmarks, hosts, tracer, report);
  topo::util::Rng replay_rng = input_rng(options, 5);
  replay_routing(*ov.ecan, /*scalable=*/true, replay_rng, tracer, report);
  replay_sharded_rounds<Service>(*ov.ecan, *world->landmarks, world->topology,
                                 map_config, ov.records, ov.queries, tracer, report);
  return report;
}

}  // namespace perfbench
