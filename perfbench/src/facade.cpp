#include "facade.hpp"

#include "sim/metrics.hpp"

namespace perfbench {

using topo::core::SoftStateOverlay;

std::unique_ptr<FacadeSystem> make_system(const topo::core::SystemConfig& config,
                                          Tracer& tracer) {
  auto fs = std::make_unique<FacadeSystem>();
  {
    Span span(tracer, "net.generate_transit_stub", "net");
    fs->topology = make_topology();
  }
  Span span(tracer, "core.SoftStateOverlay", "core");
  fs->overlay = std::make_unique<SoftStateOverlay>(fs->topology, config);
  return fs;
}

void time_setup(const topo::core::SystemConfig& config, Samples& setup_s) {
  Tracer off(false);
  const auto start = Clock::now();
  const auto system = make_system(config, off);
  setup_s.add(seconds_since(start));
}

topo::core::SystemConfig base_config() {
  topo::core::SystemConfig config;
  config.landmark.scale_ms = 80.0;  // the landmark grid for manual latencies
  config.rtt_engine = topo::net::RttEngineKind::kAuto;
  config.seed = kSystemSeed;
  return config;
}

GrowthResult grow(SoftStateOverlay& system, std::size_t target,
                  std::size_t wave, topo::util::Rng& host_rng, Tracer& tracer) {
  GrowthResult g;
  const std::size_t host_count = system.oracle().topology().host_count();
  std::vector<topo::net::HostId> hosts;
  const double probes0 = static_cast<double>(system.oracle().probe_count());
  const double evals0 =
      static_cast<double>(system.pubsub().stats().predicate_evaluations);
  while (system.ecan().size() < target) {
    hosts.clear();
    const std::size_t size = std::min(wave, target - system.ecan().size());
    for (std::size_t i = 0; i < size; ++i)
      hosts.push_back(static_cast<topo::net::HostId>(host_rng.next_u64(host_count)));
    topo::core::JoinWaveStats ws;
    Span span(tracer, "core.join_many", "core");
    const auto wave_start = Clock::now();
    system.join_many(hosts, &ws);
    const double wave_s = seconds_since(wave_start);
    span.counter("joins", static_cast<double>(size));
    span.close();
    g.joins += size;
    g.wave_s.push_back(wave_s);
    g.join_us.push_back(wave_s * 1e6 / static_cast<double>(size));
    g.split_us.push_back(ws.split_ms * 1e3 / static_cast<double>(size));
    g.totals.split_ms += ws.split_ms;
    g.totals.publish_ms += ws.publish_ms;
    g.totals.select_ms += ws.select_ms;
    g.totals.map_fetch_ms += ws.map_fetch_ms;
    g.totals.rank_ms += ws.rank_ms;
    g.totals.subscribe_ms += ws.subscribe_ms;
  }
  g.probes = static_cast<double>(system.oracle().probe_count()) - probes0;
  g.predicate_evals =
      static_cast<double>(system.pubsub().stats().predicate_evaluations) - evals0;
  return g;
}

void facade_lookups(SoftStateOverlay& system, std::size_t count,
                    topo::util::Rng& rng, Tracer& tracer, LookupSamples& out) {
  auto& ecan = system.ecan();
  for (std::size_t q = 0; q < count; ++q) {
    const auto& live = ecan.live_view();
    const topo::overlay::NodeId from = live[rng.next_u64(live.size())];
    const topo::geom::Point key = topo::geom::Point::random(ecan.dims(), rng);
    Span span(tracer, "core.lookup", "core");
    const auto start = Clock::now();
    const topo::overlay::RouteResult route = system.lookup(from, key);
    out.latency_us.add(seconds_since(start) * 1e6);
    span.close();
    ++out.attempted;
    if (!route.success) {
      ++out.failed;
      continue;
    }
    out.hops.add(static_cast<double>(route.hops()));
    if (route.path.size() < 2) continue;
    const double direct = system.oracle().latency_ms(
        ecan.node(from).host, ecan.node(route.path.back()).host);
    if (direct <= 0.0) continue;
    out.stretch.add(
        topo::sim::path_latency_ms(ecan, system.oracle(), route.path) / direct);
  }
}

std::vector<NodeRecord> facade_records(SoftStateOverlay& system) {
  return live_records(system.ecan(), system.landmarks(),
                      [&](topo::overlay::NodeId id)
                          -> const topo::proximity::LandmarkVector& {
                        return system.vectors().at(id);
                      });
}

std::vector<double> facade_map_lookup_slices(SoftStateOverlay& system,
                                             const std::vector<NodeRecord>& records,
                                             const std::vector<MapQuery>& queries,
                                             Tracer& tracer) {
  constexpr std::size_t kSlice = 500;
  std::vector<topo::softstate::MapEntry> out;
  const double now = system.events().now();
  std::vector<double> slices;
  Span span(tracer, "softstate.lookup_entries_into", "softstate");
  for (std::size_t begin = 0; begin < queries.size(); begin += kSlice) {
    const std::size_t end = std::min(queries.size(), begin + kSlice);
    const auto start = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      const NodeRecord& r = records[queries[i].record];
      system.maps().lookup_entries_into(r.id, *r.vector, r.number, queries[i].level,
                                        queries[i].cell, now, out);
    }
    slices.push_back(seconds_since(start));
  }
  return slices;
}

TableSnapshot snapshot_tables(const topo::overlay::EcanNetwork& ecan) {
  TableSnapshot snapshot(ecan.slot_count());
  for (const auto id : ecan.live_view()) {
    auto& slots = snapshot[id];
    const int levels = ecan.node_level(id);
    for (int h = 1; h <= levels; ++h)
      for (std::size_t dim = 0; dim < ecan.dims(); ++dim)
        for (int dir = 0; dir < 2; ++dir)
          slots.push_back(ecan.table_entry(id, h, dim, dir));
  }
  return snapshot;
}

std::size_t changed_slots(const TableSnapshot& before, const TableSnapshot& after) {
  std::size_t changed = 0;
  const std::size_t nodes = std::min(before.size(), after.size());
  for (std::size_t id = 0; id < nodes; ++id) {
    const std::size_t slots = std::min(before[id].size(), after[id].size());
    for (std::size_t s = 0; s < slots; ++s)
      if (before[id][s] != after[id][s]) ++changed;
  }
  return changed;
}

void check_facade(SoftStateOverlay& system, Report& report, const char* when) {
  const std::string suffix = std::string(" (") + when + ")";
  report.check(system.ecan().check_invariants(), "eCAN invariants" + suffix);
  report.check(system.ecan().check_membership_index(),
               "eCAN membership index" + suffix);
  report.check(system.maps().check_placement_invariant(),
               "map placement invariant" + suffix);
}

void report_facade_common(SoftStateOverlay& system, const LookupSamples& lookups,
                          const std::vector<double>& latency_us, Report& report) {
  const auto n = static_cast<double>(system.ecan().size());
  Samples latency;
  for (const double us : latency_us) latency.add(us);
  report.e2e("stretch_p50", lookups.stretch.median(), "ratio");
  report.layer("core.lookup_us_p50", latency.median(), "us");
  report.layer("core.lookup_us_p99", latency.percentile(99.0), "us");
  report.e2e("softstate_bytes_per_node",
             ratio(static_cast<double>(system.maps().memory_bytes()), n), "B");
  report.layer("overlay.hops_per_lookup", lookups.hops.median(), "count");
  report.layer("overlay.bytes_per_node",
               ratio(static_cast<double>(system.ecan().memory_bytes()), n), "B");
  report.layer("softstate.bytes_per_node",
               ratio(static_cast<double>(system.maps().memory_bytes()), n), "B");
  report.attempted += lookups.attempted;
  report.failed += lookups.failed;
}

void facade_replays(FacadeSystem& fs, topo::util::Rng& rng, Tracer& tracer,
                    Report& report) {
  SoftStateOverlay& system = *fs.overlay;
  const std::vector<NodeRecord> records = facade_records(system);
  std::vector<topo::net::HostId> hosts;
  for (const NodeRecord& r : records) hosts.push_back(system.ecan().node(r.id).host);
  replay_landmark_layers(system.oracle(), system.landmarks(), hosts, tracer,
                         report);
  replay_routing(system.ecan(), system.maps().config().scalable_router, rng,
                 tracer, report);
  const std::vector<MapQuery> queries =
      make_map_queries(system.ecan(), records, 20'000, rng);
  replay_map_lookups(system.maps(), records, queries, system.events().now(),
                     tracer, report);
  // Fresh services over the final overlay, without the facade's pub/sub
  // observer, fault or traffic plane and without anti-entropy.
  topo::softstate::MapConfig config = system.maps().config();
  config.anti_entropy.enabled = false;
  replay_sharded_rounds<topo::softstate::MapService>(
      system.ecan(), system.landmarks(), fs.topology, config, records, queries,
      tracer, report);
  replay_tables(system.ecan(), 2048, rng, tracer, report);
}

}  // namespace perfbench
