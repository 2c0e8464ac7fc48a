#include "replay.hpp"

#include "core/selectors.hpp"

namespace perfbench {

std::vector<MapQuery> make_map_queries(const topo::overlay::EcanNetwork& ecan,
                                       const std::vector<NodeRecord>& records,
                                       std::size_t count, topo::util::Rng& rng) {
  std::vector<MapQuery> queries;
  queries.reserve(count);
  while (queries.size() < count && !records.empty()) {
    const std::size_t index = rng.next_u64(records.size());
    const int levels = ecan.node_level(records[index].id);
    if (levels < 1) continue;
    MapQuery q;
    q.record = index;
    q.level = 1 + static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(levels)));
    q.cell.resize(ecan.dims());
    ecan.cell_of_node_into(records[index].id, q.level, q.cell);
    queries.push_back(std::move(q));
  }
  return queries;
}

void replay_landmark_layers(topo::net::RttOracle& oracle,
                            const topo::proximity::LandmarkSet& landmarks,
                            const std::vector<topo::net::HostId>& hosts,
                            Tracer& tracer, Report& report) {
  constexpr int kRepeats = 5;
  const auto n = static_cast<double>(hosts.size());
  const auto m = static_cast<double>(landmarks.count());

  Samples probe_ns;
  std::vector<double> column(hosts.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    Span span(tracer, "net.probe_rtt_many", "net");
    const auto start = Clock::now();
    for (const auto landmark : landmarks.hosts())
      oracle.probe_rtt_many(hosts, landmark, column);
    probe_ns.add(seconds_since(start) * 1e9 / (n * m));
  }

  Samples measure_ns;
  std::vector<topo::proximity::LandmarkVector> vectors(hosts.size());
  std::vector<double> arena;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Span span(tracer, "proximity.measure_many", "proximity");
    const auto start = Clock::now();
    landmarks.measure_many(oracle, hosts, vectors, arena);
    measure_ns.add(seconds_since(start) * 1e9 / n);
  }

  Samples hilbert_ns;
  std::vector<topo::util::BigUint> numbers(hosts.size());
  std::vector<std::uint32_t> coords;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Span span(tracer, "geom.landmark_numbers", "geom");
    const auto start = Clock::now();
    landmarks.landmark_numbers(vectors, coords, numbers);
    hilbert_ns.add(seconds_since(start) * 1e9 / n);
  }

  report.layer("net.probe_ns", probe_ns.median(), "ns");
  report.layer("proximity.measure_ns_per_node", measure_ns.median(), "ns");
  report.layer("geom.hilbert_ns_per_node", hilbert_ns.median(), "ns");
}

void replay_routing(const topo::overlay::EcanNetwork& ecan, bool scalable,
                    topo::util::Rng& rng, Tracer& tracer, Report& report) {
  constexpr std::size_t kRoutes = 20'000;
  const auto& live = ecan.live_view();
  std::vector<std::pair<topo::overlay::NodeId, topo::geom::Point>> routes;
  routes.reserve(kRoutes);
  for (std::size_t i = 0; i < kRoutes; ++i)
    routes.emplace_back(live[rng.next_u64(live.size())],
                        topo::geom::Point::random(ecan.dims(), rng));
  topo::overlay::RouteScratch scratch;
  std::size_t hops = 0;
  Span span(tracer, scalable ? "overlay.route_ecan_scalable" : "overlay.route_ecan",
            "overlay");
  const auto start = Clock::now();
  for (const auto& [from, key] : routes) {
    if (scalable)
      ecan.route_ecan_scalable(from, key, scratch);
    else
      ecan.route_ecan(from, key, scratch);
    hops += scratch.path.empty() ? 0 : scratch.path.size() - 1;
  }
  const double elapsed = seconds_since(start);
  span.counter("hops", static_cast<double>(hops));
  report.layer("overlay.route_ns_per_hop",
               ratio(elapsed * 1e9, static_cast<double>(hops)), "ns");
}

void replay_tables(topo::overlay::EcanNetwork& ecan, std::size_t sample,
                   topo::util::Rng& rng, Tracer& tracer, Report& report) {
  const std::vector<topo::overlay::NodeId> live = ecan.live_nodes();
  topo::core::RandomSelector selector{rng.fork()};
  sample = std::min(sample, live.size());
  Span span(tracer, "overlay.build_table", "overlay");
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sample; ++i)
    ecan.build_table(live[(i * 7919) % live.size()], selector, true);
  const double elapsed = seconds_since(start);
  report.layer("overlay.tables_us_per_node",
               ratio(elapsed * 1e6, static_cast<double>(sample)), "us");
}

}  // namespace perfbench
