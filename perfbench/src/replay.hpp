// Read-only layer replays: after a workload's timed phase and checks, time
// direct calls into each layer's public functions on the final state. The
// replays give the per-layer unit costs (ns per probe, per Hilbert encode,
// per routed hop, µs per map publish/lookup) without instrumenting the
// library, each inside its own span.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "net/rtt_oracle.hpp"
#include "overlay/ecan.hpp"
#include "proximity/landmarks.hpp"
#include "softstate/map_service.hpp"
#include "softstate/sharded_runner.hpp"
#include "trace.hpp"
#include "util/biguint.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// A live node's published record: what a publish or lookup needs.
struct NodeRecord {
  topo::overlay::NodeId id = topo::overlay::kInvalidNode;
  const topo::proximity::LandmarkVector* vector = nullptr;
  topo::util::BigUint number;
};

/// One map lookup: the querier's own cell at `level`.
struct MapQuery {
  std::size_t record = 0;  // index into the records
  int level = 1;
  std::vector<std::uint32_t> cell;
};

/// `count` lookups from uniformly drawn records, each into the map of the
/// querier's own cell at a uniformly drawn level (scale_sweep's workload).
std::vector<MapQuery> make_map_queries(const topo::overlay::EcanNetwork& ecan,
                                       const std::vector<NodeRecord>& records,
                                       std::size_t count, topo::util::Rng& rng);

/// net.probe_ns, proximity.measure_ns_per_node, geom.hilbert_ns_per_node:
/// probe_rtt_many / measure_many / landmark_numbers over `hosts`.
void replay_landmark_layers(topo::net::RttOracle& oracle,
                            const topo::proximity::LandmarkSet& landmarks,
                            const std::vector<topo::net::HostId>& hosts,
                            Tracer& tracer, Report& report);

/// overlay.route_ns_per_hop: route_ecan (or route_ecan_scalable) with one
/// reused RouteScratch from random live nodes to random keys.
void replay_routing(const topo::overlay::EcanNetwork& ecan, bool scalable,
                    topo::util::Rng& rng, Tracer& tracer, Report& report);

/// overlay.tables_us_per_node: build_table with a RandomSelector (dense
/// fill) on `sample` live nodes. Rewrites those nodes' tables — run last.
void replay_tables(topo::overlay::EcanNetwork& ecan, std::size_t sample,
                   topo::util::Rng& rng, Tracer& tracer, Report& report);

/// Every live node's record (vector + landmark number), in id order.
template <typename VectorOf>
std::vector<NodeRecord> live_records(const topo::overlay::EcanNetwork& ecan,
                                     const topo::proximity::LandmarkSet& landmarks,
                                     VectorOf&& vector_of) {
  std::vector<NodeRecord> records;
  records.reserve(ecan.size());
  for (const auto id : ecan.live_view()) {
    NodeRecord r;
    r.id = id;
    r.vector = &vector_of(id);
    r.number = landmarks.landmark_number(*r.vector);
    records.push_back(std::move(r));
  }
  return records;
}

/// softstate.lookup_us, softstate.candidates_per_lookup: the read-only
/// lookup_entries_shard on `maps` at time `now`.
template <typename Service>
void replay_map_lookups(const Service& maps,
                        const std::vector<NodeRecord>& records,
                        const std::vector<MapQuery>& queries, double now,
                        Tracer& tracer, Report& report) {
  typename Service::LookupScratch scratch;
  topo::softstate::MapServiceStats stats;
  std::vector<topo::softstate::MapEntry> out;
  std::size_t candidates = 0;
  Span span(tracer, "softstate.lookup_entries_shard", "softstate");
  const auto start = Clock::now();
  for (const MapQuery& q : queries) {
    const NodeRecord& r = records[q.record];
    candidates += maps.lookup_entries_shard(r.id, *r.vector, r.number, q.level,
                                            q.cell, now, out, scratch, stats);
  }
  const double elapsed = seconds_since(start);
  span.counter("lookups", static_cast<double>(queries.size()));
  span.close();
  const auto n = static_cast<double>(queries.size());
  report.layer("softstate.lookup_us", ratio(elapsed * 1e6, n), "us");
  report.layer("softstate.candidates_per_lookup",
               ratio(static_cast<double>(candidates), n), "count");
}

/// Looks up `queries` through `runner` in chunks, so at most `chunk`
/// result lists are alive at once; returns total candidates.
template <typename Runner>
std::size_t chunked_lookup_round(Runner& runner,
                                 const std::vector<NodeRecord>& records,
                                 const std::vector<MapQuery>& queries,
                                 double now) {
  constexpr std::size_t kChunk = 4096;
  std::vector<typename Runner::LookupQuery> batch;
  std::vector<std::vector<topo::softstate::MapEntry>> results(kChunk);
  std::vector<std::size_t> counts(kChunk, 0);
  std::size_t candidates = 0;
  for (std::size_t begin = 0; begin < queries.size(); begin += kChunk) {
    const std::size_t end = std::min(queries.size(), begin + kChunk);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const NodeRecord& r = records[queries[i].record];
      batch.push_back({r.id, r.vector, &r.number, queries[i].level,
                       queries[i].cell});
    }
    runner.lookup_round(batch, now, results, counts);
    for (std::size_t i = 0; i < batch.size(); ++i) candidates += counts[i];
  }
  return candidates;
}

/// Sequential vs sharded publish and lookup rounds on fresh services over
/// the same overlay: softstate.publish_us, softstate.publish_hops_per_node
/// (sequential round) and softstate.shard_{publish,lookup}_speedup. The
/// two services must end in the same state (state_hash) — a checked
/// identity.
template <typename Service>
void replay_sharded_rounds(topo::overlay::EcanNetwork& ecan,
                           const topo::proximity::LandmarkSet& landmarks,
                           const topo::net::Topology& topology,
                           const topo::softstate::MapConfig& config,
                           const std::vector<NodeRecord>& records,
                           const std::vector<MapQuery>& queries,
                           Tracer& tracer, Report& report) {
  using Runner = topo::softstate::ShardedMapRunner<Service>;
  constexpr double kLookupTime = 1000.0;
  auto& pool = topo::util::ThreadPool::global();
  const auto shards = static_cast<std::uint32_t>(pool.size());
  const auto n = static_cast<double>(records.size());

  // Sequential rounds.
  std::uint64_t sequential_hash = 0;
  double seq_publish_s = 0.0;
  double seq_lookup_s = 0.0;
  {
    auto maps = std::make_unique<Service>(ecan, landmarks, config);
    std::size_t hops = 0;
    {
      Span span(tracer, "softstate.publish", "softstate");
      const auto start = Clock::now();
      for (const NodeRecord& r : records)
        hops += maps->publish(r.id, *r.vector, r.number, 0.0);
      seq_publish_s = seconds_since(start);
      span.counter("publishes", n);
      span.counter("route_hops", static_cast<double>(hops));
    }
    {
      Span span(tracer, "softstate.lookup_sequential", "softstate");
      typename Service::LookupScratch scratch;
      topo::softstate::MapServiceStats stats;
      std::vector<topo::softstate::MapEntry> out;
      const auto start = Clock::now();
      for (const MapQuery& mq : queries) {
        const NodeRecord& r = records[mq.record];
        maps->lookup_entries_shard(r.id, *r.vector, r.number, mq.level,
                                   mq.cell, kLookupTime, out, scratch, stats);
      }
      seq_lookup_s = seconds_since(start);
    }
    sequential_hash = maps->state_hash();
    report.layer("softstate.publish_us", ratio(seq_publish_s * 1e6, n), "us");
    report.layer("softstate.publish_hops_per_node",
                 ratio(static_cast<double>(hops), n), "count");
  }

  // The same rounds through the stub-sharded runner.
  auto maps = std::make_unique<Service>(ecan, landmarks, config);
  Runner runner(*maps,
                topo::softstate::shard_by_stub(ecan, topology, shards,
                                               ecan.slot_count()),
                shards, pool);
  std::vector<typename Runner::PublishRequest> requests;
  requests.reserve(records.size());
  for (const NodeRecord& r : records)
    requests.push_back({r.id, r.vector, &r.number, 0.0, 1.0});
  double sharded_publish_s = 0.0;
  double sharded_lookup_s = 0.0;
  {
    Span span(tracer, "softstate.publish_round", "softstate");
    const auto start = Clock::now();
    runner.publish_round(requests, 0.0);
    sharded_publish_s = seconds_since(start);
  }
  {
    Span span(tracer, "softstate.lookup_round", "softstate");
    const auto start = Clock::now();
    chunked_lookup_round(runner, records, queries, kLookupTime);
    sharded_lookup_s = seconds_since(start);
  }
  report.check(maps->state_hash() == sequential_hash,
               "sharded publish round state_hash equals the sequential one");
  report.check(maps->check_placement_invariant(),
               "placement invariant after the sharded publish round");
  report.layer("softstate.shard_publish_speedup",
               ratio(seq_publish_s, sharded_publish_s), "x");
  report.layer("softstate.shard_lookup_speedup",
               ratio(seq_lookup_s, sharded_lookup_s), "x");
}

/// softstate.expire_us: median of idle owner-side expiry sweeps at `now`.
template <typename Service>
double replay_expiry_us(Service& maps, double now, Tracer& tracer) {
  Samples samples;
  Span span(tracer, "softstate.expire_before", "softstate");
  for (int i = 0; i < 9; ++i) {
    const auto start = Clock::now();
    maps.expire_before(now);
    samples.add(seconds_since(start) * 1e6);
  }
  return samples.median();
}

}  // namespace perfbench
