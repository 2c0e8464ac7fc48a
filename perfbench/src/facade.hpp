// Helpers shared by the facade workloads (bootstrap, churn): building the
// system, growing it in join waves, sampling facade lookups, map lookups,
// expressway-table snapshots and the end-of-workload checks.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "core/soft_state_overlay.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

/// A topology and the facade running on it (the facade keeps a reference
/// to the topology, so both live and die together).
struct FacadeSystem {
  topo::net::Topology topology;
  std::unique_ptr<topo::core::SoftStateOverlay> overlay;
};

/// Generates the topology and constructs an empty facade (RTT engine,
/// landmark choice, services): the set-up measured as setup_s.
std::unique_ptr<FacadeSystem> make_system(const topo::core::SystemConfig& config,
                                          Tracer& tracer);

/// Times one more set-up (make_system, untraced) into `setup_s` and
/// discards the system.
void time_setup(const topo::core::SystemConfig& config, Samples& setup_s);

/// The paper's default system on the large transit-stub topology.
topo::core::SystemConfig base_config();

struct GrowthResult {
  std::size_t joins = 0;
  /// Per wave: wall-clock seconds, µs per join, eCAN split-stage µs per join.
  std::vector<double> wave_s;
  std::vector<double> join_us;
  std::vector<double> split_us;
  topo::core::JoinWaveStats totals;
  double probes = 0.0;
  double predicate_evals = 0.0;
};

/// Grows the facade to `target` nodes with join_many waves of `wave` hosts
/// drawn from `host_rng`, one core.join_many span per wave.
GrowthResult grow(topo::core::SoftStateOverlay& system, std::size_t target,
                  std::size_t wave, topo::util::Rng& host_rng, Tracer& tracer);

/// Facade lookup samples: per-call latency, stretch and hops.
struct LookupSamples {
  Samples latency_us;
  Samples stretch;
  Samples hops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// `count` facade lookups from random live nodes to random keys; latency
/// is timed per call, stretch (overlay-path RTT / direct RTT) and hops are
/// computed outside the timed region.
void facade_lookups(topo::core::SoftStateOverlay& system, std::size_t count,
                    topo::util::Rng& rng, Tracer& tracer, LookupSamples& out);

/// Every live node's record from the facade's vector store.
std::vector<NodeRecord> facade_records(topo::core::SoftStateOverlay& system);

/// Times `queries` through the facade's MapService (lookup_entries_into at
/// the current virtual time) in slices of 500; returns each slice's seconds.
std::vector<double> facade_map_lookup_slices(topo::core::SoftStateOverlay& system,
                                             const std::vector<NodeRecord>& records,
                                             const std::vector<MapQuery>& queries,
                                             Tracer& tracer);

/// Expressway slots of every live node (dead slots empty).
using TableSnapshot = std::vector<std::vector<topo::overlay::NodeId>>;
TableSnapshot snapshot_tables(const topo::overlay::EcanNetwork& ecan);
/// Slots that differ between two snapshots, over nodes present in both.
std::size_t changed_slots(const TableSnapshot& before, const TableSnapshot& after);

/// Overlay invariants, membership index and map placement.
void check_facade(topo::core::SoftStateOverlay& system, Report& report,
                  const char* when);

/// The end-to-end metrics every facade workload reports from its lookup
/// samples (latencies: the fastest over replicas, per lookup) and final
/// memory; counts the lookups as the run's attempted/failed operations.
void report_facade_common(topo::core::SoftStateOverlay& system,
                          const LookupSamples& lookups,
                          const std::vector<double>& latency_us, Report& report);

/// The traced replays common to the facade workloads: landmark layers,
/// routing, map lookups, sharded rounds, expiry, table builds (last).
void facade_replays(FacadeSystem& fs, topo::util::Rng& rng, Tracer& tracer,
                    Report& report);

}  // namespace perfbench
