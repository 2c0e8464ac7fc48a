// Workload `bootstrap`: grow a facade overlay from empty with join_many
// waves (probe -> Hilbert encode -> split -> publish -> pub/sub match and
// notify -> selection -> subscribe). Everything runs on kReplicas identical
// systems, one after the other, and every timing keeps its fastest copy:
// each system is grown, serves rounds of facade lookups and map lookups,
// then runs republish periods (every node republishes once per period, in
// timed slices): period 1, then the republish-only later periods.
#include "facade.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTargetNodes = 4096;
constexpr std::size_t kWave = 256;
constexpr std::size_t kWarmupNodes = 512;
constexpr std::size_t kLookups = 4000;
constexpr std::size_t kMapLookups = 20'000;
// Rounds of facade and map lookups over the replicas (they do not change
// the state here): more samples for the per-operation minimum.
constexpr int kRounds = 5;
constexpr std::size_t kRepublishSlice = 128;
// Simulated time a republish period runs past its republishes.
constexpr double kTailMs = 1000.0;
// Republish-only periods per replica after period 1, per second of
// --seconds.
constexpr double kLaterPeriodsPerS = 0.3;

/// Work counters of one republish period on one system.
struct PeriodCounts {
  double hops = 0.0;  // map + pub/sub routed hops
  double ps_hops = 0.0;
  double notifications = 0.0;
  double republishes = 0.0;
  double reselections = 0.0;
  double probes = 0.0;
};

/// One republish period: run_for(lead_ms) to the republish time, every
/// live node's republish_now (what the facade's refresh chain calls) in
/// timed slices of kRepublishSlice, then run_for(kTailMs). Appends each
/// timed slice's seconds, the two run_for calls first and last, to `slices`.
PeriodCounts republish_period(topo::core::SoftStateOverlay& system, double lead_ms,
                              Tracer& tracer, std::vector<double>& slices) {
  const auto& map_stats = system.maps().stats();
  const auto& ps_stats = system.pubsub().stats();
  const auto hops = [&] {
    return static_cast<double>(map_stats.route_hops + ps_stats.route_hops);
  };
  const double hops0 = hops();
  const double ps_hops0 = static_cast<double>(ps_stats.route_hops);
  const double notes0 = static_cast<double>(ps_stats.notifications);
  const double repub0 = static_cast<double>(system.stats().republishes);
  const double resel0 = static_cast<double>(system.stats().reselections);
  const double probes0 = static_cast<double>(system.oracle().probe_count());
  const auto run_for = [&](double ms) {
    Span span(tracer, "sim.run_for", "sim");
    const auto start = Clock::now();
    system.run_for(ms);
    slices.push_back(seconds_since(start));
  };
  run_for(lead_ms);
  const std::vector<topo::overlay::NodeId> live = system.ecan().live_nodes();
  for (std::size_t begin = 0; begin < live.size(); begin += kRepublishSlice) {
    Span span(tracer, "core.republish_now", "core");
    const auto start = Clock::now();
    for (std::size_t i = begin; i < std::min(live.size(), begin + kRepublishSlice); ++i)
      system.republish_now(live[i]);
    slices.push_back(seconds_since(start));
  }
  run_for(kTailMs);
  PeriodCounts c;
  c.hops = hops() - hops0;
  c.ps_hops = static_cast<double>(ps_stats.route_hops) - ps_hops0;
  c.notifications = static_cast<double>(ps_stats.notifications) - notes0;
  c.republishes = static_cast<double>(system.stats().republishes) - repub0;
  c.reselections = static_cast<double>(system.stats().reselections) - resel0;
  c.probes = static_cast<double>(system.oracle().probe_count()) - probes0;
  return c;
}

}  // namespace

Report run_bootstrap(const Options& options, Tracer& tracer) {
  Report report;
  topo::core::SystemConfig config = base_config();
  config.auto_republish = false;  // the republish period below drives it

  // One discarded warm-up episode (page faults, allocator, caches).
  {
    Tracer off(false);
    auto warm = make_system(config, off);
    topo::util::Rng warm_rng = input_rng(options, 99);
    grow(*warm->overlay, kWarmupNodes, kWave, warm_rng, off);
  }

  Span root(tracer, "workload.bootstrap", "bench");
  Samples setup_s;
  std::vector<double> wave_s, lookup_us, map_slices, first_slices, later_slices;
  GrowthResult growth;
  LookupSamples lookups;
  const double interval_ms = config.republish_interval_ms;
  const int later_periods = work_units(options, kLaterPeriodsPerS, 2);
  TableSnapshot before;
  double changed = 0.0;
  PeriodCounts first, later;
  Samples copy_s;  // wall s of each later-period copy, for the stderr summary
  std::uint64_t state_hash = 0;
  std::unique_ptr<FacadeSystem> fs;
  // The replicas run one after the other, each torn down when the next
  // starts, so that the copies of every timed operation spread over the run.
  for (int replica = 0; replica < kReplicas; ++replica) {
    const bool last = replica + 1 == kReplicas;
    fs.reset();
    const auto setup_start = Clock::now();
    fs = make_system(config, tracer);
    setup_s.add(seconds_since(setup_start));
    topo::core::SoftStateOverlay& system = *fs->overlay;
    topo::util::Rng host_rng = input_rng(options, 2);
    growth = grow(system, kTargetNodes, kWave, host_rng, tracer);
    keep_fastest(wave_s, growth.wave_s);
    if (replica == 0) report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");

    // Read-only rounds: facade lookups (no departures, so nothing to
    // repair) and map lookups.
    const std::vector<NodeRecord> records = facade_records(system);
    topo::util::Rng query_rng = input_rng(options, 4);
    const std::vector<MapQuery> queries =
        make_map_queries(system.ecan(), records, kMapLookups, query_rng);
    for (int round = 0; round < kRounds; ++round) {
      topo::util::Rng key_rng = probe_rng();
      LookupSamples samples;
      facade_lookups(system, kLookups, key_rng, tracer, samples);
      keep_fastest(lookup_us, samples.latency_us.values());
      if (round == 0 && replica == 0) lookups = std::move(samples);
      keep_fastest(map_slices, facade_map_lookup_slices(system, records, queries, tracer));
    }

    // The maintenance phase, driven here so that it can be timed in
    // slices: the refresh chain is off, because it republishes a whole join
    // wave in one event-queue instant that no timed slice can split (see
    // README.md). Period 1, right after the growth, also fires the pub/sub
    // notifications and re-selections the growth left pending; the counts
    // come from it. The later periods are republish-only and do the same
    // work on every replica in every period (checked), so each of their
    // slices has kReplicas x later_periods timed copies; sim_s_per_s keeps
    // the fastest copy of each slice.
    if (last && tracer.enabled()) before = snapshot_tables(system.ecan());
    std::vector<double> slices;
    first = republish_period(system, interval_ms, tracer, slices);
    keep_fastest(first_slices, slices);
    if (last && tracer.enabled())
      changed = static_cast<double>(changed_slots(before, snapshot_tables(system.ecan())));
    report.check(first.republishes == static_cast<double>(growth.joins),
                 "every node republishes once in republish period 1");
    for (int period = 0; period < later_periods; ++period) {
      slices.clear();
      const PeriodCounts counts =
          republish_period(system, interval_ms - kTailMs, tracer, slices);
      if (period == 0 && replica == 0) later = counts;
      report.check(counts.republishes == static_cast<double>(growth.joins) &&
                       counts.hops == later.hops && counts.notifications == 0.0,
                   "every later republish period does the same republish-only work");
      keep_fastest(later_slices, slices);
      copy_s.add(sum(slices));
    }
    const std::uint64_t hash = system.maps().state_hash();
    if (replica == 0) state_hash = hash;
    report.check(hash == state_hash, "replicas reach the same map state");
    // Set-ups between the replicas, so that they spread over the run like
    // the timed work does.
    time_setup(config, setup_s);
    time_setup(config, setup_s);
  }
  topo::core::SoftStateOverlay& system = *fs->overlay;
  const auto n = static_cast<double>(system.ecan().size());
  const auto joins = static_cast<double>(growth.joins);
  const double first_sim_s = (interval_ms + kTailMs) / 1000.0;
  const double first_s = sum(first_slices);
  // The first and last slices are the run_for calls around the republishes.
  const double republish_s = first_s - first_slices.front() - first_slices.back();

  while (static_cast<int>(setup_s.count()) < kSetups) time_setup(config, setup_s);
  check_facade(system, report, "end of bootstrap");

  report.e2e("setup_s", setup_s.median(), "s");
  report.layer("core.join_per_s", ratio(joins, sum(wave_s)), "joins/s");
  report.layer("sim_s_per_s", ratio(interval_ms / 1000.0, sum(later_slices)), "sim-s/s");
  report.e2e("maint_hops_per_node_s", ratio(first.hops, n * first_sim_s), "hops/node/s");
  report.layer("core.publish_per_s", ratio(first.republishes, republish_s),
               "publishes/s");
  report.layer("softstate.map_lookup_per_s",
             ratio(static_cast<double>(kMapLookups), sum(map_slices)), "lookups/s");
  report_facade_common(system, lookups, lookup_us, report);
  std::fprintf(stderr,
               "bootstrap: %zu joins, %.0f republishes, %.0f notifications, "
               "%.0f reselections in republish period 1; %d later periods x %d "
               "replicas: %.3f..%.3f s per copy, %.3f s the fastest slices\n",
               growth.joins, first.republishes, first.notifications, first.reselections,
               later_periods, kReplicas, copy_s.percentile(0.0), copy_s.percentile(100.0),
               sum(later_slices));

  if (!tracer.enabled()) return report;

  Samples split_us, join_us;
  for (const double v : growth.split_us) split_us.add(v);
  for (const double v : growth.join_us) join_us.add(v);
  const auto& t = growth.totals;
  report.layer("net.probes_per_join", ratio(growth.probes, joins), "count");
  report.layer("overlay.join_us_p50", split_us.median(), "us");
  report.layer("overlay.join_growth", growth_ratio(growth.split_us), "ratio");
  report.layer("overlay.lazy_repairs",
               static_cast<double>(system.ecan().lazy_repairs()), "count");
  report.layer("overlay.broken_entries",
               static_cast<double>(system.ecan().broken_entry_encounters()), "count");
  report.layer("pubsub.predicate_evals_per_join", ratio(growth.predicate_evals, joins),
               "count");
  report.layer("pubsub.notifications_per_republish",
               ratio(first.notifications, first.republishes), "count");
  report.layer("pubsub.hops_per_notification", ratio(first.ps_hops, first.notifications),
               "count");
  report.layer("pubsub.useful_ratio", ratio(changed, first.notifications), "ratio");
  report.layer("core.split_ms_per_join", ratio(t.split_ms, joins), "ms");
  report.layer("core.publish_ms_per_join", ratio(t.publish_ms, joins), "ms");
  report.layer("core.select_ms_per_join", ratio(t.select_ms, joins), "ms");
  report.layer("core.map_fetch_ms_per_join", ratio(t.map_fetch_ms, joins), "ms");
  report.layer("core.rank_ms_per_join", ratio(t.rank_ms, joins), "ms");
  report.layer("core.subscribe_ms_per_join", ratio(t.subscribe_ms, joins), "ms");
  report.layer("core.join_growth", growth_ratio(growth.join_us), "ratio");
  report.layer("core.join_us", join_us.median(), "us");
  report.layer("core.reselections_per_republish",
               ratio(first.reselections, first.republishes), "count");
  report.layer("core.probes_per_reselection", ratio(first.probes, first.reselections),
               "count");
  report.layer("sim.run_for_self_ms_per_sim_s",
               ratio((first_s - republish_s) * 1e3, first_sim_s), "ms/sim-s");
  report.layer("softstate.expire_us",
               replay_expiry_us(system.maps(), system.events().now(), tracer), "us");
  topo::util::Rng replay_rng = input_rng(options, 5);
  facade_replays(*fs, replay_rng, tracer, report);
  return report;
}

}  // namespace perfbench
