// Workload `churn`: the soft-state maintenance loop. A facade overlay with
// two map replicas and anti-entropy is bootstrapped with join_many waves
// and handed to a sim::LifecycleEngine (jittered republish, expiry sweeps,
// Poisson joins and departures, half of them crashes). After a warm-up the
// engine runs one-simulated-second steps (three per second of --seconds);
// between steps, facade lookups go from random live nodes to random keys.
// The engine reaches the facade through a benchmark-owned LifecycleHooks
// forwarder that times every call. The whole run repeats on kChurnReplicas
// identical systems, one after the other (each torn down when the next
// starts), so the copies of each step lie about ten seconds apart; every
// timing keeps its fastest replica.
#include "core/lifecycle_adapter.hpp"
#include "facade.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 4096;
constexpr std::size_t kWave = 256;
constexpr double kChurnHz = 4.0;  // joins/s == departures/s
constexpr double kWarmupMs = 10'000.0;
constexpr double kStepMs = 1000.0;
constexpr double kStepsPerS = 3.0;
constexpr std::size_t kLookupsPerStep = 100;
constexpr int kCheckEvery = 5;  // steps between placement checks
constexpr std::size_t kMapLookups = 20'000;
constexpr int kMapRounds = 2;  // per replica; map lookups do not change the state
// More replicas than the other workloads: a churn step changes the state,
// so the replicas are its only timed copies, and a machine slowdown can
// last longer than one replica's steps.
constexpr int kChurnReplicas = 4;

using topo::overlay::NodeId;

/// Forwards the engine's hooks to core::OverlayLifecycle, timing each call
/// and, in the traced run, wrapping it in a span. Republishes also record
/// the pub/sub and selection work they trigger.
class TimedHooks final : public topo::sim::LifecycleHooks {
 public:
  TimedHooks(topo::core::OverlayLifecycle& inner,
             topo::core::SoftStateOverlay& system, Tracer& tracer)
      : inner_(&inner), system_(&system), tracer_(&tracer) {}

  NodeId spawn_node() override {
    Span span(*tracer_, "core.join", "core");
    const auto start = Clock::now();
    const NodeId id = inner_->spawn_node();
    join_us.add(seconds_since(start) * 1e6);
    return id;
  }
  void graceful_leave(NodeId id) override {
    Span span(*tracer_, "core.leave", "core");
    const auto start = Clock::now();
    inner_->graceful_leave(id);
    leave_us.add(seconds_since(start) * 1e6);
  }
  void crash_node(NodeId id) override {
    Span span(*tracer_, "core.crash", "core");
    const auto start = Clock::now();
    inner_->crash_node(id);
    crash_us.add(seconds_since(start) * 1e6);
  }
  void republish(NodeId id) override {
    const auto& ps = system_->pubsub().stats();
    const double notes0 = static_cast<double>(ps.notifications);
    const double hops0 = static_cast<double>(ps.route_hops);
    const double resel0 = static_cast<double>(system_->stats().reselections);
    const double probes0 = static_cast<double>(system_->oracle().probe_count());
    Span span(*tracer_, "core.republish", "core");
    const auto start = Clock::now();
    inner_->republish(id);
    republish_us.add(seconds_since(start) * 1e6);
    span.close();
    notifications += static_cast<double>(ps.notifications) - notes0;
    notification_hops += static_cast<double>(ps.route_hops) - hops0;
    reselections += static_cast<double>(system_->stats().reselections) - resel0;
    probes += static_cast<double>(system_->oracle().probe_count()) - probes0;
  }
  std::size_t expire(topo::sim::Time now) override {
    Span span(*tracer_, "softstate.expire_before", "softstate");
    const auto start = Clock::now();
    const std::size_t dropped = inner_->expire(now);
    expire_us.add(seconds_since(start) * 1e6);
    return dropped;
  }
  bool alive(NodeId id) const override { return inner_->alive(id); }

  double hook_seconds() const {
    return (join_us.sum() + leave_us.sum() + crash_us.sum() +
            republish_us.sum() + expire_us.sum()) * 1e-6;
  }
  void reset() {
    join_us = leave_us = crash_us = republish_us = expire_us = Samples{};
    notifications = notification_hops = reselections = probes = 0.0;
  }

  Samples join_us, leave_us, crash_us, republish_us, expire_us;
  double notifications = 0.0;
  double notification_hops = 0.0;
  double reselections = 0.0;
  double probes = 0.0;

 private:
  topo::core::OverlayLifecycle* inner_;
  topo::core::SoftStateOverlay* system_;
  Tracer* tracer_;
};

/// A facade under lifecycle control; members are destroyed engine first.
struct ChurnSystem {
  std::unique_ptr<FacadeSystem> fs;
  std::unique_ptr<topo::core::OverlayLifecycle> inner;
  std::unique_ptr<TimedHooks> hooks;
  std::unique_ptr<topo::sim::LifecycleEngine> engine;
};

}  // namespace

Report run_churn(const Options& options, Tracer& tracer) {
  Report report;
  topo::core::SystemConfig config = base_config();
  config.map.replicas = 2;
  config.map.anti_entropy.enabled = true;
  config.auto_republish = false;  // the lifecycle engine owns the timers
  topo::sim::LifecycleConfig lifecycle;
  lifecycle.republish_interval_ms = config.republish_interval_ms;
  lifecycle.republish_jitter = 0.2;
  lifecycle.expiry_sweep_interval_ms = 5'000.0;
  lifecycle.crash_fraction = 0.5;
  lifecycle.min_population = kNodes / 2;
  lifecycle.seed = input_rng(options, 6)();
  const int total_steps = work_units(options, kStepsPerS, 10);

  // One discarded warm-up (page faults, allocator, caches).
  {
    Tracer off(false);
    auto warm = make_system(config, off);
    topo::util::Rng warm_rng = input_rng(options, 99);
    grow(*warm->overlay, 512, kWave, warm_rng, off);
  }

  Span root(tracer, "workload.churn", "bench");
  Samples setup_s;
  std::vector<double> wave_s, step_s, lookup_us, republish_us, map_slices;
  std::uint64_t state_hash = 0;
  std::unique_ptr<ChurnSystem> current;
  GrowthResult growth;
  LookupSamples lookups;
  Samples step_hops_per_node, population;
  Samples copy_s;  // wall s of each replica's steps, for the stderr summary
  double run_for_s = 0.0, changed = 0.0, notes = 0.0, ae_summary = 0.0,
         ae_delta = 0.0, repairs = 0.0, broken = 0.0;
  for (int replica = 0; replica < kChurnReplicas; ++replica) {
    const bool last = replica + 1 == kChurnReplicas;
    current.reset();  // the previous replica
    current = std::make_unique<ChurnSystem>();
    ChurnSystem& cs = *current;
    const auto setup_start = Clock::now();
    cs.fs = make_system(config, tracer);
    setup_s.add(seconds_since(setup_start));
    topo::core::SoftStateOverlay& system = *cs.fs->overlay;

    topo::util::Rng host_rng = input_rng(options, 2);
    growth = grow(system, kNodes, kWave, host_rng, tracer);
    keep_fastest(wave_s, growth.wave_s);

    cs.inner = std::make_unique<topo::core::OverlayLifecycle>(
        system, cs.fs->topology.host_count(), input_rng(options, 7));
    cs.hooks = std::make_unique<TimedHooks>(*cs.inner, system, tracer);
    cs.engine = std::make_unique<topo::sim::LifecycleEngine>(*cs.hooks, lifecycle,
                                                             &system.events());
    topo::sim::LifecycleEngine& engine = *cs.engine;
    for (const NodeId id : system.ecan().live_nodes()) engine.adopt(id);
    engine.set_churn(kChurnHz, kChurnHz);
    {
      Span span(tracer, "sim.run_for", "sim");
      engine.run_for(kWarmupMs);
    }
    cs.hooks->reset();

    const auto& map_stats = system.maps().stats();
    const auto& ps_stats = system.pubsub().stats();
    const double summary0 = static_cast<double>(map_stats.ae_summary_bytes);
    const double delta0 = static_cast<double>(map_stats.ae_delta_bytes);
    const double repairs0 = static_cast<double>(system.ecan().lazy_repairs());
    const double broken0 = static_cast<double>(system.ecan().broken_entry_encounters());
    const double notes0 = static_cast<double>(ps_stats.notifications);
    topo::util::Rng key_rng = probe_rng();
    lookups = LookupSamples{};
    step_hops_per_node = population = Samples{};
    std::vector<double> steps;
    run_for_s = changed = 0.0;
    for (int step = 1; step <= total_steps; ++step) {
      const TableSnapshot before = last && tracer.enabled()
                                       ? snapshot_tables(system.ecan())
                                       : TableSnapshot{};
      const double hops0 = static_cast<double>(map_stats.route_hops + ps_stats.route_hops);
      {
        Span span(tracer, "sim.run_for", "sim");
        const auto start = Clock::now();
        engine.run_for(kStepMs);
        steps.push_back(seconds_since(start));
      }
      run_for_s += steps.back();
      const auto live = static_cast<double>(system.ecan().size());
      population.add(live);
      step_hops_per_node.add(ratio(
          static_cast<double>(map_stats.route_hops + ps_stats.route_hops) - hops0,
          live * kStepMs / 1000.0));
      if (last && tracer.enabled())
        changed += static_cast<double>(
            changed_slots(before, snapshot_tables(system.ecan())));
      facade_lookups(system, kLookupsPerStep, key_rng, tracer, lookups);
      if (step % kCheckEvery == 0)
        report.check(system.maps().check_placement_invariant(),
                     "map placement invariant at checkpoint " + std::to_string(step));
    }
    // One system after its churn steps (the later replicas would add theirs).
    if (replica == 0) report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    keep_fastest(step_s, steps);
    copy_s.add(sum(steps));
    keep_fastest(lookup_us, lookups.latency_us.values());
    keep_fastest(republish_us, cs.hooks->republish_us.values());
    notes = static_cast<double>(ps_stats.notifications) - notes0;
    ae_summary = static_cast<double>(map_stats.ae_summary_bytes) - summary0;
    ae_delta = static_cast<double>(map_stats.ae_delta_bytes) - delta0;
    repairs = static_cast<double>(system.ecan().lazy_repairs()) - repairs0;
    broken = static_cast<double>(system.ecan().broken_entry_encounters()) - broken0;

    const std::uint64_t hash = system.maps().state_hash();
    if (replica == 0) state_hash = hash;
    report.check(hash == state_hash, "replicas reach the same map state");
    // Map lookups on the final state (the same on every replica).
    const std::vector<NodeRecord> records = facade_records(system);
    topo::util::Rng query_rng = input_rng(options, 4);
    const std::vector<MapQuery> queries =
        make_map_queries(system.ecan(), records, kMapLookups, query_rng);
    for (int round = 0; round < kMapRounds; ++round)
      keep_fastest(map_slices,
                   facade_map_lookup_slices(system, records, queries, tracer));
    // One more set-up between replicas, so that the set-ups spread over
    // the run like the timed work does.
    time_setup(config, setup_s);
  }
  const ChurnSystem& cs = *current;
  topo::core::SoftStateOverlay& system = *cs.fs->overlay;
  const TimedHooks& hooks = *cs.hooks;
  const auto joins = static_cast<double>(growth.joins);
  const double sim_s = total_steps * kStepMs / 1000.0;
  const double node_s = population.sum() * kStepMs / 1000.0;

  while (static_cast<int>(setup_s.count()) < kSetups) time_setup(config, setup_s);
  check_facade(system, report, "end of churn");

  report.e2e("setup_s", setup_s.median(), "s");
  report.layer("core.join_per_s", ratio(joins, sum(wave_s)), "joins/s");
  report.layer("sim_s_per_s", ratio(sim_s, sum(step_s)), "sim-s/s");
  // Mean over the steps without the top and bottom tenth: a step whose
  // routes hit a forwarding loop (see README.md) costs thousands of hops
  // and would dominate a plain mean, and a median over the steps moved by
  // about 0.1 from seed to seed.
  report.e2e("maint_hops_per_node_s", step_hops_per_node.trimmed_mean(0.1),
             "hops/node/s");
  report.layer("core.publish_per_s",
               ratio(static_cast<double>(republish_us.size()), sum(republish_us) * 1e-6),
               "publishes/s");
  report.layer("softstate.map_lookup_per_s",
             ratio(static_cast<double>(kMapLookups), sum(map_slices)), "lookups/s");
  report_facade_common(system, lookups, lookup_us, report);
  std::fprintf(stderr,
               "churn: %d steps, population %.0f..%.0f, %zu joins %zu leaves "
               "%zu crashes %zu republishes, lookup_fail_frac %.6f; steps %.3f..%.3f s "
               "per replica, %.3f s the fastest steps\n",
               total_steps, population.percentile(0.0), population.percentile(100.0),
               hooks.join_us.count(), hooks.leave_us.count(), hooks.crash_us.count(),
               hooks.republish_us.count(),
               ratio(static_cast<double>(lookups.failed),
                     static_cast<double>(lookups.attempted)),
               copy_s.percentile(0.0), copy_s.percentile(100.0), sum(step_s));

  if (!tracer.enabled()) return report;

  const double republishes = static_cast<double>(hooks.republish_us.count());
  Samples split_us;
  for (const double v : growth.split_us) split_us.add(v);
  const auto& t = growth.totals;
  report.layer("net.probes_per_join", ratio(growth.probes, joins), "count");
  report.layer("overlay.join_us_p50", split_us.median(), "us");
  report.layer("overlay.join_growth", growth_ratio(growth.split_us), "ratio");
  report.layer("overlay.lazy_repairs", repairs, "count");
  report.layer("overlay.broken_entries", broken, "count");
  report.layer("softstate.expire_us", hooks.expire_us.median(), "us");
  report.layer("softstate.ae_summary_bytes", ae_summary, "B");
  report.layer("softstate.ae_delta_bytes", ae_delta, "B");
  report.layer("softstate.ae_useful_ratio", ratio(ae_delta, ae_summary + ae_delta),
               "ratio");
  report.layer("softstate.ae_bytes_per_node_s", ratio(ae_summary + ae_delta, node_s),
               "B/node/s");
  report.layer("pubsub.predicate_evals_per_join", ratio(growth.predicate_evals, joins),
               "count");
  report.layer("pubsub.notifications_per_republish",
               ratio(hooks.notifications, republishes), "count");
  report.layer("pubsub.hops_per_notification",
               ratio(hooks.notification_hops, hooks.notifications), "count");
  report.layer("pubsub.useful_ratio", ratio(changed, notes), "ratio");
  report.layer("core.split_ms_per_join", ratio(t.split_ms, joins), "ms");
  report.layer("core.publish_ms_per_join", ratio(t.publish_ms, joins), "ms");
  report.layer("core.select_ms_per_join", ratio(t.select_ms, joins), "ms");
  report.layer("core.map_fetch_ms_per_join", ratio(t.map_fetch_ms, joins), "ms");
  report.layer("core.rank_ms_per_join", ratio(t.rank_ms, joins), "ms");
  report.layer("core.subscribe_ms_per_join", ratio(t.subscribe_ms, joins), "ms");
  report.layer("core.join_growth", growth_ratio(growth.join_us), "ratio");
  report.layer("core.join_us", hooks.join_us.median(), "us");
  report.layer("core.leave_us", hooks.leave_us.median(), "us");
  report.layer("core.crash_us", hooks.crash_us.median(), "us");
  report.layer("core.republish_us_p50", hooks.republish_us.median(), "us");
  report.layer("core.republish_us_p99", hooks.republish_us.percentile(99.0), "us");
  report.layer("core.reselections_per_republish",
               ratio(hooks.reselections, republishes), "count");
  report.layer("core.probes_per_reselection",
               ratio(hooks.probes, hooks.reselections), "count");
  report.layer("sim.run_for_self_ms_per_sim_s",
               ratio((run_for_s - hooks.hook_seconds()) * 1e3, sim_s), "ms/sim-s");
  topo::util::Rng replay_rng = input_rng(options, 5);
  facade_replays(*cs.fs, replay_rng, tracer, report);
  return report;
}

}  // namespace perfbench
