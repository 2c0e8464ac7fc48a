// Shared plumbing for the benchmark workloads: options, the metric report,
// wall-clock helpers, sample statistics and the simulated world.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "util/rng.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event output of a traced run ("" = do not write).
  std::string trace_path;
};

/// How many units of work a run does: a fixed function of --seconds, never
/// of how fast the code runs, so a seed and --seconds always issue the same
/// operations (and the same failures). `units_per_s` is the rate measured
/// on the 4-core reference machine, so a run measures about --seconds
/// there.
inline int work_units(const Options& options, double units_per_s, int minimum) {
  return std::max(minimum,
                  static_cast<int>(std::lround(options.seconds * units_per_s)));
}

/// Independent input stream `stream` of the run's seed: hosts, join points,
/// keys and churn each draw from their own stream, so adding draws to one
/// never shifts another.
inline topo::util::Rng input_rng(const Options& options, std::uint64_t stream) {
  return topo::util::Rng(options.seed * 0x9e3779b97f4a7c15ull + stream);
}

/// The system under test is fixed: the topology (the paper's large
/// transit-stub preset with manual latencies), the landmark choice and the
/// facade's internal seed come from these constants; --seed varies only the
/// workload's inputs (hosts, join points of bare eCAN builds, keys, churn).
inline constexpr std::uint64_t kTopologySeed = 20030519;
inline constexpr std::uint64_t kSystemSeed = 42;

inline topo::net::Topology make_topology() {
  topo::util::Rng rng(kTopologySeed);
  topo::net::Topology topology =
      topo::net::generate_transit_stub(topo::net::tsk_large(), rng);
  topo::net::assign_latencies(topology, topo::net::LatencyModel::kManual, rng);
  return topology;
}

/// The fixed stream of lookup probes (source node index and key of each
/// facade or overlay lookup). It does not vary with --seed: with random
/// keys per seed, the median lookup cost of a 4,096-node overlay moved by
/// half between seeds, which would drown any change the code makes.
inline topo::util::Rng probe_rng() { return topo::util::Rng(kSystemSeed + 3); }

/// Sample statistics; percentiles use linear interpolation between ranks.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  double sum() const {
    double total = 0.0;
    for (const double v : values_) total += v;
    return total;
  }
  double percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  }
  double median() const { return percentile(50.0); }
  /// Mean of the samples left after dropping the lowest and the highest
  /// `trim` share of them.
  double trimmed_mean(double trim) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const auto drop = static_cast<std::size_t>(trim * static_cast<double>(sorted.size()));
    double total = 0.0;
    for (std::size_t i = drop; i < sorted.size() - drop; ++i) total += sorted[i];
    return total / static_cast<double>(sorted.size() - 2 * drop);
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

/// Every timed operation runs on kReplicas identical replicas of the
/// system (same inputs, same deterministic state) and keeps its fastest
/// timing: the machine's other tenants slow single operations by tens of
/// percent at random, and the minimum over replicas filters that out.
inline constexpr int kReplicas = 3;

/// setup_s is the median of this many set-ups (the replicas' own plus
/// extra ones): a set-up takes tens of milliseconds, so one sample is noise.
inline constexpr int kSetups = 9;

/// Element-wise minimum of `timings` into `fastest` (which starts empty).
inline void keep_fastest(std::vector<double>& fastest,
                         const std::vector<double>& timings) {
  if (fastest.empty()) {
    fastest = timings;
    return;
  }
  for (std::size_t i = 0; i < fastest.size() && i < timings.size(); ++i)
    fastest[i] = std::min(fastest[i], timings[i]);
}

/// Median per-join cost of the last quarter of `per_join` (in join order)
/// over that of the first quarter: how join cost grows with n.
inline double growth_ratio(const std::vector<double>& per_join) {
  const std::size_t quarter = per_join.size() / 4;
  if (quarter == 0) return 0.0;
  Samples first;
  Samples last;
  for (std::size_t i = 0; i < quarter; ++i) {
    first.add(per_join[i]);
    last.add(per_join[per_join.size() - 1 - i]);
  }
  return ratio(last.median(), first.median());
}

/// Peak resident set size of the process (VmHWM), in MiB.
double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: its end-to-end metrics, its per-layer
/// metrics (traced runs), the outcome of its correctness checks and its
/// lookup counts.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

Report run_bootstrap(const Options& options, Tracer& tracer);
Report run_churn(const Options& options, Tracer& tracer);
Report run_scale(const Options& options, Tracer& tracer);

}  // namespace perfbench
