// perfbench — the repository benchmark driver.
//
//   perfbench --workload bootstrap|churn|scale --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics; traced runs
// report the per-layer metrics (and print the traced end-to-end numbers on
// the line before, for the tracing-overhead comparison). Exits 1 when a
// correctness check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>

#include "trace.hpp"

namespace perfbench {

double peak_rss_mib() {
  std::FILE* fh = std::fopen("/proc/self/status", "r");
  unsigned long long kib = 0;
  if (fh != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), fh) != nullptr)
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
    std::fclose(fh);
  }
  if (kib == 0) {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
      kib = static_cast<unsigned long long>(usage.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its kind, in this order (BENCHMARK.json
// lists the same names). A per-layer metric a workload does not exercise
// reads 0; README.md says which apply where.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"stretch_p50", "ratio"},
    {"maint_hops_per_node_s", "hops/node/s"},
    {"softstate_bytes_per_node", "B"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.probes_per_join", "count"},
    {"net.probe_ns", "ns"},
    {"proximity.measure_ns_per_node", "ns"},
    {"geom.hilbert_ns_per_node", "ns"},
    {"overlay.join_us_p50", "us"},
    {"overlay.join_growth", "ratio"},
    {"overlay.tables_us_per_node", "us"},
    {"overlay.bytes_per_node", "B"},
    {"overlay.hops_per_lookup", "count"},
    {"overlay.route_ns_per_hop", "ns"},
    {"overlay.lazy_repairs", "count"},
    {"overlay.broken_entries", "count"},
    {"softstate.publish_us", "us"},
    {"softstate.publish_hops_per_node", "count"},
    {"softstate.publish_per_s", "publishes/s"},
    {"softstate.map_lookup_per_s", "lookups/s"},
    {"softstate.lookup_us", "us"},
    {"softstate.candidates_per_lookup", "count"},
    {"softstate.bytes_per_node", "B"},
    {"softstate.expire_us", "us"},
    {"softstate.ae_summary_bytes", "B"},
    {"softstate.ae_delta_bytes", "B"},
    {"softstate.ae_useful_ratio", "ratio"},
    {"softstate.ae_bytes_per_node_s", "B/node/s"},
    {"softstate.shard_publish_speedup", "x"},
    {"softstate.shard_lookup_speedup", "x"},
    {"pubsub.predicate_evals_per_join", "count"},
    {"pubsub.notifications_per_republish", "count"},
    {"pubsub.hops_per_notification", "count"},
    {"pubsub.useful_ratio", "ratio"},
    {"core.split_ms_per_join", "ms"},
    {"core.publish_ms_per_join", "ms"},
    {"core.select_ms_per_join", "ms"},
    {"core.map_fetch_ms_per_join", "ms"},
    {"core.rank_ms_per_join", "ms"},
    {"core.subscribe_ms_per_join", "ms"},
    {"core.publish_per_s", "publishes/s"},
    {"core.lookup_us_p50", "us"},
    {"core.lookup_us_p99", "us"},
    {"core.join_per_s", "joins/s"},
    {"core.join_growth", "ratio"},
    {"core.join_us", "us"},
    {"core.leave_us", "us"},
    {"core.crash_us", "us"},
    {"core.republish_us_p50", "us"},
    {"core.republish_us_p99", "us"},
    {"core.reselections_per_republish", "count"},
    {"core.probes_per_reselection", "count"},
    {"sim_s_per_s", "sim-s/s"},
    {"sim.run_for_self_ms_per_sim_s", "ms/sim-s"},
    {"net.self_s", "s"},
    {"proximity.self_s", "s"},
    {"geom.self_s", "s"},
    {"overlay.self_s", "s"},
    {"softstate.self_s", "s"},
    {"core.self_s", "s"},
    {"sim.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.layer_cover_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
};

/// Orders `measured` by `specs`; a spec with no measurement reads 0 when
/// `missing_ok`, otherwise it is an error (returned in `missing`).
template <std::size_t N>
std::vector<Metric> canonical(const MetricSpec (&specs)[N],
                              const std::vector<Metric>& measured,
                              bool missing_ok, std::vector<std::string>& missing) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() && !missing_ok) missing.push_back(spec.name);
    out.push_back({spec.name, it == by_name.end() ? 0.0 : it->second, spec.unit});
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload bootstrap|churn|scale "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value))
      return usage(("bad value for " + arg).c_str());
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // The facade workloads run on this thread alone. Their only use of the
  // library's thread pool is the RTT engine build inside set-up, and with
  // a worker per CPU that build read 0.011 s or 0.035 s by turns, with the
  // machine's other load; on one thread it reads the same within the
  // machine's drift. Results do not depend on THREADS.
  if (options.workload != "scale") setenv("THREADS", "1", 1);

  Report (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "bootstrap") run = run_bootstrap;
  if (options.workload == "churn") run = run_churn;
  if (options.workload == "scale") run = run_scale;
  if (run == nullptr) return usage("unknown workload");

  Tracer tracer(options.trace);
  Report report;
  try {
    report = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  // The facade workloads sample their peak after the first replica, so
  // that it is one system's; otherwise it is the whole run's.
  if (std::none_of(report.end_to_end.begin(), report.end_to_end.end(),
                   [](const Metric& m) { return m.name == "peak_rss_mib"; }))
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  if (options.trace) finish_trace(options, tracer, report);

  std::vector<std::string> missing;
  const std::vector<Metric> e2e =
      canonical(kEndToEnd, report.end_to_end, false, missing);
  const std::vector<Metric> layer =
      canonical(kPerLayer, report.per_layer, true, missing);
  for (const std::string& name : missing)
    report.failed_checks.push_back("metric not measured: " + name);
  for (const std::string& what : report.failed_checks)
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());

  const std::vector<Metric>& shown = options.trace ? layer : e2e;
  for (const Metric& m : shown)
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (options.trace) std::printf("traced end_to_end: %s\n", metrics_json(e2e).c_str());
  const bool correct = report.failed_checks.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(shown).c_str());
  return correct ? 0 : 1;
}
