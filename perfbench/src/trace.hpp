// In-memory span recorder for the traced run.
//
// Spans are recorded only around the benchmark's own calls into a library
// layer: name, layer, start, end, parent span and a per-operation trace id
// (every direct child of the workload's root span starts a new trace; its
// descendants inherit it). Counter deltas taken at the same boundaries are
// attached to the span as arguments. Nothing is written until the run
// ends, when the whole trace is exported as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev).
//
// A disabled tracer records nothing: every Span is one branch, so the
// untraced run measures the workload without tracing cost.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(const char* name, const char* layer);
  void end(int span);
  /// Attaches a named counter delta to an open or closed span.
  void counter(int span, const char* name, double value);

  std::size_t span_count() const { return spans_.size(); }

  /// Self time (duration minus the part covered by child spans) summed per
  /// layer, in seconds, in first-seen layer order.
  std::vector<std::pair<std::string, double>> layer_self_seconds() const;

  /// Duration of the first root span (the workload), in seconds.
  double root_seconds() const;

  /// Writes the Chrome trace-event JSON; `metrics` become the trace's
  /// metadata. Returns false if the file could not be written.
  bool write_chrome_trace(const std::string& path,
                          const std::vector<Metric>& metrics) const;

  /// Cost of one begin/end pair on this machine, in nanoseconds (measured
  /// on a scratch tracer) — the basis of the overhead estimate.
  static double span_cost_ns();

 private:
  struct SpanRecord {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t trace_id;
  };
  struct CounterRecord {
    int span;
    const char* name;
    double value;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<int> open_;
  std::uint64_t next_trace_ = 0;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, const char* layer)
      : tracer_(&tracer), index_(tracer.begin(name, layer)) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void counter(const char* name, double value) {
    if (index_ >= 0) tracer_->counter(index_, name, value);
  }
  void close() {
    if (index_ >= 0 && !closed_) tracer_->end(index_);
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  int index_;
  bool closed_ = false;
};

/// Adds the trace-derived per-layer metrics (layer self times, coverage,
/// span count, estimated overhead) to `report` and writes the trace file.
void finish_trace(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
