#include "trace.hpp"

#include <fstream>
#include <iomanip>

namespace perfbench {

int Tracer::begin(const char* name, const char* layer) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  std::uint64_t trace_id = 0;
  if (parent < 0 || spans_[static_cast<std::size_t>(parent)].parent < 0)
    trace_id = ++next_trace_;
  else
    trace_id = spans_[static_cast<std::size_t>(parent)].trace_id;
  spans_.push_back({name, layer, now_ns(), -1, parent, trace_id});
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  // Spans close innermost first (RAII); tolerate an out-of-order close.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == span) {
      open_.erase(std::next(it).base());
      break;
    }
  }
}

void Tracer::counter(int span, const char* name, double value) {
  counters_.push_back({span, name, value});
}

std::vector<std::pair<std::string, double>> Tracer::layer_self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::vector<std::pair<std::string, double>> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double self_s =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& l) { return l.first == s.layer; });
    if (it == layers.end())
      layers.emplace_back(s.layer, self_s);
    else
      it->second += self_s;
  }
  return layers;
}

double Tracer::root_seconds() const {
  for (const SpanRecord& s : spans_)
    if (s.parent < 0 && s.end_ns >= 0)
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return 0.0;
}

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<Metric>& metrics) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);
  // Counters grouped by span, in span order.
  std::vector<std::vector<const CounterRecord*>> by_span(spans_.size());
  for (const CounterRecord& c : counters_)
    by_span[static_cast<std::size_t>(c.span)].push_back(&c);
  out << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ");
    write_json_string(out, metrics[i].name);
    out << ": " << metrics[i].value;
  }
  out << "},\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
    out << (i == 0 ? "" : ",\n") << "{\"name\": ";
    write_json_string(out, s.name);
    out << ", \"cat\": ";
    write_json_string(out, s.layer);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(end - s.start_ns) * 1e-3
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"trace_id\": " << s.trace_id;
    for (const CounterRecord* c : by_span[i]) {
      out << ", ";
      write_json_string(out, c->name);
      out << ": " << c->value;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Tracer::span_cost_ns() {
  constexpr int kPairs = 200'000;
  Tracer scratch(true);
  const int root = scratch.begin("calibrate", "bench");
  const auto start = Clock::now();
  for (int i = 0; i < kPairs; ++i) scratch.end(scratch.begin("span", "bench"));
  const double elapsed_ns = seconds_since(start) * 1e9;
  scratch.end(root);
  return elapsed_ns / kPairs;
}

// The library layers a span can be attributed to; "bench" is the
// benchmark's own time between layer calls.
static const char* const kLayers[] = {"net",       "proximity", "geom",
                                      "overlay",   "softstate", "core",
                                      "sim",       "bench"};

void finish_trace(const Options& options, Tracer& tracer, Report& report) {
  const auto self = tracer.layer_self_seconds();
  const double wall = tracer.root_seconds();
  double library_s = 0.0;
  for (const char* layer : kLayers) {
    double value = 0.0;
    for (const auto& [name, seconds] : self)
      if (name == layer) value = seconds;
    report.layer(std::string(layer) + ".self_s", value, "s");
    if (std::string(layer) != "bench") library_s += value;
  }
  const double spans = static_cast<double>(tracer.span_count());
  report.layer("trace.wall_s", wall, "s");
  report.layer("trace.layer_cover_frac", ratio(library_s, wall), "ratio");
  report.layer("trace.spans", spans, "count");
  report.layer("trace.overhead_frac",
               ratio(spans * Tracer::span_cost_ns() * 1e-9, wall), "ratio");

  if (!options.trace_path.empty()) {
    std::vector<Metric> all = report.end_to_end;
    all.insert(all.end(), report.per_layer.begin(), report.per_layer.end());
    if (!tracer.write_chrome_trace(options.trace_path, all))
      std::fprintf(stderr, "could not write trace %s\n",
                   options.trace_path.c_str());
    else
      std::fprintf(stderr, "trace written to %s\n", options.trace_path.c_str());
  }
}

}  // namespace perfbench
