#include "trace.h"

#include <cstdio>

namespace e2ebench {

namespace {
// Spans open on this thread, innermost last.
thread_local std::vector<size_t> open_spans;
}  // namespace

size_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t parent =
      open_spans.empty() ? -1 : static_cast<int64_t>(open_spans.back());
  size_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = spans_.size();
    spans_.push_back({name, NowNs(), 0, parent, request});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(size_t id) {
  const uint64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path, const std::string& header_json,
                       const std::vector<Metric>& per_layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    origin = std::min(origin, s.start_ns);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s,\n\"per_layer\": {", header_json.c_str());
  for (size_t i = 0; i < per_layer.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", per_layer[i].name.c_str(),
                 per_layer[i].value, per_layer[i].unit.c_str());
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %lld, "
                 "\"request\": %llu}",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - origin) * 1e-3,
                 static_cast<double>(self) * 1e-3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void LayerSamples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

double LayerSamples::Mean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : e2ebench::Mean(it->second);
}

double LayerSamples::Pct(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Percentile(it->second, q);
}

}  // namespace e2ebench
