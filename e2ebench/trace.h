// The benchmark's own tracing: spans around the public calls it makes into
// each module, kept in memory and written out as JSON when the run ends.
//
// A span has a name, start and end, the span that caused it (the
// innermost span still open on the same thread) and the request it belongs
// to. A null Tracer turns every span into a no-op, which is how the
// untraced run and the untraced blocks of the traced run execute.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"

namespace e2ebench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the span list, -1 = root
  uint64_t request = 0;
};

class Tracer {
 public:
  /// Opens a span on the calling thread and returns its id.
  size_t Begin(const char* name, uint64_t request);
  /// Closes span `id` (the innermost one open on this thread).
  void End(size_t id);
  size_t size() const;

  /// Writes every span (with its self time: its duration minus the time
  /// its child spans cover) and the per-layer metrics to `path`.
  bool WriteJson(const std::string& path, const std::string& header_json,
                 const std::vector<Metric>& per_layer) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. With a null tracer it records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

/// Named samples of per-layer quantities, gathered from many threads.
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  double Mean(const std::string& name) const;
  double Pct(const std::string& name, double q) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace e2ebench
