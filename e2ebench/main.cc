// End-to-end and per-layer benchmark of the Staccato engine.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--trace-out <file.json>]
//
// Prints one line per metric and, as its last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around the calls into each module and reports the
// per-layer metrics (and writes the spans to --trace-out).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>]\nworkloads:",
               why);
  for (const std::string& w : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  if (s[0] < '0' || s[0] > '9') return false;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* val = argv[i + 1];
    uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = val;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseU64(val, &opts.seed)) return Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseU64(val, &v) || v == 0 || v > 600) return Usage("bad --seconds");
      opts.seconds = static_cast<double>(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseU64(val, &v) || v > 1) return Usage("bad --trace");
      opts.trace = v == 1;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      opts.work_dir = val;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      opts.trace_path = val;
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (!have_workload || opts.work_dir.empty()) return Usage("missing flag");

  e2ebench::RunResult result;
  staccato::Status st = e2ebench::RunWorkload(opts, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const std::string& e : result.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const e2ebench::Metric& m = result.metrics[i];
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
