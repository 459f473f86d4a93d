// The workloads of the end-to-end benchmark. See README.md for what
// each one stresses and how its inputs are made up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "util/status.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory for the database files
  std::string trace_path;  ///< where the traced run writes its spans
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: set-up, timed phase, verification and
/// (traced runs) layer probes. Fills `out` with the end-to-end metrics, or
/// with the per-layer metrics when `opts.trace` is set. A non-OK status
/// means the run could not be carried out at all.
staccato::Status RunWorkload(const Options& opts, RunResult* out);

}  // namespace e2ebench
