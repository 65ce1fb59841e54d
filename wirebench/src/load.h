#ifndef WIREBENCH_LOAD_H_
#define WIREBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

struct RunConfig {
  std::string workload;   // point_read | scan_read | write_mix | routed_read
  uint64_t seed = 1;
  double seconds = 10;    // the measured window
  bool trace = false;     // the traced (per-layer) run
  std::string multilogd;  // daemon binary
  std::string workdir;    // scratch root for .mlog files and data dirs
  /// Corrupts the first checked answer the load generator receives, so
  /// the harness tests can prove the oracle notices.
  bool inject_wrong_answer = false;
  /// Smoke scale: a tenth of the keys and one set-up, for the harness
  /// tests.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  /// One JSON object with everything else the run measured: all the
  /// per-op-type latencies with their sample counts, failed_ops_frac,
  /// and the paths the workload does not exercise.
  std::string report_json;
  std::string trace_table;  // the traced-run report (traced runs only)
};

bool IsWorkload(const std::string& name);

/// Runs one workload end to end: generate, set up three times (once at
/// smoke scale), drive the measured window, check every answer, tear
/// down. Returns false (with `*error`) when the run could not be carried
/// out at all.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

/// Determinism self-check of the Sigma and op-stream generators: the same
/// seed yields the same bytes, another seed different bytes.
bool GeneratorsDeterministic(uint64_t seed, std::string* error);

}  // namespace wirebench

#endif  // WIREBENCH_LOAD_H_
