#ifndef WIREBENCH_TRACE_REPORT_H_
#define WIREBENCH_TRACE_REPORT_H_

#include <cstdint>
#include <map>
#include <string>

#include "server/json.h"

namespace wirebench {

/// Aggregates the per-query span trees the server returns for
/// `"trace": true` (src/common/trace.h): per-stage self time (a span's
/// duration minus what its children cover), how much of each root the
/// named child stages cover, and the client round trip the root does
/// not explain (send, completion queue, syscalls, the client's own
/// parse).
class TraceAgg {
 public:
  struct Stage {
    double self_us = 0;     // summed self time
    uint64_t requests = 0;  // traced requests whose tree holds the stage
    uint64_t spans = 0;     // spans of the stage
  };

  /// Adds one response's "trace" member, with the client-measured round
  /// trip of the same request in µs.
  void Add(const multilog::server::Json& root, double client_rtt_us);
  void Merge(const TraceAgg& other);

  /// Mean self time per traced request that contains `stage`; 0 when no
  /// request did.
  double SelfUsPerRequest(const std::string& stage) const;
  const Stage* Find(const std::string& stage) const;

  uint64_t traces() const { return traces_; }
  /// Share of the root's duration covered by its named child stages.
  double Coverage() const {
    return root_us_ > 0 ? covered_us_ / root_us_ : 0;
  }
  /// Mean client round trip minus the trace root, µs.
  double ResidualUs() const {
    return traces_ > 0 ? residual_us_ / static_cast<double>(traces_) : 0;
  }

  /// The per-stage self-time table of the traced-run report.
  std::string Table() const;

 private:
  std::map<std::string, Stage> stages_;
  uint64_t traces_ = 0;
  double root_us_ = 0;
  double covered_us_ = 0;
  double residual_us_ = 0;
};

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_REPORT_H_
