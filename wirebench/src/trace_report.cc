#include "trace_report.h"

#include <cstdio>
#include <vector>

namespace wirebench {

using multilog::server::Json;

namespace {

double Dur(const Json& node) {
  return static_cast<double>(node.GetInt("dur_us", 0));
}

/// Adds `node`'s subtree self times into `per_request`.
void Walk(const Json& node, std::map<std::string, std::pair<double, uint64_t>>*
                                per_request) {
  double children = 0;
  if (const Json* kids = node.Find("children");
      kids != nullptr && kids->is_array()) {
    for (const Json& child : kids->array_items()) {
      children += Dur(child);
      Walk(child, per_request);
    }
  }
  const double self = Dur(node) - children;
  auto& slot = (*per_request)[node.GetString("stage", "?")];
  // Spans timed on different clocks (parse, queue_wait) can overlap by a
  // microsecond of rounding; self time never goes negative.
  slot.first += self > 0 ? self : 0;
  slot.second += 1;
}

}  // namespace

void TraceAgg::Add(const Json& root, double client_rtt_us) {
  std::map<std::string, std::pair<double, uint64_t>> per_request;
  Walk(root, &per_request);
  for (const auto& [name, self] : per_request) {
    Stage& s = stages_[name];
    s.self_us += self.first;
    s.spans += self.second;
    s.requests += 1;
  }
  const double root_us = Dur(root);
  double covered = 0;
  if (const Json* kids = root.Find("children");
      kids != nullptr && kids->is_array()) {
    for (const Json& child : kids->array_items()) covered += Dur(child);
  }
  ++traces_;
  root_us_ += root_us;
  covered_us_ += covered < root_us ? covered : root_us;
  residual_us_ += client_rtt_us - root_us;
}

void TraceAgg::Merge(const TraceAgg& other) {
  for (const auto& [name, s] : other.stages_) {
    Stage& mine = stages_[name];
    mine.self_us += s.self_us;
    mine.requests += s.requests;
    mine.spans += s.spans;
  }
  traces_ += other.traces_;
  root_us_ += other.root_us_;
  covered_us_ += other.covered_us_;
  residual_us_ += other.residual_us_;
}

const TraceAgg::Stage* TraceAgg::Find(const std::string& stage) const {
  auto it = stages_.find(stage);
  return it == stages_.end() ? nullptr : &it->second;
}

double TraceAgg::SelfUsPerRequest(const std::string& stage) const {
  const Stage* s = Find(stage);
  if (s == nullptr || s->requests == 0) return 0;
  return s->self_us / static_cast<double>(s->requests);
}

std::string TraceAgg::Table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %10s %10s %12s %14s\n", "stage",
                "requests", "spans", "self_us/req", "share_of_root");
  out += line;
  for (const auto& [name, s] : stages_) {
    std::snprintf(line, sizeof line, "%-18s %10llu %10llu %12.2f %13.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(s.requests),
                  static_cast<unsigned long long>(s.spans),
                  s.requests > 0 ? s.self_us / static_cast<double>(s.requests)
                                 : 0.0,
                  root_us_ > 0 ? 100.0 * s.self_us / root_us_ : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "traces %llu, coverage %.3f, client residual %.1f us/req\n",
                static_cast<unsigned long long>(traces_), Coverage(),
                ResidualUs());
  out += line;
  return out;
}

}  // namespace wirebench
