// wirebench: the repository's wire-level benchmark. Drives real
// multilogd processes (primary, replica, router, shards) over loopback
// from one load-generator process, checks every answer against an
// in-process reference engine, and prints the metrics. run.py builds it
// and is the entry point:
//
//   python3 wirebench/run.py --workload point_read --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is the result object; the lines before it are
// the build stamp, the full report, and (traced runs) the per-stage
// table.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "fleet.h"
#include "load.h"
#include "server/json.h"

namespace {

using multilog::server::Json;

#ifndef WIREBENCH_COMPILER
#define WIREBENCH_COMPILER "unknown"
#endif
#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WIREBENCH_CXX_FLAGS
#define WIREBENCH_CXX_FLAGS ""
#endif

void OnSignal(int sig) {
  wirebench::KillAllDaemonsFromSignal();
  signal(sig, SIG_DFL);
  raise(sig);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// What the numbers were measured on. A build without -O2/-O3 is
/// flagged: its numbers say nothing about the served system.
Json Stamp() {
  const std::string flags = WIREBENCH_CXX_FLAGS;
  const bool optimised = flags.find("-O2") != std::string::npos ||
                         flags.find("-O3") != std::string::npos;
  Json stamp = Json::Object();
  stamp.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  stamp.Set("cpu", Json::Str(CpuModel()));
  stamp.Set("compiler", Json::Str(WIREBENCH_COMPILER));
  stamp.Set("build_type", Json::Str(WIREBENCH_BUILD_TYPE));
  stamp.Set("flags", Json::Str(flags));
  stamp.Set("optimised", Json::Bool(optimised));
  return stamp;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          --multilogd PATH --workdir DIR\n"
               "          [--smoke] [--inject-wrong-answer]\n"
               "workloads: point_read scan_read write_mix routed_read\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wirebench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      cfg.trace = next() == "1";
    } else if (arg == "--multilogd") {
      cfg.multilogd = next();
    } else if (arg == "--workdir") {
      cfg.workdir = next();
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--inject-wrong-answer") {
      cfg.inject_wrong_answer = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!wirebench::IsWorkload(cfg.workload) || cfg.seconds <= 0 ||
      cfg.multilogd.empty() || cfg.workdir.empty()) {
    return Usage(argv[0]);
  }
  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  signal(SIGPIPE, SIG_IGN);

  const Json stamp = Stamp();
  std::printf("stamp %s\n", stamp.Serialize().c_str());
  if (!stamp.GetBool("optimised", false)) {
    std::fprintf(stderr,
                 "wirebench: WARNING: unoptimised build (%s); numbers are "
                 "not comparable\n",
                 WIREBENCH_CXX_FLAGS);
  }

  std::string error;
  if (!wirebench::GeneratorsDeterministic(cfg.seed, &error)) {
    std::fprintf(stderr, "wirebench: %s\n", error.c_str());
    return 1;
  }
  wirebench::RunResult result;
  if (!wirebench::RunWorkload(cfg, &result, &error)) {
    std::fprintf(stderr, "wirebench: %s\n", error.c_str());
    return 1;
  }
  std::printf("report %s\n", result.report_json.c_str());
  if (!result.trace_table.empty()) {
    std::printf("%s", result.trace_table.c_str());
  }

  Json metrics = Json::Object();
  for (const wirebench::Metric& m : result.metrics) {
    Json v = Json::Object();
    v.Set("value", Json::Double(m.value));
    v.Set("unit", Json::Str(m.unit));
    metrics.Set(m.name, std::move(v));
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(result.correct));
  out.Set("attempted", Json::Int(static_cast<int64_t>(result.attempted)));
  out.Set("failed", Json::Int(static_cast<int64_t>(result.failed)));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Serialize().c_str());
  return result.correct ? 0 : 1;
}
