// Sharding benchmark: N in-process shard servers behind the scatter-
// gather router, against one reference engine fed the identical
// (unsplit) source. Records routed point-query latency (router hop +
// owning shard) next to the single-engine baseline, and scatter-gather
// wide-query latency, all over real loopback sockets.
//
// Correctness rides along with the load: every scatter answer set is
// byte-compared against the reference engine at every level (the
// router's merge must be indistinguishable from one engine holding all
// of Sigma), every routed point answer is byte-compared too, and a
// write phase routes fresh facts through the router and re-checks the
// merge. The run fails (non-zero exit) on any divergence or any routing
// error.
//
//   $ bench_sharding [--keys N] [--shards N] [--queries N]
//                    [--scatters N] [--writes N] [--json PATH]
//
// Machine-readable record: one JSON object written to --json, or to
// $MULTILOG_SHARDING_JSON, or to BENCH_sharding.json (in that order).
// scripts/run_experiments.sh picks it up as the sharding experiment
// (EXPERIMENTS.md section K).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "multilog/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "sharding/router.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"

namespace {

using namespace multilog;
using server::Client;
using server::Json;

constexpr const char* kLevels[] = {"u", "c", "s"};

/// A Sigma spread over `keys` entities at rotating levels, plus an
/// anchored replicated rule so scatter answers mix stored and derived
/// cells. Every fact carries a key cell (Def. 5.4 entity integrity).
std::string BuildSource(size_t keys) {
  std::string src =
      "level(u). level(c). level(s).\n"
      "order(u, c). order(c, s).\n";
  for (size_t i = 0; i < keys; ++i) {
    const std::string level = kLevels[i % 3];
    const std::string key = "k" + std::to_string(i);
    src += level + "[doc(" + key + " : id -" + level + "-> " + key +
           ", val -" + level + "-> v" + std::to_string(i % 7) + ")].\n";
  }
  src += "s[doc(K : vet -u-> yes)] :- u[doc(K : id -u-> K)] << cau.\n";
  return src;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) / 100.0 + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

/// One query round trip, timed; returns the serialized answers or ""
/// on error (counted by the caller).
std::string TimedAnswers(Client& client, const std::string& goal,
                         std::vector<double>* samples, size_t* errors) {
  const auto start = std::chrono::steady_clock::now();
  Result<Json> r = client.Query(goal);
  samples->push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  const Json* answers = r.ok() ? r->Find("answers") : nullptr;
  if (answers == nullptr) {
    ++*errors;
    return "";
  }
  return answers->Serialize();
}

}  // namespace

int main(int argc, char** argv) {
  size_t keys = 240;
  size_t shards = 4;
  size_t point_queries = 400;
  size_t scatter_queries = 60;
  size_t writes = 60;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--keys") {
      keys = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--shards") {
      shards = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--queries") {
      point_queries = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--scatters") {
      scatter_queries = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--writes") {
      writes = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--keys N] [--shards N] [--queries N] "
                   "[--scatters N] [--writes N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (json_path.empty()) {
    const char* env = std::getenv("MULTILOG_SHARDING_JSON");
    json_path = env != nullptr ? env : "BENCH_sharding.json";
  }

  const std::string source = BuildSource(keys);

  // --- Shard fleet: PartitionSource's split, one server per shard. ---
  const sharding::ShardMap map(shards);
  Result<std::vector<std::string>> parts =
      sharding::PartitionSource(source, map);
  if (!parts.ok()) {
    std::fprintf(stderr, "partition: %s\n", parts.status().ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<ml::Engine>> shard_engines;
  std::vector<std::unique_ptr<server::Server>> shard_servers;
  std::vector<sharding::ShardEndpoint> shard_endpoints;
  for (const std::string& part : *parts) {
    Result<ml::Engine> engine = ml::Engine::FromSource(part);
    if (!engine.ok()) {
      std::fprintf(stderr, "shard engine: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    shard_engines.push_back(
        std::make_unique<ml::Engine>(std::move(engine).value()));
    server::ServerOptions options;
    options.port = 0;
    shard_servers.push_back(std::make_unique<server::Server>(
        shard_engines.back().get(), options,
        std::vector<server::SqlCatalogEntry>{}));
    if (Status s = shard_servers.back()->Start(); !s.ok()) {
      std::fprintf(stderr, "shard start: %s\n", s.ToString().c_str());
      return 1;
    }
    shard_endpoints.push_back({"127.0.0.1", shard_servers.back()->port()});
  }
  Result<std::unique_ptr<sharding::Router>> router =
      sharding::Router::Open(source, shard_endpoints);
  if (!router.ok()) {
    std::fprintf(stderr, "router: %s\n", router.status().ToString().c_str());
    return 1;
  }
  server::ServerOptions router_options;
  router_options.port = 0;
  server::Server router_server(router->get(), router_options);
  if (Status s = router_server.Start(); !s.ok()) {
    std::fprintf(stderr, "router start: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- Reference: one engine over the unsplit source. ----------------
  Result<ml::Engine> reference = ml::Engine::FromSource(source);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference engine: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  server::ServerOptions ref_options;
  ref_options.port = 0;
  server::Server reference_server(&*reference, ref_options);
  if (Status s = reference_server.Start(); !s.ok()) {
    std::fprintf(stderr, "reference start: %s\n", s.ToString().c_str());
    return 1;
  }

  auto connect = [](uint16_t port, const char* level) -> Result<Client> {
    Result<Client> client = Client::Connect(port);
    if (!client.ok()) return client;
    if (Result<Json> hello = client->Hello(level); !hello.ok()) {
      return hello.status();
    }
    return client;
  };
  Result<Client> via_router = connect(router_server.port(), "s");
  Result<Client> via_ref = connect(reference_server.port(), "s");
  if (!via_router.ok() || !via_ref.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 (!via_router.ok() ? via_router : via_ref)
                     .status().ToString().c_str());
    return 1;
  }

  size_t divergences = 0;
  size_t errors = 0;

  // --- Scatter-gather gate + latency: the merged wide answer must be
  // byte-identical to the single engine's, at every level. ------------
  std::vector<double> scatter_ms, scatter_ref_ms;
  const std::string wide_goal = "?- s[doc(K : val -R-> V)] << cau.";
  for (const char* level : kLevels) {
    Result<Client> a = connect(router_server.port(), level);
    Result<Client> b = connect(reference_server.port(), level);
    if (!a.ok() || !b.ok()) return 1;
    const std::string goal =
        "?- " + std::string(level) + "[doc(K : val -R-> V)] << cau.";
    const std::string got = TimedAnswers(*a, goal, &scatter_ms, &errors);
    const std::string want = TimedAnswers(*b, goal, &scatter_ref_ms, &errors);
    if (got != want) {
      std::fprintf(stderr, "scatter divergence at level %s\n", level);
      ++divergences;
    }
  }
  for (size_t i = 0; i < scatter_queries; ++i) {
    const std::string got =
        TimedAnswers(*via_router, wide_goal, &scatter_ms, &errors);
    const std::string want =
        TimedAnswers(*via_ref, wide_goal, &scatter_ref_ms, &errors);
    if (got != want) ++divergences;
  }

  // --- Point-query latency: routed vs the single-engine baseline.
  // Point relays are verbatim, so both sides must be byte-identical. --
  std::vector<double> point_ms, point_ref_ms;
  for (size_t i = 0; i < point_queries; ++i) {
    const std::string goal = "?- s[doc(k" + std::to_string(i % keys) +
                             " : vet -R-> V)] << cau.";
    const std::string got =
        TimedAnswers(*via_router, goal, &point_ms, &errors);
    const std::string want =
        TimedAnswers(*via_ref, goal, &point_ref_ms, &errors);
    if (got != want) ++divergences;
  }
  // QPS from the routed samples alone (the stream interleaves both
  // sides, so wall clock would charge the baseline to the router).
  double routed_total_ms = 0;
  for (double ms : point_ms) routed_total_ms += ms;
  const double routed_qps =
      routed_total_ms > 0 ? static_cast<double>(point_queries) /
                                (routed_total_ms / 1000.0)
                          : 0;

  // --- Write phase: fresh facts routed to their owners, then the wide
  // answer re-compared (the reference gets the same stream). ----------
  Result<Client> w_router = connect(router_server.port(), "c");
  Result<Client> w_ref = connect(reference_server.port(), "c");
  if (!w_router.ok() || !w_ref.ok()) return 1;
  for (size_t i = 0; i < writes; ++i) {
    const std::string entity = "fresh" + std::to_string(i);
    const std::string fact =
        "c[doc(" + entity + " : val -c-> " + entity + ")].";
    Result<Json> a = w_router->Assert(fact);
    Result<Json> b = w_ref->Assert(fact);
    if (a.ok() != b.ok()) {
      std::fprintf(stderr, "write outcome divergence at %zu\n", i);
      ++divergences;
    } else if (!a.ok()) {
      ++errors;
    }
  }
  {
    const std::string goal = "?- c[doc(K : val -R-> V)] << cau.";
    const std::string got =
        TimedAnswers(*via_router, goal, &scatter_ms, &errors);
    const std::string want =
        TimedAnswers(*via_ref, goal, &scatter_ref_ms, &errors);
    if (got != want) {
      std::fprintf(stderr, "post-write scatter divergence\n");
      ++divergences;
    }
  }

  const sharding::RouterCounters counters = (*router)->Counters();
  router_server.Stop();
  for (auto& server : shard_servers) server->Stop();
  reference_server.Stop();

  std::sort(point_ms.begin(), point_ms.end());
  std::sort(point_ref_ms.begin(), point_ref_ms.end());
  std::sort(scatter_ms.begin(), scatter_ms.end());
  std::sort(scatter_ref_ms.begin(), scatter_ref_ms.end());
  const double point_p50 = Percentile(point_ms, 50);
  const double point_p99 = Percentile(point_ms, 99);
  const double point_ref_p50 = Percentile(point_ref_ms, 50);
  const double point_ref_p99 = Percentile(point_ref_ms, 99);
  const double scatter_p50 = Percentile(scatter_ms, 50);
  const double scatter_p99 = Percentile(scatter_ms, 99);
  const double scatter_ref_p50 = Percentile(scatter_ref_ms, 50);

  const bool clean = divergences == 0 && errors == 0 &&
                     counters.shard_errors == 0;
  std::printf(
      "sharding: %zu keys -> %zu shards, %zu point + %zu scatter queries, "
      "%zu writes\n"
      "  point routed p50 %.3f ms p99 %.3f ms (single engine p50 %.3f ms "
      "p99 %.3f ms), %.0f qps\n"
      "  scatter p50 %.3f ms p99 %.3f ms (single engine p50 %.3f ms)\n"
      "  divergences: %zu, errors: %zu, shard errors: %llu -> %s\n",
      keys, shards, point_queries, scatter_queries + 4, writes, point_p50,
      point_p99, point_ref_p50, point_ref_p99, routed_qps, scatter_p50,
      scatter_p99, scatter_ref_p50, divergences, errors,
      static_cast<unsigned long long>(counters.shard_errors),
      clean ? "ok" : "FAILED");

  Json record = Json::Object();
  record.Set("bench", Json::Str("sharding"));
  record.Set("keys", Json::Int(static_cast<int64_t>(keys)));
  record.Set("shards", Json::Int(static_cast<int64_t>(shards)));
  record.Set("point_queries", Json::Int(static_cast<int64_t>(point_queries)));
  record.Set("point_routed_p50_ms", Json::Double(point_p50));
  record.Set("point_routed_p99_ms", Json::Double(point_p99));
  record.Set("point_single_p50_ms", Json::Double(point_ref_p50));
  record.Set("point_single_p99_ms", Json::Double(point_ref_p99));
  record.Set("point_routed_qps", Json::Double(routed_qps));
  record.Set("scatter_p50_ms", Json::Double(scatter_p50));
  record.Set("scatter_p99_ms", Json::Double(scatter_p99));
  record.Set("scatter_single_p50_ms", Json::Double(scatter_ref_p50));
  record.Set("writes", Json::Int(static_cast<int64_t>(writes)));
  record.Set("divergences", Json::Int(static_cast<int64_t>(divergences)));
  record.Set("byte_identical", Json::Bool(divergences == 0));
  record.Set("errors", Json::Int(static_cast<int64_t>(errors)));
  std::ofstream out(json_path);
  if (out) {
    out << record.Serialize() << "\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return clean ? 0 : 1;
}
