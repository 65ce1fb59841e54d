#include "sharding/router.h"

#include <optional>
#include <set>
#include <utility>

#include "multilog/parser.h"

namespace multilog::sharding {

namespace {

using server::ErrorResponse;
using server::ExecModeName;
using server::Json;
using server::OkResponse;
using server::Request;

/// The routing counters by stats key; each is also exported as the
/// metric multilog_router_<key>_total.
struct CounterRow {
  const char* key;
  const char* help;
  uint64_t value;
};

std::vector<CounterRow> CounterRows(const RouterCounters& c) {
  return {
      {"point_queries", "Queries routed to a single owning shard.",
       c.point_queries},
      {"scatter_queries", "Queries scatter-gathered across every shard.",
       c.scatter_queries},
      {"anywhere_queries", "Key-free queries served round-robin by one shard.",
       c.anywhere_queries},
      {"refused_queries",
       "Goals refused as unroutable (cross-shard joins, tainted predicates).",
       c.refused_queries},
      {"writes_routed", "Asserts/retracts routed to their key's owner.",
       c.writes_routed},
      {"checkpoint_fanouts", "Checkpoints fanned out to every shard.",
       c.checkpoint_fanouts},
      {"shard_errors", "Transport failures talking to shards.",
       c.shard_errors},
  };
}

}  // namespace

Router::Router(std::vector<ShardEndpoint> shards, RoutingAnalysis analysis,
               lattice::SecurityLattice lattice)
    : shards_(std::move(shards)),
      map_(shards_.size()),
      analysis_(std::move(analysis)),
      lattice_(std::move(lattice)) {}

Result<std::unique_ptr<Router>> Router::Open(
    const std::string& db_source, std::vector<ShardEndpoint> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("a router needs at least one shard");
  }
  MULTILOG_ASSIGN_OR_RETURN(ml::Database db, ml::ParseMultiLog(db_source));
  MULTILOG_ASSIGN_OR_RETURN(ml::CheckedDatabase cdb,
                            ml::CheckDatabase(std::move(db)));
  MULTILOG_ASSIGN_OR_RETURN(RoutingAnalysis analysis,
                            RoutingAnalysis::Analyze(cdb.db));
  return std::unique_ptr<Router>(new Router(
      std::move(shards), std::move(analysis), std::move(cdb.lattice)));
}

RouterCounters Router::Counters() const {
  RouterCounters c;
  c.point_queries = point_queries_.load(std::memory_order_relaxed);
  c.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  c.anywhere_queries = anywhere_queries_.load(std::memory_order_relaxed);
  c.refused_queries = refused_queries_.load(std::memory_order_relaxed);
  c.writes_routed = writes_routed_.load(std::memory_order_relaxed);
  c.checkpoint_fanouts = checkpoint_fanouts_.load(std::memory_order_relaxed);
  c.shard_errors = shard_errors_.load(std::memory_order_relaxed);
  return c;
}

Status Router::ShardUnavailable(size_t shard, const Status& cause) const {
  const ShardEndpoint& ep = shards_[shard];
  return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                             ep.host + ":" + std::to_string(ep.port) +
                             ") is unavailable: " + cause.message());
}

Result<Forward> Router::Route(const Request& req, ml::ExecMode session_mode,
                              int64_t default_deadline_ms) {
  if (req.cmd == Request::Cmd::kQuery) {
    return RouteQuery(req, session_mode, default_deadline_ms);
  }
  Forward fwd;
  Json out = Json::Object();
  if (req.cmd == Request::Cmd::kCheckpoint) {
    checkpoint_fanouts_.fetch_add(1, std::memory_order_relaxed);
    fwd.kind = Forward::Kind::kCheckpoint;
    out.Set("cmd", Json::Str("checkpoint"));
  } else {
    // Assert/Retract: the fact's entity key names its owner. The shard
    // re-validates everything (clearance pinning, Definition 5.4) - the
    // router only decides *where*, never *whether*.
    MULTILOG_ASSIGN_OR_RETURN(std::string key, ml::RoutingKeyOfFact(req.fact));
    fwd.shard = map_.ShardOfKeyText(key);
    writes_routed_.fetch_add(1, std::memory_order_relaxed);
    out.Set("cmd", Json::Str(req.cmd == Request::Cmd::kRetract ? "retract"
                                                               : "assert"));
    out.Set("fact", Json::Str(req.fact));
  }
  fwd.payload = out.Serialize();
  return fwd;
}

Result<Forward> Router::RouteQuery(const Request& req,
                                   ml::ExecMode session_mode,
                                   int64_t default_deadline_ms) {
  Result<std::vector<ml::MlLiteral>> goal = ml::ParseMlGoal(req.goal);
  Result<RouteDecision> route =
      goal.ok() ? RouteGoal(*goal, analysis_, map_) : goal.status();
  if (route.ok() && route->kind == RouteDecision::Kind::kScatter &&
      req.want_proofs) {
    route = Status::InvalidArgument(
        "proof trees are not available for scatter-gather queries; bind "
        "the entity key for a single-shard proof");
  }
  if (!route.ok()) {
    refused_queries_.fetch_add(1, std::memory_order_relaxed);
    return route.status();
  }

  Forward fwd;
  switch (route->kind) {
    case RouteDecision::Kind::kPoint:
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      fwd.shard = route->shard;
      break;
    case RouteDecision::Kind::kAnywhere:
      anywhere_queries_.fetch_add(1, std::memory_order_relaxed);
      fwd.shard = round_robin_.fetch_add(1, std::memory_order_relaxed) %
                  shards_.size();
      break;
    case RouteDecision::Kind::kScatter:
      scatter_queries_.fetch_add(1, std::memory_order_relaxed);
      fwd.kind = Forward::Kind::kScatter;
      break;
  }
  const ml::ExecMode mode = req.mode.has_value() ? *req.mode : session_mode;
  Json out = Json::Object();
  out.Set("cmd", Json::Str("query"));
  out.Set("goal", Json::Str(req.goal));
  out.Set("mode", Json::Str(ExecModeName(mode)));
  const int64_t deadline_ms =
      req.deadline_ms >= 0
          ? req.deadline_ms
          : (default_deadline_ms > 0 ? default_deadline_ms : -1);
  if (deadline_ms >= 0) out.Set("deadline_ms", Json::Int(deadline_ms));
  if (req.want_proofs) out.Set("proofs", Json::Bool(true));
  if (req.want_trace) out.Set("trace", Json::Bool(true));
  if (req.min_seqno > 0) {
    out.Set("min_seqno", Json::Int(static_cast<int64_t>(req.min_seqno)));
    if (req.wait_ms > 0) out.Set("wait_ms", Json::Int(req.wait_ms));
  }
  fwd.payload = out.Serialize();
  return fwd;
}

std::string Router::Relay(size_t shard, const Result<std::string>& reply) {
  // The reply is spliced, not re-parsed: the client gets the owner's
  // bytes (answers, proofs, trace) exactly as the shard wrote them.
  if (!reply.ok() || reply->size() < 2 || reply->front() != '{' ||
      reply->back() != '}') {
    shard_errors_.fetch_add(1, std::memory_order_relaxed);
    const Status cause =
        reply.ok() ? Status::ParseError("malformed reply") : reply.status();
    return ErrorResponse(ShardUnavailable(shard, cause)).Serialize();
  }
  std::string payload = *reply;
  server::AppendIntMember(&payload, "shard", static_cast<int64_t>(shard));
  return payload;
}

Json Router::Merge(Forward::Kind kind,
                   const std::vector<Result<std::string>>& replies,
                   const std::string& level,
                   std::chrono::steady_clock::time_point start) {
  // Failures first, deterministically by shard index: a transport
  // failure is kUnavailable naming the shard; a shard's own structured
  // error (deadline, security...) is relayed as-is.
  std::vector<Json> parsed;
  parsed.reserve(replies.size());
  std::optional<Json> failure;
  for (size_t i = 0; i < replies.size(); ++i) {
    Result<Json> json =
        replies[i].ok() ? Json::Parse(*replies[i]) : replies[i].status();
    if (!json.ok()) {
      shard_errors_.fetch_add(1, std::memory_order_relaxed);
      if (!failure.has_value()) {
        failure = ErrorResponse(ShardUnavailable(i, json.status()));
      }
      continue;
    }
    if (!failure.has_value() && !json->GetBool("ok", false)) {
      json->Set("shard", Json::Int(static_cast<int64_t>(i)));
      failure = std::move(*json);
      continue;
    }
    parsed.push_back(std::move(*json));
  }
  if (failure.has_value()) return std::move(*failure);

  Json resp = OkResponse();
  if (kind == Forward::Kind::kCheckpoint) {
    resp.Set("level", Json::Str(level));
    resp.Set("shards", Json::Int(static_cast<int64_t>(replies.size())));
  } else {
    // Deterministic merge: the global ordered union over the decoded
    // answer tuples. Each shard's reduced-mode answers arrive sorted by
    // their canonical rendering and keys are disjoint across shards, so
    // the sorted, deduplicated union is byte-identical to a single
    // engine's answer list.
    std::set<std::string> merged;
    for (size_t i = 0; i < parsed.size(); ++i) {
      const Json* answers = parsed[i].Find("answers");
      if (answers == nullptr || !answers->is_array()) {
        return ErrorResponse(Status::Internal(
            "shard " + std::to_string(i) + " returned no answer array"));
      }
      for (const Json& answer : answers->array_items()) {
        if (answer.is_string()) merged.insert(answer.string_value());
      }
    }
    resp.Set("level", Json::Str(parsed[0].GetString("level")));
    resp.Set("mode", Json::Str(parsed[0].GetString("mode")));
    Json answers = Json::Array();
    for (const std::string& answer : merged) answers.Push(Json::Str(answer));
    resp.Set("count", Json::Int(static_cast<int64_t>(merged.size())));
    resp.Set("answers", std::move(answers));
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  resp.Set("elapsed_ms",
           Json::Double(static_cast<double>(micros.count()) / 1000.0));
  if (kind == Forward::Kind::kScatter) {
    resp.Set("shards", Json::Int(static_cast<int64_t>(replies.size())));
  }
  return resp;
}

Json Router::ShardMapJson() const {
  Json map = Json::Object();
  map.Set("version", Json::Int(static_cast<int64_t>(map_.version())));
  map.Set("num_shards", Json::Int(static_cast<int64_t>(map_.num_shards())));
  map.Set("hash", Json::Str(kShardHashName));
  Json shards = Json::Array();
  for (const ShardEndpoint& ep : shards_) {
    Json shard = Json::Object();
    shard.Set("host", Json::Str(ep.host));
    shard.Set("port", Json::Int(ep.port));
    shards.Push(std::move(shard));
  }
  map.Set("shards", std::move(shards));
  return map;
}

Json Router::StatsJson(uint64_t connections_open,
                       uint64_t requests_total) const {
  Json root = Json::Object();
  root.Set("server", Json::Str("multilog-router"));
  root.Set("connections_open",
           Json::Int(static_cast<int64_t>(connections_open)));
  root.Set("requests_total", Json::Int(static_cast<int64_t>(requests_total)));
  Json routing = Json::Object();
  for (const CounterRow& row : CounterRows(Counters())) {
    routing.Set(row.key, Json::Int(static_cast<int64_t>(row.value)));
  }
  root.Set("routing", std::move(routing));
  root.Set("shardmap", ShardMapJson());
  return root;
}

std::string Router::MetricsText(uint64_t connections_open,
                                uint64_t requests_total) const {
  std::string out;
  auto counter = [&out](const std::string& name, const char* help,
                        uint64_t value, const char* type = "counter") {
    out.append("# HELP ").append(name).append(" ").append(help).append("\n");
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  };
  counter("multilog_router_shards", "Shards in the serving map.",
          shards_.size(), "gauge");
  counter("multilog_router_connections_open", "Open client sessions.",
          connections_open, "gauge");
  counter("multilog_router_requests_total", "Requests received.",
          requests_total);
  for (const CounterRow& row : CounterRows(Counters())) {
    counter("multilog_router_" + std::string(row.key) + "_total", row.help,
            row.value);
  }
  return out;
}

}  // namespace multilog::sharding
