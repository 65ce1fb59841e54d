#ifndef MULTILOG_SHARDING_ROUTER_H_
#define MULTILOG_SHARDING_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "lattice/lattice.h"
#include "multilog/engine.h"
#include "server/protocol.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"

namespace multilog::sharding {

/// One engine shard the router fans out to.
using ShardEndpoint = server::Endpoint;

/// Observability snapshot for the router's stats/metrics surface.
struct RouterCounters {
  uint64_t point_queries = 0;
  uint64_t scatter_queries = 0;
  uint64_t anywhere_queries = 0;
  uint64_t refused_queries = 0;  // unroutable goals (cross-shard joins...)
  uint64_t writes_routed = 0;
  uint64_t checkpoint_fanouts = 0;
  uint64_t shard_errors = 0;  // transport failures talking to shards
};

/// Where a routed request goes and what is sent there.
struct Forward {
  enum class Kind {
    kRelay,       // one shard; its reply is relayed verbatim
    kScatter,     // every shard; the replies are merged
    kCheckpoint,  // every shard; all must succeed
  };
  Kind kind = Kind::kRelay;
  size_t shard = 0;     // kRelay: the target
  std::string payload;  // the forwarded request, serialized
};

/// # multilog-router: the scatter-gather query layer over N shards
///
/// A routing object with no sockets: `multilogd --router` serves it
/// from the same event loop as an engine (server::Server, DESIGN.md
/// §17-18), which owns the client sessions and the shard backends. The
/// router decides where each request goes, builds the request sent
/// there, and merges what comes back.
///
/// Clients see the exact multilogd wire protocol; `sql` and
/// `replicate` are refused (shards own those). HELLO validates the
/// clearance against the *same* lattice the shards serve, and every
/// backend session is hello'd at the client's clearance - the shard
/// re-enforces per-level visibility exactly as if the client had
/// connected to it directly, so the router adds no trusted surface.
///
///  - Point queries (one ground entity key) go to the owning shard and
///    its response is relayed verbatim plus a "shard" member: byte-
///    identical answers in every mode, because the owner holds the
///    key's complete group (see routing.h).
///  - Wide queries (one shared non-ground key term) go to every shard
///    and return the deterministic ordered union of the decoded
///    answers - the same sorted, deduplicated order the reduced
///    semantics produces on a single engine, so reduced-mode answers
///    are byte-identical. (Operational proof *order* is an enumeration
///    artifact; the answer set is identical, served sorted.) Proof
///    trees are refused on scatter.
///  - Key-free goals route round-robin to any single shard (each holds
///    all of Lambda and Pi).
///  - Assert/Retract route to the written key's owner; Checkpoint fans
///    out to every shard.
///
/// `deadline_ms` and `min_seqno`/`wait_ms` are propagated per shard. A
/// shard that cannot be reached - or dies mid-query - yields
/// kUnavailable naming the shard, never a silently truncated answer.
class Router {
 public:
  /// Parses `db_source` - the same MultiLog source the shards were
  /// seeded from - for the lattice and the routing analysis (it is never
  /// evaluated); refuses a database that cannot be sharded soundly.
  static Result<std::unique_ptr<Router>> Open(
      const std::string& db_source, std::vector<ShardEndpoint> shards);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const lattice::SecurityLattice& lattice() const { return lattice_; }
  const ShardMap& shard_map() const { return map_; }
  const std::vector<ShardEndpoint>& shards() const { return shards_; }
  RouterCounters Counters() const;

  /// Routes a query, assert, retract, or checkpoint. The forwarded
  /// request pins the effective mode and deadline, so a shard's defaults
  /// can never disagree with the client's session. A refusal (bad goal,
  /// cross-shard join, proofs on scatter) is the error to answer with.
  Result<Forward> Route(const server::Request& req, ml::ExecMode session_mode,
                        int64_t default_deadline_ms);

  /// The client payload for a kRelay: the shard's reply verbatim plus
  /// a "shard" member. A failed transport (`reply` not OK) becomes
  /// kUnavailable naming the shard.
  std::string Relay(size_t shard, const Result<std::string>& reply);

  /// The client response for a fan-out, from one reply per shard (by
  /// index). Any failure fails the whole request, lowest shard index
  /// first, with no partial answer. A scatter's answers are the ordered
  /// union; a checkpoint reports `level` and the shard count.
  server::Json Merge(Forward::Kind kind,
                     const std::vector<Result<std::string>>& replies,
                     const std::string& level,
                     std::chrono::steady_clock::time_point start);

  /// The `shardmap` payload: version, shard count, hash, endpoints.
  server::Json ShardMapJson() const;
  /// The `stats` payload and the `metrics` body; the serving loop
  /// supplies its session and request counts.
  server::Json StatsJson(uint64_t connections_open,
                         uint64_t requests_total) const;
  std::string MetricsText(uint64_t connections_open,
                          uint64_t requests_total) const;

 private:
  Router(std::vector<ShardEndpoint> shards, RoutingAnalysis analysis,
         lattice::SecurityLattice lattice);

  Result<Forward> RouteQuery(const server::Request& req,
                             ml::ExecMode session_mode,
                             int64_t default_deadline_ms);
  /// kUnavailable naming the shard, wrapping the transport failure.
  Status ShardUnavailable(size_t shard, const Status& cause) const;

  std::vector<ShardEndpoint> shards_;
  ShardMap map_;
  RoutingAnalysis analysis_;
  lattice::SecurityLattice lattice_;

  std::atomic<uint64_t> point_queries_{0};
  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> anywhere_queries_{0};
  std::atomic<uint64_t> refused_queries_{0};
  std::atomic<uint64_t> writes_routed_{0};
  std::atomic<uint64_t> checkpoint_fanouts_{0};
  std::atomic<uint64_t> shard_errors_{0};
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace multilog::sharding

#endif  // MULTILOG_SHARDING_ROUTER_H_
