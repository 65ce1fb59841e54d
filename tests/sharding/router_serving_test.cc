// The router served from the engine's event loop: id-tagged pipelining
// through the router, max_in_flight admission with the server's own
// overload error, the backend pool held within that limit per shard,
// and a shard that accepts connections but never answers - it must
// hold only its own requests, and Stop must still return within the
// drain deadline.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "server/client.h"
#include "sharding/router.h"
#include "router_test_util.h"

namespace multilog::sharding {
namespace {

using server::Client;
using server::Json;

std::string PointGoal(const std::string& key) {
  return "?- c[intel(" + key + " : src -R-> V)] << opt.";
}

/// A fresh entity key the map places on `shard`.
std::string KeyOnShard(const ShardMap& map, size_t shard) {
  for (int i = 0;; ++i) {
    const std::string key = "fresh" + std::to_string(i);
    if (map.ShardOfKeyText(key) == shard) return key;
  }
}

/// A tagged query that parks on its shard until `min_seqno` applies.
std::string ParkedQuery(int64_t id, const std::string& goal,
                        uint64_t min_seqno, int64_t wait_ms = 10000) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("query"));
  req.Set("goal", Json::Str(goal));
  req.Set("id", Json::Int(id));
  req.Set("min_seqno", Json::Int(static_cast<int64_t>(min_seqno)));
  req.Set("wait_ms", Json::Int(wait_ms));
  return req.Serialize();
}

class RouterServingTest : public RouterClusterTest {};

TEST_F(RouterServingTest, TaggedRequestsCompleteOutOfOrderWithTheirOwnIds) {
  StartCluster(ClusterSource());
  const size_t owner = router_->shard_map().ShardOfKeyText("k1");
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("c").ok());

  // Tag 1 parks on k1's owner until one more write applies there; the
  // later tags (points on every shard, a scatter, a key-free goal, a
  // malformed request, an unroutable goal) must all answer around it.
  ASSERT_TRUE(client
                  .SendRaw(ParkedQuery(1, PointGoal("k1"),
                                       shard_engines_[owner]->AppliedSeqno() +
                                           1))
                  .ok());
  const std::map<int64_t, std::string> goals = {
      {2, PointGoal("k2")},
      {3, PointGoal("k3")},
      {4, PointGoal("k4")},
      {5, "?- c[intel(K : src -R-> V)] << opt."},
      {6, "?- q(X)."},
  };
  for (const auto& [id, goal] : goals) {
    ASSERT_TRUE(client.SendQuery(id, goal).ok());
  }
  ASSERT_TRUE(client.SendRaw(R"({"cmd":"query","id":7})").ok());
  ASSERT_TRUE(client.SendQuery(8, "?- watch(K).").ok());

  Client ref = ConnectReference();
  ASSERT_TRUE(ref.Hello("c").ok());
  std::vector<int64_t> order;
  for (size_t i = 0; i < goals.size() + 2; ++i) {
    Result<Json> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status();
    const Json* id = resp->Find("id");
    ASSERT_NE(id, nullptr) << "response lost its id: " << resp->Serialize();
    order.push_back(id->int_value());
    if (id->int_value() == 7 || id->int_value() == 8) {
      EXPECT_FALSE(resp->GetBool("ok", true));
      EXPECT_EQ(resp->GetString("code"), "InvalidArgument");
      continue;
    }
    ASSERT_TRUE(goals.count(id->int_value()) == 1) << resp->Serialize();
    ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
    Result<Json> want = ref.Query(goals.at(id->int_value()));
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(resp->Find("answers")->Serialize(),
              want->Find("answers")->Serialize())
        << "tag " << id->int_value();
  }
  EXPECT_EQ(std::count(order.begin(), order.end(), 1), 0)
      << "the parked tag answered before its seqno applied";

  // A tagged write to the same owner releases tag 1.
  const std::string key = KeyOnShard(router_->shard_map(), owner);
  ASSERT_TRUE(client.SendAssert(9, "c[intel(" + key + " : f -c-> " + key +
                                       ")].")
                  .ok());
  std::map<int64_t, Json> last;
  for (int i = 0; i < 2; ++i) {
    Result<Json> resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Serialize();
    last[resp->GetInt("id")] = *resp;
  }
  ASSERT_EQ(last.count(1), 1u);
  ASSERT_EQ(last.count(9), 1u);
  EXPECT_EQ(static_cast<size_t>(last[1].GetInt("shard")), owner);
  EXPECT_EQ(static_cast<size_t>(last[9].GetInt("shard")), owner);
  Result<Json> want = ref.Query(PointGoal("k1"));
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(last[1].Find("answers")->Serialize(),
            want->Find("answers")->Serialize());
}

TEST_F(RouterServingTest, OverLimitRequestGetsTheServerOverloadError) {
  StartCluster(ClusterSource());
  server::ServerOptions options;
  options.max_in_flight = 1;
  StartRouter(options);
  const size_t owner = router_->shard_map().ShardOfKeyText("k1");
  Client client = ConnectRouter();
  ASSERT_TRUE(client.Hello("c").ok());

  // Tag 1 holds the only slot while it waits on its shard.
  ASSERT_TRUE(client
                  .SendRaw(ParkedQuery(1, PointGoal("k1"),
                                       shard_engines_[owner]->AppliedSeqno() +
                                           1))
                  .ok());
  ASSERT_TRUE(client.SendQuery(2, PointGoal("k2")).ok());
  Result<Json> rejected = client.ReadResponse();
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->GetInt("id"), 2);
  EXPECT_FALSE(rejected->GetBool("ok", true));
  EXPECT_EQ(rejected->GetString("code"), "ResourceExhausted");
  EXPECT_EQ(rejected->GetString("error"),
            "server overloaded: too many queries in flight");

  // Release tag 1 with a write made straight on its shard.
  Result<Client> direct = Client::Connect(shard_servers_[owner]->port());
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(direct->Hello("c").ok());
  const std::string key = KeyOnShard(router_->shard_map(), owner);
  ASSERT_TRUE(
      direct->Assert("c[intel(" + key + " : f -c-> " + key + ")].").ok());
  Result<Json> released = client.ReadResponse();
  ASSERT_TRUE(released.ok()) << released.status();
  EXPECT_EQ(released->GetInt("id"), 1);
  EXPECT_TRUE(released->GetBool("ok", false)) << released->Serialize();

  // The slot is free again.
  Result<Json> after = client.Query(PointGoal("k2"));
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST_F(RouterServingTest, BackendsPerShardStayWithinTheInFlightLimit) {
  StartCluster(ClusterSource());
  server::ServerOptions options;
  options.max_in_flight = 4;
  StartRouter(options);
  const size_t owner = router_->shard_map().ShardOfKeyText("k1");
  // A full burst at each clearance in turn: every burst needs four
  // backends at its own level, and the idle ones left by the previous
  // level must make room rather than pile up on the shard (a shard
  // refuses connections past its own limit).
  for (const char* level : {"u", "c", "s"}) {
    Client client = ConnectRouter();
    ASSERT_TRUE(client.Hello(level).ok());
    for (int id = 1; id <= 4; ++id) {
      ASSERT_TRUE(client
                      .SendRaw(ParkedQuery(
                          id, PointGoal("k1"),
                          shard_engines_[owner]->AppliedSeqno() + 1000, 100))
                      .ok());
    }
    for (int i = 0; i < 4; ++i) {
      Result<Json> resp = client.ReadResponse();
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp->GetString("code"), "DeadlineExceeded")
          << level << ": " << resp->Serialize();
    }
    EXPECT_LE(shard_servers_[owner]->metrics().connections_open.load(), 4u)
        << "idle backends of earlier levels were kept past the limit";
  }
}

TEST_F(RouterServingTest, HungShardHoldsOnlyItsOwnRequestsAndStopStillReturns) {
  StartCluster(ClusterSource());
  // A "shard" whose kernel completes every handshake but which never
  // reads or answers: requests sent there never get a reply.
  const int hung = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(hung, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(hung, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(hung, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(hung, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const size_t hung_shard = router_->shard_map().ShardOfKeyText("k1");
  std::vector<ShardEndpoint> shards;
  for (const auto& shard : shard_servers_) {
    shards.push_back({"127.0.0.1", shard->port()});
  }
  shards[hung_shard].port = ntohs(addr.sin_port);
  server::ServerOptions options;
  options.drain_deadline_ms = 300;
  StartRouter(options, shards);

  Client stuck = ConnectRouter();
  ASSERT_TRUE(stuck.Hello("s").ok());
  ASSERT_TRUE(stuck.SendQuery(1, PointGoal("k1")).ok());

  // Keys on the healthy shards keep answering: on another session, and
  // pipelined behind the stuck request on the same one.
  Client other = ConnectRouter();
  ASSERT_TRUE(other.Hello("s").ok());
  int healthy = 0;
  for (const char* key : {"k2", "k3", "k4"}) {
    if (router_->shard_map().ShardOfKeyText(key) == hung_shard) continue;
    ++healthy;
    Result<Json> r = other.Query(PointGoal(key));
    ASSERT_TRUE(r.ok()) << key << ": " << r.status();
    ASSERT_TRUE(stuck.SendQuery(100 + healthy, PointGoal(key)).ok());
    Result<Json> pipelined = stuck.ReadResponse();
    ASSERT_TRUE(pipelined.ok()) << pipelined.status();
    EXPECT_EQ(pipelined->GetInt("id"), 100 + healthy);
    EXPECT_TRUE(pipelined->GetBool("ok", false)) << pipelined->Serialize();
  }
  ASSERT_GT(healthy, 0) << "every key hashed to the hung shard";

  const auto start = std::chrono::steady_clock::now();
  router_->Stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(stop_ms, 3000) << "Stop waited on a shard that never answers";
  ::close(hung);
}

}  // namespace
}  // namespace multilog::sharding
