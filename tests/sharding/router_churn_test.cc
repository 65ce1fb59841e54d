// Session churn through the router: the connect/serve/disconnect cycle
// of server_churn_test, run against a router over in-process shards.
// A router session costs the loop one Session and nothing else - the
// thread count stays flat - and the shard backends it uses are pooled,
// so the connections open on the shards are bounded by the requests
// that were ever in flight at once, not by the sessions ever opened.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "server/client.h"
#include "router_test_util.h"

namespace multilog::sharding {
namespace {

using server::Client;
using server::Json;

constexpr const char* kLevels[] = {"u", "c", "s"};

/// Reads an integer-valued field ("Threads", ...) from
/// /proc/self/status; -1 if absent.
long ProcStatusValue(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    long value = -1;
    fields >> value;
    return value;
  }
  return -1;
}

class RouterChurnTest : public RouterClusterTest {
 protected:
  /// Connections the shards have open, and have ever accepted: the
  /// router's backends.
  int64_t BackendsOpen() const {
    int64_t open = 0;
    for (const auto& shard : shard_servers_) {
      open += static_cast<int64_t>(shard->metrics().connections_open.load());
    }
    return open;
  }
  int64_t BackendsDialed() const {
    int64_t dialed = 0;
    for (const auto& shard : shard_servers_) {
      dialed +=
          static_cast<int64_t>(shard->metrics().connections_accepted.load());
    }
    return dialed;
  }

  /// One short session: hello, maybe a point read and a scatter, then
  /// bye or a silent close.
  void Cycle(int i) {
    Client client = ConnectRouter();
    const std::string level = kLevels[i % 3];
    ASSERT_TRUE(client.Hello(level).ok()) << "cycle " << i;
    if (i % 4 == 0) {
      Result<Json> point =
          client.Query("?- " + level + "[intel(k1 : src -R-> V)] << opt.");
      ASSERT_TRUE(point.ok()) << "cycle " << i << ": " << point.status();
      Result<Json> wide =
          client.Query("?- " + level + "[intel(K : src -R-> V)] << opt.");
      ASSERT_TRUE(wide.ok()) << "cycle " << i << ": " << wide.status();
    }
    if (i % 2 == 0) client.Bye();
  }
};

TEST_F(RouterChurnTest, SessionChurnKeepsThreadsAndBackendsBounded) {
  StartCluster(ClusterSource());
  constexpr int kCycles = 3000;
  for (int i = 0; i < 100; ++i) Cycle(i);
  const long baseline_threads = ProcStatusValue("Threads");
  ASSERT_GT(baseline_threads, 0);

  for (int i = 0; i < kCycles; ++i) {
    Cycle(i);
    if (HasFatalFailure()) return;
  }

  // One request in flight at a time, at three clearances: at most one
  // backend per (shard, level), however many sessions came and went -
  // and the same ones all along.
  const int64_t bound =
      static_cast<int64_t>(shard_servers_.size() * std::size(kLevels));
  EXPECT_LE(BackendsOpen(), bound)
      << "backends grow with sessions instead of being pooled";
  EXPECT_LE(BackendsDialed(), bound) << "backends were redialed per session";

  {
    // Sessions held open together share the pool too.
    std::vector<Client> held;
    for (int i = 0; i < 50; ++i) {
      held.push_back(ConnectRouter());
      ASSERT_TRUE(held.back().Hello("s").ok());
      ASSERT_TRUE(
          held.back().Query("?- s[intel(k1 : src -R-> V)] << opt.").ok());
    }
    EXPECT_LE(BackendsOpen(), bound)
        << "each open session holds its own backends";
  }

  const long threads_now = ProcStatusValue("Threads");
  EXPECT_LE(threads_now, baseline_threads + 4)
      << "thread count grew from " << baseline_threads << " to "
      << threads_now << " over " << kCycles << " router sessions";

  Client observer = ConnectRouter();
  Result<Json> stats = observer.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_LE(stats->Find("stats")->GetInt("connections_open"), 16)
      << "closed router sessions are accumulating as open";
}

}  // namespace
}  // namespace multilog::sharding
