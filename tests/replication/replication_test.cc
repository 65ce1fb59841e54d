// End-to-end replication tests: a real primary multilogd, a real
// Replicator (and where needed a real replica server), loopback TCP in
// between. The tentpole invariant: at the replica's applied seqno, its
// database is byte-identical to the primary's - at every clearance,
// because DumpSource equality covers the whole multilevel store - and
// seqnos are applied exactly once, in order, across live tail, snapshot
// catch-up, checkpoint resets, and reconnects.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "multilog/engine.h"
#include "replication/replicator.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage.h"

namespace multilog::replication {
namespace {

constexpr char kBaseSource[] = R"(
level(u).
level(a).
level(b).
level(ts).
order(u, a).
order(u, b).
order(a, ts).
order(b, ts).
u[item(base : id -u-> base, val -u-> seed)].
)";

/// The data dirs the running test made. Each is a new mkdtemp
/// directory - never an earlier run's, even when a later test process
/// gets a reused pid - and the fixture removes them all when the test
/// ends.
std::vector<std::string> g_dirs;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/repl_" + tag + "_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp " << dir << ": " << std::strerror(errno);
  }
  g_dirs.push_back(dir);
  return dir;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : g_dirs) std::filesystem::remove_all(dir);
    g_dirs.clear();
  }
};

std::string Fact(int i, const std::string& level) {
  return level + "[item(k" + std::to_string(i) + " : id -" + level + "-> k" +
         std::to_string(i) + ", val -" + level + "-> v" + std::to_string(i) +
         ")].";
}

/// Polls `pred` until it holds or the deadline passes.
template <typename Pred>
bool WaitFor(Pred pred, int64_t timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A durable primary: storage + engine + server on an ephemeral port.
/// Heap-allocated only (the engine and server hold pointers into their
/// siblings, so the aggregate must never move).
struct Primary {
  std::optional<storage::Storage> storage;
  std::optional<ml::Engine> engine;
  std::unique_ptr<server::Server> server;

  static std::unique_ptr<Primary> Start(const std::string& dir,
                                        uint16_t port = 0) {
    auto p = std::make_unique<Primary>();
    Result<storage::Storage> st = storage::Storage::Open(dir, kBaseSource);
    EXPECT_TRUE(st.ok()) << st.status();
    p->storage.emplace(std::move(st).value());
    Result<ml::Engine> engine = ml::Engine::FromStorage(&*p->storage);
    EXPECT_TRUE(engine.ok()) << engine.status();
    p->engine.emplace(std::move(engine).value());
    server::ServerOptions options;
    options.port = port;
    p->server = std::make_unique<server::Server>(&*p->engine, options);
    if (!p->server->Start().ok()) return nullptr;
    return p;
  }

  uint16_t port() const { return server->port(); }

  /// Asserts `fact` at `level` over the wire (the WAL path replication
  /// ships) and returns its seqno.
  uint64_t Write(const std::string& level, const std::string& fact) {
    Result<server::Client> c = server::Client::Connect(port());
    EXPECT_TRUE(c.ok()) << c.status();
    EXPECT_TRUE(c->Hello(level).ok());
    Result<server::Json> resp = c->Assert(fact);
    EXPECT_TRUE(resp.ok()) << resp.status();
    c->Bye();
    return static_cast<uint64_t>(resp.ok() ? resp->GetInt("seqno") : 0);
  }
};

/// A durable replica: its own storage + engine + replicator (no server
/// unless the test adds one). Heap-allocated only, as with Primary.
struct Replica {
  std::optional<storage::Storage> storage;
  std::optional<ml::Engine> engine;
  std::unique_ptr<Replicator> replicator;

  static std::unique_ptr<Replica> Start(const std::string& dir,
                                        uint16_t primary_port) {
    std::unique_ptr<Replica> r = Open(dir);
    r->Connect(primary_port);
    return r;
  }

  /// Recover local state only; no connection yet.
  static std::unique_ptr<Replica> Open(const std::string& dir) {
    auto r = std::make_unique<Replica>();
    Result<storage::Storage> st = storage::Storage::Open(dir, kBaseSource);
    EXPECT_TRUE(st.ok()) << st.status();
    r->storage.emplace(std::move(st).value());
    Result<ml::Engine> engine = ml::Engine::FromStorage(&*r->storage);
    EXPECT_TRUE(engine.ok()) << engine.status();
    r->engine.emplace(std::move(engine).value());
    return r;
  }

  void Connect(uint16_t primary_port) {
    Replicator::Options options;
    options.port = primary_port;
    options.backoff_initial_ms = 10;  // tests reconnect aggressively
    options.backoff_max_ms = 100;
    replicator = std::make_unique<Replicator>(&*engine, options);
    replicator->Start();
  }

  bool CaughtUpTo(uint64_t seqno, int64_t timeout_ms = 5000) {
    return WaitFor([&] { return engine->AppliedSeqno() >= seqno; },
                   timeout_ms);
  }

  void Stop() {
    if (replicator != nullptr) replicator->Stop();
  }
};

TEST_F(ReplicationTest, LiveTailShipsWritesAndStateIsByteIdentical) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("tail_p"));
  ASSERT_NE(primary, nullptr);
  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("tail_r"), primary->port());

  uint64_t last = 0;
  const char* levels[] = {"u", "a", "b", "ts"};
  for (int i = 0; i < 8; ++i) {
    last = primary->Write(levels[i % 4], Fact(i, levels[i % 4]));
  }
  ASSERT_TRUE(replica->CaughtUpTo(last));

  // Byte-identical at the applied seqno - one DumpSource covers every
  // clearance of the multilevel store.
  uint64_t primary_seqno = 0;
  uint64_t replica_seqno = 0;
  const std::string primary_dump = primary->engine->DumpSource(&primary_seqno);
  const std::string replica_dump = replica->engine->DumpSource(&replica_seqno);
  EXPECT_EQ(replica_seqno, primary_seqno);
  EXPECT_EQ(replica_dump, primary_dump);

  // And per-clearance query results agree (the serving surface, not
  // just the store).
  for (const char* level : levels) {
    const std::string goal = "?- " + std::string(level) + "[item(K : id -" +
                             level + "-> K)].";
    Result<ml::QueryResult> p = primary->engine->QuerySource(
        goal, level, ml::ExecMode::kReduced, nullptr);
    Result<ml::QueryResult> r = replica->engine->QuerySource(
        goal, level, ml::ExecMode::kReduced, nullptr);
    ASSERT_TRUE(p.ok()) << p.status();
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(p->answers.size(), r->answers.size()) << "level " << level;
    for (size_t i = 0; i < p->answers.size(); ++i) {
      EXPECT_EQ(p->answers[i].ToString(), r->answers[i].ToString());
    }
  }

  const Replicator::Stats stats = replica->replicator->GetStats();
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.applied_seqno, last);
  EXPECT_EQ(stats.records_applied, 8u);
  EXPECT_EQ(stats.snapshots_installed, 0u)
      << "a replica born alongside the primary needs no catch-up snapshot";

  replica->Stop();
}

TEST_F(ReplicationTest, SnapshotCatchUpAfterPrimaryCheckpoint) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("snap_p"));
  ASSERT_NE(primary, nullptr);
  uint64_t last = 0;
  for (int i = 0; i < 5; ++i) last = primary->Write("a", Fact(i, "a"));
  // Checkpoint folds the WAL away: a replica starting from seqno 0 can
  // only catch up via a shipped snapshot.
  ASSERT_TRUE(primary->engine->Checkpoint().ok());

  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("snap_r"), primary->port());
  ASSERT_TRUE(replica->CaughtUpTo(last));
  EXPECT_GE(replica->replicator->GetStats().snapshots_installed, 1u);

  // Post-catch-up writes arrive as tail records on top of the
  // installed snapshot - never as another snapshot round-trip.
  last = primary->Write("b", Fact(100, "b"));
  ASSERT_TRUE(replica->CaughtUpTo(last));

  EXPECT_EQ(replica->engine->DumpSource(), primary->engine->DumpSource());
  const Replicator::Stats stats = replica->replicator->GetStats();
  EXPECT_GE(stats.snapshots_installed, 1u);
  // The snapshot covered everything up to the connect; exactly the one
  // later write ships as a record. No duplicates, no re-applies.
  EXPECT_EQ(stats.records_applied, 1u);

  replica->Stop();
}

TEST_F(ReplicationTest, CheckpointMidStreamResetsTheTailWithoutDivergence) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("reset_p"));
  ASSERT_NE(primary, nullptr);
  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("reset_r"), primary->port());

  uint64_t last = 0;
  for (int i = 0; i < 3; ++i) last = primary->Write("u", Fact(i, "u"));
  ASSERT_TRUE(replica->CaughtUpTo(last));

  // The WAL resets under the shipper's reader mid-stream; the records
  // after the reset must still arrive exactly once.
  ASSERT_TRUE(primary->engine->Checkpoint().ok());
  for (int i = 10; i < 14; ++i) last = primary->Write("ts", Fact(i, "ts"));
  ASSERT_TRUE(replica->CaughtUpTo(last));

  EXPECT_EQ(replica->engine->DumpSource(), primary->engine->DumpSource());
  EXPECT_EQ(replica->engine->AppliedSeqno(), last);

  replica->Stop();
}

TEST_F(ReplicationTest, ReplicaRestartResumesFromPersistedSeqno) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("resume_p"));
  ASSERT_NE(primary, nullptr);
  const std::string replica_dir = FreshDir("resume_r");

  uint64_t last = 0;
  {
    std::unique_ptr<Replica> replica =
        Replica::Start(replica_dir, primary->port());
    for (int i = 0; i < 4; ++i) last = primary->Write("a", Fact(i, "a"));
    ASSERT_TRUE(replica->CaughtUpTo(last));
    replica->Stop();
    // Destructors close the replica's storage cleanly - but everything
    // applied was already fsynced by the apply path, so this models a
    // prompt restart after a kill.
  }

  // Writes land while the replica is down.
  for (int i = 10; i < 13; ++i) last = primary->Write("b", Fact(i, "b"));

  std::unique_ptr<Replica> replica = Replica::Open(replica_dir);
  // Local recovery alone restores the pre-restart position...
  EXPECT_EQ(replica->engine->AppliedSeqno(), 4u);
  replica->Connect(primary->port());
  // ...and the stream resumes from there, shipping only the gap.
  ASSERT_TRUE(replica->CaughtUpTo(last));
  EXPECT_EQ(replica->engine->DumpSource(), primary->engine->DumpSource());
  EXPECT_EQ(replica->replicator->GetStats().records_applied, 3u)
      << "the records applied before the restart must not be re-shipped";

  replica->Stop();
}

TEST_F(ReplicationTest, ReplicaReconnectsAfterPrimaryRestart) {
  const std::string primary_dir = FreshDir("bounce_p");
  std::unique_ptr<Primary> primary = Primary::Start(primary_dir);
  ASSERT_NE(primary, nullptr);
  const uint16_t port = primary->port();
  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("bounce_r"), port);

  uint64_t last = primary->Write("u", Fact(1, "u"));
  ASSERT_TRUE(replica->CaughtUpTo(last));

  // Primary goes away mid-stream and comes back on the same port with
  // its durable state; the replicator's backoff loop must find it and
  // resume. (Ephemeral ports rarely collide, but a bind race is
  // possible; skip rather than flake if the OS gave the port away.)
  primary.reset();
  primary = Primary::Start(primary_dir, port);
  if (primary == nullptr) {
    replica->Stop();
    GTEST_SKIP() << "port " << port << " was reassigned by the OS";
  }

  last = primary->Write("a", Fact(2, "a"));
  ASSERT_TRUE(replica->CaughtUpTo(last, /*timeout_ms=*/10000));
  EXPECT_EQ(replica->engine->DumpSource(), primary->engine->DumpSource());
  EXPECT_GE(replica->replicator->GetStats().reconnects, 1u);

  replica->Stop();
}

TEST_F(ReplicationTest, ReadOnlyReplicaServerRejectsWritesServesReads) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("ro_p"));
  ASSERT_NE(primary, nullptr);
  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("ro_r"), primary->port());

  server::ServerOptions replica_options;
  replica_options.port = 0;
  replica_options.read_only = true;
  server::Server replica_server(&*replica->engine, replica_options);
  replica_server.SetReplicator(replica->replicator.get());
  ASSERT_TRUE(replica_server.Start().ok());

  const uint64_t seqno = primary->Write("a", Fact(1, "a"));
  ASSERT_TRUE(replica->CaughtUpTo(seqno));

  Result<server::Client> c = server::Client::Connect(replica_server.port());
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(c->Hello("a").ok());

  // Writes bounce with the dedicated code (clients can redirect)...
  Result<server::Json> wr = c->Assert(Fact(2, "a"));
  ASSERT_FALSE(wr.ok());
  EXPECT_TRUE(wr.status().IsReadOnly()) << wr.status();
  Result<server::Json> ck = c->Checkpoint();
  ASSERT_FALSE(ck.ok());
  EXPECT_TRUE(ck.status().IsReadOnly()) << ck.status();

  // ...reads serve normally and see the replicated write.
  Result<server::Json> q = c->Query("?- a[item(K : id -a-> K)].");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->GetInt("count"), 1);

  // The stats surface reports the replication link.
  Result<server::Json> stats = c->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const server::Json* body = stats->Find("stats");
  ASSERT_NE(body, nullptr);
  const server::Json* repl = body->Find("replication");
  ASSERT_NE(repl, nullptr);
  EXPECT_TRUE(repl->GetBool("connected"));
  EXPECT_EQ(repl->GetInt("applied_seqno"), static_cast<int64_t>(seqno));
  EXPECT_TRUE(body->GetBool("read_only"));

  c->Bye();
  replica_server.Stop();
  replica->Stop();
}

TEST_F(ReplicationTest, MinSeqnoQueryWaitsForCatchUpOrFailsFast) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("minseq_p"));
  ASSERT_NE(primary, nullptr);
  std::unique_ptr<Replica> replica =
      Replica::Start(FreshDir("minseq_r"), primary->port());

  server::ServerOptions replica_options;
  replica_options.port = 0;
  replica_options.read_only = true;
  server::Server replica_server(&*replica->engine, replica_options);
  ASSERT_TRUE(replica_server.Start().ok());

  const uint64_t seqno = primary->Write("u", Fact(1, "u"));

  Result<server::Client> c = server::Client::Connect(replica_server.port());
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(c->Hello("u").ok());

  // Read-your-writes: the query waits until the replica has applied the
  // write's seqno, then answers from the caught-up state.
  Result<server::Json> q = c->Query("?- u[item(K : id -u-> K)].",
                                    /*deadline_ms=*/-1, /*mode=*/"",
                                    /*proofs=*/false, /*trace=*/false,
                                    /*min_seqno=*/seqno, /*wait_ms=*/5000);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->GetInt("count"), 2);  // the seed fact plus the write

  // A floor the replica cannot reach fails fast with DeadlineExceeded,
  // naming both positions.
  Result<server::Json> stale = c->Query("?- u[item(K : id -u-> K)].",
                                        -1, "", false, false,
                                        /*min_seqno=*/seqno + 1000,
                                        /*wait_ms=*/20);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsDeadlineExceeded()) << stale.status();

  c->Bye();
  replica_server.Stop();
  replica->Stop();
}

TEST_F(ReplicationTest, InMemoryPrimaryRefusesReplicationStreams) {
  Result<ml::Engine> engine = ml::Engine::FromSource(kBaseSource);
  ASSERT_TRUE(engine.ok()) << engine.status();
  server::ServerOptions options;
  options.port = 0;
  server::Server srv(&*engine, options);
  ASSERT_TRUE(srv.Start().ok());

  Result<server::Client> c = server::Client::Connect(srv.port());
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(c->SendRaw(R"({"cmd":"replicate","from_seqno":0})").ok());
  Result<std::string> raw = c->ReadRaw();
  ASSERT_TRUE(raw.ok()) << raw.status();
  Result<server::Json> frame = server::Json::Parse(*raw);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->GetBool("ok"));
  EXPECT_NE(frame->GetString("error").find("--data-dir"), std::string::npos);

  srv.Stop();
}

TEST_F(ReplicationTest, TwoReplicasConvergeIndependently) {
  std::unique_ptr<Primary> primary = Primary::Start(FreshDir("two_p"));
  ASSERT_NE(primary, nullptr);
  std::unique_ptr<Replica> r1 =
      Replica::Start(FreshDir("two_r1"), primary->port());
  std::unique_ptr<Replica> r2 =
      Replica::Start(FreshDir("two_r2"), primary->port());

  uint64_t last = 0;
  for (int i = 0; i < 6; ++i) {
    last = primary->Write(i % 2 == 0 ? "a" : "b",
                          Fact(i, i % 2 == 0 ? "a" : "b"));
  }
  ASSERT_TRUE(r1->CaughtUpTo(last));
  ASSERT_TRUE(r2->CaughtUpTo(last));

  const std::string want = primary->engine->DumpSource();
  EXPECT_EQ(r1->engine->DumpSource(), want);
  EXPECT_EQ(r2->engine->DumpSource(), want);

  r1->Stop();
  r2->Stop();
}

}  // namespace
}  // namespace multilog::replication
