// The four workloads: set-up, closed-loop load over real multilogd
// processes, the answer checks, and the metrics. See run.py and
// BENCHMARK.json for why each workload exists.

#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "fleet.h"
#include "oracle.h"
#include "server/client.h"
#include "server/json.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"
#include "sigma_gen.h"
#include "trace_report.h"

namespace wirebench {

namespace {

using multilog::Result;
using multilog::Status;
using multilog::server::Client;
using multilog::server::Json;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------

struct Shape {
  SigmaSpec sigma;
  size_t shards = 0;        // routed_read: shard daemons behind the router
  size_t read_depth = 1;    // pipelined requests per reader connection
  size_t write_depth = 1;   // pipelined requests per committer connection
  size_t checkpoint_every = 0;  // committer 0 checkpoints every N writes
};

Shape ShapeOf(const std::string& workload, bool smoke) {
  Shape s;
  const size_t scale = smoke ? 10 : 1;
  if (workload == "point_read") {
    // ~1 GB resident per daemon at 5k keys (all four levels' models).
    s.sigma.keys = 5000 / scale;
    // Two in flight per connection: pipelined, yet one descheduled
    // server worker stalls few requests, which keeps the tail steady.
    s.read_depth = 2;
  } else if (workload == "scan_read") {
    s.sigma.keys = 3000 / scale;
  } else if (workload == "write_mix") {
    // A committed write maintains every cached dominating level in
    // place at ~60 us per key (three cached levels), so 100 keys keeps
    // enough writes in a window to time the write tail.
    s.sigma.keys = 100 / (smoke ? 2 : 1);
    s.sigma.chains = 8;
    s.sigma.chain_len = 24;
    s.sigma.writers = 2;
    s.sigma.keys_per_writer = 32;
    s.write_depth = 2;
    // Frequent enough that writes queued behind a checkpoint are a
    // steady few percent of the write tail, not a run-to-run accident.
    s.checkpoint_every = 50;
  } else {  // routed_read
    s.sigma.keys = 3000 / scale;
    s.shards = 3;
  }
  return s;
}

// ---------------------------------------------------------------------
// Ops and their streams
// ---------------------------------------------------------------------

enum Kind { kRead = 0, kScan, kGoal, kWrite, kReplicaRead, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"read", "scan", "goal", "write",
                                               "replica_read"};

struct Op {
  Kind kind = kRead;
  std::string cmd = "query";  // query | assert | retract | checkpoint | stats
  std::string text;           // goal or fact
  std::string level;          // session level
  bool check = false;         // byte-compare the answers with the oracle
  bool counted = true;        // checkpoint/stats probes are not ops
  int writer_key = -1;
  uint64_t min_seqno = 0;
};

Op QueryOp(Kind kind, std::string goal, const std::string& level) {
  Op op;
  op.kind = kind;
  op.text = std::move(goal);
  op.level = level;
  op.check = true;
  return op;
}

Op PointRead(Rng& rng, size_t keys, const std::string& level) {
  return QueryOp(kRead, ReadGoal(rng.Below(keys), level, kModes[rng.Below(3)]),
                 level);
}

Op Scan(Rng& rng, const std::string& level) {
  return QueryOp(kScan, ScanGoal(level, kModes[rng.Below(3)]), level);
}

Op Goal(Rng& rng, size_t chains) {
  // Chains have chain_len (24) nodes; a goal starts in the first ten.
  return QueryOp(kGoal, ReachGoal(rng.Below(chains), rng.Below(10)), "s");
}

/// Every tenth routed op is a scatter scan; the rest are point relays.
/// A fixed cadence, not a coin flip, keeps the costly scans the same
/// share of every run.
Op RoutedOp(Rng& rng, size_t keys, const std::string& level, size_t n) {
  return n % 10 == 9 ? Scan(rng, level) : PointRead(rng, keys, level);
}

/// The committer's stream: a seeded walk over the keys it owns, each
/// op toggling the key's fact (assert when absent, retract when
/// present), so every write is accepted and no value ever conflicts.
class CommitterStream {
 public:
  CommitterStream(uint64_t seed, std::vector<WriterKey> keys)
      : rng_(seed), keys_(std::move(keys)) {}
  Op Next() {
    const size_t i = rng_.Below(keys_.size());
    Op op;
    op.kind = kWrite;
    op.cmd = keys_[i].present ? "retract" : "assert";
    op.text = keys_[i].fact;
    op.level = "u";
    op.writer_key = static_cast<int>(i);
    keys_[i].present = !keys_[i].present;
    return op;
  }

 private:
  Rng rng_;
  std::vector<WriterKey> keys_;
};

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The measured window. In a traced run it alternates 250 ms slices of
/// untraced and traced requests, so the tracing overhead is measured on
/// the same load, seed and daemons.
struct Window {
  Clock::time_point t0;
  Clock::time_point end;
  bool trace_run = false;
  bool Traced(Clock::time_point t) const {
    if (!trace_run) return false;
    return (std::chrono::duration_cast<std::chrono::milliseconds>(t - t0)
                .count() / 250) % 2 == 1;
  }
  bool In(Clock::time_point t) const { return t >= t0 && t < end; }
  size_t Second(Clock::time_point t) const {
    return static_cast<size_t>(
        std::chrono::duration_cast<std::chrono::seconds>(t - t0).count());
  }
};

struct Ack {
  uint64_t seqno = 0;
  bool retract = false;
  std::string fact;
};

/// What one load thread measured. Merged after the window.
struct Stats {
  std::vector<double> lat[kNumKinds];         // ms, untraced, in window
  std::vector<double> lat_traced[kNumKinds];  // ms, traced slices
  std::vector<uint32_t> lat_second[kNumKinds];  // window second of lat[k][i]
  std::vector<uint64_t> ops_by_second;
  std::vector<uint64_t> answers_by_second;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t response_bytes = 0;  // untraced query responses, in window
  uint64_t response_answers = 0;
  ObservedMap observed;
  TraceAgg trace;
  std::vector<Ack> acks;
  std::vector<double> repl_lag_ms;
  std::vector<double> lag_records;
  std::vector<std::pair<double, double>> wal;  // (bytes, records) samples
  int reported_errors = 0;

  void Merge(Stats& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      lat[k].insert(lat[k].end(), o.lat[k].begin(), o.lat[k].end());
      lat_traced[k].insert(lat_traced[k].end(), o.lat_traced[k].begin(),
                           o.lat_traced[k].end());
      lat_second[k].insert(lat_second[k].end(), o.lat_second[k].begin(),
                           o.lat_second[k].end());
    }
    if (ops_by_second.size() < o.ops_by_second.size()) {
      ops_by_second.resize(o.ops_by_second.size());
      answers_by_second.resize(o.ops_by_second.size());
    }
    for (size_t i = 0; i < o.ops_by_second.size(); ++i) {
      ops_by_second[i] += o.ops_by_second[i];
      answers_by_second[i] += o.answers_by_second[i];
    }
    attempted += o.attempted;
    failed += o.failed;
    response_bytes += o.response_bytes;
    response_answers += o.response_answers;
    for (auto& [key, seen] : o.observed) {
      // Two threads may have seen different bytes for one goal; both
      // stay, and the oracle decides which is wrong.
      auto range = observed.equal_range(key);
      auto same = std::find_if(range.first, range.second, [&](const auto& e) {
        return e.second.answers == seen.answers;
      });
      if (same != range.second) {
        same->second.count += seen.count;
      } else {
        observed.emplace(key, seen);
      }
    }
    trace.Merge(o.trace);
    acks.insert(acks.end(), o.acks.begin(), o.acks.end());
    repl_lag_ms.insert(repl_lag_ms.end(), o.repl_lag_ms.begin(),
                       o.repl_lag_ms.end());
    lag_records.insert(lag_records.end(), o.lag_records.begin(),
                       o.lag_records.end());
    wal.insert(wal.end(), o.wal.begin(), o.wal.end());
  }
};

void Fail(Stats* st, const std::string& what) {
  ++st->failed;
  if (st->reported_errors++ < 5) {
    std::fprintf(stderr, "wirebench: op failed: %s\n", what.c_str());
  }
}

/// Shared switches of one run.
struct RunState {
  const Window* window = nullptr;
  std::atomic<bool> inject_wrong_answer{false};
  // Latest acknowledged write, for the replica reader.
  std::mutex ack_mu;
  std::condition_variable ack_cv;
  uint64_t last_seqno = 0;
  std::map<uint64_t, Clock::time_point> ack_times;  // guarded by ack_mu
};

/// Books one completed request: failure, answer check, trace, latency
/// and the per-second counts.
void Complete(RunState& rs, Stats* st, const Op& op, Clock::time_point sent,
              Clock::time_point done, const Json& resp, size_t bytes,
              bool traced) {
  const Window& w = *rs.window;
  if (op.counted) ++st->attempted;
  if (!resp.GetBool("ok", false)) {
    if (!op.counted) ++st->attempted;  // a failed probe still counts
    Fail(st, op.cmd + " " + op.text + ": " + resp.GetString("code") + " " +
                 resp.GetString("error"));
    return;
  }
  const int64_t count = resp.GetInt("count", 0);
  if (op.check) {
    const Json* answers = resp.Find("answers");
    std::string got = answers != nullptr ? answers->Serialize() : "";
    if (rs.inject_wrong_answer.exchange(false)) got += " ";
    const std::string key = ObservedKey(op.level, op.text);
    auto it = st->observed.find(key);
    const bool fresh = it == st->observed.end();
    if (fresh) it = st->observed.emplace(key, Observed{got, 0});
    if (!fresh && it->second.answers != got) {
      Fail(st, "answers changed between two reads of " + op.text);
    } else {
      ++it->second.count;
    }
  }
  const double rtt_ms = Ms(done - sent);
  if (traced) {
    if (const Json* tree = resp.Find("trace"); tree != nullptr) {
      st->trace.Add(*tree, rtt_ms * 1000.0);
    }
  }
  if (!op.counted || !w.In(done)) return;
  const size_t sec = w.Second(done);
  if (traced) {
    st->lat_traced[op.kind].push_back(rtt_ms);
  } else {
    st->lat[op.kind].push_back(rtt_ms);
    st->lat_second[op.kind].push_back(static_cast<uint32_t>(sec));
  }
  if (st->ops_by_second.size() <= sec) {
    st->ops_by_second.resize(sec + 1);
    st->answers_by_second.resize(sec + 1);
  }
  ++st->ops_by_second[sec];
  st->answers_by_second[sec] += static_cast<uint64_t>(count);
  if (op.cmd == "query" && !traced) {  // a traced response carries its span tree
    st->response_bytes += bytes;
    st->response_answers += static_cast<uint64_t>(count);
  }
}

Json RequestOf(const Op& op, bool traced, int64_t id) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str(op.cmd));
  if (op.cmd == "query") {
    req.Set("goal", Json::Str(op.text));
    if (traced) req.Set("trace", Json::Bool(true));
    if (op.min_seqno > 0) {
      req.Set("min_seqno", Json::Int(static_cast<int64_t>(op.min_seqno)));
      req.Set("wait_ms", Json::Int(10000));
    }
  } else if (op.cmd == "assert" || op.cmd == "retract") {
    req.Set("fact", Json::Str(op.text));
  }
  if (id >= 0) req.Set("id", Json::Int(id));
  return req;
}

/// One request/response exchange on a connection with nothing in
/// flight. Transport failures come back as a non-OK Result.
Result<Json> Exchange(Client& c, const Json& req) {
  if (Status s = c.SendRaw(req.Serialize()); !s.ok()) return s;
  Result<std::string> raw = c.ReadRaw();
  if (!raw.ok()) return raw.status();
  return Json::Parse(*raw);
}

Result<Client> Open(uint16_t port, const std::string& level) {
  Result<Client> c = Client::ConnectWithRetry("127.0.0.1", port, 50, 20);
  if (!c.ok()) return c.status();
  if (!level.empty()) {
    Result<Json> hello = c->Hello(level);
    if (!hello.ok()) return hello.status();
  }
  return c;
}

/// The closed loop of one connection: keeps up to `depth` id-tagged
/// requests in flight (depth 1 sends untagged, which the router also
/// speaks) until the window ends, then drains. `next` yields the next
/// op, or nothing when the op it drew must wait for an in-flight one
/// (a committer never overlaps two writes to one key).
void Drive(RunState& rs, Client& c, size_t depth, Stats* st,
           const std::function<bool(Op*)>& next,
           const std::function<void(const Op&, const Json&,
                                    Clock::time_point)>& on_done) {
  struct Pending {
    Op op;
    Clock::time_point sent;
    bool traced = false;
  };
  const Window& w = *rs.window;
  const bool tagged = depth > 1;
  std::map<int64_t, Pending> inflight;
  int64_t next_id = 1;
  bool stop = false;
  while (true) {
    while (!stop && inflight.size() < depth) {
      const auto now = Clock::now();
      if (now >= w.end) {
        stop = true;
        break;
      }
      Op op;
      if (!next(&op)) break;
      const bool traced = w.Traced(now) && op.cmd == "query";
      const int64_t id = tagged ? next_id++ : 0;
      const Json req = RequestOf(op, traced, tagged ? id : -1);
      const auto sent = Clock::now();
      if (Status s = c.SendRaw(req.Serialize()); !s.ok()) {
        if (op.counted) ++st->attempted;
        Fail(st, "send: " + s.ToString());
        stop = true;
        break;
      }
      inflight.emplace(id, Pending{std::move(op), sent, traced});
    }
    // Nothing in flight: the window ended, or the stream is exhausted.
    if (inflight.empty()) return;
    Result<std::string> raw = c.ReadRaw();
    const auto done = Clock::now();
    if (!raw.ok()) {
      for (auto& [id, p] : inflight) {
        if (p.op.counted) ++st->attempted;
        Fail(st, "transport: " + raw.status().ToString());
      }
      return;
    }
    Result<Json> resp = Json::Parse(*raw);
    auto it = tagged && resp.ok() ? inflight.find(resp->GetInt("id", -1))
                                  : inflight.begin();
    if (!resp.ok() || it == inflight.end()) {
      for (auto& [id, p] : inflight) {
        if (p.op.counted) ++st->attempted;
        Fail(st, "unmatched response");
      }
      return;
    }
    Pending p = std::move(it->second);
    inflight.erase(it);
    Complete(rs, st, p.op, p.sent, done, *resp, raw->size(), p.traced);
    if (on_done) on_done(p.op, *resp, done);
  }
}

/// Runs `ops` ops from `draw` in one fresh session at `level`, one at a
/// time. A session's clearance is fixed at hello, so readers that move
/// between levels reconnect; connect and hello are outside every
/// measured op. False when the session failed (already counted).
bool Session(RunState& rs, uint16_t port, const std::string& level, int ops,
             Stats* st, const std::function<Op()>& draw) {
  Result<Client> c = Open(port, level);
  if (!c.ok()) {
    ++st->attempted;
    Fail(st, "connect: " + c.status().ToString());
    return false;
  }
  int left = ops;
  Drive(rs, *c, 1, st,
        [&](Op* op) {
          if (left == 0) return false;
          --left;
          *op = draw();
          return true;
        },
        nullptr);
  return left == 0 || Clock::now() >= rs.window->end;
}

// ---------------------------------------------------------------------
// Daemon stats
// ---------------------------------------------------------------------

Result<Json> StatsOf(uint16_t port) {
  Result<Client> c = Open(port, "");
  if (!c.ok()) return c.status();
  Result<Json> s = c->Stats();
  if (!s.ok()) return s.status();
  const Json* inner = s->Find("stats");
  if (inner == nullptr) return Status::Internal("stats response lacks 'stats'");
  return *inner;
}

double Counter(const Json& stats, const std::string& group,
               const std::string& name) {
  const Json* g = stats.Find(group);
  return g == nullptr ? 0 : static_cast<double>(g->GetInt(name, 0));
}

/// After-minus-before of one counter, summed over daemons.
double Delta(const std::vector<Json>& before, const std::vector<Json>& after,
             const std::string& group, const std::string& name) {
  double d = 0;
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    d += Counter(after[i], group, name) - Counter(before[i], group, name);
  }
  return d;
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

/// The machine's CPU time from /proc/stat: {steal, total} in jiffies.
/// Steal is time the hypervisor gave this VM's CPUs to someone else; a
/// run with much of it measured the host, not the program.
std::pair<double, double> CpuSteal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0, steal = 0, total = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of them at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean of the middle half: a rate over per-second slices that one
/// disturbed second cannot drag, with more digits than a median.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The gated tail: when every second of the window holds >= 1000
/// samples (so each second's p99 has >= 10 beyond it), the median over
/// the seconds of each second's p99, which a few seconds of scheduler or
/// neighbour noise cannot set; otherwise the whole window's p99.
double TailP99(const std::vector<double>& lat,
               const std::vector<uint32_t>& second, size_t seconds) {
  std::vector<std::vector<double>> by_second(seconds);
  for (size_t i = 0; i < lat.size(); ++i) {
    if (second[i] < seconds) by_second[second[i]].push_back(lat[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& v : by_second) {
    if (v.size() < 1000) return Quantile(lat, 0.99);
    p99s.push_back(Quantile(v, 0.99));
  }
  return Median(p99s);
}

}  // namespace

// ---------------------------------------------------------------------
// Determinism self-check
// ---------------------------------------------------------------------

namespace {

/// The bytes a seed determines: the Sigma source and the first ops of
/// every stream a workload draws.
std::string Fingerprint(uint64_t seed) {
  std::string out;
  for (const char* workload :
       {"point_read", "scan_read", "write_mix", "routed_read"}) {
    const Shape shape = ShapeOf(workload, /*smoke=*/true);
    const Sigma sigma = GenerateSigma(shape.sigma, seed);
    out += sigma.source;
    Rng reads(SubSeed(seed, std::string(workload) + "/reads"));
    for (int i = 0; i < 64; ++i) {
      out += PointRead(reads, shape.sigma.keys, "u").text;
      out += Scan(reads, "s").text;
      out += RoutedOp(reads, shape.sigma.keys, "c1", i).text;
      if (shape.sigma.chains > 0) out += Goal(reads, shape.sigma.chains).text;
    }
    for (size_t w = 0; w < sigma.writer_keys.size(); ++w) {
      CommitterStream stream(SubSeed(seed, "committer" + std::to_string(w)),
                             sigma.writer_keys[w]);
      for (int i = 0; i < 64; ++i) out += stream.Next().text;
    }
  }
  return out;
}

}  // namespace

bool GeneratorsDeterministic(uint64_t seed, std::string* error) {
  const std::string a = Fingerprint(seed);
  if (a != Fingerprint(seed)) {
    *error = "generator is not deterministic: one seed gave two outputs";
    return false;
  }
  if (a == Fingerprint(seed + 1)) {
    *error = "generator ignores its seed: two seeds gave one output";
    return false;
  }
  return true;
}

bool IsWorkload(const std::string& name) {
  return name == "point_read" || name == "scan_read" || name == "write_mix" ||
         name == "routed_read";
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

namespace {

struct Endpoints {
  uint16_t primary = 0;  // the engine daemon clients read (not routed)
  uint16_t replica = 0;
  uint16_t router = 0;
  std::vector<uint16_t> shards;
  /// Engine daemons whose stats are diffed over the window.
  std::vector<uint16_t> engines;
  double open_s = 0;  // slowest engine daemon's spawn-to-listening time
};

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

/// Starts the workload's daemons. Data directories are fresh per set-up.
bool StartFleet(const RunConfig& cfg, const Shape& shape, const Sigma& sigma,
                const std::string& dir, Fleet* fleet, Endpoints* ep,
                std::string* error) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string db = dir + "/sigma.mlog";
  if (!WriteFile(db, sigma.source)) {
    *error = "cannot write " + db;
    return false;
  }
  if (cfg.workload == "routed_read") {
    const multilog::sharding::ShardMap map(shape.shards);
    Result<std::vector<std::string>> parts =
        multilog::sharding::PartitionSource(sigma.source, map);
    if (!parts.ok()) {
      *error = "partition: " + parts.status().ToString();
      return false;
    }
    std::string shard_list;
    for (size_t i = 0; i < parts->size(); ++i) {
      const std::string path = dir + "/shard" + std::to_string(i) + ".mlog";
      if (!WriteFile(path, (*parts)[i])) {
        *error = "cannot write " + path;
        return false;
      }
      const int d = fleet->Spawn("shard" + std::to_string(i), {"--db", path}, error);
      if (d < 0) return false;
      ep->shards.push_back(fleet->at(d).port);
      ep->engines.push_back(fleet->at(d).port);
      ep->open_s = std::max(ep->open_s, fleet->at(d).open_s);
      shard_list += (i ? "," : "") + std::string("127.0.0.1:") +
                    std::to_string(fleet->at(d).port);
    }
    const int r = fleet->Spawn(
        "router", {"--router", "--shards", shard_list, "--db", db}, error);
    if (r < 0) return false;
    ep->router = fleet->at(r).port;
    return true;
  }
  const bool durable = cfg.workload == "write_mix";
  std::vector<std::string> args = {"--db", db};
  if (durable) {
    args.push_back("--data-dir");
    args.push_back(dir + "/primary");
  }
  const int p = fleet->Spawn("primary", args, error);
  if (p < 0) return false;
  ep->primary = fleet->at(p).port;
  ep->engines.push_back(ep->primary);
  ep->open_s = fleet->at(p).open_s;
  if (durable) {
    const int r = fleet->Spawn(
        "replica",
        {"--db", db, "--data-dir", dir + "/replica", "--replica-of",
         "127.0.0.1:" + std::to_string(ep->primary)},
        error);
    if (r < 0) return false;
    ep->replica = fleet->at(r).port;
  }
  return true;
}

/// A warm-up task: queries at one level of one daemon.
struct WarmTask {
  uint16_t port;
  std::string level;
  std::vector<std::string> goals;
};

/// Runs every warm-up query (in parallel, one connection per task) and
/// checks each answered. Traced runs keep the span trees: the model
/// builds (reduce, eval, decode) happen here.
bool WarmUp(const std::vector<WarmTask>& tasks, bool traced, TraceAgg* agg,
            std::string* error) {
  std::vector<std::string> errors(tasks.size());
  std::vector<TraceAgg> aggs(tasks.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < tasks.size(); ++t) {
    threads.emplace_back([&, t] {
      Result<Client> c = Open(tasks[t].port, tasks[t].level);
      if (!c.ok()) {
        errors[t] = c.status().ToString();
        return;
      }
      for (const std::string& goal : tasks[t].goals) {
        Op op = QueryOp(kScan, goal, tasks[t].level);
        const auto sent = Clock::now();
        Result<Json> r = Exchange(*c, RequestOf(op, traced, -1));
        if (!r.ok() || !r->GetBool("ok", false)) {
          errors[t] = goal + ": " +
                      (r.ok() ? r->GetString("error") : r.status().ToString());
          return;
        }
        if (const Json* tree = r->Find("trace"); traced && tree != nullptr) {
          aggs[t].Add(*tree, Ms(Clock::now() - sent) * 1000.0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!errors[t].empty()) {
      *error = "warm-up: " + errors[t];
      return false;
    }
    agg->Merge(aggs[t]);
  }
  return true;
}

std::vector<std::string> ScansAt(const std::string& level) {
  std::vector<std::string> goals;
  for (const char* mode : kModes) goals.push_back(ScanGoal(level, mode));
  return goals;
}

std::vector<WarmTask> WarmTasks(const std::string& workload,
                                const Endpoints& ep) {
  std::vector<WarmTask> tasks;
  if (workload == "write_mix") {
    // Models at u, c1, c2 only: s must stay uncached so goals take the
    // magic-plan path. The replica reader reads at s.
    for (const char* level : {"u", "c1", "c2"}) {
      tasks.push_back({ep.primary, level, ScansAt(level)});
    }
    tasks.push_back({ep.primary, "s", {ReachGoal(0, 0)}});
    tasks.push_back({ep.replica, "s", ScansAt("s")});
    return tasks;
  }
  const uint16_t port = workload == "routed_read" ? ep.router : ep.primary;
  for (const char* level : kLevels) tasks.push_back({port, level, ScansAt(level)});
  return tasks;
}

/// The sharding probes of a traced routed_read run: the same goal sent
/// through the router and directly to the shards, one at a time.
struct ShardingProbe {
  double relay_overhead_us = 0;
  double scatter_spread_ms = 0;
  double merge_us = 0;
};

bool ProbeSharding(const Endpoints& ep, size_t keys, uint64_t seed,
                   ShardingProbe* out, Stats* st, std::string* error) {
  Result<Client> router = Open(ep.router, "s");
  if (!router.ok()) {
    *error = "probe: " + router.status().ToString();
    return false;
  }
  std::vector<Client> shards;
  for (uint16_t port : ep.shards) {
    Result<Client> c = Open(port, "s");
    if (!c.ok()) {
      *error = "probe: " + c.status().ToString();
      return false;
    }
    shards.push_back(std::move(c).value());
  }
  auto timed = [&](Client& c, const std::string& goal, Json* resp) -> double {
    Op op = QueryOp(kRead, goal, "s");
    const auto t = Clock::now();
    Result<Json> r = Exchange(c, RequestOf(op, false, -1));
    const double us = Ms(Clock::now() - t) * 1000.0;
    ++st->attempted;
    if (!r.ok() || !r->GetBool("ok", false)) {
      Fail(st, "sharding probe: " + goal);
    } else if (resp != nullptr) {
      *resp = std::move(r).value();
    }
    return us;
  };
  Rng rng(SubSeed(seed, "sharding-probe"));
  std::vector<double> routed, direct;
  for (int i = 0; i < 300; ++i) {
    const std::string goal = ReadGoal(rng.Below(keys), "s", kModes[rng.Below(3)]);
    Json resp;
    routed.push_back(timed(*router, goal, &resp));
    const int64_t owner = resp.GetInt("shard", -1);
    if (owner < 0 || static_cast<size_t>(owner) >= shards.size()) {
      Fail(st, "routed point read named no owning shard");
      continue;
    }
    direct.push_back(timed(shards[static_cast<size_t>(owner)], goal, nullptr));
  }
  std::vector<double> spread, merge;
  for (int i = 0; i < 30; ++i) {
    const std::string goal = ScanGoal("s", kModes[rng.Below(3)]);
    const double via_router = timed(*router, goal, nullptr);
    double lo = 1e18, hi = 0;
    for (Client& shard : shards) {
      const double us = timed(shard, goal, nullptr);
      lo = std::min(lo, us);
      hi = std::max(hi, us);
    }
    spread.push_back((hi - lo) / 1000.0);
    merge.push_back(via_router - hi);
  }
  out->relay_overhead_us = Median(routed) - Median(direct);
  out->scatter_spread_ms = Median(spread);
  out->merge_us = Median(merge);
  return true;
}

/// Every clearance x mode scan on `port`, compared with the oracle;
/// each mismatch is a failed op.
void CompareScans(Oracle& oracle, uint16_t port, uint64_t min_seqno,
                      const std::string& where, Stats* st) {
  uint64_t wrong = 0;
  for (const char* level : kLevels) {
    Result<Client> c = Open(port, level);
    for (const char* mode : kModes) {
      ++st->attempted;
      if (!c.ok()) {
        ++wrong;
        continue;
      }
      Op op = QueryOp(kScan, ScanGoal(level, mode), level);
      op.min_seqno = min_seqno;
      Result<Json> r = Exchange(*c, RequestOf(op, false, -1));
      const Json* answers = r.ok() ? r->Find("answers") : nullptr;
      Result<std::string> want = oracle.Answers(op.text, level);
      if (answers == nullptr || !want.ok() || answers->Serialize() != *want) {
        ++wrong;
        std::fprintf(stderr, "wirebench: %s scan %s at %s differs from the oracle\n",
                     where.c_str(), op.text.c_str(), level);
      }
    }
  }
  st->failed += wrong;
}

}  // namespace

bool RunWorkload(const RunConfig& cfg, RunResult* result, std::string* error) {
  namespace fs = std::filesystem;
  const auto started = Clock::now();
  auto progress = [&](const std::string& what) {
    std::fprintf(stderr, "wirebench: %7.2f s  %s\n",
                 std::chrono::duration<double>(Clock::now() - started).count(),
                 what.c_str());
  };
  const Shape shape = ShapeOf(cfg.workload, cfg.smoke);
  const Sigma sigma = GenerateSigma(shape.sigma, cfg.seed);
  Result<Oracle> oracle = Oracle::Load(sigma.source);
  if (!oracle.ok()) {
    *error = "oracle: " + oracle.status().ToString();
    return false;
  }

  // --- Set-up, several times: setup_s is the median. ---
  Fleet fleet(cfg.multilogd);
  Endpoints ep;
  std::vector<double> setup_s, open_s;
  TraceAgg warm_trace;
  const int setup_runs = cfg.smoke ? 1 : 3;
  for (int i = 0; i < setup_runs; ++i) {
    fleet.Stop();  // the previous set-up's fleet
    ep = Endpoints{};
    const std::string dir = cfg.workdir + "/setup" + std::to_string(i);
    fs::remove_all(dir);
    const auto t = Clock::now();
    if (!StartFleet(cfg, shape, sigma, dir, &fleet, &ep, error)) return false;
    TraceAgg agg;
    if (!WarmUp(WarmTasks(cfg.workload, ep), cfg.trace, &agg, error)) {
      return false;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
    progress("set-up " + std::to_string(i + 1) + " took " +
             std::to_string(setup_s.back()) + " s");
    open_s.push_back(ep.open_s);
    if (i + 1 == setup_runs) warm_trace = agg;
  }

  std::vector<Json> before, after;
  for (uint16_t port : ep.engines) {
    Result<Json> s = StatsOf(port);
    if (!s.ok()) {
      *error = "stats: " + s.status().ToString();
      return false;
    }
    before.push_back(*s);
  }
  // The replica's counters are diffed over the window too, so its
  // set-up and initial catch-up do not count as window activity.
  Json replica_before;
  if (ep.replica != 0) {
    Result<Json> s = StatsOf(ep.replica);
    if (!s.ok()) {
      *error = "replica stats: " + s.status().ToString();
      return false;
    }
    replica_before = *s;
  }

  // --- The measured window. ---
  RunState rs;
  Window window;
  window.trace_run = cfg.trace;
  rs.window = &window;
  rs.inject_wrong_answer = cfg.inject_wrong_answer;

  // One closed-loop connection (and thread) per role.
  std::vector<std::function<void(Stats*)>> roles;
  const size_t keys = shape.sigma.keys;
  auto reader_role = [&](uint16_t port, const std::string& level, size_t depth,
                         std::function<Op(Rng&)> draw) {
    roles.push_back([&, port, level, depth, draw](Stats* st) {
      Result<Client> c = Open(port, level);
      if (!c.ok()) {
        ++st->attempted;
        Fail(st, "connect: " + c.status().ToString());
        return;
      }
      Rng rng(SubSeed(cfg.seed, cfg.workload + "/" + level));
      Drive(rs, *c, depth, st,
            [&](Op* op) {
              *op = draw(rng);
              return true;
            },
            nullptr);
    });
  };

  if (cfg.workload == "point_read") {
    for (const char* level : kLevels) {
      const std::string l = level;
      reader_role(ep.primary, l, shape.read_depth,
                  [keys, l](Rng& rng) { return PointRead(rng, keys, l); });
    }
  } else if (cfg.workload == "scan_read") {
    // Every connection cycles through all clearances, three scans (one
    // per mode) per session, so each level is a fixed share of the scans
    // however the connections are scheduled.
    for (size_t conn = 0; conn < kNumLevels; ++conn) {
      roles.push_back([&, conn](Stats* st) {
        for (size_t cycle = conn; Clock::now() < window.end; ++cycle) {
          const std::string level = kLevels[cycle % kNumLevels];
          size_t mode = 0;
          if (!Session(rs, ep.primary, level, kNumModes, st, [&] {
                return QueryOp(kScan, ScanGoal(level, kModes[mode++]), level);
              })) {
            return;
          }
        }
      });
    }
  } else if (cfg.workload == "routed_read") {
    for (const char* level : kLevels) {
      const std::string l = level;
      reader_role(ep.router, l, 1, [keys, l, n = size_t{0}](Rng& rng) mutable {
        return RoutedOp(rng, keys, l, n++);
      });
    }
  } else {  // write_mix
    for (size_t w = 0; w < shape.sigma.writers; ++w) {
      roles.push_back([&, w](Stats* st) {
        Result<Client> c = Open(ep.primary, "u");
        if (!c.ok()) {
          ++st->attempted;
          Fail(st, "connect: " + c.status().ToString());
          return;
        }
        CommitterStream stream(SubSeed(cfg.seed, "committer" + std::to_string(w)),
                               sigma.writer_keys[w]);
        std::set<int> busy;
        std::optional<Op> pending;
        uint64_t writes = 0;
        std::vector<Op> probes;  // stats + checkpoint, sent between writes
        Drive(rs, *c, shape.write_depth, st,
              [&](Op* op) {
                if (!probes.empty()) {
                  *op = probes.front();
                  probes.erase(probes.begin());
                  return true;
                }
                if (!pending) pending = stream.Next();
                if (busy.count(pending->writer_key)) return false;
                busy.insert(pending->writer_key);
                *op = std::move(*pending);
                pending.reset();
                if (w == 0 && ++writes % shape.checkpoint_every == 0) {
                  Op stats;
                  stats.cmd = "stats";
                  stats.counted = false;
                  Op checkpoint;
                  checkpoint.cmd = "checkpoint";
                  checkpoint.counted = false;
                  probes = {stats, checkpoint};
                }
                return true;
              },
              [&](const Op& op, const Json& resp, Clock::time_point done) {
                if (op.cmd == "stats") {
                  if (const Json* s = resp.Find("stats"); s != nullptr) {
                    st->wal.emplace_back(Counter(*s, "storage", "wal_bytes"),
                                         Counter(*s, "storage", "wal_records"));
                  }
                  return;
                }
                if (op.kind != kWrite || op.writer_key < 0) return;
                busy.erase(op.writer_key);
                if (!resp.GetBool("ok", false)) return;
                const uint64_t seqno =
                    static_cast<uint64_t>(resp.GetInt("seqno", 0));
                st->acks.push_back({seqno, op.cmd == "retract", op.text});
                std::lock_guard<std::mutex> lock(rs.ack_mu);
                rs.ack_times[seqno] = done;
                if (seqno > rs.last_seqno) rs.last_seqno = seqno;
                rs.ack_cv.notify_all();
              });
      });
    }
    roles.push_back([&](Stats* st) {
      // Reads at the model-cached levels, then goals at s.
      Rng rng(SubSeed(cfg.seed, "write_mix/reader"));
      for (size_t cycle = 0; Clock::now() < window.end; ++cycle) {
        const std::string level = kLevels[cycle % 3];
        if (!Session(rs, ep.primary, level, 8, st,
                     [&] { return PointRead(rng, keys, level); }) ||
            !Session(rs, ep.primary, "s", 4, st,
                     [&] { return Goal(rng, shape.sigma.chains); })) {
          return;
        }
      }
    });
    roles.push_back([&](Stats* st) {
      Result<Client> c = Open(ep.replica, "s");
      if (!c.ok()) {
        ++st->attempted;
        Fail(st, "connect: " + c.status().ToString());
        return;
      }
      Rng rng(SubSeed(cfg.seed, "write_mix/replica"));
      uint64_t measured = 0;
      int n = 0;
      while (Clock::now() < window.end) {
        uint64_t seqno = 0;
        Clock::time_point acked;
        {
          std::unique_lock<std::mutex> lock(rs.ack_mu);
          rs.ack_cv.wait_for(lock, std::chrono::milliseconds(20),
                             [&] { return rs.last_seqno > measured; });
          if (rs.last_seqno <= measured) continue;
          seqno = rs.last_seqno;
          acked = rs.ack_times[seqno];
        }
        measured = seqno;
        Op op = PointRead(rng, keys, "s");
        op.kind = kReplicaRead;
        op.min_seqno = seqno;
        bool answered = false;
        Drive(rs, *c, 1, st,
              [&](Op* out) {
                if (answered) return false;
                answered = true;
                *out = op;
                return true;
              },
              [&](const Op&, const Json& resp, Clock::time_point done) {
                if (resp.GetBool("ok", false) && window.In(done)) {
                  st->repl_lag_ms.push_back(Ms(done - acked));
                }
              });
        if (++n % 16 == 0) {
          Json req = Json::Object();
          req.Set("cmd", Json::Str("stats"));
          Result<Json> s = Exchange(*c, req);
          if (s.ok()) {
            if (const Json* inner = s->Find("stats"); inner != nullptr) {
              st->lag_records.push_back(
                  Counter(*inner, "replication", "lag_records"));
            }
          }
        }
      }
    });
  }

  std::vector<Stats> stats(roles.size());
  const auto steal_before = CpuSteal();
  window.t0 = Clock::now();
  window.end =
      window.t0 + std::chrono::microseconds(static_cast<int64_t>(cfg.seconds * 1e6));
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < roles.size(); ++i) {
      threads.emplace_back([&, i] { roles[i](&stats[i]); });
    }
    for (std::thread& t : threads) t.join();
  }
  const double rss_mb = fleet.PeakRssMb();
  const auto steal_after = CpuSteal();
  progress("window done");
  Stats all;
  for (Stats& s : stats) all.Merge(s);

  for (uint16_t port : ep.engines) {
    Result<Json> s = StatsOf(port);
    if (!s.ok()) {
      *error = "stats: " + s.status().ToString();
      return false;
    }
    after.push_back(*s);
  }
  Json replica_after;
  if (ep.replica != 0) {
    Result<Json> s = StatsOf(ep.replica);
    if (!s.ok()) {
      *error = "replica stats: " + s.status().ToString();
      return false;
    }
    replica_after = *s;
  }

  ShardingProbe probe;
  if (cfg.trace && cfg.workload == "routed_read" &&
      !ProbeSharding(ep, keys, cfg.seed, &probe, &all, error)) {
    return false;
  }

  // --- Answer checks. The oracle replays the acknowledged writes in
  // seqno order first; every checked goal is write-independent, so the
  // reads compare against the final state too. ---
  std::sort(all.acks.begin(), all.acks.end(),
            [](const Ack& a, const Ack& b) { return a.seqno < b.seqno; });
  uint64_t last_seqno = 0;
  for (const Ack& ack : all.acks) {
    if (Status s = oracle->Apply(ack.retract, ack.fact, "u"); !s.ok()) {
      Fail(&all, "oracle replay of seqno " + std::to_string(ack.seqno) + ": " +
                     s.ToString());
    }
    last_seqno = ack.seqno;
  }
  // Scans first: they build the oracle's models (one thread per level),
  // so the point checks after them match cached models instead of
  // compiling plans.
  {
    std::vector<std::thread> warm;
    for (const char* level : kLevels) {
      warm.emplace_back([&oracle, level] {
        for (const char* mode : kModes) {
          (void)oracle->Answers(ScanGoal(level, mode), level);
        }
      });
    }
    for (std::thread& t : warm) t.join();
  }
  if (ep.primary != 0) CompareScans(*oracle, ep.primary, 0, "primary", &all);
  if (ep.replica != 0) {
    CompareScans(*oracle, ep.replica, last_seqno, "replica", &all);
  }
  if (ep.router != 0) CompareScans(*oracle, ep.router, 0, "router", &all);
  progress("post-run scans compared");
  fleet.Stop();
  progress("daemons stopped");
  all.failed += CheckObserved(*oracle, all.observed, 4);
  progress("answers checked");

  // --- Metrics. ---
  const double window_s = cfg.seconds;
  std::vector<double> ops_rate, answer_rate;
  for (size_t i = 0; i < static_cast<size_t>(window_s) && i < all.ops_by_second.size(); ++i) {
    ops_rate.push_back(static_cast<double>(all.ops_by_second[i]));
    answer_rate.push_back(static_cast<double>(all.answers_by_second[i]));
  }
  // The headline op: the one each workload exists to time.
  const Kind headline = cfg.workload == "scan_read"   ? kScan
                        : cfg.workload == "write_mix" ? kWrite
                                                      : kRead;

  result->attempted = std::max<uint64_t>(all.attempted, 1);
  result->failed = all.failed;
  result->correct = all.failed == 0 && all.attempted > 0;

  // The report line, in the per-op-type names of the issue metrics:
  // each op type's latency (untraced samples only) with its sample
  // count and the highest quantile the sample supports (>= 10 samples
  // beyond it), replication lag, failed_ops_frac.
  Json report = Json::Object();
  report.Set("workload", Json::Str(cfg.workload));
  report.Set("seed", Json::Int(static_cast<int64_t>(cfg.seed)));
  report.Set("keys", Json::Int(static_cast<int64_t>(keys)));
  report.Set("sigma_bytes", Json::Int(static_cast<int64_t>(sigma.source.size())));
  report.Set("window_s", Json::Double(window_s));
  report.Set("host_steal_pct",
             Json::Double(100.0 * Ratio(steal_after.first - steal_before.first,
                                        steal_after.second - steal_before.second)));
  report.Set("failed_ops_frac",
             Json::Double(Ratio(static_cast<double>(all.failed),
                                static_cast<double>(result->attempted))));
  auto latency = [&](const std::string& name, const std::vector<double>& v) {
    if (v.empty()) return;
    const double n = static_cast<double>(v.size());
    report.Set(name + "_samples", Json::Int(static_cast<int64_t>(v.size())));
    report.Set(name + "_p50_ms", Json::Double(Median(v)));
    report.Set(name + "_p99_ms", Json::Double(Quantile(v, 0.99)));
    report.Set(name + "_tail_quantile",
               Json::Double(n > 10 ? std::min(0.99, 1.0 - 10.0 / n) : 0.0));
  };
  for (int k = 0; k < kNumKinds; ++k) latency(kKindNames[k], all.lat[k]);
  latency("repl_lag", all.repl_lag_ms);
  Json setups = Json::Array();
  for (double s : setup_s) setups.Push(Json::Double(s));
  report.Set("setup_s_each", std::move(setups));
  Json per_second = Json::Array();
  for (double r : ops_rate) per_second.Push(Json::Double(r));
  report.Set("ops_by_second", std::move(per_second));

  if (!cfg.trace) {
    result->metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", InterquartileMean(ops_rate), "1/s"},
        {"answers_per_s", InterquartileMean(answer_rate), "1/s"},
        {"p50_ms", Median(all.lat[headline]), "ms"},
        {"p99_ms",
         TailP99(all.lat[headline], all.lat_second[headline], ops_rate.size()),
         "ms"},
        {"server_rss_mb", rss_mb, "MB"},
    };
    result->report_json = report.Serialize();
    return true;
  }

  // --- Per-layer metrics (traced run). ---
  // Per-request stages, coverage and residual come from the window's
  // traces only. The model builds (reduce, decode) happen in set-up, so
  // they come from its warm-up traces. Evaluation comes from the window
  // when the window evaluates (write_mix's uncached goals), else from
  // the set-up's model builds.
  const TraceAgg& tr = all.trace;
  const TraceAgg& ev = tr.Find("eval_model") != nullptr ? tr : warm_trace;
  const double writes = Delta(before, after, "engine", "asserts_ok") +
                        Delta(before, after, "engine", "retracts_ok");
  const TraceAgg::Stage* eval = ev.Find("eval_model");
  const double eval_requests = eval != nullptr ? static_cast<double>(eval->requests) : 0;
  auto stage_total = [&](const char* name) {
    const TraceAgg::Stage* s = ev.Find(name);
    return s != nullptr ? s->self_us : 0.0;
  };
  const TraceAgg::Stage* rounds = ev.Find("eval_round");
  double wal_bytes = 0, wal_records = 0;
  for (const auto& [bytes, records] : all.wal) {
    wal_bytes += bytes;
    wal_records += records;
  }
  if (!after.empty()) {
    wal_bytes += Counter(after[0], "storage", "wal_bytes");
    wal_records += Counter(after[0], "storage", "wal_records");
  }
  // Writes carry no trace, so write_mix measures the overhead on reads.
  const Kind probed = headline == kWrite ? kRead : headline;
  const std::vector<double> untraced = all.lat[probed];
  const std::vector<double> traced = all.lat_traced[probed];
  const double overhead_pct =
      untraced.empty() || traced.empty()
          ? 0
          : 100.0 * (Median(traced) - Median(untraced)) / Median(untraced);
  const double lag_records =
      all.lag_records.empty() ? 0
                              : [&] {
                                  double s = 0;
                                  for (double v : all.lag_records) s += v;
                                  return s / static_cast<double>(all.lag_records.size());
                                }();
  result->metrics = {
      {"server.parse_us", tr.SelfUsPerRequest("parse"), "us"},
      {"server.queue_wait_us", tr.SelfUsPerRequest("queue_wait"), "us"},
      {"server.serialize_us", tr.SelfUsPerRequest("serialize"), "us"},
      {"server.residual_us", tr.ResidualUs(), "us"},
      {"server.bytes_per_answer",
       Ratio(static_cast<double>(all.response_bytes),
             static_cast<double>(all.response_answers)),
       "bytes"},
      {"server.overloaded", Delta(before, after, "requests", "overloaded"), "count"},
      {"multilog.match_us", tr.SelfUsPerRequest("query_model"), "us"},
      {"multilog.reduce_us", warm_trace.SelfUsPerRequest("reduce"), "us"},
      {"multilog.decode_us", warm_trace.SelfUsPerRequest("decode_model"), "us"},
      {"multilog.plan_lookup_us", tr.SelfUsPerRequest("plan_lookup"), "us"},
      {"multilog.magic_rewrite_us", tr.SelfUsPerRequest("magic_rewrite"), "us"},
      {"multilog.plan_hit_ratio",
       Ratio(Delta(before, after, "engine", "plan_hits"),
             Delta(before, after, "engine", "plan_hits") +
                 Delta(before, after, "engine", "plan_misses")),
       "ratio"},
      {"multilog.cache_hit_ratio",
       Ratio(Delta(before, after, "engine", "cache_hits"),
             Delta(before, after, "engine", "cache_hits") +
                 Delta(before, after, "engine", "cache_misses")),
       "ratio"},
      {"multilog.deltas_per_write",
       Ratio(Delta(before, after, "engine", "deltas_applied"), writes), "count"},
      {"multilog.fallback_recomputes",
       Delta(before, after, "engine", "fallback_recomputes"), "count"},
      {"multilog.execute_self_us", tr.SelfUsPerRequest("execute"), "us"},
      {"datalog.eval_us",
       Ratio(stage_total("eval_model") + stage_total("eval_round") +
                 stage_total("eval_join") + stage_total("eval_merge"),
             eval_requests),
       "us"},
      {"datalog.join_us", Ratio(stage_total("eval_join"), eval_requests), "us"},
      {"datalog.merge_us", Ratio(stage_total("eval_merge"), eval_requests), "us"},
      {"datalog.merge_share",
       Ratio(stage_total("eval_merge"),
             stage_total("eval_join") + stage_total("eval_merge")),
       "ratio"},
      {"datalog.rounds_per_goal",
       Ratio(rounds != nullptr ? static_cast<double>(rounds->spans) : 0,
             eval_requests),
       "count"},
      {"storage.writes_per_fsync",
       Ratio(writes, Delta(before, after, "storage", "group_syncs")), "count"},
      {"storage.wal_bytes_per_write", Ratio(wal_bytes, wal_records), "bytes"},
      {"storage.open_s", Median(open_s), "s"},
      {"replication.lag_records", lag_records, "records"},
      {"replication.reconnects",
       Delta({replica_before}, {replica_after}, "replication", "reconnects"),
       "count"},
      {"replication.snapshots_installed",
       Delta({replica_before}, {replica_after}, "replication",
             "snapshots_installed"),
       "count"},
      {"sharding.relay_overhead_us", probe.relay_overhead_us, "us"},
      {"sharding.scatter_spread_ms", probe.scatter_spread_ms, "ms"},
      {"sharding.merge_us", probe.merge_us, "us"},
      {"trace.coverage", tr.Coverage(), "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };

  // Paths this run does not measure, and why.
  Json unmeasured = Json::Array();
  unmeasured.Push(Json::Str(
      "mls::Believe and msql: they serve only the sql command's fixed "
      "catalog; on the served path beta runs inside datalog (Figure 12)"));
  unmeasured.Push(Json::Str(
      "write-path stages (validate, wal_append, fsync, delta_eval, "
      "regroup): writes carry no trace yet, so they are covered by counters"));
  if (cfg.workload != "write_mix") {
    unmeasured.Push(Json::Str("storage and replication: no writes here"));
  }
  if (cfg.workload != "routed_read") {
    unmeasured.Push(Json::Str("sharding: no router here"));
  }
  report.Set("not_measured", std::move(unmeasured));
  report.Set("datalog_traces_from",
             Json::Str(&ev == &tr ? "window" : "set-up"));
  report.Set("trace_overhead_samples",
             Json::Str(std::to_string(untraced.size()) + " untraced / " +
                       std::to_string(traced.size()) + " traced " +
                       kKindNames[probed] + "s"));
  result->report_json = report.Serialize();
  result->trace_table =
      "window stages\n" + tr.Table() + "set-up stages\n" + warm_trace.Table();
  return true;
}

}  // namespace wirebench
