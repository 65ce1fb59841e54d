#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/cancel.h"
#include "msql/executor.h"
#include "multilog/proof.h"
#include "replication/log_shipper.h"
#include "server/client.h"

namespace multilog::server {

namespace {

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// size_t decrement-on-exit for the in-flight admission counter.
class InFlightGuard {
 public:
  explicit InFlightGuard(std::atomic<size_t>* counter) : counter_(counter) {}
  ~InFlightGuard() { counter_->fetch_sub(1, std::memory_order_acq_rel); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::atomic<size_t>* counter_;
};

/// One span-tree node as response JSON: stage name, start offset, and
/// duration in µs, with nested children.
Json TraceNodeJson(const trace::SpanNode& node) {
  Json j = Json::Object();
  j.Set("stage", Json::Str(trace::StageName(node.stage)));
  j.Set("start_us", Json::Int(static_cast<int64_t>(node.start_micros)));
  j.Set("dur_us", Json::Int(static_cast<int64_t>(node.duration_micros)));
  if (!node.children.empty()) {
    Json children = Json::Array();
    for (const trace::SpanNode& child : node.children) {
      children.Push(TraceNodeJson(child));
    }
    j.Set("children", std::move(children));
  }
  return j;
}

/// The leaf span with the largest duration - where the request actually
/// spent its time (inner spans carry the exclusive cost). nullptr when
/// the tree is only its root.
const trace::SpanNode* DominantSpan(const trace::SpanNode& root) {
  const trace::SpanNode* best = nullptr;
  std::vector<const trace::SpanNode*> stack;
  for (const trace::SpanNode& child : root.children) stack.push_back(&child);
  while (!stack.empty()) {
    const trace::SpanNode* node = stack.back();
    stack.pop_back();
    if (node->children.empty()) {
      if (best == nullptr || node->duration_micros > best->duration_micros) {
        best = node;
      }
    }
    for (const trace::SpanNode& child : node->children) {
      stack.push_back(&child);
    }
  }
  return best;
}

/// `<decimal byte count>\n<payload>` - the same frame WriteFrame emits,
/// built as a string so the loop can buffer it for a nonblocking
/// socket.
std::string EncodeFrame(std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame.push_back('\n');
  frame.append(payload);
  return frame;
}

/// The seed server's bounded-staleness failure message, verbatim - the
/// event loop reports it from the parking path now, but clients (and
/// tests) match on the text.
Json MinSeqnoError(uint64_t applied, const Request& req) {
  return ErrorResponse(Status::DeadlineExceeded(
      "applied seqno " + std::to_string(applied) +
      " has not reached min_seqno " + std::to_string(req.min_seqno) +
      " within wait_ms=" + std::to_string(req.wait_ms)));
}

constexpr uint32_t kReadEvents = EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP;

}  // namespace

struct Server::SqlHandle {
  /// msql::Session is stateful; pipelined statements serialize here.
  std::mutex mu;
  msql::Session session;
  explicit SqlHandle(const mls::BeliefModeRegistry* registry)
      : session(registry) {}
};

struct Server::ParkedQuery {
  Request req;
  std::chrono::steady_clock::time_point give_up;
  trace::Collector::Clock::time_point t_read;
  trace::Collector::Clock::time_point t_parsed;
};

struct Server::Session {
  explicit Session(size_t max_request_bytes) : decoder(max_request_bytes) {}

  int fd = -1;
  /// Monotonic across all sessions; completions carry it so a response
  /// for a dead session never lands on the fd's next owner.
  uint64_t gen = 0;
  FrameDecoder decoder;

  /// Undelivered response bytes: [wbuf_off, wbuf.size()) is pending.
  std::string wbuf;
  size_t wbuf_off = 0;

  bool hello_done = false;
  std::string level;
  ml::ExecMode mode = ml::ExecMode::kReduced;
  std::shared_ptr<SqlHandle> sql;

  /// Requests dispatched to the pool whose completions haven't been
  /// consumed yet (includes stats/metrics; ordered commands wait on it).
  size_t in_flight = 0;
  std::vector<ParkedQuery> parked;

  /// EOF or read error observed. The session lingers until in-flight
  /// work and parked queries resolve, so their responses are still
  /// attempted (and failures counted) - then it closes.
  bool peer_gone = false;
  /// Close as soon as in-flight work drains and wbuf flushes.
  bool closing = false;
  /// Read backpressure: wbuf exceeded the cap; EPOLLIN is off.
  bool reading_paused = false;
  /// BYE or replicate waiting for the session to drain (ordered).
  std::optional<Request> deferred;

  bool in_epoll = false;
  uint32_t epoll_events = 0;
};

struct Server::Task {
  int fd = -1;
  uint64_t gen = 0;
  Request req;
  /// Session snapshot at dispatch: the task outlives the session if the
  /// peer disconnects mid-query.
  std::string level;
  ml::ExecMode session_mode = ml::ExecMode::kReduced;
  std::shared_ptr<SqlHandle> sql;
  trace::Collector::Clock::time_point t_read;
  trace::Collector::Clock::time_point t_parsed;
  /// Whether this task holds one of the max_in_flight slots.
  bool admitted = false;
  /// Routed requests: where the task goes, one reply per target shard,
  /// and how many replies are still out.
  sharding::Forward fwd;
  std::vector<Result<std::string>> replies;
  size_t pending = 0;
};

struct Server::Backend {
  int fd = -1;
  size_t shard = 0;
  std::string level;
  FrameDecoder decoder{kAbsoluteMaxFrameBytes};
  std::string wbuf;  // request bytes the socket has not taken yet
  bool want_out = true;
  /// The hello reply still precedes the first request's reply.
  bool hello_pending = true;
  /// The routed request in flight (null while idle) and its reply slot.
  std::shared_ptr<Task> task;
  size_t slot = 0;
};

Server::Server(ml::Engine* engine, ServerOptions options,
               std::vector<SqlCatalogEntry> catalog,
               const mls::BeliefModeRegistry* belief_registry)
    : engine_(engine),
      options_(options),
      catalog_(std::move(catalog)),
      belief_registry_(belief_registry),
      metrics_(engine->lattice().TopologicalOrder()) {}

Server::Server(sharding::Router* router, ServerOptions options)
    : router_(router),
      options_(options),
      metrics_(router->lattice().TopologicalOrder()),
      idle_backends_(router->shards().size()) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 512) < 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // The loop accepts in a drain-until-EAGAIN burst, so the listener
  // must never block it.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status s = Status::Internal(std::string("epoll/eventfd: ") +
                                      std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  stopping_.store(false);
  draining_ = false;
  loop_thread_ = std::thread(&Server::LoopMain, this);
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_ || stopping_.exchange(true)) return;
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Replication streams: ServeReplication polls stopping_, and the
  // shutdown unblocks any write it is sitting in right now.
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (const auto& stream : streams_) {
      if (stream->fd >= 0) ::shutdown(stream->fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (const auto& stream : streams_) {
      if (stream->thread.joinable()) stream->thread.join();
      if (stream->fd >= 0) ::close(stream->fd);
    }
    streams_.clear();
  }
  // Workers may still be finishing force-abandoned tasks; joining the
  // pool before closing wake_fd_ keeps their completion wake-ups safe.
  pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  started_ = false;
}

void Server::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void Server::LoopMain() {
  std::array<epoll_event, 64> events;
  while (true) {
    if (stopping_.load(std::memory_order_relaxed) && !draining_) {
      BeginDrain();
    }
    if (draining_) {
      if (sessions_.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline_) {
        // The bounded drain expired: force-close what's left. Their
        // in-flight completions are dropped by the generation check.
        std::vector<int> fds;
        fds.reserve(sessions_.size());
        for (const auto& entry : sessions_) fds.push_back(entry.first);
        for (const int fd : fds) {
          auto it = sessions_.find(fd);
          if (it != sessions_.end()) CloseSession(it->second.get());
        }
        break;
      }
    }
    // Parked min_seqno waiters need a poll tick (replication applies
    // land off-loop); a drain needs one to watch its deadline.
    const int timeout_ms = draining_ ? 5 : (parked_fds_.empty() ? -1 : 1);
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself broke; nothing sensible left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      HandleEvent(fd, events[i].events);
    }
    DrainCompletions();
    CheckParked();
  }
  // Backends die with the loop: a shard that never answers cannot hold
  // Stop past the drain deadline.
  for (const auto& entry : backends_) ::close(entry.first);
  backends_.clear();
  for (std::vector<Backend*>& idle : idle_backends_) idle.clear();
}

void Server::BeginDrain() {
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_deadline_ms);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);  // also removes it from the epoll set
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  fds.reserve(sessions_.size());
  for (const auto& entry : sessions_) fds.push_back(entry.first);
  for (const int fd : fds) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    Session* s = it->second.get();
    // Parked queries will never see their seqno now; fail them the way
    // an expired wait would.
    bool alive = true;
    while (alive && !s->parked.empty()) {
      ParkedQuery parked = std::move(s->parked.back());
      s->parked.pop_back();
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      alive = QueueResponse(s, MinSeqnoError(engine_->AppliedSeqno(),
                                             parked.req),
                            parked.req.id);
    }
    if (!alive) continue;
    UpdateEpoll(s);  // draining_ drops EPOLLIN: no new requests
    MaybeClose(s);
  }
  parked_fds_.clear();
}

void Server::HandleAccept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: burst drained (or listener gone)
    }
    {
      std::lock_guard<std::mutex> lock(streams_mu_);
      ReapStreamsLocked();
    }
    if (metrics_.connections_open.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      metrics_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      // Best effort on a nonblocking socket: a rejected peer that never
      // reads cannot stall the accept path (the seed's blocking
      // WriteFrame here could wedge every later accept).
      const std::string frame =
          EncodeFrame(ErrorResponse(Status::ResourceExhausted(
                                        "server at connection limit"))
                          .Serialize());
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, frame.data(), frame.size(),
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_open.fetch_add(1, std::memory_order_relaxed);
    // Responses are small frames; without TCP_NODELAY a pipelined
    // client's answers sit in Nagle's buffer waiting for delayed ACKs.
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto session = std::make_unique<Session>(options_.max_request_bytes);
    session->fd = fd;
    session->gen = next_session_gen_++;
    session->mode = options_.default_mode;
    Session* s = session.get();
    sessions_[fd] = std::move(session);
    epoll_event ev{};
    ev.events = kReadEvents;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseSession(s);
      continue;
    }
    s->in_epoll = true;
    s->epoll_events = kReadEvents;
  }
}

void Server::HandleEvent(int fd, uint32_t events) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) {
    auto backend = backends_.find(fd);
    if (backend != backends_.end()) {
      HandleBackendEvent(backend->second.get(), events);
    }
    return;
  }
  Session* s = it->second.get();
  if ((events & EPOLLOUT) != 0) {
    if (!FlushSession(s)) return;
    if (!ResumeReading(s)) return;
    UpdateEpoll(s);
    if (!MaybeClose(s)) return;
  }
  if ((events & kReadEvents) != 0) HandleReadable(s);
}

void Server::HandleReadable(Session* s) {
  char buf[65536];
  while (!s->peer_gone && !s->reading_paused && !s->closing &&
         !s->deferred.has_value() && !draining_) {
    const ssize_t n = ::recv(s->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      s->decoder.Feed(buf, static_cast<size_t>(n));
      if (!ProcessFrames(s)) return;
      // A short read drained the socket; level-triggered epoll reports
      // anything that arrives later, so skip the EAGAIN probe.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      s->peer_gone = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    s->peer_gone = true;  // hard read error: treat like an abrupt close
    break;
  }
  if (s->peer_gone) {
    // A half-closing pipeliner may have sent its whole batch plus FIN;
    // everything completely framed still executes and answers.
    if (!ProcessFrames(s)) return;
    if (s->decoder.mid_frame()) {
      metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      if (!QueueResponse(s, ErrorResponse(s->decoder.OnEof()), std::nullopt)) {
        return;
      }
    }
  }
  UpdateEpoll(s);
  MaybeClose(s);
}

bool Server::ProcessFrames(Session* s) {
  while (!s->deferred.has_value() && !s->closing && !s->reading_paused) {
    Result<std::optional<std::string>> next = s->decoder.Next();
    if (!next.ok()) {
      // Framing damage: the byte stream can't be resynchronized. Tell
      // the peer why (best effort) and close - buffered or in-flight
      // responses are forfeit, exactly like the seed's immediate close.
      if (next.status().IsResourceExhausted()) {
        metrics_.rejected_oversized.fetch_add(1, std::memory_order_relaxed);
      } else {
        metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      }
      if (!QueueResponse(s, ErrorResponse(next.status()), std::nullopt)) {
        return false;
      }
      CloseSession(s);
      return false;
    }
    if (!next->has_value()) return true;  // need more bytes
    metrics_.requests_total.fetch_add(1, std::memory_order_relaxed);
    if (!ProcessPayload(s, std::move(**next))) return false;
  }
  return true;
}

bool Server::ProcessPayload(Session* s, std::string payload) {
  // Epoch for a traced request: the instant its frame was reassembled.
  const auto t_read = trace::Collector::Clock::now();

  // Payload-tier problems keep the connection open: framing is intact,
  // so the peer can recover by sending a corrected request.
  Result<Json> json = Json::Parse(payload);
  if (!json.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return QueueResponse(s, ErrorResponse(json.status()), std::nullopt);
  }
  // Even a rejected request gets its error on the right pipeline tag.
  const std::optional<int64_t> id = ExtractRequestId(*json);
  Result<Request> parsed = ParseRequest(*json);
  if (!parsed.ok()) {
    metrics_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    return QueueResponse(s, ErrorResponse(parsed.status()), id);
  }
  Request req = std::move(*parsed);
  const auto t_parsed = trace::Collector::Clock::now();
  if (router_ != nullptr && (req.cmd == Request::Cmd::kSql ||
                             req.cmd == Request::Cmd::kReplicate)) {
    return QueueResponse(s,
                         ErrorResponse(Status::InvalidArgument(
                             "the router does not serve 'sql' or "
                             "replication streams; connect to a shard")),
                         req.id);
  }

  switch (req.cmd) {
    case Request::Cmd::kPing: {
      Json resp = OkResponse();
      resp.Set("pong", Json::Bool(true));
      return QueueResponse(s, std::move(resp), req.id);
    }
    case Request::Cmd::kStats:
    case Request::Cmd::kMetrics: {
      // Off-loop (their handlers take engine locks) but exempt from the
      // in-flight cap, as in the seed server: observability must work
      // on an overloaded server.
      s->in_flight += 1;
      DispatchTask(s, std::move(req), t_read, t_parsed, /*admitted=*/false);
      return true;
    }
    case Request::Cmd::kHello: {
      if (s->hello_done) {
        return QueueResponse(
            s,
            ErrorResponse(Status::InvalidArgument(
                "session is already bound; reconnect to change clearance")),
            req.id);
      }
      const lattice::SecurityLattice& lattice =
          router_ != nullptr ? router_->lattice() : engine_->lattice();
      if (!lattice.Contains(req.level)) {
        return QueueResponse(s,
                             ErrorResponse(Status::SecurityViolation(
                                 "unknown clearance level '" + req.level +
                                 "'")),
                             req.id);
      }
      s->hello_done = true;
      s->level = req.level;
      if (req.mode.has_value()) s->mode = *req.mode;
      if (!catalog_.empty()) {
        s->sql = std::make_shared<SqlHandle>(belief_registry_);
        for (const SqlCatalogEntry& entry : catalog_) {
          s->sql->session.RegisterRelation(entry.name, entry.relation);
        }
        s->sql->session.SetUserContext(s->level);
        s->sql->session.LockUserContext();
      }
      Json resp = OkResponse();
      resp.Set("server",
               Json::Str(router_ != nullptr ? "multilog-router" : "multilogd"));
      resp.Set("level", Json::Str(s->level));
      resp.Set("mode", Json::Str(ExecModeName(s->mode)));
      if (router_ != nullptr) {
        resp.Set("shards",
                 Json::Int(static_cast<int64_t>(router_->shards().size())));
      } else {
        resp.Set("sql", Json::Bool(s->sql != nullptr));
      }
      return QueueResponse(s, std::move(resp), req.id);
    }
    case Request::Cmd::kShardMap: {
      if (router_ != nullptr) {
        Json resp = OkResponse();
        resp.Set("shardmap", router_->ShardMapJson());
        return QueueResponse(s, std::move(resp), req.id);
      }
      return QueueResponse(
          s,
          ErrorResponse(Status::InvalidArgument(
              "this daemon is not a router; 'shardmap' is served by "
              "multilogd --router")),
          req.id);
    }
    case Request::Cmd::kBye:
    case Request::Cmd::kReplicate: {
      // Ordered commands: defer until every in-flight and parked
      // request on this session has answered, and stop reading - they
      // are by definition the session's last exchange.
      s->deferred = std::move(req);
      UpdateEpoll(s);
      return MaybeClose(s);
    }
    case Request::Cmd::kQuery:
    case Request::Cmd::kSql:
    case Request::Cmd::kAssert:
    case Request::Cmd::kRetract:
    case Request::Cmd::kCheckpoint: {
      if (options_.read_only && req.cmd != Request::Cmd::kQuery &&
          req.cmd != Request::Cmd::kSql) {
        metrics_.write_errors.fetch_add(1, std::memory_order_relaxed);
        return QueueResponse(s,
                             ErrorResponse(Status::ReadOnly(
                                 "this daemon is a read-only replica; send "
                                 "writes to the primary")),
                             req.id);
      }
      if (!s->hello_done) {
        return QueueResponse(
            s,
            ErrorResponse(Status::SecurityViolation(
                "session has no clearance yet; send hello first")),
            req.id);
      }
      // Bounded staleness: park on the loop until the applied seqno
      // catches up. A parked query holds no worker and no in-flight
      // slot (the seed burned both in a sleep loop), so queries with
      // satisfied floors keep flowing around it.
      // (A router forwards min_seqno: the owning shard parks instead.)
      if (router_ == nullptr && req.cmd == Request::Cmd::kQuery &&
          req.min_seqno > 0 && engine_->AppliedSeqno() < req.min_seqno) {
        if (req.wait_ms <= 0) {
          metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
          return QueueResponse(
              s, MinSeqnoError(engine_->AppliedSeqno(), req), req.id);
        }
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(req.wait_ms);
        s->parked.push_back(
            ParkedQuery{std::move(req), give_up, t_read, t_parsed});
        parked_fds_.insert(s->fd);
        return true;
      }
      // Admission control on the shared pool: fail fast instead of
      // queueing unboundedly behind slow queries. Writes count against
      // the same budget - a mutation holds the engine's database lock,
      // so letting unbounded writes queue would starve readers just as
      // surely as unbounded queries would.
      if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
          options_.max_in_flight) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
        return QueueResponse(s,
                             ErrorResponse(Status::ResourceExhausted(
                                 "server overloaded: too many queries in "
                                 "flight")),
                             req.id);
      }
      std::optional<sharding::Forward> fwd;
      if (router_ != nullptr) {
        Result<sharding::Forward> routed =
            router_->Route(req, s->mode, options_.default_deadline_ms);
        if (!routed.ok()) {
          in_flight_.fetch_sub(1, std::memory_order_acq_rel);
          return QueueResponse(s, ErrorResponse(routed.status()), req.id);
        }
        fwd = std::move(routed).value();
      }
      s->in_flight += 1;
      DispatchTask(s, std::move(req), t_read, t_parsed, /*admitted=*/true,
                   std::move(fwd));
      return true;
    }
  }
  return true;
}

void Server::DispatchTask(Session* s, Request req,
                          trace::Collector::Clock::time_point t_read,
                          trace::Collector::Clock::time_point t_parsed,
                          bool admitted,
                          std::optional<sharding::Forward> fwd) {
  auto task = std::make_shared<Task>();
  task->fd = s->fd;
  task->gen = s->gen;
  task->req = std::move(req);
  task->level = s->level;
  task->session_mode = s->mode;
  task->sql = s->sql;
  task->t_read = t_read;
  task->t_parsed = t_parsed;
  task->admitted = admitted;
  if (fwd.has_value()) {
    task->fwd = std::move(*fwd);
    return ForwardTask(task);
  }
  const auto t_submit = trace::Collector::Clock::now();
  pool_->Submit([this, task, t_submit] { RunTask(task, t_submit); });
}

void Server::RunTask(const std::shared_ptr<Task>& task,
                     trace::Collector::Clock::time_point t_submit) {
  // The admitted slot unwinds on every exit path, including a handler
  // or serialization exception.
  std::optional<InFlightGuard> slot;
  if (task->admitted) slot.emplace(&in_flight_);

  const Request& req = task->req;
  // A collector rides along when the client asked for a trace or the
  // slow-query log needs a span tree to attribute time.
  std::optional<trace::Collector> collector;
  // A router's point traces are the owner shard's, relayed verbatim.
  if (req.cmd == Request::Cmd::kQuery && router_ == nullptr &&
      (req.want_trace || options_.slow_query_ms >= 0)) {
    collector.emplace(task->t_read);
    collector->AddLeaf(trace::Stage::kParse, task->t_read, task->t_parsed);
    collector->AddLeaf(trace::Stage::kQueueWait, t_submit,
                       trace::Collector::Clock::now());
  }
  Json resp;
  {
    trace::ScopedCollector install(collector.has_value() ? &*collector
                                                         : nullptr);
    try {
      switch (req.cmd) {
        case Request::Cmd::kStats: {
          resp = OkResponse();
          resp.Set("stats", StatsJson());
          break;
        }
        case Request::Cmd::kMetrics: {
          resp = OkResponse();
          resp.Set("format", Json::Str("prometheus"));
          resp.Set("body", Json::Str(MetricsText()));
          break;
        }
        default:
          if (router_ != nullptr) {
            resp = router_->Merge(task->fwd.kind, task->replies, task->level,
                                  task->t_parsed);
          } else if (req.cmd == Request::Cmd::kQuery) {
            resp = HandleQuery(*task);
          } else if (req.cmd == Request::Cmd::kSql) {
            resp = HandleSql(*task);
          } else {
            resp = HandleWrite(*task);
          }
          break;
      }
    } catch (const std::exception& e) {
      // A handler exception must not kill the worker, and the client
      // still deserves an answer.
      resp = ErrorResponse(Status::Internal(
          std::string("handler raised an exception: ") + e.what()));
    } catch (...) {
      resp = ErrorResponse(
          Status::Internal("handler raised an unknown exception"));
    }
  }
  // Close the root when the work ends: completion-queue latency back to
  // the loop is scheduler noise, not query time.
  const auto t_done = trace::Collector::Clock::now();
  if (collector.has_value()) {
    const trace::SpanNode root = collector->Finish(t_done);
    if (req.want_trace) {
      Json tj = TraceNodeJson(root);
      if (collector->dropped_spans() > 0) {
        tj.Set("dropped_spans",
               Json::Int(static_cast<int64_t>(collector->dropped_spans())));
      }
      resp.Set("trace", std::move(tj));
    }
    if (options_.slow_query_ms >= 0 &&
        root.duration_micros >=
            static_cast<uint64_t>(options_.slow_query_ms) * 1000) {
      LogSlowQuery(*task, root);
    }
  }
  if (req.id.has_value()) resp.Set("id", Json::Int(*req.id));
  // Release the admission slot BEFORE the response becomes visible: a
  // client that sees this answer and immediately sends its next request
  // must not bounce off a slot the finished query still pins.
  slot.reset();
  PostCompletion(task->fd, task->gen, EncodeFrame(resp.Serialize()));
}

void Server::PostCompletion(int fd, uint64_t gen, std::string frame,
                            bool wake) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    was_empty = completions_.empty();
    completions_.push_back(Completion{fd, gen, std::move(frame)});
  }
  // One wake covers every completion queued before the loop's next
  // drain; only the empty -> non-empty transition needs the eventfd
  // write. A group-commit cohort finishing together costs one syscall,
  // not one per commit.
  if (was_empty && wake) WakeLoop();
}

void Server::DrainCompletions() {
  // Until empty: delivering a batch can resume reading, and a request
  // read then can post a completion from the loop itself (no wake).
  std::vector<Completion> batch;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(comp_mu_);
      batch.clear();
      batch.swap(completions_);
    }
    if (batch.empty()) return;
    // Stage every completion into its session's write buffer first,
    // then flush each touched session once: a pipelined burst
    // completing together leaves in one send() instead of one per
    // response.
    std::vector<int> touched;
    for (Completion& c : batch) {
      auto it = sessions_.find(c.fd);
      if (it == sessions_.end() || it->second->gen != c.gen) {
        continue;  // session died first; the response has no one to go to
      }
      Session* s = it->second.get();
      s->in_flight -= 1;
      if (s->wbuf_off >= s->wbuf.size()) {
        s->wbuf.clear();
        s->wbuf_off = 0;
      }
      if (std::find(touched.begin(), touched.end(), c.fd) == touched.end()) {
        touched.push_back(c.fd);
      }
      s->wbuf.append(c.payload);
    }
    for (const int fd : touched) {
      auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      Session* s = it->second.get();
      if (!FlushSession(s)) continue;
      if (!s->reading_paused &&
          s->wbuf.size() - s->wbuf_off > options_.max_session_write_buffer) {
        s->reading_paused = true;
      }
      UpdateEpoll(s);
      if (!ResumeReading(s)) continue;
      MaybeClose(s);
    }
  }
}

void Server::CheckParked() {
  if (parked_fds_.empty()) return;
  const uint64_t applied = engine_->AppliedSeqno();
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> fds(parked_fds_.begin(), parked_fds_.end());
  for (const int fd : fds) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) {
      parked_fds_.erase(fd);
      continue;
    }
    Session* s = it->second.get();
    bool alive = true;
    for (auto pit = s->parked.begin(); alive && pit != s->parked.end();) {
      if (applied >= pit->req.min_seqno) {
        // Caught up - but an unparked query still needs an admission
        // slot; when the server is saturated it stays parked and
        // retries next tick rather than bouncing with an overload
        // error it never risked when it arrived.
        if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
            options_.max_in_flight) {
          in_flight_.fetch_sub(1, std::memory_order_acq_rel);
          ++pit;
          continue;
        }
        ParkedQuery parked = std::move(*pit);
        pit = s->parked.erase(pit);
        s->in_flight += 1;
        DispatchTask(s, std::move(parked.req), parked.t_read,
                     parked.t_parsed, /*admitted=*/true);
      } else if (now >= pit->give_up) {
        ParkedQuery parked = std::move(*pit);
        pit = s->parked.erase(pit);
        metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        alive = QueueResponse(s, MinSeqnoError(applied, parked.req),
                              parked.req.id);
      } else {
        ++pit;
      }
    }
    if (!alive) {
      parked_fds_.erase(fd);
      continue;
    }
    if (s->parked.empty()) parked_fds_.erase(fd);
    MaybeClose(s);
  }
}

bool Server::QueueResponse(Session* s, Json response,
                           const std::optional<int64_t>& id) {
  if (id.has_value()) response.Set("id", Json::Int(*id));
  return DeliverFrame(s, EncodeFrame(response.Serialize()));
}

bool Server::DeliverFrame(Session* s, std::string frame) {
  if (s->wbuf_off >= s->wbuf.size()) {
    s->wbuf.clear();
    s->wbuf_off = 0;
  }
  s->wbuf.append(frame);
  if (!FlushSession(s)) return false;
  if (!s->reading_paused &&
      s->wbuf.size() - s->wbuf_off > options_.max_session_write_buffer) {
    // The peer pipelines requests faster than it reads responses: stop
    // reading until it drains, bounding per-session memory.
    s->reading_paused = true;
  }
  UpdateEpoll(s);
  return true;
}

bool Server::FlushSession(Session* s) {
  while (s->wbuf_off < s->wbuf.size()) {
    const ssize_t n =
        ::send(s->fd, s->wbuf.data() + s->wbuf_off,
               s->wbuf.size() - s->wbuf_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      s->wbuf_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // socket full; EPOLLOUT (via UpdateEpoll) resumes
    }
    // The peer is gone or the socket broke: the response cannot be
    // delivered. Count it and close - a peer that can't take responses
    // must not keep submitting work.
    metrics_.response_write_errors.fetch_add(1, std::memory_order_relaxed);
    CloseSession(s);
    return false;
  }
  s->wbuf.clear();
  s->wbuf_off = 0;
  return true;
}

bool Server::ResumeReading(Session* s) {
  if (!s->reading_paused) return true;
  if (s->wbuf.size() - s->wbuf_off >
      options_.max_session_write_buffer / 2) {
    return true;
  }
  s->reading_paused = false;
  if (!ProcessFrames(s)) return false;
  UpdateEpoll(s);
  return true;
}

void Server::UpdateEpoll(Session* s) {
  uint32_t want = 0;
  if (!s->peer_gone && !s->closing && !s->reading_paused &&
      !s->deferred.has_value() && !draining_) {
    want |= kReadEvents;
  }
  if (s->wbuf_off < s->wbuf.size()) want |= EPOLLOUT;
  if (want == s->epoll_events && (want != 0) == s->in_epoll) return;
  if (want == 0) {
    // Deregister entirely: EPOLLHUP/ERR are reported regardless of the
    // requested mask, so a lingering peer-gone session would otherwise
    // spin the level-triggered loop.
    if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
    s->in_epoll = false;
  } else {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = s->fd;
    ::epoll_ctl(epoll_fd_, s->in_epoll ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                s->fd, &ev);
    s->in_epoll = true;
  }
  s->epoll_events = want;
}

bool Server::MaybeClose(Session* s) {
  const bool drained = s->in_flight == 0 && s->parked.empty();
  const bool flushed = s->wbuf_off >= s->wbuf.size();
  if (s->deferred.has_value() && drained && flushed) {
    if (!RunDeferred(s)) return false;
  }
  if ((s->peer_gone || s->closing || draining_) && drained && flushed) {
    CloseSession(s);
    return false;
  }
  return true;
}

bool Server::RunDeferred(Session* s) {
  Request req = std::move(*s->deferred);
  s->deferred.reset();
  if (req.cmd == Request::Cmd::kBye) {
    s->closing = true;
    return QueueResponse(s, OkResponse(), req.id);
  }
  StartReplication(s, req.from_seqno);
  return false;  // the session state is gone; the fd lives on as a stream
}

void Server::StartReplication(Session* s, uint64_t from_seqno) {
  // The connection becomes a one-way stream served by a dedicated
  // thread: an open-ended stream must not occupy a pool worker (a few
  // replicas would starve every query) and its blocking writes cannot
  // run on the loop. Like stats, it needs no HELLO: the daemon binds
  // loopback only, and the replica re-enforces per-level visibility
  // for its own clients.
  const int fd = s->fd;
  if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  parked_fds_.erase(fd);
  sessions_.erase(fd);  // frees the session state; the fd stays open
  metrics_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
  replication_streams_.fetch_add(1, std::memory_order_relaxed);
  // ServeReplication writes with blocking I/O.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);

  std::lock_guard<std::mutex> lock(streams_mu_);
  ReapStreamsLocked();
  streams_.push_back(std::make_unique<Stream>());
  Stream* stream = streams_.back().get();
  stream->fd = fd;
  stream->thread = std::thread([this, stream, from_seqno] {
    replication::ServeReplication(stream->fd, engine_, from_seqno,
                                  &stopping_);
    // The gauge drops here so admission sees it promptly; the fd is
    // closed by the reaper (after the join), never by this thread, so
    // it cannot be reused while anything could still name it.
    metrics_.connections_open.fetch_sub(1, std::memory_order_acq_rel);
    stream->done.store(true, std::memory_order_release);
  });
}

void Server::ReapStreamsLocked() {
  for (auto it = streams_.begin(); it != streams_.end();) {
    Stream* stream = it->get();
    if (!stream->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (stream->thread.joinable()) stream->thread.join();
    if (stream->fd >= 0) ::close(stream->fd);
    it = streams_.erase(it);
  }
}

void Server::ForwardTask(const std::shared_ptr<Task>& task) {
  const bool relay = task->fwd.kind == sharding::Forward::Kind::kRelay;
  const size_t n = relay ? 1 : router_->shards().size();
  task->replies.assign(n, Status::Internal("no reply"));
  task->pending = n;
  for (size_t slot = 0; slot < n; ++slot) {
    Result<Backend*> b = TakeBackend(relay ? task->fwd.shard : slot,
                                     task->level);
    if (!b.ok()) {
      ShardReplied(task, slot, b.status());
      continue;
    }
    (*b)->task = task;
    (*b)->slot = slot;
    (*b)->wbuf.append(EncodeFrame(task->fwd.payload));
    FlushBackend(*b);
  }
}

Result<Server::Backend*> Server::TakeBackend(size_t shard,
                                             const std::string& level) {
  std::vector<Backend*>& idle = idle_backends_[shard];
  auto match = std::find_if(idle.begin(), idle.end(),
                            [&](Backend* b) { return b->level == level; });
  if (match != idle.end()) {
    Backend* b = *match;
    idle.erase(match);
    return b;
  }
  // No more than max_in_flight backends per shard could ever be busy at
  // once; past that, an idle one of another level makes room, so the
  // pool never crowds a shard's own connection limit.
  size_t open = 0;
  for (const auto& entry : backends_) open += entry.second->shard == shard;
  if (open >= options_.max_in_flight && !idle.empty()) {
    DropBackend(idle.front(), Status::Internal("evicted while idle"));
  }
  const sharding::ShardEndpoint& ep = router_->shards()[shard];
  MULTILOG_ASSIGN_OR_RETURN(const int fd,
                            DialTcp(ep.host, ep.port, /*nonblocking=*/true));
  auto b = std::make_unique<Backend>();
  b->fd = fd;
  b->shard = shard;
  b->level = level;
  // The session binding rides ahead of the first request. No mode:
  // every forwarded query pins its own, so (shard, level) is the key.
  Json hello = Json::Object();
  hello.Set("cmd", Json::Str("hello"));
  hello.Set("level", Json::Str(level));
  b->wbuf = EncodeFrame(hello.Serialize());
  epoll_event ev{};
  ev.events = kReadEvents | EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    const Status s =
        Status::Internal(std::string("epoll_ctl: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  Backend* raw = b.get();
  backends_[fd] = std::move(b);
  return raw;
}

bool Server::FlushBackend(Backend* b) {
  while (!b->wbuf.empty()) {
    const ssize_t n = ::send(b->fd, b->wbuf.data(), b->wbuf.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      b->wbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Also how a refused nonblocking connect surfaces.
    DropBackend(b, Status::Internal(std::string("send: ") +
                                    std::strerror(errno)));
    return false;
  }
  const bool want_out = !b->wbuf.empty();
  if (want_out != b->want_out) {
    epoll_event ev{};
    ev.events = kReadEvents | (want_out ? EPOLLOUT : 0u);
    ev.data.fd = b->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, b->fd, &ev);
    b->want_out = want_out;
  }
  return true;
}

void Server::HandleBackendEvent(Backend* b, uint32_t events) {
  if ((events & EPOLLOUT) != 0 && !FlushBackend(b)) return;
  if ((events & kReadEvents) == 0) return;
  // Take everything readable first: a draining shard may send its last
  // reply and close in one go, and that reply still counts.
  Status closed;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(b->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      b->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // as for sessions
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = Status::Internal(n == 0 ? std::string("connection closed")
                                     : std::string("recv: ") +
                                           std::strerror(errno));
    break;
  }
  while (true) {
    Result<std::optional<std::string>> frame = b->decoder.Next();
    if (!frame.ok()) return DropBackend(b, frame.status());
    if (!frame->has_value()) break;
    std::string payload = std::move(**frame);
    std::shared_ptr<Task> task = std::move(b->task);
    const size_t slot = b->slot;
    if (b->hello_pending) {
      b->hello_pending = false;
      Result<Json> hello = Json::Parse(payload);
      if (hello.ok() && hello->GetBool("ok", false)) {
        b->task = std::move(task);
        continue;
      }
      // A refused binding (the shard's lattice disagrees) is the
      // request's answer, and a backend without a clearance is no use.
      DropBackend(b, Status::Internal("binding refused"));
      if (task != nullptr) ShardReplied(task, slot, std::move(payload));
      return;
    }
    if (task == nullptr) {
      return DropBackend(b, Status::Internal("unsolicited reply"));
    }
    idle_backends_[b->shard].push_back(b);
    ShardReplied(task, slot, std::move(payload));
  }
  if (!closed.ok()) DropBackend(b, closed);
}

void Server::DropBackend(Backend* b, const Status& cause) {
  std::shared_ptr<Task> task = std::move(b->task);
  const size_t slot = b->slot;
  std::vector<Backend*>& idle = idle_backends_[b->shard];
  idle.erase(std::remove(idle.begin(), idle.end(), b), idle.end());
  const int fd = b->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  backends_.erase(fd);  // frees b
  if (task != nullptr) ShardReplied(task, slot, cause);
}

void Server::ShardReplied(const std::shared_ptr<Task>& task, size_t slot,
                          Result<std::string> reply) {
  task->replies[slot] = std::move(reply);
  if (--task->pending > 0) return;
  if (task->fwd.kind != sharding::Forward::Kind::kRelay) {
    const auto t_submit = trace::Collector::Clock::now();
    pool_->Submit([this, task, t_submit] { RunTask(task, t_submit); });
    return;
  }
  std::string payload = router_->Relay(task->fwd.shard, task->replies[0]);
  if (task->req.id.has_value()) AppendIntMember(&payload, "id", *task->req.id);
  if (task->admitted) in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  PostCompletion(task->fd, task->gen, EncodeFrame(payload), /*wake=*/false);
}

void Server::CloseSession(Session* s) {
  const int fd = s->fd;
  if (s->in_epoll) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  parked_fds_.erase(fd);
  metrics_.connections_open.fetch_sub(1, std::memory_order_acq_rel);
  metrics_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
  sessions_.erase(fd);  // frees the Session - the churn-leak fix itself
}

Json Server::HandleQuery(const Task& task) {
  const Request& req = task.req;
  // Deadline precedence: the request's own deadline_ms (0 is a valid
  // "already expired" probe), else the server default, else none.
  CancelToken cancel;
  const CancelToken* cancel_ptr = nullptr;
  if (req.deadline_ms >= 0) {
    cancel.SetTimeout(std::chrono::milliseconds(req.deadline_ms));
    cancel_ptr = &cancel;
  } else if (options_.default_deadline_ms > 0) {
    cancel.SetTimeout(std::chrono::milliseconds(options_.default_deadline_ms));
    cancel_ptr = &cancel;
  }
  const ml::ExecMode mode =
      req.mode.has_value() ? *req.mode : task.session_mode;

  const auto start = std::chrono::steady_clock::now();
  Result<ml::QueryResult> result = ml::QueryResult{};
  {
    trace::Span exec_span(trace::Stage::kExecute);
    result = engine_->QuerySource(req.goal, task.level, mode, cancel_ptr);
  }
  const uint64_t micros = ElapsedMicros(start);
  metrics_.RecordQuery(task.level, static_cast<size_t>(mode), micros);

  if (!result.ok()) {
    if (result.status().IsDeadlineExceeded()) {
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.query_errors.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(result.status());
  }
  metrics_.queries_ok.fetch_add(1, std::memory_order_relaxed);
  metrics_.rows_returned.fetch_add(result->answers.size(),
                                   std::memory_order_relaxed);

  trace::Span serialize_span(trace::Stage::kSerialize);
  Json resp = OkResponse();
  resp.Set("level", Json::Str(task.level));
  resp.Set("mode", Json::Str(ExecModeName(mode)));
  Json answers = Json::Array();
  for (const datalog::Substitution& answer : result->answers) {
    answers.Push(Json::Str(answer.ToString()));
  }
  resp.Set("count", Json::Int(static_cast<int64_t>(result->answers.size())));
  resp.Set("answers", std::move(answers));
  if (req.want_proofs && !result->proofs.empty()) {
    Json proofs = Json::Array();
    for (const ml::ProofPtr& proof : result->proofs) {
      proofs.Push(Json::Str(ml::RenderProof(*proof)));
    }
    resp.Set("proofs", std::move(proofs));
  }
  resp.Set("elapsed_ms", Json::Double(static_cast<double>(micros) / 1000.0));
  return resp;
}

Json Server::HandleWrite(const Task& task) {
  const Request& req = task.req;
  const auto start = std::chrono::steady_clock::now();
  Json resp = OkResponse();
  if (req.cmd == Request::Cmd::kCheckpoint) {
    const Status s = engine_->Checkpoint();
    if (!s.ok()) {
      metrics_.write_errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(s);
    }
    if (engine_->storage() != nullptr) {
      resp.Set("snapshot", Json::Str(engine_->storage()->snapshot_path()));
    }
  } else {
    const bool retract = req.cmd == Request::Cmd::kRetract;
    Result<ml::WriteResult> result =
        retract ? engine_->Retract(req.fact, task.level)
                : engine_->Assert(req.fact, task.level);
    if (!result.ok()) {
      metrics_.write_errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(result.status());
    }
    resp.Set("seqno", Json::Int(static_cast<int64_t>(result->seqno)));
    Json invalidated = Json::Array();
    for (const std::string& level : result->invalidated_levels) {
      invalidated.Push(Json::Str(level));
    }
    resp.Set("invalidated_levels", std::move(invalidated));
    Json maintained = Json::Array();
    for (const std::string& level : result->maintained_levels) {
      maintained.Push(Json::Str(level));
    }
    resp.Set("maintained_levels", std::move(maintained));
    resp.Set("durable", Json::Bool(engine_->storage() != nullptr));
  }
  metrics_.writes_ok.fetch_add(1, std::memory_order_relaxed);
  resp.Set("level", Json::Str(task.level));
  resp.Set("elapsed_ms",
           Json::Double(static_cast<double>(ElapsedMicros(start)) / 1000.0));
  return resp;
}

Json Server::HandleSql(const Task& task) {
  if (task.sql == nullptr) {
    metrics_.query_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::InvalidArgument(
        "this server has no SQL catalog configured"));
  }
  const auto start = std::chrono::steady_clock::now();
  Result<msql::ResultSet> result = [&] {
    // Pipelined statements on one session serialize here: the
    // msql::Session is stateful, and two workers must not run it
    // concurrently.
    std::lock_guard<std::mutex> lock(task.sql->mu);
    trace::Span sql_span(trace::Stage::kSqlExecute);
    return task.sql->session.Execute(task.req.sql);
  }();
  const uint64_t micros = ElapsedMicros(start);
  metrics_.latency().Record(micros);

  if (!result.ok()) {
    metrics_.query_errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(result.status());
  }
  metrics_.queries_ok.fetch_add(1, std::memory_order_relaxed);
  metrics_.rows_returned.fetch_add(result->rows.size(),
                                   std::memory_order_relaxed);

  Json resp = OkResponse();
  Json columns = Json::Array();
  for (const std::string& column : result->columns) {
    columns.Push(Json::Str(column));
  }
  Json rows = Json::Array();
  for (const std::vector<std::string>& row : result->rows) {
    Json cells = Json::Array();
    for (const std::string& cell : row) cells.Push(Json::Str(cell));
    rows.Push(std::move(cells));
  }
  resp.Set("columns", std::move(columns));
  resp.Set("count", Json::Int(static_cast<int64_t>(result->rows.size())));
  resp.Set("rows", std::move(rows));
  resp.Set("elapsed_ms", Json::Double(static_cast<double>(micros) / 1000.0));
  return resp;
}

Json Server::StatsJson() {
  if (router_ != nullptr) {
    return router_->StatsJson(
        metrics_.connections_open.load(std::memory_order_relaxed),
        metrics_.requests_total.load(std::memory_order_relaxed));
  }
  Json root = metrics_.ToJson();
  root.Set("in_flight",
           Json::Int(static_cast<int64_t>(
               in_flight_.load(std::memory_order_relaxed))));
  const ml::EngineCounters ec = engine_->Counters();
  Json engine = Json::Object();
  engine.Set("cache_hits", Json::Int(static_cast<int64_t>(ec.cache_hits)));
  engine.Set("cache_misses", Json::Int(static_cast<int64_t>(ec.cache_misses)));
  engine.Set("invalidation_events",
             Json::Int(static_cast<int64_t>(ec.invalidation_events)));
  engine.Set("cache_entries_invalidated",
             Json::Int(static_cast<int64_t>(ec.cache_entries_invalidated)));
  engine.Set("deltas_applied",
             Json::Int(static_cast<int64_t>(ec.deltas_applied)));
  engine.Set("fallback_recomputes",
             Json::Int(static_cast<int64_t>(ec.fallback_recomputes)));
  engine.Set("live_models", Json::Int(static_cast<int64_t>(ec.live_models)));
  engine.Set("model_facts", Json::Int(static_cast<int64_t>(ec.model_facts)));
  engine.Set("plan_hits", Json::Int(static_cast<int64_t>(ec.plan_hits)));
  engine.Set("plan_misses", Json::Int(static_cast<int64_t>(ec.plan_misses)));
  engine.Set("magic_fallbacks",
             Json::Int(static_cast<int64_t>(ec.magic_fallbacks)));
  engine.Set("asserts_ok", Json::Int(static_cast<int64_t>(ec.asserts_ok)));
  engine.Set("retracts_ok", Json::Int(static_cast<int64_t>(ec.retracts_ok)));
  engine.Set("writes_rejected",
             Json::Int(static_cast<int64_t>(ec.writes_rejected)));
  engine.Set("checkpoints", Json::Int(static_cast<int64_t>(ec.checkpoints)));
  root.Set("engine", std::move(engine));
  const ml::StorageCounters sc = engine_->StorageStats();
  root.Set("applied_seqno", Json::Int(static_cast<int64_t>(sc.applied_seqno)));
  root.Set("read_only", Json::Bool(options_.read_only));
  if (sc.attached) {
    Json storage = Json::Object();
    storage.Set("dir", Json::Str(sc.dir));
    storage.Set("next_seqno", Json::Int(static_cast<int64_t>(sc.next_seqno)));
    storage.Set("snapshot_seqno",
                Json::Int(static_cast<int64_t>(sc.snapshot_seqno)));
    storage.Set("wal_records", Json::Int(static_cast<int64_t>(
                                   sc.wal_records)));
    storage.Set("wal_bytes", Json::Int(static_cast<int64_t>(sc.wal_bytes)));
    storage.Set("checkpoints", Json::Int(static_cast<int64_t>(
                                   sc.checkpoints)));
    storage.Set("group_syncs",
                Json::Int(static_cast<int64_t>(sc.group_syncs)));
    if (!sc.recovery_data_loss.empty()) {
      storage.Set("recovery_data_loss", Json::Str(sc.recovery_data_loss));
    }
    root.Set("storage", std::move(storage));
  }
  // Replication, from whichever side this daemon plays: streams served
  // (primary) and, on a replica, the link state the Replicator tracks.
  Json repl = Json::Object();
  repl.Set("streams_served",
           Json::Int(static_cast<int64_t>(
               replication_streams_.load(std::memory_order_relaxed))));
  if (replicator_ != nullptr) {
    const replication::Replicator::Stats rs = replicator_->GetStats();
    repl.Set("connected", Json::Bool(rs.connected));
    repl.Set("applied_seqno",
             Json::Int(static_cast<int64_t>(rs.applied_seqno)));
    repl.Set("primary_next_seqno",
             Json::Int(static_cast<int64_t>(rs.primary_next_seqno)));
    // Lag in records: how far the primary's committed tip is past what
    // this replica has applied. 0 until the first heartbeat reports the
    // primary's position.
    const uint64_t lag = rs.primary_next_seqno > rs.applied_seqno + 1
                             ? rs.primary_next_seqno - rs.applied_seqno - 1
                             : 0;
    repl.Set("lag_records", Json::Int(static_cast<int64_t>(lag)));
    repl.Set("records_applied",
             Json::Int(static_cast<int64_t>(rs.records_applied)));
    repl.Set("snapshots_installed",
             Json::Int(static_cast<int64_t>(rs.snapshots_installed)));
    repl.Set("reconnects", Json::Int(static_cast<int64_t>(rs.reconnects)));
    if (!rs.last_error.empty()) {
      repl.Set("last_error", Json::Str(rs.last_error));
    }
  }
  root.Set("replication", std::move(repl));
  return root;
}

std::string Server::MetricsText() {
  if (router_ != nullptr) {
    return router_->MetricsText(
        metrics_.connections_open.load(std::memory_order_relaxed),
        metrics_.requests_total.load(std::memory_order_relaxed));
  }
  std::string out = metrics_.PrometheusText();
  auto counter = [&out](const char* name, const char* help, uint64_t value,
                        const char* type = "counter") {
    out.append("# HELP ").append(name).append(" ").append(help).append("\n");
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  };
  counter("multilog_requests_in_flight",
          "Dispatched requests currently executing or queued.",
          in_flight_.load(std::memory_order_relaxed), "gauge");

  const ml::EngineCounters ec = engine_->Counters();
  counter("multilog_engine_cache_hits_total",
          "Per-level cache lookups that hit.", ec.cache_hits);
  counter("multilog_engine_cache_misses_total",
          "Per-level cache lookups that had to build.", ec.cache_misses);
  counter("multilog_engine_invalidation_events_total", "Committed writes.",
          ec.invalidation_events);
  counter("multilog_engine_cache_entries_invalidated_total",
          "Cache entries dropped by committed writes.",
          ec.cache_entries_invalidated);
  counter("multilog_engine_asserts_ok_total", "Asserts committed.",
          ec.asserts_ok);
  counter("multilog_engine_retracts_ok_total", "Retracts committed.",
          ec.retracts_ok);
  counter("multilog_engine_writes_rejected_total",
          "Mutations rejected by security or integrity checks.",
          ec.writes_rejected);
  counter("multilog_engine_checkpoints_total", "Checkpoints taken.",
          ec.checkpoints);
  counter("multilog_engine_deltas_applied_total",
          "Cached models maintained in place by delta propagation.",
          ec.deltas_applied);
  counter("multilog_engine_fallback_recomputes_total",
          "Incremental maintenance fallbacks to full recompute.",
          ec.fallback_recomputes);
  counter("multilog_engine_live_models", "Maintained per-level models.",
          ec.live_models, "gauge");
  counter("multilog_engine_model_facts", "Facts held by the cached models.",
          ec.model_facts, "gauge");
  counter("multilog_engine_plan_hits_total",
          "Compiled magic plans served from the plan cache.", ec.plan_hits);
  counter("multilog_engine_plan_misses_total",
          "Magic plan compiles (first query of a binding pattern).",
          ec.plan_misses);
  counter("multilog_engine_magic_fallbacks_total",
          "Queries the magic path declined to the full bottom-up path.",
          ec.magic_fallbacks);

  const ml::StorageCounters sc = engine_->StorageStats();
  counter("multilog_applied_seqno",
          "Last mutation sequence number applied to the database.",
          sc.applied_seqno, "gauge");
  if (sc.attached) {
    counter("multilog_storage_next_seqno", "Next mutation sequence number.",
            sc.next_seqno, "gauge");
    counter("multilog_storage_snapshot_seqno",
            "Sequence number the on-disk snapshot covers.",
            sc.snapshot_seqno, "gauge");
    counter("multilog_storage_wal_records",
            "Records in the live WAL segment.", sc.wal_records, "gauge");
    counter("multilog_storage_wal_bytes", "Bytes in the live WAL segment.",
            sc.wal_bytes, "gauge");
    counter("multilog_storage_checkpoints_total", "Checkpoints folded.",
            sc.checkpoints);
    counter("multilog_storage_group_syncs_total",
            "Group-commit fsync batches (each covers >= 1 append).",
            sc.group_syncs);
    counter("multilog_storage_recovery_data_loss",
            "1 when the last recovery truncated a damaged WAL tail.",
            sc.recovery_data_loss.empty() ? 0 : 1, "gauge");
  }
  counter("multilog_replication_streams_served_total",
          "Replication streams this daemon has served as the primary.",
          replication_streams_.load(std::memory_order_relaxed));
  if (replicator_ != nullptr) {
    const replication::Replicator::Stats rs = replicator_->GetStats();
    counter("multilog_replica_connected",
            "1 while the replication link to the primary is up.",
            rs.connected ? 1 : 0, "gauge");
    counter("multilog_replica_lag_records",
            "Primary mutations not yet applied on this replica.",
            rs.primary_next_seqno > rs.applied_seqno + 1
                ? rs.primary_next_seqno - rs.applied_seqno - 1
                : 0,
            "gauge");
    counter("multilog_replica_records_applied_total",
            "Shipped WAL records applied by this replica.",
            rs.records_applied);
    counter("multilog_replica_snapshots_installed_total",
            "Catch-up snapshots installed by this replica.",
            rs.snapshots_installed);
    counter("multilog_replica_reconnects_total",
            "Reconnections to the primary after the first attempt.",
            rs.reconnects);
    counter("multilog_replica_has_error",
            "1 while the link's most recent failure is unresolved (cleared "
            "on the first healthy frame after reconnect).",
            rs.last_error.empty() ? 0 : 1, "gauge");
  }

  // Per-stage trace aggregates (populated when tracing is enabled
  // globally or per-query collectors ran).
  const std::array<trace::StageTotal, trace::kNumStages> stages =
      trace::AggregatedStages();
  out.append(
      "# HELP multilog_stage_spans_total Trace spans recorded per stage.\n"
      "# TYPE multilog_stage_spans_total counter\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    out.append("multilog_stage_spans_total{stage=\"")
        .append(trace::StageName(static_cast<trace::Stage>(i)))
        .append("\"} ")
        .append(std::to_string(stages[i].count))
        .append("\n");
  }
  out.append(
      "# HELP multilog_stage_duration_seconds_total Cumulative time per "
      "stage.\n"
      "# TYPE multilog_stage_duration_seconds_total counter\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g",
                  static_cast<double>(stages[i].total_micros) / 1e6);
    out.append("multilog_stage_duration_seconds_total{stage=\"")
        .append(trace::StageName(static_cast<trace::Stage>(i)))
        .append("\"} ")
        .append(buf)
        .append("\n");
  }
  return out;
}

void Server::LogSlowQuery(const Task& task, const trace::SpanNode& root) {
  const ml::ExecMode mode =
      task.req.mode.has_value() ? *task.req.mode : task.session_mode;
  std::ostringstream line;
  line << "[multilogd] slow query: "
       << static_cast<double>(root.duration_micros) / 1000.0
       << " ms level=" << task.level << " mode=" << ExecModeName(mode);
  if (const trace::SpanNode* dominant = DominantSpan(root)) {
    line << " dominant=" << trace::StageName(dominant->stage) << ":"
         << static_cast<double>(dominant->duration_micros) / 1000.0 << "ms";
  }
  line << " goal=" << task.req.goal << "\n";
  std::ostream* sink =
      options_.slow_query_log != nullptr ? options_.slow_query_log
                                         : &std::cerr;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  (*sink) << line.str() << std::flush;
}

}  // namespace multilog::server
