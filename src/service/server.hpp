// lft_serve's server: a single-threaded epoll loop (net::EpollLoop)
// multiplexing client sessions over TCP, group-committing proposals through
// the ReplicaGroup one consensus slot at a time. Everything proposed since
// the last slot rides the next one (one slot per dispatch batch, not per
// request). Each pump runs that slot's consensus rounds to completion before
// it acks the batch and flushes, so a slot costs one reactor poll, not one
// per round. Sessions are nonblocking and edge-triggered: input lands
// directly in each session's FrameParser, output coalesces into a
// per-session ring buffer flushed with one vectored write (EPOLLOUT re-arms
// on partial writes), and a bounded pending-proposal queue pauses sessions
// when the service falls behind — the wire protocol is src/service/wire.hpp
// over net/frame.hpp frames.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/epoll.hpp"
#include "net/frame.hpp"
#include "net/ring.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "service/replica.hpp"

namespace lft::service {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 picks a free port; see Server::port()
  NodeId n = kDefaultGroupSize;
  std::int64_t t = kDefaultFaultBudget;
  /// Honor kShutdown frames (tests and benches stop the server this way).
  bool allow_shutdown = true;
  /// When set, the first commit slot is recorded as an LFTTRACE file.
  std::string trace_path;
  /// Readiness backend: epoll is the only one.
  net::ReactorBackend backend = net::ReactorBackend::kEpoll;
  /// Unread: perfbench/src/serve.cpp still sets it; the next benchmark change deletes it.
  int pipeline = 4;
  /// Backpressure bound: once this many proposals wait for the next slot,
  /// proposing sessions are paused (their bytes stay in the kernel socket
  /// buffer) until a commit drains the queue.
  std::size_t max_pending = 16384;
  /// When set, the server periodically writes its telemetry snapshot to
  /// this path (written to PATH.tmp, then renamed over PATH, so a reader
  /// never sees a partial file): JSON rows for a `.json` path, Prometheus
  /// text exposition otherwise. A final dump happens at shutdown. An idle
  /// server wakes every interval to stay current.
  std::string stats_dump_path;
  std::int64_t stats_dump_interval_ms = 1000;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// The bound port (useful with options.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until a kShutdown frame arrives (allow_shutdown) — the epoll
  /// loop, typically run on its own thread by tests and lft_serve.
  void run();

  [[nodiscard]] const ReplicaGroup& group() const noexcept { return group_; }

  /// The readiness backend serving: always "epoll".
  [[nodiscard]] const char* backend() const noexcept { return "epoll"; }

  struct Stats {
    std::uint64_t sessions_accepted = 0;
    std::uint64_t proposals = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t commit_batches = 0;
    std::uint64_t commit_entries = 0;
    std::uint64_t session_pauses = 0;  ///< backpressure activations
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The telemetry registry's snapshot plus the Stats counters as
  /// `lft_service_*_total` rows — what a kStatsReply frame carries and what
  /// --stats-dump writes. See docs/observability.md for the catalogue.
  [[nodiscard]] obs::Snapshot telemetry() const;

 private:
  struct Session {
    net::Fd fd;
    net::FrameParser parser;
    net::ByteRing out;
    std::uint64_t client_id = 0;
    bool hello_done = false;
    bool subscribed = false;
    bool want_write = false;  ///< EPOLLOUT armed (ring flushed partially)
    bool paused = false;      ///< backpressure: input processing suspended
    bool dirty = false;       ///< queued output not yet offered to the kernel
    std::uint64_t next_commit_index = 0;  ///< subscription push cursor
    std::uint64_t paused_at_ns = 0;       ///< backpressure pause start (telemetry)
  };
  /// What ack_slot() needs to ack a queued command, parallel to pending_:
  /// the command itself moves into the slot's batch.
  struct PendingMeta {
    int fd = -1;  ///< proposer's session (may have closed by commit time)
    std::uint64_t request_id = 0;
    std::uint64_t arrival_ns = 0;  ///< frame-arrival stamp (request latency)
  };

  void accept_ready();
  void session_event(int fd, std::uint32_t events);
  void session_readable(int fd);
  /// Drains parsed frames; false when the session was dropped.
  [[nodiscard]] bool process_frames(int fd, Session& session);
  void handle_frame(Session& session, std::span<const std::byte> payload);
  /// One pass of the serving loop: commit everything pending as one slot
  /// run to completion, ack it, resume paused sessions, flush output.
  void pump();
  /// Starts the slot for everything pending (group commit).
  void enqueue_pending();
  /// Retires the finished slot: acks its proposers, feeds subscribers.
  void ack_slot();
  void resume_paused();
  void drain_shutdown();
  void push_commits(Session& session);
  void pause(int fd, Session& session);
  void drop_session(int fd);
  void queue_frame(int fd, Session& session, std::span<const std::byte> payload);
  void queue_error(int fd, Session& session, const std::string& message);
  void flush_session(int fd);
  void flush_dirty();
  void resume_session(Session& session);
  void write_stats_dump() const;

  /// Hot-path instrument handles, resolved once at construction so no
  /// record ever looks a metric up by name.
  struct Instruments {
    explicit Instruments(obs::Registry& registry);
    obs::Histogram& request_ns;       ///< kPropose arrival -> ack enqueue
    obs::Histogram& pump_enqueue_ns;  ///< pump phase timings
    obs::Histogram& pump_step_ns;
    obs::Histogram& pump_retire_ns;
    obs::Histogram& pump_flush_ns;
    obs::Histogram& pause_ns;         ///< backpressure pause durations
    obs::Histogram& reactor_wait_ns;  ///< time inside EpollLoop::wait
    obs::Histogram& reactor_batch;    ///< callbacks dispatched per wait
    obs::Gauge& ring_high_water;      ///< max queued output bytes, any session
    obs::Counter& stats_requests;     ///< kStatsRequest frames served
  };

  ServerOptions options_;
  ReplicaGroup group_;
  net::Fd listener_;
  std::uint16_t port_ = 0;
  net::EpollLoop loop_;
  std::unordered_map<int, Session> sessions_;
  std::vector<Command> pending_;          // proposals waiting for the next slot
  std::vector<PendingMeta> pending_meta_;  // parallel to pending_
  std::vector<PendingMeta> slot_meta_;     // the running slot's pending_meta_
  std::vector<int> paused_;  // sessions suspended by backpressure
  std::vector<int> dirty_;   // sessions with queued output to flush
  std::vector<std::byte> scratch_;  ///< reused frame encode buffer
  Stats stats_;
  obs::Registry registry_;  ///< single-writer: the server thread
  Instruments obs_;         ///< references into registry_ (declared after it)
  bool stop_ = false;
};

}  // namespace lft::service
