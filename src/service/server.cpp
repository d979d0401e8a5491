#include "service/server.hpp"

#include <sys/epoll.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "service/wire.hpp"

namespace lft::service {

namespace {

/// Per-recv budget. Edge-triggered sessions drain the socket in chunks of
/// this size until EAGAIN (a short read on a stream socket means the buffer
/// is empty, so the next edge re-arms us).
constexpr std::size_t kRecvChunk = 64 * 1024;

void put_commit(ByteWriter& w, std::uint64_t index, const CommandView& cmd) {
  w.put_u8(static_cast<std::uint8_t>(MsgType::kCommit));
  w.put_u64(index);
  w.put_u64(cmd.client_id);
  w.put_u64(cmd.request_id);
  w.put_u32(static_cast<std::uint32_t>(cmd.payload.size()));
  w.put_bytes(cmd.payload);
}

}  // namespace

Server::Instruments::Instruments(obs::Registry& registry)
    : request_ns(registry.histogram("lft_service_request_ns")),
      pump_enqueue_ns(registry.histogram("lft_service_pump_enqueue_ns")),
      pump_step_ns(registry.histogram("lft_service_pump_step_ns")),
      pump_retire_ns(registry.histogram("lft_service_pump_retire_ns")),
      pump_flush_ns(registry.histogram("lft_service_pump_flush_ns")),
      pause_ns(registry.histogram("lft_service_pause_ns")),
      reactor_wait_ns(registry.histogram("lft_service_reactor_wait_ns")),
      reactor_batch(registry.histogram("lft_service_reactor_batch")),
      ring_high_water(registry.gauge("lft_service_ring_high_water")),
      stats_requests(registry.counter("lft_service_stats_requests_total")) {}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      group_(ReplicaGroupOptions{options_.n, options_.t, options_.trace_path}),
      obs_(registry_) {
  port_ = options_.port;
  listener_ = net::listen_tcp(port_);
  net::set_nonblocking(listener_, true);
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { accept_ready(); });
}

void Server::run() {
  const bool dumping = !options_.stats_dump_path.empty();
  const auto interval_ns =
      static_cast<std::uint64_t>(options_.stats_dump_interval_ms) * 1000000u;
  std::uint64_t next_dump_ns = dumping ? obs::now_ns() + interval_ns : 0;
  while (!stop_) {
    // Block only when nothing is pending. pump() runs each slot to
    // completion, so a slot costs one poll, not one per consensus round. A
    // stats-dumping server never blocks forever — it wakes each interval to
    // keep the dump current.
    const bool busy = !pending_.empty();
    int timeout_ms = busy ? 0 : -1;
    if (dumping && !busy) timeout_ms = static_cast<int>(options_.stats_dump_interval_ms);
    const std::uint64_t wait_start = obs::now_ns();
    const int dispatched = loop_.wait(timeout_ms);
    obs_.reactor_wait_ns.record(obs::now_ns() - wait_start);
    obs_.reactor_batch.record(static_cast<std::uint64_t>(dispatched));
    pump();
    if (dumping && obs::now_ns() >= next_dump_ns) {
      write_stats_dump();
      next_dump_ns = obs::now_ns() + interval_ns;
    }
  }
  drain_shutdown();
  if (dumping) write_stats_dump();
}

void Server::pump() {
  const bool committing = !pending_.empty();
  std::uint64_t mark = obs::now_ns();
  if (committing) enqueue_pending();
  obs_.pump_enqueue_ns.record(obs::now_ns() - mark);

  mark = obs::now_ns();
  if (committing) {
    while (!group_.head_ready()) group_.step();
  }
  obs_.pump_step_ns.record(obs::now_ns() - mark);

  mark = obs::now_ns();
  if (committing) ack_slot();
  if (pending_.size() < options_.max_pending) resume_paused();
  obs_.pump_retire_ns.record(obs::now_ns() - mark);

  mark = obs::now_ns();
  flush_dirty();
  obs_.pump_flush_ns.record(obs::now_ns() - mark);
}

void Server::enqueue_pending() {
  // Group commit: everything queued right now shares one consensus slot.
  slot_meta_.swap(pending_meta_);
  pending_meta_.clear();
  group_.enqueue(std::exchange(pending_, {}));
  pending_.reserve(slot_meta_.size());  // the next batch is likely as large
}

void Server::ack_slot() {
  const CommitResult result = group_.take_head();
  ++stats_.commit_batches;
  stats_.commit_entries += slot_meta_.size();

  // Acks to each proposer still connected — coalesced into its session ring,
  // so the whole batch reaches the kernel in one vectored write per session.
  const std::uint64_t ack_ns = obs::now_ns();
  for (std::size_t i = 0; i < slot_meta_.size(); ++i) {
    const PendingMeta& meta = slot_meta_[i];
    const Applied& a = result.applied[i];
    if (a.duplicate) ++stats_.duplicates;
    obs_.request_ns.record(ack_ns - meta.arrival_ns);
    const auto it = sessions_.find(meta.fd);
    if (it == sessions_.end()) continue;  // proposer left; the commit stands
    ByteWriter w(scratch_);
    w.put_u8(static_cast<std::uint8_t>(MsgType::kAck));
    w.put_u64(meta.request_id);
    w.put_u64(a.index);
    w.put_u8(a.duplicate ? 1 : 0);
    queue_frame(meta.fd, it->second, w.view());
  }

  // New log entries to every subscriber.
  for (auto& [fd, session] : sessions_) {
    if (session.subscribed) push_commits(session);
  }
}

void Server::accept_ready() {
  for (;;) {
    net::Fd fd = net::accept_one(listener_);
    if (!fd.valid()) return;
    net::set_nodelay(fd);
    net::set_nonblocking(fd, true);
    const int raw = fd.get();
    Session session;
    session.fd = std::move(fd);
    sessions_.emplace(raw, std::move(session));
    loop_.add(raw, EPOLLIN | EPOLLET,
              [this, raw](std::uint32_t events) { session_event(raw, events); });
    ++stats_.sessions_accepted;
  }
}

void Server::session_event(int fd, std::uint32_t events) {
  if ((events & EPOLLIN) != 0) {
    session_readable(fd);
    if (sessions_.find(fd) == sessions_.end()) return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush_session(fd);
    if (sessions_.find(fd) == sessions_.end()) return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    drop_session(fd);
  }
}

void Server::session_readable(int fd) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.paused) return;  // backpressure: leave bytes in the kernel

  // Frames parsed before a pause may still be buffered (resume path).
  if (!process_frames(fd, session)) return;

  while (!session.paused) {
    const std::span<std::byte> buf = session.parser.writable(kRecvChunk);
    const net::IoResult r = net::recv_some(session.fd, buf);
    if (r.closed) {
      drop_session(fd);
      return;
    }
    if (r.n == 0) break;  // EAGAIN: drained
    session.parser.commit(r.n);
    if (!process_frames(fd, session)) return;
    if (r.n < buf.size()) break;  // short read: socket buffer is empty
  }
}

bool Server::process_frames(int fd, Session& session) {
  std::span<const std::byte> payload;
  while (!session.paused && session.parser.next_view(payload)) {
    handle_frame(session, payload);
    // The frame may have dropped its own session (protocol error).
    if (sessions_.find(fd) == sessions_.end()) return false;
  }
  if (session.parser.corrupt()) {
    drop_session(fd);
    return false;
  }
  return true;
}

void Server::handle_frame(Session& session, std::span<const std::byte> payload) {
  const int fd = session.fd.get();
  ByteReader reader(payload);
  const auto type = reader.get_u8();
  if (!type) {
    queue_error(fd, session, "empty frame");
    return;
  }
  switch (static_cast<MsgType>(*type)) {
    case MsgType::kHello: {
      const auto client_id = reader.get_u64();
      if (!client_id) {
        queue_error(fd, session, "malformed hello");
        return;
      }
      session.client_id = *client_id;
      session.hello_done = true;
      ByteWriter w(scratch_);
      w.put_u8(static_cast<std::uint8_t>(MsgType::kWelcome));
      w.put_u64(*client_id);
      w.put_u64(group_.machine().last_request_of(*client_id));
      queue_frame(fd, session, w.view());
      return;
    }
    case MsgType::kPropose: {
      const auto request_id = reader.get_u64();
      const auto len = reader.get_u32();
      if (!session.hello_done || !request_id || !len) {
        queue_error(fd, session, "propose before hello or malformed propose");
        return;
      }
      const auto body = reader.get_bytes(*len);
      if (!body) {
        queue_error(fd, session, "malformed propose payload");
        return;
      }
      pending_.push_back(Command{session.client_id, *request_id, {body->begin(), body->end()}});
      pending_meta_.push_back(PendingMeta{fd, *request_id, obs::now_ns()});
      ++stats_.proposals;
      if (pending_.size() >= options_.max_pending) pause(fd, session);
      return;
    }
    case MsgType::kRead: {
      ByteWriter w(scratch_);
      w.put_u8(static_cast<std::uint8_t>(MsgType::kState));
      w.put_u64(group_.machine().size());
      w.put_u64(group_.machine().digest());
      w.put_u64(group_.slots());
      queue_frame(fd, session, w.view());
      return;
    }
    case MsgType::kSubscribe: {
      const auto from_index = reader.get_u64();
      if (!from_index) {
        queue_error(fd, session, "malformed subscribe");
        return;
      }
      session.subscribed = true;
      session.next_commit_index = *from_index;
      push_commits(session);  // catch up on already-committed entries
      return;
    }
    case MsgType::kStatsRequest: {
      // Read-only and allowed before kHello: monitoring shouldn't need a
      // client identity.
      obs_.stats_requests.inc();
      ByteWriter w(scratch_);
      w.put_u8(static_cast<std::uint8_t>(MsgType::kStatsReply));
      telemetry().encode(w);
      queue_frame(fd, session, w.view());
      return;
    }
    case MsgType::kShutdown: {
      if (!options_.allow_shutdown) {
        queue_error(fd, session, "shutdown disabled");
        return;
      }
      ByteWriter w(scratch_);
      w.put_u8(static_cast<std::uint8_t>(MsgType::kBye));
      queue_frame(fd, session, w.view());
      stop_ = true;
      return;
    }
    default:
      queue_error(fd, session, "unknown message type");
      return;
  }
}

void Server::push_commits(Session& session) {
  const StateMachine& machine = group_.machine();
  const int fd = session.fd.get();
  while (session.next_commit_index < machine.size()) {
    const std::uint64_t index = session.next_commit_index++;
    ByteWriter w(scratch_);
    put_commit(w, index, machine.entry(index));
    queue_frame(fd, session, w.view());
  }
}

void Server::pause(int fd, Session& session) {
  if (session.paused) return;
  session.paused = true;
  session.paused_at_ns = obs::now_ns();
  paused_.push_back(fd);
  ++stats_.session_pauses;
}

void Server::resume_session(Session& session) {
  session.paused = false;
  obs_.pause_ns.record(obs::now_ns() - session.paused_at_ns);
}

void Server::resume_paused() {
  if (paused_.empty()) return;
  std::vector<int> paused;
  paused.swap(paused_);  // pause() re-adds anyone who fills the queue again
  for (const int fd : paused) {
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    resume_session(it->second);
    session_readable(fd);
    if (pending_.size() >= options_.max_pending) break;  // queue is full again
  }
}

void Server::queue_frame(int fd, Session& session, std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::byte hdr[sizeof(len)];
  std::memcpy(hdr, &len, sizeof(len));  // little-endian hosts, like common/codec
  session.out.append(std::span<const std::byte>(hdr, sizeof(hdr)));
  session.out.append(payload);
  obs_.ring_high_water.set_max(static_cast<std::int64_t>(session.out.size()));
  if (!session.dirty) {
    session.dirty = true;
    dirty_.push_back(fd);
  }
}

void Server::queue_error(int fd, Session& session, const std::string& message) {
  ByteWriter w(scratch_);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kError));
  w.put_u32(static_cast<std::uint32_t>(message.size()));
  w.put_bytes(std::as_bytes(std::span<const char>(message.data(), message.size())));
  queue_frame(fd, session, w.view());
}

void Server::flush_session(int fd) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  while (!session.out.empty()) {
    const auto spans = session.out.readable();
    const net::IoResult w = net::writev_some(session.fd, spans[0], spans[1]);
    if (w.closed) {
      drop_session(fd);
      return;
    }
    if (w.n == 0) break;  // kernel buffer full: wait for EPOLLOUT
    session.out.consume(w.n);
  }
  const std::uint32_t want =
      session.out.empty() ? (EPOLLIN | EPOLLET) : (EPOLLIN | EPOLLOUT | EPOLLET);
  const bool want_write = !session.out.empty();
  if (want_write != session.want_write) {
    session.want_write = want_write;
    loop_.modify(fd, want);
  }
}

void Server::flush_dirty() {
  if (dirty_.empty()) return;
  std::vector<int> dirty;
  dirty.swap(dirty_);
  for (const int fd : dirty) {
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    it->second.dirty = false;
    flush_session(fd);
  }
}

void Server::drain_shutdown() {
  // Commit until nothing is pending: frames parsed on paused sessions still
  // commit, but no new bytes are read off any socket once stop_ is set.
  for (;;) {
    if (!paused_.empty() && pending_.size() < options_.max_pending) {
      std::vector<int> paused;
      paused.swap(paused_);
      for (const int fd : paused) {
        const auto it = sessions_.find(fd);
        if (it == sessions_.end()) continue;
        resume_session(it->second);
        (void)process_frames(fd, it->second);
      }
    }
    if (pending_.empty()) break;
    enqueue_pending();
    while (!group_.head_ready()) group_.step();
    ack_slot();
  }
  // Final flush: blocking sends so the last acks and the kBye reach peers.
  for (auto& [fd, session] : sessions_) {
    if (session.out.empty()) continue;
    net::set_nonblocking(session.fd, false);
    const auto spans = session.out.readable();
    if (net::send_all(session.fd, spans[0]) && !spans[1].empty()) {
      (void)net::send_all(session.fd, spans[1]);
    }
    session.out.consume(session.out.size());
  }
}

void Server::drop_session(int fd) {
  loop_.remove(fd);
  sessions_.erase(fd);  // Fd RAII closes the socket
}

obs::Snapshot Server::telemetry() const {
  obs::Snapshot snap = registry_.snapshot();
  snap.counters.push_back({"lft_service_sessions_accepted_total", stats_.sessions_accepted});
  snap.counters.push_back({"lft_service_proposals_total", stats_.proposals});
  snap.counters.push_back({"lft_service_duplicates_total", stats_.duplicates});
  snap.counters.push_back({"lft_service_commit_batches_total", stats_.commit_batches});
  snap.counters.push_back({"lft_service_commit_entries_total", stats_.commit_entries});
  snap.counters.push_back({"lft_service_session_pauses_total", stats_.session_pauses});
  snap.gauges.push_back({"lft_service_sessions", static_cast<std::int64_t>(sessions_.size())});
  return snap;
}

void Server::write_stats_dump() const {
  // Write a sibling file and rename it over PATH: a concurrent reader (a
  // Prometheus textfile collector, say) sees the old snapshot or the new
  // one, never an empty or partial file. The dump is best-effort; serving
  // goes on if it fails.
  const std::string& path = options_.stats_dump_path;
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out.good()) return;
  const obs::Snapshot snap = telemetry();
  out << (path.ends_with(".json") ? snap.to_json() : snap.to_prometheus());
  out.close();
  if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

}  // namespace lft::service
