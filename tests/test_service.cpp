// The service plane: replicated state machine semantics (dedup, digests),
// the twin property (a pooled live slot, stepped by sim::Engine over
// in-process Processes, produces Reports and trace digests bit-identical to
// a fresh run_system execution), live-trace
// forensics replay, and the lft_serve server / client loop over real TCP
// sockets.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

#include "core/run_options.hpp"
#include "forensics/replay.hpp"
#include "forensics/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "service/client.hpp"
#include "service/ordering.hpp"
#include "service/replica.hpp"
#include "service/server.hpp"
#include "service/state_machine.hpp"
#include "service/wire.hpp"

namespace lft::service {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(p, p + s.size());
}

// ---- state machine ---------------------------------------------------------

TEST(StateMachine, AppendsAndDedupsPerClient) {
  StateMachine sm;
  const auto a = sm.apply(Command{1, 1, bytes_of("a")});
  EXPECT_EQ(a.index, 0u);
  EXPECT_FALSE(a.duplicate);
  const auto b = sm.apply(Command{2, 1, bytes_of("b")});
  EXPECT_EQ(b.index, 1u);
  EXPECT_FALSE(b.duplicate);

  // Replay of client 1's last request: original index, nothing appended.
  const auto a2 = sm.apply(Command{1, 1, bytes_of("a")});
  EXPECT_TRUE(a2.duplicate);
  EXPECT_EQ(a2.index, 0u);
  EXPECT_EQ(sm.size(), 2u);

  // A fresh request from client 1 appends.
  const auto c = sm.apply(Command{1, 2, bytes_of("c")});
  EXPECT_FALSE(c.duplicate);
  EXPECT_EQ(c.index, 2u);
  EXPECT_EQ(sm.last_request_of(1), 2u);
  EXPECT_EQ(sm.last_request_of(99), 0u);
}

TEST(StateMachine, DigestIsOrderSensitiveAndDeterministic) {
  StateMachine x, y, z;
  (void)x.apply(Command{1, 1, bytes_of("a")});
  (void)x.apply(Command{1, 2, bytes_of("b")});
  (void)y.apply(Command{1, 1, bytes_of("a")});
  (void)y.apply(Command{1, 2, bytes_of("b")});
  EXPECT_EQ(x.digest(), y.digest());
  (void)z.apply(Command{1, 1, bytes_of("b")});
  (void)z.apply(Command{1, 2, bytes_of("a")});
  EXPECT_NE(x.digest(), z.digest());
  // Duplicates do not perturb the digest.
  const auto before = x.digest();
  (void)x.apply(Command{1, 2, bytes_of("b")});
  EXPECT_EQ(x.digest(), before);
}

/// A payload of `size` bytes with a position- and seed-dependent pattern.
std::vector<std::byte> pattern_bytes(std::size_t size, unsigned seed) {
  std::vector<std::byte> p(size);
  for (std::size_t j = 0; j < size; ++j) {
    p[j] = std::byte{static_cast<unsigned char>(seed + 131 * j + (j >> 8))};
  }
  return p;
}

TEST(StateMachine, LogDigestAndEntriesArePinned) {
  // A fixed apply sequence: empty, 16-byte and 64 KiB payloads, then a
  // replay of a client's last request and a stale (older) request. The
  // digest literal must never move whatever the log's storage: replicas
  // compare it, and kState hands it to clients.
  const std::vector<Command> fresh{
      Command{1, 1, {}},
      Command{2, 1, pattern_bytes(16, 7)},
      Command{1, 2, pattern_bytes(64 * 1024, 11)},
      Command{3, 9, bytes_of("tail")},
  };
  StateMachine sm;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Applied a = sm.apply(fresh[i]);
    EXPECT_EQ(a.index, i);
    EXPECT_FALSE(a.duplicate);
  }
  ASSERT_EQ(sm.size(), fresh.size());
  EXPECT_EQ(sm.payload_bytes(), 16u + 64u * 1024u + 4u);
  EXPECT_EQ(sm.digest(), 0x1c4b62ad657cd645ULL);

  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const CommandView e = sm.entry(i);
    EXPECT_EQ(e.client_id, fresh[i].client_id) << "entry " << i;
    EXPECT_EQ(e.request_id, fresh[i].request_id) << "entry " << i;
    ASSERT_EQ(e.payload.size(), fresh[i].payload.size()) << "entry " << i;
    EXPECT_TRUE(std::equal(e.payload.begin(), e.payload.end(), fresh[i].payload.begin()))
        << "entry " << i << " payload bytes differ";
  }

  // Duplicates append nothing: no entry, no arena bytes, no digest step.
  const std::uint64_t digest = sm.digest();
  const std::size_t arena = sm.payload_bytes();
  const Applied replay = sm.apply(Command{2, 1, pattern_bytes(16, 7)});
  EXPECT_TRUE(replay.duplicate);
  EXPECT_EQ(replay.index, 1u);
  const Applied stale = sm.apply(Command{1, 1, pattern_bytes(64 * 1024, 3)});
  EXPECT_TRUE(stale.duplicate);
  EXPECT_EQ(stale.index, 2u);  // the client's last applied request's index
  EXPECT_EQ(sm.size(), fresh.size());
  EXPECT_EQ(sm.payload_bytes(), arena);
  EXPECT_EQ(sm.digest(), digest);
}

// ---- the twin property -----------------------------------------------------

struct TwinRun {
  SlotOutcome outcome;
  forensics::Trace trace;
};

TwinRun run_on_engine(NodeId n, std::int64_t t) {
  forensics::TraceRecorder recorder;
  core::RunOptions options;
  options.trace = &recorder;
  TwinRun r;
  r.outcome = run_slot_on_engine(n, t, options);
  r.trace = recorder.take();
  return r;
}

TwinRun run_on_transport(NodeId n, std::int64_t t) {
  forensics::TraceRecorder recorder;
  SlotContext slot(n, t);
  slot.begin(&recorder);
  while (slot.step()) {
  }
  TwinRun r;
  r.outcome = slot.finish();
  r.trace = recorder.take();
  return r;
}

void expect_twin(const TwinRun& engine, const TwinRun& live, const char* label) {
  EXPECT_TRUE(engine.outcome.committed) << label;
  EXPECT_TRUE(live.outcome.committed) << label;
  EXPECT_EQ(scenarios::fingerprint(engine.outcome.report),
            scenarios::fingerprint(live.outcome.report))
      << label << ": Report fingerprints diverge";
  ASSERT_EQ(engine.trace.rounds.size(), live.trace.rounds.size()) << label;
  for (std::size_t i = 0; i < engine.trace.rounds.size(); ++i) {
    EXPECT_EQ(engine.trace.rounds[i], live.trace.rounds[i])
        << label << ": round digest " << i << " diverges";
  }
}

TEST(TransportSeam, LoopbackDriverIsBitIdenticalToEngine) {
  const auto engine = run_on_engine(7, 1);
  const auto live = run_on_transport(7, 1);
  expect_twin(engine, live, "loopback n=7");
  EXPECT_EQ(engine.outcome.report.rounds, live.outcome.report.rounds);
}

TEST(TransportSeam, TwinHoldsAcrossShapes) {
  // Shapes honoring Few-Crashes-Consensus's 5t < n requirement.
  for (const auto& [n, t] : {std::pair<NodeId, std::int64_t>{6, 1}, {12, 2}, {25, 4}}) {
    const auto engine = run_on_engine(n, t);
    const auto live = run_on_transport(n, t);
    expect_twin(engine, live, ("loopback n=" + std::to_string(n)).c_str());
  }
}

// ---- replica group + forensics bridge --------------------------------------

TEST(ReplicaGroup, CommitsBatchesToAllReplicasIdentically) {
  ReplicaGroup group(ReplicaGroupOptions{});
  std::vector<Command> batch;
  batch.push_back(Command{1, 1, bytes_of("set x 1")});
  batch.push_back(Command{2, 1, bytes_of("set y 2")});
  const auto first = group.commit(batch);
  ASSERT_EQ(first.applied.size(), 2u);
  EXPECT_EQ(first.applied[0].index, 0u);
  EXPECT_EQ(first.applied[1].index, 1u);
  EXPECT_GT(first.slot_rounds, 0);
  EXPECT_GT(first.slot_messages, 0);

  // Second batch, with one duplicate riding along.
  std::vector<Command> second;
  second.push_back(Command{1, 1, bytes_of("set x 1")});  // replay
  second.push_back(Command{1, 2, bytes_of("set x 3")});
  const auto r = group.commit(second);
  EXPECT_TRUE(r.applied[0].duplicate);
  EXPECT_EQ(r.applied[0].index, 0u);
  EXPECT_FALSE(r.applied[1].duplicate);
  EXPECT_EQ(r.applied[1].index, 2u);
  EXPECT_EQ(group.machine().size(), 3u);
  EXPECT_EQ(group.slots(), 2u);
}

TEST(ReplicaGroup, LiveSlotTraceReplaysUnderTheEngine) {
  const std::string path = ::testing::TempDir() + "lft_service_slot.trace";
  ReplicaGroupOptions options;
  options.trace_path = path;
  ReplicaGroup group(options);
  std::vector<Command> batch{Command{1, 1, bytes_of("hello")}};
  (void)group.commit(batch);
  ASSERT_TRUE(group.trace_saved());

  // The live trace must replay cleanly against the registered scenario —
  // the forensics plane accepts live service executions as first-class.
  const auto trace = forensics::load_trace(path);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->meta.scenario, kSlotScenarioName);
  const auto replayed = forensics::replay(*trace, /*threads=*/1);
  EXPECT_FALSE(replayed.divergence.diverged)
      << "live slot trace diverged from engine replay: " << replayed.divergence.detail;
  std::remove(path.c_str());
}

// ---- server + client over real TCP -----------------------------------------

/// Server on its own thread; the destructor shuts it down through the wire
/// (kShutdown) if a test did not already.
struct RunningServer {
  Server server;
  std::thread thread;

  explicit RunningServer(ServerOptions options = {}) : server(std::move(options)) {
    thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    Client stopper(server.port(), /*client_id=*/0xdeadbeef);
    if (stopper.connected()) (void)stopper.shutdown_server();
    thread.join();
  }
};

TEST(ServiceServer, ProposeAckAndRead) {
  RunningServer rs;
  Client client(rs.server.port(), /*client_id=*/1);
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.welcome_last_request(), 0u);

  const auto a = client.propose(1, bytes_of("set x 1"));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->index, 0u);
  EXPECT_FALSE(a->duplicate);

  const auto b = client.propose(2, bytes_of("set y 2"));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->index, 1u);

  const auto state = client.read_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->size, 2u);
  EXPECT_GE(state->slots, 1u);
}

TEST(ServiceServer, StatsRequestReturnsLiveTelemetrySnapshot) {
  RunningServer rs;
  Client client(rs.server.port(), /*client_id=*/1);
  ASSERT_TRUE(client.connected());
  for (std::uint64_t r = 1; r <= 5; ++r) {
    ASSERT_TRUE(client.propose(r, bytes_of("cmd")).has_value());
  }

  const auto snapshot = client.server_stats();
  ASSERT_TRUE(snapshot.has_value());
  // The request-latency histogram saw every proposal, with sane bounds and
  // nonzero percentiles (steady_clock deltas through a real commit path).
  const auto* latency = snapshot->find_histogram("lft_service_request_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->data.count(), 5u);
  EXPECT_GT(latency->data.percentile(50.0), 0u);
  EXPECT_GT(latency->data.percentile(99.0), 0u);
  EXPECT_LE(latency->data.min(), latency->data.max());
  // Stats fold in the serving counters; the stats request itself was counted.
  const auto* proposals = snapshot->find_counter("lft_service_proposals_total");
  ASSERT_NE(proposals, nullptr);
  EXPECT_EQ(proposals->value, 5u);
  const auto* stats_requests = snapshot->find_counter("lft_service_stats_requests_total");
  ASSERT_NE(stats_requests, nullptr);
  EXPECT_EQ(stats_requests->value, 1u);

  // A second fetch sees strictly newer state (monotonic counters).
  const auto again = client.server_stats();
  ASSERT_TRUE(again.has_value());
  const auto* again_requests = again->find_counter("lft_service_stats_requests_total");
  ASSERT_NE(again_requests, nullptr);
  EXPECT_EQ(again_requests->value, 2u);
}

TEST(ServiceServer, SessionReconnectDedupsReplayedRequest) {
  RunningServer rs;
  std::uint64_t first_index = 0;
  {
    Client client(rs.server.port(), /*client_id=*/42);
    ASSERT_TRUE(client.connected());
    const auto a = client.propose(7, bytes_of("payment"));
    ASSERT_TRUE(a.has_value());
    first_index = a->index;
  }  // connection dies with the ack possibly unseen by the application

  // Reconnect: the welcome reports the last applied request, and replaying
  // it acks the original log index without a second append.
  Client again(rs.server.port(), /*client_id=*/42);
  ASSERT_TRUE(again.connected());
  EXPECT_EQ(again.welcome_last_request(), 7u);
  const auto replay = again.propose(7, bytes_of("payment"));
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->duplicate);
  EXPECT_EQ(replay->index, first_index);
  const auto state = again.read_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->size, 1u);

  const auto fresh = again.propose(8, bytes_of("refund"));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->duplicate);
}

TEST(ServiceServer, SubscriberSeesEveryCommitInLogOrder) {
  RunningServer rs;
  Client subscriber(rs.server.port(), /*client_id=*/100);
  ASSERT_TRUE(subscriber.connected());
  ASSERT_TRUE(subscriber.subscribe(0));

  Client writer(rs.server.port(), /*client_id=*/1);
  ASSERT_TRUE(writer.connected());
  constexpr int kCommands = 20;
  for (int i = 1; i <= kCommands; ++i) {
    const auto a = writer.propose(static_cast<std::uint64_t>(i),
                                  bytes_of("cmd " + std::to_string(i)));
    ASSERT_TRUE(a.has_value());
  }

  for (int i = 0; i < kCommands; ++i) {
    const auto e = subscriber.next_commit();
    ASSERT_TRUE(e.has_value()) << "commit " << i;
    EXPECT_EQ(e->index, static_cast<std::uint64_t>(i)) << "commits out of order";
    EXPECT_EQ(e->client_id, 1u);
    EXPECT_EQ(e->request_id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(e->payload, bytes_of("cmd " + std::to_string(i + 1)));
  }
}

TEST(ServiceServer, LinearizabilitySmokeAcrossConcurrentClients) {
  RunningServer rs;
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;

  std::vector<std::vector<std::uint64_t>> indices(kClients);
  std::vector<std::thread> workers;
  workers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      Client client(rs.server.port(), static_cast<std::uint64_t>(c + 1));
      ASSERT_TRUE(client.connected());
      for (int i = 1; i <= kPerClient; ++i) {
        const auto a = client.propose(static_cast<std::uint64_t>(i),
                                      bytes_of(std::to_string(c) + ":" + std::to_string(i)));
        ASSERT_TRUE(a.has_value());
        ASSERT_FALSE(a->duplicate);
        indices[static_cast<std::size_t>(c)].push_back(a->index);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every command landed exactly once, and each client's commands appear in
  // its submission order — the per-session guarantee a total order plus one
  // outstanding request per client implies.
  std::vector<bool> seen(kClients * kPerClient, false);
  for (const auto& per_client : indices) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kPerClient));
    for (std::size_t i = 0; i + 1 < per_client.size(); ++i) {
      EXPECT_LT(per_client[i], per_client[i + 1]) << "session order not preserved";
    }
    for (const auto index : per_client) {
      ASSERT_LT(index, seen.size());
      EXPECT_FALSE(seen[index]) << "two commands share log index " << index;
      seen[index] = true;
    }
  }
  Client reader(rs.server.port(), /*client_id=*/999);
  ASSERT_TRUE(reader.connected());
  const auto state = reader.read_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->size, static_cast<std::uint64_t>(kClients * kPerClient));
}

// ---- frame delivery at adversarial granularity ------------------------------

std::vector<std::vector<std::byte>> sample_payloads() {
  // Sizes chosen to straddle the u32 length prefix and chunk boundaries;
  // includes an empty payload (legal at the framing layer).
  std::vector<std::vector<std::byte>> payloads;
  for (const std::size_t size : {0u, 1u, 2u, 3u, 4u, 5u, 13u, 64u, 1000u, 4096u}) {
    std::vector<std::byte> p(size);
    for (std::size_t j = 0; j < size; ++j) {
      p[j] = std::byte{static_cast<unsigned char>(size + 31 * j)};
    }
    payloads.push_back(std::move(p));
  }
  return payloads;
}

std::vector<std::byte> stream_of(const std::vector<std::vector<std::byte>>& payloads) {
  std::vector<std::byte> stream;
  for (const auto& p : payloads) net::append_frame(stream, p);
  return stream;
}

TEST(FrameParser, DirectFillReassemblesAtAdversarialSplits) {
  // The writable()/commit() path the nonblocking sessions use, with the
  // stream chopped at every prime-ish granularity: frames land split across
  // the length prefix, across payload boundaries, and many per chunk.
  const auto payloads = sample_payloads();
  const auto stream = stream_of(payloads);
  for (const std::size_t split : {1u, 2u, 3u, 4u, 5u, 7u, 13u, 64u, 1021u}) {
    net::FrameParser parser;
    std::vector<std::vector<std::byte>> got;
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t n = std::min(split, stream.size() - at);
      const std::span<std::byte> buf = parser.writable(n);
      ASSERT_GE(buf.size(), n);
      std::memcpy(buf.data(), stream.data() + at, n);
      parser.commit(n);
      at += n;
      std::span<const std::byte> view;
      while (parser.next_view(view)) got.emplace_back(view.begin(), view.end());
    }
    EXPECT_EQ(got, payloads) << "split " << split;
    EXPECT_EQ(parser.buffered(), 0u) << "split " << split;
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(FrameParser, OversizedLengthPrefixIsCorruptionNotAnAllocation) {
  net::FrameParser parser;
  const std::uint32_t len = net::kMaxFrameBytes + 1;
  std::byte prefix[4];
  std::memcpy(prefix, &len, sizeof prefix);
  // Byte by byte: corruption must latch once the prefix completes, without
  // waiting for (or allocating) the advertised body.
  std::span<const std::byte> view;
  for (const std::byte b : prefix) {
    EXPECT_FALSE(parser.corrupt());
    parser.writable(1)[0] = b;
    parser.commit(1);
    EXPECT_FALSE(parser.next_view(view));
  }
  EXPECT_TRUE(parser.corrupt());
}

// ---- client demux under adversarial delivery --------------------------------

void send_in_chunks(const net::Fd& fd, std::span<const std::byte> bytes,
                    std::size_t chunk) {
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    ASSERT_TRUE(net::send_all(fd, bytes.subspan(at, std::min(chunk, bytes.size() - at))));
  }
}

/// A scripted raw-TCP peer speaking the server's side of the wire protocol,
/// delivering every response byte by byte: the client must demux a pipelined
/// window's kAck stream from interleaved kCommit pushes however the bytes
/// arrive.
TEST(ClientDemux, SplitsAcksAndCommitsAcrossAPipelinedWindow) {
  constexpr std::uint64_t kClientId = 77;
  constexpr int kWindow = 8;
  std::uint16_t port = 0;
  net::Fd listener = net::listen_tcp(port);

  std::thread peer([&] {
    net::Fd conn = net::accept_one(listener);
    ASSERT_TRUE(conn.valid());
    std::vector<std::byte> scratch;
    // Blocking reads into a FrameParser, as the real client reads.
    net::FrameParser parser;
    const auto recv_frame = [&](std::vector<std::byte>& payload) {
      std::span<const std::byte> view;
      while (!parser.next_view(view)) {
        if (parser.corrupt()) return false;
        const std::span<std::byte> buf = parser.writable(4096);
        const ssize_t r = ::recv(conn.get(), buf.data(), buf.size(), 0);
        if (r <= 0) return false;
        parser.commit(static_cast<std::size_t>(r));
      }
      payload.assign(view.begin(), view.end());
      return true;
    };

    std::vector<std::byte> hello;
    ASSERT_TRUE(recv_frame(hello));
    ByteReader hr(hello);
    const auto hello_type = hr.get_u8();
    const auto hello_client = hr.get_u64();
    ASSERT_TRUE(hello_type && hello_client);
    ASSERT_EQ(*hello_type, static_cast<std::uint8_t>(MsgType::kHello));
    ASSERT_EQ(*hello_client, kClientId);
    {
      ByteWriter w(scratch);
      w.put_u8(static_cast<std::uint8_t>(MsgType::kWelcome));
      w.put_u64(kClientId);
      w.put_u64(0);
      std::vector<std::byte> framed;
      net::append_frame(framed, w.view());
      send_in_chunks(conn, framed, 1);  // even the handshake arrives in drips
    }

    std::vector<std::uint64_t> requests;
    for (int i = 0; i < kWindow; ++i) {
      std::vector<std::byte> frame;
      ASSERT_TRUE(recv_frame(frame));
      ByteReader r(frame);
      const auto type = r.get_u8();
      const auto request = r.get_u64();
      ASSERT_TRUE(type && request);
      ASSERT_EQ(*type, static_cast<std::uint8_t>(MsgType::kPropose));
      requests.push_back(*request);
    }

    // One burst holding the whole window's worth of kCommit pushes
    // interleaved before each kAck, then delivered a byte at a time.
    std::vector<std::byte> burst;
    for (int i = 0; i < kWindow; ++i) {
      const auto index = static_cast<std::uint64_t>(i);
      {
        ByteWriter c(scratch);
        c.put_u8(static_cast<std::uint8_t>(MsgType::kCommit));
        c.put_u64(index);
        c.put_u64(kClientId);
        c.put_u64(requests[static_cast<std::size_t>(i)]);
        const auto entry = bytes_of("entry " + std::to_string(i + 1));
        c.put_u32(static_cast<std::uint32_t>(entry.size()));
        c.put_bytes(entry);
        net::append_frame(burst, c.view());
      }
      {
        ByteWriter a(scratch);
        a.put_u8(static_cast<std::uint8_t>(MsgType::kAck));
        a.put_u64(requests[static_cast<std::size_t>(i)]);
        a.put_u64(index);
        a.put_u8(0);
        net::append_frame(burst, a.view());
      }
    }
    send_in_chunks(conn, burst, 1);
  });

  Client client(port, kClientId);
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.welcome_last_request(), 0u);
  for (int i = 1; i <= kWindow; ++i) {
    client.queue_propose(static_cast<std::uint64_t>(i),
                         bytes_of("req " + std::to_string(i)));
  }
  ASSERT_TRUE(client.flush());

  for (int i = 1; i <= kWindow; ++i) {
    const auto ack = client.recv_ack();
    ASSERT_TRUE(ack.has_value()) << "ack " << i;
    EXPECT_EQ(ack->request_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(ack->applied.index, static_cast<std::uint64_t>(i - 1));
    EXPECT_FALSE(ack->applied.duplicate);
  }
  // The commits interleaved into the ack stream were demuxed aside, in order.
  for (int i = 1; i <= kWindow; ++i) {
    const auto e = client.next_commit();
    ASSERT_TRUE(e.has_value()) << "commit " << i;
    EXPECT_EQ(e->index, static_cast<std::uint64_t>(i - 1));
    EXPECT_EQ(e->client_id, kClientId);
    EXPECT_EQ(e->request_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(e->payload, bytes_of("entry " + std::to_string(i)));
  }
  peer.join();
}

// ---- the single-slot group path -------------------------------------------

TEST(ReplicaGroup, SequentialCommitsRetireFifoAndBitIdentical) {
  // Every slot must be the engine twin's consensus execution (equal Report
  // fingerprints) and log indices must follow commit order. Slots 2..6 run
  // on the pooled SlotContext reset by the slot before: a reset context must
  // execute bit-identically to a fresh one.
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 5;
  const std::uint64_t engine_fp = scenarios::fingerprint(
      run_slot_on_engine(kDefaultGroupSize, kDefaultFaultBudget).report);

  ReplicaGroup group;
  std::vector<Applied> applied;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Command> batch;
    for (int j = 0; j < kPerBatch; ++j) {
      batch.push_back(Command{static_cast<std::uint64_t>(j + 1), static_cast<std::uint64_t>(b + 1),
                              bytes_of(std::to_string(b) + ":" + std::to_string(j))});
    }
    const CommitResult r = group.commit(std::move(batch));
    EXPECT_EQ(r.slot_fingerprint, engine_fp) << "slot " << b << " is not the engine twin";
    applied.insert(applied.end(), r.applied.begin(), r.applied.end());
  }
  EXPECT_EQ(group.slots(), static_cast<std::uint64_t>(kBatches));
  ASSERT_EQ(applied.size(), static_cast<std::size_t>(kBatches * kPerBatch));
  for (std::size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i].index, i) << "not FIFO";
    EXPECT_FALSE(applied[i].duplicate);
  }
}

TEST(ReplicaGroupDeathTest, SecondEnqueueBeforeTakeHeadAborts) {
  // One slot at a time: starting another before the running one is taken
  // is a caller bug, not a queue.
  EXPECT_DEATH(
      {
        ReplicaGroup group;
        group.enqueue({Command{1, 1, bytes_of("first")}});
        group.enqueue({Command{1, 2, bytes_of("second")}});
      },
      "enqueue\\(\\) while a slot is running");
}

// ---- the server under a pipelined window -------------------------------------

TEST(ServiceServer, PipelinedWindowAcksInOrder) {
  RunningServer rs;

  Client client(rs.server.port(), /*client_id=*/1);
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 200;
  constexpr int kWindow = 16;
  int sent = 0;
  int acked = 0;
  while (acked < kRequests) {
    while (sent < kRequests && sent - acked < kWindow) {
      ++sent;
      client.queue_propose(static_cast<std::uint64_t>(sent),
                           bytes_of("w " + std::to_string(sent)));
    }
    ASSERT_TRUE(client.flush());
    const auto ack = client.recv_ack();
    ASSERT_TRUE(ack.has_value()) << "after " << acked << " acks";
    ++acked;
    EXPECT_EQ(ack->request_id, static_cast<std::uint64_t>(acked));
    EXPECT_EQ(ack->applied.index, static_cast<std::uint64_t>(acked - 1));
    EXPECT_FALSE(ack->applied.duplicate);
  }
  const auto state = client.read_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->size, static_cast<std::uint64_t>(kRequests));
}

TEST(ServiceServer, EachSlotCostsAboutOneReactorPoll) {
  // The serving loop runs the head slot's consensus rounds to completion
  // before it polls again, so reactor waits per committed slot stay near 1
  // under a windowed load. A loop that polled once per consensus round
  // (18 rounds at n=7, t=1) would wait several times per slot.
  RunningServer rs;
  constexpr int kClients = 2;
  constexpr int kRequests = 300;
  constexpr int kWindow = 32;
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&rs, c] {
      Client client(rs.server.port(), static_cast<std::uint64_t>(c + 1));
      ASSERT_TRUE(client.connected());
      int sent = 0;
      int acked = 0;
      while (acked < kRequests) {
        while (sent < kRequests && sent - acked < kWindow) {
          ++sent;
          client.queue_propose(static_cast<std::uint64_t>(sent),
                               bytes_of("p " + std::to_string(sent)));
        }
        ASSERT_TRUE(client.flush());
        ASSERT_TRUE(client.recv_ack().has_value());
        ++acked;
      }
    });
  }
  for (auto& w : workers) w.join();

  Client monitor(rs.server.port(), /*client_id=*/77);
  ASSERT_TRUE(monitor.connected());
  const auto snapshot = monitor.server_stats();
  ASSERT_TRUE(snapshot.has_value());
  const auto* waits = snapshot->find_histogram("lft_service_reactor_batch");
  const auto* batches = snapshot->find_counter("lft_service_commit_batches_total");
  ASSERT_NE(waits, nullptr);
  ASSERT_NE(batches, nullptr);
  ASSERT_GT(batches->value, 0u);
  const double waits_per_slot =
      static_cast<double>(waits->data.count()) / static_cast<double>(batches->value);
  EXPECT_LT(waits_per_slot, 4.0) << waits->data.count() << " reactor waits for "
                                 << batches->value << " commit slots";
}

TEST(ServiceServer, LogDigestMatchesDirectReplay) {
  // A windowed single-session workload must leave the log a direct
  // StateMachine replay of the same commands leaves: equal size and digest.
  constexpr int kRequests = 60;
  constexpr int kWindow = 8;
  StateMachine expect;
  for (int i = 1; i <= kRequests; ++i) {
    (void)expect.apply(Command{1, static_cast<std::uint64_t>(i),
                               bytes_of("op " + std::to_string(i))});
  }

  RunningServer rs;
  Client client(rs.server.port(), /*client_id=*/1);
  ASSERT_TRUE(client.connected());
  int sent = 0;
  int acked = 0;
  while (acked < kRequests) {
    while (sent < kRequests && sent - acked < kWindow) {
      ++sent;
      client.queue_propose(static_cast<std::uint64_t>(sent),
                           bytes_of("op " + std::to_string(sent)));
    }
    ASSERT_TRUE(client.flush());
    ASSERT_TRUE(client.recv_ack().has_value());
    ++acked;
  }
  const auto state = client.read_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->size, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(state->digest, expect.digest());
}

TEST(ServiceServer, StatsDumpHoldsTheFinalSnapshot) {
  // --stats-dump: the server writes its snapshot at shutdown (PATH.tmp
  // renamed over PATH), and the file then holds the serving counters.
  const std::string path = ::testing::TempDir() + "lft_serve_stats.json";
  std::remove(path.c_str());
  {
    ServerOptions options;
    options.stats_dump_path = path;
    RunningServer rs(options);
    Client client(rs.server.port(), /*client_id=*/1);
    ASSERT_TRUE(client.connected());
    for (std::uint64_t r = 1; r <= 3; ++r) {
      ASSERT_TRUE(client.propose(r, bytes_of("dumped")).has_value());
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no stats dump at " << path;
  std::stringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("\"lft_service_commit_batches_total\""), std::string::npos)
      << dump.str();
  EXPECT_NE(dump.str().find(
                "{\"metric\": \"lft_service_proposals_total\", \"kind\": \"counter\", "
                "\"value\": 3}"),
            std::string::npos)
      << dump.str();
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temporary dump file left behind";
  std::remove(path.c_str());
}

TEST(ServiceServer, LiveServerTraceReplaysUnderTheEngine) {
  const std::string path = ::testing::TempDir() + "lft_serve_live.trace";
  {
    ServerOptions options;
    options.trace_path = path;
    RunningServer rs(options);
    Client client(rs.server.port(), /*client_id=*/1);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.propose(1, bytes_of("traced")).has_value());
  }
  const auto trace = forensics::load_trace(path);
  ASSERT_TRUE(trace.has_value());
  const auto replayed = forensics::replay(*trace, /*threads=*/1);
  EXPECT_FALSE(replayed.divergence.diverged)
      << "live server trace diverged: " << replayed.divergence.detail;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lft::service
