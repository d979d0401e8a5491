// serve_closed: an in-process lft_serve server (epoll backend pinned,
// pipeline 4, n = 7, t = 1) driven by two closed-loop clients with 256
// proposals outstanding each. The run is a sequence of sessions; each
// session starts a fresh server, loads it with a fixed number of requests,
// audits the commit log for lost, duplicated or reordered commands, and
// shuts the server down, so memory stays bounded and setup is sampled once
// per session. The only workload for service, net and the live slot round loop.
//
// The whole workload (server, both clients) is confined to one vCPU. Each
// request hops server -> client -> server through loopback sockets; spread
// over several vCPUs of a shared virtual machine every hop is a cross-vCPU
// wakeup, and the hypervisor's scheduling delays on those wakeups swung
// throughput between 140k and 300k req/s and p99 between 3 and 20 ms from
// session to session. On one vCPU the hops are plain context switches, so the run
// measures the service's own per-request path and holds steady.
//
// Latency is client-observed, send -> ack, from raw samples. The traced
// run also fetches the server's telemetry snapshot (exact sums and counts
// only) and replays batches of the measured size through a bare
// ReplicaGroup to time one commit slot.
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "service/client.hpp"
#include "service/replica.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace service = lft::service;

namespace {

constexpr int kClients = 2;
constexpr std::uint64_t kWindow = 256;
constexpr std::uint64_t kRequestsPerClient = 100000;
constexpr int kPipeline = 4;

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// 16-byte command body: a seed-determined tag plus the request id.
std::vector<std::byte> payload_for(std::uint64_t seed, std::uint64_t client_id,
                                   std::uint64_t request_id) {
  const std::uint64_t words[2] = {derive_seed(seed, client_id * 0x100000000ULL + request_id),
                                  request_id};
  std::vector<std::byte> bytes(sizeof(words));
  std::memcpy(bytes.data(), words, sizeof(words));
  return bytes;
}

struct ClientRun {
  std::string error;
  std::uint64_t acked = 0;  ///< acks that passed every per-session check
  std::vector<double> latency_ms;
  double flush_ms = 0;      ///< traced: time inside Client::flush
  double recv_wait_ms = 0;  ///< traced: time blocked inside Client::recv_ack
};

/// Keeps kWindow proposals in flight until `requests` are acked, checking
/// acks arrive in request order, never as duplicates, with increasing log
/// indices. Each refill is corked into one write.
void closed_loop(service::Client& client, std::uint64_t seed, std::uint64_t requests,
                 bool traced, ClientRun& out) {
  std::vector<Clock::time_point> sent(requests + 1);
  out.latency_ms.reserve(requests);
  std::uint64_t next_request = 1;
  std::uint64_t last_index = 0;
  while (out.acked < requests) {
    bool queued = false;
    while (next_request - 1 - out.acked < kWindow && next_request <= requests) {
      client.queue_propose(next_request, payload_for(seed, client.client_id(), next_request));
      sent[next_request] = Clock::now();
      ++next_request;
      queued = true;
    }
    if (queued) {
      const auto f0 = Clock::now();
      const bool flushed = client.flush();
      if (traced) out.flush_ms += ms_between(f0, Clock::now());
      if (!flushed) {
        out.error = "flush failed";
        return;
      }
    }
    const auto r0 = Clock::now();
    const auto ack = client.recv_ack();
    const auto r1 = Clock::now();
    if (traced) out.recv_wait_ms += ms_between(r0, r1);
    if (!ack) {
      out.error = "recv_ack failed";
      return;
    }
    const std::uint64_t expect = out.acked + 1;
    if (ack->request_id != expect) {
      out.error = "acks out of request order";
      return;
    }
    if (ack->applied.duplicate) {
      out.error = "fresh request acked as duplicate";
      return;
    }
    if (out.acked > 0 && ack->applied.index <= last_index) {
      out.error = "log indices not increasing within the session";
      return;
    }
    last_index = ack->applied.index;
    out.latency_ms.push_back(ms_between(sent[expect], r1));
    ++out.acked;
  }
}

struct Session {
  double setup_s = 0;
  double load_ms = 0;
  double wall_ms = 0;
  ClientRun clients[kClients];
  // Send -> ack summary over both clients' raw samples, which are dropped
  // once summarised so memory does not grow with the number of sessions.
  double acked = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double latency_sum_ms = 0;
  std::uint64_t audited = 0;  ///< log entries that passed the audit
  std::string audit_error;
  std::string backend;
  lft::obs::Snapshot stats;   ///< traced: server telemetry after the load
  double server_elapsed_ms = 0;  ///< traced: server loop wall up to the stats reply
};

/// Replays the whole log through a subscriber: exactly `total` contiguous
/// entries, each client's requests once each, in order, with their payload.
std::uint64_t audit_log(std::uint16_t port, std::uint64_t seed, std::uint64_t total,
                        std::string& error) {
  service::Client auditor(port, /*client_id=*/0xa0d17);
  if (!auditor.connected()) {
    error = "auditor could not connect";
    return 0;
  }
  const auto state = auditor.read_state();
  if (!state || state->size != total) {
    error = "log size differs from the requests proposed";
    return 0;
  }
  if (!auditor.subscribe(0)) {
    error = "subscribe failed";
    return 0;
  }
  std::uint64_t seen[kClients + 1] = {};
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto e = auditor.next_commit();
    if (!e || e->index != i) {
      error = "commit missing or out of order";
      return i;
    }
    if (e->client_id == 0 || e->client_id > kClients ||
        e->request_id != seen[e->client_id] + 1 ||
        e->payload != payload_for(seed, e->client_id, e->request_id)) {
      error = "duplicate, gap, or corrupt payload in the log";
      return i;
    }
    seen[e->client_id] = e->request_id;
  }
  return total;
}

Session run_session(std::uint64_t seed, bool traced, std::uint64_t expected_total) {
  Session s;
  const auto begin = Clock::now();
  service::ServerOptions server_options;
  server_options.backend = lft::net::ReactorBackend::kEpoll;
  server_options.pipeline = kPipeline;
  server_options.n = 7;
  server_options.t = 1;
  service::Server server(server_options);
  std::atomic<std::uint64_t> run_start_ns{0};
  std::thread server_thread([&] {
    run_start_ns.store(lft::obs::now_ns());
    server.run();
  });
  std::vector<std::unique_ptr<service::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<service::Client>(server.port(), static_cast<std::uint64_t>(c + 1)));
  }
  s.setup_s = ms_between(begin, Clock::now()) / 1e3;
  s.backend = server.backend();

  bool connected = true;
  for (const auto& c : clients) connected = connected && c->connected();
  if (connected) {
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back(closed_loop, std::ref(*clients[static_cast<std::size_t>(c)]), seed,
                           kRequestsPerClient, traced, std::ref(s.clients[c]));
    }
    for (auto& w : workers) w.join();
    s.load_ms = ms_between(t0, Clock::now());
    std::vector<double> samples;
    for (auto& c : s.clients) {
      s.acked += static_cast<double>(c.acked);
      samples.insert(samples.end(), c.latency_ms.begin(), c.latency_ms.end());
      std::vector<double>().swap(c.latency_ms);
    }
    for (double v : samples) s.latency_sum_ms += v;
    s.p50_ms = nearest_rank(samples, 50);
    s.p99_ms = nearest_rank(samples, 99);
  } else {
    for (auto& c : s.clients) c.error = "connect/handshake failed";
  }
  clients.clear();

  if (traced) {
    service::Client stats_client(server.port(), /*client_id=*/0x0b5);
    if (stats_client.connected()) {
      if (auto snapshot = stats_client.server_stats()) s.stats = std::move(*snapshot);
    }
    s.server_elapsed_ms =
        static_cast<double>(lft::obs::now_ns() - run_start_ns.load()) / 1e6;
  }
  s.audited = audit_log(server.port(), seed, expected_total, s.audit_error);

  {
    service::Client stopper(server.port(), /*client_id=*/0x57c9);
    if (!stopper.connected() || !stopper.shutdown_server()) {
      s.audit_error = "server refused shutdown";
    }
  }
  server_thread.join();
  s.wall_ms = ms_between(begin, Clock::now());
  return s;
}

/// Times one commit slot from outside: batches of `cmds` commands through a
/// bare ReplicaGroup (pipeline 1), enqueue -> step until ready -> take_head.
void replay_slots(std::uint64_t seed, std::size_t cmds, Result& result) {
  constexpr int kSlots = 300;
  service::ReplicaGroupOptions group_options;
  group_options.n = 7;
  group_options.t = 1;
  group_options.pipeline = 1;
  service::ReplicaGroup group(group_options);
  std::vector<double> total_us, step_us, retire_us, rounds, msgs;
  bool ok = true;
  for (int s = 0; s < kSlots; ++s) {
    std::vector<service::Command> batch(cmds);
    for (std::size_t j = 0; j < cmds; ++j) {
      batch[j].client_id = j + 1;
      batch[j].request_id = static_cast<std::uint64_t>(s) + 1;
      batch[j].payload = payload_for(seed, j + 1, batch[j].request_id);
    }
    const auto t0 = Clock::now();
    group.enqueue(std::move(batch));
    const auto t1 = Clock::now();
    while (!group.head_ready()) group.step();
    const auto t2 = Clock::now();
    const service::CommitResult r = group.take_head();
    const auto t3 = Clock::now();
    ok = ok && r.applied.size() == cmds;
    for (const auto& a : r.applied) ok = ok && !a.duplicate;
    total_us.push_back(ms_between(t0, t3) * 1e3);
    step_us.push_back(ms_between(t1, t2) * 1e3);
    retire_us.push_back(ms_between(t2, t3) * 1e3);
    rounds.push_back(static_cast<double>(r.slot_rounds));
    msgs.push_back(static_cast<double>(r.slot_messages));
  }
  result.tally(kSlots, ok ? 0 : kSlots, "serve_closed: slot replay lost or duplicated a command");
  result.require(group.machine().size() == static_cast<std::uint64_t>(kSlots) * cmds,
                 "serve_closed: slot replay log size is wrong");
  result.metric("slot.us", median(total_us), "us");
  result.metric("slot.step_us", median(step_us), "us");
  result.metric("slot.retire_us", median(retire_us), "us");
  result.metric("slot.rounds", median(rounds), "count");
  result.metric("slot.msgs", median(msgs), "count");
}

}  // namespace

void run_serve_closed(const Options& options, Result& result) {
  const int cpu = pin_to_one_cpu();
  result.require(cpu >= 0, "serve_closed: could not confine the workload to one CPU");
  const std::uint64_t total = kRequestsPerClient * kClients;
  // --break-check: the audit expects one entry more than was proposed.
  const std::uint64_t expected_total = total + (options.break_check ? 1 : 0);
  auto run_checked = [&](bool traced_session) {
    Session s = run_session(options.seed, traced_session, expected_total);
    std::uint64_t acked = 0;
    for (const auto& c : s.clients) {
      acked += c.acked;
      if (!c.error.empty()) result.require(false, "serve_closed client: " + c.error);
    }
    const std::uint64_t good = std::min(acked, s.audited);
    result.tally(static_cast<std::int64_t>(total), static_cast<std::int64_t>(total - good),
                 "serve_closed audit: " + s.audit_error);
    result.require(s.backend == "epoll", "serve_closed: server is not on the epoll backend");
    return s;
  };
  // One untimed warm session, like the simulation workloads' warm
  // execution: the fresh process's first server grows its heap from nothing
  // and runs markedly slower than every later one.
  (void)run_checked(false);

  std::vector<Session> plain, traced;
  const auto phase_start = Clock::now();
  for (int k = 0;; ++k) {
    const double elapsed_s = ms_between(phase_start, Clock::now()) / 1e3;
    if (plain.size() + traced.size() >= 2 && elapsed_s >= options.seconds &&
        (!options.trace || !traced.empty())) {
      break;
    }
    const bool trace_this = options.trace && k % 2 == 1;
    (trace_this ? traced : plain).push_back(run_checked(trace_this));
  }

  std::vector<double> load_ms;
  for (const auto& s : plain) load_ms.push_back(s.load_ms);

  if (!options.trace) {
    // Rates and percentiles are taken per session (nearest-rank over its
    // 200k raw samples) and reported as the median session, so a session
    // stalled by the host does not set the run's figure.
    std::vector<double> setup_s, wall_ms, rate, p50_ms, p99_ms;
    std::printf("perfbench serve_closed: %zu sessions of %llu requests, backend epoll, "
                "pinned to cpu %d; per session req/s, p50 ms, p99 ms:",
                plain.size(), static_cast<unsigned long long>(total), cpu);
    for (const auto& s : plain) {
      setup_s.push_back(s.setup_s);
      wall_ms.push_back(s.wall_ms);
      rate.push_back(s.acked / (s.load_ms / 1e3));
      p50_ms.push_back(s.p50_ms);
      p99_ms.push_back(s.p99_ms);
      std::printf(" %.0f/%.3f/%.3f", rate.back(), s.p50_ms, s.p99_ms);
    }
    std::printf("\n");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("wall_s", median(wall_ms) / 1e3, "s");
    // One "execution" is a session's load phase: 2 x 100k requests.
    result.metric("exec_p50_ms", nearest_rank(load_ms, 50), "ms");
    result.metric("exec_p90_ms", nearest_rank(load_ms, 90), "ms");
    // Wire messages: one propose frame and one ack frame per request.
    result.metric("msgs_per_s", 2.0 * median(rate), "1/s");
    result.metric("req_per_s", median(rate), "1/s");
    result.metric("p50_ms", median(p50_ms), "ms");
    result.metric("p99_ms", median(p99_ms), "ms");
    return;
  }

  // Per-layer, per session (means over the traced sessions) from the
  // server's exact sums and counts.
  const double sessions = static_cast<double>(traced.size());
  lft::obs::Snapshot pooled;
  double client_latency_ms = 0, client_samples = 0, flush_ms = 0, recv_ms = 0;
  double worst_residual = 0;
  std::vector<double> traced_load;
  for (const auto& s : traced) {
    pooled.merge_from(s.stats);
    client_latency_ms += s.latency_sum_ms;
    client_samples += s.acked;
    for (const auto& c : s.clients) {
      flush_ms += c.flush_ms;
      recv_ms += c.recv_wait_ms;
    }
    double phases_ns = histogram_sum(s.stats, "lft_service_reactor_wait_ns");
    for (const char* name : {"lft_service_pump_enqueue_ns", "lft_service_pump_step_ns",
                             "lft_service_pump_retire_ns", "lft_service_pump_flush_ns"}) {
      phases_ns += histogram_sum(s.stats, name);
    }
    worst_residual = std::max(
        worst_residual, std::abs(s.server_elapsed_ms - phases_ns / 1e6) / s.server_elapsed_ms);
    traced_load.push_back(s.load_ms);
  }
  const double requests = histogram_count(pooled, "lft_service_request_ns");
  result.require(requests > 0, "serve_closed: server stats fetch failed");
  const double server_mean_us =
      requests > 0 ? histogram_sum(pooled, "lft_service_request_ns") / requests / 1e3 : 0.0;
  const double client_mean_us =
      client_samples > 0 ? client_latency_ms / client_samples * 1e3 : 0.0;
  result.metric("service.server_mean_us", server_mean_us, "us");
  result.metric("service.wire_gap_us", client_mean_us - server_mean_us, "us");
  result.metric("service.pump_enqueue_ms",
                histogram_sum(pooled, "lft_service_pump_enqueue_ns") / 1e6 / sessions, "ms");
  result.metric("service.pump_step_ms",
                histogram_sum(pooled, "lft_service_pump_step_ns") / 1e6 / sessions, "ms");
  result.metric("service.pump_retire_ms",
                histogram_sum(pooled, "lft_service_pump_retire_ns") / 1e6 / sessions, "ms");
  result.metric("service.pump_flush_ms",
                histogram_sum(pooled, "lft_service_pump_flush_ns") / 1e6 / sessions, "ms");
  result.metric("net.reactor_wait_ms",
                histogram_sum(pooled, "lft_service_reactor_wait_ns") / 1e6 / sessions, "ms");
  const double waits = histogram_count(pooled, "lft_service_reactor_batch");
  result.metric("net.reactor_batch_mean",
                waits > 0 ? histogram_sum(pooled, "lft_service_reactor_batch") / waits : 0.0,
                "count");
  const double batches = counter_value(pooled, "lft_service_commit_batches_total");
  const double cmds_per_slot =
      batches > 0 ? counter_value(pooled, "lft_service_commit_entries_total") / batches : 0.0;
  result.metric("service.cmds_per_slot", cmds_per_slot, "count");
  const double pumps = histogram_count(pooled, "lft_service_pipeline_depth");
  result.metric("service.depth_mean",
                pumps > 0 ? histogram_sum(pooled, "lft_service_pipeline_depth") / pumps : 0.0,
                "count");
  result.metric("service.pauses",
                counter_value(pooled, "lft_service_session_pauses_total") / sessions, "count");
  result.metric("service.duplicates",
                counter_value(pooled, "lft_service_duplicates_total") / sessions, "count");
  result.metric("client.flush_ms", flush_ms / sessions, "ms");
  result.metric("client.recv_wait_ms", recv_ms / sessions, "ms");

  // Reconciliation: the pump phases plus reactor wait add back to the
  // server loop's wall time.
  constexpr double kServeTolerance = 0.05;
  result.metric("recon.serve_residual_frac", worst_residual, "fraction");
  result.require(worst_residual <= kServeTolerance,
                 "serve_closed: pump phases + reactor wait miss the server wall by more than 5%");
  result.metric("trace.overhead_frac", median(traced_load) / median(load_ms) - 1.0, "fraction");

  replay_slots(options.seed, static_cast<std::size_t>(std::max(1.0, std::round(cmds_per_slot))),
               result);
}

}  // namespace perfbench
