// lft_bench_client: load generator + correctness auditor for lft_serve.
// Closed loop (default): C client threads each keep a window of W pipelined
// proposals outstanding until the request budget drains — the window is
// corked into one write per refill. Open loop (--open-loop=RATE): proposals
// are sent on a fixed aggregate schedule of RATE requests/second regardless
// of ack progress, and latency is measured from each request's *scheduled*
// send time, so queueing delay is not hidden (no coordinated omission).
// Afterwards a subscriber replays the whole log and the tool fails (nonzero
// exit) on any lost, duplicated, or reordered command — the "serve real
// traffic, lose nothing" gate CI runs as service-smoke.
//
//   lft_bench_client [--port=N] [--requests=N] [--clients=C] [--window=W]
//                    [--open-loop=RATE] [--trace=PATH]
//                    [--json=PATH] [--server-stats] [--stats-json=PATH]
//
// Without --port (or with --port=0) an in-process server is spawned and
// shut down at the end; --trace configures that spawned server, so giving
// it with --port=N exits 2 rather than being ignored. A port above 65535,
// like any malformed number or unknown flag, exits 2, and so does
// --requests below --clients. The first --requests % --clients clients run
// one request more than the rest, so exactly --requests run.
// --json writes the run's metrics (req/s, p50/p95/p99 ack latency) in the
// BENCH_*.json artifact schema. --server-stats fetches the server's
// telemetry snapshot over the wire (kStatsRequest) after the audit and
// prints its request-latency histogram — the server-side view of the same
// traffic, measured frame-arrival to ack-enqueue; --stats-json
// writes that full snapshot as JSON (the BENCH_service_stats.json artifact
// CI archives), and the --json row gains server_* latency fields.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "obs/obs.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using lft::service::Client;

std::vector<std::byte> payload_for(std::uint64_t client_id, std::uint64_t request_id) {
  // Appends, not an operator+ chain: gcc 12 at -O3 flags the chain with a
  // spurious -Wrestrict (GCC PR105329).
  std::string s = "c";
  s += std::to_string(client_id);
  s += ":r";
  s += std::to_string(request_id);
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(p, p + s.size());
}

struct WorkerResult {
  bool ok = true;
  std::string error;
  std::uint64_t acked = 0;
  std::vector<double> latencies_ms;
};

/// One closed-loop client: keep `window` proposals in flight until
/// `requests` have been acknowledged, checking the per-session guarantees
/// on the way (acks in request order, log indices strictly increasing, no
/// duplicates for fresh request ids). Each window refill is corked into a
/// single write (Client::queue_propose + flush).
void run_worker(std::uint16_t port, std::uint64_t client_id, std::uint64_t requests,
                std::uint64_t window, WorkerResult& out) {
  auto fail = [&out](std::string why) {
    out.ok = false;
    out.error = std::move(why);
  };
  Client client(port, client_id);
  if (!client.connected()) return fail("connect/handshake failed");

  out.latencies_ms.reserve(static_cast<std::size_t>(requests));
  std::unordered_map<std::uint64_t, Clock::time_point> inflight;
  std::uint64_t next_request = 1;
  std::uint64_t expect_ack = 1;
  std::uint64_t last_index = 0;
  bool have_index = false;

  while (out.acked < requests) {
    bool queued = false;
    while (inflight.size() < window && next_request <= requests) {
      client.queue_propose(next_request, payload_for(client_id, next_request));
      inflight.emplace(next_request, Clock::now());
      ++next_request;
      queued = true;
    }
    if (queued && !client.flush()) return fail("flush failed");
    const auto ack = client.recv_ack();
    if (!ack) return fail("recv_ack failed");
    if (ack->request_id != expect_ack) return fail("acks out of request order");
    ++expect_ack;
    const auto it = inflight.find(ack->request_id);
    if (it == inflight.end()) return fail("ack for unknown request");
    out.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - it->second).count());
    inflight.erase(it);
    if (ack->applied.duplicate) return fail("fresh request acked as duplicate");
    if (have_index && ack->applied.index <= last_index) {
      return fail("log indices not increasing within the session");
    }
    last_index = ack->applied.index;
    have_index = true;
    ++out.acked;
  }
}

/// One open-loop client: send proposal r at start + (r-1)/rate no matter how
/// far acks lag; a receiver thread collects acks concurrently. The Client's
/// send and recv paths touch disjoint state, so one sender plus one receiver
/// thread per connection is safe. Latency is measured against the scheduled
/// send time.
void run_open_worker(std::uint16_t port, std::uint64_t client_id, std::uint64_t requests,
                     double rate_per_client, WorkerResult& out) {
  auto fail = [&out](std::string why) {
    out.ok = false;
    out.error = std::move(why);
  };
  Client client(port, client_id);
  if (!client.connected()) return fail("connect/handshake failed");

  out.latencies_ms.reserve(static_cast<std::size_t>(requests));
  const auto start = Clock::now();
  const std::chrono::duration<double> interval(1.0 / rate_per_client);
  auto scheduled_at = [&](std::uint64_t request_id) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       interval * static_cast<double>(request_id - 1));
  };

  std::thread receiver([&] {
    std::uint64_t expect_ack = 1;
    std::uint64_t last_index = 0;
    bool have_index = false;
    while (out.acked < requests) {
      const auto ack = client.recv_ack();
      if (!ack) return fail("recv_ack failed");
      if (ack->request_id != expect_ack) return fail("acks out of request order");
      ++expect_ack;
      out.latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                     Clock::now() - scheduled_at(ack->request_id))
                                     .count());
      if (ack->applied.duplicate) return fail("fresh request acked as duplicate");
      if (have_index && ack->applied.index <= last_index) {
        return fail("log indices not increasing within the session");
      }
      last_index = ack->applied.index;
      have_index = true;
      ++out.acked;
    }
  });

  bool send_failed = false;
  for (std::uint64_t r = 1; r <= requests; ++r) {
    std::this_thread::sleep_until(scheduled_at(r));
    if (!client.send_propose(r, payload_for(client_id, r))) {
      send_failed = true;  // the broken socket unblocks the receiver too
      break;
    }
  }
  receiver.join();
  if (send_failed && out.ok) fail("send_propose failed");
}

/// Nearest-rank percentile of a sorted sample (p in [0, 100]).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size())) - 1.0;
  const auto index = static_cast<std::size_t>(std::max(0.0, rank));
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Prints the server's request-latency histogram from a fetched telemetry
/// snapshot: every populated bucket plus the percentile summary, ns -> ms.
void print_server_histogram(const lft::obs::Snapshot& snapshot) {
  const auto* row = snapshot.find_histogram("lft_service_request_ns");
  if (row == nullptr || row->data.count() == 0) {
    std::printf("server stats: no lft_service_request_ns samples\n");
    return;
  }
  const auto& h = row->data;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::printf("server request latency (frame arrival -> ack enqueue, %llu samples):\n",
              static_cast<unsigned long long>(h.count()));
  for (int b = 0; b < lft::obs::Histogram::kBuckets; ++b) {
    const std::uint64_t n = h.bucket_count(b);
    if (n == 0) continue;
    std::printf("  [%10.4f ms, %10.4f ms)  %llu\n", ms(lft::obs::Histogram::bucket_lower(b)),
                b == lft::obs::Histogram::kBuckets - 1
                    ? ms(h.max())
                    : ms(lft::obs::Histogram::bucket_upper(b)),
                static_cast<unsigned long long>(n));
  }
  std::printf("  server p50=%.4f ms p90=%.4f ms p99=%.4f ms max=%.4f ms mean=%.4f ms\n",
              ms(h.percentile(50.0)), ms(h.percentile(90.0)), ms(h.percentile(99.0)),
              ms(h.max()), h.mean() / 1e6);
}

void print_usage() {
  std::printf(
      "usage: lft_bench_client [--port=N] [--requests=N] [--clients=C] [--window=W]\n"
      "                        [--open-loop=RATE] [--trace=PATH]\n"
      "                        [--json=PATH] [--server-stats] [--stats-json=PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::int64_t requests = 100000;
  int clients = 4;
  std::int64_t window = 4;
  std::int64_t open_rate = 0;
  std::string trace_path;
  std::string json_path;
  bool server_stats = false;
  std::string stats_json_path;
  const bool parsed = lft::cli::ArgParser(argc, argv)
                          .on_port("--port", port)
                          .on_i64("--requests", requests, 1)
                          .on_int("--clients", clients, 1)
                          .on_i64("--window", window, 1)
                          .on_i64("--open-loop", open_rate, 0)
                          .on_str("--trace", trace_path)
                          .on_str("--json", json_path)
                          .on_flag("--server-stats", server_stats)
                          .on_str("--stats-json", stats_json_path)
                          .parse();
  if (!parsed) {
    print_usage();
    return 2;
  }
  if (requests < clients) {
    // Every client runs at least one request; fewer would leave idle
    // clients whose empty audit proves nothing.
    std::fprintf(stderr, "bad argument: --requests=%lld is below --clients=%d\n",
                 static_cast<long long>(requests), clients);
    print_usage();
    return 2;
  }
  if (port != 0 && !trace_path.empty()) {
    // It configures the in-process server; an external one would ignore it.
    std::fprintf(stderr, "bad argument: --trace needs the in-process server, not --port=%u\n",
                 port);
    print_usage();
    return 2;
  }
  const bool open_loop = open_rate > 0;

  // Spawn an in-process server unless pointed at a live one.
  std::optional<lft::service::Server> server;
  std::thread server_thread;
  std::uint16_t target_port = port;
  if (port == 0) {
    lft::service::ServerOptions options;
    options.trace_path = trace_path;
    server.emplace(options);
    target_port = server->port();
    server_thread = std::thread([&server] { server->run(); });
  }

  // The first requests % clients clients run one extra request, so the
  // clients together run exactly --requests.
  const std::uint64_t total = static_cast<std::uint64_t>(requests);
  const auto client_count = static_cast<std::uint64_t>(clients);
  auto requests_of = [&](int c) {
    const auto index = static_cast<std::uint64_t>(c);
    return total / client_count + (index < total % client_count ? 1 : 0);
  };
  if (open_loop) {
    std::printf(
        "lft_bench_client: %llu requests over %d clients (open loop, %lld req/s) "
        "-> port %u\n",
        static_cast<unsigned long long>(total), clients,
        static_cast<long long>(open_rate), target_port);
  } else {
    std::printf(
        "lft_bench_client: %llu requests over %d clients (window %lld) -> port %u\n",
        static_cast<unsigned long long>(total), clients, static_cast<long long>(window),
        target_port);
  }
  std::fflush(stdout);

  const auto start = Clock::now();
  std::vector<WorkerResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  const double rate_per_client =
      static_cast<double>(open_rate) / static_cast<double>(clients);
  for (int c = 0; c < clients; ++c) {
    WorkerResult& result = results[static_cast<std::size_t>(c)];
    if (open_loop) {
      workers.emplace_back(run_open_worker, target_port,
                           static_cast<std::uint64_t>(c + 1), requests_of(c),
                           rate_per_client, std::ref(result));
    } else {
      workers.emplace_back(run_worker, target_port, static_cast<std::uint64_t>(c + 1),
                           requests_of(c), static_cast<std::uint64_t>(window),
                           std::ref(result));
    }
  }
  for (auto& w : workers) w.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  bool ok = true;
  std::vector<double> latencies;
  latencies.reserve(total);
  for (int c = 0; c < clients; ++c) {
    const auto& r = results[static_cast<std::size_t>(c)];
    if (!r.ok || r.acked != requests_of(c)) {
      ok = false;
      std::fprintf(stderr, "client %d FAILED after %llu acks: %s\n", c + 1,
                   static_cast<unsigned long long>(r.acked), r.error.c_str());
    }
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());

  // Audit the total order: replay the whole log through a subscriber and
  // demand exactly `total` contiguous entries, each command exactly once
  // with the payload it was proposed with.
  std::uint64_t slots = 0;
  if (ok) {
    Client auditor(target_port, /*client_id=*/0xa0d17);
    ok = ok && auditor.connected();
    if (ok) {
      const auto state = auditor.read_state();
      ok = ok && state.has_value() && state->size == total;
      if (!ok) {
        std::fprintf(stderr, "log audit FAILED: size %llu != proposed %llu\n",
                     state ? static_cast<unsigned long long>(state->size) : 0ULL,
                     static_cast<unsigned long long>(total));
      } else {
        slots = state->slots;
      }
    }
    if (ok && !auditor.subscribe(0)) ok = false;
    std::vector<std::uint64_t> seen_request(static_cast<std::size_t>(clients) + 1, 0);
    for (std::uint64_t i = 0; ok && i < total; ++i) {
      const auto e = auditor.next_commit();
      if (!e || e->index != i) {
        ok = false;
        std::fprintf(stderr, "log audit FAILED: commit %llu missing or out of order\n",
                     static_cast<unsigned long long>(i));
        break;
      }
      if (e->client_id == 0 || e->client_id > static_cast<std::uint64_t>(clients) ||
          e->request_id != seen_request[e->client_id] + 1 ||
          e->payload != payload_for(e->client_id, e->request_id)) {
        ok = false;
        std::fprintf(stderr,
                     "log audit FAILED at index %llu: client %llu request %llu "
                     "(duplicate, gap, or corrupt payload)\n",
                     static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(e->client_id),
                     static_cast<unsigned long long>(e->request_id));
        break;
      }
      seen_request[e->client_id] = e->request_id;
    }
  }

  // Fetch the server's own telemetry snapshot (kStatsRequest) while it is
  // still up — its request-latency histogram is the server-side view of the
  // run we just measured from the client side.
  std::optional<lft::obs::Snapshot> server_snapshot;
  if (server_stats || !stats_json_path.empty()) {
    Client stats_client(target_port, /*client_id=*/0x0b5);
    if (stats_client.connected()) server_snapshot = stats_client.server_stats();
    if (!server_snapshot) {
      ok = false;
      std::fprintf(stderr, "server stats fetch FAILED\n");
    }
  }

  if (server.has_value()) {
    Client stopper(target_port, /*client_id=*/0x57c9);
    if (stopper.connected()) (void)stopper.shutdown_server();
    server_thread.join();
  }

  const double rps = wall_ms > 0.0 ? static_cast<double>(total) / (wall_ms / 1000.0) : 0.0;
  const double p50 = percentile(latencies, 50.0);
  const double p95 = percentile(latencies, 95.0);
  const double p99 = percentile(latencies, 99.0);
  std::printf("%12s %8s %8s %12s %12s %10s %10s %10s %6s\n", "requests", "clients",
              "window", "wall_ms", "req_per_s", "p50_ms", "p95_ms", "p99_ms", "ok");
  std::printf("%12llu %8d %8lld %12.1f %12.0f %10.3f %10.3f %10.3f %6s\n",
              static_cast<unsigned long long>(total), clients,
              static_cast<long long>(open_loop ? 0 : window), wall_ms, rps, p50, p95, p99,
              ok ? "yes" : "NO");
  if (server_stats && server_snapshot) print_server_histogram(*server_snapshot);
  if (!stats_json_path.empty() && server_snapshot) {
    std::ofstream out(stats_json_path, std::ios::trunc);
    out << server_snapshot->to_json();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", stats_json_path.c_str());
      return 1;
    }
  }

  if (!json_path.empty()) {
    lft::bench::JsonRows rows;
    rows.begin_row();
    rows.field("bench", std::string("service_closed_loop"));
    rows.field("mode", std::string(open_loop ? "open" : "closed"));
    rows.field("backend", std::string(port == 0 ? "epoll" : "external"));
    rows.field("requests", static_cast<std::int64_t>(total));
    rows.field("clients", static_cast<std::int64_t>(clients));
    rows.field("window", static_cast<std::int64_t>(open_loop ? 0 : window));
    rows.field("open_rate", static_cast<std::int64_t>(open_rate));
    rows.field("slots", static_cast<std::int64_t>(slots));
    rows.field("wall_ms", wall_ms);
    rows.field("req_per_s", rps);
    // bench_report.py series key: lets a smoke-run row double as a
    // bench/history/ point row alongside the engine_hotpath series.
    rows.field("simd", std::string("service"));
    rows.field("items_per_second", rps);
    rows.field("p50_ms", p50);
    rows.field("p95_ms", p95);
    rows.field("p99_ms", p99);
    if (server_snapshot != std::nullopt) {
      // Server-side latency (frame arrival -> ack enqueue) from the fetched
      // telemetry snapshot, for side-by-side comparison with the client view.
      if (const auto* row = server_snapshot->find_histogram("lft_service_request_ns");
          row != nullptr && row->data.count() > 0) {
        rows.field("server_samples", static_cast<std::int64_t>(row->data.count()));
        rows.field("server_p50_ms", static_cast<double>(row->data.percentile(50.0)) / 1e6);
        rows.field("server_p95_ms", static_cast<double>(row->data.percentile(95.0)) / 1e6);
        rows.field("server_p99_ms", static_cast<double>(row->data.percentile(99.0)) / 1e6);
        rows.field("server_max_ms", static_cast<double>(row->data.max()) / 1e6);
      }
    }
    rows.field("ok", std::string(ok ? "yes" : "NO"));
    if (!rows.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
