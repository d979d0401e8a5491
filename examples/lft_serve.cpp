// lft_serve: the replicated coordination service, live. An epoll server
// multiplexing TCP client sessions over a ReplicaGroup that orders every
// proposal batch through a Few-Crashes-Consensus slot (the paper's Figure 3
// assembly) — the same Stage/Process code the simulator runs, stepped by
// the simulator's own round loop (sim::Engine). One slot runs at a time,
// its rounds to completion between two reactor polls.
//
//   lft_serve [--port=N] [--n=N] [--t=N] [--no-shutdown]
//             [--trace=PATH] [--stats-dump=PATH] [--stats-interval-ms=MS]
//
// --port=0 (default) picks a free port and prints it; a port above 65535,
// like any malformed number or unknown flag, exits 2.
// --trace=PATH records the first commit slot as an LFTTRACE file that
// `lft_forensics replay --trace=PATH` re-executes under the sim engine.
// --no-shutdown ignores client kShutdown frames (run until killed).
// --stats-dump=PATH periodically replaces PATH (write PATH.tmp, rename)
// with the live telemetry snapshot (JSON rows for .json, Prometheus text
// exposition otherwise); --stats-interval-ms sets the cadence. The same snapshot is served live
// over the wire to any client sending kStatsRequest
// (`lft_bench_client --server-stats` prints it).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: lft_serve [--port=N] [--n=N] [--t=N] [--no-shutdown]\n"
      "                 [--trace=PATH] [--stats-dump=PATH] [--stats-interval-ms=MS]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int n = lft::service::kDefaultGroupSize;
  std::int64_t t = lft::service::kDefaultFaultBudget;
  bool no_shutdown = false;
  std::string trace_path;
  std::string stats_dump;
  std::int64_t stats_interval_ms = 1000;
  const bool parsed = lft::cli::ArgParser(argc, argv)
                          .on_port("--port", port)
                          .on_int("--n", n, 1)
                          .on_i64("--t", t, 0)
                          .on_flag("--no-shutdown", no_shutdown)
                          .on_str("--trace", trace_path)
                          .on_str("--stats-dump", stats_dump)
                          .on_i64("--stats-interval-ms", stats_interval_ms, 1)
                          .parse();
  if (!parsed) {
    print_usage();
    return 2;
  }
  if (t >= n || 5 * t >= n) {
    std::fprintf(stderr, "lft_serve: need 5t < n (got n=%d t=%lld)\n", n,
                 static_cast<long long>(t));
    return 2;
  }

  lft::service::ServerOptions options;
  options.port = port;
  options.n = static_cast<lft::NodeId>(n);
  options.t = t;
  options.allow_shutdown = !no_shutdown;
  options.trace_path = trace_path;
  options.stats_dump_path = stats_dump;
  options.stats_dump_interval_ms = stats_interval_ms;

  lft::service::Server server(options);
  std::printf("lft_serve: listening on 127.0.0.1:%u (n=%d t=%lld)\n", server.port(), n,
              static_cast<long long>(t));
  if (!trace_path.empty()) {
    std::printf("lft_serve: first commit slot will be traced to %s\n", trace_path.c_str());
  }
  if (!stats_dump.empty()) {
    std::printf("lft_serve: telemetry snapshot every %lldms to %s\n",
                static_cast<long long>(stats_interval_ms), stats_dump.c_str());
  }
  std::fflush(stdout);

  server.run();

  const auto& stats = server.stats();
  std::printf(
      "lft_serve: shut down after %llu sessions, %llu proposals (%llu duplicates), "
      "%llu commit batches, %llu log entries, %llu consensus slots, "
      "%llu session pauses\n",
      static_cast<unsigned long long>(stats.sessions_accepted),
      static_cast<unsigned long long>(stats.proposals),
      static_cast<unsigned long long>(stats.duplicates),
      static_cast<unsigned long long>(stats.commit_batches),
      static_cast<unsigned long long>(server.group().machine().size()),
      static_cast<unsigned long long>(server.group().slots()),
      static_cast<unsigned long long>(stats.session_pauses));
  return 0;
}
