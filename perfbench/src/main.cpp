// perfbench: one benchmark binary for the paper-scale simulation runs and the live
// service. Runs one named workload for a fixed time budget, checks every
// output it produces, and prints its metrics as the last stdout line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--break-check]
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
// workload with the layer spans and engine/server telemetry switched on and
// reports the per-layer metrics instead. --break-check corrupts one expected
// value so the correctness gate can be seen to fire (exit status 1).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "common/simd.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}. A shared
/// virtual machine's timings move with the host's load; the stolen share of
/// the run is printed so a reader can tell a slow host from slow code.
std::pair<double, double> cpu_steal_and_total() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0, steal = 0, field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload consensus_1e5|gossip_2k|fault_sweep|serve_closed\n"
               "                 --seed N --seconds S --trace 0|1 [--break-check]\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--break-check") {
      options.break_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }

  std::printf("perfbench env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u cpu=\"%s\" "
              "simd=%s build=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              cpu_model().c_str(), lft::simd::tier_name(lft::simd::default_tier()),
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  const auto [steal0, total0] = cpu_steal_and_total();
  Result result;
  if (options.workload == "consensus_1e5") {
    run_consensus_1e5(options, result);
  } else if (options.workload == "gossip_2k") {
    run_gossip_2k(options, result);
  } else if (options.workload == "fault_sweep") {
    run_fault_sweep(options, result);
  } else if (options.workload == "serve_closed") {
    run_serve_closed(options, result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    usage();
    return 2;
  }
  if (!options.trace) {
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("ok_frac", result.ok_frac(), "fraction");
  }

  const auto [steal1, total1] = cpu_steal_and_total();
  if (total1 > total0) {
    std::printf("perfbench host: %.1f%% of vCPU time stolen by the hypervisor during the run\n",
                100.0 * (steal1 - steal0) / (total1 - total0));
  }
  for (const auto& why : result.failures()) std::printf("perfbench FAILED: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.correct() ? "true" : "false", static_cast<long long>(result.attempted()),
              static_cast<long long>(result.failed()));
  const auto& metrics = result.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                json_escape(metrics[i].name).c_str(), metrics[i].value,
                json_escape(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  return result.correct() ? 0 : 1;
}
