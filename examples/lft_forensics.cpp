// Forensics CLI: record execution traces of registry scenarios, replay them
// with first-divergent-round localization, diff two trace files offline, and
// shrink violating fault plans to minimal repros.
//
//   lft_forensics record --scenario=NAME --out=trace.bin
//                        [--seed=N] [--threads=N] [--n=N] [--t=N] [--json=PATH]
//   lft_forensics replay --trace=trace.bin [--threads=N] [--json=PATH]
//   lft_forensics diff   --trace=a.bin --trace2=b.bin [--json=PATH]
//   lft_forensics shrink --case=NAME [--seed=N] [--workers=N]
//                        [--out=repro.json] [--json=PATH]
//   lft_forensics list
//
// --threads=N pins the engine's stepper to N workers; without it (or with
// 0) the engine derives its worker count from the machine. Digests do not
// depend on it, so a trace replays under any value.
//
// `replay` exits nonzero on divergence and prints the exact first divergent
// round and digest component; `shrink` exits nonzero unless the minimal plan
// still violates and its serial/parallel traces are bit-identical. `--json`
// writes rows in the BENCH_*.json artifact schema; `shrink --out` writes the
// minimal repro (meta + one row per surviving fault event) as JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "forensics/replay.hpp"
#include "forensics/shrink.hpp"
#include "forensics/trace.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using lft::NodeId;
using lft::bench::JsonRows;
using lft::bench::WallTimer;
using lft::forensics::Divergence;
using lft::forensics::Trace;

void print_usage() {
  std::printf(
      "usage: lft_forensics record --scenario=NAME --out=PATH [--seed=N] [--threads=N]\n"
      "                            [--n=N] [--t=N] [--json=PATH]\n"
      "       lft_forensics replay --trace=PATH [--threads=N] [--json=PATH]\n"
      "       lft_forensics diff   --trace=A --trace2=B [--json=PATH]\n"
      "       lft_forensics shrink --case=NAME [--seed=N] [--workers=N]\n"
      "                            [--out=repro.json] [--json=PATH]\n"
      "       lft_forensics list\n");
}

struct Options {
  std::string command;
  std::string scenario;
  std::string shrink_case;
  std::string trace_path;
  std::string trace2_path;
  std::string out_path;
  std::string json_path;
  std::uint64_t seed = 1;
  int threads = 0;  // 0 = the engine's derived default
  int workers = 4;
  NodeId n = -1;
  std::int64_t t = -1;
};

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  return lft::cli::ArgParser(argc, argv, /*first_arg=*/2)
      .on_str("--scenario", opt.scenario)
      .on_str("--case", opt.shrink_case)
      .on_str("--trace", opt.trace_path)
      .on_str("--trace2", opt.trace2_path)
      .on_str("--out", opt.out_path)
      .on_str("--json", opt.json_path)
      .on_u64("--seed", opt.seed)
      .on_int("--threads", opt.threads, 0)
      .on_int("--workers", opt.workers, 1)
      .on_value("--n",
                [&opt](const std::string& v) {
                  std::int64_t n = 0;
                  if (!lft::cli::parse_i64(v, n) || n < std::numeric_limits<NodeId>::min() ||
                      n > std::numeric_limits<NodeId>::max()) {
                    return false;
                  }
                  opt.n = static_cast<NodeId>(n);
                  return true;
                })
      .on_i64("--t", opt.t, std::numeric_limits<std::int64_t>::min())
      .parse();
}

void print_trace_summary(const Trace& trace) {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t actions = 0;
  for (const auto& d : trace.rounds) {
    sent += d.sent;
    delivered += d.delivered;
    lost += d.lost_crash + d.lost_fault + d.lost_dead;
    actions += d.crashes + d.omissions + d.links + d.partitions + d.takeovers;
  }
  std::printf(
      "trace: scenario=%s seed=%llu n=%d t=%lld rounds=%zu sent=%llu delivered=%llu "
      "lost=%llu fault_actions=%llu fingerprint=%016llx\n",
      trace.meta.scenario.c_str(), static_cast<unsigned long long>(trace.meta.seed),
      trace.meta.n, static_cast<long long>(trace.meta.t), trace.rounds.size(),
      static_cast<unsigned long long>(sent), static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(lost), static_cast<unsigned long long>(actions),
      static_cast<unsigned long long>(trace.report_fingerprint));
}

void divergence_fields(JsonRows& rows, const Divergence& d) {
  rows.field("diverged", std::string(d.diverged ? "yes" : "no"));
  rows.field("divergent_round", static_cast<std::int64_t>(d.round));
  rows.field("component", std::string(lft::forensics::component_name(d.component)));
  rows.field("expected", static_cast<std::int64_t>(d.expected));
  rows.field("actual", static_cast<std::int64_t>(d.actual));
}

bool write_json(const JsonRows& rows, const std::string& path) {
  if (path.empty()) return true;
  if (!rows.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

int cmd_list() {
  std::printf("recordable scenarios (see lft_scenarios --list for details):\n");
  for (const auto& s : lft::scenarios::all_scenarios()) {
    std::printf("  %-28s %s\n", s.name.c_str(),
                s.run_plan != nullptr ? "plan-driven (replayable + shrinkable)"
                                      : "adaptive (replayable)");
  }
  std::printf("shrink cases:\n");
  for (const auto& c : lft::forensics::shrink_cases()) {
    std::printf("  %-28s %s\n", c.name.c_str(), c.description.c_str());
  }
  return 0;
}

int cmd_record(const Options& opt) {
  const auto* scenario = lft::scenarios::find_scenario(opt.scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario: %s (see lft_forensics list)\n",
                 opt.scenario.c_str());
    return 2;
  }
  if (opt.out_path.empty()) {
    std::fprintf(stderr, "record needs --out=PATH\n");
    return 2;
  }
  const WallTimer timer;
  auto run = lft::forensics::record(*scenario, opt.seed, opt.threads, opt.n, opt.t);
  const double wall_ms = timer.ms();
  if (!lft::forensics::save_trace(run.trace, opt.out_path)) {
    std::fprintf(stderr, "failed to write %s\n", opt.out_path.c_str());
    return 1;
  }
  print_trace_summary(run.trace);
  std::printf("recorded %s in %.1f ms (invariant %s: %s)\n", opt.out_path.c_str(), wall_ms,
              run.result.ok ? "ok" : "VIOLATED", run.result.detail.c_str());

  JsonRows rows;
  rows.begin_row();
  rows.field("kind", std::string("record"));
  rows.field("scenario", run.trace.meta.scenario);
  rows.field("seed", static_cast<std::int64_t>(run.trace.meta.seed));
  rows.field("n", static_cast<std::int64_t>(run.trace.meta.n));
  rows.field("t", run.trace.meta.t);
  rows.field("rounds", static_cast<std::int64_t>(run.trace.rounds.size()));
  rows.field("fingerprint", static_cast<std::int64_t>(run.trace.report_fingerprint));
  rows.field("wall_ms", wall_ms);
  rows.field("ok", std::string(run.result.ok ? "yes" : "NO"));
  if (!write_json(rows, opt.json_path)) return 1;
  return run.result.ok ? 0 : 1;
}

int cmd_replay(const Options& opt) {
  if (opt.trace_path.empty()) {
    std::fprintf(stderr, "replay needs --trace=PATH\n");
    return 2;
  }
  const auto recorded = lft::forensics::load_trace(opt.trace_path);
  if (!recorded) {
    std::fprintf(stderr, "cannot load trace %s\n", opt.trace_path.c_str());
    return 2;
  }
  if (lft::scenarios::find_scenario(recorded->meta.scenario) == nullptr) {
    std::fprintf(stderr, "trace names unknown scenario: %s\n",
                 recorded->meta.scenario.c_str());
    return 2;
  }
  const WallTimer timer;
  const auto replayed = lft::forensics::replay(*recorded, opt.threads);
  const double wall_ms = timer.ms();
  print_trace_summary(replayed.trace);
  if (replayed.divergence.diverged) {
    std::printf("DIVERGED: %s\n", replayed.divergence.detail.c_str());
  } else {
    std::printf("replay matches the recording (%zu rounds, fingerprint %016llx) in %.1f ms\n",
                replayed.trace.rounds.size(),
                static_cast<unsigned long long>(replayed.trace.report_fingerprint), wall_ms);
  }

  JsonRows rows;
  rows.begin_row();
  rows.field("kind", std::string("replay"));
  rows.field("scenario", recorded->meta.scenario);
  rows.field("seed", static_cast<std::int64_t>(recorded->meta.seed));
  rows.field("threads", static_cast<std::int64_t>(opt.threads));
  rows.field("wall_ms", wall_ms);
  divergence_fields(rows, replayed.divergence);
  if (!write_json(rows, opt.json_path)) return 1;
  return replayed.divergence.diverged ? 1 : 0;
}

int cmd_diff(const Options& opt) {
  if (opt.trace_path.empty() || opt.trace2_path.empty()) {
    std::fprintf(stderr, "diff needs --trace=A and --trace2=B\n");
    return 2;
  }
  const auto a = lft::forensics::load_trace(opt.trace_path);
  const auto b = lft::forensics::load_trace(opt.trace2_path);
  if (!a || !b) {
    std::fprintf(stderr, "cannot load %s\n", (!a ? opt.trace_path : opt.trace2_path).c_str());
    return 2;
  }
  const Divergence d = lft::forensics::diff(*a, *b);
  if (d.diverged) {
    std::printf("DIVERGED: %s\n", d.detail.c_str());
  } else {
    std::printf("traces identical (%zu rounds)\n", a->rounds.size());
  }
  JsonRows rows;
  rows.begin_row();
  rows.field("kind", std::string("diff"));
  divergence_fields(rows, d);
  if (!write_json(rows, opt.json_path)) return 1;
  return d.diverged ? 1 : 0;
}

/// Serializes the minimal repro: one meta row, then one row per surviving
/// event, in plan order.
void repro_rows(JsonRows& rows, const lft::forensics::ShrinkResult& result,
                const std::string& case_name, std::uint64_t seed) {
  rows.begin_row();
  rows.field("kind", std::string("shrink"));
  rows.field("case", case_name);
  rows.field("seed", static_cast<std::int64_t>(seed));
  rows.field("n", static_cast<std::int64_t>(result.n));
  rows.field("t", result.t);
  rows.field("events_before", result.initial_events);
  rows.field("events_after", result.final_events);
  rows.field("evaluations", result.evaluations);
  rows.field("violating", std::string(result.violating ? "yes" : "NO"));
  rows.field("budget_exhausted", std::string(result.budget_exhausted ? "yes" : "no"));
  rows.field("parallel_bit_identical",
             std::string(result.parallel_divergence.diverged ? "NO" : "yes"));
  rows.field("detail", result.result.detail);
  rows.field("fingerprint", static_cast<std::int64_t>(result.trace.report_fingerprint));
  for (const auto& e : result.plan.crashes) {
    rows.begin_row();
    rows.field("kind", std::string("crash"));
    rows.field("node", static_cast<std::int64_t>(e.node));
    rows.field("round", static_cast<std::int64_t>(e.round));
    rows.field("keep_fraction", e.keep_fraction);
  }
  for (const auto& e : result.plan.omissions) {
    rows.begin_row();
    rows.field("kind", std::string("omission"));
    rows.field("node", static_cast<std::int64_t>(e.node));
    rows.field("from", static_cast<std::int64_t>(e.from));
    rows.field("until", static_cast<std::int64_t>(e.until));
    rows.field("send", std::string(e.send ? "yes" : "no"));
    rows.field("recv", std::string(e.recv ? "yes" : "no"));
  }
  for (const auto& e : result.plan.links) {
    rows.begin_row();
    rows.field("kind", std::string("link"));
    rows.field("a", static_cast<std::int64_t>(e.a));
    rows.field("b", static_cast<std::int64_t>(e.b));
    rows.field("from", static_cast<std::int64_t>(e.from));
    rows.field("until", static_cast<std::int64_t>(e.until));
    rows.field("symmetric", std::string(e.symmetric ? "yes" : "no"));
  }
  for (const auto& e : result.plan.partitions) {
    rows.begin_row();
    rows.field("kind", std::string("partition"));
    rows.field("from", static_cast<std::int64_t>(e.from));
    rows.field("until", static_cast<std::int64_t>(e.until));
    // Displaced = nodes outside the *majority* group (matching the
    // shrinker's notion; group ids are arbitrary, 0 included).
    std::vector<std::int64_t> count;
    for (const auto g : e.group_of) {
      if (g >= count.size()) count.resize(g + 1, 0);
      ++count[g];
    }
    std::int64_t majority = 0;
    for (const auto c : count) majority = std::max(majority, c);
    rows.field("displaced_nodes",
               static_cast<std::int64_t>(e.group_of.size()) - majority);
  }
  for (const auto& e : result.plan.takeovers) {
    rows.begin_row();
    rows.field("kind", std::string("takeover"));
    rows.field("node", static_cast<std::int64_t>(e.node));
    rows.field("round", static_cast<std::int64_t>(e.round));
    rows.field("behavior", e.kind);
  }
}

int cmd_shrink(const Options& opt) {
  const auto* shrink_case = lft::forensics::find_shrink_case(opt.shrink_case);
  if (shrink_case == nullptr) {
    std::fprintf(stderr, "unknown shrink case: %s (see lft_forensics list)\n",
                 opt.shrink_case.c_str());
    return 2;
  }
  const auto problem = shrink_case->make(opt.seed);
  lft::forensics::ShrinkOptions options;
  options.workers = opt.workers;
  const WallTimer timer;
  const auto result = lft::forensics::shrink(problem, options);
  const double wall_ms = timer.ms();

  std::printf(
      "shrink %s: %lld -> %lld events (n %d -> %d) in %lld evaluations, %.1f ms\n"
      "  minimal repro %s, serial/parallel traces %s\n  %s\n",
      shrink_case->name.c_str(), static_cast<long long>(result.initial_events),
      static_cast<long long>(result.final_events), problem.n, result.n,
      static_cast<long long>(result.evaluations), wall_ms,
      result.violating ? "still violates" : "DOES NOT VIOLATE",
      result.parallel_divergence.diverged ? "DIVERGE" : "bit-identical",
      result.result.detail.c_str());
  if (result.budget_exhausted) {
    std::printf("  note: evaluation budget exhausted — the plan may not be 1-minimal\n");
  }

  JsonRows rows;
  repro_rows(rows, result, shrink_case->name, opt.seed);
  if (!opt.out_path.empty() && !rows.write_file(opt.out_path)) {
    std::fprintf(stderr, "failed to write %s\n", opt.out_path.c_str());
    return 1;
  }
  if (!write_json(rows, opt.json_path)) return 1;
  return result.violating && !result.parallel_divergence.diverged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    print_usage();
    return 2;
  }
  if (opt.command == "list") return cmd_list();
  if (opt.command == "record") return cmd_record(opt);
  if (opt.command == "replay") return cmd_replay(opt);
  if (opt.command == "diff") return cmd_diff(opt);
  if (opt.command == "shrink") return cmd_shrink(opt);
  print_usage();
  return 2;
}
