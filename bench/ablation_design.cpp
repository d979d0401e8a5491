// Ablations for the design choices DESIGN.md calls out:
//  (a) overlay family — the paper's expander machinery vs. weaker topologies
//      (ring, torus, hypercube) and the degenerate complete graph, plugged
//      into the same AEA pipeline: expanders keep the 3/5-decided guarantee
//      with O(1)-degree traffic; thin graphs lose probing survivors or
//      agreement margin; complete graphs pay quadratic messages.
//  (b) probing threshold delta — too low weakens the dense-cluster
//      certificate, too high starves survivors (Theorem 2's balance).
//  (c) probing radius gamma — Theorem 3's 2 + lg n is the knee: smaller
//      radii certify too-small neighborhoods.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "bench_util.hpp"
#include "common/bitset.hpp"
#include "common/math.hpp"
#include "core/consensus.hpp"
#include "core/stages.hpp"
#include "graph/families.hpp"
#include "graph/margulis.hpp"
#include "graph/overlay.hpp"
#include "graph/properties.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace lft;
using namespace lft::bench;

struct AeaRun {
  std::int64_t decided_or_crashed = 0;
  bool agreement = true;
  Round rounds = 0;
  std::int64_t messages = 0;
};

// Runs the AEA pipeline (flood + probe + notify) with an injected little
// overlay and probing parameters.
AeaRun run_aea_with(std::shared_ptr<const graph::Graph> little_g, NodeId n, NodeId little,
                    std::int64_t t, int gamma, int delta, std::uint64_t seed) {
  sim::EngineConfig config;
  config.crash_budget = t;
  sim::Engine engine(n, config);
  std::vector<core::StageProcess*> procs;
  const auto inputs = random_binary_inputs(n, seed);
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<core::StageProcess>(v);
    proc->state().candidate = inputs[static_cast<std::size_t>(v)];
    proc->add_stage(std::make_unique<core::FloodRumorStage>(
        v, little, little_g, std::max<Round>(1, little - 1), proc->state()));
    proc->add_stage(std::make_unique<core::ProbeStage>(v, little, little_g, gamma, delta,
                                                       proc->state(), true));
    proc->add_stage(std::make_unique<core::NotifyRelatedStage>(v, n, little, proc->state()));
    procs.push_back(proc.get());
    engine.set_process(v, std::move(proc));
  }
  engine.add_fault_injector(sim::make_scheduled(sim::burst_crash_schedule(n, t, 1, seed + 1)));
  const auto report = engine.run();

  AeaRun out;
  out.rounds = report.rounds;
  out.messages = report.metrics.messages_total;
  std::optional<std::uint64_t> seen;
  for (const auto& s : report.nodes) {
    if (s.crashed || s.decided) ++out.decided_or_crashed;
    if (s.crashed || !s.decided) continue;
    if (seen && *seen != s.decision) out.agreement = false;
    seen = s.decision;
  }
  return out;
}

// Partition attack: find a BFS ball holding 1/4..1/2 of the little group,
// crash its inner boundary (all ball vertices with an outside neighbor), and
// give the ball interior input 1 and everyone else input 0. On graphs whose
// balls have small boundaries (ring, torus) the budget suffices to cut the
// graph, two components flood different values, and agreement breaks — the
// precise failure Theorem 1's expansion rules out: on expanders every
// linear-size ball has a linear-size boundary, so the cut exceeds t.
struct PartitionAttack {
  bool cut_possible = false;
  std::vector<sim::CrashEvent> crashes;
  std::vector<int> inputs;  // per little node (extended to n by caller)
};

PartitionAttack build_partition_attack(const graph::Graph& g, std::int64_t t) {
  const NodeId l = g.num_vertices();
  PartitionAttack attack;
  attack.inputs.assign(static_cast<std::size_t>(l), 0);
  DynamicBitset all(static_cast<std::size_t>(l));
  all.set_all();
  for (int radius = 1; radius < l; ++radius) {
    const auto ball = graph::neighborhood_ball(g, 0, radius, all);
    if (ball.count() * 4 < static_cast<std::size_t>(l)) continue;
    if (ball.count() * 2 > static_cast<std::size_t>(l)) break;  // grew too big
    // Inner boundary of the ball.
    std::vector<NodeId> boundary;
    ball.for_each([&](std::size_t v) {
      for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
        if (!ball.test(static_cast<std::size_t>(w))) {
          boundary.push_back(static_cast<NodeId>(v));
          break;
        }
      }
    });
    if (static_cast<std::int64_t>(boundary.size()) > t) continue;
    attack.cut_possible = true;
    for (NodeId v : boundary) attack.crashes.push_back(sim::CrashEvent{0, v, 0.0});
    ball.for_each([&](std::size_t v) { attack.inputs[v] = 1; });
    return attack;
  }
  return attack;
}

void overlay_family_table() {
  banner("ABLATION-A: overlay family under a partition attack",
         "crash a ball's inner boundary; expanders make the cut exceed t (Theorem 1)");
  struct Fam {
    const char* name;
    graph::Graph g;
    int delta;
  };
  std::vector<Fam> families;
  families.push_back({"certified-16", graph::make_overlay(400, 16, 77), 4});
  families.push_back({"margulis", graph::margulis_graph(20), 2});
  families.push_back({"hypercube", graph::hypercube_graph(8), 2});
  families.push_back({"torus", graph::torus_graph(20, 20), 1});
  families.push_back({"ring", graph::ring_graph(400), 1});

  Table table({"overlay", "degree", "cut<=t?", "cut_size", "decided%", "agree"});
  table.print_header();
  for (auto& fam : families) {
    const NodeId l = fam.g.num_vertices();
    const NodeId n = 5 * l;
    const std::int64_t t = l / 5;
    auto attack = build_partition_attack(fam.g, t);
    auto g = std::make_shared<const graph::Graph>(std::move(fam.g));
    const int gamma = 2 + ceil_log2(static_cast<std::uint64_t>(l));

    sim::EngineConfig config;
    config.crash_budget = t;
    sim::Engine engine(n, config);
    std::vector<core::StageProcess*> procs;
    for (NodeId v = 0; v < n; ++v) {
      auto proc = std::make_unique<core::StageProcess>(v);
      proc->state().candidate =
          v < l ? attack.inputs[static_cast<std::size_t>(v)] : 0;
      proc->add_stage(std::make_unique<core::FloodRumorStage>(
          v, l, g, std::max<Round>(1, l - 1), proc->state()));
      proc->add_stage(
          std::make_unique<core::ProbeStage>(v, l, g, gamma, fam.delta, proc->state(), true));
      proc->add_stage(std::make_unique<core::NotifyRelatedStage>(v, n, l, proc->state()));
      procs.push_back(proc.get());
      engine.set_process(v, std::move(proc));
    }
    engine.add_fault_injector(sim::make_scheduled(attack.crashes));
    const auto report = engine.run();

    std::int64_t decided_or_crashed = 0;
    bool agreement = true;
    std::optional<std::uint64_t> seen;
    for (const auto& s : report.nodes) {
      if (s.crashed || s.decided) ++decided_or_crashed;
      if (s.crashed || !s.decided) continue;
      if (seen && *seen != s.decision) agreement = false;
      seen = s.decision;
    }
    table.cell(std::string(fam.name));
    table.cell(static_cast<std::int64_t>(g->max_degree()));
    table.cell(std::string(attack.cut_possible ? "yes" : "no"));
    table.cell(static_cast<std::int64_t>(attack.crashes.size()));
    table.cell(100.0 * static_cast<double>(decided_or_crashed) / static_cast<double>(n));
    table.cell(std::string(agreement ? "yes" : "NO"));
    table.end_row();
  }
  std::printf(
      "\nexpected shape: on the expanders (certified-16, margulis, hypercube) no ball\n"
      "has a cuttable boundary within budget, so agreement stands; on ring/torus the\n"
      "cut succeeds, the two components flood different values, and agreement breaks\n"
      "exactly as Lemma 4 predicts when Theorem 1's expansion is absent.\n");
}

void delta_sensitivity_table() {
  banner("ABLATION-B: probing threshold delta",
         "degree-16 certified overlay, 20% burst crashes; Theorem 2's balance");
  const NodeId little = 400;
  const NodeId n = 2000;
  const std::int64_t t = little / 5;
  const int gamma = 2 + ceil_log2(static_cast<std::uint64_t>(little));
  auto g = graph::shared_overlay({little, 16, 0xAB1A});

  Table table({"delta", "decided%", "agree", "messages"});
  table.print_header();
  for (int delta : {0, 4, 8, 12, 13, 14, 15, 16}) {
    const auto run = run_aea_with(g, n, little, t, gamma, delta, 9);
    table.cell(static_cast<std::int64_t>(delta));
    table.cell(100.0 * static_cast<double>(run.decided_or_crashed) / static_cast<double>(n));
    table.cell(std::string(run.agreement ? "yes" : "NO"));
    table.cell(run.messages);
    table.end_row();
  }
  std::printf(
      "\nexpected shape: with 20%% random crashes the expected alive-degree is ~12.8,\n"
      "so decided%% stays high through delta ~ 12 and collapses for delta >= 13-14\n"
      "(survivor starvation, the upper side of Theorem 2's balance); the lower side\n"
      "(weak certificates at tiny delta) is what ABLATION-A's partition attack probes.\n");
}

void gamma_sensitivity_table() {
  banner("ABLATION-C: probing radius gamma",
         "Theorem 3: radius 2 + lg L certifies linear-size dense neighborhoods");
  const NodeId little = 400;
  const NodeId n = 2000;
  const std::int64_t t = little / 5;
  auto g = graph::shared_overlay({little, 16, 0xAB1C});

  Table table({"gamma", "decided%", "agree", "rounds"});
  table.print_header();
  const int knee = 2 + ceil_log2(static_cast<std::uint64_t>(little));
  for (int gamma : {1, 2, 4, knee, knee + 4}) {
    const auto run = run_aea_with(g, n, little, t, gamma, 4, 13);
    table.cell(static_cast<std::int64_t>(gamma));
    table.cell(100.0 * static_cast<double>(run.decided_or_crashed) / static_cast<double>(n));
    table.cell(std::string(run.agreement ? "yes" : "NO"));
    table.cell(run.rounds);
    table.end_row();
  }
  std::printf(
      "\nexpected shape: under *random* crashes every gamma succeeds — gamma buys\n"
      "worst-case certification (Theorem 3's dense neighborhoods of linear size),\n"
      "not average-case progress; its measured cost is the linear-in-gamma round\n"
      "overhead shown here, which is why the paper stops at the 2 + lg L knee.\n");
}

void BM_AblationAea(benchmark::State& state) {
  const NodeId little = 400;
  auto g = graph::shared_overlay({little, 16, 0xAB1A});
  for (auto _ : state) {
    auto run = run_aea_with(g, 2000, little, little / 5,
                            2 + ceil_log2(static_cast<std::uint64_t>(little)), 4, 9);
    benchmark::DoNotOptimize(run.rounds);
  }
}
BENCHMARK(BM_AblationAea)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  overlay_family_table();
  delta_sensitivity_table();
  gamma_sensitivity_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
