#include "scenarios/scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "byzantine/ab_consensus.hpp"
#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/checkpointing.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "core/stages.hpp"
#include "core/tags.hpp"
#include "graph/overlay.hpp"
#include "service/ordering.hpp"
#include "sim/adversary.hpp"
#include "sim/faults.hpp"

namespace lft::scenarios {

namespace {

using core::ConsensusParams;

std::vector<int> random_inputs(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  return inputs;
}

std::string yn(bool b) { return b ? "yes" : "NO"; }

// ---- consensus harness -----------------------------------------------------

/// Which invariants a consensus scenario demands. Crash-model scenarios
/// demand everything (the theorems); fault regimes beyond the paper's model
/// drop termination when faulty-but-running nodes legitimately fail to
/// decide.
struct Expect {
  bool termination = true;
  bool agreement = true;
  bool validity = true;
};

ScenarioResult eval_consensus(core::ConsensusOutcome outcome, const Expect& expect) {
  ScenarioResult result;
  result.ok = (!expect.termination || outcome.termination) &&
              (!expect.agreement || outcome.agreement) &&
              (!expect.validity || outcome.validity);
  result.detail = "termination=" + yn(outcome.termination) +
                  " agreement=" + yn(outcome.agreement) +
                  " validity=" + yn(outcome.validity);
  result.report = std::move(outcome.report);
  return result;
}

/// Runs Few- or Many-Crashes-Consensus under `plan` with random inputs.
ScenarioResult run_consensus(const ConsensusParams& params, bool many, sim::FaultPlan plan,
                             std::uint64_t seed, const Expect& expect,
                             const core::RunOptions& options) {
  const auto inputs = random_inputs(params.n, seed);
  auto factory = [&](NodeId v) {
    const int input = inputs[static_cast<std::size_t>(v)];
    return many ? core::make_many_crashes_process(params, v, input)
                : core::make_few_crashes_process(params, v, input);
  };
  auto report = core::run_system(params.n, params.t, factory,
                                 sim::make_plan_injector(std::move(plan)), options);
  return eval_consensus(core::evaluate_consensus(std::move(report), inputs), expect);
}

ScenarioResult eval_gossip(core::GossipOutcome outcome) {
  ScenarioResult result;
  result.ok = outcome.all_good();
  result.detail = "termination=" + yn(outcome.termination) +
                  " cond1=" + yn(outcome.condition1) + " cond2=" + yn(outcome.condition2) +
                  " rumors=" + yn(outcome.rumors_intact);
  result.report = std::move(outcome.report);
  return result;
}

ScenarioResult eval_checkpointing(core::CheckpointOutcome outcome) {
  ScenarioResult result;
  result.ok = outcome.all_good();
  result.detail = "termination=" + yn(outcome.termination) +
                  " cond1=" + yn(outcome.condition1) + " cond2=" + yn(outcome.condition2) +
                  " cond3=" + yn(outcome.condition3);
  result.report = std::move(outcome.report);
  return result;
}

ScenarioResult eval_ab(byzantine::AbOutcome outcome, bool expect_max_rule) {
  ScenarioResult result;
  result.ok = outcome.termination && outcome.agreement &&
              (!expect_max_rule || outcome.max_rule_holds);
  result.detail = "termination=" + yn(outcome.termination) +
                  " agreement=" + yn(outcome.agreement) +
                  " max_rule=" + yn(outcome.max_rule_holds);
  result.report = std::move(outcome.report);
  return result;
}

std::vector<std::uint64_t> ab_inputs(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = rng.uniform(2);
  return inputs;
}

std::vector<std::uint64_t> gossip_rumors(NodeId n, std::uint64_t seed) {
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) rumors[static_cast<std::size_t>(v)] = seed * 1000 + v;
  return rumors;
}

// ---- timing-fault harness: min-flood consensus -----------------------------

/// The timing-fault scenarios run a deliberately simple full-information
/// protocol so that every invariant verdict is attributable to *when*
/// messages arrive rather than to protocol-internal schedule structure:
/// every round below the horizon each node broadcasts its current minimum
/// and adopts the minimum of its inbox; at the horizon it decides and halts.
/// The horizon is fixed (independent of the fault plan), so the decision
/// round never moves — a delay either beats the horizon or loses to it.
/// With `early_decide`, a node decides as soon as it has heard from every
/// peer at least once: since a holder of the global minimum carries it from
/// round 0, hearing every peer implies having seen the global minimum (safe
/// only when no sender can be silenced — the pure delay/GST scenarios).
constexpr std::uint32_t kTagMinFlood = core::kTagBaseline + 40;
constexpr Round kMinFloodHorizon = 12;

class MinFloodProcess final : public sim::Process {
 public:
  MinFloodProcess(NodeId n, Round horizon, std::uint64_t input, bool early_decide)
      : n_(n), horizon_(horizon), min_(input), early_(early_decide) {
    if (early_) heard_.assign(static_cast<std::size_t>(n), 0);
  }

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override {
    for (const auto& m : inbox) {
      if (m.tag != kTagMinFlood) continue;
      min_ = std::min(min_, m.value);
      if (early_ && heard_[static_cast<std::size_t>(m.from)] == 0) {
        heard_[static_cast<std::size_t>(m.from)] = 1;
        ++heard_count_;
      }
    }
    if (ctx.round() >= horizon_ ||
        (early_ && heard_count_ == static_cast<std::size_t>(n_) - 1)) {
      ctx.decide(min_);
      ctx.halt();
      return;
    }
    for (NodeId v = 0; v < n_; ++v) {
      if (v != ctx.self()) ctx.send(v, kTagMinFlood, min_, 1);
    }
  }

 private:
  NodeId n_;
  Round horizon_;
  std::uint64_t min_;
  bool early_;
  std::vector<char> heard_;
  std::size_t heard_count_ = 0;
};

/// The behavior planned takeovers install in the min-flood scenarios: total
/// silence (the strongest sender-side fault the protocol's invariants can
/// attribute to timing). Halts at the horizon so the taken-over node does
/// not keep the engine alive after every honest node has decided.
class SilentBehavior final : public sim::Process {
 public:
  void on_round(sim::Context& ctx, const sim::Inbox&) override {
    if (ctx.round() >= kMinFloodHorizon) ctx.halt();
  }
};

/// Runs min-flood under `plan` with distinct random inputs (drawn from a
/// wide range so the global minimum is held by one specific node, not by a
/// bit value half the system starts with). Budgets for every node-fault
/// class are opened to t so mixed plans can compose crashes, omissions and
/// takeovers with the (unbudgeted) timing faults.
ScenarioResult run_min_flood(std::uint64_t seed, NodeId n, std::int64_t t,
                             sim::FaultPlan plan, const Expect& expect, bool early_decide,
                             const core::RunOptions& options) {
  Rng rng(seed * 977 + 11);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(1 + rng.uniform(1'000'000));
  sim::EngineConfig config;
  // Enough headroom past the horizon for every parked message to come due
  // (GST plans can lag a round-0 send by stabilization + delta rounds).
  config.max_rounds = kMinFloodHorizon + 80;
  config.crash_budget = t;
  config.omission_budget = t;
  config.byzantine_budget = t;
  config.threads = options.threads;
  config.scratch = options.scratch;
  config.trace = options.trace;
  config.telemetry = options.telemetry;
  sim::Engine engine(n, config);
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(
        v, std::make_unique<MinFloodProcess>(
               n, kMinFloodHorizon,
               static_cast<std::uint64_t>(inputs[static_cast<std::size_t>(v)]),
               early_decide));
  }
  engine.add_fault_injector(sim::make_plan_injector(
      std::move(plan),
      [](NodeId, const std::string&) { return std::make_unique<SilentBehavior>(); }));
  return eval_consensus(core::evaluate_consensus(engine.run(), inputs), expect);
}

/// Assembles a plan-driven scenario from its two halves: `plan_of` rebuilds
/// the registered fault plan, `run_plan` executes the protocol + invariant
/// under any plan, and `run_at` is their composition. Keeping the halves
/// separately addressable is what the forensics plane replays and shrinks
/// against.
Scenario make_planned(std::string name, std::string protocol, std::string fault_kind,
                      NodeId n, std::int64_t t, std::string description,
                      Scenario::PlanFn plan_of, Scenario::RunPlanFn run_plan) {
  Scenario s;
  s.name = std::move(name);
  s.protocol = std::move(protocol);
  s.fault_kind = std::move(fault_kind);
  s.n = n;
  s.t = t;
  s.description = std::move(description);
  s.plan_of = std::move(plan_of);
  s.run_plan = std::move(run_plan);
  s.run_at = [plan = s.plan_of, run = s.run_plan](std::uint64_t seed, NodeId size,
                                                  std::int64_t budget,
                                                  const core::RunOptions& options) {
    return run(seed, size, budget, plan(seed, size, budget), options);
  };
  return s;
}

/// Shorthand for a min-flood timing-fault scenario: same protocol half every
/// time, so each entry is just (plan, expectations, decide mode).
Scenario make_min_flood(std::string name, std::string fault_kind, NodeId n, std::int64_t t,
                        std::string description, Scenario::PlanFn plan_of,
                        Expect expect = {}, bool early_decide = false) {
  return make_planned(
      std::move(name), "min_flood", std::move(fault_kind), n, t, std::move(description),
      std::move(plan_of),
      [expect, early_decide](std::uint64_t seed, NodeId size, std::int64_t budget,
                             sim::FaultPlan plan, const core::RunOptions& options) {
        return run_min_flood(seed, size, budget, std::move(plan), expect, early_decide,
                             options);
      });
}

std::vector<Scenario> build_registry() {
  std::vector<Scenario> list;

  // Every runner below is a pure function of (seed, n, t) — RunOptions never
  // changes a bit: the registered (n, t) is only the default shape, and `sweep`
  // re-invokes the same lambda at scaled sizes. Ratios are chosen so every
  // 5t < n / little-group constraint still holds after proportional scaling.

  // ---- crash plans (the paper's model: full theorem guarantees) ------------

  list.push_back(make_planned(
      "crash_burst_flood", "few_crashes", "crash", 600, 100,
      "all t crash in one burst at flood start; n=600 is sized for the parallel stepper, "
      "which the default threads derive from the usable CPUs (fleet workers step serially)",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.burst_crashes(n, t, 1, seed * 31 + 1);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             Expect{}, options);
      }));

  list.push_back(make_planned(
      "crash_staggered_drip", "few_crashes", "crash", 160, 31,
      "one crash every 5 rounds through the whole execution",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.staggered_crashes(n, t, 0, 5, seed * 31 + 2);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             Expect{}, options);
      }));

  list.push_back(make_planned(
      "crash_partial_sends", "many_crashes", "crash", 96, 60,
      "many-crashes regime (t near n); every victim keeps ~30% of its last sends",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.random_crashes(n, t, 0, n / 2, 0.3, seed * 31 + 3);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), true, std::move(plan), seed,
                             Expect{}, options);
      }));

  list.push_back(make_planned(
      "crash_isolate_little", "few_crashes", "crash", 200, 30,
      "crashes every little-overlay neighbor of little node 1 at round 0 "
      "(phase-graph diversity keeps the victim deciding)",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        const auto params = ConsensusParams::practical(n, t);
        const auto little_g = graph::shared_overlay(core::little_overlay_spec(params));
        sim::FaultPlan plan;
        plan.crash(sim::isolation_crash_schedule(*little_g, 1, t));
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        auto result = run_consensus(ConsensusParams::practical(n, t), false, std::move(plan),
                                    seed, Expect{}, options);
        const auto& victim = result.report.nodes[1];
        result.ok = result.ok && !victim.crashed && victim.decided;
        result.detail += " victim_decided=" + yn(victim.decided);
        return result;
      }));

  list.push_back(Scenario{
      "crash_probe_hubs", "few_crashes", "crash", 200, 30,
      "adaptive ProbeDisruptor: crashes the 2 busiest senders per round until the budget",
      [](std::uint64_t seed, NodeId n, std::int64_t t, const core::RunOptions& options) {
        const auto params = ConsensusParams::practical(n, t);
        const auto inputs = random_inputs(n, seed);
        auto factory = [&](NodeId v) {
          return core::make_few_crashes_process(params, v,
                                                inputs[static_cast<std::size_t>(v)]);
        };
        auto report = core::run_system(n, t, factory,
                                       std::make_unique<sim::ProbeDisruptorAdversary>(t, 2),
                                       options);
        return eval_consensus(core::evaluate_consensus(std::move(report), inputs), Expect{});
      },
      nullptr, nullptr});

  list.push_back(make_planned(
      "crash_gossip_window", "gossip", "crash", 110, 14,
      "gossip with t partial-send crashes inside the first probing window",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.random_crashes(n, t, 0, 4 * t, 0.5, seed * 31 + 4);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = core::GossipParams::practical(n, t);
        return eval_gossip(core::run_gossip(params, gossip_rumors(n, seed),
                                            sim::make_plan_injector(std::move(plan)),
                                            options));
      }));

  // ---- omission plans (Dwork-Halpern-Waarts regimes) -----------------------

  list.push_back(make_planned(
      "omission_send_quorum", "few_crashes", "omission", 200, 30,
      "t nodes are send-omission faulty for the whole run: to everyone else they look "
      "crashed, but they keep receiving, so even the faulty nodes decide the common value",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.random_omissions(n, t, 0, sim::kRoundForever, /*send=*/true, /*recv=*/false,
                              seed * 31 + 5);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        auto result = run_consensus(ConsensusParams::practical(n, t), false, std::move(plan),
                                    seed, Expect{}, options);
        // Stronger than the crash theorem: every node decided, faulty included.
        const bool everyone = result.report.decided_count() == n;
        result.ok = result.ok && everyone;
        result.detail += " all_decided=" + yn(everyone);
        return result;
      }));

  list.push_back(make_planned(
      "omission_recv_blackout", "few_crashes", "omission", 200, 30,
      "t nodes are receive-omission faulty for the whole run; safety (agreement + "
      "validity) must survive even though the deaf nodes may not decide",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.random_omissions(n, t, 0, sim::kRoundForever, /*send=*/false, /*recv=*/true,
                              seed * 31 + 6);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        Expect expect;
        expect.termination = true;  // non-faulty nodes must all decide
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             expect, options);
      }));

  list.push_back(make_planned(
      "omission_flood_window", "few_crashes", "omission", 200, 30,
      "t nodes lose both directions during the first half of the flood window, then "
      "recover; the protocol must absorb the re-merge and deliver full guarantees",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = ConsensusParams::practical(n, t);
        sim::FaultPlan plan;
        plan.random_omissions(n, t, 0, params.flood_rounds_little / 2, /*send=*/true,
                              /*recv=*/true, seed * 31 + 7);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        auto result = run_consensus(ConsensusParams::practical(n, t), false, std::move(plan),
                                    seed, Expect{}, options);
        const bool everyone = result.report.decided_count() == n;
        result.ok = result.ok && everyone;
        result.detail += " all_decided=" + yn(everyone);
        return result;
      }));

  list.push_back(make_planned(
      "omission_gossip_mixed", "gossip", "omission", 110, 14,
      "gossip with t/2 send-omission and t/2 receive-omission nodes during part 1",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = core::GossipParams::practical(n, t);
        const Round part1 = params.phases * (params.probe_gamma + 3);
        sim::FaultPlan plan;
        plan.random_omissions(n, t / 2, 0, part1, /*send=*/true, /*recv=*/false,
                              seed * 31 + 8);
        plan.random_omissions(n, t - t / 2, 0, part1, /*send=*/false, /*recv=*/true,
                              seed * 31 + 9);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = core::GossipParams::practical(n, t);
        auto outcome = core::run_gossip(params, gossip_rumors(n, seed),
                                        sim::make_plan_injector(std::move(plan)), options);
        return eval_gossip(std::move(outcome));
      }));

  // ---- partitions and link faults ------------------------------------------

  list.push_back(make_planned(
      "partition_split_heal", "few_crashes", "partition", 200, 30,
      "an eighth of the nodes are split off during early flood rounds [1, 9), then the "
      "partition heals; the re-merged nodes must catch up to full guarantees",
      [](std::uint64_t, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.split_at(n - n / 8, n, 1, 9);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        auto result = run_consensus(ConsensusParams::practical(n, t), false, std::move(plan),
                                    seed, Expect{}, options);
        const bool everyone = result.report.decided_count() == n;
        result.ok = result.ok && everyone;
        result.detail += " all_decided=" + yn(everyone);
        return result;
      }));

  list.push_back(make_planned(
      "partition_little_halves", "few_crashes", "partition", 200, 30,
      "the little group is split into halves for 6 flood rounds (cross-half floods are "
      "dropped), then re-merged",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        const auto params = ConsensusParams::practical(n, t);
        std::vector<std::uint32_t> groups(static_cast<std::size_t>(n), 0);
        for (NodeId v = 0; v < params.little_count / 2; ++v) {
          groups[static_cast<std::size_t>(v)] = 1;
        }
        sim::FaultPlan plan;
        plan.split(std::move(groups), 2, 8);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             Expect{}, options);
      }));

  list.push_back(make_planned(
      "link_flaky_mesh", "few_crashes", "link", 200, 30,
      "60 random node pairs lose their (symmetric) links for the first 20 rounds",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        Rng rng(seed * 31 + 10);
        for (int i = 0; i < 60; ++i) {
          const auto a = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          const auto b = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          if (a == b) continue;
          plan.cut_link(a, b, 0, 20);
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             Expect{}, options);
      }));

  // ---- Byzantine takeovers (Theorem 11 model) ------------------------------

  list.push_back(make_planned(
      "byz_silent_little", "ab_consensus", "byzantine", 120, 11,
      "t little nodes are taken over with the silent behavior at round 0",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = byzantine::AbParams::practical(n, t);
        sim::FaultPlan plan;
        Rng rng(seed * 31 + 11);
        std::vector<NodeId> little(static_cast<std::size_t>(params.little_count));
        for (NodeId v = 0; v < params.little_count; ++v) {
          little[static_cast<std::size_t>(v)] = v;
        }
        rng.shuffle(std::span<NodeId>(little));
        for (std::int64_t i = 0; i < t; ++i) {
          plan.takeover(little[static_cast<std::size_t>(i)], 0, "silent");
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = byzantine::AbParams::practical(n, t);
        return eval_ab(byzantine::run_ab_consensus_plan(params, ab_inputs(n, seed),
                                                        std::move(plan), options),
                       /*expect_max_rule=*/false);
      }));

  list.push_back(make_planned(
      "byz_equivocators", "ab_consensus", "byzantine", 120, 11,
      "t little nodes equivocate (sign 0 to odd peers, 1 to even) in DS round 0",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        const auto params = byzantine::AbParams::practical(n, t);
        sim::FaultPlan plan;
        for (std::int64_t i = 0; i < t; ++i) {
          plan.takeover(static_cast<NodeId>(i * 3 % params.little_count), 0, "equivocate");
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = byzantine::AbParams::practical(n, t);
        return eval_ab(byzantine::run_ab_consensus_plan(params, ab_inputs(n, seed),
                                                        std::move(plan), options),
                       /*expect_max_rule=*/false);
      }));

  list.push_back(make_planned(
      "byz_flooders", "ab_consensus", "byzantine", 120, 11,
      "t nodes flood forged chains, bogus certificates, and garbage bodies",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        for (std::int64_t i = 0; i < t; ++i) {
          plan.takeover(static_cast<NodeId>((i * 7 + 1) % n), 0, "flood");
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = byzantine::AbParams::practical(n, t);
        return eval_ab(byzantine::run_ab_consensus_plan(params, ab_inputs(n, seed),
                                                        std::move(plan), options),
                       /*expect_max_rule=*/false);
      }));

  list.push_back(make_planned(
      "byz_midrun_takeover", "ab_consensus", "byzantine", 120, 11,
      "the adversary adaptively takes over t honest little nodes mid-Dolev-Strong "
      "(round 3): their earlier honest relays are already in flight",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        const auto params = byzantine::AbParams::practical(n, t);
        sim::FaultPlan plan;
        for (std::int64_t i = 0; i < t; ++i) {
          plan.takeover(static_cast<NodeId>(i * 2 % params.little_count), 3, "silent");
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = byzantine::AbParams::practical(n, t);
        return eval_ab(byzantine::run_ab_consensus_plan(params, ab_inputs(n, seed),
                                                        std::move(plan), options),
                       /*expect_max_rule=*/false);
      }));

  // ---- mixed regimes -------------------------------------------------------

  list.push_back(make_planned(
      "mixed_crash_omission_split", "few_crashes", "mixed", 200, 30,
      "one plan composes all crash-model-compatible fault classes: a third of t crashes "
      "in a burst, a third gets omission windows, plus an early partition",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = ConsensusParams::practical(n, t);
        sim::FaultPlan plan;
        // Disjoint victim pools: crashes among [0, n/2), omissions among [n/2, n).
        plan.burst_crashes(n / 2, t / 3, 2, seed * 31 + 12);
        for (std::int64_t i = 0; i < t / 3; ++i) {
          plan.omission(static_cast<NodeId>(n / 2 + i * 3), 0, params.flood_rounds_little / 3,
                        /*send=*/true, /*recv=*/true);
        }
        plan.split_at(n - n / 10, n, 4, 10);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        return run_consensus(ConsensusParams::practical(n, t), false, std::move(plan), seed,
                             Expect{}, options);
      }));

  list.push_back(make_planned(
      "mixed_byz_crash_ab", "ab_consensus", "mixed", 120, 11,
      "authenticated consensus under a Byzantine + crash mixture: t/2 takeovers at "
      "round 0 and t/2 crashes during Dolev-Strong",
      [](std::uint64_t, NodeId n, std::int64_t t) {
        const auto params = byzantine::AbParams::practical(n, t);
        sim::FaultPlan plan;
        for (std::int64_t i = 0; i < t / 2; ++i) {
          plan.takeover(static_cast<NodeId>(i), 0, "flood");
        }
        for (std::int64_t i = 0; i < t - t / 2; ++i) {
          plan.crash_at(static_cast<NodeId>(params.little_count + i), 2 + i, 0.5);
        }
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = byzantine::AbParams::practical(n, t);
        return eval_ab(byzantine::run_ab_consensus_plan(params, ab_inputs(n, seed),
                                                        std::move(plan), options),
                       /*expect_max_rule=*/false);
      }));

  list.push_back(make_planned(
      "checkpoint_crash_boundary", "checkpointing", "crash", 150, 20,
      "checkpointing with a crash burst at the gossip/consensus boundary",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = core::CheckpointParams::practical(n, t);
        const Round boundary =
            2 * params.gossip.phases * (params.gossip.probe_gamma + 3) + 3;
        sim::FaultPlan plan;
        plan.burst_crashes(n, t, boundary, seed * 31 + 13);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        (void)seed;
        const auto params = core::CheckpointParams::practical(n, t);
        return eval_checkpointing(core::run_checkpointing(
            params, sim::make_plan_injector(std::move(plan)), options));
      }));

  list.push_back(make_planned(
      "checkpoint_omission_gossip", "checkpointing", "omission", 150, 20,
      "checkpointing with t send-omission nodes during the gossip part",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        const auto params = core::CheckpointParams::practical(n, t);
        const Round gossip_end =
            2 * params.gossip.phases * (params.gossip.probe_gamma + 3) + 3;
        sim::FaultPlan plan;
        plan.random_omissions(n, t, 0, gossip_end, /*send=*/true, /*recv=*/false,
                              seed * 31 + 14);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        (void)seed;
        const auto params = core::CheckpointParams::practical(n, t);
        return eval_checkpointing(core::run_checkpointing(
            params, sim::make_plan_injector(std::move(plan)), options));
      }));

  // ---- timing faults: deterministic delays ---------------------------------

  // All min_flood entries share one protocol half (see run_min_flood); the
  // horizon is fixed at 12 rounds, so every verdict below is a statement
  // about whether the plan's delays beat or lose to the decide round.

  list.push_back(make_min_flood(
      "delay_fixed_pipe", "delay", 64, 8,
      "every message lags exactly 2 rounds (a uniform pipeline delay); all guarantees "
      "survive because the lag is far inside the horizon",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 15).delay_all(0, sim::kRoundForever, 2, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_uniform_jitter", "delay", 64, 8,
      "per-message uniform jitter in [0, 3] on every link for the whole run",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 16).delay_all(0, sim::kRoundForever, 0, 3);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_burst_window", "delay", 64, 8,
      "a 3-round congestion burst (lag 4) in rounds [3, 6) after the minimum has "
      "already flooded once",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 17).delay_all(3, 6, 4, 4);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_per_link_mesh", "delay", 64, 8,
      "40 random directed links each get an independent [1, 4] delay rule; undelayed "
      "links keep the flood fast",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 18);
        Rng rng(seed * 31 + 18);
        for (int i = 0; i < 40; ++i) {
          const auto a = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          const auto b = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          if (a == b) continue;
          plan.delay(a, b, 0, sim::kRoundForever, 1, 4);
        }
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_asym_halves", "delay", 64, 8,
      "asymmetric lag: everything the lower half sends is held 3 rounds (one wildcard-"
      "destination rule per source), the upper half sends at full speed",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 19);
        for (NodeId src = 0; src < n / 2; ++src) {
          plan.delay(src, kNoNode, 0, sim::kRoundForever, 3, 3);
        }
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_horizon_edge", "delay", 64, 8,
      "lag 9 against horizon 12: only the round-0 broadcasts arrive before the decide "
      "round, and they alone carry every input",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 20).delay_all(0, sim::kRoundForever, 9, 9);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_parallel_flood", "delay", 600, 75,
      "n=600, sized for the parallel stepper (the default threads derive its width from "
      "the usable CPUs; fleet workers step serially), with every message jittered in "
      "[1, 2]; the delay queue must stay bit-identical across thread counts",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 21).delay_all(0, sim::kRoundForever, 1, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_zero_noop", "delay", 64, 8,
      "an armed all-links rule whose lag is always 0: the delay plumbing is exercised "
      "but no message is ever parked",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 22).delay_all(0, sim::kRoundForever, 0, 0);
        return plan;
      }));

  // ---- timing faults: GST partial synchrony --------------------------------

  list.push_back(make_min_flood(
      "gst_early_stabilize", "gst", 64, 8,
      "adversarial delays until GST=4, then delta=2: pre-GST sends are readable by "
      "GST+delta, far inside the horizon",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 23).gst(4, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_late_stabilize", "gst", 64, 8,
      "GST=10 lands just before the horizon: every pre-GST send is readable by round "
      "12, the last round that still counts",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 24).gst(10, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_tight_delta", "gst", 64, 8,
      "delta=1 after GST=6: the network is bit-for-bit synchronous once stabilized",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 25).gst(6, 1);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_wide_delta", "gst", 64, 8,
      "GST=2 with a loose delta=6: stabilization comes early but every delivery may "
      "still lag up to 5 rounds",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 26).gst(2, 6);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_beyond_horizon", "gst", 64, 8,
      "GST=40 is after every node has decided: the whole run is adversarially "
      "asynchronous, so only termination and validity are promised",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 27).gst(40, 4);
        return plan;
      },
      Expect{/*termination=*/true, /*agreement=*/false, /*validity=*/true}));

  list.push_back(make_min_flood(
      "gst_decide_boundary", "gst", 64, 8,
      "GST lands exactly on the decide round: pre-GST sends may be readable one round "
      "too late, so agreement is not promised (termination + validity are)",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 28).gst(kMinFloodHorizon, 2);
        return plan;
      },
      Expect{/*termination=*/true, /*agreement=*/false, /*validity=*/true}));

  // ---- timing faults: early-deciding variant -------------------------------

  list.push_back(make_min_flood(
      "early_decide_fastpath", "delay", 64, 8,
      "early-deciding min-flood under [0, 1] jitter: nodes decide as soon as they have "
      "heard every peer, rounds ahead of the horizon",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 29).delay_all(0, sim::kRoundForever, 0, 1);
        return plan;
      },
      Expect{}, /*early_decide=*/true));

  list.push_back(make_min_flood(
      "early_decide_staggered", "delay", 64, 8,
      "early deciders must wait out 8 slow sources (lag 2 on everything they send) "
      "before the heard-from-everyone bar is met",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 30);
        for (NodeId src = 0; src < 8; ++src) {
          plan.delay(src, kNoNode, 0, sim::kRoundForever, 2, 2);
        }
        return plan;
      },
      Expect{}, /*early_decide=*/true));

  list.push_back(make_min_flood(
      "early_decide_gst", "gst", 64, 8,
      "early-deciding min-flood under GST=5, delta=2: decisions spread across rounds "
      "as peers stabilize at different times",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 31).gst(5, 2);
        return plan;
      },
      Expect{}, /*early_decide=*/true));

  // ---- timing faults composed with the classic fault classes ---------------

  list.push_back(make_min_flood(
      "delay_crash_burst", "mixed", 64, 8,
      "t crashes in a round-1 burst on top of a uniform lag of 1; the victims' round-0 "
      "broadcasts are already in flight and still deliver",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 32);
        plan.burst_crashes(n, t, 1, seed * 31 + 32);
        plan.delay_all(0, sim::kRoundForever, 1, 1);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_crash_staggered", "mixed", 64, 8,
      "one crash every 2 rounds from round 1 under [0, 2] jitter: relays are redundant "
      "in a full broadcast, so agreement survives every loss/lag interleaving",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 33);
        plan.staggered_crashes(n, t, 1, 2, seed * 31 + 33);
        plan.delay_all(0, sim::kRoundForever, 0, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_partition_overlap", "mixed", 64, 8,
      "a quarter of the nodes are split off for rounds [2, 6) while every message lags "
      "1: messages parked before the split outrun the partition",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 34);
        plan.split_at(n - n / 4, n, 2, 6);
        plan.delay_all(0, sim::kRoundForever, 1, 1);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_link_storm", "mixed", 64, 8,
      "30 random symmetric link cuts for the first 10 rounds plus [0, 2] jitter "
      "everywhere; the flood routes around both",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 35);
        Rng rng(seed * 31 + 35);
        for (int i = 0; i < 30; ++i) {
          const auto a = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          const auto b = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          if (a == b) continue;
          plan.cut_link(a, b, 0, 10);
        }
        plan.delay_all(0, sim::kRoundForever, 0, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_omission_mix", "mixed", 64, 8,
      "t send-omission nodes for rounds [0, 6) plus a uniform lag of 1: the silenced "
      "inputs surface at round 6 and still beat the horizon",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 36);
        plan.random_omissions(n, t, 0, 6, /*send=*/true, /*recv=*/false, seed * 31 + 36);
        plan.delay_all(0, sim::kRoundForever, 1, 1);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_crash_compose", "mixed", 64, 8,
      "a round-1 crash burst under GST=6, delta=2: every surviving round-0 broadcast "
      "is readable by round 8",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 37);
        plan.burst_crashes(n, t, 1, seed * 31 + 37);
        plan.gst(6, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_partition_compose", "mixed", 64, 8,
      "an eighth of the nodes split off for rounds [1, 4) under GST=5, delta=2",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 38);
        plan.split_at(n - n / 8, n, 1, 4);
        plan.gst(5, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_omission_compose", "mixed", 64, 8,
      "t send-omission nodes for rounds [0, 5) under GST=6, delta=2: the late inputs "
      "ride the stabilized network",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 39);
        plan.random_omissions(n, t, 0, 5, /*send=*/true, /*recv=*/false, seed * 31 + 39);
        plan.gst(6, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "delay_takeover_silence", "mixed", 64, 8,
      "t nodes go Byzantine-silent at round 2 while every message lags [1, 2]; their "
      "round-0 and round-1 broadcasts are already parked and still deliver",
      [](std::uint64_t seed, NodeId n, std::int64_t t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 40);
        for (std::int64_t i = 0; i < t; ++i) {
          plan.takeover(static_cast<NodeId>((i * 5 + 3) % n), 2, "silent");
        }
        plan.delay_all(0, sim::kRoundForever, 1, 2);
        return plan;
      }));

  list.push_back(make_min_flood(
      "gst_churn_everything", "mixed", 64, 8,
      "every fault class at once under GST=7, delta=2: 2 crashes, 2 send-omission "
      "windows, a cut link, and 2 silent takeovers",
      [](std::uint64_t seed, NodeId n, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 41);
        plan.gst(7, 2);
        plan.crash_at(n - 1, 1, 0.0).crash_at(n - 2, 1, 0.0);
        plan.omission(1, 0, 5, /*send=*/true, /*recv=*/false);
        plan.omission(2, 0, 5, /*send=*/true, /*recv=*/false);
        plan.cut_link(4, 5, 0, 8);
        plan.takeover(6, 3, "silent").takeover(7, 3, "silent");
        return plan;
      }));

  list.push_back(make_planned(
      "delay_gossip_window", "gossip", "delay", 110, 14,
      "the paper's gossip protocol under [0, 1] jitter on every link: empirically the "
      "two gossip conditions and rumor integrity survive one round of slack",
      [](std::uint64_t seed, NodeId, std::int64_t) {
        sim::FaultPlan plan;
        plan.with_seed(seed * 31 + 42).delay_all(0, sim::kRoundForever, 0, 1);
        return plan;
      },
      [](std::uint64_t seed, NodeId n, std::int64_t t, sim::FaultPlan plan,
         const core::RunOptions& options) {
        const auto params = core::GossipParams::practical(n, t);
        return eval_gossip(core::run_gossip(params, gossip_rumors(n, seed),
                                            sim::make_plan_injector(std::move(plan)),
                                            options));
      }));

  // ---- service plane (lft_serve's ordering slot) ---------------------------

  // Fault-free and seed-independent by design: this is the exact execution a
  // live lft_serve commit slot steps on its pooled engine, registered so
  // LFTTRACE files recorded from live traffic replay against a fresh engine
  // (`lft_forensics replay`). Adaptive-style entry (no plan half): the
  // scenario has no fault plan to rebuild or perturb.
  list.push_back(Scenario{
      "service_slot_commit", "few_crashes", "none", 7, 1,
      "one lft_serve commit slot: fault-free few-crashes consensus, all inputs 1 — "
      "the fresh-engine twin of a live slot execution",
      [](std::uint64_t seed, NodeId n, std::int64_t t, const core::RunOptions& options) {
        (void)seed;
        auto outcome = service::run_slot_on_engine(n, t, options);
        ScenarioResult result;
        result.ok = outcome.committed;
        result.detail = "committed=" + yn(outcome.committed);
        result.report = std::move(outcome.report);
        return result;
      },
      nullptr, nullptr});

  return list;
}

}  // namespace

std::int64_t Scenario::scaled_t(NodeId size) const {
  LFT_ASSERT(n > 0);
  return std::max<std::int64_t>(1, t * size / n);
}

std::uint64_t fingerprint(const sim::Report& report) {
  std::uint64_t h = 0x4c46545343454e41ULL;  // "LFTSCENA"
  h = hash_combine(h, static_cast<std::uint64_t>(report.rounds));
  h = hash_combine(h, report.completed ? 1 : 0);
  const auto& m = report.metrics;
  h = hash_combine(h, static_cast<std::uint64_t>(m.messages_total));
  h = hash_combine(h, static_cast<std::uint64_t>(m.bits_total));
  h = hash_combine(h, static_cast<std::uint64_t>(m.messages_honest));
  h = hash_combine(h, static_cast<std::uint64_t>(m.bits_honest));
  h = hash_combine(h, static_cast<std::uint64_t>(m.max_sends_per_node));
  h = hash_combine(h, static_cast<std::uint64_t>(m.fallback_pulls));
  h = hash_combine(h, static_cast<std::uint64_t>(m.rounds));
  h = hash_combine(h, static_cast<std::uint64_t>(m.peak_round_messages));
  for (const auto& s : report.nodes) {
    std::uint64_t bits = 0;
    bits |= s.crashed ? 1u : 0u;
    bits |= s.halted ? 2u : 0u;
    bits |= s.decided ? 4u : 0u;
    bits |= s.byzantine ? 8u : 0u;
    bits |= s.omission ? 16u : 0u;
    h = hash_combine(h, bits);
    h = hash_combine(h, static_cast<std::uint64_t>(s.crash_round));
    h = hash_combine(h, s.decision);
    h = hash_combine(h, static_cast<std::uint64_t>(s.sends));
  }
  return h;
}

const std::vector<Scenario>& all_scenarios() {
  static const std::vector<Scenario> registry = build_registry();
  return registry;
}

const Scenario* find_scenario(const std::string& name) {
  for (const auto& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---- fleet sweeps ----------------------------------------------------------

std::vector<SweepItem> sweep(const std::string& name, std::span<const std::uint64_t> seeds,
                             std::span<const NodeId> sizes) {
  const Scenario* scenario = find_scenario(name);
  LFT_ASSERT_MSG(scenario != nullptr, "sweep: unknown scenario name");
  std::vector<SweepItem> items;
  items.reserve(seeds.size() * std::max<std::size_t>(1, sizes.size()));
  for (const std::uint64_t seed : seeds) {
    if (sizes.empty()) {
      items.push_back(SweepItem{scenario, seed, scenario->n, scenario->t});
      continue;
    }
    for (const NodeId size : sizes) {
      items.push_back(SweepItem{scenario, seed, size, scenario->scaled_t(size)});
    }
  }
  return items;
}

std::vector<SweepOutcome> run_sweep(sim::FleetRunner& fleet, std::span<const SweepItem> items) {
  // Jobs write into a shared slot array (one distinct slot each, so no
  // locking); shared ownership keeps the slots alive even if this frame
  // unwinds while queued jobs are still running.
  auto slots = std::make_shared<std::vector<SweepOutcome>>(items.size());
  std::vector<sim::FleetRunner::Handle> handles;
  handles.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SweepItem item = items[i];
    // Filled before the job is queued: a job that throws (the runner
    // fulfills its handle with a default Report) still leaves a slot whose
    // item is valid and whose ok stays false.
    (*slots)[i].item = item;
    handles.push_back(fleet.submit(sim::FleetJobObs([item, slots, i](
                                       sim::EngineScratch* scratch, obs::Registry* telemetry) {
      const auto start = std::chrono::steady_clock::now();
      core::RunOptions options;
      options.scratch = scratch;
      options.telemetry = telemetry;
      ScenarioResult result = item.scenario->run_at(item.seed, item.n, item.t, options);
      SweepOutcome& out = (*slots)[i];
      out.ok = result.ok;
      out.detail = std::move(result.detail);
      out.fingerprint = fingerprint(result.report);
      out.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      return std::move(result.report);
    })));
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    (*slots)[i].report = handles[i].take();
  }
  return std::move(*slots);
}

}  // namespace lft::scenarios
