// Tests for the zero-copy message plane: POD Message invariants, payload
// arena integrity across rounds and chunk boundaries, Inbox::with_tag
// boundary cases, the radix delivery sweep's normal form under duplicate
// (receiver, tag, sender) triples, pooled single-port payloads, the
// bit-identity of serial vs parallel stepping on the crash-consensus and
// gossip workloads, and the stepper x scratch identity matrix (Report
// fingerprint plus every RoundDigest) over fanout, crash consensus, gossip,
// Byzantine, delay/GST and the two-level scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "byzantine/ab_consensus.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/single_port.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace lft::sim {
namespace {

using test::lambda_process;

// ---- POD invariants --------------------------------------------------------

TEST(MessagePlane, MessageIsTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<Message>);
  static_assert(sizeof(Message) == 40);
  Message m;
  m.from = 3;
  m.to = 4;
  m.tag = 7;
  m.value = 42;
  Message copy;
  std::memcpy(&copy, &m, sizeof(Message));  // raw relocation must be legal
  EXPECT_EQ(copy.from, 3);
  EXPECT_EQ(copy.value, 42u);
  EXPECT_FALSE(copy.has_body());
  EXPECT_TRUE(copy.body().empty());
}

TEST(MessagePlane, PayloadArenaStableAcrossChunks) {
  PayloadArena arena;
  // Force several chunks, including an oversize allocation.
  std::vector<std::byte> small(100, std::byte{0x11});
  std::vector<std::byte> huge(PayloadArena::kChunkBytes + 123, std::byte{0x22});
  const PayloadView a = arena.store(small);
  const PayloadView b = arena.store(huge);
  const PayloadView c = arena.store(small);
  EXPECT_EQ(a.size(), small.size());
  EXPECT_EQ(b.size(), huge.size());
  EXPECT_EQ(a[0], std::byte{0x11});
  EXPECT_EQ(b[b.size() - 1], std::byte{0x22});
  EXPECT_EQ(c[99], std::byte{0x11});
  EXPECT_EQ(arena.bytes_stored(), 2 * small.size() + huge.size());
  arena.clear();
  EXPECT_EQ(arena.bytes_stored(), 0u);
  // Reuse after clear returns the same storage (no growth).
  const PayloadView a2 = arena.store(small);
  EXPECT_EQ(a2.data(), a.data());
}

// ---- Inbox::with_tag boundary cases ---------------------------------------

Message make_msg(NodeId from, std::uint32_t tag) {
  Message m;
  m.from = from;
  m.to = 0;
  m.tag = tag;
  return m;
}

TEST(MessagePlane, WithTagBoundaries) {
  // Normal form: grouped by tag ascending.
  const std::vector<Message> batch{make_msg(1, 2), make_msg(2, 2), make_msg(1, 5),
                                   make_msg(3, 9)};
  const Inbox inbox{std::span<const Message>(batch)};
  EXPECT_EQ(inbox.with_tag(2).size(), 2u);   // first tag
  EXPECT_EQ(inbox.with_tag(5).size(), 1u);   // middle tag
  EXPECT_EQ(inbox.with_tag(9).size(), 1u);   // last tag
  EXPECT_TRUE(inbox.with_tag(0).empty());    // below the first tag
  EXPECT_TRUE(inbox.with_tag(4).empty());    // between tags
  EXPECT_TRUE(inbox.with_tag(10).empty());   // above the last tag
}

TEST(MessagePlane, WithTagSingleMessageInbox) {
  const std::vector<Message> batch{make_msg(7, 3)};
  const Inbox inbox{std::span<const Message>(batch)};
  EXPECT_EQ(inbox.with_tag(3).size(), 1u);
  EXPECT_EQ(inbox.with_tag(3)[0].from, 7);
  EXPECT_TRUE(inbox.with_tag(2).empty());
  EXPECT_TRUE(inbox.with_tag(4).empty());
}

TEST(MessagePlane, WithTagEmptyInbox) {
  const Inbox inbox;
  EXPECT_TRUE(inbox.with_tag(0).empty());
  EXPECT_TRUE(inbox.empty());
}

// ---- delivery normal form under the radix sweep ---------------------------

TEST(MessagePlane, DuplicateTriplesPreserveSendOrder) {
  // Two senders each send three messages with the *same* (receiver, tag)
  // and one with a second tag, interleaved with sends to another receiver.
  // The radix sweep must produce receiver-then-tag groups, sender-ascending
  // within a group, send-order within a sender.
  Engine engine(3, {});
  std::vector<std::uint64_t> seen;
  for (NodeId v = 1; v < 3; ++v) {
    engine.set_process(v, lambda_process([](Context& ctx, const Inbox&) {
                         if (ctx.round() == 0) {
                           const auto base = static_cast<std::uint64_t>(ctx.self()) * 100;
                           ctx.send(0, 8, base + 1);  // higher tag first
                           ctx.send(0, 4, base + 2);
                           ctx.send(0, 4, base + 3);  // duplicate triple of ^
                           ctx.send(0, 4, base + 4);  // and again
                         }
                         ctx.halt();
                       }));
  }
  engine.set_process(0, lambda_process([&seen](Context& ctx, const Inbox& inbox) {
                       for (const auto& m : inbox) seen.push_back(m.value);
                       if (ctx.round() >= 1) ctx.halt();
                     }));
  engine.run();
  const std::vector<std::uint64_t> expected{102, 103, 104, 202, 203, 204, 101, 201};
  EXPECT_EQ(seen, expected);
}

TEST(MessagePlane, DegenerateTagsStillNormalForm) {
  // Tags past the counting-sort domain fall back to a comparison sort; the
  // normal form must be unchanged.
  Engine engine(2, {});
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
  engine.set_process(1, lambda_process([](Context& ctx, const Inbox&) {
                       if (ctx.round() == 0) {
                         ctx.send(0, 0xFFFFFFFFu, 1);
                         ctx.send(0, 3, 2);
                         ctx.send(0, 0x10000u, 3);
                         ctx.send(0, 3, 4);
                       }
                       ctx.halt();
                     }));
  engine.set_process(0, lambda_process([&seen](Context& ctx, const Inbox& inbox) {
                       for (const auto& m : inbox) seen.emplace_back(m.tag, m.value);
                       if (ctx.round() >= 1) ctx.halt();
                     }));
  engine.run();
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected{
      {3, 2}, {3, 4}, {0x10000u, 3}, {0xFFFFFFFFu, 1}};
  EXPECT_EQ(seen, expected);
}

// ---- payload integrity across the double-buffered arenas -------------------

TEST(MessagePlane, PayloadBytesSurviveDelivery) {
  // Bodies of many sizes (including > one arena chunk) sent every round for
  // several rounds: each receipt must read back exactly the sent pattern,
  // exercising arena reuse across the double buffer.
  const NodeId n = 4;
  const Round rounds = 6;
  Engine engine(n, {});
  std::int64_t checked = 0;
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(v, lambda_process([&checked, n, rounds](Context& ctx,
                                                               const Inbox& inbox) {
                         for (const auto& m : inbox) {
                           const auto body = m.body();
                           ASSERT_EQ(body.size(), m.value);
                           const auto fill = static_cast<std::byte>(m.from * 16 + 1);
                           for (const std::byte b : body) ASSERT_EQ(b, fill);
                           ++checked;
                         }
                         if (ctx.round() >= rounds) {
                           ctx.halt();
                           return;
                         }
                         const std::size_t len =
                             ctx.round() % 2 == 0
                                 ? 64u * static_cast<std::size_t>(ctx.self() + 1)
                                 : PayloadArena::kChunkBytes + 7;
                         const std::vector<std::byte> body(
                             len, static_cast<std::byte>(ctx.self() * 16 + 1));
                         ctx.send((ctx.self() + 1) % n, 1, len, 1 + 8 * len, body);
                       }));
  }
  const Report report = engine.run();
  EXPECT_EQ(checked, static_cast<std::int64_t>(n) * rounds);
  EXPECT_TRUE(report.completed);
}

TEST(MessagePlane, PayloadBytesSurviveDelayedDelivery) {
  // Same pattern as above, but every message rides the due-round delay
  // queue (lag 1..3): bodies are copied into the per-bucket arena at park
  // time and must read back exactly at injection, including oversize bodies
  // spanning arena chunks. Receivers stay up well past the longest lag, so
  // every parked message must eventually deliver — none may vanish.
  const NodeId n = 4;
  const Round rounds = 6;
  EngineConfig config;
  Engine engine(n, config);
  std::int64_t checked = 0;
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(v, lambda_process([&checked, n, rounds](Context& ctx,
                                                               const Inbox& inbox) {
                         for (const auto& m : inbox) {
                           const auto body = m.body();
                           ASSERT_EQ(body.size(), m.value);
                           const auto fill = static_cast<std::byte>(m.from * 16 + 1);
                           for (const std::byte b : body) ASSERT_EQ(b, fill);
                           ++checked;
                         }
                         if (ctx.round() >= rounds + 8) {
                           ctx.halt();
                           return;
                         }
                         if (ctx.round() >= rounds) return;
                         const std::size_t len =
                             ctx.round() % 2 == 0
                                 ? 64u * static_cast<std::size_t>(ctx.self() + 1)
                                 : PayloadArena::kChunkBytes + 7;
                         const std::vector<std::byte> body(
                             len, static_cast<std::byte>(ctx.self() * 16 + 1));
                         ctx.send((ctx.self() + 1) % n, 1, len, 1 + 8 * len, body);
                       }));
  }
  FaultPlan plan;
  plan.delay_all(0, kRoundForever, 1, 3);
  engine.add_fault_injector(make_plan_injector(std::move(plan)));
  const Report report = engine.run();
  EXPECT_EQ(checked, static_cast<std::int64_t>(n) * rounds);
  EXPECT_TRUE(report.completed);
}

// ---- single-port pooled payloads -------------------------------------------

TEST(MessagePlane, SinglePortQueuePoolsPayloads) {
  // Node 0 pushes a payload every round; node 1 polls only every other
  // round, building a backlog that crosses the queue-compaction threshold.
  // Every dequeued payload must match its message's value-encoded pattern.
  SinglePortConfig config;
  SinglePortEngine engine(2, config);
  std::int64_t received = 0;
  engine.set_process(
      0, test::sp_lambda([scratch = std::vector<std::byte>()](
                             SpContext& ctx, const std::optional<Message>&) mutable {
        SpAction action;
        if (ctx.round() < 24) {
          // Process-owned scratch: valid until the engine enqueues the send.
          scratch.assign(static_cast<std::size_t>(ctx.round()) + 1,
                         static_cast<std::byte>(ctx.round() + 1));
          action.send = SpSend{1, 2, static_cast<std::uint64_t>(ctx.round()), 1,
                               PayloadView(scratch)};
        } else {
          ctx.halt();
        }
        return action;
      }));
  engine.set_process(1, test::sp_lambda([&received](SpContext& ctx,
                                                    const std::optional<Message>& r) {
                       if (r.has_value()) {
                         const auto body = r->body();
                         EXPECT_EQ(body.size(), r->value + 1);
                         for (const std::byte b : body) {
                           EXPECT_EQ(b, static_cast<std::byte>(r->value + 1));
                         }
                         ++received;
                       }
                       SpAction action;
                       if (ctx.round() % 2 == 0) action.poll = 0;
                       if (ctx.round() >= 60) ctx.halt();
                       return action;
                     }));
  const Report report = engine.run();
  EXPECT_TRUE(report.completed);
  EXPECT_GE(received, 20);
}

// ---- serial vs parallel bit-identity ---------------------------------------

void expect_reports_identical(const Report& a, const Report& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.metrics.messages_total, b.metrics.messages_total);
  EXPECT_EQ(a.metrics.bits_total, b.metrics.bits_total);
  EXPECT_EQ(a.metrics.messages_honest, b.metrics.messages_honest);
  EXPECT_EQ(a.metrics.bits_honest, b.metrics.bits_honest);
  EXPECT_EQ(a.metrics.max_sends_per_node, b.metrics.max_sends_per_node);
  EXPECT_EQ(a.metrics.fallback_pulls, b.metrics.fallback_pulls);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.peak_round_messages, b.metrics.peak_round_messages);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t v = 0; v < a.nodes.size(); ++v) {
    EXPECT_EQ(a.nodes[v].crashed, b.nodes[v].crashed) << "node " << v;
    EXPECT_EQ(a.nodes[v].crash_round, b.nodes[v].crash_round) << "node " << v;
    EXPECT_EQ(a.nodes[v].halted, b.nodes[v].halted) << "node " << v;
    EXPECT_EQ(a.nodes[v].decided, b.nodes[v].decided) << "node " << v;
    EXPECT_EQ(a.nodes[v].decision, b.nodes[v].decision) << "node " << v;
    EXPECT_EQ(a.nodes[v].byzantine, b.nodes[v].byzantine) << "node " << v;
    EXPECT_EQ(a.nodes[v].omission, b.nodes[v].omission) << "node " << v;
    EXPECT_EQ(a.nodes[v].sends, b.nodes[v].sends) << "node " << v;
  }
}

TEST(MessagePlane, ParallelSteppingBitIdenticalFanout) {
  // Raw engine workload with payloads: enough active nodes to engage the
  // worker pool (the parallel threshold is 256 active).
  const NodeId n = 512;
  auto build_and_run = [n](int threads) {
    EngineConfig config;
    config.threads = threads;
    Engine engine(n, config);
    for (NodeId v = 0; v < n; ++v) {
      engine.set_process(v, lambda_process([n](Context& ctx, const Inbox& inbox) {
                           std::uint64_t acc = 0;
                           for (const auto& m : inbox) {
                             for (const std::byte b : m.body()) {
                               acc += static_cast<std::uint64_t>(b);
                             }
                           }
                           if (ctx.round() >= 5) {
                             ctx.halt();
                             return;
                           }
                           const std::vector<std::byte> body(
                               static_cast<std::size_t>(ctx.self() % 50),
                               static_cast<std::byte>(ctx.self()));
                           for (int i = 0; i < 3; ++i) {
                             const auto to = static_cast<NodeId>(
                                 (ctx.self() * 13 + i * 7 + acc) % n);
                             ctx.send(to, static_cast<std::uint32_t>(i), acc, 1, body);
                           }
                         }));
    }
    return engine.run();
  };
  const Report serial = build_and_run(1);
  const Report parallel = build_and_run(4);
  expect_reports_identical(serial, parallel);
}

TEST(MessagePlane, ParallelSteppingBitIdenticalCrashConsensus) {
  const NodeId n = 512;
  const std::int64_t t = 40;
  const auto params = core::ConsensusParams::practical(n, t);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) inputs[static_cast<std::size_t>(v)] = (v * 3 + 1) % 2;
  auto run_with_threads = [&](int threads) {
    core::RunOptions options;
    options.threads = threads;
    return core::run_system(
        n, t,
        [&](NodeId v) {
          return core::make_few_crashes_process(params, v,
                                                inputs[static_cast<std::size_t>(v)]);
        },
        make_scheduled(random_crash_schedule(n, t, 0, 4 * t, 0.5, 99)), options);
  };
  const Report serial = run_with_threads(1);
  const Report parallel = run_with_threads(3);
  EXPECT_TRUE(serial.completed);
  expect_reports_identical(serial, parallel);
}

TEST(MessagePlane, ParallelSteppingBitIdenticalGossip) {
  const NodeId n = 400;
  const std::int64_t t = 30;
  const auto params = core::GossipParams::practical(n, t);
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) rumors[static_cast<std::size_t>(v)] = 1000u + v;
  auto run_with_threads = [&](int threads) {
    core::RunOptions options;
    options.threads = threads;
    return core::run_gossip(params, rumors,
                            make_scheduled(random_crash_schedule(n, t, 0, 40, 0.5, 7)),
                            options);
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  EXPECT_TRUE(serial.termination);
  expect_reports_identical(serial.report, parallel.report);
}

// ---- stepper x scratch identity --------------------------------------------
//
// The parallel stepper and scratch adoption are speed knobs, never semantics
// knobs: every combination must reproduce the serial cold run's Report
// fingerprint AND every per-round digest. Each workload below enters through
// a different path (EngineConfig directly, core::RunOptions through the
// protocol runners, the scenario registry) so the plumbing is covered end to
// end.

/// Everything an execution exposes that could possibly differ: the Report
/// fingerprint plus the full RoundDigest stream.
struct Capture {
  std::uint64_t fingerprint = 0;
  std::vector<RoundDigest> rounds;
};

class DigestLog final : public TraceSink {
 public:
  void on_round(const RoundDigest& digest) override { rounds.push_back(digest); }
  std::vector<RoundDigest> rounds;
};

void expect_capture_eq(const Capture& ref, const Capture& got, const std::string& label) {
  EXPECT_EQ(ref.fingerprint, got.fingerprint) << label;
  ASSERT_EQ(ref.rounds.size(), got.rounds.size()) << label;
  for (std::size_t r = 0; r < ref.rounds.size(); ++r) {
    EXPECT_TRUE(ref.rounds[r] == got.rounds[r]) << label << " diverges at round " << r;
  }
}

/// One engine/runner configuration under test. The serial cold run is the
/// reference every other combination must match bit for bit.
struct Combo {
  int threads = 1;
  bool scratch = false;
};

std::string combo_label(const char* workload, const Combo& c) {
  return test::case_name(workload, "_t", c.threads, c.scratch ? "_scratch" : "_cold");
}

/// Runs `workload` for every stepper x scratch combination and holds each
/// capture to the serial cold reference.
template <typename Workload>
void check_identity(const char* name, Workload&& workload) {
  const Capture ref = workload(Combo{});
  for (const int threads : {1, 4}) {
    for (const bool scratch : {false, true}) {
      const Combo c{threads, scratch};
      if (threads == 1 && !scratch) continue;
      expect_capture_eq(ref, workload(c), combo_label(name, c));
    }
  }
}

/// RunOptions for a combo, recording digests into `log`.
core::RunOptions combo_options(const Combo& c, EngineScratch& scratch, DigestLog& log) {
  core::RunOptions options;
  options.threads = c.threads;
  options.scratch = c.scratch ? &scratch : nullptr;
  options.trace = &log;
  return options;
}

TEST(MessagePlaneIdentity, FanoutSteppersScratch) {
  // n >= 256 engages the parallel stepper; mixed bodied/bodyless sends cover
  // both the inline bodyless fast path and the arena body path.
  check_identity("fanout", [](const Combo& c) {
    static constexpr NodeId kN = 300;
    static constexpr Round kRounds = 4;
    DigestLog log;
    EngineScratch scratch;
    EngineConfig config;
    config.threads = c.threads;
    config.scratch = c.scratch ? &scratch : nullptr;
    config.trace = &log;
    Engine engine(kN, config);
    const std::vector<std::byte> body(24, std::byte{0x5A});
    for (NodeId v = 0; v < kN; ++v) {
      engine.set_process(v, lambda_process([&body](Context& ctx, const Inbox&) {
                           if (ctx.round() >= kRounds) {
                             ctx.halt();
                             return;
                           }
                           for (NodeId to = 0; to < kN; to += 3) {
                             const auto tag = static_cast<std::uint32_t>(to % 7);
                             if (to % 5 == 0) {
                               ctx.send(to, tag, static_cast<std::uint64_t>(to),
                                        1 + body.size() * 8, body);
                             } else {
                               ctx.send(to, tag, static_cast<std::uint64_t>(to));
                             }
                           }
                         }));
    }
    const Report report = engine.run();
    return Capture{scenarios::fingerprint(report), std::move(log.rounds)};
  });
}

TEST(MessagePlaneIdentity, ConsensusWithCrashesSteppersScratch) {
  // Planned crashes exercise the delivery slow path (compaction invalidates
  // the send-time sort keys; the traced header sum subtracts dropped
  // messages).
  check_identity("consensus", [](const Combo& c) {
    constexpr NodeId kN = 48;
    constexpr std::int64_t kT = 6;
    const auto params = core::ConsensusParams::practical(kN, kT);
    std::vector<int> inputs(static_cast<std::size_t>(kN));
    for (std::size_t v = 0; v < inputs.size(); ++v) inputs[v] = static_cast<int>(v % 2);
    FaultPlan plan;
    plan.crash_at(3, 1).crash_at(17, 2, /*keep_fraction=*/0.5).omission(9, 1, 3, true, true);
    DigestLog log;
    EngineScratch scratch;
    const Report report = core::run_system(
        kN, kT,
        [&](NodeId v) {
          return core::make_few_crashes_process(params, v, inputs[static_cast<std::size_t>(v)]);
        },
        make_plan_injector(plan), combo_options(c, scratch, log));
    return Capture{scenarios::fingerprint(report), std::move(log.rounds)};
  });
}

TEST(MessagePlaneIdentity, GossipSteppersScratch) {
  check_identity("gossip", [](const Combo& c) {
    constexpr NodeId kN = 64;
    const auto params = core::GossipParams::practical(kN, 5);
    std::vector<std::uint64_t> rumors(static_cast<std::size_t>(kN));
    for (std::size_t v = 0; v < rumors.size(); ++v) rumors[v] = 0xC0FFEE00u + v;
    DigestLog log;
    EngineScratch scratch;
    const auto outcome =
        core::run_gossip(params, rumors, nullptr, combo_options(c, scratch, log));
    EXPECT_TRUE(outcome.all_good());
    return Capture{scenarios::fingerprint(outcome.report), std::move(log.rounds)};
  });
}

TEST(MessagePlaneIdentity, ByzantineSteppersScratch) {
  // Takeovers make traffic adversarial (equivocation + flooding): message
  // multisets per round are large and irregular, and the honest/total metric
  // split must not move with the stepper.
  check_identity("byzantine", [](const Combo& c) {
    const auto params = byzantine::AbParams::practical(40, 3);
    std::vector<std::uint64_t> inputs(40, 0);
    inputs[11] = 1;
    FaultPlan plan;
    plan.takeover(1, 0, "equivocate").takeover(25, 0, "flood");
    DigestLog log;
    EngineScratch scratch;
    const auto outcome = byzantine::run_ab_consensus_plan(params, inputs, plan,
                                                          combo_options(c, scratch, log));
    EXPECT_TRUE(outcome.termination);
    EXPECT_TRUE(outcome.agreement);
    return Capture{scenarios::fingerprint(outcome.report), std::move(log.rounds)};
  });
}

TEST(MessagePlaneIdentity, DelayedDeliverySteppersScratch) {
  // Timing faults route messages through the due-round delay queue (park in
  // the bucket arena, inject rounds later into the delivery sort) — a code
  // path the other identity workloads never touch. Both a fixed-jitter plan
  // and a GST plan must give the same fingerprint and digest stream on every
  // stepper and scratch mode; the digests include the v2 `delayed` counter,
  // so a thread-dependent parking decision cannot hide.
  for (const char* name : {"delay_uniform_jitter", "gst_early_stabilize"}) {
    const auto* scenario = scenarios::find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    check_identity(name, [scenario](const Combo& c) {
      DigestLog log;
      EngineScratch scratch;
      const auto result = scenario->run_at(/*seed=*/9, scenario->n, scenario->t,
                                           combo_options(c, scratch, log));
      EXPECT_TRUE(result.ok) << scenario->name << ": " << result.detail;
      std::uint64_t parked = 0;
      for (const auto& d : log.rounds) parked += d.delayed;
      EXPECT_GT(parked, 0u) << scenario->name << " parked nothing — dead workload";
      return Capture{scenarios::fingerprint(result.report), std::move(log.rounds)};
    });
  }
}

TEST(MessagePlaneIdentity, TwoLevelScatterDeliversNormalForm) {
  // Large-domain large-batch delivery: n = 4096 and m = n * 64 = 262144 per
  // round clears both two-level gates (m >= 1<<18, domain = n << tag_bits =
  // 65536 >= 32768), so the cache-blocked MSD scatter runs instead of the
  // flat one. Every delivered inbox must equal the oracle built here from
  // the send schedule: the receiver's messages in send order (sender
  // ascending, then send index), stably sorted by tag. The parallel stepper
  // with scratch must then reproduce the serial run bit for bit.
  static constexpr NodeId kN = 4096;
  static constexpr int kFan = 64;
  static constexpr Round kRounds = 2;
  auto dest = [](NodeId from, int i, Round round) {
    return static_cast<NodeId>((static_cast<std::int64_t>(from) * 31 + i * 17 + round) % kN);
  };
  using Seen = std::tuple<std::uint32_t, NodeId, std::uint64_t>;  // (tag, from, value)
  // inboxes[r][v]: what node v received in round r + 1.
  std::vector<std::vector<std::vector<Seen>>> inboxes(
      kRounds, std::vector<std::vector<Seen>>(static_cast<std::size_t>(kN)));
  auto workload = [&](const Combo& c) {
    DigestLog log;
    EngineScratch scratch;
    EngineConfig config;
    config.threads = c.threads;
    config.scratch = c.scratch ? &scratch : nullptr;
    config.trace = &log;
    Engine engine(kN, config);
    for (NodeId v = 0; v < kN; ++v) {
      engine.set_process(v, lambda_process([&, v](Context& ctx, const Inbox& inbox) {
                           if (ctx.round() >= 1) {
                             auto& seen = inboxes[static_cast<std::size_t>(ctx.round() - 1)]
                                                 [static_cast<std::size_t>(v)];
                             seen.clear();
                             for (const auto& m : inbox) {
                               EXPECT_EQ(m.to, v);
                               seen.emplace_back(m.tag, m.from, m.value);
                             }
                           }
                           if (ctx.round() >= kRounds) {
                             ctx.halt();
                             return;
                           }
                           for (int i = 0; i < kFan; ++i) {
                             ctx.send(dest(v, i, ctx.round()), static_cast<std::uint32_t>(i % 7),
                                      static_cast<std::uint64_t>(i));
                           }
                         }));
    }
    const Report report = engine.run();
    EXPECT_EQ(report.metrics.peak_round_messages, static_cast<std::int64_t>(kN) * kFan);
    return Capture{scenarios::fingerprint(report), std::move(log.rounds)};
  };
  const Capture ref = workload(Combo{});
  for (Round r = 0; r < kRounds; ++r) {
    std::vector<std::vector<Seen>> want(static_cast<std::size_t>(kN));
    for (NodeId from = 0; from < kN; ++from) {
      for (int i = 0; i < kFan; ++i) {
        want[static_cast<std::size_t>(dest(from, i, r))].emplace_back(
            static_cast<std::uint32_t>(i % 7), from, static_cast<std::uint64_t>(i));
      }
    }
    for (NodeId v = 0; v < kN; ++v) {
      auto& expected = want[static_cast<std::size_t>(v)];
      std::stable_sort(expected.begin(), expected.end(), [](const Seen& a, const Seen& b) {
        return std::get<0>(a) < std::get<0>(b);
      });
      ASSERT_EQ(inboxes[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)], expected)
          << "round " << r + 1 << " receiver " << v;
    }
  }
  expect_capture_eq(ref, workload(Combo{4, true}), combo_label("twolevel", {4, true}));
}

}  // namespace
}  // namespace lft::sim
