// Tests for the zero-copy message plane: POD Message invariants, payload
// arena integrity across rounds and chunk boundaries, Inbox::with_tag
// boundary cases, the radix delivery sweep's normal form under duplicate
// (receiver, tag, sender) triples, pooled single-port payloads, the
// bit-identity of serial vs parallel stepping on the crash-consensus and
// gossip workloads, the stepper x scratch identity matrix (Report
// fingerprint plus every RoundDigest) over fanout, crash consensus, gossip,
// Byzantine, delay/GST, the partitioned large-batch sort (with an
// inbox oracle at threads 1-4) and the sharded compaction under every
// fault class at threads 1-4, a cross-build pin of a fan-out's
// accounting and digest stream, the stepper's derived worker count
// (EngineThreads), and the delivery-phase telemetry (EngineTelemetry).
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "byzantine/ab_consensus.hpp"
#include "common/cpus.hpp"
#include "common/hash.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "obs/obs.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
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
  using singleport::SpAction;
  using singleport::SpContext;
  using singleport::SpSend;
  Engine engine(2, {});
  std::int64_t received = 0;
  engine.set_process(
      0, test::sp_lambda([scratch = std::vector<std::byte>()](
                             SpContext& ctx, const std::optional<Message>&) mutable {
        SpAction action;
        if (ctx.round() < 24) {
          // Process-owned scratch: valid until the PortProcess emits the send.
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

TEST(MessagePlanePins, FanoutAccountingMatchesReferenceValues) {
  // An engine_hotpath-shaped fan-out (8 sends per node per round to pseudo-
  // random receivers, 7 tags, every third send bodied) whose first four
  // rounds are clean: nobody crashed, halted or asleep and no fault armed.
  // Node 7 is Byzantine from the start, so the honest counters exclude its
  // sends. In round 4 node 11 halts early (later sends to it are lost_dead)
  // and node 13 sleeps past the next round while the fan-out keeps
  // addressing it (delivery wakes it). The literals were recorded from the
  // engine that delivered clean rounds through a separate fast path with
  // send-time accounting; the single compaction pass must reproduce every
  // one, serial and parallel.
  static constexpr NodeId kN = 300;
  static constexpr Round kRounds = 6;
  static constexpr int kFan = 8;
  for (const int threads : {1, 4}) {
    DigestLog log;
    EngineConfig config;
    config.threads = threads;
    config.trace = &log;
    Engine engine(kN, config);
    engine.mark_byzantine(7);
    const std::vector<std::byte> body(32, std::byte{0x5A});
    for (NodeId v = 0; v < kN; ++v) {
      engine.set_process(v, lambda_process([&body, v](Context& ctx, const Inbox&) {
                           if (ctx.round() >= kRounds || (v == 11 && ctx.round() == 4)) {
                             ctx.halt();
                             return;
                           }
                           for (int i = 0; i < kFan; ++i) {
                             const auto to = static_cast<NodeId>(
                                 (static_cast<std::int64_t>(v) * 31 + i * 17 + ctx.round()) %
                                 kN);
                             const auto tag = static_cast<std::uint32_t>(i % 7);
                             const auto value = static_cast<std::uint64_t>(i);
                             if (i % 3 == 0) {
                               ctx.send(to, tag, value, 1 + body.size() * 8, body);
                             } else {
                               ctx.send(to, tag, value, 1 + static_cast<std::uint64_t>(i % 2));
                             }
                           }
                           if (v == 13 && ctx.round() == 4) ctx.sleep_until(ctx.round() + 3);
                         }));
    }
    const Report report = engine.run();
    const std::string label = test::case_name("threads ", threads);
    EXPECT_TRUE(report.completed) << label;
    std::int64_t sends = 0;
    for (const NodeStatus& s : report.nodes) sends += s.sends;
    EXPECT_EQ(report.metrics.messages_total, 14384) << label;
    EXPECT_EQ(report.metrics.bits_total, 1400642) << label;
    EXPECT_EQ(report.metrics.messages_honest, 14336) << label;
    EXPECT_EQ(report.metrics.bits_honest, 1395968) << label;
    EXPECT_EQ(report.metrics.max_sends_per_node, 48) << label;
    EXPECT_EQ(sends, 14384) << label;
    EXPECT_EQ(test::digest_stream_hash(log.rounds), 0xfcf2933f683ab783ULL) << label;
    std::uint64_t lost_dead = 0;
    for (const RoundDigest& d : log.rounds) lost_dead += d.lost_dead;
    EXPECT_GT(lost_dead, 0u) << label << ": the early halt lost nothing — dead workload";
  }
}

TEST(MessagePlaneIdentity, ConsensusWithCrashesSteppersScratch) {
  // Planned crashes make the compaction pass drop messages: the crashed
  // senders' batches shrink before the sort, and the traced header sum
  // subtracts what was dropped.
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

/// One sender's sends of one round, in send order: (receiver, tag).
using Sends = std::vector<std::pair<NodeId, std::uint32_t>>;
/// The sends of node `from` in round `round`; a pure function, since the
/// parallel stepper calls it on its workers.
using Schedule = std::function<Sends(NodeId from, Round round)>;

/// Runs n nodes through `rounds` rounds of `schedule` at threads 1..4
/// (scratch on at even counts) and holds every delivered inbox to the
/// oracle built here from the schedule — the receiver's messages in send
/// order (sender ascending, then send index), stably sorted by tag —
/// because the delivered-header digest is a commutative sum and cannot see
/// the order inside a receiver's run. Fingerprints and digest streams must
/// match the serial run's too.
void expect_oracle_inboxes(const char* name, NodeId n, Round rounds, const Schedule& schedule) {
  using Seen = std::tuple<std::uint32_t, NodeId, std::uint64_t>;  // (tag, from, value)
  using Inboxes = std::vector<std::vector<std::vector<Seen>>>;  // [round - 1][receiver]
  auto empty_inboxes = [n, rounds] {
    return Inboxes(static_cast<std::size_t>(rounds),
                   std::vector<std::vector<Seen>>(static_cast<std::size_t>(n)));
  };
  Inboxes want = empty_inboxes();
  std::int64_t peak = 0;
  for (Round r = 0; r < rounds; ++r) {
    auto& round_want = want[static_cast<std::size_t>(r)];
    std::int64_t sent = 0;
    for (NodeId from = 0; from < n; ++from) {
      const Sends sends = schedule(from, r);
      for (std::size_t i = 0; i < sends.size(); ++i) {
        round_want[static_cast<std::size_t>(sends[i].first)].emplace_back(sends[i].second, from,
                                                                          i);
      }
      sent += static_cast<std::int64_t>(sends.size());
    }
    peak = std::max(peak, sent);
    for (auto& expected : round_want) {
      std::stable_sort(expected.begin(), expected.end(), [](const Seen& a, const Seen& b) {
        return std::get<0>(a) < std::get<0>(b);
      });
    }
  }

  Inboxes inboxes = empty_inboxes();
  auto workload = [&](const Combo& c) {
    DigestLog log;
    EngineScratch scratch;
    EngineConfig config;
    config.threads = c.threads;
    config.scratch = c.scratch ? &scratch : nullptr;
    config.trace = &log;
    Engine engine(n, config);
    EXPECT_EQ(engine.threads(), n >= 256 ? c.threads : 1);  // small engines step serially
    for (NodeId v = 0; v < n; ++v) {
      engine.set_process(v, lambda_process([&, v](Context& ctx, const Inbox& inbox) {
                           if (ctx.round() >= 1) {
                             auto& seen = inboxes[static_cast<std::size_t>(ctx.round() - 1)]
                                                 [static_cast<std::size_t>(v)];
                             seen.clear();
                             for (const auto& m : inbox) seen.emplace_back(m.tag, m.from, m.value);
                           }
                           if (ctx.round() >= rounds) {
                             ctx.halt();
                             return;
                           }
                           const Sends sends = schedule(v, ctx.round());
                           for (std::size_t i = 0; i < sends.size(); ++i) {
                             ctx.send(sends[i].first, sends[i].second, i);
                           }
                         }));
    }
    const Report report = engine.run();
    EXPECT_EQ(report.metrics.peak_round_messages, peak);
    return Capture{scenarios::fingerprint(report), std::move(log.rounds)};
  };
  Capture ref;
  for (const int threads : {1, 2, 3, 4}) {
    const Combo combo{threads, threads % 2 == 0};
    const std::string label = combo_label(name, combo);
    inboxes = empty_inboxes();
    Capture got = workload(combo);
    for (Round r = 0; r < rounds; ++r) {
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(inboxes[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)],
                  want[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)])
            << label << " round " << r + 1 << " receiver " << v;
      }
    }
    if (threads == 1) {
      ref = std::move(got);
    } else {
      expect_capture_eq(ref, got, label);
    }
  }
}

TEST(MessagePlaneIdentity, PartitionedSortDeliversNormalForm) {
  // Every shape the one delivery sort takes, held to the send-schedule
  // oracle at threads 1..4.
  //
  // Rounds 0-3 send m = 4093 * 17 = 69581 messages (plus one in round 3),
  // just past kPartitionMinM (1 << 16): at threads 2..4 they are compacted
  // and sorted on the shards, and at threads 1 by the one inline shard,
  // through the same 64-bucket scatter. n = 4093 is not a power of two, so
  // the last receiver bucket is partial whatever its width. All of
  // receivers 448..511, the last receiver and receivers on some 16-aligned
  // edges (64-aligned ones among them) get nothing in those rounds, so
  // empty slices sit where bucket windows meet. Round 1 sends tags up to
  // 40, past the 4-bit key width the engine starts with, so the key widens
  // mid-run; round 3 adds one degenerate tag (2^16 + 5) in one bucket of an
  // otherwise dense round, so every bucket takes the comparison sort.
  //
  // Rounds 4-6 are small and sorted inline at every thread count: one
  // message (one bucket), ten messages to receivers far apart (one sparse
  // bucket), and 1,020 messages, 1,000 of them to receivers 300..303 and 20
  // to receiver 4090, so most of the 64 buckets are empty, one is dense
  // (counting sort) and one sparse (comparison sort).
  static constexpr NodeId kN = 4093;
  static constexpr int kFan = 17;
  auto starved = [](NodeId v) {
    const NodeId edge = v / 16;
    const NodeId slot = v % 16;
    return v / 64 == 7 || v == kN - 1 || (slot == 0 && edge % 3 == 0) ||
           (slot == 15 && edge % 5 == 0);
  };
  ASSERT_TRUE(starved(64 * 7));
  ASSERT_TRUE(starved(64 * 3));
  ASSERT_FALSE(starved(kN - 2));
  expect_oracle_inboxes("partitioned", kN, 7, [&starved](NodeId from, Round round) {
    Sends sends;
    if (round <= 3) {
      for (int i = 0; i < kFan; ++i) {
        auto v = static_cast<NodeId>((static_cast<std::int64_t>(from) * 31 + i * 17 + round) % kN);
        while (starved(v)) v = (v + 1) % kN;
        sends.emplace_back(v, static_cast<std::uint32_t>(round == 1 ? 2 * i + 8 : i % 7));
      }
      if (round == 3 && from == 2000) sends.emplace_back(2001, (1u << 16) + 5);
    } else if (round == 4) {
      if (from == 5) sends.emplace_back(4000, 3);
    } else if (round == 5) {
      if (from >= 100 && from < 110) {
        sends.emplace_back(static_cast<NodeId>((from - 100) * 409),
                           static_cast<std::uint32_t>(from % 3));
      }
    } else if (from < 1000) {
      sends.emplace_back(300 + from % 4, static_cast<std::uint32_t>(from % 3));
    } else if (from < 1020) {
      sends.emplace_back(4090, static_cast<std::uint32_t>(from % 5));
    }
    return sends;
  });

  // A commit-slot-shaped engine, n = 7 (the live service's slot): a round
  // of all-to-all proposals plus acks to node 0 (four dense buckets), then
  // one of two messages (one bucket, sparse: the acks' tag 40 widened the
  // key to 6 tag bits, a 448-count domain for 2 messages).
  expect_oracle_inboxes("slot", 7, 2, [](NodeId from, Round round) {
    Sends sends;
    if (round == 0) {
      for (NodeId to = 0; to < 7; ++to) sends.emplace_back(to, 2);
      sends.emplace_back(0, 40);
    } else if (from == 3) {
      sends.emplace_back(6, 1);
      sends.emplace_back(1, 0);
    }
    return sends;
  });
}

TEST(MessagePlaneIdentity, ShardedCompactionUnderFaults) {
  // Every round sends more than kPartitionMinM messages, so the compaction
  // runs as one shard per worker and each shard owns whole sender runs.
  // Fans of 14..30 messages make sender runs uneven, and in round 2 the
  // post-step adversary partially crashes the sender whose run straddles
  // each raw chunk start k m / W for W = 2, 3 and 4: the run moves whole
  // into one shard, keep filter and all. Node 100 and node 2049 are
  // Byzantine (the honest/total split), one node send-omits and one
  // receive-omits, a partition cuts off every 16th node in rounds 2-3,
  // links are cut, a delay rule holds every message to node 7 and a second
  // one node 3001's sends (so the coordinator parks several shards' lists
  // in order), some nodes halt in round 3 while others keep addressing
  // them, and every 97th node sleeps from round 1 until a round-4 message
  // wakes it. Round 6, after the delay rules are gone, sends a degenerate
  // tag, which sends the round to the fallback sort; the wake round stays
  // on the partitioned one. Each node decides the hash of everything it
  // read, in order, so the Report pins every inbox. At threads 1..4 the Report, per-node
  // sends, Metrics, fingerprint and digest stream must equal the serial
  // run's.
  static constexpr NodeId kN = 4096;
  static constexpr Round kRounds = 8;
  static constexpr Round kWakeRound = 4;
  auto sleeper = [](NodeId v) { return v % 97 == 13; };
  auto halter = [](NodeId v) { return v % 61 == 7; };
  auto fan = [](NodeId v, Round r) { return 14 + static_cast<int>((v * 7 + r * 3) % 17); };
  // Round 6's first send per node carries a tag past the counting sorts'
  // range, so that round's compacted shards (gaps, injected chunk and all)
  // are moved together for the comparison sort. No rule can delay it into
  // a later round.
  auto tag_of = [](int i, Round r) {
    return r == 6 && i == 0 ? std::uint32_t{1} << 17 : static_cast<std::uint32_t>(i % 5);
  };
  auto dest = [&sleeper](NodeId from, int i, Round r) {
    auto v = static_cast<NodeId>((static_cast<std::int64_t>(from) * 31 + i * 613 + r * 5) % kN);
    // Sleepers hear nothing until the wake round, so they really park.
    while (r != kWakeRound && sleeper(v)) v = (v + 1) % kN;
    return v;
  };

  class Adversary final : public FaultInjector {
   public:
    explicit Adversary(std::function<NodeId(NodeId, int, Round)> dest, int& straddles)
        : dest_(std::move(dest)), straddles_(&straddles) {}
    void pre_round(const EngineView& view, FaultController& control) override {
      switch (view.round()) {
        case 1:
          control.set_send_omission(1500, true);
          control.set_recv_omission(2500, true);
          break;
        case 2:
          for (NodeId a = 40; a < kN; a += 401) control.cut_link(a, dest_(a, 0, 2));
          delay_rules_ = {control.add_delay_rule(kNoNode, 7, 1, 3, 0xD1),
                          control.add_delay_rule(3001, kNoNode, 1, 2, 0xD2)};
          {
            std::vector<std::uint32_t> group(static_cast<std::size_t>(kN), 0);
            for (NodeId v = 0; v < kN; v += 16) group[static_cast<std::size_t>(v)] = 1;
            control.set_partition(group);
          }
          break;
        case 4:
          control.clear_partition();
          break;
        case 5:
          for (const std::size_t id : delay_rules_) control.remove_delay_rule(id);
          break;
        case 6:
          for (NodeId a = 40; a < kN; a += 401) control.heal_link(a, dest_(a, 0, 2));
          break;
        default:
          break;
      }
    }
    void on_round(const EngineView& view, FaultController& control) override {
      if (view.round() != 2 && view.round() != 4) return;
      const std::span<const Message> sends = view.pending_sends();
      const std::size_t m = sends.size();
      for (const std::size_t shards : {2, 3, 4}) {
        for (std::size_t k = 1; k < shards; ++k) {
          const std::size_t at = k * m / shards;
          const NodeId victim = sends[at].from;
          if (!view.alive(victim)) continue;  // m / 2 = 2 m / 4
          if (view.round() == 2) {
            if (sends[at - 1].from == victim) ++*straddles_;
            control.crash_partial(victim,
                                  [](const Message& msg) { return (msg.to + msg.tag) % 3 != 0; });
          } else if (k * 2 == shards) {
            control.crash(victim);  // a clean crash at m / 2 too
          }
        }
      }
    }

   private:
    std::function<NodeId(NodeId, int, Round)> dest_;
    int* straddles_;
    std::vector<std::size_t> delay_rules_;
  };

  struct Run {
    Capture capture;
    Report report;
    int straddles = 0;
    std::vector<Round> first_wake;  // sleepers: first round stepped after round 1
  };
  auto workload = [&](const Combo& c) {
    Run run;
    DigestLog log;
    EngineScratch scratch;
    EngineConfig config;
    config.threads = c.threads;
    config.scratch = c.scratch ? &scratch : nullptr;
    config.trace = &log;
    config.crash_budget = 16;
    config.omission_budget = 2;
    Engine engine(kN, config);
    EXPECT_EQ(engine.threads(), c.threads);
    engine.mark_byzantine(100);
    engine.mark_byzantine(2049);
    std::vector<std::uint64_t> heard(static_cast<std::size_t>(kN), 0);
    run.first_wake.assign(static_cast<std::size_t>(kN), -1);
    for (NodeId v = 0; v < kN; ++v) {
      engine.set_process(v, lambda_process([&, v](Context& ctx, const Inbox& inbox) {
                           const auto vi = static_cast<std::size_t>(v);
                           std::uint64_t& h = heard[vi];
                           for (const Message& m : inbox) {
                             h = mix64(h ^ (static_cast<std::uint64_t>(m.from) << 40) ^
                                       (static_cast<std::uint64_t>(m.tag) << 32) ^ m.value);
                           }
                           const Round r = ctx.round();
                           if (sleeper(v) && r > 1 && run.first_wake[vi] < 0) {
                             run.first_wake[vi] = r;
                           }
                           if (r >= kRounds || (halter(v) && r == 3)) {
                             ctx.decide(h);
                             ctx.halt();
                             return;
                           }
                           for (int i = 0; i < fan(v, r); ++i) {
                             const auto value = static_cast<std::uint64_t>(v) * 64 +
                                                static_cast<std::uint64_t>(i);
                             ctx.send(dest(v, i, r), tag_of(i, r), value,
                                      1 + static_cast<std::uint64_t>(i % 3));
                           }
                           if (sleeper(v) && r == 1) ctx.sleep_until(kRounds + 10);
                         }));
    }
    engine.add_fault_injector(std::make_unique<Adversary>(dest, run.straddles));
    run.report = engine.run();
    run.capture = Capture{scenarios::fingerprint(run.report), std::move(log.rounds)};
    return run;
  };

  Run ref;
  for (const int threads : {1, 2, 3, 4}) {
    const Combo combo{threads, threads % 2 == 0};
    const std::string label = combo_label("sharded_compaction", combo);
    Run got = workload(combo);
    EXPECT_TRUE(got.report.completed) << label;
    EXPECT_EQ(got.straddles, 5) << label << ": a chunk start fell between sender runs";
    std::uint64_t sent = 0, delivered = 0, lost_crash = 0, lost_fault = 0, lost_dead = 0,
                  delayed = 0;
    for (const RoundDigest& d : got.capture.rounds) {
      if (d.round < kRounds) {
        EXPECT_GE(d.sent, std::uint64_t{1} << 16) << label << " round " << d.round;
      }
      sent += d.sent;
      delivered += d.delivered;
      lost_crash += d.lost_crash;
      lost_fault += d.lost_fault;
      lost_dead += d.lost_dead;
      delayed += d.delayed;
    }
    // Conservation: every delayed message resolved to delivered or lost_dead.
    EXPECT_EQ(sent, delivered + lost_crash + lost_fault + lost_dead) << label;
    EXPECT_GT(lost_crash, 0u) << label;
    EXPECT_GT(lost_fault, 0u) << label;
    EXPECT_GT(lost_dead, 0u) << label;
    EXPECT_GT(delayed, 0u) << label;
    EXPECT_NE(got.report.metrics.messages_honest, got.report.metrics.messages_total) << label;
    for (NodeId v = 0; v < kN; ++v) {
      if (!sleeper(v) || got.report.nodes[static_cast<std::size_t>(v)].crashed) continue;
      EXPECT_EQ(got.first_wake[static_cast<std::size_t>(v)], kWakeRound + 1)
          << label << ": sleeper " << v << " was not woken by its message";
    }
    if (threads == 1) {
      ref = std::move(got);
    } else {
      expect_reports_identical(ref.report, got.report);
      expect_capture_eq(ref.capture, got.capture, label);
    }
  }
}

// ---- the stepper's derived worker count ------------------------------------
//
// EngineConfig::threads = 0 (the default) sizes the stepper by the CPUs the
// constructing thread may run on, capped at 4; a FleetRunner worker and an
// engine too small to fill a shard step serially; an explicit count wins.

int expected_default_threads() { return std::min(usable_cpus(), 4); }

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(EngineThreads, DefaultResolvesToTheAffinityCountCapped) {
  const Engine engine(1024, EngineConfig{});
  EXPECT_EQ(engine.threads(), expected_default_threads());
  const Engine explicit_two(1024, EngineConfig{.threads = 2});
  EXPECT_EQ(explicit_two.threads(), 2);

  // A thread confined to one CPU derives 1, whatever the machine's size.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  int confined = -1;
  std::thread([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
    EXPECT_EQ(usable_cpus(), 1);
    confined = Engine(1024, EngineConfig{}).threads();
  }).join();
  EXPECT_EQ(confined, 1);
}

TEST(EngineThreads, FleetWorkerResolvesToOne) {
  // reuse_scratch off: the worker, not the scratch, keeps the engine serial.
  int derived = -1;
  int explicit_four = -1;
  {
    FleetRunner fleet(FleetConfig{.threads = 1, .reuse_scratch = false});
    (void)fleet.submit(FleetJob([&](EngineScratch* scratch) {
      EXPECT_EQ(scratch, nullptr);
      derived = Engine(1024, EngineConfig{}).threads();
      explicit_four = Engine(1024, EngineConfig{.threads = 4}).threads();
      return Report{};
    }));
    fleet.wait_all();
  }
  EXPECT_EQ(derived, 1);
  EXPECT_EQ(explicit_four, 4);
}

TEST(EngineThreads, SmallEngineCreatesNoPool) {
  const std::size_t before = live_threads();
  {
    const Engine derived(255, EngineConfig{});
    const Engine explicit_four(255, EngineConfig{.threads = 4});
    EXPECT_EQ(derived.threads(), 1);
    EXPECT_EQ(explicit_four.threads(), 1);
    EXPECT_EQ(live_threads(), before);
  }
  const Engine at_threshold(256, EngineConfig{.threads = 4});
  EXPECT_EQ(at_threshold.threads(), 4);
  EXPECT_EQ(live_threads(), before + 3);  // the caller steps shard 0
}

/// The Report fingerprint and digest-stream hash of one traced run.
std::pair<std::uint64_t, std::uint64_t> traced_run(
    const std::function<Report(core::RunOptions)>& run, int threads) {
  DigestLog log;
  core::RunOptions options;
  options.threads = threads;
  options.trace = &log;
  const Report report = run(options);
  EXPECT_TRUE(report.completed);
  return {scenarios::fingerprint(report), test::digest_stream_hash(log.rounds)};
}

TEST(EngineThreads, DefaultMatchesSerialOnConsensusAndGossip) {
  const NodeId n = 512;
  const std::int64_t t = 40;
  const auto params = core::ConsensusParams::practical(n, t);
  const auto consensus = [&](const core::RunOptions& options) {
    return core::run_system(
        n, t,
        [&](NodeId v) { return core::make_few_crashes_process(params, v, (v * 3 + 1) % 2); },
        make_scheduled(random_crash_schedule(n, t, 0, 4 * t, 0.5, 99)), options);
  };
  EXPECT_EQ(traced_run(consensus, 0), traced_run(consensus, 1));

  const auto gossip_params = core::GossipParams::practical(400, 30);
  std::vector<std::uint64_t> rumors(400);
  for (std::size_t v = 0; v < rumors.size(); ++v) rumors[v] = 1000u + v;
  const auto gossip = [&](const core::RunOptions& options) {
    return core::run_gossip(gossip_params, rumors,
                            make_scheduled(random_crash_schedule(400, 30, 0, 40, 0.5, 7)),
                            options)
        .report;
  };
  EXPECT_EQ(traced_run(gossip, 0), traced_run(gossip, 1));
}

TEST(EngineThreads, SerialRunCyclesThroughTwoMessageBuffers) {
  // A serial round appends straight into the outbox, which the delivery
  // sort then swaps with the inbox: two message buffers in all, so a warm
  // run shows exactly two distinct batch addresses (the outbox seen by the
  // post-step phase, the inbox seen by node 0, the first receiver).
  static constexpr NodeId kN = 64;
  class OutboxSpy final : public FaultInjector {
   public:
    explicit OutboxSpy(std::set<const void*>& seen) : seen_(&seen) {}
    void on_round(const EngineView& view, FaultController&) override {
      if (!view.pending_sends().empty()) seen_->insert(view.pending_sends().data());
    }

   private:
    std::set<const void*>* seen_;
  };
  EngineScratch scratch;
  std::set<const void*> seen;
  for (const bool record : {false, true}) {  // the first run warms the scratch
    Engine engine(kN, EngineConfig{.threads = 1, .scratch = &scratch});
    for (NodeId v = 0; v < kN; ++v) {
      engine.set_process(v, lambda_process([&, v, record](Context& ctx, const Inbox& inbox) {
                           if (record && v == 0 && !inbox.empty()) seen.insert(inbox.begin());
                           if (ctx.round() >= 6) {
                             ctx.halt();
                             return;
                           }
                           for (NodeId to = 0; to < kN; ++to) ctx.send(to, 0, 1);
                         }));
    }
    if (record) engine.add_fault_injector(std::make_unique<OutboxSpy>(seen));
    EXPECT_TRUE(engine.run().completed);
  }
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_GE(scratch.sink.msgs.capacity(), std::size_t{kN} * kN);
  EXPECT_GE(scratch.inbox.capacity(), std::size_t{kN} * kN);
}

// ---- delivery-phase telemetry ----------------------------------------------

TEST(EngineTelemetry, DeliveryPhasesRecordOneSamplePerRound) {
  // The seven round phases — the fault plane's pre-round phase, the
  // sleeper wake, step, post-step faults, the two halves of delivery
  // (compaction and sort) and the end-of-round settle — each record one
  // sample per executed round, and together they cannot exceed the run's
  // wall time. The first rounds send m = 1024 * 80 > kPartitionMinM
  // messages (compacted and sorted on two shards), the later ones one
  // message per node (one inline shard), so both routes are timed. A crash
  // injector gives the fault phases work to time.
  static constexpr NodeId kN = 1024;
  obs::Registry registry;
  EngineConfig config;
  config.threads = 2;
  config.crash_budget = 2;
  config.telemetry = &registry;
  Engine engine(kN, config);
  for (NodeId v = 0; v < kN; ++v) {
    engine.set_process(v, lambda_process([v](Context& ctx, const Inbox&) {
                         if (ctx.round() >= 6) {
                           ctx.halt();
                           return;
                         }
                         const int fan = ctx.round() < 3 ? 80 : 1;
                         for (int i = 0; i < fan; ++i) {
                           ctx.send(static_cast<NodeId>((v * 7 + i) % kN), 0, 1);
                         }
                       }));
  }
  engine.add_fault_injector(make_scheduled({{.round = 1, .node = 5}, {.round = 4, .node = 9}}));
  const std::uint64_t start = obs::now_ns();
  const Report report = engine.run();
  const std::uint64_t wall_ns = obs::now_ns() - start;
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.crashed_count(), 2);
  EXPECT_EQ(report.metrics.peak_round_messages, std::int64_t{kN} * 80);

  const auto snapshot = registry.snapshot();
  const auto* rounds = snapshot.find_counter("lft_engine_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, static_cast<std::uint64_t>(report.rounds));
  std::uint64_t phases_ns = 0;
  for (const char* name :
       {"lft_engine_fault_pre_round_ns", "lft_engine_wake_ns", "lft_engine_step_ns",
        "lft_engine_post_step_ns", "lft_engine_compact_ns", "lft_engine_sort_ns",
        "lft_engine_settle_ns"}) {
    const auto* phase = snapshot.find_histogram(name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_EQ(phase->data.count(), rounds->value) << name;
    phases_ns += phase->data.sum();
  }
  EXPECT_LE(phases_ns, wall_ns);
}
}  // namespace
}  // namespace lft::sim
