// Tests for the single-port model (Section 8) hosted on sim::Engine: one
// send and one poll per round, FIFO port queues, no delivery signals, crash
// semantics.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "singleport/port.hpp"
#include "test_util.hpp"

namespace lft::singleport {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::Message;
using sim::Report;
using test::sp_lambda;

std::unique_ptr<sim::Process> sp_idle() {
  return sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
    ctx.halt();
    return SpAction{};
  });
}

SpAction send_to(NodeId to, std::uint64_t value) {
  SpAction a;
  a.send = SpSend{to, 0, value, 1, {}};
  return a;
}

SpAction poll_from(NodeId src) {
  SpAction a;
  a.poll = src;
  return a;
}

TEST(SinglePort, SameRoundPickupAndFifoOrder) {
  Engine engine(2, {});
  std::vector<std::uint64_t> got;
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() <= 2) return send_to(1, 10 + ctx.round());
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.set_process(1, sp_lambda([&](SpContext& ctx, const std::optional<Message>& received) {
                       if (received) got.push_back(received->value);
                       if (ctx.round() >= 6) {
                         ctx.halt();
                         return SpAction{};
                       }
                       return poll_from(0);
                     }));
  const Report report = engine.run();
  EXPECT_TRUE(report.completed);
  // Sends at rounds 0,1,2 carry values 10,11,12 and are polled in FIFO order
  // (pickup possible in the sending round, delivered to the next on_round).
  EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(SinglePort, OneMessagePerPollEvenIfMoreQueued) {
  Engine engine(3, {});
  // Nodes 0 and 1 each send once to node 2 in round 0; node 2 polls port 0
  // twice: gets one message the first time, nothing new from port 0 after.
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) return send_to(2, 100);
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.set_process(1, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) return send_to(2, 200);
                       ctx.halt();
                       return SpAction{};
                     }));
  std::vector<std::uint64_t> got;
  engine.set_process(2, sp_lambda([&](SpContext& ctx, const std::optional<Message>& received) {
                       if (received) got.push_back(received->value);
                       if (ctx.round() == 0 || ctx.round() == 1) return poll_from(0);
                       if (ctx.round() == 2) return poll_from(1);
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{100, 200}));
}

TEST(SinglePort, PollWrongPortGetsNothing) {
  Engine engine(3, {});
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) return send_to(2, 1);
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.set_process(1, sp_idle());
  int received = 0;
  engine.set_process(2, sp_lambda([&](SpContext& ctx, const std::optional<Message>& r) {
                       received += r.has_value() ? 1 : 0;
                       if (ctx.round() >= 3) {
                         ctx.halt();
                         return SpAction{};
                       }
                       return poll_from(1);  // wrong port: 0 sent, not 1
                     }));
  engine.run();
  EXPECT_EQ(received, 0);
}

TEST(SinglePort, CrashedSenderSendIsDropped) {
  Engine engine(2, EngineConfig{.crash_budget = 1});
  engine.set_process(0, sp_lambda([](SpContext&, const std::optional<Message>&) {
                       return send_to(1, 7);
                     }));
  int received = 0;
  engine.set_process(1, sp_lambda([&](SpContext& ctx, const std::optional<Message>& r) {
                       received += r.has_value() ? 1 : 0;
                       if (ctx.round() >= 3) {
                         ctx.halt();
                         return SpAction{};
                       }
                       return poll_from(0);
                     }));
  engine.add_fault_injector(sim::make_scheduled({sim::CrashEvent{0, 0, 0.0}}));
  const Report report = engine.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(report.metrics.messages_total, 0);
  EXPECT_TRUE(report.nodes[0].crashed);
}

TEST(SinglePort, QueuedMessagesSurviveSenderCrash) {
  // A message already enqueued (sent in an earlier round) remains
  // retrievable after the sender crashes: it was already "delivered to the
  // port" in the paper's model.
  Engine engine(2, EngineConfig{.crash_budget = 1});
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) return send_to(1, 9);
                       return SpAction{};  // stays alive doing nothing
                     }));
  std::vector<std::uint64_t> got;
  engine.set_process(1, sp_lambda([&](SpContext& ctx, const std::optional<Message>& r) {
                       if (r) got.push_back(r->value);
                       if (ctx.round() >= 4) {
                         ctx.halt();
                         return SpAction{};
                       }
                       if (ctx.round() >= 2) return poll_from(0);  // poll after the crash
                       return SpAction{};
                     }));
  engine.add_fault_injector(sim::make_scheduled({sim::CrashEvent{1, 0, 0.0}}));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{9}));
}

TEST(SinglePort, AdversarySeesActions) {
  // The Theorem 13 adversary must observe where the victim polls/sends: the
  // engine's post-step phase reads it off the node's PortProcess.
  Engine engine(3, EngineConfig{.crash_budget = 2});
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) {
                         SpAction a = send_to(1, 5);
                         a.poll = 2;
                         return a;
                       }
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.set_process(1, sp_idle());
  engine.set_process(2, sp_idle());

  class Observer final : public sim::FaultInjector {
   public:
    explicit Observer(std::vector<NodeId>& log) : log_(&log) {}
    void on_round(const sim::EngineView& view, sim::FaultController&) override {
      if (view.round() == 0) {
        const SpAction& a = static_cast<const PortProcess*>(view.process(0))->action();
        if (a.send) log_->push_back(a.send->to);
        log_->push_back(a.poll);
      }
    }
    std::vector<NodeId>* log_;
  };
  std::vector<NodeId> log;
  engine.add_fault_injector(std::make_unique<Observer>(log));
  engine.run();
  EXPECT_EQ(log, (std::vector<NodeId>{1, 2}));
}

TEST(SinglePort, MetricsAndDecisions) {
  Engine engine(2, {});
  engine.set_process(0, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() == 0) {
                         SpAction a;
                         a.send = SpSend{1, 3, 77, 32, {}};
                         return a;
                       }
                       ctx.decide(1);
                       ctx.halt();
                       return SpAction{};
                     }));
  engine.set_process(1, sp_lambda([](SpContext& ctx, const std::optional<Message>& r) {
                       if (r) {
                         ctx.decide(r->value);
                         ctx.halt();
                         return SpAction{};
                       }
                       return poll_from(0);
                     }));
  const Report report = engine.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.metrics.messages_total, 1);
  EXPECT_EQ(report.metrics.bits_total, 32);
  EXPECT_TRUE(report.nodes[1].decided);
  EXPECT_EQ(report.nodes[1].decision, 77u);
}

TEST(SinglePort, MaxRoundsCap) {
  Engine engine(1, EngineConfig{.max_rounds = 4});
  engine.set_process(0, sp_lambda([](SpContext&, const std::optional<Message>&) {
                       return SpAction{};  // never halts
                     }));
  const Report report = engine.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.rounds, 4);
}

TEST(SinglePort, ByzantineSendsExcludedFromHonestCounters) {
  // mark_byzantine must affect single-port sends exactly as multi-port ones:
  // total counts everything, honest excludes the marked node (the Theorem 11
  // measure).
  Engine engine(3, {});
  auto sender = [](NodeId to) {
    return sp_lambda([to](SpContext& ctx, const std::optional<Message>&) {
      if (ctx.round() >= 4) {
        ctx.halt();
        return SpAction{};
      }
      SpAction a;
      a.send = SpSend{to, 0, 1, 8, {}};
      return a;
    });
  };
  engine.set_process(0, sender(2));  // honest
  engine.set_process(1, sender(2));  // Byzantine
  engine.set_process(2, sp_lambda([](SpContext& ctx, const std::optional<Message>&) {
                       if (ctx.round() >= 5) ctx.halt();
                       return poll_from(ctx.round() % 2 == 0 ? 0 : 1);
                     }));
  engine.mark_byzantine(1);
  const Report report = engine.run();
  EXPECT_TRUE(report.nodes[1].byzantine);
  EXPECT_EQ(report.metrics.messages_total, 8);   // 4 sends from each sender
  EXPECT_EQ(report.metrics.messages_honest, 4);  // only node 0's
  EXPECT_EQ(report.metrics.bits_total, 64);
  EXPECT_EQ(report.metrics.bits_honest, 32);
}

}  // namespace
}  // namespace lft::singleport
