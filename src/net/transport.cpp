#include "net/transport.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "net/frame.hpp"

namespace lft::net {

namespace {

// Round request:  [u64 round][u32 count][count x message]
// Round response: [u64 round][u8 decided][u64 decision][u8 halted]
//                 [u64 wake_at + 1][u64 fallback_pulls][u32 count][messages]
//                 (wake_at + 1 = 0: the node did not call sleep_until)
// Shutdown: an empty request payload.

void put_message(ByteWriter& w, const sim::Message& m) {
  w.put_u32(static_cast<std::uint32_t>(m.from));
  w.put_u32(static_cast<std::uint32_t>(m.to));
  w.put_u32(m.tag);
  w.put_u64(m.value);
  w.put_u64(m.bits);
  w.put_u32(m.body_len);
  if (m.body_len != 0) w.put_bytes(m.body());
}

/// Decodes one message; bodies view `reader`'s backing buffer.
[[nodiscard]] bool get_message(ByteReader& reader, sim::Message& m) {
  const auto from = reader.get_u32();
  const auto to = reader.get_u32();
  const auto tag = reader.get_u32();
  const auto value = reader.get_u64();
  const auto bits = reader.get_u64();
  const auto body_len = reader.get_u32();
  if (!from || !to || !tag || !value || !bits || !body_len) return false;
  m = sim::Message{};
  m.from = static_cast<NodeId>(*from);
  m.to = static_cast<NodeId>(*to);
  m.tag = *tag;
  m.value = *value;
  m.bits = *bits;
  if (*body_len != 0) {
    const auto body = reader.get_bytes(*body_len);
    if (!body) return false;
    m.set_body(*body);
  }
  return true;
}

/// The replica's side of one round: a ProtocolIo that encodes the Program's
/// sends straight into the response body (payload bytes are copied before
/// send() returns) and keeps its lifecycle effects for the response header.
class ReplicaIo final : public core::ProtocolIo {
 public:
  ReplicaIo(NodeId self, std::vector<std::byte>& scratch) : self_(self), messages_(scratch) {}

  void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits,
            sim::PayloadView body) override {
    LFT_ASSERT(to >= 0);
    LFT_ASSERT(bits >= 1);
    sim::Message m;
    m.from = self_;
    m.to = to;
    m.tag = tag;
    m.value = value;
    m.bits = bits;
    m.set_body(body);
    put_message(messages_, m);
    ++count_;
  }
  void decide(std::uint64_t value) override {
    LFT_ASSERT_MSG(!decided_ || decision_ == value, "decision is irrevocable");
    decided_ = true;
    decision_ = value;
  }
  void halt() override { halted_ = true; }
  // Only the last call of a round survives, as in the engine's do_sleep.
  void sleep_until(Round wake_round) override { wake_at_ = wake_round; }
  void count_fallback() override { ++fallback_pulls_; }

  /// Writes the response frame for `round_word`.
  void encode(ByteWriter& w, std::uint64_t round_word) const {
    w.put_u64(round_word);
    w.put_u8(decided_ ? 1 : 0);
    w.put_u64(decision_);
    w.put_u8(halted_ ? 1 : 0);
    w.put_u64(static_cast<std::uint64_t>(wake_at_ + 1));
    w.put_u64(fallback_pulls_);
    w.put_u32(count_);
    w.put_bytes(messages_.view());
  }

 private:
  NodeId self_;
  ByteWriter messages_;
  std::uint32_t count_ = 0;
  bool decided_ = false;
  std::uint64_t decision_ = 0;
  bool halted_ = false;
  Round wake_at_ = -1;  // -1: no sleep_until this round
  std::uint64_t fallback_pulls_ = 0;
};

/// The replica thread: one Program behind one socketpair end, stepped by
/// round frames until the hub sends the empty shutdown frame.
void replica_main(Fd fd, std::unique_ptr<core::Program> program, NodeId self) {
  std::vector<std::byte> payload;
  std::vector<sim::Message> inbox;
  std::vector<std::byte> messages;
  std::vector<std::byte> response;
  for (;;) {
    if (!recv_frame(fd, payload) || payload.empty()) return;
    ByteReader reader(payload);
    const auto round_word = reader.get_u64();
    const auto count = reader.get_u32();
    LFT_ASSERT_MSG(round_word && count, "replica: malformed round frame");
    inbox.clear();
    inbox.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      sim::Message m;
      LFT_ASSERT_MSG(get_message(reader, m), "replica: malformed message");
      inbox.push_back(m);
    }

    ReplicaIo io(self, messages);
    program->run_round(static_cast<Round>(*round_word), inbox, io);
    ByteWriter writer(response);
    io.encode(writer, *round_word);
    if (!send_frame(fd, writer.view())) return;
  }
}

}  // namespace

class SocketTransport::Proxy final : public sim::Process {
 public:
  explicit Proxy(SocketTransport& transport) : transport_(&transport) {}
  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override {
    transport_->round_trip(ctx, inbox);
  }

 private:
  SocketTransport* transport_;
};

SocketTransport::SocketTransport(std::vector<std::unique_ptr<core::Program>> programs) {
  replicas_.reserve(programs.size());
  for (std::size_t v = 0; v < programs.size(); ++v) {
    auto [hub_end, replica_end] = socket_pair();
    Replica r;
    r.hub_end = std::move(hub_end);
    r.thread = std::thread(replica_main, std::move(replica_end), std::move(programs[v]),
                           static_cast<NodeId>(v));
    replicas_.push_back(std::move(r));
  }
}

SocketTransport::~SocketTransport() {
  for (auto& r : replicas_) {
    (void)send_frame(r.hub_end, {});  // empty frame = shutdown
  }
  for (auto& r : replicas_) {
    if (r.thread.joinable()) r.thread.join();
  }
}

std::unique_ptr<sim::Process> SocketTransport::proxy() {
  return std::make_unique<Proxy>(*this);
}

void SocketTransport::round_trip(sim::Context& ctx, const sim::Inbox& inbox) {
  const NodeId self = ctx.self();
  LFT_ASSERT(static_cast<std::size_t>(self) < replicas_.size());
  const Fd& fd = replicas_[static_cast<std::size_t>(self)].hub_end;
  const auto round = static_cast<std::uint64_t>(ctx.round());
  {
    ByteWriter writer(request_);
    writer.put_u64(round);
    writer.put_u32(static_cast<std::uint32_t>(inbox.size()));
    for (const sim::Message& m : inbox) put_message(writer, m);
    LFT_ASSERT_MSG(send_frame(fd, writer.view()), "transport: replica hung up");
  }
  LFT_ASSERT_MSG(recv_frame(fd, response_) && !response_.empty(),
                 "transport: replica died mid-round");

  ByteReader reader(response_);
  const auto round_word = reader.get_u64();
  LFT_ASSERT_MSG(round_word && *round_word == round, "transport: response round mismatch");
  const auto decided = reader.get_u8();
  const auto decision = reader.get_u64();
  const auto halted = reader.get_u8();
  const auto wake_word = reader.get_u64();
  const auto pulls = reader.get_u64();
  const auto count = reader.get_u32();
  LFT_ASSERT_MSG(decided && decision && halted && wake_word && pulls && count,
                 "transport: malformed response");
  // Replay in the engine: ctx.send copies each body into the engine's round
  // arena, so the decode buffer is free for the next node's round trip.
  for (std::uint32_t k = 0; k < *count; ++k) {
    sim::Message m;
    LFT_ASSERT_MSG(get_message(reader, m), "transport: malformed response message");
    LFT_ASSERT_MSG(m.from == self, "transport: replica sent as another node");
    ctx.send(m.to, m.tag, m.value, m.bits, m.body());
  }
  if (*decided != 0) ctx.decide(*decision);
  if (*halted != 0) ctx.halt();
  if (*wake_word != 0) ctx.sleep_until(static_cast<Round>(*wake_word) - 1);
  for (std::uint64_t i = 0; i < *pulls; ++i) ctx.count_fallback();
}

}  // namespace lft::net
