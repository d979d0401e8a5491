#include "singleport/port.hpp"

#include "common/assert.hpp"

namespace lft::singleport {

void PortProcess::PortQueue::push(const sim::Message& m) {
  // Compact the consumed prefixes before growing past them: keeps the
  // buffers bounded by the live backlog while staying amortized O(1).
  if (head > 0 && head >= buf.size() / 2 && buf.size() >= 8) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
    bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(bytes_head));
    bytes_head = 0;
  }
  const sim::PayloadView body = m.body();
  sim::Message queued = m;
  queued.body_ptr = nullptr;  // implicit FIFO offset; rebound on pop
  buf.push_back(queued);
  bytes.insert(bytes.end(), body.begin(), body.end());
}

sim::Message PortProcess::PortQueue::pop(std::vector<std::byte>& payload_out) {
  LFT_ASSERT(!empty());
  sim::Message m = buf[head];
  ++head;
  payload_out.assign(bytes.begin() + static_cast<std::ptrdiff_t>(bytes_head),
                     bytes.begin() + static_cast<std::ptrdiff_t>(bytes_head + m.body_len));
  bytes_head += m.body_len;
  if (m.body_len != 0) m.set_body(payload_out);
  if (head >= buf.size()) {
    buf.clear();
    head = 0;
    bytes.clear();
    bytes_head = 0;
  }
  return m;
}

void PortProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  // A node sends at most once per round, so each source contributes at most
  // one message per inbox and the per-source queues stay in send order.
  for (const sim::Message& m : inbox) ports_[m.from].push(m);
  std::optional<sim::Message> received;
  if (action_.poll != kNoNode) {
    LFT_ASSERT(action_.poll >= 0 && action_.poll < ctx.num_nodes());
    const auto it = ports_.find(action_.poll);
    if (it != ports_.end() && !it->second.empty()) received = it->second.pop(received_bytes_);
  }
  SpContext sp(ctx);
  action_ = inner_->on_round(sp, received);
  if (action_.send.has_value() && !sp.halted()) {
    const SpSend& send = *action_.send;
    ctx.send(send.to, send.tag, send.value, send.bits, send.body);
  }
}

}  // namespace lft::singleport
