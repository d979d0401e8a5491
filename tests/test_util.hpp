// Shared helpers for the test suite. `case_name` builds parameterized test
// names by appending pieces with += — gcc 12 at -O3 flags the equivalent
// std::string operator+ chains with a spurious -Wrestrict (GCC PR105329),
// which -Werror turns fatal. `LambdaProcess` scripts an engine node with a
// per-round lambda. `digest_stream_hash` folds a RoundDigest stream into
// one word for cross-build pins.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <optional>

#include "common/hash.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "singleport/port.hpp"

namespace lft::test {

/// Scriptable multi-port process: runs a user lambda each round.
class LambdaProcess final : public sim::Process {
 public:
  using Fn = std::function<void(sim::Context&, const sim::Inbox&)>;
  explicit LambdaProcess(Fn fn) : fn_(std::move(fn)) {}
  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override { fn_(ctx, inbox); }

 private:
  Fn fn_;
};

inline std::unique_ptr<sim::Process> lambda_process(LambdaProcess::Fn fn) {
  return std::make_unique<LambdaProcess>(std::move(fn));
}

/// Does nothing and halts immediately.
inline std::unique_ptr<sim::Process> idle_process() {
  return lambda_process([](sim::Context& ctx, const sim::Inbox&) { ctx.halt(); });
}

/// Scriptable single-port process: runs a user lambda each round.
class SpLambdaProcess final : public singleport::SinglePortProcess {
 public:
  using Fn = std::function<singleport::SpAction(singleport::SpContext&,
                                                const std::optional<sim::Message>&)>;
  explicit SpLambdaProcess(Fn fn) : fn_(std::move(fn)) {}
  singleport::SpAction on_round(singleport::SpContext& ctx,
                                const std::optional<sim::Message>& received) override {
    return fn_(ctx, received);
  }

 private:
  Fn fn_;
};

/// An engine node running `fn` in the single-port model.
inline std::unique_ptr<sim::Process> sp_lambda(SpLambdaProcess::Fn fn) {
  return std::make_unique<singleport::PortProcess>(
      std::make_unique<SpLambdaProcess>(std::move(fn)));
}

/// Order-sensitive hash over every field of every RoundDigest in `rounds`.
/// Pinned as a literal next to a Report fingerprint, it catches a change
/// that moves every engine configuration alike — which the identity tests,
/// comparing configurations of one build, cannot see.
[[nodiscard]] inline std::uint64_t digest_stream_hash(std::span<const sim::RoundDigest> rounds) {
  std::vector<std::uint64_t> words;
  words.reserve(rounds.size() * 16);
  for (const sim::RoundDigest& d : rounds) {
    words.insert(words.end(),
                 {static_cast<std::uint64_t>(d.round), d.sent, d.delivered, d.lost_crash,
                  d.lost_fault, d.lost_dead, d.delayed, d.crashes, d.omissions, d.links,
                  d.partitions, d.takeovers, d.delays, d.active_hash, d.payload_hash,
                  d.body_hash});
  }
  return hash_words(words);
}

namespace detail {

inline void append_piece(std::string& out, const std::string& s) { out += s; }
inline void append_piece(std::string& out, const char* s) { out += s; }

template <class T, class = std::enable_if_t<std::is_integral_v<T>>>
void append_piece(std::string& out, T v) {
  out += std::to_string(v);
}

}  // namespace detail

/// Concatenates strings, C strings, and integers into one test-case name.
template <class... Parts>
[[nodiscard]] std::string case_name(Parts&&... parts) {
  std::string out;
  (detail::append_piece(out, std::forward<Parts>(parts)), ...);
  return out;
}

}  // namespace lft::test
