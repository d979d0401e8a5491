// Execution tracing hook for the forensics plane: when a TraceSink is
// installed (EngineConfig::trace), the engine emits one RoundDigest per
// executed round — message counts per fate class, fault actions applied,
// a hash of the stepped active set, and a payload hash over the delivered
// batch (headers and bodies). Digests are a pure function of the execution,
// so they are bit-identical across the serial and parallel steppers and
// across scratch adoption, which is what lets forensics::replay localize the
// *first divergent round and component* instead of comparing only the final
// Report fingerprint.
//
// Cost contract: with no sink installed the engine pays nothing on the
// delivery hot path (the loss-class counters hide behind the existing drop
// branches, and the per-round hashing is skipped entirely). With a sink
// installed the recorder budget is <= 5% of the engine hot path or <= 5 ns
// per message (whichever allows more — the digest work is a fixed absolute
// cost, so the relative bound alone would tighten every time the untraced
// path gets faster), held by
// bench/bench_trace.cpp + scripts/check_trace_overhead.py in CI; the hashes
// below are therefore multiply-accumulate folds (one multiply + add per
// 64-bit word) finalized through mix64 once per round, not per-message
// hash_combine chains.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "sim/message.hpp"

namespace lft::sim {

/// One executed round, digested. Every field is deterministic given
/// (processes, fault plane, seed): equal executions give equal digests
/// regardless of engine thread count or scratch reuse.
struct RoundDigest {
  Round round = 0;             ///< the 0-based round this digest describes
  std::uint64_t sent = 0;      ///< messages produced this round (pre-filtering)
  std::uint64_t delivered = 0; ///< messages that reached an inbox
  std::uint64_t lost_crash = 0;  ///< dropped: sender crashed this round (keep-filter misses)
  std::uint64_t lost_fault = 0;  ///< dropped in transit: omission / partition / link
  std::uint64_t lost_dead = 0;   ///< dropped: receiver already crashed or halted
  /// Messages that entered the due-round delay queue this round (timing
  /// faults hold, never lose: each resolves to delivered or lost_dead at its
  /// due round). Trace codec v2; absent (zero) in v1 traces.
  std::uint64_t delayed = 0;
  std::uint32_t crashes = 0;     ///< crash actions applied this round
  std::uint32_t omissions = 0;   ///< omission flag changes (enable + disable)
  std::uint32_t links = 0;       ///< link cut / heal actions
  std::uint32_t partitions = 0;  ///< partition install / clear actions
  std::uint32_t takeovers = 0;   ///< Byzantine takeovers applied this round
  std::uint32_t delays = 0;      ///< delay-rule installs/retires + GST arms (codec v2)
  std::uint64_t active_hash = 0;  ///< hash over the stepped active set
  /// Digest of the delivered batch's headers: a commutative (order-free)
  /// sum over per-message header words plus the delivered count — it
  /// distinguishes batches by content multiset, not by order (which the
  /// engine determines from content anyway). See digest_messages_final.
  std::uint64_t payload_hash = 0;
  /// XOR of header-salted body digests over the bodies *stored this round*
  /// (i.e. sent — including sends later lost to crashes or fault filters).
  /// Computed at store time while the bytes are cache-hot and combined
  /// commutatively, so it is bit-identical across the serial and parallel
  /// steppers; a changed body surfaces in its send round.
  std::uint64_t body_hash = 0;

  /// Memberwise (never memcmp: the layout has padding after the u32 action
  /// counters, and padding bytes are indeterminate).
  [[nodiscard]] bool operator==(const RoundDigest&) const = default;
};

/// Receives one RoundDigest per executed round, in round order, on the
/// engine's coordinating thread. Implementations must not re-enter the
/// engine. Install via EngineConfig::trace (non-owning; off by default).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_round(const RoundDigest& digest) = 0;
};

namespace detail {
// Odd multipliers for the per-field mixes below (golden ratio + the
// SplitMix64 / Murmur finalizer constants — any set of distinct odd 64-bit
// constants with good bit dispersion works).
inline constexpr std::uint64_t kMulChain = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kMulAddr = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMulValue = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kMulTag = 0x2545f4914f6cdd1dULL;
inline constexpr std::uint64_t kMulBits = 0xff51afd7ed558ccdULL;
inline constexpr std::uint64_t kMulBody = 0xc4ceb9fe1a85ec53ULL;
}  // namespace detail

/// Mixes one message's header fields into a single word through independent
/// multiplies (the CPU overlaps them — this is on the traced hot path).
[[nodiscard]] inline std::uint64_t digest_header(const Message& m) noexcept {
  using namespace detail;
  std::uint64_t w = ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.from)) << 32) |
                     static_cast<std::uint32_t>(m.to)) *
                    kMulAddr;
  w ^= m.value * kMulValue;
  w ^= ((static_cast<std::uint64_t>(m.tag) << 32) | m.body_len) * kMulTag;
  w ^= m.bits * kMulBits;
  return w;
}

/// Digest of a message batch's headers (from, to, tag, value, bits, body
/// length), computed over the delivery normal form. Bodies are deliberately
/// excluded: by delivery time their bytes are cache-cold (inbox order is
/// unrelated to arena order), so the engine hashes them at store time
/// instead — see digest_body and RoundDigest::body_hash.
///
/// Accumulation is a commutative wrapping SUM of per-message header words,
/// not an ordered chain. Three reasons: (1) batch order in the engine is a
/// deterministic function of batch content, so order carries no extra
/// information; (2) commutativity is what lets the engine accumulate the
/// sum on the send path while the fields are still in registers (worker-
/// local partials folded at delivery, rare dropped messages subtracted
/// during compaction) instead of re-streaming the reordered delivered batch
/// from DRAM — a full extra memory pass that blew the recorder-overhead
/// gate (bench/bench_trace.cpp) on million-message rounds; (3) unlike
/// XOR, a sum does not cancel identical duplicate messages (legal in the
/// model) pairwise.
[[nodiscard]] inline std::uint64_t digest_messages_final(std::uint64_t header_sum,
                                                         std::uint64_t count) noexcept {
  return mix64(header_sum + count * detail::kMulChain);
}

/// Header-salted digest of one message's body bytes, for the commutative
/// RoundDigest::body_hash accumulator. Word order inside the body matters
/// (position-salted multipliers, kept odd), but contributions XOR across
/// messages, which is what makes the accumulator identical no matter which
/// worker's arena stored the body. `header_word` is the message's
/// digest_header (computed once by the caller, shared with the header sum);
/// `bytes` is the body content — callers on the send path pass the *source*
/// span rather than the just-memcpy'd arena copy, because reading bytes
/// right behind the copy's vector stores defeats store-to-load forwarding
/// and costs ~4x the hash itself.
[[nodiscard]] inline std::uint64_t digest_body(std::uint64_t header_word,
                                               PayloadView bytes) noexcept {
  using namespace detail;
  std::uint64_t bw = header_word;
  const std::byte* body = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t salt = kMulBody;
  // Four words per step with independent salts: the products have no
  // dependency on each other, so the CPU overlaps the multiplies instead of
  // serializing on one salt/accumulator chain (same per-word salts, XOR is
  // commutative — the digest value is unchanged).
  while (left >= 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, body, 8);
    std::memcpy(&w1, body + 8, 8);
    std::memcpy(&w2, body + 16, 8);
    std::memcpy(&w3, body + 24, 8);
    bw ^= (w0 * salt) ^ (w1 * (salt + 2)) ^ (w2 * (salt + 4)) ^ (w3 * (salt + 6));
    salt += 8;
    body += 32;
    left -= 32;
  }
  while (left >= 8) {
    std::uint64_t word;
    std::memcpy(&word, body, 8);
    bw ^= word * salt;
    salt += 2;
    body += 8;
    left -= 8;
  }
  if (left != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, body, left);
    bw ^= word * salt;  // tail is zero-padded; body_len disambiguates
  }
  // No finalizer: contributions are XOR-combined and already products of
  // odd constants; per-message avalanche buys nothing the accumulator's
  // final mix64 (in the Report/trace consumer) wouldn't.
  return bw;
}

/// Order-sensitive digest of a node-id set (the engine hashes the stepped
/// active set, which it keeps in ascending id order).
[[nodiscard]] inline std::uint64_t digest_nodes(std::span<const NodeId> nodes) noexcept {
  std::uint64_t acc = 0x4c465441u;  // "LFTA"
  acc = acc * detail::kMulChain + nodes.size();
  for (const NodeId v : nodes) {
    acc = acc * detail::kMulChain +
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  }
  return mix64(acc);
}

}  // namespace lft::sim
