// Runtime telemetry plane: zero-allocation, branch-cheap instruments owned
// by a Registry, snapshotted into a value type that renders as Prometheus
// text exposition or JSON and round-trips through the common binary codec
// (so a live server can ship its registry over the wire in one frame).
//
// Instruments are deliberately *not* atomic: every writer in the tree is
// single-threaded where it records (the service reactor thread, the engine
// coordinator, one fleet worker per registry). Cross-thread aggregation
// happens by merging whole registries/snapshots after the writers are done
// — the same fold pattern FleetRunner already uses for scratch counters.
//
// The Histogram is HDR-style log-linear: 64 fixed buckets, two sub-buckets
// per power of two (worst-case relative bucket width 50%), covering
// 1 ns .. 2^32 ns (~4.3 s) with the top bucket absorbing everything larger.
// record() is O(1) and allocation-free; count/sum/min/max are tracked
// exactly, so percentile() can clamp its bucket-bound answer into the
// observed [min, max] range and merge() stays associative.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"

namespace lft::obs {

/// Monotonic wall-clock sample in nanoseconds (steady_clock) — the common
/// time source for every `*_ns` metric in the tree. Telemetry reads the
/// clock and records; it never branches on the value, so instrumented code
/// stays bit-identical to uninstrumented code in everything it computes.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic event count. Single-writer; merge by addition.
class Counter {
 public:
  void inc() noexcept { ++value_; }
  void add(std::uint64_t n) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, ring high-water, arena bytes).
/// Single-writer; merge keeps the maximum (the interesting direction for
/// every gauge in the tree — occupancy and high-water marks).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t d) noexcept { value_ += d; }
  /// High-water update: keeps the larger of the current and new value.
  void set_max(std::int64_t v) noexcept {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Log-linear fixed-bucket histogram (see file comment). Values are
/// dimensionless u64s; by convention the tree records nanoseconds into
/// `*_ns` metrics and plain counts elsewhere.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index of a value: identity below 2, then two sub-buckets per
  /// octave (index = 2*floor(log2 v) + next-bit-below-msb). Values at or
  /// above 2^32 clamp into the top bucket.
  [[nodiscard]] static int bucket_index(std::uint64_t v) noexcept {
    if (v < 2) return static_cast<int>(v);
    const int e = std::bit_width(v) - 1;  // floor(log2 v) >= 1
    if (e >= 32) return kBuckets - 1;
    return 2 * e + static_cast<int>((v >> (e - 1)) & 1u);
  }

  /// Inclusive lower bound of a bucket's value range.
  [[nodiscard]] static std::uint64_t bucket_lower(int b) noexcept {
    if (b < 2) return static_cast<std::uint64_t>(b);
    const int e = b / 2;
    const std::uint64_t m = static_cast<std::uint64_t>(b & 1);
    return (std::uint64_t{1} << e) + (m << (e - 1));
  }

  /// Exclusive upper bound; the top bucket is unbounded (clamping).
  [[nodiscard]] static std::uint64_t bucket_upper(int b) noexcept {
    if (b >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
    return bucket_lower(b + 1);
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[static_cast<std::size_t>(bucket_index(v))];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Exact observed extremes; 0 when empty.
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket_count(int b) const noexcept {
    return buckets_[static_cast<std::size_t>(b)];
  }

  /// Value at quantile q (0..100]: the upper edge of the bucket holding the
  /// ceil(q/100 * count)-th observation, clamped into the exact observed
  /// [min, max] range. 0 when empty. Worst-case relative error is the
  /// bucket width: 50%.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  /// Bucket-wise addition plus count/sum/min/max folds. Associative and
  /// commutative: merging per-worker histograms in any order yields the
  /// same result as recording every value into one histogram.
  void merge(const Histogram& other) noexcept;

  void reset() noexcept { *this = Histogram{}; }

  [[nodiscard]] bool operator==(const Histogram& other) const noexcept = default;

 private:
  friend struct Snapshot;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// One registry's state at a point in time: plain values, detached from the
/// live instruments. Renders, merges, and round-trips through the codec.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    Histogram data;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  [[nodiscard]] const CounterRow* find_counter(std::string_view name) const noexcept;
  [[nodiscard]] const GaugeRow* find_gauge(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramRow* find_histogram(std::string_view name) const noexcept;

  /// Prometheus text exposition: counters and gauges as single samples,
  /// histograms as summaries (quantile 0.5/0.9/0.99 labels + _sum/_count).
  [[nodiscard]] std::string to_prometheus() const;

  /// JSON array of flat row objects (the bench_json.hpp artifact shape):
  /// {"metric","kind","value"} for scalars, {"metric","kind","count","sum",
  /// "min","max","p50","p90","p99"} for histograms.
  [[nodiscard]] std::string to_json() const;

  /// Binary codec (versioned) for the kStatsReply wire frame and for
  /// --stats-dump artifacts' transport. decode rejects malformed input.
  void encode(ByteWriter& writer) const;
  [[nodiscard]] static std::optional<Snapshot> decode(ByteReader& reader);

  /// Folds `other` in by metric name: counters add, gauges keep the max,
  /// histograms merge; names unique to `other` are appended.
  void merge_from(const Snapshot& other);
};

/// Owns named instruments and hands out stable references. Registration is
/// idempotent (same name returns the same instrument) and cheap enough for
/// setup paths; the returned references are the hot-path handles — no name
/// lookup ever happens on record. Not thread-safe: one writer thread per
/// registry, aggregation by snapshot()/merge after writers quiesce.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Copies every instrument's current value into a detached Snapshot, in
  /// registration order.
  [[nodiscard]] Snapshot snapshot() const;

  /// Folds another registry's instruments into this one by name (counter
  /// add, gauge max, histogram merge), creating missing instruments.
  void merge_from(const Registry& other);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  std::deque<Entry> entries_;               // stable addresses for references
  std::map<std::string, Entry*, std::less<>> index_;
};

}  // namespace lft::obs
