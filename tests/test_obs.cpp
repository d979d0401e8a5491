// Telemetry-plane unit coverage: histogram bucket-boundary exactness,
// percentile extraction against a sorted-vector oracle, merge associativity,
// top-bucket clamping, registry snapshot/merge semantics, and the binary
// codec round-trip the kStatsReply wire frame depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "obs/obs.hpp"

namespace lft::obs {
namespace {

/// SplitMix64: a tiny deterministic value source for oracle tests.
std::uint64_t next_value(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(ObsHistogram, BucketBoundariesAreExact) {
  // Every bucket's inclusive lower bound maps into that bucket, the value
  // just below it maps into the previous bucket, and (below the clamping
  // top bucket) the value just below the exclusive upper bound stays inside.
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t lower = Histogram::bucket_lower(b);
    EXPECT_EQ(Histogram::bucket_index(lower), b) << "lower bound of bucket " << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_index(lower - 1), b - 1)
          << "value below bucket " << b << "'s lower bound";
    }
    if (b < Histogram::kBuckets - 1) {
      EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(b) - 1), b)
          << "value below bucket " << b << "'s upper bound";
      EXPECT_EQ(Histogram::bucket_upper(b), Histogram::bucket_lower(b + 1))
          << "buckets must tile the range with no gap";
    }
  }
  // Spot anchors: identity below 2, two sub-buckets per octave above.
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 3);
  EXPECT_EQ(Histogram::bucket_index(4), 4);
  EXPECT_EQ(Histogram::bucket_index(1000), Histogram::bucket_index(1023));
  EXPECT_NE(Histogram::bucket_index(1000), Histogram::bucket_index(1024));
}

TEST(ObsHistogram, PercentilesMatchSortedOracleBucket) {
  Histogram h;
  std::vector<std::uint64_t> values;
  std::uint64_t state = 42;
  for (int i = 0; i < 10000; ++i) {
    // Mix of magnitudes: sub-microsecond to multi-second latencies.
    const std::uint64_t v = next_value(state) % (std::uint64_t{1} << (10 + i % 22));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(values.size()))));
    const std::uint64_t oracle = values[rank - 1];
    const std::uint64_t got = h.percentile(q);
    EXPECT_EQ(Histogram::bucket_index(got), Histogram::bucket_index(oracle))
        << "p" << q << ": got " << got << ", oracle " << oracle;
  }
  // The tracked extremes are exact, not bucket-quantized.
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  EXPECT_EQ(h.percentile(100.0), values.back());
  EXPECT_EQ(h.percentile(0.0), values.front());
  EXPECT_EQ(h.count(), values.size());
}

TEST(ObsHistogram, MergeIsAssociativeAndMatchesDirectRecording) {
  Histogram a, b, c, all;
  std::uint64_t state = 7;
  const auto fill = [&](Histogram& h, int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = next_value(state) % 5000000;
      h.record(v);
      all.record(v);
    }
  };
  fill(a, 100);
  fill(b, 1000);
  fill(c, 10);

  Histogram left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  Histogram bc = b;     // a + (b + c)
  bc.merge(c);
  Histogram right = a;
  right.merge(bc);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left, all);
  // Merging an empty histogram is the identity.
  Histogram with_empty = left;
  with_empty.merge(Histogram{});
  EXPECT_EQ(with_empty, left);
}

TEST(ObsHistogram, TopBucketClampsWithoutLosingExactExtremes) {
  Histogram h;
  const std::uint64_t huge = std::uint64_t{1} << 40;  // ~18 minutes in ns
  h.record((std::uint64_t{1} << 32) - 1);             // last in-range value
  h.record(std::uint64_t{1} << 32);                   // first clamped value
  h.record(huge);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 3u);
  EXPECT_EQ(h.max(), huge);
  // The clamped percentile answer is bounded by the exact max, never by the
  // (unbounded) top bucket.
  EXPECT_EQ(h.percentile(99.0), huge);
  EXPECT_GE(h.percentile(50.0), Histogram::bucket_lower(Histogram::kBuckets - 1));
}

TEST(ObsHistogram, EmptyHistogramIsInert) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(ObsRegistry, RegistrationIsIdempotentAndStable) {
  Registry reg;
  Counter& c1 = reg.counter("lft_test_total");
  Counter& c2 = reg.counter("lft_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.add(2);
  EXPECT_EQ(c1.value(), 3u);
  // References survive later registrations (stable addresses).
  for (int i = 0; i < 100; ++i) reg.counter("lft_churn_" + std::to_string(i));
  EXPECT_EQ(c1.value(), 3u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(ObsRegistry, SnapshotRendersPrometheusAndJson) {
  Registry reg;
  reg.counter("lft_requests_total").add(42);
  reg.gauge("lft_depth").set(7);
  Histogram& h = reg.histogram("lft_latency_ns");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<std::uint64_t>(i) * 1000);

  const Snapshot snap = reg.snapshot();
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE lft_requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("lft_requests_total 42"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lft_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lft_latency_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("lft_latency_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("lft_latency_ns_count 100"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"metric\": \"lft_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(ObsSnapshot, BinaryCodecRoundTripsExactly) {
  Registry reg;
  reg.counter("lft_a_total").add(123456789);
  reg.gauge("lft_b").set(-42);
  Histogram& h = reg.histogram("lft_c_ns");
  std::uint64_t state = 3;
  for (int i = 0; i < 5000; ++i) h.record(next_value(state) % 100000000);
  const Snapshot snap = reg.snapshot();

  ByteWriter writer;
  snap.encode(writer);
  ByteReader reader(writer.view());
  const auto decoded = Snapshot::decode(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(reader.exhausted());

  ASSERT_EQ(decoded->counters.size(), 1u);
  EXPECT_EQ(decoded->counters[0].name, "lft_a_total");
  EXPECT_EQ(decoded->counters[0].value, 123456789u);
  ASSERT_EQ(decoded->gauges.size(), 1u);
  EXPECT_EQ(decoded->gauges[0].value, -42);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].data, h);

  // Truncated input fails softly at every prefix length.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, writer.size() / 2}) {
    ByteReader short_reader(writer.view().subspan(0, cut));
    EXPECT_FALSE(Snapshot::decode(short_reader).has_value()) << "prefix " << cut;
  }
}

/// Encodes a one-histogram snapshot from raw fields, bypassing Histogram's
/// invariants the way a hostile or buggy peer could.
std::vector<std::byte> encode_raw_histogram(std::uint64_t count, std::uint64_t min,
                                            std::uint64_t max,
                                            const std::vector<std::uint64_t>& buckets) {
  ByteWriter writer;
  writer.put_u8(1);      // snapshot version
  writer.put_varint(0);  // counters
  writer.put_varint(0);  // gauges
  writer.put_varint(1);  // histograms
  writer.put_varint(1);
  writer.put_u8(static_cast<std::uint8_t>('h'));
  writer.put_varint(count);
  writer.put_varint(count * 10);  // sum
  writer.put_varint(min);
  writer.put_varint(max);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    writer.put_varint(static_cast<std::size_t>(b) < buckets.size() ? buckets[b] : 0);
  }
  return writer.bytes();
}

TEST(ObsSnapshot, DecodeRejectsHistogramsThatBreakTheInvariants) {
  // Control: a consistent raw encoding decodes (value 10 lives in bucket 6).
  std::vector<std::uint64_t> buckets(7, 0);
  buckets[6] = 3;
  const auto good = encode_raw_histogram(3, 10, 10, buckets);
  ByteReader good_reader(good);
  const auto decoded = Snapshot::decode(good_reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->histograms[0].data.percentile(50.0), 10u);

  // min > max would hand std::clamp an inverted range in percentile().
  const auto inverted = encode_raw_histogram(3, 11, 10, buckets);
  ByteReader inverted_reader(inverted);
  EXPECT_FALSE(Snapshot::decode(inverted_reader).has_value());

  // Buckets that do not add up to count, including a sum that only matches
  // after wrapping around 2^64.
  for (const auto& bad : {std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 2},
                          std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 4},
                          std::vector<std::uint64_t>{4, 0, 0, 0, 0, 0, ~std::uint64_t{0}}}) {
    const auto bytes = encode_raw_histogram(3, 10, 10, bad);
    ByteReader reader(bytes);
    EXPECT_FALSE(Snapshot::decode(reader).has_value());
  }
}

TEST(ObsSnapshot, DecodeRejectsRowCountsTheInputCannotHold) {
  // Six bytes claiming 65536 histogram rows (~38 MB of rows if reserved):
  // rejected by the size check, before any row is read.
  ByteWriter writer;
  writer.put_u8(1);
  writer.put_varint(0);
  writer.put_varint(0);
  writer.put_varint(65536);
  ASSERT_EQ(writer.bytes().size(), 6u);
  ByteReader reader(writer.view());
  EXPECT_FALSE(Snapshot::decode(reader).has_value());
}

TEST(ObsSnapshot, MergeFoldsByNameWithCounterAddGaugeMaxHistogramMerge) {
  Registry a, b;
  a.counter("lft_n_total").add(10);
  b.counter("lft_n_total").add(5);
  b.counter("lft_only_b_total").add(1);
  a.gauge("lft_hw").set(3);
  b.gauge("lft_hw").set(9);
  a.histogram("lft_h_ns").record(100);
  b.histogram("lft_h_ns").record(200);

  Snapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  EXPECT_EQ(merged.find_counter("lft_n_total")->value, 15u);
  EXPECT_EQ(merged.find_counter("lft_only_b_total")->value, 1u);
  EXPECT_EQ(merged.find_gauge("lft_hw")->value, 9);
  EXPECT_EQ(merged.find_histogram("lft_h_ns")->data.count(), 2u);
  EXPECT_EQ(merged.find_histogram("lft_h_ns")->data.max(), 200u);

  // Registry-level merge agrees with snapshot-level merge.
  Registry folded;
  folded.merge_from(a);
  folded.merge_from(b);
  const Snapshot via_registry = folded.snapshot();
  EXPECT_EQ(via_registry.find_counter("lft_n_total")->value, 15u);
  EXPECT_EQ(via_registry.find_gauge("lft_hw")->value, 9);
  EXPECT_EQ(via_registry.find_histogram("lft_h_ns")->data.count(), 2u);
}

}  // namespace
}  // namespace lft::obs
