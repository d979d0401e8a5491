#include "obs/obs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"

namespace lft::obs {

// ---- Histogram -------------------------------------------------------------

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q > 100.0) q = 100.0;
  // Rank of the target observation, 1-based: ceil(q/100 * count).
  const double want = (q / 100.0) * static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(want);
  if (static_cast<double>(rank) < want) ++rank;
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cum += buckets_[static_cast<std::size_t>(b)];
    if (cum >= rank) {
      const std::uint64_t upper = bucket_upper(b);
      std::uint64_t v =
          upper == std::numeric_limits<std::uint64_t>::max() ? max_ : upper - 1;
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  // An empty histogram's sentinels (min = u64 max, max = 0) make both folds
  // no-ops, so no emptiness branch is needed.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// ---- Snapshot lookups ------------------------------------------------------

const Snapshot::CounterRow* Snapshot::find_counter(std::string_view name) const noexcept {
  for (const auto& row : counters) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const Snapshot::GaugeRow* Snapshot::find_gauge(std::string_view name) const noexcept {
  for (const auto& row : gauges) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const Snapshot::HistogramRow* Snapshot::find_histogram(std::string_view name) const noexcept {
  for (const auto& row : histograms) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

// ---- renders ---------------------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

/// Metric names in this tree are snake_case identifiers, but escape anyway
/// so a hostile snapshot cannot corrupt a JSON artifact.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  out.reserve(256 + 96 * (counters.size() + gauges.size()) + 256 * histograms.size());
  for (const auto& row : counters) {
    out += "# TYPE " + row.name + " counter\n" + row.name + " ";
    append_u64(out, row.value);
    out += '\n';
  }
  for (const auto& row : gauges) {
    out += "# TYPE " + row.name + " gauge\n" + row.name + " ";
    append_i64(out, row.value);
    out += '\n';
  }
  for (const auto& row : histograms) {
    out += "# TYPE " + row.name + " summary\n";
    for (const auto& [label, q] :
         {std::pair{"0.5", 50.0}, std::pair{"0.9", 90.0}, std::pair{"0.99", 99.0}}) {
      out += row.name + "{quantile=\"" + label + "\"} ";
      append_u64(out, row.data.percentile(q));
      out += '\n';
    }
    out += row.name + "_sum ";
    append_u64(out, row.data.sum());
    out += '\n';
    out += row.name + "_count ";
    append_u64(out, row.data.count());
    out += '\n';
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::string out = "[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
  };
  for (const auto& row : counters) {
    comma();
    out += "{\"metric\": ";
    append_json_string(out, row.name);
    out += ", \"kind\": \"counter\", \"value\": ";
    append_u64(out, row.value);
    out += "}";
  }
  for (const auto& row : gauges) {
    comma();
    out += "{\"metric\": ";
    append_json_string(out, row.name);
    out += ", \"kind\": \"gauge\", \"value\": ";
    append_i64(out, row.value);
    out += "}";
  }
  for (const auto& row : histograms) {
    comma();
    out += "{\"metric\": ";
    append_json_string(out, row.name);
    out += ", \"kind\": \"histogram\", \"count\": ";
    append_u64(out, row.data.count());
    out += ", \"sum\": ";
    append_u64(out, row.data.sum());
    out += ", \"min\": ";
    append_u64(out, row.data.min());
    out += ", \"max\": ";
    append_u64(out, row.data.max());
    out += ", \"p50\": ";
    append_u64(out, row.data.percentile(50.0));
    out += ", \"p90\": ";
    append_u64(out, row.data.percentile(90.0));
    out += ", \"p95\": ";
    append_u64(out, row.data.percentile(95.0));
    out += ", \"p99\": ";
    append_u64(out, row.data.percentile(99.0));
    out += "}";
  }
  out += first ? "]" : "\n]";
  out += '\n';
  return out;
}

// ---- binary codec ----------------------------------------------------------

namespace {

constexpr std::uint8_t kSnapshotVersion = 1;

void put_name(ByteWriter& writer, const std::string& name) {
  writer.put_varint(name.size());
  writer.put_bytes(std::as_bytes(std::span<const char>(name.data(), name.size())));
}

std::optional<std::string> get_name(ByteReader& reader) {
  const auto len = reader.get_varint();
  // Metric names are short identifiers; a huge length is malformed input,
  // not a big registry.
  if (!len || *len > 4096) return std::nullopt;
  const auto bytes = reader.get_bytes(static_cast<std::size_t>(*len));
  if (!bytes) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(bytes->data()), bytes->size());
}

// Smallest encodings of one row per section: a one-byte name length (empty
// name) plus the value as a one-byte varint, a fixed u64, or the four
// header varints and one varint per bucket.
constexpr std::size_t kMinCounterBytes = 2;
constexpr std::size_t kMinGaugeBytes = 9;
constexpr std::size_t kMinHistogramBytes = 1 + 4 + Histogram::kBuckets;

// Reads a section's row count, rejecting counts the remaining bytes could
// not encode: a forged count must fail before it sizes a reserve().
std::optional<std::size_t> get_row_count(ByteReader& reader, std::size_t min_row_bytes) {
  const auto n = reader.get_varint();
  if (!n || *n > 65536 || *n > reader.remaining() / min_row_bytes) return std::nullopt;
  return static_cast<std::size_t>(*n);
}

}  // namespace

void Snapshot::encode(ByteWriter& writer) const {
  writer.put_u8(kSnapshotVersion);
  writer.put_varint(counters.size());
  for (const auto& row : counters) {
    put_name(writer, row.name);
    writer.put_varint(row.value);
  }
  writer.put_varint(gauges.size());
  for (const auto& row : gauges) {
    put_name(writer, row.name);
    writer.put_u64(static_cast<std::uint64_t>(row.value));
  }
  writer.put_varint(histograms.size());
  for (const auto& row : histograms) {
    put_name(writer, row.name);
    const auto& h = row.data;
    writer.put_varint(h.count_);
    writer.put_varint(h.sum_);
    writer.put_varint(h.count_ == 0 ? 0 : h.min_);
    writer.put_varint(h.max_);
    for (const std::uint64_t b : h.buckets_) writer.put_varint(b);
  }
}

std::optional<Snapshot> Snapshot::decode(ByteReader& reader) {
  const auto version = reader.get_u8();
  if (!version || *version != kSnapshotVersion) return std::nullopt;
  Snapshot snap;
  const auto n_counters = get_row_count(reader, kMinCounterBytes);
  if (!n_counters) return std::nullopt;
  snap.counters.reserve(*n_counters);
  for (std::size_t i = 0; i < *n_counters; ++i) {
    auto name = get_name(reader);
    const auto value = reader.get_varint();
    if (!name || !value) return std::nullopt;
    snap.counters.push_back({std::move(*name), *value});
  }
  const auto n_gauges = get_row_count(reader, kMinGaugeBytes);
  if (!n_gauges) return std::nullopt;
  snap.gauges.reserve(*n_gauges);
  for (std::size_t i = 0; i < *n_gauges; ++i) {
    auto name = get_name(reader);
    const auto value = reader.get_u64();
    if (!name || !value) return std::nullopt;
    snap.gauges.push_back({std::move(*name), static_cast<std::int64_t>(*value)});
  }
  const auto n_hists = get_row_count(reader, kMinHistogramBytes);
  if (!n_hists) return std::nullopt;
  snap.histograms.reserve(*n_hists);
  for (std::size_t i = 0; i < *n_hists; ++i) {
    auto name = get_name(reader);
    if (!name) return std::nullopt;
    HistogramRow row;
    row.name = std::move(*name);
    Histogram& h = row.data;
    const auto count = reader.get_varint();
    const auto sum = reader.get_varint();
    const auto min = reader.get_varint();
    const auto max = reader.get_varint();
    if (!count || !sum || !min || !max) return std::nullopt;
    // percentile() clamps into [min, max], which must be a valid range.
    if (*count > 0 && *min > *max) return std::nullopt;
    h.count_ = *count;
    h.sum_ = *sum;
    h.min_ = *count == 0 ? std::numeric_limits<std::uint64_t>::max() : *min;
    h.max_ = *max;
    std::uint64_t bucketed = 0;
    for (auto& bucket : h.buckets_) {
      const auto b = reader.get_varint();
      // The buckets must add up to count, without wrapping.
      if (!b || *b > *count - bucketed) return std::nullopt;
      bucket = *b;
      bucketed += *b;
    }
    if (bucketed != *count) return std::nullopt;
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void Snapshot::merge_from(const Snapshot& other) {
  for (const auto& row : other.counters) {
    if (auto* mine = const_cast<CounterRow*>(find_counter(row.name))) {
      mine->value += row.value;
    } else {
      counters.push_back(row);
    }
  }
  for (const auto& row : other.gauges) {
    if (auto* mine = const_cast<GaugeRow*>(find_gauge(row.name))) {
      mine->value = std::max(mine->value, row.value);
    } else {
      gauges.push_back(row);
    }
  }
  for (const auto& row : other.histograms) {
    if (auto* mine = const_cast<HistogramRow*>(find_histogram(row.name))) {
      mine->data.merge(row.data);
    } else {
      histograms.push_back(row);
    }
  }
}

// ---- Registry --------------------------------------------------------------

Registry::Entry& Registry::entry(std::string_view name, Kind kind) {
  if (const auto it = index_.find(name); it != index_.end()) {
    LFT_ASSERT_MSG(it->second->kind == kind, "metric re-registered with a different kind");
    return *it->second;
  }
  entries_.push_back(Entry{std::string(name), kind, {}, {}, {}});
  Entry& e = entries_.back();
  index_.emplace(e.name, &e);
  return e;
}

Counter& Registry::counter(std::string_view name) {
  return entry(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) { return entry(name, Kind::kGauge).gauge; }

Histogram& Registry::histogram(std::string_view name) {
  return entry(name, Kind::kHistogram).histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for (const auto& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.push_back({e.name, e.counter.value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({e.name, e.gauge.value()});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back({e.name, e.histogram});
        break;
    }
  }
  return snap;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& e : other.entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        counter(e.name).add(e.counter.value());
        break;
      case Kind::kGauge:
        gauge(e.name).set_max(e.gauge.value());
        break;
      case Kind::kHistogram:
        histogram(e.name).merge(e.histogram);
        break;
    }
  }
}

}  // namespace lft::obs
