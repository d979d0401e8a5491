// Unit tests for src/common: hashing, deterministic RNG, integer/modular
// math, the dynamic bitset, the bounds-checked codec, and the CLI parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/cli.hpp"
#include "common/codec.hpp"
#include "common/flat_set64.hpp"
#include "common/hash.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace lft {
namespace {

// ---- hash -------------------------------------------------------------------

TEST(Hash, Mix64IsDeterministicAndDispersive) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Consecutive inputs should differ in roughly half the bits.
  int diff_bits = __builtin_popcountll(mix64(1000) ^ mix64(1001));
  EXPECT_GT(diff_bits, 16);
  EXPECT_LT(diff_bits, 48);
}

TEST(Hash, HashBytesDependsOnContentAndLength) {
  std::vector<std::byte> a{std::byte{1}, std::byte{2}, std::byte{3}};
  std::vector<std::byte> b{std::byte{1}, std::byte{2}, std::byte{4}};
  std::vector<std::byte> c{std::byte{1}, std::byte{2}};
  EXPECT_EQ(hash_bytes(a), hash_bytes(a));
  EXPECT_NE(hash_bytes(a), hash_bytes(b));
  EXPECT_NE(hash_bytes(a), hash_bytes(c));
}

TEST(Hash, HashWordsIsOrderSensitive) {
  std::vector<std::uint64_t> ab{1, 2};
  std::vector<std::uint64_t> ba{2, 1};
  EXPECT_NE(hash_words(ab), hash_words(ba));
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(4);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, MakeSeedSeparatesPurposes) {
  EXPECT_NE(make_seed(1, 2, 3), make_seed(2, 2, 3));
  EXPECT_NE(make_seed(1, 2, 3), make_seed(1, 3, 2));
  EXPECT_EQ(make_seed(1, 2, 3), make_seed(1, 2, 3));
}

// ---- math ---------------------------------------------------------------------

TEST(Math, Logs) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(lg_rounds(1), 1);
  EXPECT_EQ(lg_rounds(5), 3);
}

TEST(Math, Primality) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(13));
  EXPECT_TRUE(is_prime(104729));  // 10000th prime
  EXPECT_FALSE(is_prime(104730));
  EXPECT_TRUE(is_prime(2147483647ULL));  // 2^31 - 1, Mersenne
  EXPECT_EQ(next_prime(14), 17ULL);
  EXPECT_EQ(next_prime(17), 17ULL);
}

TEST(Math, PowAndInverse) {
  EXPECT_EQ(powmod(2, 10, 1000), 24ULL);
  EXPECT_EQ(powmod(3, 0, 7), 1ULL);
  const std::uint64_t p = 1000003;
  for (std::uint64_t a : {2ULL, 999ULL, 123456ULL}) {
    EXPECT_EQ(mulmod(a, invmod(a, p), p), 1ULL);
  }
}

TEST(Math, LegendreSymbol) {
  // Squares mod 13: 1, 4, 9, 3, 12, 10.
  for (std::uint64_t qr : {1ULL, 4ULL, 9ULL, 3ULL, 12ULL, 10ULL}) {
    EXPECT_EQ(legendre(qr, 13), 1) << qr;
  }
  for (std::uint64_t nqr : {2ULL, 5ULL, 6ULL, 7ULL, 8ULL, 11ULL}) {
    EXPECT_EQ(legendre(nqr, 13), -1) << nqr;
  }
  EXPECT_EQ(legendre(13, 13), 0);
}

TEST(Math, SqrtModRecoversRoots) {
  for (std::uint64_t p : {13ULL, 17ULL, 29ULL, 101ULL, 1000003ULL}) {
    Rng rng(p);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t x = 1 + rng.uniform(p - 1);
      const std::uint64_t a = mulmod(x, x, p);
      const std::uint64_t r = sqrtmod(a, p);
      EXPECT_EQ(mulmod(r, r, p), a) << "p=" << p << " a=" << a;
    }
  }
}

TEST(Math, SqrtModOfMinusOne) {
  // q == 1 (mod 4) admits i with i^2 == -1; this is the LPS ingredient.
  for (std::uint64_t q : {13ULL, 17ULL, 29ULL, 37ULL, 41ULL}) {
    const std::uint64_t i = sqrtmod(q - 1, q);
    EXPECT_EQ(mulmod(i, i, q), q - 1);
  }
}

// ---- bitset ---------------------------------------------------------------------

TEST(Bitset, SetTestCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.set(64, false);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, SetAllRespectsPadding) {
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
}

TEST(Bitset, OrAssignReportsChange) {
  DynamicBitset a(100), b(100);
  a.set(3);
  b.set(3);
  EXPECT_FALSE(a.or_assign(b));
  b.set(99);
  EXPECT_TRUE(a.or_assign(b));
  EXPECT_TRUE(a.test(99));
}

TEST(Bitset, MinusAndSubset) {
  DynamicBitset a(64), b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  const auto d = a.minus(b);
  EXPECT_TRUE(d.test(1));
  EXPECT_FALSE(d.test(2));
  EXPECT_TRUE(b.is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
}

TEST(Bitset, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(5);
  b.set(77);
  b.set(199);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(5), 77u);
  EXPECT_EQ(b.find_next(77), 199u);
  EXPECT_EQ(b.find_next(199), 200u);
}

TEST(Bitset, ForEachVisitsInOrder) {
  DynamicBitset b(150);
  std::vector<std::size_t> expected{0, 63, 64, 127, 128, 149};
  for (auto i : expected) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(b.to_indices(), expected);
}

TEST(Bitset, Equality) {
  DynamicBitset a(10), b(10), c(11);
  a.set(3);
  b.set(3);
  EXPECT_EQ(a, b);
  b.set(4);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

// ---- codec -----------------------------------------------------------------------

TEST(Codec, RoundTripScalars) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(0xFFFFFFFFFFFFFFFFULL);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_varint(), 0u);
  EXPECT_EQ(r.get_varint(), 127u);
  EXPECT_EQ(r.get_varint(), 128u);
  EXPECT_EQ(r.get_varint(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TruncatedReadsFailSoftly) {
  ByteWriter w;
  w.put_u32(5);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_u8().has_value());
  EXPECT_FALSE(r.get_u32().has_value());  // only 3 bytes left
  EXPECT_FALSE(r.get_u64().has_value());
}

TEST(Codec, VarintOverlongFails) {
  // 10 continuation bytes exceed the 64-bit shift budget.
  std::vector<std::byte> bad(10, std::byte{0x80});
  ByteReader r(bad);
  EXPECT_FALSE(r.get_varint().has_value());
}

TEST(Codec, BitsetRoundTrip) {
  DynamicBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  ByteWriter w;
  w.put_bitset(b);
  ByteReader r(w.bytes());
  const auto decoded = r.get_bitset(100);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, b);
}

TEST(Codec, BitsetRejectsOversizeAndGarbagePadding) {
  DynamicBitset b(100);
  ByteWriter w;
  w.put_bitset(b);
  {
    ByteReader r(w.bytes());
    EXPECT_FALSE(r.get_bitset(64).has_value());  // declared 100 > cap 64
  }
  // Corrupt a padding bit (bit 100 within the second word).
  auto bytes = w.take();
  bytes[1 + 8 + 4] |= std::byte{0x10};  // varint(100)=1 byte, word0=8 bytes
  ByteReader r(bytes);
  EXPECT_FALSE(r.get_bitset(128).has_value());
}

TEST(Codec, GetBytesExactLength) {
  ByteWriter w;
  w.put_u8(1);
  w.put_u8(2);
  w.put_u8(3);
  ByteReader r(w.bytes());
  auto got = r.get_bytes(2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 2u);
  EXPECT_FALSE(r.get_bytes(2).has_value());  // only 1 byte left
}

// ---- FlatSet64 -----------------------------------------------------------------

TEST(FlatSet64, InsertContainsErase) {
  FlatSet64 set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));  // duplicate
  EXPECT_TRUE(set.contains(7));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.erase(7));
  EXPECT_FALSE(set.erase(7));
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.empty());
}

TEST(FlatSet64, SurvivesGrowthAndChurn) {
  // Insert/erase churn across several growths; mirror against std::set.
  FlatSet64 set;
  std::set<std::uint64_t> mirror;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.uniform(4096);
    if (rng.uniform(3) == 0) {
      EXPECT_EQ(set.erase(key), mirror.erase(key) > 0);
    } else {
      EXPECT_EQ(set.insert(key), mirror.insert(key).second);
    }
  }
  EXPECT_EQ(set.size(), mirror.size());
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(set.contains(key), mirror.count(key) > 0) << key;
  }
}

TEST(FlatSet64, BackwardShiftKeepsProbeChainsIntact) {
  // Colliding keys probe linearly; erasing from the middle of a chain must
  // not orphan later entries.
  FlatSet64 set(8);
  for (std::uint64_t k = 1; k <= 64; ++k) set.insert(k);
  for (std::uint64_t k = 1; k <= 64; k += 2) EXPECT_TRUE(set.erase(k));
  for (std::uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(set.contains(k), k % 2 == 0) << k;
  }
}

// ---- cli --------------------------------------------------------------------

/// Runs an ArgParser with one numeric sink of each kind over `args`.
struct CliRun {
  std::uint64_t u = 7;
  std::int64_t i = 7;
  int k = 7;
  std::uint16_t port = 7;

  [[nodiscard]] bool parse(std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    return cli::ArgParser(static_cast<int>(argv.size()), argv.data())
        .on_u64("--u", u)
        .on_i64("--i", i, -5)
        .on_int("--k", k, 1)
        .on_port("--port", port)
        .parse();
  }
};

TEST(Cli, RejectsExponentNotation) {
  // strtoull stops at 'e': unchecked, `1e5` silently meant 1.
  for (const char* arg : {"--u=1e5", "--i=1e5", "--k=1e5", "--port=1e3"}) {
    CliRun run;
    EXPECT_FALSE(run.parse({arg})) << arg;
  }
}

TEST(Cli, RejectsTrailingCharacters) {
  for (const char* arg : {"--u=12x", "--i=12x", "--k=12x", "--k=12 ", "--k= 12", "--port=80x"}) {
    CliRun run;
    EXPECT_FALSE(run.parse({arg})) << arg;
  }
}

TEST(Cli, RejectsEmptyValues) {
  for (const char* arg : {"--u=", "--i=", "--k=", "--port=", "--u", "--k"}) {
    CliRun run;
    EXPECT_FALSE(run.parse({arg})) << arg;
  }
  std::uint64_t u = 0;
  std::int64_t i = 0;
  EXPECT_FALSE(cli::parse_u64("", u));
  EXPECT_FALSE(cli::parse_i64("", i));
}

TEST(Cli, RejectsOverflowAndSignedUnsigned) {
  for (const char* arg : {"--u=18446744073709551616", "--u=-1",
                          "--i=9223372036854775808", "--i=-9223372036854775809",
                          "--k=2147483648", "--k=-2147483649", "--port=65536",
                          "--port=70000", "--port=-1"}) {
    CliRun run;
    EXPECT_FALSE(run.parse({arg})) << arg;
  }
}

TEST(Cli, AcceptsValidValuesAtEachBound) {
  CliRun high;
  ASSERT_TRUE(high.parse({"--u=18446744073709551615", "--i=9223372036854775807",
                          "--k=2147483647", "--port=65535"}));
  EXPECT_EQ(high.u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(high.i, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(high.k, std::numeric_limits<int>::max());
  EXPECT_EQ(high.port, 65535);

  CliRun low;
  ASSERT_TRUE(low.parse({"--u=0", "--i=-5", "--k=1", "--port=0"}));
  EXPECT_EQ(low.u, 0u);
  EXPECT_EQ(low.i, -5);
  EXPECT_EQ(low.k, 1);
  EXPECT_EQ(low.port, 0);
}

TEST(Cli, ClampsWellFormedValuesBelowTheMinimum) {
  CliRun run;
  ASSERT_TRUE(run.parse({"--i=-9223372036854775808", "--k=-2147483648"}));
  EXPECT_EQ(run.i, -5);
  EXPECT_EQ(run.k, 1);
}

}  // namespace
}  // namespace lft
