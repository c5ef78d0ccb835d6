// Unit tests for the utility layer: Status/Result, Rng distributions,
// Bitset64, string helpers, log macros.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "util/bitset64.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"

namespace dbdesign {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not found: table foo");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kBindError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
  // Reading the value of an error Result aborts in every build type.
  EXPECT_DEATH(static_cast<void>(r.value()),
               "value\\(\\) called on an error Result");
}

TEST(RngTest, DeterministicAcrossReseed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  a.Reseed(123);
  b.Reseed(123);
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(13);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ZipfBoundsAndSkew) {
  Rng rng(17);
  std::map<int64_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.Zipf(100, 1.1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    counts[v]++;
  }
  // Rank 0 must dominate rank 10 under skew.
  EXPECT_GT(counts[0], counts[10] * 2);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(19);
  std::map<int64_t, int> counts;
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.Zipf(10, 0.0)]++;
  for (auto& [v, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.03);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> s = rng.SampleWithoutReplacement(20, 8);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> v{1, 2, 2, 3, 4, 5, 5, 5};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Published FNV-1a 64 test vectors: fault selection and backoff jitter
// hash call keys with the plain digest, so it must stay the standard
// one.
TEST(HashTest, Fnv1aStandardVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, MixBytesIsLengthPrefixed) {
  EXPECT_EQ(Fnv1a().MixBytes("foobar").digest(),
            Fnv1a().MixU64(6).MixRaw("foobar").digest());
  EXPECT_NE(Fnv1a().MixBytes("ab").MixBytes("c").digest(),
            Fnv1a().MixBytes("a").MixBytes("bc").digest());
  EXPECT_EQ(Fnv1a().MixRaw("ab").MixRaw("c").digest(), Fnv1a64("abc"));
}

TEST(Bitset64Test, BasicOps) {
  Bitset64 s;
  EXPECT_TRUE(s.Empty());
  s.Set(3);
  s.Set(40);
  EXPECT_TRUE(s.Test(3));
  EXPECT_TRUE(s.Test(40));
  EXPECT_FALSE(s.Test(4));
  EXPECT_EQ(s.Count(), 2);
  EXPECT_EQ(s.Lowest(), 3);
  s.Reset(3);
  EXPECT_EQ(s.Lowest(), 40);
}

TEST(Bitset64Test, SetAlgebra) {
  Bitset64 a = Bitset64::Single(1) | Bitset64::Single(2);
  Bitset64 b = Bitset64::Single(2) | Bitset64::Single(3);
  EXPECT_EQ((a & b).Count(), 1);
  EXPECT_EQ((a | b).Count(), 3);
  EXPECT_EQ((a - b).Count(), 1);
  EXPECT_TRUE((a | b).Contains(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE((a - b).Intersects(b));
}

TEST(Bitset64Test, FullSetAndIteration) {
  Bitset64 s = Bitset64::FullSet(5);
  EXPECT_EQ(s.Count(), 5);
  int expected = 0;
  for (int i : s.Elements()) EXPECT_EQ(i, expected++);
  EXPECT_EQ(expected, 5);
}

TEST(StrTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StrTest, JoinAndSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrTest, CaseAndPrefix) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("abc"), "ABC");
  EXPECT_TRUE(StartsWith("photoobj", "photo"));
  EXPECT_FALSE(StartsWith("ph", "photo"));
}

TEST(StrTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5, 3), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 2), "2");
}

TEST(StrTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(LoggingTest, MessageBelowLevelIsNeverBuilt) {
  // The macros check the level before evaluating their argument: a
  // dropped message must not run the code that builds it.
  const LogLevel saved = GetLogLevel();
  int built = 0;
  auto message = [&built] {
    ++built;
    return std::string("logging test message");
  };
  SetLogLevel(LogLevel::kWarning);
  DBD_LOG_DEBUG(message());
  DBD_LOG_INFO(message());
  EXPECT_EQ(built, 0);
  SetLogLevel(LogLevel::kOff);
  DBD_LOG_WARN(message());
  DBD_LOG_ERROR(message());
  EXPECT_EQ(built, 0);
  SetLogLevel(LogLevel::kError);
  DBD_LOG_ERROR(message());  // at the level: built and emitted once
  EXPECT_EQ(built, 1);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace dbdesign
