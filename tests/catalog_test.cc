// Unit tests for catalog: values, schema, statistics, design descriptors.

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/design.h"
#include "catalog/schema.h"
#include "catalog/stats.h"
#include "catalog/value.h"

namespace dbdesign {
namespace {

TEST(ValueTest, CompareNumeric) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(5.0)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
  EXPECT_TRUE(Value(3.0) == Value(int64_t{3}));
}

TEST(ValueTest, CompareString) {
  EXPECT_LT(Value(std::string("abc")).Compare(Value(std::string("abd"))), 0);
  EXPECT_TRUE(Value(std::string("x")) == Value(std::string("x")));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "'hi'");
}

TEST(ValueTest, HashEqualValuesAgree) {
  EXPECT_EQ(Value(int64_t{9}).Hash(), Value(int64_t{9}).Hash());
  EXPECT_EQ(Value(std::string("abc")).Hash(), Value(std::string("abc")).Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
}

TEST(ValueTest, HashAgreesWithEqualityOnSignedZero) {
  // -0.0 == 0.0, so a hash join must find the pair a nested-loop join
  // finds.
  ASSERT_EQ(Value(-0.0), Value(0.0));
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
}

TEST(ValueTest, HashDigestsArePinned) {
  // Query structural hashes (and so trace call keys) read these.
  EXPECT_EQ(Value(std::string("photoobj")).Hash(), 0xfca03be16cd9199aull);
  EXPECT_EQ(Value(std::string("")).Hash(), 0xd725c98e9509182eull);
  EXPECT_EQ(Value(1.5).Hash(), 0x885dcc874e75b6f0ull);
  EXPECT_EQ(Value(int64_t{42}).Hash(), 0x810879608e4259ccull);
}

TEST(SchemaTest, FindColumnAndWidth) {
  TableDef def("t", {{"a", DataType::kInt64, 8}, {"b", DataType::kDouble, 8}});
  EXPECT_EQ(def.FindColumn("b"), 1);
  EXPECT_EQ(def.FindColumn("zz"), kInvalidColumnId);
  EXPECT_DOUBLE_EQ(def.RowWidthBytes(), kTupleOverheadBytes + 16.0);
  EXPECT_DOUBLE_EQ(def.PartialRowWidthBytes({0}), kTupleOverheadBytes + 8.0);
}

TEST(CatalogTest, AddAndLookup) {
  Catalog cat;
  auto id = cat.AddTable(TableDef("t1", {{"a", DataType::kInt64, 8}}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cat.FindTable("t1"), id.value());
  EXPECT_EQ(cat.FindTable("nope"), kInvalidTableId);
  auto dup = cat.AddTable(TableDef("t1", {}));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

std::vector<Value> IntColumn(const std::vector<int64_t>& v) {
  std::vector<Value> out;
  out.reserve(v.size());
  for (int64_t x : v) out.emplace_back(x);
  return out;
}

TEST(StatsTest, ExactNdvAndMinMax) {
  ColumnStats s = BuildColumnStats(IntColumn({5, 1, 3, 3, 5, 9}));
  EXPECT_DOUBLE_EQ(s.n_distinct, 4.0);
  EXPECT_EQ(s.min, Value(int64_t{1}));
  EXPECT_EQ(s.max, Value(int64_t{9}));
}

TEST(StatsTest, HistogramBoundsAreSorted) {
  std::vector<int64_t> data;
  for (int i = 0; i < 1000; ++i) data.push_back((i * 7919) % 503);
  ColumnStats s = BuildColumnStats(IntColumn(data));
  ASSERT_TRUE(s.HasHistogram());
  for (size_t i = 1; i < s.histogram.size(); ++i) {
    EXPECT_LE(s.histogram[i - 1].NumericPosition(),
              s.histogram[i].NumericPosition());
  }
  EXPECT_EQ(s.histogram.front(), s.min);
  EXPECT_EQ(s.histogram.back(), s.max);
}

TEST(StatsTest, McvCapturesSkew) {
  std::vector<int64_t> data;
  for (int i = 0; i < 900; ++i) data.push_back(7);
  for (int i = 0; i < 100; ++i) data.push_back(i + 100);
  ColumnStats s = BuildColumnStats(IntColumn(data));
  ASSERT_FALSE(s.mcv.empty());
  EXPECT_EQ(s.mcv[0].value, Value(int64_t{7}));
  EXPECT_NEAR(s.mcv[0].frequency, 0.9, 0.01);
}

TEST(StatsTest, CorrelationSequentialIsOne) {
  std::vector<int64_t> data;
  for (int i = 0; i < 500; ++i) data.push_back(i);
  ColumnStats s = BuildColumnStats(IntColumn(data));
  EXPECT_NEAR(s.correlation, 1.0, 1e-9);
}

TEST(StatsTest, CorrelationReversedIsMinusOne) {
  std::vector<int64_t> data;
  for (int i = 500; i > 0; --i) data.push_back(i);
  ColumnStats s = BuildColumnStats(IntColumn(data));
  EXPECT_NEAR(s.correlation, -1.0, 1e-9);
}

TEST(StatsTest, CorrelationShuffledIsSmall) {
  std::vector<int64_t> data;
  for (int i = 0; i < 2000; ++i) data.push_back((i * 48271) % 2003);
  ColumnStats s = BuildColumnStats(IntColumn(data));
  EXPECT_LT(std::abs(s.correlation), 0.2);
}

TEST(StatsTest, HeapPagesScaleWithRows) {
  TableDef def("t", {{"a", DataType::kInt64, 8}, {"b", DataType::kInt64, 8}});
  TableStats s1;
  s1.row_count = 1000;
  TableStats s2;
  s2.row_count = 100000;
  EXPECT_GT(s2.HeapPages(def), s1.HeapPages(def) * 50);
  EXPECT_GE(s1.HeapPages(def), 1.0);
}

TEST(DesignTest, IndexSizeNeverZero) {
  TableDef def("t", {{"a", DataType::kInt64, 8}});
  TableStats stats;
  stats.row_count = 1.0;
  stats.columns.emplace_back();
  IndexDef idx;
  idx.table = 0;
  idx.columns = {0};
  IndexSizeEstimate est = EstimateIndexSize(idx, def, stats);
  EXPECT_GE(est.leaf_pages, 1.0);
  EXPECT_GE(est.total_pages(), 1.0);
  EXPECT_GE(est.height, 1.0);
}

TEST(DesignTest, IndexSizeGrowsWithColumnsAndRows) {
  TableDef def("t", {{"a", DataType::kInt64, 8},
                     {"b", DataType::kInt64, 8},
                     {"c", DataType::kInt64, 8}});
  TableStats stats;
  stats.row_count = 200000;
  IndexDef one{0, {0}, false};
  IndexDef three{0, {0, 1, 2}, false};
  EXPECT_GT(EstimateIndexSize(three, def, stats).total_pages(),
            EstimateIndexSize(one, def, stats).total_pages());
  TableStats small;
  small.row_count = 1000;
  EXPECT_GT(EstimateIndexSize(one, def, stats).total_pages(),
            EstimateIndexSize(one, def, small).total_pages());
}

TEST(DesignTest, AddRemoveHasIndex) {
  PhysicalDesign d;
  IndexDef a{0, {1, 2}, false};
  IndexDef b{0, {2}, false};
  EXPECT_TRUE(d.AddIndex(a));
  EXPECT_FALSE(d.AddIndex(a));  // dedup
  EXPECT_TRUE(d.AddIndex(b));
  EXPECT_TRUE(d.HasIndex(a));
  EXPECT_EQ(d.IndexesOn(0).size(), 2u);
  EXPECT_TRUE(d.RemoveIndex(a));
  EXPECT_FALSE(d.RemoveIndex(a));
  EXPECT_FALSE(d.HasIndex(a));
}

TEST(DesignTest, FingerprintDistinguishesDesigns) {
  PhysicalDesign d1;
  PhysicalDesign d2;
  d1.AddIndex(IndexDef{0, {1}, false});
  d2.AddIndex(IndexDef{0, {2}, false});
  EXPECT_NE(d1.Fingerprint(), d2.Fingerprint());
  PhysicalDesign d3;
  d3.AddIndex(IndexDef{0, {1}, false});
  EXPECT_EQ(d1.Fingerprint(), d3.Fingerprint());
  EXPECT_TRUE(d1 == d3);
}

TEST(DesignTest, FingerprintOrderInsensitive) {
  PhysicalDesign d1;
  PhysicalDesign d2;
  d1.AddIndex(IndexDef{0, {1}, false});
  d1.AddIndex(IndexDef{1, {0}, false});
  d2.AddIndex(IndexDef{1, {0}, false});
  d2.AddIndex(IndexDef{0, {1}, false});
  EXPECT_EQ(d1.Fingerprint(), d2.Fingerprint());
}

TEST(DesignTest, VerticalPartitioningCoverage) {
  TableDef def("t", {{"a", DataType::kInt64, 8},
                     {"b", DataType::kInt64, 8},
                     {"c", DataType::kInt64, 8}});
  VerticalPartitioning vp;
  vp.table = 0;
  vp.fragments = {VerticalFragment{{0, 1}}, VerticalFragment{{2}}};
  EXPECT_TRUE(vp.CoversTable(def));
  vp.fragments = {VerticalFragment{{0, 1}}};
  EXPECT_FALSE(vp.CoversTable(def));
}

TEST(DesignTest, ReplicationFactor) {
  TableDef def("t", {{"a", DataType::kInt64, 8}, {"b", DataType::kInt64, 8}});
  VerticalPartitioning vp;
  vp.table = 0;
  vp.fragments = {VerticalFragment{{0, 1}}, VerticalFragment{{0}}};
  EXPECT_NEAR(vp.ReplicationFactor(def), 1.5, 1e-9);
}

TEST(DesignTest, PartitioningAccessors) {
  PhysicalDesign d;
  EXPECT_EQ(d.vertical(0), nullptr);
  VerticalPartitioning vp;
  vp.table = 0;
  vp.fragments = {VerticalFragment{{0}}};
  d.SetVerticalPartitioning(vp);
  ASSERT_NE(d.vertical(0), nullptr);
  EXPECT_TRUE(d.HasPartitions());
  d.ClearVerticalPartitioning(0);
  EXPECT_EQ(d.vertical(0), nullptr);

  HorizontalPartitioning hp;
  hp.table = 1;
  hp.column = 0;
  hp.bounds = {Value(int64_t{10}), Value(int64_t{20})};
  d.SetHorizontalPartitioning(hp);
  ASSERT_NE(d.horizontal(1), nullptr);
  EXPECT_EQ(d.horizontal(1)->num_partitions(), 3);
}

TEST(DesignTest, DisplayName) {
  Catalog cat;
  cat.AddTable(TableDef("photoobj", {{"ra", DataType::kDouble, 8},
                                     {"dec", DataType::kDouble, 8}}));
  IndexDef idx{0, {0, 1}, false};
  EXPECT_EQ(idx.DisplayName(cat), "idx_photoobj_ra_dec");
}

}  // namespace
}  // namespace dbdesign
