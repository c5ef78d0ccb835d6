// Workload compression tests: signature semantics, structural
// verification of signature collisions, weight preservation (property
// swept over seeds), the template-class table, and advisor-quality /
// bit-identity preservation on compressed input.

#include <gtest/gtest.h>

#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "sql/binder.h"
#include "workload/compress.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class CompressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 4000;
    cfg.seed = 61;
    db_ = new Database(BuildSdssDatabase(cfg));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static BoundQuery Q(const std::string& sql) {
    auto q = ParseAndBind(db_->catalog(), sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.value();
  }

  static Database* db_;
};

Database* CompressTest::db_ = nullptr;

TEST_F(CompressTest, SameTemplateDifferentConstantsCollide) {
  BoundQuery a = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20");
  BoundQuery b = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 200 AND 201");
  EXPECT_EQ(TemplateSignature(a), TemplateSignature(b));
  // Range shapes fuse too (template instantiations vary the operator).
  BoundQuery c = Q("SELECT objid FROM photoobj WHERE ra > 300");
  EXPECT_EQ(TemplateSignature(a), TemplateSignature(c));
}

TEST_F(CompressTest, DifferentStructureDoesNotCollide) {
  BoundQuery a = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20");
  BoundQuery b = Q("SELECT objid FROM photoobj WHERE dec BETWEEN 10 AND 20");
  BoundQuery c = Q("SELECT objid FROM photoobj WHERE ra = 10");
  BoundQuery d = Q("SELECT objid, dec FROM photoobj WHERE ra BETWEEN 1 AND 2");
  EXPECT_NE(TemplateSignature(a), TemplateSignature(b));
  EXPECT_NE(TemplateSignature(a), TemplateSignature(c));  // eq vs range
  EXPECT_NE(TemplateSignature(a), TemplateSignature(d));  // select list
}

TEST_F(CompressTest, WeightsArePreservedExactly) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 60, 9);
  CompressionReport report;
  Workload c = CompressWorkload(w, &report);
  EXPECT_EQ(report.original_queries, 60u);
  EXPECT_LT(report.compressed_queries, 20u)
      << "template-generated workloads must compress hard";
  double w_total = 0.0;
  double c_total = 0.0;
  for (size_t i = 0; i < w.size(); ++i) w_total += w.WeightOf(i);
  for (size_t i = 0; i < c.size(); ++i) c_total += c.WeightOf(i);
  EXPECT_DOUBLE_EQ(w_total, c_total);
}

TEST_F(CompressTest, CompressedIdsAreReassigned) {
  Workload w = GenerateWorkload(*db_, TemplateMix::Uniform(), 30, 13);
  Workload c = CompressWorkload(w);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.queries[i].id, static_cast<int>(i));
  }
}

TEST_F(CompressTest, AdvisorQualitySurvivesCompression) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 50, 17);
  CompressionReport report;
  Workload c = CompressWorkload(w, &report);
  ASSERT_LT(report.compressed_queries, report.original_queries);

  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  CoPhyOptions opts;
  opts.storage_budget_pages = data_pages;

  InMemoryBackend backend(*db_);
  CoPhyAdvisor full_advisor(backend, opts);
  IndexRecommendation full = full_advisor.TryRecommend(w).value();
  CoPhyAdvisor comp_advisor(backend, opts);
  IndexRecommendation comp = comp_advisor.TryRecommend(c).value();

  // Evaluate the compressed-input recommendation on the FULL workload:
  // it must capture nearly all of the full recommendation's benefit.
  PhysicalDesign full_design;
  for (const IndexDef& i : full.indexes) full_design.AddIndex(i);
  PhysicalDesign comp_design;
  for (const IndexDef& i : comp.indexes) comp_design.AddIndex(i);
  double base = full_advisor.inum().WorkloadCost(w, PhysicalDesign{});
  double full_cost = full_advisor.inum().WorkloadCost(w, full_design);
  double comp_cost = full_advisor.inum().WorkloadCost(w, comp_design);
  double captured = (base - comp_cost) / std::max(1.0, base - full_cost);
  EXPECT_GT(captured, 0.9) << "compressed input captured only "
                           << captured * 100 << "% of the benefit";
}

TEST_F(CompressTest, EmptyAndSingletonWorkloads) {
  Workload empty;
  CompressionReport report;
  Workload c = CompressWorkload(empty, &report);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_DOUBLE_EQ(report.fraction_retained(), 1.0);
  EXPECT_DOUBLE_EQ(report.factor(), 1.0);

  Workload one;
  one.Add(Q("SELECT objid FROM photoobj WHERE ra < 5"), 3.0);
  Workload c1 = CompressWorkload(one);
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_DOUBLE_EQ(c1.WeightOf(0), 3.0);
}

TEST_F(CompressTest, ReportReadsBothWays) {
  // 60 queries -> k classes: fraction_retained = k/60 (smaller =
  // better), factor = 60/k ("compresses Nx"). The two are reciprocal.
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 60, 9);
  CompressionReport report;
  CompressWorkload(w, &report);
  ASSERT_GT(report.compressed_queries, 0u);
  EXPECT_DOUBLE_EQ(report.fraction_retained(),
                   static_cast<double>(report.compressed_queries) / 60.0);
  EXPECT_DOUBLE_EQ(report.factor(),
                   60.0 / static_cast<double>(report.compressed_queries));
  EXPECT_GT(report.factor(), 1.0);
  EXPECT_LT(report.fraction_retained(), 1.0);
}

TEST_F(CompressTest, SameTemplateComparesStructureNotConstants) {
  BoundQuery a = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20");
  BoundQuery b = Q("SELECT objid FROM photoobj WHERE ra > 300");
  EXPECT_TRUE(SameTemplate(a, b)) << "range shapes of one template fuse";
  EXPECT_FALSE(SameTemplate(a, Q("SELECT objid FROM photoobj WHERE ra = 10")))
      << "equality vs range is a different template";
  EXPECT_FALSE(SameTemplate(
      a, Q("SELECT objid FROM photoobj WHERE dec BETWEEN 10 AND 20")))
      << "different predicate column";
  EXPECT_FALSE(SameTemplate(
      a, Q("SELECT objid, dec FROM photoobj WHERE ra BETWEEN 1 AND 2")))
      << "different select list";
  EXPECT_FALSE(SameTemplate(
      a, Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20 LIMIT 5")))
      << "LIMIT presence is structural";
  // Ids and constants are not structural.
  BoundQuery c = a;
  c.id = 999;
  EXPECT_TRUE(SameTemplate(a, c));
}

/// Degenerate signature: everything collides. Under the old hash-only
/// merge this fused every query into one class; the structural
/// verification layer must keep different templates apart.
uint64_t CollidingSignature(const BoundQuery&) { return 0x5EED; }

TEST_F(CompressTest, ForcedCollisionDoesNotFuseDifferentTemplates) {
  // Two structurally different queries forced onto one signature.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20"), 2.0);
  w.Add(Q("SELECT objid FROM photoobj WHERE dec BETWEEN 10 AND 20"), 5.0);
  w.Add(Q("SELECT objid FROM photoobj WHERE ra > 100"), 1.0);  // = class 1

  CompressionReport report;
  Workload c = CompressWorkload(w, &report, &CollidingSignature);
  ASSERT_EQ(c.size(), 2u)
      << "a hash collision must not silently fuse different templates";
  // Weights land on the right class: ra-range 2+1, dec-range 5.
  EXPECT_DOUBLE_EQ(c.WeightOf(0), 3.0);
  EXPECT_DOUBLE_EQ(c.WeightOf(1), 5.0);
  EXPECT_EQ(report.compressed_queries, 2u);
}

TEST_F(CompressTest, ClassTableChainsCollisionsAndCompactsOnErase) {
  TemplateClassTable table(&CollidingSignature);
  BoundQuery qa = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20");
  BoundQuery qb = Q("SELECT objid FROM photoobj WHERE dec BETWEEN 10 AND 20");
  BoundQuery qc = Q("SELECT bestobjid FROM specobj WHERE z > 2.0");

  EXPECT_EQ(table.Find(qa), TemplateClassTable::npos);
  size_t a = table.AddInstance(qa, 1.0);
  size_t b = table.AddInstance(qb, 1.0);
  size_t c = table.AddInstance(qc, 1.0);
  EXPECT_EQ(table.AddInstance(qa, 2.0), a);  // chained lookup, not a merge
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(qb), b);
  EXPECT_DOUBLE_EQ(table.classes()[a].weight, 3.0);
  EXPECT_EQ(table.classes()[a].count, 2u);

  // Erasing the middle class compacts ids above it.
  EXPECT_TRUE(table.RemoveInstance(b, 1.0));
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(qb), TemplateClassTable::npos);
  EXPECT_EQ(table.Find(qc), c - 1);
  EXPECT_EQ(table.Find(qa), a);

  // Removing one of two instances keeps the class alive.
  EXPECT_FALSE(table.RemoveInstance(a, 2.0));
  EXPECT_DOUBLE_EQ(table.classes()[a].weight, 1.0);
  EXPECT_TRUE(table.RemoveInstance(a, 1.0));
  EXPECT_EQ(table.size(), 1u);
}

// Property: compression preserves total weight exactly, for any seed,
// mix and weighting.
class CompressPropertyTest : public CompressTest,
                             public ::testing::WithParamInterface<uint64_t> {};

TEST_P(CompressPropertyTest, TotalWeightIsPreservedExactly) {
  uint64_t seed = GetParam();
  for (const TemplateMix& mix :
       {TemplateMix::Uniform(), TemplateMix::OfflineDefault(),
        TemplateMix::PhaseJoins()}) {
    Workload w = GenerateWorkload(*db_, mix, 40, seed);
    // Non-uniform weights to make the sum interesting.
    for (size_t i = 0; i < w.size(); ++i) {
      w.weights[i] = 1.0 + static_cast<double>((i * seed) % 7);
    }
    CompressionReport report;
    Workload c = CompressWorkload(w, &report);
    double w_total = 0.0;
    double c_total = 0.0;
    for (size_t i = 0; i < w.size(); ++i) w_total += w.WeightOf(i);
    for (size_t i = 0; i < c.size(); ++i) c_total += c.WeightOf(i);
    EXPECT_DOUBLE_EQ(w_total, c_total);
    EXPECT_EQ(report.original_queries, w.size());
    EXPECT_EQ(report.compressed_queries, c.size());
    EXPECT_LE(c.size(), w.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressPropertyTest,
                         ::testing::Values(1u, 7u, 23u, 61u, 97u));

TEST_F(CompressTest, IdenticalDuplicatesRecommendBitIdentically) {
  // A workload of identical-constant duplicates: the compressed solve
  // faces the exact same BIP (duplicate rows collapse into an integer
  // weight), so the recommendation must be bit-identical raw vs
  // compressed — indexes, costs, everything.
  Workload generated = GenerateWorkload(*db_, TemplateMix::OfflineDefault(),
                                        12, 29);
  TemplateClassTable unique;
  Workload distinct;  // one query per template, so duplicates fold 4:1
  for (const BoundQuery& q : generated.queries) {
    if (unique.Find(q) == TemplateClassTable::npos) {
      unique.AddInstance(q);
      distinct.Add(q);
    }
  }
  ASSERT_GE(distinct.size(), 3u);
  Workload raw;
  for (const BoundQuery& q : distinct.queries) {
    for (int copy = 0; copy < 4; ++copy) raw.Add(q);
  }
  CompressionReport report;
  Workload compressed = CompressWorkload(raw, &report);
  ASSERT_EQ(report.compressed_queries, report.original_queries / 4)
      << "identical-constant duplicates must fold 4:1";

  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  CoPhyOptions opts;
  opts.storage_budget_pages = 0.5 * data_pages;
  InMemoryBackend backend(*db_);
  CoPhyAdvisor raw_advisor(backend, opts);
  IndexRecommendation raw_rec = raw_advisor.TryRecommend(raw).value();
  CoPhyAdvisor comp_advisor(backend, opts);
  IndexRecommendation comp_rec = comp_advisor.TryRecommend(compressed).value();

  EXPECT_EQ(raw_rec.indexes, comp_rec.indexes);
  EXPECT_DOUBLE_EQ(raw_rec.recommended_cost, comp_rec.recommended_cost);
  EXPECT_DOUBLE_EQ(raw_rec.base_cost, comp_rec.base_cost);
  EXPECT_DOUBLE_EQ(raw_rec.total_size_pages, comp_rec.total_size_pages);
}

}  // namespace
}  // namespace dbdesign
