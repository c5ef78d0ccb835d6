// DesignSession tests: undo/redo semantics, snapshots, action log,
// validation of interactive mutations, and the constraint-driven
// recommendation loop — Recommend/Refine incrementality (zero new cost
// calls after a constraints-only edit, results bit-identical to a
// from-scratch solve), workload deltas, and JSON save/resume.

#include <gtest/gtest.h>

#include <cstdio>

#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "core/session.h"
#include "malformed_json.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SdssConfig cfg;
    cfg.photoobj_rows = 2000;
    cfg.seed = 31;
    db_ = std::make_unique<Database>(BuildSdssDatabase(cfg));
    backend_ = std::make_unique<InMemoryBackend>(*db_);
    designer_ = std::make_unique<Designer>(*backend_);
    session_ = std::make_unique<DesignSession>(*designer_);
    photo_ = db_->catalog().FindTable(kPhotoObj);
    ra_ = db_->catalog().table(photo_).FindColumn("ra");
    dec_ = db_->catalog().table(photo_).FindColumn("dec");
  }

  IndexDef RaIndex() const { return IndexDef{photo_, {ra_}, false}; }
  IndexDef DecIndex() const { return IndexDef{photo_, {dec_}, false}; }

  std::unique_ptr<Database> db_;
  std::unique_ptr<InMemoryBackend> backend_;
  std::unique_ptr<Designer> designer_;
  std::unique_ptr<DesignSession> session_;
  TableId photo_ = kInvalidTableId;
  ColumnId ra_ = kInvalidColumnId;
  ColumnId dec_ = kInvalidColumnId;
};

TEST_F(SessionTest, CreateUndoRedo) {
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  ASSERT_TRUE(session_->CreateIndex(DecIndex()).ok());
  EXPECT_EQ(session_->design().indexes().size(), 2u);
  EXPECT_EQ(session_->undo_depth(), 2u);

  EXPECT_TRUE(session_->Undo());
  EXPECT_EQ(session_->design().indexes().size(), 1u);
  EXPECT_TRUE(session_->design().HasIndex(RaIndex()));
  EXPECT_EQ(session_->redo_depth(), 1u);

  EXPECT_TRUE(session_->Redo());
  EXPECT_EQ(session_->design().indexes().size(), 2u);
  EXPECT_TRUE(session_->design().HasIndex(DecIndex()));
}

TEST_F(SessionTest, UndoBottomsOut) {
  EXPECT_FALSE(session_->Undo());
  EXPECT_FALSE(session_->Redo());
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  EXPECT_TRUE(session_->Undo());
  EXPECT_FALSE(session_->Undo());
  EXPECT_TRUE(session_->design().indexes().empty());
}

TEST_F(SessionTest, NewActionClearsRedo) {
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  ASSERT_TRUE(session_->Undo());
  ASSERT_TRUE(session_->CreateIndex(DecIndex()).ok());
  EXPECT_FALSE(session_->Redo()) << "redo history must die on new action";
  EXPECT_FALSE(session_->design().HasIndex(RaIndex()));
}

TEST_F(SessionTest, FailedActionDoesNotPollute) {
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  size_t depth = session_->undo_depth();
  size_t log_size = session_->log().size();
  EXPECT_FALSE(session_->CreateIndex(RaIndex()).ok());  // duplicate
  EXPECT_EQ(session_->undo_depth(), depth);
  EXPECT_EQ(session_->log().size(), log_size);
}

TEST_F(SessionTest, SnapshotsSaveAndRestore) {
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  session_->SaveSnapshot("ra_only");
  ASSERT_TRUE(session_->CreateIndex(DecIndex()).ok());
  session_->SaveSnapshot("both");

  ASSERT_TRUE(session_->RestoreSnapshot("ra_only").ok());
  EXPECT_EQ(session_->design().indexes().size(), 1u);
  // Restore is undoable.
  EXPECT_TRUE(session_->Undo());
  EXPECT_EQ(session_->design().indexes().size(), 2u);

  EXPECT_EQ(session_->RestoreSnapshot("nope").code(), StatusCode::kNotFound);
  auto names = session_->SnapshotNames();
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(SessionTest, SnapshotNotFoundListsAvailableNames) {
  // With no snapshots the error says so.
  Status empty = session_->RestoreSnapshot("nope");
  EXPECT_EQ(empty.code(), StatusCode::kNotFound);
  EXPECT_NE(empty.message().find("no snapshots"), std::string::npos)
      << empty.message();

  session_->SaveSnapshot("alpha");
  session_->SaveSnapshot("beta");
  Status s = session_->RestoreSnapshot("gamma");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("alpha"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("beta"), std::string::npos) << s.message();

  Workload w = GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 4, 5);
  auto compare = session_->CompareSnapshot("gamma", w);
  EXPECT_EQ(compare.status().code(), StatusCode::kNotFound);
  EXPECT_NE(compare.status().message().find("alpha"), std::string::npos);
}

TEST_F(SessionTest, CompareSnapshotReportsBenefit) {
  Workload w = GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 6, 5);
  session_->SaveSnapshot("empty");
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  session_->SaveSnapshot("tuned");

  auto empty_report = session_->CompareSnapshot("empty", w);
  ASSERT_TRUE(empty_report.ok());
  EXPECT_NEAR(empty_report.value().average_benefit(), 0.0, 1e-9);

  auto tuned_report = session_->CompareSnapshot("tuned", w);
  ASSERT_TRUE(tuned_report.ok());
  EXPECT_GT(tuned_report.value().average_benefit(), 0.0);
}

TEST_F(SessionTest, PartitioningValidation) {
  // Non-covering vertical partitioning must be rejected.
  VerticalPartitioning vp;
  vp.table = photo_;
  vp.fragments = {VerticalFragment{{ra_}}};
  EXPECT_EQ(session_->SetVerticalPartitioning(vp).code(),
            StatusCode::kInvalidArgument);

  // Unsorted horizontal bounds must be rejected.
  HorizontalPartitioning hp;
  hp.table = photo_;
  hp.column = ra_;
  hp.bounds = {Value(200.0), Value(100.0)};
  EXPECT_EQ(session_->SetHorizontalPartitioning(hp).code(),
            StatusCode::kInvalidArgument);

  // A valid partitioning round-trips through undo.
  VerticalFragment all;
  for (ColumnId c = 0; c < db_->catalog().table(photo_).num_columns(); ++c) {
    all.columns.push_back(c);
  }
  VerticalFragment hot{{ra_, dec_}};
  vp.fragments = {hot, all};
  ASSERT_TRUE(session_->SetVerticalPartitioning(vp).ok());
  EXPECT_NE(session_->design().vertical(photo_), nullptr);
  EXPECT_TRUE(session_->Undo());
  EXPECT_EQ(session_->design().vertical(photo_), nullptr);
}

TEST_F(SessionTest, ActionLogReadsLikeAScript) {
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  ASSERT_TRUE(session_->DropIndex(RaIndex()).ok());
  session_->SaveSnapshot("s1");
  session_->Undo();
  const auto& log = session_->log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "CREATE INDEX idx_photoobj_ra");
  EXPECT_EQ(log[1], "DROP INDEX idx_photoobj_ra");
  EXPECT_EQ(log[2], "SAVE s1");
  EXPECT_EQ(log[3], "UNDO");
}

TEST_F(SessionTest, UndoRestoresCostExactly) {
  Workload w = GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 5, 9);
  WhatIfOptimizer& whatif = designer_->whatif();
  auto cost = [&] {
    return w.WeightedTotal(
        whatif.TryCostWorkload(w, whatif.hypothetical_design()).value());
  };
  double base = cost();
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  double tuned = cost();
  EXPECT_LT(tuned, base);
  ASSERT_TRUE(session_->Undo());
  EXPECT_DOUBLE_EQ(cost(), base);
}

// --- The constraint-driven recommendation loop ---

TEST_F(SessionTest, RecommendRequiresWorkload) {
  auto rec = session_->Recommend();
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, RecommendAppliesAsOneUndoableStep) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, 13));
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_FALSE(rec.value().indexes.empty());

  // The recommendation is the design now.
  for (const IndexDef& idx : rec.value().indexes) {
    EXPECT_TRUE(session_->design().HasIndex(idx));
  }
  EXPECT_EQ(session_->design().indexes().size(), rec.value().indexes.size());

  // ... and it is one undoable step.
  ASSERT_TRUE(session_->Undo());
  EXPECT_TRUE(session_->design().indexes().empty());
  ASSERT_TRUE(session_->Redo());
  EXPECT_EQ(session_->design().indexes().size(), rec.value().indexes.size());
}

TEST_F(SessionTest, RefineIsFreeAndBitIdenticalToFromScratch) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37);
  session_->SetWorkload(w);
  auto initial = session_->Recommend();
  ASSERT_TRUE(initial.ok());
  ASSERT_GE(initial.value().indexes.size(), 2u);

  // The DBA vetoes the first recommended index and pins the second.
  ConstraintDelta delta;
  delta.veto.push_back(initial.value().indexes[0]);
  delta.pin.push_back(initial.value().indexes[1]);

  // A constraints-only Refine must make ZERO new backend optimizer
  // calls and ZERO new INUM populations — the whole point of keeping
  // the prepared atom matrix (acceptance criterion of the incremental
  // loop).
  ASSERT_TRUE(session_->prepared());
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto refined = session_->Refine(delta);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls)
      << "Refine after a constraints-only edit must not touch the backend";
  EXPECT_EQ(session_->inum_populate_count(), populates)
      << "Refine after a constraints-only edit must not repopulate INUM";

  // The refined result honors the edit.
  EXPECT_FALSE(refined.value().indexes.empty());
  for (const IndexDef& idx : refined.value().indexes) {
    EXPECT_FALSE(idx == initial.value().indexes[0]);
  }
  bool has_pin = false;
  for (const IndexDef& idx : refined.value().indexes) {
    has_pin |= idx == initial.value().indexes[1];
  }
  EXPECT_TRUE(has_pin);

  // ... and is bit-identical to a from-scratch solve under the same
  // constraints on a fresh designer/session.
  InMemoryBackend backend(*db_);
  Designer fresh_designer(backend);
  DesignSession fresh(fresh_designer);
  fresh.SetWorkload(w);
  ASSERT_TRUE(fresh.SetConstraints(session_->constraints()).ok());
  auto scratch = fresh.Recommend();
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch.value().indexes, refined.value().indexes);
  EXPECT_DOUBLE_EQ(scratch.value().recommended_cost,
                   refined.value().recommended_cost);
  EXPECT_DOUBLE_EQ(scratch.value().base_cost, refined.value().base_cost);
}

TEST_F(SessionTest, CertificateRefineIsInstantAndMatchesFromScratch) {
  // The demo's most common reaction — pinning indexes the tool just
  // recommended — is a tightening-only edit: the previous optimum's
  // certificate survives and Refine answers with no solver work.
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37);
  session_->SetWorkload(w);
  auto initial = session_->Recommend();
  ASSERT_TRUE(initial.ok());
  ASSERT_GE(initial.value().indexes.size(), 2u);
  ASSERT_TRUE(initial.value().proven_optimal)
      << "test workload too hard: no optimality certificate to reuse";

  ConstraintDelta keep;
  keep.pin.push_back(initial.value().indexes[0]);
  keep.pin.push_back(initial.value().indexes[1]);
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto refined = session_->Refine(keep);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
  EXPECT_EQ(session_->inum_populate_count(), populates);
  // Certificate reuse returns the identical configuration.
  EXPECT_EQ(refined.value().indexes, initial.value().indexes);
  EXPECT_DOUBLE_EQ(refined.value().recommended_cost,
                   initial.value().recommended_cost);

  // ... and matches a from-scratch solve under the same constraints.
  InMemoryBackend backend(*db_);
  Designer fresh_designer(backend);
  DesignSession fresh(fresh_designer);
  fresh.SetWorkload(w);
  ASSERT_TRUE(fresh.SetConstraints(session_->constraints()).ok());
  auto scratch = fresh.Recommend();
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch.value().indexes, refined.value().indexes);
  EXPECT_DOUBLE_EQ(scratch.value().recommended_cost,
                   refined.value().recommended_cost);
}

TEST_F(SessionTest, EmptyRefineAnsweredByCertificateIsMarked) {
  // An empty delta right after a proven solve changes nothing: the
  // certificate answers it, and the action log must say so exactly as it
  // does for a non-empty delta (readers count re-solves by the marker).
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37));
  auto initial = session_->Recommend();
  ASSERT_TRUE(initial.ok());
  ASSERT_TRUE(initial.value().proven_optimal);
  EXPECT_EQ(session_->log().back().find("certificate reuse"),
            std::string::npos)
      << "a cold solve is not a certificate answer: "
      << session_->log().back();

  auto refined = session_->Refine(ConstraintDelta{});
  ASSERT_TRUE(refined.ok());
  // No solver ran, so every solver-work counter reads zero.
  EXPECT_EQ(refined.value().bnb_nodes, 0);
  EXPECT_EQ(refined.value().lp_pivots, 0);
  EXPECT_EQ(refined.value().clusters_solved, 0);
  EXPECT_FALSE(refined.value().solved_monolithic);
  EXPECT_EQ(refined.value().num_variables, 0u);
  EXPECT_EQ(refined.value().num_constraints, 0u);
  EXPECT_EQ(refined.value().indexes, initial.value().indexes);
  const std::string& line = session_->log().back();
  EXPECT_EQ(line.rfind("REFINE -> ", 0), 0u) << line;
  EXPECT_NE(line.find("(certificate reuse)"), std::string::npos) << line;
}

TEST_F(SessionTest, RefinePinOutsideUniverseStaysBackendFree) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, 13));
  ASSERT_TRUE(session_->Recommend().ok());

  // Pin an index CoPhy would never mine: the candidate universe extends
  // from the warm INUM cache — atoms rebuild, but no backend calls and
  // no new populations.
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ColumnId rerun = db_->catalog().table(photo).FindColumn("rerun");
  ConstraintDelta delta;
  delta.pin.push_back(IndexDef{photo, {rerun}, false});
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto refined = session_->Refine(delta);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
  EXPECT_EQ(session_->inum_populate_count(), populates);
  bool has_pin = false;
  for (const IndexDef& idx : refined.value().indexes) {
    has_pin |= idx == delta.pin[0];
  }
  EXPECT_TRUE(has_pin);
}

TEST_F(SessionTest, ReturningRefinesReuseProvenClusters) {
  // The DBA's toggle-and-compare loop under a binding budget: veto an
  // index and un-veto it, cut the budget and restore it, cap a table and
  // un-cap it. Each return lands on constraints the session has already
  // proven, so the solver cache answers it from the optima it parked on
  // the way out: the pre-toggle recommendation bit for bit, with no
  // branch-and-bound node and no pivot.
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 16, 19));
  DesignConstraints constraints;
  constraints.storage_budget_pages = 0.5 * data_pages;
  ASSERT_TRUE(session_->SetConstraints(constraints).ok());
  auto cold = session_->Recommend();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold.value().indexes.empty());
  const IndexRecommendation& now = *session_->last_recommendation();
  CoPhyAdvisor stateless(*backend_, designer_->options().cophy);

  auto toggle = [&](const ConstraintDelta& away, const ConstraintDelta& back) {
    IndexRecommendation before = now;
    auto left = session_->Refine(away);
    ASSERT_TRUE(left.ok()) << left.status().ToString();
    ASSERT_EQ(session_->log().back().find("certificate reuse"),
              std::string::npos)
        << "the outbound edit must re-solve: " << session_->log().back();
    uint64_t hits = session_->solver_cache().proven_hits;
    uint64_t calls = session_->backend_optimizer_calls();
    auto back_rec = session_->Refine(back);
    ASSERT_TRUE(back_rec.ok()) << back_rec.status().ToString();
    const IndexRecommendation& r = back_rec.value();
    EXPECT_EQ(r.indexes, before.indexes);
    EXPECT_EQ(r.recommended_cost, before.recommended_cost);
    EXPECT_EQ(r.bnb_nodes, 0);
    EXPECT_EQ(r.lp_pivots, 0);
    EXPECT_EQ(r.clusters_solved, 0);
    EXPECT_GT(session_->solver_cache().proven_hits, hits);
    EXPECT_EQ(session_->backend_optimizer_calls(), calls);
    auto ref = stateless.SolvePrepared(session_->prepared_state(),
                                       session_->constraints(), nullptr);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref.value().recommended_cost, r.recommended_cost);
    EXPECT_EQ(ref.value().indexes, r.indexes);
  };

  {
    SCOPED_TRACE("veto, un-veto");
    ConstraintDelta veto, unveto;
    veto.veto.push_back(now.indexes.front());
    unveto.unveto.push_back(now.indexes.front());
    toggle(veto, unveto);
  }
  {
    SCOPED_TRACE("cut, restore");
    ConstraintDelta cut, restore;
    cut.storage_budget_pages = 0.6 * now.total_size_pages;
    restore.storage_budget_pages = constraints.storage_budget_pages;
    toggle(cut, restore);
  }
  {
    SCOPED_TRACE("cap, un-cap");
    int on_photo = 0;
    for (const IndexDef& idx : now.indexes) on_photo += idx.table == photo_;
    ASSERT_GE(on_photo, 1);
    ConstraintDelta cap, uncap;
    cap.table_caps[photo_] = on_photo - 1;
    uncap.table_caps[photo_] = -1;
    toggle(cap, uncap);
  }
}

TEST_F(SessionTest, UnpinningAnIndexNoQueryUsesGivesItsPagesBack) {
  // A pinned index that no query uses sits in a cluster of its own, and
  // its pages come out of what the other clusters may share. Unpinning
  // it hands them back, so a cluster whose own pins, vetoes and caps are
  // unchanged must not keep the optimum it proved under the smaller
  // share: the refine has to match a stateless solve.
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  IndexDef unused{photo_, {db_->catalog().table(photo_).FindColumn("mode")},
                  false};
  CoPhyAdvisor stateless(*backend_, designer_->options().cophy);
  for (uint64_t seed : {6, 7, 8, 9}) {
    SCOPED_TRACE(seed);
    DesignSession session(*designer_);
    session.SetWorkload(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 16, seed));
    DesignConstraints constraints;
    constraints.storage_budget_pages = 0.1 * data_pages;
    ASSERT_TRUE(session.SetConstraints(constraints).ok());
    ASSERT_TRUE(session.Recommend().ok());
    ConstraintDelta pin, unpin;
    pin.pin.push_back(unused);
    unpin.unpin.push_back(unused);
    ASSERT_TRUE(session.Refine(pin).ok());
    auto r = session.Refine(unpin);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto ref = stateless.SolvePrepared(session.prepared_state(),
                                       session.constraints(), nullptr);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref.value().recommended_cost, r.value().recommended_cost);
    EXPECT_EQ(ref.value().indexes, r.value().indexes);
  }
}

TEST_F(SessionTest, WorkloadDeltasKeepPreparedStateLive) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 6, 13);
  session_->SetWorkload(w);
  ASSERT_TRUE(session_->Recommend().ok());
  ASSERT_TRUE(session_->prepared());

  // Adding queries keeps the prepared matrix (only new rows are built).
  Workload extra = GenerateWorkload(*db_, TemplateMix::PhaseJoins(), 3, 99);
  session_->AddQueries(extra.queries);
  EXPECT_TRUE(session_->prepared());
  EXPECT_EQ(session_->workload().size(), 9u);
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().per_query_cost.size(), 9u);

  // Removing queries keeps it too.
  ASSERT_TRUE(session_->RemoveQueries({0, 5}).ok());
  EXPECT_EQ(session_->workload().size(), 7u);
  auto rec2 = session_->Recommend();
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2.value().per_query_cost.size(), 7u);

  EXPECT_EQ(session_->RemoveQueries({42}).code(), StatusCode::kOutOfRange);
}

TEST_F(SessionTest, AddQueriesExtendsCandidateUniverse) {
  // Prepare on a photoobj-only workload, then add a selective specobj
  // query: the candidate universe must grow so the new query can get a
  // useful index — not be stuck with the stale photoobj-only universe.
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 6, 13));
  ASSERT_TRUE(session_->Recommend().ok());

  auto spec_q = ParseAndBind(
      db_->catalog(), "SELECT bestobjid FROM specobj WHERE z > 2.9");
  ASSERT_TRUE(spec_q.ok());
  session_->AddQueries({spec_q.value(), spec_q.value(), spec_q.value()});
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  TableId spec = db_->catalog().FindTable(kSpecObj);
  bool has_spec_index = false;
  for (const IndexDef& idx : rec.value().indexes) {
    has_spec_index |= idx.table == spec;
  }
  EXPECT_TRUE(has_spec_index)
      << "the added specobj query deserves a specobj index";
}

// --- Template classes: the compressed recommendation pipeline ---

TEST_F(SessionTest, WorkloadCompressesIntoTemplateClasses) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 60, 13);
  session_->SetWorkload(w);
  // Template-generated traces compress hard: far fewer classes than
  // queries, total weight preserved exactly.
  EXPECT_LT(session_->num_template_classes(), 15u);
  EXPECT_GT(session_->num_template_classes(), 0u);
  double class_weight = 0.0;
  size_t class_count = 0;
  for (const TemplateClass& cls : session_->template_classes()) {
    class_weight += cls.weight;
    class_count += cls.count;
  }
  EXPECT_DOUBLE_EQ(class_weight, 60.0);
  EXPECT_EQ(class_count, 60u);

  // The prepared pipeline runs per class: INUM populates and atom rows
  // scale with classes, not queries.
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().per_query_cost.size(), 60u)
      << "per_query_cost still reports per raw query";
  EXPECT_LE(session_->inum_populate_count(),
            128u * session_->num_template_classes());
}

TEST_F(SessionTest, SameTemplateAddIsAPureWeightBump) {
  Workload w;
  auto add = [&](const std::string& sql) {
    auto q = ParseAndBind(db_->catalog(), sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    w.Add(q.value());
  };
  add("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20");
  add("SELECT objid, dec FROM photoobj WHERE dec < 0 ORDER BY dec");
  add("SELECT bestobjid FROM specobj WHERE z > 2.5");
  session_->SetWorkload(w);
  ASSERT_TRUE(session_->Recommend().ok());
  size_t classes_before = session_->num_template_classes();

  // Append an instance of the first template with different constants:
  // same class, so this is a pure weight bump — no candidate mining, no
  // atom building, ZERO new backend cost calls and ZERO INUM populates,
  // both for the append and for the Recommend that follows (acceptance
  // criterion of the compression layer).
  auto inst = ParseAndBind(db_->catalog(),
                           "SELECT objid FROM photoobj WHERE ra > 150");
  ASSERT_TRUE(inst.ok());
  // The populate counter is the live signal here (the pipeline is
  // client-side); the backend counter additionally guards against any
  // future backend routing on this path.
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  session_->AddQueries({inst.value()});
  EXPECT_EQ(session_->num_template_classes(), classes_before);
  EXPECT_EQ(session_->workload().size(), 4u);
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls)
      << "a same-template append must not touch the backend";
  EXPECT_EQ(session_->inum_populate_count(), populates);

  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls)
      << "Recommend after a same-template append must not touch the backend";
  EXPECT_EQ(session_->inum_populate_count(), populates);
  EXPECT_EQ(rec.value().per_query_cost.size(), 4u);
  // The bumped class's weight reaches the objective: the doubled
  // template contributes twice its per-query cost.
  EXPECT_DOUBLE_EQ(
      rec.value().recommended_cost,
      rec.value().per_query_cost[0] * 2.0 + rec.value().per_query_cost[1] +
          rec.value().per_query_cost[2]);
  EXPECT_DOUBLE_EQ(rec.value().per_query_cost[0],
                   rec.value().per_query_cost[3]);
}

TEST_F(SessionTest, NonPositiveWeightAddNeverKeepsTheCertificate) {
  // The weight-bump certificate argument only holds for delta > 0: a
  // negative-weight append must force a re-solve, not reuse the old
  // optimum as "certified".
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, 13));
  ASSERT_TRUE(session_->Recommend().ok());
  session_->AddQueries({session_->workload().queries[0]}, -0.5);
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(session_->log().back().find("certificate reuse"),
            std::string::npos)
      << "negative-weight bump reused the certificate: "
      << session_->log().back();

  // A positive same-template append right after IS certificate-eligible
  // again (the re-solve renewed it) — and still zero backend calls.
  uint64_t backend_calls = session_->backend_optimizer_calls();
  session_->AddQueries({session_->workload().queries[0]}, 1.0);
  ASSERT_TRUE(session_->Recommend().ok());
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
}

TEST_F(SessionTest, RemoveQueriesDropsEmptyClasses) {
  Workload w;
  auto q1 = ParseAndBind(db_->catalog(),
                         "SELECT objid FROM photoobj WHERE ra BETWEEN 1 AND 2");
  auto q2 = ParseAndBind(db_->catalog(),
                         "SELECT objid FROM photoobj WHERE ra > 50");
  auto q3 = ParseAndBind(db_->catalog(),
                         "SELECT bestobjid FROM specobj WHERE z > 2.5");
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  w.Add(q1.value());  // class 0 (ra range)
  w.Add(q2.value());  // class 0 again (range shapes fuse)
  w.Add(q3.value());  // class 1
  session_->SetWorkload(w);
  ASSERT_EQ(session_->num_template_classes(), 2u);
  ASSERT_TRUE(session_->Recommend().ok());

  // Removing one of two instances keeps the class (weight decremented).
  ASSERT_TRUE(session_->RemoveQueries({0}).ok());
  EXPECT_EQ(session_->num_template_classes(), 2u);
  EXPECT_DOUBLE_EQ(session_->template_classes()[0].weight, 1.0);

  // Removing the last instance drops the class and only its atoms; the
  // next Recommend still works (and needs no new INUM populations).
  ASSERT_TRUE(session_->RemoveQueries({0}).ok());
  EXPECT_EQ(session_->num_template_classes(), 1u);
  uint64_t populates = session_->inum_populate_count();
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(session_->inum_populate_count(), populates);
  EXPECT_EQ(rec.value().per_query_cost.size(), 1u);
}

TEST_F(SessionTest, BigTraceCostCallsScaleWithClassesNotQueries) {
  // The acceptance scenario: a 50k-query generated SDSS trace must
  // recommend with backend cost calls (and INUM populations)
  // proportional to its handful of template classes, not its 50k
  // queries.
  Workload trace =
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 50000, 77);
  session_->SetWorkload(trace);
  size_t classes = session_->num_template_classes();
  ASSERT_LT(classes, 32u) << "SDSS template traces compress to ~10 classes";

  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec.value().indexes.empty());
  EXPECT_EQ(rec.value().per_query_cost.size(), 50000u);
  // Populations are bounded by the per-class combo cap (InumOptions
  // max_combos = 128) — orders of magnitude below one per query. The
  // INUM populate counter carries the real cost-call signal: the
  // designer pipeline is fully client-side, so the backend optimizer
  // counter must stay at exactly zero (any backend routing at all
  // would be a scaling regression on a 50k trace).
  EXPECT_LE(session_->inum_populate_count(), 128u * classes);
  EXPECT_LT(session_->inum_populate_count(), 50000u / 100u);
  EXPECT_EQ(session_->backend_optimizer_calls(), 0u);

  // A same-template append on the big trace re-recommends with zero
  // new backend cost calls.
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  session_->AddQueries({trace.queries[17]});
  auto again = session_->Recommend();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
  EXPECT_EQ(session_->inum_populate_count(), populates);
}

// --- Deployment planning: the loop's last stage ---

class SessionDeployTest : public SessionTest {
 protected:
  /// The compressed class workload the schedule is costed over.
  Workload ClassWorkload() const {
    Workload w;
    for (const TemplateClass& cls : session_->template_classes()) {
      w.Add(cls.representative, cls.weight);
    }
    return w;
  }
};

TEST_F(SessionDeployTest, PlanDeploymentRequiresRecommendation) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 6, 37));
  auto plan = session_->PlanDeployment();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session_->last_deployment(), nullptr);
}

TEST_F(SessionDeployTest, WarmPlanDeploymentMakesZeroBackendCalls) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37));
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  ASSERT_GE(rec.value().indexes.size(), 2u);

  // Acceptance criterion: after a warm Recommend the whole deployment
  // stage — DoI matrix, clusters, schedule — runs on cached INUM atoms.
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto plan = session_->PlanDeployment();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls)
      << "PlanDeployment after a warm Recommend must not touch the backend";
  EXPECT_EQ(session_->inum_populate_count(), populates)
      << "PlanDeployment after a warm Recommend must not repopulate INUM";

  const DeploymentPlan& p = plan.value();
  EXPECT_EQ(p.indexes, rec.value().indexes);
  ASSERT_EQ(p.schedule.steps.size(), p.indexes.size());
  EXPECT_TRUE(p.schedule.skipped.empty());
  EXPECT_FALSE(p.schedule_reused);
  EXPECT_EQ(p.doi_rows_computed, session_->num_template_classes());

  // Every index is scheduled exactly once, cumulative pages are exact
  // prefix sums, and each step is assigned to an interaction cluster.
  double pages = 0.0;
  for (const ScheduleStep& s : p.schedule.steps) {
    pages += s.build_pages;
    EXPECT_DOUBLE_EQ(s.cumulative_pages, pages);
    EXPECT_GE(s.cluster, 0);
    EXPECT_LT(s.cluster, static_cast<int>(p.clusters.size()));
  }
  EXPECT_DOUBLE_EQ(p.schedule.total_pages, pages);

  // Clusters partition the index set.
  size_t members = 0;
  for (const auto& c : p.clusters) members += c.size();
  EXPECT_EQ(members, p.indexes.size());

  EXPECT_EQ(session_->last_deployment()->indexes, p.indexes);
}

TEST_F(SessionDeployTest, ScheduleFinalCostMatchesEvaluateDesigns) {
  // The schedule's incrementally maintained final cost must equal a
  // from-scratch Designer::TryEvaluateDesigns of the full design — the
  // invariant that catches bookkeeping drift between the step costs
  // and the design they claim to describe.
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37));
  ASSERT_TRUE(session_->Recommend().ok());
  auto plan = session_->PlanDeployment();
  ASSERT_TRUE(plan.ok());
  const MaterializationSchedule& sched = plan.value().schedule;
  ASSERT_FALSE(sched.steps.empty());

  PhysicalDesign full;
  for (const ScheduleStep& s : sched.steps) full.AddIndex(s.index);
  InMemoryBackend backend(*db_);
  Designer fresh(backend);
  BenefitReport report =
      fresh.TryEvaluateDesigns(ClassWorkload(), {full}).value().front();
  EXPECT_DOUBLE_EQ(sched.final_cost, report.new_total);
  EXPECT_DOUBLE_EQ(sched.base_cost, report.base_total);
  EXPECT_DOUBLE_EQ(sched.steps.back().cost_after, sched.final_cost);
}

TEST_F(SessionDeployTest, NeutralRefineReusesScheduleOutright) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37));
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  auto first = session_->PlanDeployment();
  ASSERT_TRUE(first.ok());

  // Veto an index that was never recommended: the certificate holds,
  // the index set is unchanged, and the schedule is provably unchanged.
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ColumnId rerun = db_->catalog().table(photo).FindColumn("rerun");
  IndexDef unused{photo, {rerun}, false};
  for (const IndexDef& idx : rec.value().indexes) ASSERT_FALSE(idx == unused);
  ConstraintDelta delta;
  delta.veto.push_back(unused);
  auto refined = session_->Refine(delta);
  ASSERT_TRUE(refined.ok());
  ASSERT_EQ(refined.value().indexes, rec.value().indexes);

  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto second = session_->PlanDeployment();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
  EXPECT_EQ(session_->inum_populate_count(), populates);
  EXPECT_TRUE(second.value().schedule_reused);
  EXPECT_EQ(second.value().doi_rows_computed, 0u);
  EXPECT_EQ(second.value().doi_rows_reused, session_->num_template_classes());

  // Reused outright means identical, field by field.
  const MaterializationSchedule& a = first.value().schedule;
  const MaterializationSchedule& b = second.value().schedule;
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t k = 0; k < a.steps.size(); ++k) {
    EXPECT_TRUE(a.steps[k].index == b.steps[k].index);
    EXPECT_EQ(a.steps[k].cost_after, b.steps[k].cost_after);
    EXPECT_EQ(a.steps[k].cumulative_pages, b.steps[k].cumulative_pages);
  }
  EXPECT_EQ(a.final_cost, b.final_cost);
}

TEST_F(SessionDeployTest, WeightBumpReweightsDoiWithoutRecompute) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37);
  session_->SetWorkload(w);
  ASSERT_TRUE(session_->Recommend().ok());
  auto first = session_->PlanDeployment();
  ASSERT_TRUE(first.ok());

  // A same-template append is a pure weight bump: every cached DoI row
  // stays valid (the class's atoms did not change) — only the weighted
  // sums and the schedule move.
  session_->AddQueries({w.queries[0], w.queries[1]});
  ASSERT_TRUE(session_->Recommend().ok());  // instant certificate reuse
  uint64_t backend_calls = session_->backend_optimizer_calls();
  uint64_t populates = session_->inum_populate_count();
  auto second = session_->PlanDeployment();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session_->backend_optimizer_calls(), backend_calls);
  EXPECT_EQ(session_->inum_populate_count(), populates);
  EXPECT_EQ(second.value().doi_rows_computed, 0u)
      << "weight bumps must not recompute any DoI row";
  EXPECT_EQ(second.value().doi_rows_reused, session_->num_template_classes());
  // The schedule was re-derived (weights shifted every marginal).
  EXPECT_FALSE(second.value().schedule_reused);

  // New templates recompute exactly their own rows (a hand-written
  // query no generator mix emits, so it cannot fold into an existing
  // class).
  auto fresh = ParseAndBind(
      db_->catalog(),
      "SELECT objid FROM photoobj WHERE nchild > 4 AND extinction_r < 0.05");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  size_t before = session_->num_template_classes();
  session_->AddQueries({fresh.value()});
  size_t added = session_->num_template_classes() - before;
  ASSERT_GT(added, 0u);
  ASSERT_TRUE(session_->Recommend().ok());
  auto third = session_->PlanDeployment();
  ASSERT_TRUE(third.ok());
  if (third.value().indexes == second.value().indexes) {
    EXPECT_EQ(third.value().doi_rows_computed, added);
    EXPECT_EQ(third.value().doi_rows_reused, before);
  } else {
    // The recommendation itself changed: every row is against a new
    // index set and must recompute.
    EXPECT_EQ(third.value().doi_rows_computed,
              session_->num_template_classes());
  }
}

TEST_F(SessionDeployTest, PinnedIndexesAreScheduledFirst) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37));
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  ASSERT_GE(rec.value().indexes.size(), 2u);

  // Pin the index greedy would otherwise build LAST.
  auto first = session_->PlanDeployment();
  ASSERT_TRUE(first.ok());
  IndexDef last_built = first.value().schedule.steps.back().index;
  ConstraintDelta delta;
  delta.pin.push_back(last_built);
  ASSERT_TRUE(session_->Refine(delta).ok());

  auto plan = session_->PlanDeployment();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().schedule_reused)
      << "pinning a recommended index reorders the schedule";
  ASSERT_FALSE(plan.value().schedule.steps.empty());
  EXPECT_TRUE(plan.value().schedule.steps.front().index == last_built);
  EXPECT_TRUE(plan.value().schedule.steps.front().pinned);
  // Pins form a prefix of the schedule.
  bool seen_unpinned = false;
  for (const ScheduleStep& s : plan.value().schedule.steps) {
    if (!s.pinned) {
      seen_unpinned = true;
    } else {
      EXPECT_FALSE(seen_unpinned) << "pinned step after an unpinned one";
    }
  }
}

TEST_F(SessionDeployTest, ClassSwapWithSameWeightsRebuildsSchedule) {
  // Regression: a remove-class + add-class edit that reproduces the old
  // per-class weight VECTOR must not reuse the schedule costed on the
  // old workload — class identity is part of the certificate.
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37);
  session_->SetWorkload(w);
  ASSERT_TRUE(session_->Recommend().ok());
  ASSERT_TRUE(session_->PlanDeployment().ok());

  // Drop every instance of the last class, then add a fresh template
  // carrying exactly the weight that was removed.
  size_t victim = session_->num_template_classes() - 1;
  double removed_weight = session_->template_classes()[victim].weight;
  std::vector<size_t> positions;
  for (size_t i = 0; i < session_->workload().size(); ++i) {
    if (session_->template_classes()[victim].representative.StructuralHash() ==
        session_->workload().queries[i].StructuralHash()) {
      positions.push_back(i);
    }
  }
  ASSERT_FALSE(positions.empty());
  ASSERT_TRUE(session_->RemoveQueries(positions).ok());
  auto fresh = ParseAndBind(
      db_->catalog(),
      "SELECT objid FROM photoobj WHERE nchild > 4 AND extinction_r < 0.05");
  ASSERT_TRUE(fresh.ok());
  session_->AddQueries({fresh.value()}, removed_weight);
  ASSERT_TRUE(session_->Recommend().ok());

  auto plan = session_->PlanDeployment();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().schedule_reused)
      << "schedule costed on the old class must not survive the swap";
  // The schedule's costs describe the CURRENT workload, not the old one.
  const MaterializationSchedule& sched = plan.value().schedule;
  PhysicalDesign full;
  for (const ScheduleStep& s : sched.steps) full.AddIndex(s.index);
  InMemoryBackend backend(*db_);
  Designer fresh_designer(backend);
  BenefitReport report =
      fresh_designer.TryEvaluateDesigns(ClassWorkload(), {full})
          .value()
          .front();
  EXPECT_DOUBLE_EQ(sched.base_cost, report.base_total);
  EXPECT_DOUBLE_EQ(sched.final_cost, report.new_total);
}

TEST_F(SessionDeployTest, SetWorkloadInvalidatesDeployment) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 6, 37));
  ASSERT_TRUE(session_->Recommend().ok());
  ASSERT_TRUE(session_->PlanDeployment().ok());
  ASSERT_NE(session_->last_deployment(), nullptr);

  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 4, 5));
  EXPECT_EQ(session_->last_deployment(), nullptr);
}

// bench_refine's instance and gates, in tier-1: on the bench database
// under a budget of half the data pages, the pin, veto and budget-cut
// refines after a cold Recommend make no backend optimizer call and no
// INUM populate, at 8, 16 and 32 queries. The bench keeps its own copy
// of these checks.
TEST_F(SessionTest, RefineBenchHoldsItsGates) {
  SdssConfig cfg;
  cfg.photoobj_rows = 20000;
  cfg.seed = 42;
  Database db = BuildSdssDatabase(cfg);
  double data_pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    data_pages += db.stats(t).HeapPages(db.catalog().table(t));
  }
  TableId photo = db.catalog().FindTable(kPhotoObj);
  for (int nq : {8, 16, 32}) {
    SCOPED_TRACE(nq);
    Workload workload =
        GenerateWorkload(db, TemplateMix::OfflineDefault(), nq, 19);
    InMemoryBackend backend(db);
    Designer designer(backend);
    DesignSession session(designer);
    session.SetWorkload(workload);
    DesignConstraints constraints;
    constraints.storage_budget_pages = 0.5 * data_pages;
    session.SetConstraints(constraints);
    auto initial = session.Recommend();
    ASSERT_TRUE(initial.ok()) << initial.status().ToString();
    ASSERT_GE(initial.value().indexes.size(), 2u);

    auto expect_free_refine = [&](const ConstraintDelta& delta) {
      uint64_t calls = session.backend_optimizer_calls();
      uint64_t populates = session.inum_populate_count();
      auto rec = session.Refine(delta);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(session.backend_optimizer_calls(), calls);
      EXPECT_EQ(session.inum_populate_count(), populates);
    };
    // Pin the top two recommended indexes (the certificate survives).
    ConstraintDelta keep;
    keep.pin = {initial.value().indexes[0], initial.value().indexes[1]};
    expect_free_refine(keep);
    // Unpin and veto the pinned answer's first index, which the
    // configuration uses: a full re-solve.
    ConstraintDelta veto;
    veto.unpin.push_back(session.last_recommendation()->indexes[0]);
    veto.veto.push_back(session.last_recommendation()->indexes[0]);
    expect_free_refine(veto);
    // Cut the budget below the current footprint and cap photoobj.
    ConstraintDelta cut;
    cut.storage_budget_pages =
        0.6 * session.last_recommendation()->total_size_pages;
    cut.table_caps[photo] = 2;
    expect_free_refine(cut);
  }
}

TEST_F(SessionTest, SessionJsonRoundTrip) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 6, 21);
  session_->SetWorkload(w);
  DesignConstraints constraints;
  constraints.Pin(RaIndex());
  constraints.storage_budget_pages = 800.0;
  ASSERT_TRUE(session_->SetConstraints(constraints).ok());
  auto rec = session_->Recommend();
  ASSERT_TRUE(rec.ok());
  session_->SaveSnapshot("tuned");

  Json j = session_->ToJson();
  InMemoryBackend backend(*db_);
  Designer fresh_designer(backend);
  DesignSession resumed(fresh_designer);
  ASSERT_TRUE(resumed.LoadFromJson(j).ok());

  EXPECT_EQ(resumed.constraints(), session_->constraints());
  EXPECT_EQ(resumed.workload().size(), session_->workload().size());
  EXPECT_EQ(resumed.SnapshotNames(), session_->SnapshotNames());
  EXPECT_EQ(resumed.design().Fingerprint(), session_->design().Fingerprint());

  // The resumed session can pick the loop right back up: a Recommend
  // under the restored constraints reproduces the same configuration.
  auto again = resumed.Recommend();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().indexes, rec.value().indexes);
}

TEST_F(SessionTest, LoadRejectsMalformedNumbers) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 4, 3));
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  const Json good = session_->ToJson();
  const std::string design_fp = session_->design().Fingerprint();

  // A rejected load leaves the session as it was.
  auto expect_rejected = [&](const Json& doc, const std::string& what) {
    InMemoryBackend backend(*db_);
    Designer designer(backend);
    DesignSession resumed(designer);
    EXPECT_FALSE(resumed.LoadFromJson(doc).ok()) << what;
    EXPECT_FALSE(session_->LoadFromJson(doc).ok()) << what;
    EXPECT_EQ(session_->design().Fingerprint(), design_fp) << what;
  };

  std::vector<std::pair<std::string, std::string>> bad;  // member, text
  for (const std::string& id : MalformedIds()) {
    for (const std::string& d : DesignsWithId(id)) bad.push_back({"design", d});
    bad.push_back({"constraints",
                   R"({"pinned":[{"table":)" + id + R"(,"columns":[0]}]})"});
    bad.push_back({"constraints",
                   R"({"table_caps":[{"table":0,"cap":)" + id + "}]}"});
  }
  bad.push_back({"constraints", R"({"table_caps":[{"table":0,"cap":1e300}]})"});
  for (const std::string& text : MalformedInt64s()) {
    bad.push_back({"design", DesignWithInt64Bound(text)});
  }
  for (const auto& [member, text] : bad) {
    Json doc = good;
    doc[member] = ParseJsonOrDie(text);
    expect_rejected(doc, text);
  }

  // Query weights must be finite and non-negative.
  for (const char* weight : {"-1", R"("__nonfinite:nan")",
                             R"("__nonfinite:inf")"}) {
    Json doc = good;
    Json weights = Json::Array();
    for (size_t i = 0; i < session_->workload().size(); ++i) {
      weights.Append(i == 0 ? ParseJsonOrDie(weight) : Json::Number(1.0));
    }
    doc["workload"]["weights"] = std::move(weights);
    InMemoryBackend backend(*db_);
    Designer designer(backend);
    DesignSession resumed(designer);
    Status st = resumed.LoadFromJson(doc);
    ASSERT_FALSE(st.ok()) << weight;
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }

  // The unmodified document still loads.
  EXPECT_TRUE(session_->LoadFromJson(good).ok());
}

TEST_F(SessionTest, SessionFileRoundTrip) {
  session_->SetWorkload(
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 4, 3));
  ASSERT_TRUE(session_->CreateIndex(RaIndex()).ok());
  session_->SaveSnapshot("manual");

  std::string path = ::testing::TempDir() + "dbdesign_session_test.json";
  ASSERT_TRUE(session_->SaveToFile(path).ok());
  InMemoryBackend backend(*db_);
  Designer fresh_designer(backend);
  DesignSession resumed(fresh_designer);
  ASSERT_TRUE(resumed.LoadFromFile(path).ok());
  EXPECT_TRUE(resumed.design().HasIndex(RaIndex()));
  EXPECT_EQ(resumed.SnapshotNames(), session_->SnapshotNames());
  std::remove(path.c_str());

  EXPECT_EQ(resumed.LoadFromFile("/nonexistent/session.json").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dbdesign
