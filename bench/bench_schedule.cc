// Experiment E5 — interaction-aware deployment scheduling as a session
// stage.
//
// Paper (§3.5): "an appropriately scheduled materialization of indexes
// can lead to higher benefit in contrast with a schedule that does not
// take into account index interaction."
//
// Three panels:
//   (a) the session stage itself — PlanDeployment() on a warm session
//       (DoI matrix + clusters + constraint-aware greedy schedule) and
//       the replan-after-refine reuse path, with the backend
//       optimizer-call deltas that prove both are cached-atom work,
//   (b) schedule quality — greedy vs the interaction-oblivious
//       solo-benefit order, the fixed (recommendation) order, random
//       orders and the adversarial reverse, as cumulative-benefit
//       prefix curves (exported under extra.benefit_curves),
//   (c) DoI matrix wall time, serial vs multicore (bit-identical
//       results; speedup exported), and (d) its thread scaling at 1, 2
//       and 4 threads on a populated model.
//
// Gate: the warm-session plan's DoI matrix, clusters and schedule must
// be bit-identical to the reference path (tests/interaction_reference.h)
// that prices every DoI sample and greedy trial as an assembled
// PhysicalDesign; the bench aborts (DBD_CHECK) otherwise.

#include <algorithm>
#include <string>

#include "backend/inmemory_backend.h"
#include "bench_common.h"
#include "core/session.h"
#include "interaction/doi.h"
#include "interaction/schedule.h"
#include "interaction_reference.h"
#include "util/logging.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::JsonReporter;
using bench::MakeDb;

int TraceQueries() {
  if (const char* env = std::getenv("DBDESIGN_BENCH_TRACE")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 2000;
}

struct Shared {
  Database db = MakeDb();
  InMemoryBackend backend{db};
  Designer designer{backend};
  DesignSession session{designer};
  Workload class_workload;  ///< compressed form the schedule is costed on
  std::vector<IndexDef> recommended;
  double recommend_ms = 0.0;
  int trace_queries = TraceQueries();

  Shared() {
    DesignConstraints constraints;
    constraints.storage_budget_pages = DataPages(db);
    session.SetConstraints(constraints);
    session.SetWorkload(
        GenerateWorkload(db, TemplateMix::OfflineDefault(), trace_queries, 29));
    auto t0 = std::chrono::steady_clock::now();
    auto rec = session.Recommend();
    recommend_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (rec.ok()) recommended = rec.value().indexes;
    for (const TemplateClass& cls : session.template_classes()) {
      class_workload.Add(cls.representative, cls.weight);
    }
  }
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

Json CurveJson(const MaterializationSchedule& sched) {
  Json arr = Json::Array();
  for (size_t k = 1; k <= sched.steps.size(); ++k) {
    arr.Append(Json::Number(sched.BenefitAtPrefix(k)));
  }
  return arr;
}

void PrintCurve(const char* name, const MaterializationSchedule& sched) {
  std::printf("%-22s |", name);
  for (size_t k = 1; k <= sched.steps.size(); ++k) {
    std::printf(" %8.0f", sched.BenefitAtPrefix(k));
  }
  std::printf(" | area %10.1f\n", sched.BenefitArea());
}

/// The CI gate: recomputes the warm plan's stage on fresh models, once
/// through the library's entry points (subset pricing; its INUM
/// reuse/fallback calls are exported as the plan's) and once through
/// the assembled-design reference, and requires bit-identical results.
void CheckAgainstReference(Shared& S, const DeploymentPlan& plan,
                           JsonReporter& reporter) {
  const DesignConstraints& constraints = S.session.constraints();
  InumCostModel lib_inum(S.backend);
  lib_inum.PrepareWorkload(S.class_workload);
  InumStats before = lib_inum.stats();
  InteractionAnalyzer lib(lib_inum, S.designer.options().doi);
  DoiMatrix got = lib.AnalyzeMatrix(S.class_workload, S.recommended);
  MaterializationSchedule got_schedule = MaterializationScheduler(lib_inum)
      .Greedy(S.class_workload, S.recommended, constraints);
  InumStats after = lib_inum.stats();

  auto t0 = std::chrono::steady_clock::now();
  InumCostModel ref_inum(S.backend);
  InteractionAnalyzer ref(ref_inum, S.designer.options().doi);
  DoiMatrix want =
      reference::Matrix(ref_inum, ref, S.class_workload, S.recommended);
  MaterializationSchedule want_schedule = reference::Greedy(
      ref_inum, S.class_workload, S.recommended, constraints);
  double ref_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  bool identical =
      got.doi == want.doi && got.contributions == want.contributions &&
      plan.edges == want.Edges() && plan.clusters == want.Clusters() &&
      reference::SameSchedule(got_schedule, want_schedule) &&
      reference::SameSchedule(plan.schedule, want_schedule);
  uint64_t reuse = after.reuse_calls - before.reuse_calls;
  uint64_t fallback = after.fallback_calls - before.fallback_calls;
  std::printf("reference check (assembled designs, %.1f ms): DoI matrix, "
              "clusters and schedule %s; plan stage = %llu INUM reuse "
              "calls, %llu fallbacks\n",
              ref_ms, identical ? "bit-identical" : "MISMATCH",
              static_cast<unsigned long long>(reuse),
              static_cast<unsigned long long>(fallback));
  DBD_CHECK(identical);
  Json calls = Json::Object();
  calls["reuse_calls"] = Json::Number(static_cast<double>(reuse));
  calls["fallback_calls"] = Json::Number(static_cast<double>(fallback));
  reporter.Extra("deploy_plan_warm_session", std::move(calls));
}

void RunExperiment(JsonReporter& reporter) {
  Shared& S = shared();
  Header("E5a: deployment planning as a session stage",
         "after a warm Recommend, the whole stage (DoI matrix, clusters, "
         "schedule) is cached-atom repricing — zero backend optimizer calls");

  std::printf("\ntrace: %d queries -> %zu template classes; recommendation: "
              "%zu indexes (solved in %.1f ms)\n",
              S.trace_queries, S.session.num_template_classes(),
              S.recommended.size(), S.recommend_ms);
  reporter.Report("recommend_cold", S.recommend_ms);

  uint64_t calls0 = S.session.backend_optimizer_calls();
  uint64_t pops0 = S.session.inum_populate_count();
  auto t0 = std::chrono::steady_clock::now();
  auto plan = S.session.PlanDeployment();
  double plan_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (!plan.ok()) {
    std::printf("error: %s\n", plan.status().ToString().c_str());
    return;
  }
  uint64_t plan_calls = S.session.backend_optimizer_calls() - calls0;
  uint64_t plan_pops = S.session.inum_populate_count() - pops0;
  std::printf("PlanDeployment (cold DoI cache): %.1f ms — %zu interacting "
              "pairs, %zu clusters, %zu build steps; %llu backend calls, "
              "%llu populations\n",
              plan_ms, plan.value().edges.size(), plan.value().clusters.size(),
              plan.value().schedule.steps.size(),
              static_cast<unsigned long long>(plan_calls),
              static_cast<unsigned long long>(plan_pops));
  reporter.Report("deploy_plan_warm_session", plan_ms, 1.0, plan_calls,
                  plan_pops);
  CheckAgainstReference(S, plan.value(), reporter);

  // Replan after a schedule-neutral refine: reuse outright.
  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  ConstraintDelta delta;
  delta.veto.push_back(IndexDef{
      photo, {S.db.catalog().table(photo).FindColumn("rerun")}, false});
  auto refined = S.session.Refine(delta);
  if (!refined.ok()) {
    std::printf("error: %s\n", refined.status().ToString().c_str());
    return;
  }
  calls0 = S.session.backend_optimizer_calls();
  pops0 = S.session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  auto replan = S.session.PlanDeployment();
  double replan_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  if (!replan.ok()) {
    std::printf("error: %s\n", replan.status().ToString().c_str());
    return;
  }
  std::printf("replan after veto-refine: %.2f ms (%.0fx), schedule %s, "
              "%zu/%zu DoI rows from cache, %llu backend calls\n",
              replan_ms, plan_ms / std::max(0.001, replan_ms),
              replan.value().schedule_reused ? "reused outright" : "rebuilt",
              replan.value().doi_rows_reused,
              replan.value().doi_rows_reused +
                  replan.value().doi_rows_computed,
              static_cast<unsigned long long>(
                  S.session.backend_optimizer_calls() - calls0));
  reporter.Report("deploy_replan_reuse", replan_ms,
                  plan_ms / std::max(0.001, replan_ms),
                  S.session.backend_optimizer_calls() - calls0,
                  S.session.inum_populate_count() - pops0);

  // --- E5b: schedule quality ---
  Header("E5b: materialization schedule quality",
         "interaction-aware scheduling yields higher cumulative benefit than "
         "oblivious orders");
  const MaterializationSchedule& greedy = plan.value().schedule;
  MaterializationScheduler scheduler(S.designer.inum());
  MaterializationSchedule solo =
      scheduler.SoloBenefitOrder(S.class_workload, S.recommended);

  // Fixed order: the order the recommendation happened to list.
  std::vector<int> identity;
  for (size_t i = 0; i < S.recommended.size(); ++i) {
    identity.push_back(static_cast<int>(i));
  }
  MaterializationSchedule fixed =
      scheduler.FixedOrder(S.class_workload, S.recommended, identity);

  // Adversarial: greedy's order reversed.
  std::vector<int> greedy_order;
  for (const ScheduleStep& s : greedy.steps) {
    for (size_t i = 0; i < S.recommended.size(); ++i) {
      if (S.recommended[i] == s.index) {
        greedy_order.push_back(static_cast<int>(i));
      }
    }
  }
  std::vector<int> reversed(greedy_order.rbegin(), greedy_order.rend());
  MaterializationSchedule worst =
      scheduler.FixedOrder(S.class_workload, S.recommended, reversed);

  // Random orders.
  Rng rng(31);
  double random_area = 0.0;
  const int kRandomTrials = 5;
  MaterializationSchedule sample_random;
  for (int t = 0; t < kRandomTrials; ++t) {
    std::vector<int> order = greedy_order;
    rng.Shuffle(order);
    MaterializationSchedule r =
        scheduler.FixedOrder(S.class_workload, S.recommended, order);
    random_area += r.BenefitArea();
    if (t == 0) sample_random = r;
  }
  random_area /= kRandomTrials;

  std::printf("\nindexes to build: %zu; workload cost %.1f -> %.1f once all "
              "are built\n",
              S.recommended.size(), greedy.base_cost, greedy.final_cost);
  std::printf("\ncumulative benefit after each build step:\n");
  std::printf("%-22s |", "schedule");
  for (size_t k = 1; k <= greedy.steps.size(); ++k) {
    std::printf(" step%-4zu", k);
  }
  std::printf(" |\n");
  PrintCurve("greedy (interaction)", greedy);
  PrintCurve("solo-benefit order", solo);
  PrintCurve("fixed (rec) order", fixed);
  PrintCurve("random (1 sample)", sample_random);
  PrintCurve("reverse-greedy", worst);

  std::printf("\nbenefit-area ratios (greedy = 1.00):\n");
  std::printf("  vs solo-benefit order: %.3f\n",
              solo.BenefitArea() / greedy.BenefitArea());
  std::printf("  vs fixed (rec) order:  %.3f\n",
              fixed.BenefitArea() / greedy.BenefitArea());
  std::printf("  vs random (avg of %d): %.3f\n", kRandomTrials,
              random_area / greedy.BenefitArea());
  std::printf("  vs reverse-greedy:     %.3f\n",
              worst.BenefitArea() / greedy.BenefitArea());
  std::printf("\n(all schedules end at the same final cost %.1f; only the "
              "path differs)\n",
              greedy.final_cost);

  Json curves = Json::Object();
  curves["greedy"] = CurveJson(greedy);
  curves["solo_benefit"] = CurveJson(solo);
  curves["fixed_order"] = CurveJson(fixed);
  curves["reverse_greedy"] = CurveJson(worst);
  reporter.Extra("benefit_curves", std::move(curves));
  Json areas = Json::Object();
  areas["greedy"] = Json::Number(greedy.BenefitArea());
  areas["solo_benefit"] = Json::Number(solo.BenefitArea());
  areas["fixed_order"] = Json::Number(fixed.BenefitArea());
  areas["random_avg"] = Json::Number(random_area);
  areas["reverse_greedy"] = Json::Number(worst.BenefitArea());
  reporter.Extra("benefit_area", std::move(areas));

  // --- E5c: DoI matrix, serial vs multicore ---
  Header("E5c: DoI matrix wall time, serial vs multicore",
         "pairwise interactions fan out across the thread pool with "
         "bit-identical results");
  CostParams serial_params;
  serial_params.num_threads = 1;
  InMemoryBackend serial_backend(S.db, serial_params);
  InumCostModel serial_inum(serial_backend);
  InteractionAnalyzer serial_analyzer(serial_inum);
  t0 = std::chrono::steady_clock::now();
  DoiMatrix m1 =
      serial_analyzer.AnalyzeMatrix(S.class_workload, S.recommended);
  double serial_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

  CostParams multi_params;  // num_threads = 0 -> hardware
  InMemoryBackend multi_backend(S.db, multi_params);
  InumCostModel multi_inum(multi_backend);
  InteractionAnalyzer multi_analyzer(multi_inum);
  t0 = std::chrono::steady_clock::now();
  DoiMatrix mN = multi_analyzer.AnalyzeMatrix(S.class_workload, S.recommended);
  double multi_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  bool identical = m1.doi == mN.doi && m1.contributions == mN.contributions;
  std::printf("\n%zu pairs x %zu classes: serial %.1f ms, %d threads %.1f ms "
              "(%.2fx), results %s\n",
              m1.num_pairs(), S.class_workload.size(), serial_ms,
              ThreadPool::HardwareThreads(), multi_ms,
              serial_ms / std::max(0.001, multi_ms),
              identical ? "bit-identical" : "MISMATCH");
  reporter.Report("doi_matrix_serial", serial_ms, 1.0);
  reporter.Report("doi_matrix_multicore", multi_ms,
                  serial_ms / std::max(0.001, multi_ms));

  // --- E5d: thread scaling of the DoI matrix alone ---
  Header("E5d: DoI matrix thread scaling (populated model)",
         "the per-query rows shard across the pool; populate excluded, "
         "median of 5 runs per thread count");
  double one_thread_ms = 0.0;
  for (int threads : {1, 2, 4}) {
    CostParams params;
    params.num_threads = threads;
    InMemoryBackend backend(S.db, params);
    InumCostModel inum(backend);
    inum.PrepareWorkload(S.class_workload);
    InteractionAnalyzer analyzer(inum);
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = std::chrono::steady_clock::now();
      DoiMatrix m = analyzer.AnalyzeMatrix(S.class_workload, S.recommended);
      times.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      DBD_CHECK(m.doi == m1.doi);
    }
    std::sort(times.begin(), times.end());
    double median = times[times.size() / 2];
    if (threads == 1) one_thread_ms = median;
    double speedup = one_thread_ms / std::max(0.001, median);
    std::printf("%d thread(s): %.2f ms (min %.2f, max %.2f), %.2fx\n",
                threads, median, times.front(), times.back(), speedup);
    reporter.Report("doi_matrix_warm_threads_" + std::to_string(threads),
                    median, speedup);
  }
}

void BM_GreedySchedule(benchmark::State& state) {
  Shared& S = shared();
  MaterializationScheduler scheduler(S.designer.inum());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.Greedy(S.class_workload, S.recommended));
  }
}
BENCHMARK(BM_GreedySchedule)->Unit(benchmark::kMillisecond);

void BM_PlanDeployment(benchmark::State& state) {
  Shared& S = shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(S.session.PlanDeployment());
  }
}
BENCHMARK(BM_PlanDeployment)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("schedule");
  dbdesign::RunExperiment(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
