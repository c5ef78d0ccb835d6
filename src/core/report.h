// Text renderers for the designer's outputs — the portable equivalents
// of the demo GUI's panels (Figure 3's suggestion panel, index lists,
// materialization schedules, benefit breakdowns).

#ifndef DBDESIGN_CORE_REPORT_H_
#define DBDESIGN_CORE_REPORT_H_

#include <string>

#include "core/designer.h"

namespace dbdesign {

/// Figure 3-style panel: per-query benefit plus the average workload
/// benefit for a proposed design.
std::string RenderBenefitPanel(const Catalog& catalog,
                               const Workload& workload,
                               const BenefitReport& report);

/// Suggested-index list with sizes, one row per index.
std::string RenderIndexList(const Catalog& catalog,
                            const DbmsBackend& backend,
                            const std::vector<IndexDef>& indexes);

/// Suggested-partition panel (fragments per table, replication factors,
/// horizontal ranges) for a partition recommendation.
std::string RenderPartitionPanel(const Catalog& catalog,
                                 const PartitionRecommendation& rec);

/// Materialization schedule table: step, index, build effort, marginal
/// benefit, workload cost after the step.
std::string RenderSchedule(const Catalog& catalog,
                           const MaterializationSchedule& schedule);

/// Scenario-2 summary combining all of the above.
std::string RenderOfflineRecommendation(const Catalog& catalog,
                                        const DbmsBackend& backend,
                                        const Workload& workload,
                                        const OfflineRecommendation& rec);

/// JSON rendering of a benefit report (per-query costs + averages) for
/// GUI front ends.
std::string RenderBenefitJson(const Catalog& catalog,
                              const Workload& workload,
                              const BenefitReport& report);

}  // namespace dbdesign

#endif  // DBDESIGN_CORE_REPORT_H_
