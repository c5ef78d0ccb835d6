// JSON (de)serialization for physical-design descriptors: the one
// design codec.
//
// Used by the constraint system (core/constraints), the session
// save/resume path (core/session) and backend-call traces
// (backend/trace_backend, whose design snapshot, statistics values and
// sized indexes go through ValueToJson / PhysicalDesignToJson /
// IndexDefToJson; trace format version 3). A DBA's pins, vetoes, snapshots and the current hypothetical
// design all survive a process restart as a single JSON document.
//
// Decoding is total: every table/column id goes through JsonInt with
// the catalog's range, so a stale or malformed file cannot smuggle a
// fractional, non-finite or out-of-range id into the designer, and an
// int64 value must be a complete base-10 literal inside the int64
// range.

#ifndef DBDESIGN_CATALOG_DESIGN_JSON_H_
#define DBDESIGN_CATALOG_DESIGN_JSON_H_

#include "catalog/design.h"
#include "util/json.h"

namespace dbdesign {

// --- Ids, range-checked against the catalog (see JsonInt) ---
Result<TableId> TableIdFromJson(const Json& j, const Catalog& catalog);
/// `table` must already be a valid id.
Result<ColumnId> ColumnIdFromJson(const Json& j, TableId table,
                                  const Catalog& catalog);

// --- Value (int64 encoded as string to keep full precision) ---
Json ValueToJson(const Value& v);
Result<Value> ValueFromJson(const Json& j);

// --- IndexDef ---
Json IndexDefToJson(const IndexDef& index);
Result<IndexDef> IndexDefFromJson(const Json& j, const Catalog& catalog);

// --- Partitionings ---
Json VerticalPartitioningToJson(const VerticalPartitioning& p);
Result<VerticalPartitioning> VerticalPartitioningFromJson(
    const Json& j, const Catalog& catalog);

Json HorizontalPartitioningToJson(const HorizontalPartitioning& p);
Result<HorizontalPartitioning> HorizontalPartitioningFromJson(
    const Json& j, const Catalog& catalog);

// --- Whole configurations ---
Json PhysicalDesignToJson(const PhysicalDesign& design);
Result<PhysicalDesign> PhysicalDesignFromJson(const Json& j,
                                              const Catalog& catalog);

}  // namespace dbdesign

#endif  // DBDESIGN_CATALOG_DESIGN_JSON_H_
