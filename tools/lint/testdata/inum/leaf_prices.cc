// Clean corpus: INUM is the one leaf-pricing authority for the design
// tools, so it may cost leaves and lookups itself.  This file is never
// compiled.
namespace dbdesign {

double SeqPrice(const PlannerContext& ctx, int slot) {
  return CostSeqLeaf(ctx, slot);
}

double LeafPrice(const PlannerContext& ctx, int slot, const IndexDef& index) {
  return CostIndexLeaf(ctx, slot, index).best();
}

double LookupPrice(const PlannerContext& ctx, int slot,
                   const BoundColumn& col, const IndexDef& index) {
  auto lk = CostIndexParamLookup(ctx, slot, col, index);
  return lk.has_value() ? lk->per_lookup.total : 0.0;
}

}  // namespace dbdesign
