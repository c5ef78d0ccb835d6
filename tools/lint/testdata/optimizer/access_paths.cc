// Clean corpus: the optimizer defines the leaf-pricing functions and
// its join enumerator reads real access paths.  This file is never
// compiled.
namespace dbdesign {

std::vector<AccessPath> Leaves(const PlannerContext& ctx, int slot) {
  CatalogPathProvider provider(ctx);
  return provider.Paths(slot);
}

}  // namespace dbdesign
