// Clean corpus: engine-layer headers (storage/, exec/, workload/) may
// take the concrete Database.  This file is never compiled.
namespace dbdesign {

double HeapPages(const Database& db);

}  // namespace dbdesign
