// Clean corpus: util/hash.h is the one place allowed to spell the
// FNV-1a constants.  This file is never compiled.
namespace dbdesign {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;
inline constexpr uint64_t kFnvLegacyBasis = 1469598103934665603ull;

}  // namespace dbdesign
