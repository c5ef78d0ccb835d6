// FNV-1a (64-bit), the repository's one non-cryptographic hash.
//
// Its digests are persisted or replayed: atom-store keys and spill-file
// names, solver-cache signatures, fault selection and backoff jitter
// all read them. So the mix is fixed byte for byte — little-endian
// integer encoding, no platform-dependent std::hash — and header-only,
// so hot callers (the per-cluster solver signature) inline it.

#ifndef DBDESIGN_UTIL_HASH_H_
#define DBDESIGN_UTIL_HASH_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace dbdesign {

/// The standard FNV-1a 64-bit offset basis and prime.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// The seed the schema, candidate-universe, solver-signature and
/// Value::Hash digests have always used: the decimal offset basis
/// 14695981039346656037 with its last digit dropped. Those digests key
/// persisted spill files and cached solver optima, so they keep it.
inline constexpr uint64_t kFnvLegacyBasis = 1469598103934665603ull;

class Fnv1a {
 public:
  explicit constexpr Fnv1a(uint64_t basis = kFnvOffsetBasis) : h_(basis) {}

  /// Mixes the bytes of `s` with no length prefix: Fnv1a().MixRaw(s) is
  /// the plain FNV-1a of `s`.
  Fnv1a& MixRaw(std::string_view s) {
    for (char c : s) MixByte(static_cast<unsigned char>(c));
    return *this;
  }
  /// Length-prefixed bytes, so adjacent fields cannot alias across the
  /// concatenation ("ab" + "c" vs "a" + "bc").
  Fnv1a& MixBytes(std::string_view s) {
    MixU64(s.size());
    return MixRaw(s);
  }
  /// The 8 bytes of `v`, least significant first.
  Fnv1a& MixU64(uint64_t v) {
    for (int b = 0; b < 8; ++b) MixByte((v >> (8 * b)) & 0xff);
    return *this;
  }
  Fnv1a& MixDouble(double v) { return MixU64(std::bit_cast<uint64_t>(v)); }
  Fnv1a& MixInt(int v) {
    return MixU64(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }

  uint64_t digest() const { return h_; }

 private:
  void MixByte(uint64_t byte) {
    h_ ^= byte;
    h_ *= kFnvPrime;
  }

  uint64_t h_;
};

/// Plain FNV-1a 64 of `s`.
inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a().MixRaw(s).digest();
}

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_HASH_H_
