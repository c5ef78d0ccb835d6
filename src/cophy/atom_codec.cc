#include "cophy/atom_codec.h"

#include <cstdint>
#include <utility>

#include "util/binio.h"

namespace dbdesign {

namespace {

// "DBAR" little-endian: DBdesign Atom Row.
constexpr uint32_t kAtomRowMagic = 0x52414244u;
constexpr uint32_t kAtomRowVersion = 1;

}  // namespace

std::string EncodeAtomRow(const CoPhyAtomRow& row) {
  BinaryWriter w;
  w.PutU32(kAtomRowMagic);
  w.PutU32(kAtomRowVersion);
  w.PutDouble(row.base_cost);
  w.PutU64(row.atoms.size());
  for (const CoPhyAtom& atom : row.atoms) {
    w.PutDouble(atom.cost);
    w.PutU64(atom.used.size());
    for (int id : atom.used) {
      // Candidate ids are small nonnegative universe positions; u32
      // keeps spill files compact with headroom of ~4e9 candidates.
      w.PutU32(static_cast<uint32_t>(id));
    }
  }
  return w.Take();
}

Result<CoPhyAtomRow> DecodeAtomRow(std::string_view bytes) {
  BinaryReader r(bytes);
  if (r.U32() != kAtomRowMagic) {
    return Status::InvalidArgument("atom row: bad magic");
  }
  uint32_t version = r.U32();
  if (version != kAtomRowVersion) {
    return Status::InvalidArgument("atom row: unknown version " +
                                   std::to_string(version));
  }
  CoPhyAtomRow row;
  row.base_cost = r.Double();
  uint64_t num_atoms = r.U64();
  // Each atom needs at least 16 bytes (cost + id count), so this bound
  // rejects absurd counts from corrupt buffers before any allocation.
  if (!r.ok() || num_atoms > r.remaining() / 16) {
    return Status::InvalidArgument("atom row: truncated header");
  }
  row.atoms.reserve(static_cast<size_t>(num_atoms));
  for (uint64_t a = 0; a < num_atoms; ++a) {
    CoPhyAtom atom;
    atom.cost = r.Double();
    uint64_t num_used = r.U64();
    if (!r.ok() || num_used > r.remaining() / 4) {
      return Status::InvalidArgument("atom row: truncated atom");
    }
    atom.used.reserve(static_cast<size_t>(num_used));
    for (uint64_t u = 0; u < num_used; ++u) {
      atom.used.push_back(static_cast<int>(r.U32()));
    }
    row.atoms.push_back(std::move(atom));
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::InvalidArgument("atom row: truncated or trailing bytes");
  }
  return row;
}

size_t AtomRowBytes(const CoPhyAtomRow& row) {
  // The plan set itself belongs to the sessions' cost models (the row
  // holds it weakly), so only the handle inside the struct is charged.
  size_t bytes = sizeof(CoPhyAtomRow);
  bytes += row.atoms.size() * sizeof(CoPhyAtom);
  for (const CoPhyAtom& atom : row.atoms) {
    bytes += atom.used.size() * sizeof(int);
  }
  return bytes;
}

}  // namespace dbdesign
