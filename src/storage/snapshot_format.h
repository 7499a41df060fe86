// The MRGS on-disk snapshot format, version 1.
//
// An MRGS file is an immutable, instantly-loadable image of a
// multi-relational graph G = (V, E ⊆ V × Ω × V): the canonical
// (tail, label, head)-sorted edge array plus every index the EdgeUniverse
// access surface needs (CSR out-offsets, per-head and per-label index
// lists) and the vertex/label name tables, laid out so a reader can serve
// traversals directly over the raw bytes — zero parse, zero interning,
// zero per-edge allocation. Loading is mmap + validate; the in-memory
// MultiRelationalGraph and a loaded SnapshotUniverse answer every
// EdgeUniverse query identically (the differential suite proves governed
// traversal output is byte-identical across the two backends).
//
// Layout (all integers little-endian; the loader rejects the file on a
// big-endian host rather than byte-swapping):
//
//   ┌────────────────────────────┐ offset 0
//   │ header (64 bytes)          │ magic "MRGS", version, counts,
//   │                            │ file_bytes, directory crc, header crc
//   ├────────────────────────────┤ offset 64
//   │ section directory          │ kSectionCount entries × 32 bytes:
//   │                            │ {type, crc32c, offset, length}
//   ├────────────────────────────┤ offset 64 + 12·32 = 448
//   │ section payloads           │ in SectionType order, each 8-byte
//   │   edges                    │ aligned, zero padding between
//   │   out_offsets              │
//   │   in_offsets / in_index    │
//   │   label_offsets / _index   │
//   │   name tables + perms      │
//   └────────────────────────────┘ offset file_bytes
//
// Integrity invariants (every one checked at load, fail-closed with
// kCorruption — see SnapshotReader):
//   * header magic/version/crc; file_bytes equals the actual byte count
//     (catches truncation before any section is touched);
//   * the directory is covered by its own CRC, so a flipped section length
//     or checksum cannot redirect validation;
//   * every section: present exactly once, in type order, 8-byte aligned,
//     non-overlapping, in bounds, length exactly the count implied by the
//     header, payload CRC-32C matches the directory;
//   * semantic checks: offset arrays are monotone and end at the right
//     totals, edges are strictly (tail, label, head)-sorted with in-range
//     ids and consistent with out_offsets, index lists are sorted,
//     in-range, and agree with the edge array, name offsets are monotone
//     and end at the blob size, name permutations are true permutations in
//     (name, id) order.
//
// Determinism: SnapshotWriter emits identical bytes for identical graphs —
// fixed section order, zeroed padding, no timestamps — so snapshots can be
// content-addressed and diffed.

#ifndef MRPA_STORAGE_SNAPSHOT_FORMAT_H_
#define MRPA_STORAGE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "core/edge.h"
#include "util/little_endian.h"

namespace mrpa::storage {

// "MRGS" as a little-endian u32.
inline constexpr uint32_t kSnapshotMagic = 0x5347524Du;
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kDirEntryBytes = 32;
inline constexpr size_t kSectionAlign = 8;

// The edge payload is the Edge struct memcpy'd verbatim; the format is only
// valid while Edge stays three packed u32 fields.
static_assert(sizeof(Edge) == 12 && alignof(Edge) == 4 &&
                  std::is_trivially_copyable_v<Edge>,
              "MRGS v1 encodes Edge as three packed little-endian u32s");

// Section payloads, in file order. Every section is mandatory in v1 (an
// empty graph stores zero-length payloads, not missing sections).
enum class SectionType : uint32_t {
  kEdges = 1,              // Edge[num_edges], sorted (tail, label, head).
  kOutOffsets = 2,         // u64[num_vertices + 1] CSR offsets into edges.
  kInOffsets = 3,          // u64[num_vertices + 1] offsets into in_index.
  kInIndex = 4,            // u32[num_edges] edge indices grouped by head.
  kLabelOffsets = 5,       // u64[num_labels + 1] offsets into label_index.
  kLabelIndex = 6,         // u32[num_edges] edge indices grouped by label.
  kVertexNameOffsets = 7,  // u64[num_vertices + 1] offsets into name bytes.
  kVertexNameBytes = 8,    // Concatenated vertex names (no terminators).
  kLabelNameOffsets = 9,   // u64[num_labels + 1].
  kLabelNameBytes = 10,    // Concatenated label names.
  kVertexNameSorted = 11,  // u32[num_vertices]: ids sorted by (name, id).
  kLabelNameSorted = 12,   // u32[num_labels]: ids sorted by (name, id).
};
inline constexpr uint32_t kSectionCount = 12;

// Stable lowercase name for diagnostics ("edges", "out_offsets", ...).
std::string_view SectionTypeName(SectionType type);

// Fixed little-endian field offsets inside the 64-byte header. Serialized
// field-by-field (never a struct memcpy), so padding can't leak
// indeterminate bytes into the deterministic output.
struct SnapshotHeader {
  uint32_t magic = kSnapshotMagic;
  uint32_t version = kSnapshotVersion;
  uint32_t section_count = kSectionCount;
  uint32_t num_vertices = 0;
  uint32_t num_labels = 0;
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
  uint64_t directory_offset = kHeaderBytes;
  uint32_t directory_crc = 0;
  uint32_t header_crc = 0;  // CRC-32C over header bytes [0, 60).

  static constexpr size_t kMagicOff = 0;
  static constexpr size_t kVersionOff = 4;
  static constexpr size_t kSectionCountOff = 8;
  static constexpr size_t kNumVerticesOff = 12;
  static constexpr size_t kNumLabelsOff = 16;
  // 4 reserved bytes at 20.
  static constexpr size_t kNumEdgesOff = 24;
  static constexpr size_t kFileBytesOff = 32;
  static constexpr size_t kDirectoryOffsetOff = 40;
  static constexpr size_t kDirectoryCrcOff = 48;
  // 8 reserved bytes at 52.
  static constexpr size_t kHeaderCrcOff = 60;
};

// One directory entry: where a section lives and what its payload hashes
// to. 8 reserved tail bytes keep entries at 32 for future growth.
struct SectionEntry {
  uint32_t type = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  static constexpr size_t kTypeOff = 0;
  static constexpr size_t kCrcOff = 4;
  static constexpr size_t kOffsetOff = 8;
  static constexpr size_t kLengthOff = 16;
  // 8 reserved bytes at 24.
};

// Where section payloads begin.
inline constexpr size_t kPayloadStart =
    kHeaderBytes + kSectionCount * kDirEntryBytes;

// Rounds `n` up to the section alignment.
inline constexpr uint64_t AlignUp(uint64_t n) {
  return (n + (kSectionAlign - 1)) & ~static_cast<uint64_t>(kSectionAlign - 1);
}

}  // namespace mrpa::storage

#endif  // MRPA_STORAGE_SNAPSHOT_FORMAT_H_
