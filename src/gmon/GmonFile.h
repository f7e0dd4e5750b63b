//===- gmon/GmonFile.h - Binary profile file format -----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "gmon.out" equivalent: a versioned binary container for one run's
/// condensed profiling data.  Layout (all little-endian), as written
/// today (version 3):
///
///   magic   "GMON"            4 bytes
///   version u32               3
///   hz      u64               ticks per second
///   runs    u32               runs summed into this file
///   flags   u8                bit 0: arc table overflowed
///                             bit 1: context-tree recorder overflowed
///   hist:   lowpc u64, highpc u64, bucketsize u64, nbuckets u64
///           (nbuckets == 0 encodes "no histogram"), then nnonzero u64,
///           listbytes u64, and the pair list: one (gap, count) LEB128
///           varint pair per nonzero bucket in ascending order, listbytes
///           long; gap is the bucket's index for the first pair and
///           index - previous - 1 after it
///   arcs:   narcs u64, then {frompc u64, selfpc u64, count u64}[narcs]
///   nsections u32, then per section {tag u32, bytelen u64, payload}
///
/// A reader skips extension sections whose tag it does not know, so
/// future records ride along without another version bump.  The one
/// section defined today is the calling-context tree (tag "CCTR"):
/// nnodes u64 followed by 36-byte nodes {parent u32, frompc u64, selfpc
/// u64, calls u64, ticks u64} in canonical preorder (parent index < node
/// index, CctRootParent at depth 1).
///
/// Versions 1 and 2 are still read.  They store the histogram densely, as
/// counts u64[nbuckets] in place of nnonzero, listbytes and the pair
/// list; version 1 ends after the arc table, and version 2 has the
/// section list.  Writing only the sampled buckets shrinks a typical
/// bucket-size-1 profile about 16x.  The in-memory Histogram stays dense
/// whatever the version, so recording a tick stays O(1).
///
/// The reader validates the magic, version, and every length field,
/// accepts only the canonical sparse encoding (no zero count, no overlong
/// or over-64-bit varint, no bucket index at or past nbuckets, a pair
/// list that ends exactly at listbytes), caps nbuckets at 2^23 so no
/// read allocates more than 64 MiB for a histogram, and rejects trailing
/// garbage, so damaged files are reported rather than silently
/// misparsed.  A tolerant mode (GmonReadOptions) instead
/// salvages every record fully serialized before a truncation point —
/// the recovery story for profiles torn by a crash at condense time
/// (docs/ROBUSTNESS.md).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_GMON_GMONFILE_H
#define GPROF_GMON_GMONFILE_H

#include "gmon/ProfileData.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

/// Serializes \p Data into the gmon container format, version 3.
std::vector<uint8_t> writeGmon(const ProfileData &Data);

/// How to treat damaged gmon bytes (docs/ROBUSTNESS.md).
struct GmonReadOptions {
  /// Strict mode (the default) rejects any damage.  Tolerant mode
  /// salvages every fully-serialized record from a truncated file — a
  /// crash tore the writer mid-stream, but the prefix is still a valid
  /// (partial) profile — and reports what was dropped.  The fixed header
  /// (magic through the histogram geometry, 53 bytes) is the salvage
  /// floor: a file cut inside it carries no usable records and still
  /// fails.  Corrupt header fields (bad magic, impossible geometry) fail
  /// in both modes; tolerance is for truncation and trailing junk, not
  /// for lying headers.
  bool Tolerant = false;
};

/// What a tolerant read dropped (all zero for an intact file).
struct GmonSalvage {
  bool Damaged = false;        ///< Anything below is nonzero.
  /// Histogram buckets recovered intact: every bucket in versions 1 and
  /// 2, the recorded (nonzero) buckets in version 3.
  uint64_t SalvagedBuckets = 0;
  uint64_t DroppedBuckets = 0;  ///< Buckets lost to the cut (read as 0).
  uint64_t SalvagedArcs = 0;    ///< Arc records recovered intact.
  uint64_t DroppedArcs = 0;     ///< Arc records lost to the cut.
  uint64_t SalvagedContexts = 0; ///< Context-tree nodes recovered intact.
  uint64_t DroppedContexts = 0;  ///< Context-tree nodes lost to the cut.
  uint64_t TrailingBytes = 0;   ///< Junk bytes ignored after the data.
  /// Human-readable description of the damage, empty when intact.
  std::string Note;
};

/// Parses a gmon container in strict mode.
Expected<ProfileData> readGmon(const std::vector<uint8_t> &Bytes);

/// Parses a gmon container under \p Opts.  With Opts.Tolerant, a
/// truncated file yields the exact prefix of records serialized before
/// the cut and \p Salvage (when non-null) reports what was dropped.
Expected<ProfileData> readGmon(const std::vector<uint8_t> &Bytes,
                               const GmonReadOptions &Opts,
                               GmonSalvage *Salvage = nullptr);

/// In-place parse over a borrowed byte span — the zero-copy entry point:
/// records are decoded directly out of the caller's bytes (typically a
/// support/MappedFile view) with no intermediate buffer.  All readGmon
/// overloads route here; errors, salvage tallies, and the resulting
/// ProfileData are identical by contract (docs/READPATH.md) to the
/// original BinaryStream reader, now the test oracle in
/// tests/reference_gmon.h, pinned by the differential corpus test.
Expected<ProfileData> readGmon(const uint8_t *Data, size_t Size,
                               const GmonReadOptions &Opts = {},
                               GmonSalvage *Salvage = nullptr);

/// Writes \p Data to the file at \p Path via write-then-rename, so a
/// crash mid-write never tears an existing profile.
Error writeGmonFile(const std::string &Path, const ProfileData &Data);

/// Reads the gmon file at \p Path.
Expected<ProfileData> readGmonFile(const std::string &Path);

/// Reads the gmon file at \p Path under \p Opts.
Expected<ProfileData> readGmonFile(const std::string &Path,
                                   const GmonReadOptions &Opts,
                                   GmonSalvage *Salvage = nullptr);

/// One damaged input of a multi-file read, for caller-side reporting.
struct GmonFileSalvage {
  std::string Path;
  GmonSalvage Salvage;
};

/// Reads and sums several gmon files (gprof's "sum the data over several
/// profiled runs").  At least one path is required.  Under tolerant
/// options, damaged inputs contribute their salvaged prefix and are
/// appended to \p Salvages (when non-null).
Expected<ProfileData>
readAndSumGmonFiles(const std::vector<std::string> &Paths,
                    const GmonReadOptions &Opts = {},
                    std::vector<GmonFileSalvage> *Salvages = nullptr);

} // namespace gprof

#endif // GPROF_GMON_GMONFILE_H
