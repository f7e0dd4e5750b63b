//===- tests/reference_gmon.h - Gmon reader oracle and dense writer -------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the gmon reader is tested against: the original reader,
/// which copies the file into a vector and pulls every field through a
/// bounds-checked BinaryReader, extended to version 3 by decoding each
/// varint one readU8 at a time.  readGmon parses in place over borrowed
/// bytes; tests/readpath_test.cpp runs the whole corrupted-gmon corpus
/// through both and requires bit-identical data, errors and salvage
/// tallies, so salvage semantics can never drift between them.
///
/// Also the dense writer writeGmon used before version 3, so the version
/// 1 and 2 corpora keep running on the bytes older releases wrote.
/// Test-only: nothing in src/ links it.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_REFERENCE_GMON_H
#define GPROF_TESTS_REFERENCE_GMON_H

#include "gmon/GmonFile.h"

namespace gprof {

/// Serializes \p Data as a dense version 1 container, or version 2 when it
/// carries a context tree: every histogram bucket as a u64.
std::vector<uint8_t> writeGmonDense(const ProfileData &Data);

/// Parses a gmon container as readGmon does, through BinaryReader.
Expected<ProfileData> readGmonReference(const std::vector<uint8_t> &Bytes,
                                        const GmonReadOptions &Opts = {},
                                        GmonSalvage *Salvage = nullptr);

} // namespace gprof

#endif // GPROF_TESTS_REFERENCE_GMON_H
