//===- tests/reference_gmon.h - BinaryStream gmon reader oracle ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the gmon reader is tested against: the original reader,
/// which copies the file into a vector and pulls every field through a
/// bounds-checked BinaryReader.  readGmon parses in place over borrowed
/// bytes; tests/readpath_test.cpp runs the whole corrupted-gmon corpus
/// through both and requires bit-identical data, errors and salvage
/// tallies, so salvage semantics can never drift between them.
/// Test-only: nothing in src/ links it.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_REFERENCE_GMON_H
#define GPROF_TESTS_REFERENCE_GMON_H

#include "gmon/GmonFile.h"

namespace gprof {

/// Parses a gmon container as readGmon does, through BinaryReader.
Expected<ProfileData> readGmonReference(const std::vector<uint8_t> &Bytes,
                                        const GmonReadOptions &Opts = {},
                                        GmonSalvage *Salvage = nullptr);

} // namespace gprof

#endif // GPROF_TESTS_REFERENCE_GMON_H
