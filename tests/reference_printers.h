//===- tests/reference_printers.h - Listing printer oracle ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the listing printers are tested against: the original
/// flat and call graph printers, which build every field with a
/// printf-style format() and find each entry's arcs by scanning every arc
/// of the report.  printFlatProfile and printCallGraph index the arcs once
/// and write rows with std::to_chars; tests/printer_oracle_test.cpp runs
/// the corpus, large synthetic reports and hand-built edge cases through
/// both and requires byte-identical listings.  Test-only: nothing in src/
/// links it.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_REFERENCE_PRINTERS_H
#define GPROF_TESTS_REFERENCE_PRINTERS_H

#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"

#include <string>

namespace gprof {

/// Renders the flat profile as printFlatProfile does.
std::string printFlatProfileReference(const ProfileReport &Report,
                                      const FlatPrintOptions &Opts = {});

/// Renders the call graph listing as printCallGraph does.
std::string printCallGraphReference(const ProfileReport &Report,
                                    const GraphPrintOptions &Opts = {});

/// Renders one routine's entry as printCallGraphEntry does.
std::string printCallGraphEntryReference(const ProfileReport &Report,
                                         const std::string &Name);

} // namespace gprof

#endif // GPROF_TESTS_REFERENCE_PRINTERS_H
