//===- perfbench/src/Programs.h - Seeded benchmark inputs -----------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark feeds the program under test is generated here
/// from the workload seed: TL program text, the VM clock of each profiled
/// run, and seeded shard variations of a base profile.
/// Each generator also computes, by its own C++ arithmetic and never by
/// running the VM, the values the program's outputs must match.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "gmon/ProfileData.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A generated TL program and the outcome an independent evaluation of the
/// same model predicts.
struct GeneratedProgram {
  std::string Source;
  /// The single value `main` prints.
  int64_t ExpectedPrint = 0;
  /// Profiled calls one run makes, counting main's spontaneous activation:
  /// the sum of every arc count in the run's profile.
  uint64_t ExpectedCalls = 0;
  /// Routines in the program (main included).
  uint32_t Routines = 0;
};

/// The call-heavy program: about 380 routines in layers (leaves with small
/// loops, two-leaf helpers, functional-variable dispatchers with three
/// callees each, top routines reached through a table of function
/// addresses) plus an 8-member mutual-recursion cycle.  \p Iterations sets
/// the number of top-level calls main makes.
GeneratedProgram makeCallgraphProgram(uint64_t Seed, uint32_t Iterations);

/// The VM clock for profiled run \p Run: the default 10000 cycles per
/// tick moved by a seeded -100..+99.  The work and the printed value stay
/// the same; the ticks land elsewhere, so every run's profile is distinct
/// content for the store, as executions with different inputs would be.
uint64_t cyclesPerTick(uint64_t Seed, uint64_t Run);

/// Shard \p Index of a fleet: \p Base with every arc count and every
/// nonzero histogram bucket perturbed by a seeded amount, arcs in the
/// store's canonical order.  Same geometry and rate as \p Base, so every
/// shard is compatible with every other.
gprof::ProfileData makeShard(const gprof::ProfileData &Base, uint64_t Seed,
                             uint64_t Index);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
