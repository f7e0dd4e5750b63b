//===- core/Report.h - The analyzed profile data model --------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of running the gprof analysis: per-routine times and counts
/// after time propagation, cycle membership, per-arc propagated times for
/// the parents/children rows of the call graph listing, and the listing
/// orders.  Printers (FlatPrinter, GraphPrinter) render this model; tools
/// and tests consume it directly.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_CORE_REPORT_H
#define GPROF_CORE_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

/// Analysis results for one routine.
struct FunctionEntry {
  std::string Name;
  /// Index into the analyzer's SymbolTable.
  uint32_t SymbolIndex = 0;

  /// S_e: seconds attributed to the routine itself from PC samples.
  double SelfTime = 0.0;
  /// Seconds inherited from descendants via time propagation.
  double ChildTime = 0.0;

  /// C_e: calls from *other* routines (including spontaneous activations;
  /// excluding self-recursive calls).
  uint64_t Calls = 0;
  /// Self-recursive calls (displayed as "+n"; never propagate time).
  uint64_t SelfCalls = 0;
  /// Calls whose call site symbolized to no routine (paper §3.1:
  /// "anomalous invocations are declared 'spontaneous'").
  uint64_t SpontaneousCalls = 0;

  /// 1-based cycle number, or 0 when the routine is not in a cycle.
  uint32_t CycleNumber = 0;
  /// Topological number of the routine's component (Figure 1 semantics).
  uint32_t TopoNumber = 0;
  /// Cross-reference index in the call graph listing ([n]); 0 until
  /// assigned.
  uint32_t ListingIndex = 0;

  double totalTime() const { return SelfTime + ChildTime; }
  uint64_t totalCalls() const { return Calls + SelfCalls; }
  /// True if the routine was never activated and never sampled.
  bool isUnused() const {
    return Calls == 0 && SelfCalls == 0 && SelfTime == 0.0;
  }
};

/// Analysis results for one collapsed cycle.
struct CycleEntry {
  /// 1-based cycle number.
  uint32_t Number = 0;
  /// Function-entry indices of the members.
  std::vector<uint32_t> Members;

  /// Summed member self time.
  double SelfTime = 0.0;
  /// Time propagated into the cycle from non-member descendants.
  double ChildTime = 0.0;

  /// Calls into the cycle from non-members (plus spontaneous), the
  /// paper's "called a total of forty times (not counting calls among the
  /// members of the cycle)".
  uint64_t ExternalCalls = 0;
  /// Calls among members (listed, but they "do not affect time
  /// propagation").
  uint64_t InternalCalls = 0;

  /// Cross-reference index in the call graph listing.
  uint32_t ListingIndex = 0;

  double totalTime() const { return SelfTime + ChildTime; }
};

/// One caller→callee arc after analysis.
struct ReportArc {
  /// Function-entry indices.
  uint32_t Parent = 0;
  uint32_t Child = 0;
  /// C^r_e: traversals of this arc.
  uint64_t Count = 0;
  /// Portion of the child's self time propagated along this arc.
  double PropSelf = 0.0;
  /// Portion of the child's descendant time propagated along this arc.
  double PropChild = 0.0;
  /// Discovered only statically (count 0; never propagates).
  bool Static = false;
  /// Both ends are in the same cycle (listed, but never propagates).
  bool WithinCycle = false;
  /// Parent == Child (self-recursion).
  bool SelfArc = false;
};

/// One entry of the call graph listing, in listing order.
struct ListingEntry {
  /// True for a collapsed-cycle entry, false for a routine entry.
  bool IsCycle = false;
  /// Index into ProfileReport::Functions or ProfileReport::Cycles.
  uint32_t Index = 0;
};

/// The complete analysis result.
struct ProfileReport {
  std::vector<FunctionEntry> Functions;
  std::vector<CycleEntry> Cycles;
  std::vector<ReportArc> Arcs;

  /// Seconds attributed to routines (the flat profile sums to this).
  double TotalTime = 0.0;
  /// Seconds sampled outside every known routine.
  double UnattributedTime = 0.0;
  /// Seconds discarded by -E time exclusions.
  double ExcludedTime = 0.0;
  /// Total runs summed into the profile.
  uint32_t RunCount = 1;
  /// Sampling rate the times were derived from.
  uint64_t TicksPerSecond = 60;
  /// True if the runtime's arc table overflowed (counts are lower bounds).
  bool ArcTableOverflowed = false;

  /// Function-entry indices sorted for the flat profile (decreasing self
  /// time, ties by name).
  std::vector<uint32_t> FlatOrder;
  /// Call-graph listing order (decreasing self+descendant time), with
  /// cycles interleaved; ListingIndex fields agree with positions here.
  std::vector<ListingEntry> GraphOrder;
  /// Function-entry indices of routines never called and never sampled —
  /// "a list of the routines that are never called during execution ...
  /// to verify that nothing important is omitted" (§5.1).
  std::vector<uint32_t> UnusedFunctions;
  /// (parent, child) function-entry pairs deleted from the analysis by
  /// -k options or by the cycle-breaking heuristic, in deletion order.
  std::vector<std::pair<uint32_t, uint32_t>> RemovedArcs;

  /// Finds a function entry by name; returns ~0u when absent.
  uint32_t findFunction(const std::string &Name) const {
    for (uint32_t I = 0; I != Functions.size(); ++I)
      if (Functions[I].Name == Name)
        return I;
    return ~0u;
  }
};

} // namespace gprof

#endif // GPROF_CORE_REPORT_H
