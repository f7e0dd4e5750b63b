//===- tests/reference_printers.cpp ---------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "reference_printers.h"

#include "support/Format.h"

#include <algorithm>
#include <set>

using namespace gprof;

namespace {

/// All arcs with Child == \p Fn (the parents block of Fn's entry).
std::vector<const ReportArc *> arcsInto(const ProfileReport &Report,
                                        uint32_t Fn) {
  std::vector<const ReportArc *> Result;
  for (const ReportArc &A : Report.Arcs)
    if (A.Child == Fn)
      Result.push_back(&A);
  return Result;
}

/// All arcs with Parent == \p Fn (the children block of Fn's entry).
std::vector<const ReportArc *> arcsOutOf(const ProfileReport &Report,
                                         uint32_t Fn) {
  std::vector<const ReportArc *> Result;
  for (const ReportArc &A : Report.Arcs)
    if (A.Parent == Fn)
      Result.push_back(&A);
  return Result;
}

constexpr const char *Separator =
    "-----------------------------------------------\n";

/// "name <cycle N> [idx]" reference for a routine.
std::string nameRef(const ProfileReport &Report, uint32_t Fn) {
  const FunctionEntry &F = Report.Functions[Fn];
  std::string S = F.Name;
  if (F.CycleNumber != 0)
    S += format(" <cycle%u>", F.CycleNumber);
  S += format(" [%u]", F.ListingIndex);
  return S;
}

/// The "called" field of a parent/child row: count and the callee's total.
std::string calledFraction(uint64_t Count, uint64_t Total) {
  return format("%llu/%llu", static_cast<unsigned long long>(Count),
                static_cast<unsigned long long>(Total));
}

/// One non-primary row.
std::string arcRow(const std::string &SelfCol, const std::string &DescCol,
                   const std::string &CalledCol, const std::string &Name) {
  return format("%6s %8s %11s %13s     %s\n", "", SelfCol.c_str(),
                DescCol.c_str(), CalledCol.c_str(), Name.c_str());
}

/// The primary row of an entry.
std::string primaryRow(uint32_t ListingIndex, double Percent, double Self,
                       double Desc, const std::string &CalledCol,
                       const std::string &Name) {
  return format("%-6s %8s %11s %13s %s [%u]\n",
                format("[%u]", ListingIndex).c_str(),
                format("%5.1f %8.2f", Percent, Self).c_str(),
                format("%.2f", Desc).c_str(), CalledCol.c_str(),
                Name.c_str(), ListingIndex);
}

/// Denominator for an arc into \p Child: the whole cycle's external calls
/// when the child is in a cycle, else the child's own calls.
uint64_t calleeTotalCalls(const ProfileReport &Report, uint32_t Child) {
  const FunctionEntry &F = Report.Functions[Child];
  if (F.CycleNumber != 0)
    return Report.Cycles[F.CycleNumber - 1].ExternalCalls;
  return F.Calls;
}

void printFunctionEntry(const ProfileReport &Report, uint32_t Fn,
                        std::string &Out) {
  const FunctionEntry &F = Report.Functions[Fn];

  // Parents block, least significant first so the heaviest parent sits
  // next to the primary line.
  std::vector<const ReportArc *> Parents = arcsInto(Report, Fn);
  std::erase_if(Parents, [](const ReportArc *A) { return A->SelfArc; });
  std::sort(Parents.begin(), Parents.end(),
            [](const ReportArc *A, const ReportArc *B) {
              double TA = A->PropSelf + A->PropChild;
              double TB = B->PropSelf + B->PropChild;
              if (TA != TB)
                return TA < TB;
              return A->Count < B->Count;
            });

  if (F.SpontaneousCalls != 0)
    Out += arcRow("", "",
                  calledFraction(F.SpontaneousCalls,
                                 calleeTotalCalls(Report, Fn)),
                  "<spontaneous>");
  else if (Parents.empty() && F.Calls == 0)
    Out += arcRow("", "", "", "<never called>");

  for (const ReportArc *A : Parents) {
    if (A->WithinCycle) {
      // Calls among cycle members are listed but carry no time (§5.2).
      Out += arcRow("", "",
                    format("%llu", static_cast<unsigned long long>(A->Count)),
                    nameRef(Report, A->Parent));
      continue;
    }
    Out += arcRow(format("%.2f", A->PropSelf),
                  format("%.2f", A->PropChild),
                  calledFraction(A->Count, calleeTotalCalls(Report, Fn)),
                  nameRef(Report, A->Parent));
  }

  // Primary line.  Self-recursive calls appear as "+n" and "do not affect
  // the propagation of time".
  std::string Called =
      format("%llu", static_cast<unsigned long long>(F.Calls));
  if (F.SelfCalls != 0)
    Called += format("+%llu", static_cast<unsigned long long>(F.SelfCalls));
  std::string Name = F.Name;
  if (F.CycleNumber != 0)
    Name += format(" <cycle%u>", F.CycleNumber);
  Out += primaryRow(F.ListingIndex,
                    Report.TotalTime > 0.0
                        ? 100.0 * F.totalTime() / Report.TotalTime
                        : 0.0,
                    F.SelfTime, F.ChildTime, Called, Name);

  // Children block, most significant first.
  std::vector<const ReportArc *> Children = arcsOutOf(Report, Fn);
  std::erase_if(Children, [](const ReportArc *A) { return A->SelfArc; });
  std::sort(Children.begin(), Children.end(),
            [](const ReportArc *A, const ReportArc *B) {
              double TA = A->PropSelf + A->PropChild;
              double TB = B->PropSelf + B->PropChild;
              if (TA != TB)
                return TA > TB;
              return A->Count > B->Count;
            });
  for (const ReportArc *A : Children) {
    if (A->WithinCycle) {
      Out += arcRow("", "",
                    format("%llu", static_cast<unsigned long long>(A->Count)),
                    nameRef(Report, A->Child));
      continue;
    }
    Out += arcRow(format("%.2f", A->PropSelf),
                  format("%.2f", A->PropChild),
                  calledFraction(A->Count, calleeTotalCalls(Report, A->Child)),
                  nameRef(Report, A->Child));
  }
  Out += Separator;
}

void printCycleEntry(const ProfileReport &Report, uint32_t CycleIdx,
                     std::string &Out) {
  const CycleEntry &C = Report.Cycles[CycleIdx];
  std::set<uint32_t> MemberSet(C.Members.begin(), C.Members.end());

  // Parents: arcs into any member from outside the cycle.
  std::vector<const ReportArc *> Parents;
  uint64_t SpontaneousIntoCycle = 0;
  for (uint32_t M : C.Members)
    SpontaneousIntoCycle += Report.Functions[M].SpontaneousCalls;
  for (const ReportArc &A : Report.Arcs) {
    if (A.SelfArc || A.WithinCycle)
      continue;
    if (MemberSet.count(A.Child) && !MemberSet.count(A.Parent))
      Parents.push_back(&A);
  }
  std::sort(Parents.begin(), Parents.end(),
            [](const ReportArc *A, const ReportArc *B) {
              double TA = A->PropSelf + A->PropChild;
              double TB = B->PropSelf + B->PropChild;
              if (TA != TB)
                return TA < TB;
              return A->Count < B->Count;
            });

  if (SpontaneousIntoCycle != 0)
    Out += arcRow("", "",
                  calledFraction(SpontaneousIntoCycle, C.ExternalCalls),
                  "<spontaneous>");
  for (const ReportArc *A : Parents)
    Out += arcRow(format("%.2f", A->PropSelf),
                  format("%.2f", A->PropChild),
                  calledFraction(A->Count, C.ExternalCalls),
                  nameRef(Report, A->Parent));

  // Primary line for the cycle as a whole.  Internal calls appear as "+n".
  std::string Called =
      format("%llu", static_cast<unsigned long long>(C.ExternalCalls));
  if (C.InternalCalls != 0)
    Called +=
        format("+%llu", static_cast<unsigned long long>(C.InternalCalls));
  Out += primaryRow(C.ListingIndex,
                    Report.TotalTime > 0.0
                        ? 100.0 * C.totalTime() / Report.TotalTime
                        : 0.0,
                    C.SelfTime, C.ChildTime, Called,
                    format("<cycle %u as a whole>", C.Number));

  // "members of the cycle are listed in place of the children", each with
  // the number of calls it received from within the cycle.
  for (uint32_t M : C.Members) {
    uint64_t CallsFromCycle = 0;
    for (const ReportArc &A : Report.Arcs)
      if (A.WithinCycle && A.Child == M)
        CallsFromCycle += A.Count;
    const FunctionEntry &FM = Report.Functions[M];
    Out += arcRow(format("%.2f", FM.SelfTime),
                  format("%.2f", FM.ChildTime),
                  format("%llu",
                         static_cast<unsigned long long>(CallsFromCycle)),
                  nameRef(Report, M));
  }
  Out += Separator;
}

bool matchesAny(const std::string &Name,
                const std::vector<std::string> &Names) {
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

std::string listingHeader(bool Brief) {
  std::string Out;
  if (!Brief)
    Out += "call graph profile:\n"
           "  Each entry shows a routine, its parents (above) and its\n"
           "  children (below).  'self' and 'descendants' on an arc row\n"
           "  are the portions of the child's time propagated along that\n"
           "  arc; 'called/total' is the arc count over the callee's total\n"
           "  calls; '+n' counts self-recursive or intra-cycle calls,\n"
           "  which never propagate time.\n\n";
  Out += "                                    called/total      parents\n";
  Out += "index  %time    self descendants    called+self   name     index\n";
  Out += "                                    called/total      children\n";
  Out += Separator;
  return Out;
}

} // namespace

std::string gprof::printCallGraphReference(const ProfileReport &Report,
                                           const GraphPrintOptions &Opts) {
  std::string Out;
  // Overflow must be announced here, not only in the flat profile: with
  // --graph-only this is the whole listing, and silently low call counts
  // corrupt every propagated-time fraction below.
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";
  Out += listingHeader(Opts.Brief);

  for (const ListingEntry &E : Report.GraphOrder) {
    if (E.IsCycle) {
      const CycleEntry &C = Report.Cycles[E.Index];
      if (!Opts.OnlyFunctions.empty()) {
        bool AnyMember = false;
        for (uint32_t M : C.Members)
          AnyMember |= matchesAny(Report.Functions[M].Name,
                                  Opts.OnlyFunctions);
        if (!AnyMember)
          continue;
      }
      printCycleEntry(Report, E.Index, Out);
      continue;
    }
    const std::string &Name = Report.Functions[E.Index].Name;
    if (!Opts.OnlyFunctions.empty() &&
        !matchesAny(Name, Opts.OnlyFunctions))
      continue;
    if (matchesAny(Name, Opts.ExcludeFunctions))
      continue;
    printFunctionEntry(Report, E.Index, Out);
  }

  if (Opts.PrintIndex) {
    // Alphabetical cross-reference, "to help us navigate the output".
    Out += "\nindex by function name:\n";
    std::vector<uint32_t> ByName;
    for (uint32_t I = 0; I != Report.Functions.size(); ++I)
      if (Report.Functions[I].ListingIndex != 0)
        ByName.push_back(I);
    std::sort(ByName.begin(), ByName.end(),
              [&](uint32_t A, uint32_t B) {
                return Report.Functions[A].Name < Report.Functions[B].Name;
              });
    for (uint32_t I : ByName)
      Out += format("  [%u] %s\n", Report.Functions[I].ListingIndex,
                    Report.Functions[I].Name.c_str());
  }
  return Out;
}

std::string gprof::printCallGraphEntryReference(const ProfileReport &Report,
                                                const std::string &Name) {
  uint32_t Fn = Report.findFunction(Name);
  if (Fn == ~0u)
    return std::string();
  std::string Out = listingHeader(/*Brief=*/true);
  printFunctionEntry(Report, Fn, Out);
  return Out;
}

std::string gprof::printFlatProfileReference(const ProfileReport &Report,
                                             const FlatPrintOptions &Opts) {
  std::string Out;
  if (!Opts.Brief) {
    Out += "flat profile:\n\n";
    Out += format("Each sample counts for %g seconds; total %.2f seconds "
                  "attributed (%u run%s).\n\n",
                  1.0 / static_cast<double>(Report.TicksPerSecond),
                  Report.TotalTime, Report.RunCount,
                  Report.RunCount == 1 ? "" : "s");
  }
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";

  Out += "  %   cumulative   self              self     total\n";
  Out += " time   seconds   seconds    calls  ms/call  ms/call  name\n";

  double Cumulative = 0.0;
  for (uint32_t I : Report.FlatOrder) {
    const FunctionEntry &F = Report.Functions[I];
    if (F.isUnused() && !Opts.ShowZeroUsage)
      continue;
    Cumulative += F.SelfTime;

    std::string Calls = "";
    std::string SelfPerCall = "";
    std::string TotalPerCall = "";
    if (F.totalCalls() != 0) {
      Calls = format("%llu",
                     static_cast<unsigned long long>(F.totalCalls()));
      double N = static_cast<double>(F.totalCalls());
      SelfPerCall = format("%.2f", F.SelfTime * 1000.0 / N);
      TotalPerCall = format("%.2f", F.totalTime() * 1000.0 / N);
    }

    Out += format("%5s %10.2f %9.2f %8s %8s %8s  %s\n",
                  formatPercent(F.SelfTime, Report.TotalTime).c_str(),
                  Cumulative, F.SelfTime, Calls.c_str(),
                  SelfPerCall.c_str(), TotalPerCall.c_str(),
                  F.Name.c_str());
  }

  if (Report.UnattributedTime > 0.0)
    Out += format("\n%.2f seconds sampled outside every known routine\n",
                  Report.UnattributedTime);
  if (Report.ExcludedTime > 0.0)
    Out += format("\n%.2f seconds excluded from the analysis (-E)\n",
                  Report.ExcludedTime);

  if (!Report.UnusedFunctions.empty() && !Opts.ShowZeroUsage) {
    Out += "\nroutines never called in this execution:\n";
    for (uint32_t I : Report.UnusedFunctions)
      Out += format("    %s\n", Report.Functions[I].Name.c_str());
  }
  return Out;
}
