//===- core/GraphPrinter.cpp -----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/GraphPrinter.h"

#include "support/Format.h"

#include <algorithm>
#include <span>

using namespace gprof;

namespace {

constexpr const char *Separator =
    "-----------------------------------------------\n";

/// One side of the arc index built once per listing: the arcs whose \p End
/// is routine F are Arcs[Start[F], Start[F + 1]), as indices into
/// ProfileReport::Arcs in ascending order.  Entries read their own rows
/// from here instead of scanning every arc, so a listing is linear in arcs.
struct ArcGroups {
  ArcGroups(const ProfileReport &R, uint32_t ReportArc::*End) {
    // A counting sort by routine; it keeps the arc order within a group.
    const size_t N = R.Functions.size();
    Start.assign(N + 1, 0);
    for (const ReportArc &A : R.Arcs)
      ++Start[A.*End + 1];
    for (size_t F = 0; F != N; ++F)
      Start[F + 1] += Start[F];
    Arcs.resize(Start[N]);
    std::vector<uint32_t> Next(Start.begin(), Start.end() - 1);
    for (uint32_t I = 0; I != R.Arcs.size(); ++I)
      Arcs[Next[R.Arcs[I].*End]++] = I;
  }

  std::span<const uint32_t> of(uint32_t Fn) const {
    return {Arcs.data() + Start[Fn], Arcs.data() + Start[Fn + 1]};
  }

  std::vector<uint32_t> Start, Arcs;
};

/// Appends "name <cycleN>" for \p F.  Names print as C strings, up to the
/// first NUL, which an image's length-prefixed string table can hold;
/// returns false when the name was cut there, and the rest of its field
/// is dropped with it.
bool appendName(std::string &Out, const FunctionEntry &F) {
  size_t Start = Out.size();
  Out += F.Name.c_str();
  if (Out.size() - Start != F.Name.size())
    return false;
  if (F.CycleNumber != 0) {
    Out += " <cycle";
    appendUInt(Out, F.CycleNumber);
    Out += '>';
  }
  return true;
}

/// Appends the 13-column "called" field: \p Count, or Count, \p Sep and
/// \p Other when \p Sep is given ("3/10", "4+2").
void appendCalled(std::string &Out, uint64_t Count, char Sep = 0,
                  uint64_t Other = 0) {
  size_t Col = Out.size();
  appendUInt(Out, Count);
  if (Sep) {
    Out += Sep;
    appendUInt(Out, Other);
  }
  alignRight(Out, Col, 13);
}

/// Writes the entries of one listing into \p Out, field by field.  A
/// parent or child row is laid out as printf's
/// "%6s %8.2f %11.2f %13s     %s\n" with the first column blank, and a
/// primary row as "%-6s %5.1f %8.2f %11.2f %13s %s [%u]\n".
class GraphWriter {
public:
  GraphWriter(const ProfileReport &R, std::string &Out)
      : R(R), Into(R, &ReportArc::Child), OutOf(R, &ReportArc::Parent),
        Out(Out) {}

  void functionEntry(uint32_t Fn);
  void cycleEntry(uint32_t CycleIdx);

private:
  /// Sorts Rows by propagated time, then count.  Rows must arrive in
  /// ascending arc order: std::sort is not stable, so where rows tie the
  /// printed order depends on the input order.  Parents print lightest
  /// first, so the heaviest sits next to the primary line; children
  /// heaviest first.
  void sortRows(bool HeaviestFirst);

  /// Starts a parent or child row with blank self and descendants columns.
  void blankTimes() { Out.append(6 + 1 + 8 + 1 + 11 + 1, ' '); }
  /// Starts a parent or child row with its self and descendants columns.
  void times(double Self, double Desc);
  /// The parent or child row of arc \p A, naming routine \p Fn.
  void arcRow(const ReportArc &A, uint32_t Fn);
  /// Ends a parent or child row with "name <cycleN> [idx]" for \p Fn.
  void rowRef(uint32_t Fn);
  /// Ends a parent or child row with a placeholder name.
  void rowName(const char *Name);
  /// The primary row up to and including the space after "called".
  void primaryBegin(uint32_t ListingIndex, double Self, double Desc,
                    uint64_t Calls, uint64_t PlusCalls);
  void primaryEnd(uint32_t ListingIndex);

  /// Denominator for an arc into \p Child: the whole cycle's external calls
  /// when the child is in a cycle, else the child's own calls.
  uint64_t calleeTotalCalls(uint32_t Child) const {
    const FunctionEntry &F = R.Functions[Child];
    if (F.CycleNumber != 0)
      return R.Cycles[F.CycleNumber - 1].ExternalCalls;
    return F.Calls;
  }

  const ProfileReport &R;
  /// Each routine's parent rows and child rows.
  const ArcGroups Into, OutOf;
  std::string &Out;
  /// One block's arc indices, reused across entries.
  std::vector<uint32_t> Rows;
};

void GraphWriter::sortRows(bool HeaviestFirst) {
  auto Lighter = [&](uint32_t I, uint32_t J) {
    const ReportArc &A = R.Arcs[I], &B = R.Arcs[J];
    double TA = A.PropSelf + A.PropChild;
    double TB = B.PropSelf + B.PropChild;
    if (TA != TB)
      return TA < TB;
    return A.Count < B.Count;
  };
  if (HeaviestFirst)
    std::sort(Rows.begin(), Rows.end(),
              [&](uint32_t I, uint32_t J) { return Lighter(J, I); });
  else
    std::sort(Rows.begin(), Rows.end(), Lighter);
}

void GraphWriter::times(double Self, double Desc) {
  Out.append(7, ' ');
  appendFixed(Out, Self, 2, 8);
  Out += ' ';
  appendFixed(Out, Desc, 2, 11);
  Out += ' ';
}

void GraphWriter::arcRow(const ReportArc &A, uint32_t Fn) {
  if (A.WithinCycle) {
    // Calls among cycle members are listed but carry no time (§5.2).
    blankTimes();
    appendCalled(Out, A.Count);
  } else {
    times(A.PropSelf, A.PropChild);
    appendCalled(Out, A.Count, '/', calleeTotalCalls(A.Child));
  }
  rowRef(Fn);
}

void GraphWriter::rowRef(uint32_t Fn) {
  const FunctionEntry &F = R.Functions[Fn];
  Out += "     ";
  if (appendName(Out, F)) {
    Out += " [";
    appendUInt(Out, F.ListingIndex);
    Out += ']';
  }
  Out += '\n';
}

void GraphWriter::rowName(const char *Name) {
  Out += "     ";
  Out += Name;
  Out += '\n';
}

void GraphWriter::primaryBegin(uint32_t ListingIndex, double Self,
                               double Desc, uint64_t Calls,
                               uint64_t PlusCalls) {
  size_t Col = Out.size();
  Out += '[';
  appendUInt(Out, ListingIndex);
  Out += ']';
  alignLeft(Out, Col, 6);
  Out += ' ';
  // "%8s" of "%5.1f %8.2f": never shorter than 8, so never padded.
  appendFixed(Out,
              R.TotalTime > 0.0 ? 100.0 * (Self + Desc) / R.TotalTime : 0.0,
              1, 5);
  Out += ' ';
  appendFixed(Out, Self, 2, 8);
  Out += ' ';
  appendFixed(Out, Desc, 2, 11);
  Out += ' ';
  appendCalled(Out, Calls, PlusCalls != 0 ? '+' : 0, PlusCalls);
  Out += ' ';
}

void GraphWriter::primaryEnd(uint32_t ListingIndex) {
  Out += " [";
  appendUInt(Out, ListingIndex);
  Out += "]\n";
}

void GraphWriter::functionEntry(uint32_t Fn) {
  const FunctionEntry &F = R.Functions[Fn];

  Rows.clear();
  for (uint32_t I : Into.of(Fn))
    if (!R.Arcs[I].SelfArc)
      Rows.push_back(I);
  sortRows(/*HeaviestFirst=*/false);

  if (F.SpontaneousCalls != 0) {
    blankTimes();
    appendCalled(Out, F.SpontaneousCalls, '/', calleeTotalCalls(Fn));
    rowName("<spontaneous>");
  } else if (Rows.empty() && F.Calls == 0) {
    blankTimes();
    Out.append(13, ' ');
    rowName("<never called>");
  }
  for (uint32_t I : Rows)
    arcRow(R.Arcs[I], R.Arcs[I].Parent);

  // Primary line.  Self-recursive calls appear as "+n" and "do not affect
  // the propagation of time".
  primaryBegin(F.ListingIndex, F.SelfTime, F.ChildTime, F.Calls,
               F.SelfCalls);
  appendName(Out, F);
  primaryEnd(F.ListingIndex);

  Rows.clear();
  for (uint32_t I : OutOf.of(Fn))
    if (!R.Arcs[I].SelfArc)
      Rows.push_back(I);
  sortRows(/*HeaviestFirst=*/true);
  for (uint32_t I : Rows)
    arcRow(R.Arcs[I], R.Arcs[I].Child);
  Out += Separator;
}

void GraphWriter::cycleEntry(uint32_t CycleIdx) {
  const CycleEntry &C = R.Cycles[CycleIdx];

  // Parents: arcs into any member from outside the cycle (an arc into a
  // member is within the cycle exactly when its caller is a member too),
  // gathered from the members' parent ranges and put back in ascending
  // arc order.
  Rows.clear();
  uint64_t SpontaneousIntoCycle = 0;
  for (uint32_t M : C.Members) {
    SpontaneousIntoCycle += R.Functions[M].SpontaneousCalls;
    for (uint32_t I : Into.of(M))
      if (!R.Arcs[I].SelfArc && !R.Arcs[I].WithinCycle)
        Rows.push_back(I);
  }
  std::sort(Rows.begin(), Rows.end());
  sortRows(/*HeaviestFirst=*/false);

  if (SpontaneousIntoCycle != 0) {
    blankTimes();
    appendCalled(Out, SpontaneousIntoCycle, '/', C.ExternalCalls);
    rowName("<spontaneous>");
  }
  for (uint32_t I : Rows)
    arcRow(R.Arcs[I], R.Arcs[I].Parent);

  // Primary line for the cycle as a whole.  Internal calls appear as "+n".
  primaryBegin(C.ListingIndex, C.SelfTime, C.ChildTime, C.ExternalCalls,
               C.InternalCalls);
  Out += "<cycle ";
  appendUInt(Out, C.Number);
  Out += " as a whole>";
  primaryEnd(C.ListingIndex);

  // "members of the cycle are listed in place of the children", each with
  // the number of calls it received from within the cycle.
  for (uint32_t M : C.Members) {
    uint64_t CallsFromCycle = 0;
    for (uint32_t I : Into.of(M))
      if (R.Arcs[I].WithinCycle)
        CallsFromCycle += R.Arcs[I].Count;
    const FunctionEntry &FM = R.Functions[M];
    times(FM.SelfTime, FM.ChildTime);
    appendCalled(Out, CallsFromCycle);
    rowRef(M);
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

std::string gprof::printCallGraph(const ProfileReport &Report,
                                  const GraphPrintOptions &Opts) {
  std::string Out;
  // Overflow must be announced here, not only in the flat profile: with
  // --graph-only this is the whole listing, and silently low call counts
  // corrupt every propagated-time fraction below.
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";
  Out += listingHeader(Opts.Brief);

  GraphWriter W(Report, Out);
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
      W.cycleEntry(E.Index);
      continue;
    }
    const std::string &Name = Report.Functions[E.Index].Name;
    if (!Opts.OnlyFunctions.empty() &&
        !matchesAny(Name, Opts.OnlyFunctions))
      continue;
    if (matchesAny(Name, Opts.ExcludeFunctions))
      continue;
    W.functionEntry(E.Index);
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
    for (uint32_t I : ByName) {
      Out += "  [";
      appendUInt(Out, Report.Functions[I].ListingIndex);
      Out += "] ";
      Out += Report.Functions[I].Name.c_str();
      Out += '\n';
    }
  }
  return Out;
}

std::string gprof::printCallGraphEntry(const ProfileReport &Report,
                                       const std::string &Name) {
  uint32_t Fn = Report.findFunction(Name);
  if (Fn == ~0u)
    return std::string();
  std::string Out = listingHeader(/*Brief=*/true);
  GraphWriter(Report, Out).functionEntry(Fn);
  return Out;
}
