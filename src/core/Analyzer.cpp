//===- core/Analyzer.cpp ---------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"

#include "graph/CallGraph.h"
#include "graph/CycleCollapse.h"
#include "graph/FeedbackArcs.h"
#include "graph/Tarjan.h"
#include "support/Arena.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace gprof;

Analyzer::Analyzer(SymbolTable Syms, AnalyzerOptions Opts)
    : Syms(std::move(Syms)), Opts(std::move(Opts)) {}

namespace {

/// A symbolized function-level arc.  The analyzer keeps these in a flat
/// vector sorted by (From, To) — the same iteration order the historical
/// std::map gave, without a heap node and three pointer chases per arc.
struct FnArc {
  uint32_t From;
  uint32_t To;
  uint64_t Count;
  bool Static;
};

bool fnArcKeyLess(const FnArc &A, std::pair<uint32_t, uint32_t> K) {
  return A.From != K.first ? A.From < K.first : A.To < K.second;
}

/// Arc accumulator for symbolization: an open-addressing table over the
/// packed key (Caller << 32) | Callee, with slab storage from an Arena.
/// One table carries all three arc categories — Caller == NoSymbol packs
/// spontaneous activations, Caller == Callee packs self calls — so the
/// per-record hot path is one probe and one add, with no per-arc heap
/// allocation (a std::map pays a node allocation per distinct key plus a
/// red-black rebalance per insert).  Growth re-probes into a fresh,
/// larger slab from the same arena; everything is released at once when
/// the table dies.
class PackedArcAccum {
public:
  static uint64_t packKey(uint32_t Caller, uint32_t Callee) {
    return (static_cast<uint64_t>(Caller) << 32) | Callee;
  }

  void add(uint32_t Caller, uint32_t Callee, uint64_t Count) {
    if (Used * 2 >= Cap)
      grow();
    const uint64_t Key = packKey(Caller, Callee);
    Slot &S = Slots[probe(Key)];
    if (S.Key == EmptyKey) {
      S.Key = Key;
      S.Count = Count;
      ++Used;
      return;
    }
    S.Count += Count;
  }

  size_t size() const { return Used; }

  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = 0; I != Cap; ++I)
      if (Slots[I].Key != EmptyKey)
        F(Slots[I].Key, Slots[I].Count);
  }

private:
  struct Slot {
    uint64_t Key;
    uint64_t Count;
  };
  /// Caller and Callee are both NoSymbol only for an arc into unknown
  /// code, which is dropped before accumulation — so all-ones is free to
  /// mark an empty slot.
  static constexpr uint64_t EmptyKey = ~0ull;

  size_t probe(uint64_t Key) const {
    // splitmix64-style finalizer spreads the packed halves.
    uint64_t H = Key * 0x9E3779B97F4A7C15ULL;
    H ^= H >> 30;
    H *= 0xBF58476D1CE4E5B9ULL;
    H ^= H >> 27;
    size_t I = static_cast<size_t>(H) & (Cap - 1);
    while (Slots[I].Key != EmptyKey && Slots[I].Key != Key)
      I = (I + 1) & (Cap - 1);
    return I;
  }

  void grow() {
    const size_t NewCap = Cap == 0 ? 1024 : Cap * 2;
    Slot *OldSlots = Slots;
    const size_t OldCap = Cap;
    Slots = Mem.allocateArray<Slot>(NewCap);
    Cap = NewCap;
    for (size_t I = 0; I != NewCap; ++I)
      Slots[I].Key = EmptyKey;
    for (size_t I = 0; I != OldCap; ++I)
      if (OldSlots[I].Key != EmptyKey)
        Slots[probe(OldSlots[I].Key)] = OldSlots[I];
  }

  Arena Mem;
  Slot *Slots = nullptr;
  size_t Cap = 0;
  size_t Used = 0;
};

/// Step 1: symbolizes raw arc records into function-level arcs, self
/// calls and spontaneous activations.  Each record resolves both ends
/// against the flat resolver and accumulates into one packed-key table;
/// the table's (key, count) pairs are then sorted, so walking them emits
/// FnArcs in (From, To) order.
void symbolizeArcs(const std::vector<ArcRecord> &Raw, const SymbolTable &Syms,
                   std::vector<FnArc> &FnArcs,
                   std::vector<uint64_t> &SelfCalls,
                   std::vector<uint64_t> &Spontaneous) {
  telemetry::Span Phase("analyzer.symbolize");
  telemetry::ScopedDuration Timer(
      telemetry::histogram("analyzer.phase.latency.symbolize"));
  PackedArcAccum Accum;
  uint64_t Unknown = 0;
  for (const ArcRecord &R : Raw) {
    uint32_t Callee = Syms.findContaining(R.SelfPc);
    if (Callee == NoSymbol) {
      ++Unknown;
      continue; // Arc into unknown code; nothing to attach it to.
    }
    // "the apparent source of the arc is not a call site at all.  Such
    // anomalous invocations are declared 'spontaneous'" (§3.1) —
    // Caller == NoSymbol packs them into the same table.
    Accum.add(Syms.findContaining(R.FromPc), Callee, R.Count);
  }
  std::vector<std::pair<uint64_t, uint64_t>> Pairs;
  Pairs.reserve(Accum.size());
  Accum.forEach([&](uint64_t Key, uint64_t Count) {
    Pairs.emplace_back(Key, Count);
  });
  std::sort(Pairs.begin(), Pairs.end());
  for (const auto &[Key, Count] : Pairs) {
    const uint32_t Caller = static_cast<uint32_t>(Key >> 32);
    const uint32_t Callee = static_cast<uint32_t>(Key);
    if (Caller == NoSymbol)
      Spontaneous[Callee] = Count;
    else if (Caller == Callee)
      SelfCalls[Callee] = Count;
    else
      FnArcs.push_back({Caller, Callee, Count, /*Static=*/false});
  }
  telemetry::counter("analyzer.symbolize.raw_records").add(Raw.size());
  telemetry::counter("analyzer.symbolize.unknown_callee").add(Unknown);
  telemetry::counter("analyzer.symbolize.fn_arcs").add(FnArcs.size());
}

/// Step 4: distributes histogram samples over symbols as self time,
/// prorating buckets that straddle symbol boundaries (the gprof rule).
/// One walk over the sampled buckets in address order: each bucket's
/// seconds are shared among the symbols it overlaps, so every routine's
/// self time accumulates over its buckets in ascending order.  Returns
/// the seconds that fell outside every symbol, summed in bucket order.
double assignSelfTimes(const Histogram &Hist, uint64_t TicksPerSecond,
                       const SymbolTable &Syms,
                       std::vector<FunctionEntry> &Entries) {
  if (Hist.empty() || TicksPerSecond == 0)
    return 0.0;
  telemetry::Span Phase("analyzer.assign");
  telemetry::ScopedDuration Timer(
      telemetry::histogram("analyzer.phase.latency.assign"));
  telemetry::counter("analyzer.assign.hist_samples").add(Hist.totalSamples());
  telemetry::counter("analyzer.assign.hist_buckets").add(Hist.numBuckets());
  const double SecPerSample = 1.0 / static_cast<double>(TicksPerSecond);

  // Symbol bounds come from the resolver's SoA vectors and bucket counts
  // from the histogram's contiguous array, so the inner loop touches
  // three dense arrays instead of striding over Symbol objects.
  const std::vector<Address> &SymStarts = Syms.starts();
  const std::vector<Address> &SymEnds = Syms.ends();
  const std::vector<uint64_t> &Counts = Hist.counts();
  const Address HistLo = Hist.lowPc();
  const Address HistHi = Hist.highPc();
  const uint64_t BSize = Hist.bucketSize();

  double Unattributed = 0.0;
  for (size_t B = 0; B != Counts.size(); ++B) {
    const uint64_t Samples = Counts[B];
    if (Samples == 0)
      continue;
    const Address Start = HistLo + static_cast<Address>(B) * BSize;
    Address End = Start + BSize;
    End = End < HistHi ? End : HistHi;
    const double BucketSeconds = static_cast<double>(Samples) * SecPerSample;
    const double BucketLen = static_cast<double>(End - Start);
    double Attributed = 0.0;
    uint32_t S = Syms.findContaining(Start);
    if (S == NoSymbol)
      S = Syms.findFirstAtOrAfter(Start);
    for (uint32_t I = S; I != NoSymbol && I < Syms.size(); ++I) {
      if (SymStarts[I] >= End)
        break;
      Address OverlapLo = std::max(SymStarts[I], Start);
      Address OverlapHi = std::min(SymEnds[I], End);
      if (OverlapHi <= OverlapLo)
        continue;
      const double Share =
          BucketSeconds * static_cast<double>(OverlapHi - OverlapLo) /
          BucketLen;
      Entries[I].SelfTime += Share;
      Attributed += Share;
    }
    Unattributed += BucketSeconds - Attributed;
  }
  return Unattributed;
}

} // namespace

Expected<ProfileReport> Analyzer::analyze(const ProfileData &Data) const {
  telemetry::Span Whole("analyzer.analyze");
  telemetry::counter("analyzer.runs").add(1);

  ProfileReport Report;
  Report.RunCount = Data.RunCount;
  Report.TicksPerSecond = Data.TicksPerSecond;
  Report.ArcTableOverflowed = Data.ArcTableOverflowed;

  const uint32_t NumFns = static_cast<uint32_t>(Syms.size());
  Report.Functions.resize(NumFns);
  for (uint32_t I = 0; I != NumFns; ++I) {
    Report.Functions[I].Name = Syms.symbol(I).Name;
    Report.Functions[I].SymbolIndex = I;
  }

  //--- Step 1: symbolize raw arcs into function-level arcs. --------------
  std::vector<FnArc> FnArcs; // Sorted by (From, To) throughout.
  std::vector<uint64_t> SelfCalls(NumFns, 0);
  std::vector<uint64_t> Spontaneous(NumFns, 0);
  symbolizeArcs(Data.Arcs, Syms, FnArcs, SelfCalls, Spontaneous);

  // Binary-search lookup into the sorted arc vector; erases are O(n) but
  // only run for the handful of -k / cycle-break arcs.
  auto FindFnArc = [&FnArcs](uint32_t From, uint32_t To) {
    auto It = std::lower_bound(FnArcs.begin(), FnArcs.end(),
                               std::pair<uint32_t, uint32_t>{From, To},
                               fnArcKeyLess);
    if (It != FnArcs.end() && It->From == From && It->To == To)
      return It;
    return FnArcs.end();
  };

  //--- Step 2a: delete the arcs named by -k options. ----------------------
  for (const auto &[FromName, ToName] : Opts.DeleteArcs) {
    uint32_t From = Syms.findByName(FromName);
    uint32_t To = Syms.findByName(ToName);
    if (From == NoSymbol || To == NoSymbol)
      return Error::failure(
          format("cannot delete arc %s -> %s: unknown routine",
                 FromName.c_str(), ToName.c_str()));
    if (From == To) {
      SelfCalls[From] = 0;
      continue;
    }
    auto It = FindFnArc(From, To);
    if (It != FnArcs.end())
      FnArcs.erase(It);
    Report.RemovedArcs.push_back({From, To});
  }

  //--- Step 3: add static arcs with count zero (-c). ----------------------
  if (Opts.UseStaticArcs) {
    // Batch insert: collect the statically discovered pairs absent from
    // the dynamic table, sort and de-duplicate them, then merge the two
    // sorted runs — the vector stays sorted without per-arc shifting.
    std::vector<FnArc> Extra;
    for (const StaticArc &SA : StaticArcs) {
      uint32_t Caller = Syms.findContaining(SA.CallSitePc);
      uint32_t Callee = Syms.findContaining(SA.TargetPc);
      if (Caller == NoSymbol || Callee == NoSymbol || Caller == Callee)
        continue;
      if (FindFnArc(Caller, Callee) == FnArcs.end())
        Extra.push_back({Caller, Callee, 0, /*Static=*/true});
    }
    std::sort(Extra.begin(), Extra.end(), [](const FnArc &A, const FnArc &B) {
      return A.From != B.From ? A.From < B.From : A.To < B.To;
    });
    Extra.erase(std::unique(Extra.begin(), Extra.end(),
                            [](const FnArc &A, const FnArc &B) {
                              return A.From == B.From && A.To == B.To;
                            }),
                Extra.end());
    const size_t Mid = FnArcs.size();
    FnArcs.insert(FnArcs.end(), Extra.begin(), Extra.end());
    std::inplace_merge(FnArcs.begin(), FnArcs.begin() + Mid, FnArcs.end(),
                       [](const FnArc &A, const FnArc &B) {
                         return A.From != B.From ? A.From < B.From
                                                 : A.To < B.To;
                       });
  }

  //--- Build the function-level graph. ------------------------------------
  CallGraph G;
  for (uint32_t I = 0; I != NumFns; ++I)
    G.addNode(Syms.symbol(I).Name);
  for (const FnArc &A : FnArcs)
    G.addArc(A.From, A.To, A.Count, A.Static);

  //--- Step 2b: the cycle-breaking heuristic (bounded). -------------------
  if (Opts.AutoBreakCycleBound != 0) {
    FeedbackArcResult FAS =
        selectFeedbackArcsGreedy(G, Opts.AutoBreakCycleBound);
    if (!FAS.RemovedArcs.empty()) {
      for (ArcId A : FAS.RemovedArcs) {
        const Arc &Edge = G.arc(A);
        Report.RemovedArcs.push_back({Edge.From, Edge.To});
        auto It = FindFnArc(Edge.From, Edge.To);
        if (It != FnArcs.end())
          FnArcs.erase(It);
      }
      G = removeArcs(G, FAS.RemovedArcs);
    }
  }

  //--- Call counts (C_e): incoming dynamic arcs + spontaneous. ------------
  for (uint32_t I = 0; I != NumFns; ++I) {
    FunctionEntry &E = Report.Functions[I];
    E.Calls = G.incomingCallCount(I) + Spontaneous[I];
    E.SelfCalls = SelfCalls[I];
    E.SpontaneousCalls = Spontaneous[I];
  }

  //--- Step 4: self times from the histogram. -----------------------------
  Report.UnattributedTime =
      assignSelfTimes(Data.Hist, Data.TicksPerSecond, Syms, Report.Functions);
  // The unattributed gap in integer microseconds.
  telemetry::counter("analyzer.assign.unattributed_us")
      .add(static_cast<uint64_t>(Report.UnattributedTime * 1e6));
  // -E exclusions: drop the named routines' time before totals and
  // propagation so it appears nowhere.
  for (const std::string &Name : Opts.ExcludeTimeOf) {
    uint32_t Fn = Syms.findByName(Name);
    if (Fn == NoSymbol)
      return Error::failure(
          format("cannot exclude time of unknown routine '%s'",
                 Name.c_str()));
    Report.ExcludedTime += Report.Functions[Fn].SelfTime;
    Report.Functions[Fn].SelfTime = 0.0;
  }
  for (const FunctionEntry &E : Report.Functions)
    Report.TotalTime += E.SelfTime;

  //--- Step 5: cycles and topological numbering. --------------------------
  SCCResult SCCs = findSCCs(G);
  std::vector<uint32_t> TopoNums = topologicalNumbers(G, SCCs);
  CondensedGraph Cond = collapseCycles(G, SCCs);

  // Number the nontrivial components as cycles, in condensed-id order.
  std::vector<uint32_t> CycleOf(NumFns, 0); // 1-based; 0 = none
  for (NodeId C = 0; C != Cond.Dag.numNodes(); ++C) {
    if (!Cond.isCycle(C))
      continue;
    CycleEntry Cycle;
    Cycle.Number = static_cast<uint32_t>(Report.Cycles.size() + 1);
    for (NodeId M : Cond.Members[C]) {
      Cycle.Members.push_back(M);
      CycleOf[M] = Cycle.Number;
    }
    std::sort(Cycle.Members.begin(), Cycle.Members.end(),
              [&](uint32_t A, uint32_t B) {
                return Report.Functions[A].Name < Report.Functions[B].Name;
              });
    Report.Cycles.push_back(std::move(Cycle));
  }
  for (uint32_t I = 0; I != NumFns; ++I) {
    Report.Functions[I].TopoNumber = TopoNums[I];
    Report.Functions[I].CycleNumber = CycleOf[I];
  }

  // Per-cycle aggregates: self time, external/internal calls.
  std::vector<uint32_t> CycleIndexOfCond(Cond.Dag.numNodes(), ~0u);
  {
    uint32_t Next = 0;
    for (NodeId C = 0; C != Cond.Dag.numNodes(); ++C)
      if (Cond.isCycle(C))
        CycleIndexOfCond[C] = Next++;
  }
  for (CycleEntry &Cycle : Report.Cycles) {
    for (uint32_t M : Cycle.Members) {
      Cycle.SelfTime += Report.Functions[M].SelfTime;
      Cycle.ExternalCalls += Spontaneous[M];
      Cycle.InternalCalls += SelfCalls[M];
    }
  }
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &Edge = G.arc(A);
    uint32_t FromCycle = CycleOf[Edge.From];
    uint32_t ToCycle = CycleOf[Edge.To];
    if (ToCycle == 0)
      continue;
    if (FromCycle == ToCycle)
      Report.Cycles[ToCycle - 1].InternalCalls += Edge.Count;
    else
      Report.Cycles[ToCycle - 1].ExternalCalls += Edge.Count;
  }

  //--- Step 6: time propagation over the condensed DAG. -------------------
  // Calls into each condensed node from outside it (the C_e denominator).
  const size_t NumCond = Cond.Dag.numNodes();
  std::vector<uint64_t> CallsOfCond(NumCond, 0);
  for (NodeId C = 0; C != NumCond; ++C) {
    uint64_t Calls = Cond.Dag.incomingCallCount(C);
    for (NodeId M : Cond.Members[C])
      Calls += Spontaneous[M];
    CallsOfCond[C] = Calls;
  }

  std::vector<double> PropSelfOf(G.numArcs(), 0.0);
  std::vector<double> PropChildOf(G.numArcs(), 0.0);
  telemetry::counter("analyzer.propagate.cond_nodes").add(NumCond);
  telemetry::counter("analyzer.propagate.cycles").add(Report.Cycles.size());
  telemetry::counter("analyzer.propagate.graph_arcs").add(G.numArcs());

  // Condensed ids are in reverse topological order, so a forward sweep
  // sees every callee before its callers: "execution time can be
  // propagated from descendants to ancestors after a single traversal of
  // each arc in the call graph" (§4).
  {
    telemetry::Span Phase("analyzer.propagate");
    telemetry::ScopedDuration Timer(
        telemetry::histogram("analyzer.phase.latency.propagate"));
    for (NodeId C = 0; C != NumCond; ++C) {
      for (NodeId M : Cond.Members[C]) {
        for (ArcId A : G.outArcs(M)) {
          const Arc &Edge = G.arc(A);
          NodeId D = Cond.CondensedOf[Edge.To];
          if (D == C)
            continue; // Intra-cycle arcs do not propagate.
          if (Edge.Count == 0 || CallsOfCond[D] == 0)
            continue; // Static arcs "are never responsible for any time
                      // propagation" (§4).
          double Fraction = static_cast<double>(Edge.Count) /
                            static_cast<double>(CallsOfCond[D]);
          double ChildSelf, ChildDesc;
          if (Cond.isCycle(D)) {
            // "When a child is a member of a cycle, the time shown is the
            // appropriate fraction of the time for the whole cycle"
            // (§5.2).
            const CycleEntry &ChildCycle = Report.Cycles[CycleIndexOfCond[D]];
            ChildSelf = ChildCycle.SelfTime;
            ChildDesc = ChildCycle.ChildTime;
          } else {
            const FunctionEntry &ChildFn = Report.Functions[Edge.To];
            ChildSelf = ChildFn.SelfTime;
            ChildDesc = ChildFn.ChildTime;
          }
          PropSelfOf[A] = Fraction * ChildSelf;
          PropChildOf[A] = Fraction * ChildDesc;
          double Inherited = PropSelfOf[A] + PropChildOf[A];
          Report.Functions[M].ChildTime += Inherited;
          if (Cond.isCycle(C))
            Report.Cycles[CycleIndexOfCond[C]].ChildTime += Inherited;
        }
      }
    }
  }

  //--- Step 7: report arcs and listing orders. -----------------------------
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &Edge = G.arc(A);
    ReportArc RA;
    RA.Parent = Edge.From;
    RA.Child = Edge.To;
    RA.Count = Edge.Count;
    RA.PropSelf = PropSelfOf[A];
    RA.PropChild = PropChildOf[A];
    RA.Static = Edge.Static;
    RA.WithinCycle = CycleOf[Edge.From] != 0 &&
                     CycleOf[Edge.From] == CycleOf[Edge.To];
    Report.Arcs.push_back(RA);
  }
  for (uint32_t I = 0; I != NumFns; ++I) {
    if (SelfCalls[I] == 0)
      continue;
    ReportArc RA;
    RA.Parent = I;
    RA.Child = I;
    RA.Count = SelfCalls[I];
    RA.SelfArc = true;
    Report.Arcs.push_back(RA);
  }

  // Flat order: decreasing self time, then decreasing calls, then name.
  Report.FlatOrder.resize(NumFns);
  for (uint32_t I = 0; I != NumFns; ++I)
    Report.FlatOrder[I] = I;
  std::sort(Report.FlatOrder.begin(), Report.FlatOrder.end(),
            [&](uint32_t A, uint32_t B) {
              const FunctionEntry &FA = Report.Functions[A];
              const FunctionEntry &FB = Report.Functions[B];
              if (FA.SelfTime != FB.SelfTime)
                return FA.SelfTime > FB.SelfTime;
              if (FA.totalCalls() != FB.totalCalls())
                return FA.totalCalls() > FB.totalCalls();
              return FA.Name < FB.Name;
            });

  for (uint32_t I : Report.FlatOrder)
    if (Report.Functions[I].isUnused())
      Report.UnusedFunctions.push_back(I);
  std::sort(Report.UnusedFunctions.begin(), Report.UnusedFunctions.end(),
            [&](uint32_t A, uint32_t B) {
              return Report.Functions[A].Name < Report.Functions[B].Name;
            });

  // Graph listing order: decreasing self+descendant time; cycles are
  // entries of their own.  Unused routines are left out of the graph
  // listing (they appear in the unused list instead) unless a static arc
  // mentions them — static structure is worth showing (§4).
  std::vector<bool> InAnyArc(NumFns, false);
  for (const ReportArc &RA : Report.Arcs) {
    InAnyArc[RA.Parent] = true;
    InAnyArc[RA.Child] = true;
  }
  std::vector<ListingEntry> Order;
  for (uint32_t I = 0; I != NumFns; ++I)
    if (!Report.Functions[I].isUnused() || InAnyArc[I])
      Order.push_back({/*IsCycle=*/false, I});
  for (uint32_t I = 0; I != Report.Cycles.size(); ++I)
    Order.push_back({/*IsCycle=*/true, I});

  auto TotalOf = [&](const ListingEntry &E) {
    return E.IsCycle ? Report.Cycles[E.Index].totalTime()
                     : Report.Functions[E.Index].totalTime();
  };
  auto NameOf = [&](const ListingEntry &E) -> std::string {
    return E.IsCycle ? format("<cycle %u>", Report.Cycles[E.Index].Number)
                     : Report.Functions[E.Index].Name;
  };
  std::sort(Order.begin(), Order.end(),
            [&](const ListingEntry &A, const ListingEntry &B) {
              double TA = TotalOf(A), TB = TotalOf(B);
              if (TA != TB)
                return TA > TB;
              return NameOf(A) < NameOf(B);
            });
  for (uint32_t Pos = 0; Pos != Order.size(); ++Pos) {
    const ListingEntry &E = Order[Pos];
    if (E.IsCycle)
      Report.Cycles[E.Index].ListingIndex = Pos + 1;
    else
      Report.Functions[E.Index].ListingIndex = Pos + 1;
  }
  Report.GraphOrder = std::move(Order);

  return Report;
}

Expected<ProfileReport> gprof::analyzeImageProfile(const Image &Img,
                                                   const ProfileData &Data,
                                                   AnalyzerOptions Opts) {
  Analyzer A(SymbolTable::fromImage(Img), std::move(Opts));
  StaticScanResult Scan = scanStaticCalls(Img);
  A.setStaticArcs(std::move(Scan.DirectCalls));
  return A.analyze(Data);
}
