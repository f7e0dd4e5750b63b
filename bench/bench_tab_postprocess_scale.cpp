//===- bench/bench_tab_postprocess_scale.cpp - E10: analysis scalability --===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §4: after topological numbering, "execution time can be
/// propagated from descendants to ancestors after a single traversal of
/// each arc in the call graph".  This bench measures the full analysis
/// pipeline (symbolize, Tarjan, collapse, propagate, order) across graph
/// sizes and compares it against:
///
///  - a naive fixpoint baseline that repeatedly sweeps all arcs until the
///    time assignment converges (what you get without the topological
///    ordering insight), and
///  - the prof(1) flat-only baseline (no propagation at all), which
///    bounds the cost gprof adds over its predecessor.
///
/// A second section guards the read-path overhaul (docs/READPATH.md): it
/// times the flat-resolver symbolize phase against a bench-local replica
/// of the pre-overhaul path (AoS upper_bound per endpoint, std::map
/// accumulation per arc) over a 100k-routine corpus, emits
/// symbolize_ns_per_record for both into BENCH_postprocess_scale.json,
/// and FAILs if the speedup regresses below its floor — the same shape as
/// the mcount-cost guard, and run from ctest via the smoke target so it
/// cannot rot.  Run with --smoke for a single quick iteration (the ctest
/// smoke target).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analyzer.h"
#include "gmon/GmonFile.h"
#include "graph/Generators.h"
#include "prof/ProfBaseline.h"
#include "support/Random.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

using namespace gprof;
using namespace gprof::bench;

namespace {

constexpr Address Base = 0x10000;
constexpr uint64_t FuncSize = 64;

/// Realizes a random DAG as analyzer inputs without quadratic arc
/// deduplication (arcs from the generator are already unique).
void realize(const CallGraph &G, uint64_t Seed, SymbolTable &Syms,
             ProfileData &Data) {
  SplitMix64 Rng(Seed);
  for (NodeId N = 0; N != G.numNodes(); ++N)
    Syms.addSymbol(G.nodeName(N), Base + N * FuncSize, FuncSize);
  cantFail(Syms.finalize());

  Data.TicksPerSecond = 60;
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &E = G.arc(A);
    Data.Arcs.push_back({Base + E.From * FuncSize + 10,
                         Base + E.To * FuncSize, E.Count});
  }
  for (NodeId N = 0; N != G.numNodes(); ++N)
    if (G.inArcs(N).empty())
      Data.Arcs.push_back({0, Base + N * FuncSize, 1});

  Histogram H(Base, Base + G.numNodes() * FuncSize, FuncSize);
  for (NodeId N = 0; N != G.numNodes(); ++N) {
    uint64_t Samples = Rng.nextBelow(20);
    for (uint64_t S = 0; S != Samples; ++S)
      H.recordPc(Base + N * FuncSize + 1);
  }
  Data.Hist = std::move(H);
}

/// The strawman: iterate T = S + sum(frac * T_child) until convergence.
/// Returns the number of full arc sweeps needed.
unsigned naiveFixpoint(const CallGraph &G, const ProfileReport &Seeded,
                       std::vector<double> &TotalOut) {
  size_t N = G.numNodes();
  std::vector<double> Self(N), Total(N);
  std::vector<uint64_t> Calls(N);
  for (size_t I = 0; I != N; ++I) {
    Self[I] = Seeded.Functions[I].SelfTime;
    Total[I] = Self[I];
    Calls[I] = Seeded.Functions[I].Calls;
  }
  unsigned Sweeps = 0;
  while (true) {
    ++Sweeps;
    double MaxDelta = 0.0;
    std::vector<double> Next = Self;
    for (ArcId A = 0; A != G.numArcs(); ++A) {
      const Arc &E = G.arc(A);
      if (Calls[E.To] == 0)
        continue;
      Next[E.From] += Total[E.To] * static_cast<double>(E.Count) /
                      static_cast<double>(Calls[E.To]);
    }
    for (size_t I = 0; I != N; ++I)
      MaxDelta = std::max(MaxDelta, std::fabs(Next[I] - Total[I]));
    Total.swap(Next);
    if (MaxDelta < 1e-9 || Sweeps > 10000)
      break;
  }
  TotalOut = Total;
  return Sweeps;
}

/// Milliseconds spent in every span named \p Name.
double spanTotalMs(const std::vector<telemetry::SpanRecord> &Spans,
                   const char *Name) {
  uint64_t Ns = 0;
  for (const telemetry::SpanRecord &S : Spans)
    if (S.Name == Name)
      Ns += S.EndNs - S.BeginNs;
  return static_cast<double>(Ns) / 1e6;
}

/// Builds the symbolize-throughput corpus: \p N routines and \p Records
/// raw arc records landing on random call sites, with a few percent of
/// spontaneous callers and unknown callees mixed in so every branch of
/// the symbolize loop pays its real cost.
void makeSymbolizeCorpus(uint32_t N, size_t Records, SymbolTable &Syms,
                         ProfileData &Data) {
  for (uint32_t I = 0; I != N; ++I)
    Syms.addSymbol(format("fn%06u", I), Base + I * FuncSize, FuncSize);
  cantFail(Syms.finalize());

  const Address Hi = Base + static_cast<Address>(N) * FuncSize;
  SplitMix64 Rng(0x5EEDC0DE);
  Data.TicksPerSecond = 60;
  Data.Arcs.reserve(Records);
  for (size_t R = 0; R != Records; ++R) {
    const uint64_t Roll = Rng.nextBelow(100);
    const Address FromPc =
        Roll < 3 ? 0 // spontaneous: no routine contains PC 0
                 : Base + Rng.nextBelow(N) * FuncSize + 1 +
                       Rng.nextBelow(FuncSize - 1);
    const Address SelfPc = Roll >= 97
                               ? Hi + 0x100 + Rng.nextBelow(64) // unknown
                               : Base + Rng.nextBelow(N) * FuncSize;
    Data.Arcs.push_back({FromPc, SelfPc, 1 + Rng.nextBelow(8)});
  }
  Histogram H(Base, Hi, FuncSize);
  for (uint32_t I = 0; I < N; I += 3)
    H.recordPc(Base + I * FuncSize + 1);
  Data.Hist = std::move(H);
}

/// What both symbolize paths must agree on.
struct LegacySymbolizeResult {
  uint64_t FnArcs = 0;
  uint64_t UnknownCallee = 0;
};

/// Bench-local replica of the pre-overhaul symbolize path: an AoS
/// upper_bound over 40-byte Symbol objects for every arc endpoint and
/// node-based std::map accumulation per distinct arc — exactly the
/// per-probe cache misses and per-arc heap nodes the flat resolver and
/// the packed-key arena accumulator were built to remove
/// (docs/READPATH.md).  Kept here, not in the library, so the bench
/// always compares against the historical cost model even as the real
/// code moves on.
LegacySymbolizeResult legacySymbolize(const std::vector<Symbol> &AoS,
                                      const std::vector<ArcRecord> &Raw) {
  auto Find = [&](Address Pc) -> uint32_t {
    auto It = std::upper_bound(
        AoS.begin(), AoS.end(), Pc,
        [](Address P, const Symbol &S) { return P < S.Addr; });
    if (It == AoS.begin())
      return NoSymbol;
    const size_t I = static_cast<size_t>(It - AoS.begin()) - 1;
    return Pc < AoS[I].Addr + AoS[I].Size ? static_cast<uint32_t>(I)
                                          : NoSymbol;
  };
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> Arcs;
  std::map<uint32_t, uint64_t> SelfCalls, Spontaneous;
  LegacySymbolizeResult Out;
  for (const ArcRecord &R : Raw) {
    const uint32_t Callee = Find(R.SelfPc);
    if (Callee == NoSymbol) {
      ++Out.UnknownCallee;
      continue;
    }
    const uint32_t Caller = Find(R.FromPc);
    if (Caller == NoSymbol)
      Spontaneous[Callee] += R.Count;
    else if (Caller == Callee)
      SelfCalls[Callee] += R.Count;
    else
      Arcs[{Caller, Callee}] += R.Count;
  }
  Out.FnArcs = Arcs.size();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int Reps = Smoke ? 1 : 3;

  banner("E10 (section 4)",
         "single-traversal propagation vs naive fixpoint vs prof");

  std::printf("\n(gprof ms is the FULL pipeline: symbolize + Tarjan + "
              "collapse + propagate + sort;\n fixpoint ms is the "
              "propagation step alone, repeated until convergence — it "
              "traverses\n every arc 'sweeps' times where the topological "
              "method traverses each arc once)\n\n");
  row({"routines", "arcs", "gprof ms", "fixpoint ms", "sweeps", "prof ms",
       "agree"},
      12);

  bool Ok = true;
  double LastGprofMs = 0.0;

  std::vector<uint32_t> Sizes = {200u, 1000u, 5000u, 20000u, 50000u};
  if (Smoke)
    Sizes = {200u, 1000u};
  for (uint32_t N : Sizes) {
    CallGraph G = makeRandomDag(N, N * 4, 50, /*Seed=*/N);
    SymbolTable Syms;
    ProfileData Data;
    realize(G, N + 1, Syms, Data);

    Analyzer An(std::move(Syms));
    ProfileReport Report;
    double GprofMs =
        timeMs([&] { Report = cantFail(An.analyze(Data)); }, Reps);
    LastGprofMs = GprofMs;

    std::vector<double> NaiveTotal;
    unsigned Sweeps = 0;
    double NaiveMs =
        timeMs([&] { Sweeps = naiveFixpoint(G, Report, NaiveTotal); }, Reps);

    // prof flat-only baseline over the same inputs.
    SymbolTable ProfSyms;
    ProfileData ProfData;
    realize(G, N + 1, ProfSyms, ProfData);
    double ProfMs =
        timeMs([&] { (void)analyzeProf(ProfSyms, ProfData); }, Reps);

    // Cross-check: both propagation schemes compute the same totals.
    bool Agree = true;
    for (NodeId I = 0; I != G.numNodes(); ++I)
      Agree &= std::fabs(Report.Functions[I].totalTime() - NaiveTotal[I]) <
               1e-6 * (1.0 + NaiveTotal[I]);
    Ok &= Agree;

    row({format("%u", N), format("%zu", G.numArcs()),
         formatFixed(GprofMs, 1), formatFixed(NaiveMs, 1),
         format("%u", Sweeps), formatFixed(ProfMs, 1),
         Agree ? "yes" : "NO"},
        12);
  }

  //--- Symbolize throughput: flat resolver vs the pre-overhaul path. ------
  const uint32_t SymN = Smoke ? 20000u : 100000u;
  const size_t SymRecords = Smoke ? 200000u : 2000000u;
  SymbolTable SymSyms;
  ProfileData SymData;
  makeSymbolizeCorpus(SymN, SymRecords, SymSyms, SymData);

  BenchJson Json("postprocess_scale");

  std::printf("\nsymbolize throughput over %u routines, %zu raw records\n"
              "(legacy = AoS upper_bound + std::map accumulation, the "
              "pre-overhaul path):\n\n",
              SymN, SymData.Arcs.size());
  row({"path", "ms", "ns/record", "fn arcs"}, 14);

  std::vector<Symbol> AoS;
  AoS.reserve(SymSyms.size());
  for (uint32_t I = 0; I != SymSyms.size(); ++I)
    AoS.push_back(SymSyms.symbol(I));
  LegacySymbolizeResult Legacy;
  double LegacyMs =
      timeMs([&] { Legacy = legacySymbolize(AoS, SymData.Arcs); }, Reps);

  // The real path, read off the analyzer.symbolize span of an
  // instrumented run (best of Reps, mirroring timeMs).
  telemetry::Registry &Reg = telemetry::Registry::instance();
  double FlatMs = 1e300;
  uint64_t FlatFnArcs = 0, FlatUnknown = 0;
  {
    Analyzer An(SymSyms);
    for (int R = 0; R != Reps; ++R) {
      Reg.resetValues();
      Reg.enableSpans(true);
      (void)cantFail(An.analyze(SymData));
      Reg.enableSpans(false);
      FlatMs = std::min(FlatMs,
                        spanTotalMs(Reg.collectSpans(), "analyzer.symbolize"));
      FlatFnArcs = telemetry::counter("analyzer.symbolize.fn_arcs").value();
      FlatUnknown =
          telemetry::counter("analyzer.symbolize.unknown_callee").value();
    }
  }

  const double RecordCount = static_cast<double>(SymData.Arcs.size());
  const double LegacyNs = LegacyMs * 1e6 / RecordCount;
  const double FlatNs = FlatMs * 1e6 / RecordCount;
  const double SymSpeedup = FlatMs > 0.0 ? LegacyMs / FlatMs : 0.0;
  const bool SymAgree =
      Legacy.FnArcs == FlatFnArcs && Legacy.UnknownCallee == FlatUnknown;

  row({"legacy", formatFixed(LegacyMs, 1), formatFixed(LegacyNs, 1),
       format("%llu", static_cast<unsigned long long>(Legacy.FnArcs))},
      14);
  row({"flat", formatFixed(FlatMs, 1), formatFixed(FlatNs, 1),
       format("%llu", static_cast<unsigned long long>(FlatFnArcs))},
      14);
  std::printf("\n  symbolize speedup: %.1fx\n", SymSpeedup);

  Json.set("symbolize_routines", static_cast<uint64_t>(SymN));
  Json.set("symbolize_records",
           static_cast<uint64_t>(SymData.Arcs.size()));
  Json.set("symbolize_speedup", SymSpeedup);
  Json.beginRow();
  Json.setRow("mode", std::string("symbolize_legacy"));
  Json.setRow("symbolize_ns_per_record", LegacyNs);
  Json.beginRow();
  Json.setRow("mode", std::string("symbolize_flat"));
  Json.setRow("symbolize_ns_per_record", FlatNs);

  //--- Read path: zero-copy mmap parse vs the stream-copy reference. ------
  const std::string GmonPath = "bench_readpath_corpus.gmon";
  bool ReadersAgree = false;
  double MmapMs = 0.0, StreamMs = 0.0;
  if (Error E = writeGmonFile(GmonPath, SymData)) {
    std::printf("  (read-path section skipped: %s)\n", E.message().c_str());
  } else {
    ProfileData MmapRead, StreamRead;
    MmapMs = timeMs([&] { MmapRead = cantFail(readGmonFile(GmonPath)); },
                    Reps);
    StreamMs = timeMs(
        [&] {
          std::vector<uint8_t> Bytes = cantFail(readFileBytes(GmonPath));
          StreamRead = cantFail(readGmonReference(Bytes));
        },
        Reps);
    ReadersAgree = writeGmon(MmapRead) == writeGmon(StreamRead);
    std::remove(GmonPath.c_str());
    std::printf("\nread path over the same corpus on disk: mmap %.1f ms, "
                "stream+copy %.1f ms (%.2fx)\n",
                MmapMs, StreamMs, MmapMs > 0.0 ? StreamMs / MmapMs : 0.0);
    Json.set("read_mmap_ms", MmapMs);
    Json.set("read_stream_ms", StreamMs);
  }

  Json.write();

  std::printf("\nchecks against the paper:\n");
  Ok &= check(Ok, "single-pass totals equal the fixpoint totals");
  Ok &= check(LastGprofMs < 30000.0,
              "post-processing stays a fast separate pass even at 50k "
              "routines");
  Ok &= check(SymAgree,
              "flat symbolize agrees with the legacy replica (fn arcs and "
              "unknown callees)");
  Ok &= check(ReadersAgree,
              "mmap read path reproduces the stream reference "
              "byte-for-byte");
  // The read-path overhaul's no-regression gate (same shape as the
  // mcount-cost guard): smoke runs get a relaxed floor because the corpus
  // is 10x smaller and ctest hosts are noisy; full runs must hold the
  // docs/READPATH.md claim.
  const double SymGate = Smoke ? 2.0 : 5.0;
  Ok &= check(SymSpeedup >= SymGate,
              format("flat symbolize is >= %.1fx the legacy path at %u "
                     "routines (measured %.1fx)",
                     SymGate, SymN, SymSpeedup));
  return Ok ? 0 : 1;
}
