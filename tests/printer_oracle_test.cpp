//===- tests/printer_oracle_test.cpp - Listing printers vs the reference --===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printFlatProfile, printCallGraph and printCallGraphEntry index the arcs
/// once per listing and write every field with std::to_chars; the
/// reference printers (tests/reference_printers.h) scan every arc per
/// entry and build every field with format().  Each input here is rendered
/// by both, with every print option, and the bytes must be identical.  The
/// inputs are the TL corpus at three tick rates, large synthetic profiles
/// (rings up to 40 deep, static arcs, -E exclusion, cycle breaking) and
/// hand-built reports that reach what the analyzer never produces:
/// rounding ties, huge, negative, infinite and NaN times, counts wider
/// than their column, very long names, and blocks of more than 16 rows
/// whose sort keys all tie.
///
//===----------------------------------------------------------------------===//

#include "big_profile.h"
#include "reference_printers.h"

#include "core/Analyzer.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <dirent.h>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace gprof;

namespace {

/// The line of \p Text holding byte \p Pos.
std::string lineAt(const std::string &Text, size_t Pos) {
  // npos + 1 wraps to 0, the start of the first line.
  size_t Begin = Pos == 0 ? 0 : Text.rfind('\n', Pos - 1) + 1;
  return Text.substr(Begin, Text.find('\n', Pos) - Begin);
}

/// Expects identical bytes; on a mismatch reports the first differing
/// line of each rather than both listings.
void expectSameText(const std::string &Actual, const std::string &Expected,
                    const std::string &What) {
  if (Actual == Expected)
    return;
  size_t Pos = std::mismatch(Actual.begin(),
                             Actual.begin() +
                                 std::min(Actual.size(), Expected.size()),
                             Expected.begin())
                   .first -
               Actual.begin();
  ADD_FAILURE() << What << ": first difference at byte " << Pos << " of "
                << Expected.size() << "\n  reference: \""
                << lineAt(Expected, Pos) << "\"\n  printer:   \""
                << lineAt(Actual, Pos) << "\"";
}

/// A routine name to filter on: a cycle member when there is one.
std::string someCycleMember(const ProfileReport &R) {
  for (const FunctionEntry &F : R.Functions)
    if (F.CycleNumber != 0)
      return F.Name;
  return R.Functions.empty() ? "" : R.Functions.front().Name;
}

/// Renders \p R with every print option through both printers, plus one
/// printCallGraphEntry per \p EntryStride routines.
void expectSameListings(const ProfileReport &R, const std::string &What,
                        size_t EntryStride = 1) {
  for (bool Brief : {false, true})
    for (bool Zero : {false, true}) {
      FlatPrintOptions FO;
      FO.Brief = Brief;
      FO.ShowZeroUsage = Zero;
      expectSameText(printFlatProfile(R, FO),
                     printFlatProfileReference(R, FO),
                     What + format(" flat brief=%d zero=%d", Brief, Zero));
    }

  const std::string Member = someCycleMember(R);
  const std::string Heaviest =
      R.GraphOrder.empty() || R.GraphOrder.front().IsCycle
          ? Member
          : R.Functions[R.GraphOrder.front().Index].Name;
  std::vector<std::pair<std::string, GraphPrintOptions>> Graphs(6);
  Graphs[0].first = "default";
  Graphs[1].first = "brief";
  Graphs[1].second.Brief = true;
  Graphs[2].first = "no index";
  Graphs[2].second.PrintIndex = false;
  Graphs[3].first = "only " + Member;
  Graphs[3].second.OnlyFunctions = {Member, "no-such-routine"};
  Graphs[4].first = "exclude " + Heaviest;
  Graphs[4].second.ExcludeFunctions = {Heaviest, Member};
  Graphs[5].first = "only and exclude";
  Graphs[5].second.OnlyFunctions = {Member, Heaviest};
  Graphs[5].second.ExcludeFunctions = {Member};
  Graphs[5].second.Brief = true;
  for (const auto &[Name, GO] : Graphs)
    expectSameText(printCallGraph(R, GO), printCallGraphReference(R, GO),
                   What + " graph " + Name);

  for (size_t I = 0; I < R.Functions.size(); I += EntryStride) {
    const std::string &Name = R.Functions[I].Name;
    expectSameText(printCallGraphEntry(R, Name),
                   printCallGraphEntryReference(R, Name),
                   What + " entry " + Name);
  }
  EXPECT_EQ(printCallGraphEntry(R, "no-such-routine"), "");
}

//===----------------------------------------------------------------------===//
// The TL corpus
//===----------------------------------------------------------------------===//

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  DIR *Dir = opendir(TL_CORPUS_DIR);
  if (!Dir)
    return Files;
  while (dirent *Entry = readdir(Dir)) {
    std::string Name = Entry->d_name;
    if (Name.size() > 3 && Name.substr(Name.size() - 3) == ".tl")
      Files.push_back(std::string(TL_CORPUS_DIR) + "/" + Name);
  }
  closedir(Dir);
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(PrinterOracleTest, CorpusAtThreeTickRates) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_GE(Files.size(), 5u) << "expected the TL corpus at "
                              << TL_CORPUS_DIR;
  for (const std::string &Path : Files) {
    auto Source = readFileText(Path);
    ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
    CodeGenOptions CG;
    CG.EnableProfiling = true;
    Image Img = compileTLOrDie(*Source, CG);
    for (uint64_t CyclesPerTick : {1, 53, 10000}) {
      Monitor Mon(Img.lowPc(), Img.highPc());
      VMOptions VO;
      VO.CyclesPerTick = CyclesPerTick;
      VM Machine(Img, VO);
      Machine.setHooks(&Mon);
      ASSERT_TRUE(static_cast<bool>(Machine.run())) << Path;
      ProfileData Data = Mon.finish();
      for (bool StaticArcs : {false, true}) {
        AnalyzerOptions AO;
        AO.UseStaticArcs = StaticArcs;
        ProfileReport R = cantFail(analyzeImageProfile(Img, Data, AO));
        expectSameListings(
            R, format("%s at %llu cycles per tick%s", Path.c_str(),
                      static_cast<unsigned long long>(CyclesPerTick),
                      StaticArcs ? " with static arcs" : ""));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Large synthetic profiles
//===----------------------------------------------------------------------===//

TEST(PrinterOracleTest, LargeSyntheticWithDeepRings) {
  BigProfile P = makeBigProfile(3000, /*Seed=*/0xfeed);
  ProfileReport R = cantFail(Analyzer(P.Syms).analyze(P.Data));
  ASSERT_FALSE(R.Cycles.empty());
  expectSameListings(R, "feed_3000", /*EntryStride=*/37);
}

TEST(PrinterOracleTest, LargeSyntheticWithStaticArcsExclusionAndBreaking) {
  BigProfile P = makeBigProfile(1500, /*Seed=*/0xbeef);
  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  Opts.AutoBreakCycleBound = 3;
  Opts.ExcludeTimeOf = {"fn10"};
  Analyzer An(P.Syms, Opts);
  An.setStaticArcs(P.StaticArcs);
  ProfileReport R = cantFail(An.analyze(P.Data));
  ASSERT_FALSE(R.RemovedArcs.empty());
  expectSameListings(R, "beef_1500", /*EntryStride=*/19);
}

TEST(PrinterOracleTest, LargeSyntheticWithDeletedArcs) {
  BigProfile P = makeBigProfile(800, /*Seed=*/0xabcd);
  AnalyzerOptions Opts;
  Opts.DeleteArcs = {{"fn0", "fn1"}, {"fn60", "fn61"}};
  Opts.ExcludeTimeOf = {"fn3", "fn61"};
  ProfileReport R = cantFail(Analyzer(P.Syms, Opts).analyze(P.Data));
  expectSameListings(R, "abcd_800", /*EntryStride=*/7);
}

//===----------------------------------------------------------------------===//
// Hand-built reports
//===----------------------------------------------------------------------===//

/// Builds a report by hand: routines print in the order they were added in
/// both listings, after the cycles.
class HandReport {
public:
  uint32_t fn(std::string Name, double Self, double Child = 0.0,
              uint64_t Calls = 0, uint64_t SelfCalls = 0,
              uint64_t Spontaneous = 0) {
    FunctionEntry F;
    F.Name = std::move(Name);
    F.SymbolIndex = static_cast<uint32_t>(R.Functions.size());
    F.SelfTime = Self;
    F.ChildTime = Child;
    F.Calls = Calls;
    F.SelfCalls = SelfCalls;
    F.SpontaneousCalls = Spontaneous;
    R.Functions.push_back(F);
    return F.SymbolIndex;
  }

  void arc(uint32_t Parent, uint32_t Child, uint64_t Count, double PropSelf,
           double PropChild, bool Static = false) {
    ReportArc A;
    A.Parent = Parent;
    A.Child = Child;
    A.Count = Count;
    A.PropSelf = PropSelf;
    A.PropChild = PropChild;
    A.Static = Static;
    A.SelfArc = Parent == Child;
    R.Arcs.push_back(A);
  }

  void cycle(std::vector<uint32_t> Members, double Self, double Child,
             uint64_t External, uint64_t Internal) {
    CycleEntry C;
    C.Number = static_cast<uint32_t>(R.Cycles.size() + 1);
    C.Members = std::move(Members);
    C.SelfTime = Self;
    C.ChildTime = Child;
    C.ExternalCalls = External;
    C.InternalCalls = Internal;
    for (uint32_t M : C.Members)
      R.Functions[M].CycleNumber = C.Number;
    R.Cycles.push_back(C);
  }

  /// Fills the orders, indices and within-cycle flags; TotalTime is the
  /// summed self time unless \p Total is given.
  ProfileReport finish(std::optional<double> Total = std::nullopt) const {
    ProfileReport Out = R;
    uint32_t Listing = 0;
    for (uint32_t C = 0; C != Out.Cycles.size(); ++C) {
      Out.GraphOrder.push_back({true, C});
      Out.Cycles[C].ListingIndex = ++Listing;
    }
    double Sum = 0.0;
    for (uint32_t I = 0; I != Out.Functions.size(); ++I) {
      FunctionEntry &F = Out.Functions[I];
      Out.FlatOrder.push_back(I);
      Sum += F.SelfTime;
      if (F.isUnused()) {
        Out.UnusedFunctions.push_back(I);
        continue;
      }
      Out.GraphOrder.push_back({false, I});
      F.ListingIndex = ++Listing;
    }
    for (ReportArc &A : Out.Arcs) {
      uint32_t CP = Out.Functions[A.Parent].CycleNumber;
      A.WithinCycle = CP != 0 && CP == Out.Functions[A.Child].CycleNumber;
    }
    Out.TotalTime = Total ? *Total : Sum;
    return Out;
  }

  ProfileReport R;
};

TEST(PrinterOracleTest, OverflowedArcTableAndTrailers) {
  HandReport H;
  uint32_t Main = H.fn("main", 1.5, 2.25, 0, 0, 1);
  uint32_t Work = H.fn("work", 2.25, 0.0, 7, 3);
  H.fn("idle", 0.0);
  H.fn("orphan", 0.5);
  H.arc(Main, Work, 7, 2.25, 0.0);
  H.arc(Work, Work, 3, 0.0, 0.0);
  H.R.ArcTableOverflowed = true;
  H.R.UnattributedTime = 0.125;
  H.R.ExcludedTime = 1.375;
  H.R.RunCount = 3;
  H.R.TicksPerSecond = 997;
  expectSameListings(H.finish(), "overflow");
}

TEST(PrinterOracleTest, ZeroTotalTime) {
  HandReport H;
  uint32_t Main = H.fn("main", 0.0, 0.0, 0, 0, 1);
  uint32_t A = H.fn("a", 0.0, 0.0, 4);
  uint32_t B = H.fn("b", 0.0, 0.0, 2, 5);
  H.arc(Main, A, 4, 0.0, 0.0);
  H.arc(A, B, 2, 0.0, 0.0);
  H.arc(Main, B, 0, 0.0, 0.0, /*Static=*/true);
  H.R.TicksPerSecond = 1;
  expectSameListings(H.finish(0.0), "zero total");
  HandReport Neg;
  Neg.fn("main", -0.0, 0.0, 1);
  expectSameListings(Neg.finish(-0.0), "negative zero total");
}

TEST(PrinterOracleTest, RoundingTiesAndNearTies) {
  // Exact binary ties at two decimals (x.125, x.375, ...), ties at one
  // decimal in the percent column (0.25 %, 0.75 %), and decimal "ties"
  // that are not ties in binary (2.675 is below 2.675).
  const double Times[] = {0.125, 0.375, 0.625, 0.875, 2.5,   1.005,
                          2.675, 0.005, 0.015, 0.045, 0.25,  0.75,
                          -0.125, -0.004, -0.005, 1e-9, 0.0, 99.995};
  HandReport H;
  uint32_t Main = H.fn("main", 0.0, 0.0, 0, 0, 1);
  uint32_t I = 0;
  for (double T : Times) {
    uint32_t Fn = H.fn(format("t%u", I), T, T / 2, 1000, I % 3);
    H.arc(Main, Fn, 1000 - I, T, T * 3);
    ++I;
  }
  expectSameListings(H.finish(100.0), "ties");
  // The same times against a total that makes their percents land on
  // x.x5.
  HandReport P;
  for (double T : {0.25, 0.75, 1.25, 0.05, 0.15, 0.35})
    P.fn(format("p%g", T), T, 0.0, 1);
  expectSameListings(P.finish(100.0), "percent ties");
}

TEST(PrinterOracleTest, HugeNegativeInfiniteAndNanTimes) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  HandReport H;
  uint32_t Main = H.fn("main", 1e20, 3e20, 0, 0, 1);
  uint32_t Big = H.fn("big", 1e20, 1e300, 9);
  uint32_t Max = H.fn("max", std::numeric_limits<double>::max(), 0.0, 1);
  uint32_t Tiny = H.fn("tiny", std::numeric_limits<double>::denorm_min(),
                       -1e-300, 2);
  // IEEE 754 leaves the sign of a NaN result open when two NaNs meet, and
  // a compiler may swap the operands of a sum, so no printed sum adds two
  // NaNs here; each NaN is the only NaN operand of what it enters.
  uint32_t Pos = H.fn("inf", Inf, -Inf, 3);
  uint32_t Bad = H.fn("nan", NaN, 1.0, 4);
  uint32_t NegBad = H.fn("-nan", -NaN, 2.0, 6);
  uint32_t Neg = H.fn("neg", -1e20, -0.0, 5);
  H.arc(Main, Big, 9, 1e20, 1e300);
  H.arc(Main, Max, 1, std::numeric_limits<double>::max(), 0.0);
  H.arc(Main, Tiny, 2, 5e-324, -1e-300);
  H.arc(Main, Pos, 3, Inf, -Inf);
  H.arc(Main, Bad, 4, NaN, 1.0);
  H.arc(Main, NegBad, 6, -NaN, 0.5);
  H.arc(Main, Neg, 5, -1e20, -0.0);
  H.arc(Big, Bad, 1, -NaN, NaN);
  expectSameListings(H.finish(3e20), "huge and non-finite");
  // A NaN or infinite total: every percent is NaN or zero.
  HandReport N;
  N.fn("main", 1.0, 0.0, 1);
  N.fn("other", 2.0, 0.0, 1);
  expectSameListings(N.finish(NaN), "nan total");
  expectSameListings(N.finish(Inf), "inf total");
}

TEST(PrinterOracleTest, LongNamesAndWideCounts) {
  const uint64_t Max = std::numeric_limits<uint64_t>::max();
  HandReport H;
  std::string Long(301, 'x');
  Long += "_long_routine_name";
  uint32_t Main = H.fn(Long, 1.0, 2.0, 0, 0, Max);
  uint32_t A = H.fn(std::string(400, 'a'), 2.0, 0.0, Max, Max);
  uint32_t B = H.fn("b", 0.5, 0.0, 12345678901234567890ULL, 0,
                    9876543210987654321ULL);
  H.arc(Main, A, Max, 1.0, 0.0);
  H.arc(A, B, 12345678901234567890ULL, 0.25, 0.0);
  H.arc(Main, B, 1, 0.25, 0.0);
  expectSameListings(H.finish(), "long names and wide counts");
}

TEST(PrinterOracleTest, NameWithNulPrintsUpToIt) {
  // An image's string table is length-prefixed, so a name can hold a NUL;
  // the listing has always printed such a name as a C string.
  HandReport H;
  uint32_t Main = H.fn("main", 1.0, 2.0, 0, 0, 1);
  uint32_t A = H.fn(std::string("odd\0name", 8), 1.0, 1.0, 3);
  uint32_t B = H.fn("b", 1.0, 0.0, 2);
  H.arc(Main, A, 2, 1.0, 0.5);
  H.arc(A, B, 1, 0.5, 0.0);
  H.arc(B, A, 1, 0.5, 0.25);
  H.cycle({A, B}, 2.0, 0.0, 2, 2);
  expectSameListings(H.finish(), "nul name");
}

TEST(PrinterOracleTest, TiedBlocksLongerThanSixteenRows) {
  // std::sort switches from insertion sort at 16 elements; with every key
  // tied the order it leaves is whatever it does to the input sequence,
  // so this pins that both printers feed it the same one.
  HandReport H;
  uint32_t Hub = H.fn("hub", 1.0, 4.0, 40);
  std::vector<uint32_t> Callers, Callees;
  for (uint32_t I = 0; I != 24; ++I)
    Callers.push_back(H.fn(format("caller%02u", I), 0.5, 0.25, 1, 0, 1));
  for (uint32_t I = 0; I != 20; ++I)
    Callees.push_back(H.fn(format("callee%02u", I), 0.25, 0.0, 1));
  // Interleave the two blocks' arcs so neither range is contiguous in the
  // arc vector; a few keys differ only in count.
  for (uint32_t I = 0; I != 24; ++I) {
    H.arc(Callers[I], Hub, I % 7 == 3 ? 2 : 1, 0.125, 0.0625);
    if (I < 20)
      H.arc(Hub, Callees[I], I % 5 == 1 ? 3 : 1, 0.25, 0.0);
  }
  expectSameListings(H.finish(), "tied blocks");
}

TEST(PrinterOracleTest, CyclesWithTiedParentsAndSpontaneousEntry) {
  HandReport H;
  uint32_t Main = H.fn("main", 0.5, 9.5, 0, 0, 1);
  std::vector<uint32_t> Ring;
  for (uint32_t I = 0; I != 5; ++I)
    Ring.push_back(H.fn(format("ring%u", I), 1.0, 0.5, 4, I == 2 ? 1 : 0,
                        I == 3 ? 2 : 0));
  std::vector<uint32_t> Outside;
  for (uint32_t I = 0; I != 20; ++I)
    Outside.push_back(H.fn(format("out%02u", I), 0.125, 0.5, 1, 0, 1));
  uint32_t Leaf = H.fn("leaf", 0.5, 0.0, 5);
  for (uint32_t I = 0; I != 5; ++I) {
    H.arc(Ring[I], Ring[(I + 1) % 5], 3, 0.0, 0.0);
    H.arc(Ring[I], Leaf, 1, 0.1, 0.0);
  }
  H.arc(Ring[2], Ring[2], 1, 0.0, 0.0);
  for (uint32_t I = 0; I != 20; ++I)
    H.arc(Outside[I], Ring[I % 5], 1, 0.25, 0.125);
  H.arc(Main, Ring[0], 2, 1.0, 0.5);
  H.arc(Main, Ring[0], 1, 1.0, 0.5); // A second call site of the same arc.
  H.cycle({Ring[3], Ring[0], Ring[4], Ring[1], Ring[2]}, 5.0, 2.5, 23, 16);
  expectSameListings(H.finish(), "tied cycle parents");
}

TEST(PrinterOracleTest, EmptyReport) {
  HandReport H;
  expectSameListings(H.finish(), "empty");
}

} // namespace
