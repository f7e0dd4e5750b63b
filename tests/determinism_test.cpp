//===- tests/determinism_test.cpp - The analyzer pinned bit for bit -------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the §4 analyzer's output across commits: SHA-256 digests of the
/// listings, and of the exact bit patterns of every propagated quantity,
/// for large synthetic profiles that combine deep cycles, histogram
/// buckets straddling routine boundaries, address gaps and spontaneous
/// callers at scale.  The digests were recorded from the analyzer as it
/// stood when its parallel stages were removed, so any change to a
/// floating-point expression, its operand order or a reduction order
/// shows up here.  The golden suite pins the corpus programs' listings;
/// these cover the shapes the corpus is too small to reach.
///
/// On a mismatch the rendered text is written to a temp file (the path is
/// in the failure message) so it can be diffed against a known-good build.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

using namespace gprof;

namespace {

/// A synthetic profile with irregular routine sizes (so fixed-size
/// histogram buckets straddle routine boundaries and address gaps leave
/// unattributed samples), rings of mutual recursion up to 40 deep, self
/// calls, spontaneous activations from outside the text range, and
/// static-only arcs.
struct BigProfile {
  SymbolTable Syms;
  ProfileData Data;
  std::vector<StaticArc> StaticArcs;
};

BigProfile makeBigProfile(uint32_t NumFns, uint64_t Seed) {
  BigProfile P;
  SplitMix64 Rng(Seed);
  std::vector<Address> Entry(NumFns);
  std::vector<uint64_t> Size(NumFns);
  Address Addr = 0x1000;
  for (uint32_t I = 0; I != NumFns; ++I) {
    Entry[I] = Addr;
    Size[I] = 24 + Rng.nextBelow(120); // Rarely a bucket multiple.
    P.Syms.addSymbol("fn" + std::to_string(I), Addr, Size[I]);
    Addr += Size[I];
    if (Rng.nextBelow(8) == 0)
      Addr += 16 + Rng.nextBelow(48); // Gap: samples here attach to no one.
  }
  cantFail(P.Syms.finalize());
  const Address HighPc = Addr;

  auto Site = [&](uint32_t Fn, uint64_t K) { return Entry[Fn] + 5 + K; };

  P.Data.TicksPerSecond = 100;
  // Forward calls (the acyclic bulk of the graph).
  for (uint32_t I = 0; I + 1 < NumFns; ++I)
    for (uint64_t J = 0; J != 3; ++J) {
      uint32_t To = I + 1 + static_cast<uint32_t>(Rng.nextBelow(
                                std::min<uint64_t>(NumFns - I - 1, 97)));
      P.Data.Arcs.push_back({Site(I, J), Entry[To], 1 + Rng.nextBelow(50)});
    }
  // Deep cycles: a ring of 2..40 routines every 60 ids.
  for (uint32_t Lo = 0; Lo + 41 < NumFns; Lo += 60) {
    uint32_t Len = 2 + static_cast<uint32_t>(Rng.nextBelow(39));
    for (uint32_t I = 0; I != Len; ++I)
      P.Data.Arcs.push_back({Site(Lo + I, 3),
                             Entry[Lo + (I + 1) % Len],
                             1 + Rng.nextBelow(9)});
  }
  // Self calls and spontaneous activations (call sites outside the text).
  for (uint32_t I = 0; I < NumFns; I += 17)
    P.Data.Arcs.push_back({Site(I, 4), Entry[I], 1 + Rng.nextBelow(5)});
  for (uint32_t I = 0; I < NumFns; I += 23)
    P.Data.Arcs.push_back({I % 2 ? Address(0) : HighPc + I,
                           Entry[I], 1 + Rng.nextBelow(3)});
  // Static-only arcs, some to otherwise-unused routines.
  for (uint32_t I = 0; I + 7 < NumFns; I += 13)
    P.StaticArcs.push_back({Site(I, 6), Entry[I + 7]});

  // Samples: mostly inside routines, some in the gaps, bucket size 64 so
  // most routines straddle a bucket boundary.
  Histogram H(0x1000, HighPc, 64);
  for (uint32_t I = 0; I != NumFns * 12; ++I)
    H.recordPc(0x1000 + Rng.nextBelow(HighPc - 0x1000));
  P.Data.Hist = std::move(H);
  return P;
}

std::string renderListings(const ProfileReport &R) {
  return printFlatProfile(R) + "\n" + printCallGraph(R);
}

/// Every propagated quantity of \p R, one line per entry, doubles as
/// their exact bit patterns.
std::string renderInternals(const ProfileReport &R) {
  auto Bits = [](double V) {
    return format("%016llx",
                  static_cast<unsigned long long>(std::bit_cast<uint64_t>(V)));
  };
  std::string Out;
  for (size_t I = 0; I != R.Functions.size(); ++I) {
    const FunctionEntry &F = R.Functions[I];
    Out += format("fn %zu self %s child %s calls %llu listing %u\n", I,
                  Bits(F.SelfTime).c_str(), Bits(F.ChildTime).c_str(),
                  static_cast<unsigned long long>(F.Calls), F.ListingIndex);
  }
  for (const CycleEntry &C : R.Cycles) {
    Out += format("cycle %u self %s child %s external %llu internal %llu "
                  "listing %u members",
                  C.Number, Bits(C.SelfTime).c_str(), Bits(C.ChildTime).c_str(),
                  static_cast<unsigned long long>(C.ExternalCalls),
                  static_cast<unsigned long long>(C.InternalCalls),
                  C.ListingIndex);
    for (uint32_t M : C.Members)
      Out += format(" %u", M);
    Out += "\n";
  }
  for (const ReportArc &A : R.Arcs)
    Out += format("arc %u %u count %llu propself %s propchild %s\n", A.Parent,
                  A.Child, static_cast<unsigned long long>(A.Count),
                  Bits(A.PropSelf).c_str(), Bits(A.PropChild).c_str());
  Out += format("total %s unattributed %s\n", Bits(R.TotalTime).c_str(),
                Bits(R.UnattributedTime).c_str());
  return Out;
}

/// Expects \p Text to hash to \p ExpectedHex; on a mismatch, saves the
/// text as \p Name under the test temp directory for diffing.
void expectDigest(const std::string &Text, const std::string &ExpectedHex,
                  const std::string &Name) {
  std::string Actual = digestToHex(Sha256::hash(
      reinterpret_cast<const uint8_t *>(Text.data()), Text.size()));
  if (Actual == ExpectedHex)
    return;
  std::string Path = testing::TempDir() + Name;
  Error E = writeFileText(Path, Text);
  ADD_FAILURE() << Name << " digest " << Actual << ", expected "
                << ExpectedHex << "; "
                << (E ? "could not save it: " + E.message()
                      : "saved to " + Path);
}

TEST(DeterminismTest, LargeSyntheticProfile) {
  BigProfile P = makeBigProfile(3000, /*Seed=*/0xfeed);
  ProfileReport R = cantFail(Analyzer(P.Syms).analyze(P.Data));
  expectDigest(renderListings(R),
               "1203b65874cb03a893ec62a22d07a0fcda12391e104e08084d31a823200bdf0e",
               "feed_3000_listings.txt");
}

TEST(DeterminismTest, LargeSyntheticWithStaticArcsAndCycleBreaking) {
  BigProfile P = makeBigProfile(1500, /*Seed=*/0xbeef);
  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  Opts.AutoBreakCycleBound = 3;
  Opts.ExcludeTimeOf = {"fn10"};
  Analyzer An(P.Syms, Opts);
  An.setStaticArcs(P.StaticArcs);
  ProfileReport R = cantFail(An.analyze(P.Data));
  expectDigest(renderListings(R),
               "84c0624654423eaf166965253bbc78829c910fb9fa205d2f683596a99c3c88c4",
               "beef_1500_listings.txt");
}

TEST(DeterminismTest, ReportInternalsMatchRecordedBits) {
  // Beyond the listings, which round to two decimals: every propagated
  // time, cycle aggregate and listing index, bit for bit.
  BigProfile P = makeBigProfile(800, /*Seed=*/0xabcd);
  ProfileReport R = cantFail(Analyzer(P.Syms).analyze(P.Data));
  expectDigest(renderInternals(R),
               "06c3d11408330f77d963ab93151ba3d30edf73eab34119b2c2a1d10f191ea759",
               "abcd_800_internals.txt");
}

} // namespace
