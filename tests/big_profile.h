//===- tests/big_profile.h - Large synthetic profiles for tests -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The large synthetic profile the determinism digests and the printer
/// oracle run on: shapes the TL corpus is too small to reach.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_BIG_PROFILE_H
#define GPROF_TESTS_BIG_PROFILE_H

#include "core/SymbolTable.h"
#include "gmon/ProfileData.h"
#include "support/Random.h"
#include "vm/StaticCallScanner.h"

#include <algorithm>
#include <string>
#include <vector>

namespace gprof {

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

inline BigProfile makeBigProfile(uint32_t NumFns, uint64_t Seed) {
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

} // namespace gprof

#endif // GPROF_TESTS_BIG_PROFILE_H
