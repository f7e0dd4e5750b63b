//===- perfbench/src/Programs.cpp - Seeded benchmark inputs ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "store/MergeEngine.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

using namespace gprof;

namespace perfbench {

namespace {

// Every value stays in [0, Mod) and every product below 2^40, so TL's
// wrapping int64 arithmetic and the evaluator's agree without overflow.
constexpr int64_t Mod = 1000003;
constexpr uint32_t NumLeaves = 200, NumMids = 100, NumDispatch = 50,
                   NumTops = 16, NumCycle = 8;
constexpr int64_t LeafRounds = 2;

struct Leaf {
  int64_t Rounds, Mul, Add;
};
struct Mid {
  uint32_t A, B;
  int64_t Add;
};
struct Dispatch {
  uint32_t Callee[3];
  int64_t Add;
};
struct CycleMember {
  uint32_t Leaf;
  int64_t Add;
};
struct Top {
  uint32_t Disp[4];
  int64_t Add;
};

/// The callgraph program as data: the TL emitter and the evaluator both
/// read it, so the expected output never comes from the VM.
struct CallgraphModel {
  std::vector<Leaf> Leaves;
  std::vector<Mid> Mids;
  std::vector<Dispatch> Dispatchers;
  std::vector<CycleMember> Cycle;
  std::vector<Top> Tops;

  uint64_t Calls = 0;

  int64_t leaf(uint32_t I, int64_t X) {
    ++Calls;
    const Leaf &L = Leaves[I];
    int64_t S = X;
    for (int64_t K = 0; K < L.Rounds; ++K)
      S = (S * L.Mul + L.Add) % Mod;
    return S;
  }
  int64_t mid(uint32_t I, int64_t X) {
    ++Calls;
    const Mid &M = Mids[I];
    int64_t A = leaf(M.A, X);
    return (A + leaf(M.B, (X + M.Add) % Mod)) % Mod;
  }
  int64_t dispatch(uint32_t I, int64_t X) {
    ++Calls;
    const Dispatch &D = Dispatchers[I];
    return (mid(D.Callee[X % 3], X) + D.Add) % Mod;
  }
  int64_t cycle(uint32_t J, int64_t N, int64_t X) {
    ++Calls;
    if (N <= 0)
      return leaf(Cycle[J].Leaf, X);
    return cycle((J + 1) % NumCycle, N - 1, (X + Cycle[J].Add) % Mod);
  }
  int64_t top(uint32_t T, int64_t X) {
    ++Calls;
    const Top &P = Tops[T];
    int64_t A = dispatch(P.Disp[0], X);
    int64_t B = dispatch(P.Disp[1], (A + P.Add) % Mod);
    int64_t C = dispatch(P.Disp[2], (B + X) % Mod);
    int64_t D = dispatch(P.Disp[3], (C * 7) % Mod);
    return (A + B + C + D + cycle(T % NumCycle, X % 8, D)) % Mod;
  }
};

std::vector<uint32_t> permutation(uint32_t N, SplitMix64 &Rng) {
  std::vector<uint32_t> P(N);
  std::iota(P.begin(), P.end(), 0u);
  for (uint32_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[Rng.nextBelow(I)]);
  return P;
}

} // namespace

GeneratedProgram makeCallgraphProgram(uint64_t Seed, uint32_t Iterations) {
  if (Iterations >= Mod)
    throw std::invalid_argument("callgraph iterations must stay below the "
                                "modulus");
  SplitMix64 Rng(Seed ^ 0xC0FFEE1234ull);
  CallgraphModel M;
  // Every leaf loops the same number of rounds, so the seed changes the
  // values computed but not the work done: run time is seed-independent.
  for (uint32_t I = 0; I != NumLeaves; ++I)
    M.Leaves.push_back({LeafRounds, int64_t(2 + Rng.nextBelow(96)),
                        int64_t(1 + Rng.nextBelow(1000))});
  // Permutations guarantee every routine of a layer has a caller above it.
  std::vector<uint32_t> LeafOrder = permutation(NumLeaves, Rng);
  for (uint32_t I = 0; I != NumMids; ++I)
    M.Mids.push_back({LeafOrder[2 * I], LeafOrder[2 * I + 1],
                      int64_t(1 + Rng.nextBelow(Mod - 1))});
  std::vector<uint32_t> MidOrder = permutation(NumMids, Rng);
  for (uint32_t I = 0; I != NumDispatch; ++I)
    M.Dispatchers.push_back({{MidOrder[(3 * I) % NumMids],
                              MidOrder[(3 * I + 1) % NumMids],
                              MidOrder[(3 * I + 2) % NumMids]},
                             int64_t(1 + Rng.nextBelow(Mod - 1))});
  for (uint32_t I = 0; I != NumCycle; ++I)
    M.Cycle.push_back({uint32_t(Rng.nextBelow(NumLeaves)),
                       int64_t(1 + Rng.nextBelow(Mod - 1))});
  std::vector<uint32_t> DispOrder = permutation(NumDispatch, Rng);
  for (uint32_t I = 0; I != NumTops; ++I)
    M.Tops.push_back({{DispOrder[(4 * I) % NumDispatch],
                       DispOrder[(4 * I + 1) % NumDispatch],
                       DispOrder[(4 * I + 2) % NumDispatch],
                       DispOrder[(4 * I + 3) % NumDispatch]},
                      int64_t(1 + Rng.nextBelow(Mod - 1))});

  std::string S;
  S.reserve(64 * 1024);
  for (uint32_t I = 0; I != NumLeaves; ++I) {
    const Leaf &L = M.Leaves[I];
    S += format("fn leaf%u(x) { var s = x; var k = 0; while (k < %lld) { "
                "s = (s * %lld + %lld) %% %lld; k = k + 1; } return s; }\n",
                I, (long long)L.Rounds, (long long)L.Mul, (long long)L.Add,
                (long long)Mod);
  }
  for (uint32_t I = 0; I != NumMids; ++I) {
    const Mid &D = M.Mids[I];
    S += format("fn mid%u(x) { return (leaf%u(x) + leaf%u((x + %lld) %% "
                "%lld)) %% %lld; }\n",
                I, D.A, D.B, (long long)D.Add, (long long)Mod,
                (long long)Mod);
  }
  for (uint32_t I = 0; I != NumDispatch; ++I) {
    const Dispatch &D = M.Dispatchers[I];
    S += format("fn disp%u(x) { var f = &mid%u; if (x %% 3 == 1) { f = "
                "&mid%u; } if (x %% 3 == 2) { f = &mid%u; } return (f(x) + "
                "%lld) %% %lld; }\n",
                I, D.Callee[0], D.Callee[1], D.Callee[2], (long long)D.Add,
                (long long)Mod);
  }
  for (uint32_t I = 0; I != NumCycle; ++I) {
    const CycleMember &C = M.Cycle[I];
    S += format("fn cyc%u(n, x) { if (n <= 0) { return leaf%u(x); } return "
                "cyc%u(n - 1, (x + %lld) %% %lld); }\n",
                I, C.Leaf, (I + 1) % NumCycle, (long long)C.Add,
                (long long)Mod);
  }
  for (uint32_t I = 0; I != NumTops; ++I) {
    const Top &T = M.Tops[I];
    S += format("fn top%u(x) { var a = disp%u(x); var b = disp%u((a + %lld) "
                "%% %lld); var c = disp%u((b + x) %% %lld); var d = "
                "disp%u((c * 7) %% %lld); return (a + b + c + d + cyc%u(x %% "
                "8, d)) %% %lld; }\n",
                I, T.Disp[0], T.Disp[1], (long long)T.Add, (long long)Mod,
                T.Disp[2], (long long)Mod, T.Disp[3], (long long)Mod,
                I % NumCycle, (long long)Mod);
  }
  S += "fn main() {\n";
  for (uint32_t I = 0; I != NumTops; ++I)
    S += format("  poke(%u, &top%u);\n", I, I);
  S += format("  var acc = 0; var i = 0;\n"
              "  while (i < %u) { var f = peek(i %% %u); acc = (acc * 31 + "
              "f(i)) %% %lld; i = i + 1; }\n"
              "  print acc;\n  return 0;\n}\n",
              Iterations, NumTops, (long long)Mod);

  GeneratedProgram P;
  P.Source = std::move(S);
  int64_t Acc = 0;
  for (uint32_t I = 0; I != Iterations; ++I)
    Acc = (Acc * 31 + M.top(I % NumTops, I)) % Mod;
  P.ExpectedPrint = Acc;
  P.ExpectedCalls = M.Calls + 1; // + main's spontaneous activation
  P.Routines = NumLeaves + NumMids + NumDispatch + NumCycle + NumTops + 1;
  return P;
}

uint64_t cyclesPerTick(uint64_t Seed, uint64_t Run) {
  SplitMix64 Rng(Seed * 0xBF58476D1CE4E5B9ull + Run * 0x94D049BB133111EBull +
                 3);
  return 9900 + Rng.nextBelow(200);
}

ProfileData makeShard(const ProfileData &Base, uint64_t Seed, uint64_t Index) {
  SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ull + Index * 0xD1B54A32D192ED03ull +
                 1);
  ProfileData D;
  D.TicksPerSecond = Base.TicksPerSecond;
  D.Hist = Base.Hist;
  D.Arcs = Base.Arcs;
  for (ArcRecord &A : D.Arcs)
    A.Count += Rng.nextBelow(A.Count / 4 + 2);
  for (size_t I = 0, E = D.Hist.numBuckets(); I != E; ++I)
    if (uint64_t C = D.Hist.bucketCount(I))
      D.Hist.setBucketCount(I, C + Rng.nextBelow(3));
  canonicalizeProfile(D);
  return D;
}

} // namespace perfbench
