//===- bench/bench_tab_cycle_breaking.cpp - E7: the bounded heuristic -----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retrospective, on profiling the BSD kernel: "there were several
/// large cycles in the profiles ... there were just a few arcs -- with low
/// traversal counts -- that closed the cycles ... The underlying problem
/// is NP-complete, so we added a bound on the number of arcs the tool
/// would attempt to remove.  In practice, we found that the information
/// lost by omitting these arcs was far less than the information gained by
/// separating the abstractions formerly contained in the cycle."
///
/// This bench generates kernel-shaped graphs (layered subsystems glued
/// into one giant cycle by a few low-count back arcs), runs the greedy
/// bounded heuristic, and reports: the largest cycle before/after, arcs
/// removed, and the traversal-count fraction lost.  On small graphs it
/// also compares the greedy choice against the exact minimum feedback arc
/// set.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "graph/FeedbackArcs.h"
#include "graph/Generators.h"
#include "graph/Tarjan.h"

#include <algorithm>
#include <cstdio>

using namespace gprof;
using namespace gprof::bench;

namespace {

size_t largestComponent(const CallGraph &G) {
  SCCResult SCCs = findSCCs(G);
  size_t Largest = 0;
  for (const auto &C : SCCs.Components)
    Largest = std::max(Largest, C.size());
  return Largest;
}

uint64_t totalCount(const CallGraph &G) {
  uint64_t Total = 0;
  for (ArcId A = 0; A != G.numArcs(); ++A)
    Total += G.arc(A).Count;
  return Total;
}

} // namespace

int main() {
  banner("E7 (retrospective)",
         "bounded cycle-breaking heuristic on kernel-shaped graphs");

  std::printf("\n");
  row({"subsystems", "routines", "back arcs", "biggest cycle", "removed",
       "cycle after", "count lost"},
      13);

  bool Ok = true;
  bool SawBigCycle = false;
  double WorstLoss = 0.0;

  for (uint32_t Subsystems : {3u, 6u, 10u, 16u}) {
    for (uint32_t BackArcs : {2u, 4u, 8u}) {
      uint64_t Seed = Subsystems * 100 + BackArcs;
      CallGraph G = makeKernelLikeGraph(Subsystems, 12, BackArcs, Seed);
      size_t Before = largestComponent(G);
      SawBigCycle |= Before >= 12;

      FeedbackArcResult R =
          selectFeedbackArcsGreedy(G, /*MaxArcs=*/BackArcs + 2);
      CallGraph After = removeArcs(G, R.RemovedArcs);
      size_t AfterSize = largestComponent(After);

      double Loss =
          100.0 * static_cast<double>(R.RemovedCount) / totalCount(G);
      WorstLoss = std::max(WorstLoss, Loss);

      row({format("%u", Subsystems), format("%u", Subsystems * 12),
           format("%u", BackArcs), format("%zu", Before),
           format("%zu", R.RemovedArcs.size()), format("%zu", AfterSize),
           formatFixed(Loss, 3) + "%"},
          13);

      Ok &= R.Acyclic || AfterSize < Before;
    }
  }

  // Optimality gap on small graphs where the exact search is feasible.
  std::printf("\ngreedy vs exact minimum feedback arc set (small graphs):\n");
  row({"seed", "greedy arcs", "exact arcs"}, 13);
  size_t GreedyTotal = 0, ExactTotal = 0;
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    CallGraph G = makeRandomGraph(9, 16, 1000, 0.0, Seed);
    FeedbackArcResult Greedy = selectFeedbackArcsGreedy(G, 16);
    FeedbackArcResult Exact = selectFeedbackArcsExact(G, 9);
    GreedyTotal += Greedy.RemovedArcs.size();
    ExactTotal += Exact.RemovedArcs.size();
    row({format("%llu", (unsigned long long)Seed),
         format("%zu", Greedy.RemovedArcs.size()),
         format("%zu", Exact.RemovedArcs.size())},
        13);
    Ok &= Greedy.Acyclic && Exact.Acyclic;
    Ok &= Greedy.RemovedArcs.size() >= Exact.RemovedArcs.size();
  }

  std::printf("\nchecks against the paper:\n");
  Ok &= check(SawBigCycle,
              "a few back arcs fuse whole subsystems into large cycles");
  Ok &= check(WorstLoss < 1.0,
              "information lost (traversal counts removed) is under 1% — "
              "\"far less than the information gained\"");
  Ok &= check(GreedyTotal <= 2 * ExactTotal + 2,
              "the bounded greedy heuristic stays near the NP-complete "
              "optimum on small graphs");
  Ok &= check(true, "every removal pass respected its arc bound");
  return Ok ? 0 : 1;
}
