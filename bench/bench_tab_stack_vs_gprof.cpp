//===- bench/bench_tab_stack_vs_gprof.cpp - E11: the averaging pitfall ----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper is candid about its central approximation (§4 and the
/// retrospective): "we derive an average time per call that need not
/// reflect reality, e.g., if some calls take longer than others.  Further,
/// when attributing time spent in called functions to their callers, we
/// have only single arcs in the call graph, and so distribute the 'average
/// time' to callers in proportion to how many times they called the
/// function."  And: "Modern profilers solve both these problems by
/// periodically gathering ... complete call stacks."
///
/// This ablation constructs the adversarial case — one routine whose cost
/// depends strongly on its argument, called many times cheaply by one
/// caller and a few times expensively by another — and compares:
///
///  - gprof's propagation (time split by call counts),
///  - the calling-context tree (the complete call stacks, aggregated per
///    path: exact attribution),
///  - ground truth from a context tree sampled on every cycle.
///
/// A caller's share of process's time is the inclusive ticks of process's
/// contexts whose parent context runs that caller.  The gprof and context
/// rows come from one run: recording contexts leaves the arcs and the
/// histogram unchanged.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analyzer.h"
#include "core/ContextTree.h"
#include "runtime/Monitor.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <cmath>
#include <cstdio>

using namespace gprof;
using namespace gprof::bench;

namespace {

const char *WorkloadSource = R"(
  // process(n) costs time proportional to n: calls are NOT all equal.
  fn process(n) {
    var i = 0;
    var a = 0;
    while (i < n) { a = a + i * i; i = i + 1; }
    return a;
  }
  fn cheap_caller() {
    // 90 tiny requests.
    var i = 0;
    var a = 0;
    while (i < 90) { a = a + process(5); i = i + 1; }
    return a;
  }
  fn expensive_caller() {
    // 2 enormous requests.
    return process(3000) + process(3000);
  }
  fn main() { return cheap_caller() + expensive_caller(); }
)";

struct Attribution {
  double CheapShare = 0.0;     // Fraction of process's time given to
                               // cheap_caller.
  double ExpensiveShare = 0.0; // ... and to expensive_caller.
};

/// One profiled run with the calling-context tree recorded.
ProfileData runWithContexts(const Image &Img, uint64_t CyclesPerTick) {
  MonitorOptions MO;
  MO.RecordContexts = true;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = CyclesPerTick;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  return Mon.finish();
}

/// gprof's answer: per-arc propagated time from the analyzer.
Attribution gprofAttribution(const Image &Img, const ProfileData &Data) {
  ProfileReport R = cantFail(analyzeImageProfile(Img, Data));

  uint32_t Process = R.findFunction("process");
  uint32_t Cheap = R.findFunction("cheap_caller");
  uint32_t Expensive = R.findFunction("expensive_caller");
  double CheapTime = 0, ExpensiveTime = 0;
  for (const ReportArc &A : R.Arcs) {
    if (A.Child != Process)
      continue;
    if (A.Parent == Cheap)
      CheapTime = A.PropSelf + A.PropChild;
    if (A.Parent == Expensive)
      ExpensiveTime = A.PropSelf + A.PropChild;
  }
  double Total = CheapTime + ExpensiveTime;
  return {CheapTime / Total, ExpensiveTime / Total};
}

/// The context tree's answer: the inclusive ticks of process's contexts,
/// grouped by the routine of each context's parent.  Only maximal
/// contexts count, so a recursive callee's ticks count once.
Attribution contextAttribution(const Image &Img, const ProfileData &Data) {
  SymbolTable Syms = SymbolTable::fromImage(Img);
  ContextTree Tree = cantFail(ContextTree::build(Data, Syms));
  const uint32_t Cheap = Syms.findByName("cheap_caller");
  const uint32_t Expensive = Syms.findByName("expensive_caller");
  uint64_t CheapTicks = 0, ExpensiveTicks = 0;
  for (uint32_t I : Tree.contextsOf(Syms.findByName("process"))) {
    const ContextEntry &E = Tree.node(I);
    if (!E.Maximal || E.Parent == CctRootParent)
      continue;
    const uint32_t Caller = Tree.node(E.Parent).Routine;
    if (Caller == Cheap)
      CheapTicks += E.InclusiveTicks;
    else if (Caller == Expensive)
      ExpensiveTicks += E.InclusiveTicks;
  }
  double Total = static_cast<double>(CheapTicks + ExpensiveTicks);
  return {static_cast<double>(CheapTicks) / Total,
          static_cast<double>(ExpensiveTicks) / Total};
}

} // namespace

int main() {
  banner("E11 (ablation)",
         "call-count averaging vs complete call stacks (the paper's "
         "own pitfall)");

  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(WorkloadSource, CG);

  Attribution Truth = contextAttribution(Img, runWithContexts(Img, 1));
  ProfileData Sampled = runWithContexts(Img, 97);
  Attribution Gprof = gprofAttribution(Img, Sampled);
  Attribution Contexts = contextAttribution(Img, Sampled);

  std::printf("\nwho is responsible for process()'s time?\n"
              "(cheap_caller makes 90 tiny calls; expensive_caller makes "
              "2 huge ones)\n\n");
  row({"method", "cheap share", "expensive share"}, 20);
  row({"ground truth", formatPercent(Truth.CheapShare, 1.0) + "%",
       formatPercent(Truth.ExpensiveShare, 1.0) + "%"},
      20);
  row({"gprof (count-split)", formatPercent(Gprof.CheapShare, 1.0) + "%",
       formatPercent(Gprof.ExpensiveShare, 1.0) + "%"},
      20);
  row({"calling contexts", formatPercent(Contexts.CheapShare, 1.0) + "%",
       formatPercent(Contexts.ExpensiveShare, 1.0) + "%"},
      20);

  std::printf("\nchecks against the paper:\n");
  bool Ok = true;
  Ok &= check(Truth.ExpensiveShare > 0.80,
              "ground truth: the 2 huge calls dominate process's time");
  Ok &= check(Gprof.CheapShare > 0.90,
              "gprof distributes by call count (90/92) and so charges the "
              "cheap caller — the documented average-time pitfall");
  Ok &= check(std::fabs(Contexts.ExpensiveShare - Truth.ExpensiveShare) <
                  0.05,
              "complete call stacks attribute within 5pp of ground truth "
              "(the retrospective's 'modern profilers' fix)");
  return Ok ? 0 : 1;
}
