//===- bench/bench_tab_overhead.cpp - E4: the 5-30% overhead claim --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §7: profiling "adds only five to thirty percent execution
/// overhead to the program being profiled".  This bench runs a workload
/// suite three ways — uninstrumented, histogram sampling only, and full
/// profiling (mcount arcs + histogram) — and reports the overhead in two
/// currencies:
///
///  - virtual cycles (deterministic; the Mcount prologue costs cycles just
///    as the real monitoring routine cost VAX instructions), and
///  - host wall-clock time of the interpreter (the monitoring routine and
///    tick handling do real hash-table and histogram work).
///
/// The claims checked: call-dominated code sits near the top of the band,
/// loop-dominated code near the bottom, and sampling alone is nearly free
/// ("incrementing the appropriate bucket ... had an almost negligible
/// overhead", retrospective).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "runtime/Monitor.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace gprof;
using namespace gprof::bench;

namespace {

struct Workload {
  const char *Name;
  const char *Source;
};

const Workload Workloads[] = {
    {"fib (call-heavy)", R"(
      fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
      fn main() { return fib(21); }
    )"},
    {"loop (compute)", R"(
      fn main() {
        var acc = 0;
        var i = 0;
        while (i < 300000) { acc = acc + i * 3 - (i / 7); i = i + 1; }
        return acc;
      }
    )"},
    {"calls (tiny leaf)", R"(
      fn leaf(x) { return x + 1; }
      fn main() {
        var acc = 0;
        var i = 0;
        while (i < 100000) { acc = leaf(acc); i = i + 1; }
        return acc;
      }
    )"},
    {"layers (abstraction)", R"(
      fn level3(x) { return x * 2 + 1; }
      fn level2(x) { return level3(x) + level3(x + 1); }
      fn level1(x) { return level2(x) + level2(x + 2); }
      fn main() {
        var acc = 0;
        var i = 0;
        while (i < 20000) { acc = acc + level1(i); i = i + 1; }
        return acc;
      }
    )"},
    {"divides (slow ops)", R"(
      fn ratio(a, b) { return (a * 1000) / (b + 1); }
      fn main() {
        var acc = 0;
        var i = 1;
        while (i < 50000) { acc = acc + ratio(acc % 97, i); i = i + 1; }
        return acc;
      }
    )"},
};

struct Measurement {
  uint64_t Cycles = 0;
  double WallMs = 0.0;
  int64_t ExitValue = 0;
};

/// Runs \p Img with optional monitoring and measures it.
Measurement measure(const Image &Img, bool WithMonitor, bool Arcs,
                    bool Hist) {
  Measurement M;
  auto Once = [&]() {
    VM Machine(Img);
    std::unique_ptr<Monitor> Mon;
    if (WithMonitor) {
      MonitorOptions MO;
      MO.RecordArcs = Arcs;
      MO.SampleHistogram = Hist;
      Mon = std::make_unique<Monitor>(Img.lowPc(), Img.highPc(), MO);
      Machine.setHooks(Mon.get());
    }
    RunResult R = cantFail(Machine.run());
    M.Cycles = R.Cycles;
    M.ExitValue = R.ExitValue;
  };
  M.WallMs = timeMs(Once, /*Reps=*/3);
  return M;
}

std::string pct(double Base, double Measured) {
  return formatFixed(100.0 * (Measured - Base) / Base, 1) + "%";
}

} // namespace

int main() {
  banner("E4 (section 7 claim)",
         "\"adds only five to thirty percent execution overhead\"");

  std::printf("\n");
  row({"workload", "base cyc", "hist cyc ovh", "full cyc ovh", "base ms",
       "hist ms ovh", "full ms ovh"},
      14);

  double MaxFullCycleOvh = 0.0;
  double MinFullCycleOvhCallHeavy = 1e9;
  bool ResultsMatch = true;
  double LoopFullCycleOvh = 0.0;

  for (const Workload &W : Workloads) {
    Image Plain = compileTLOrDie(W.Source);
    CodeGenOptions CG;
    CG.EnableProfiling = true;
    Image Profiled = compileTLOrDie(W.Source, CG);

    Measurement Base = measure(Plain, false, false, false);
    Measurement Hist = measure(Profiled, true, /*Arcs=*/false,
                               /*Hist=*/true);
    Measurement Full = measure(Profiled, true, /*Arcs=*/true,
                               /*Hist=*/true);

    ResultsMatch &= Base.ExitValue == Hist.ExitValue &&
                    Base.ExitValue == Full.ExitValue;

    double FullCycleOvh =
        100.0 * (static_cast<double>(Full.Cycles) - Base.Cycles) /
        Base.Cycles;
    MaxFullCycleOvh = std::max(MaxFullCycleOvh, FullCycleOvh);
    if (std::string(W.Name).find("call") != std::string::npos)
      MinFullCycleOvhCallHeavy =
          std::min(MinFullCycleOvhCallHeavy, FullCycleOvh);
    if (std::string(W.Name).find("loop") != std::string::npos)
      LoopFullCycleOvh = FullCycleOvh;

    row({W.Name, format("%llu", (unsigned long long)Base.Cycles),
         pct(Base.Cycles, Hist.Cycles), pct(Base.Cycles, Full.Cycles),
         formatFixed(Base.WallMs, 2), pct(Base.WallMs, Hist.WallMs),
         pct(Base.WallMs, Full.WallMs)},
        14);
  }

  std::printf("\nchecks against the paper:\n");
  bool Ok = true;
  Ok &= check(ResultsMatch,
              "profiling never changes program results");
  Ok &= check(MaxFullCycleOvh <= 35.0,
              "full profiling overhead stays within ~the 5-30% band "
              "(<=35% even for the call-heaviest microworkload)");
  Ok &= check(MinFullCycleOvhCallHeavy >= 5.0,
              "call-heavy code pays at least the bottom of the band (>=5%)");
  Ok &= check(LoopFullCycleOvh < 5.0,
              "loop-dominated code pays almost nothing (routines not "
              "entered are not charged)");
  return Ok ? 0 : 1;
}
