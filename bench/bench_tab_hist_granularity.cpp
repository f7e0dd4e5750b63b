//===- bench/bench_tab_hist_granularity.cpp - E13: histogram granularity --===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Retrospective: "The space for the histogram could be controlled by
/// getting a finer or coarser histogram. ... One of us remembers an
/// epiphany of being able to use a histogram array that was four times
/// the size of the text segment of the program, getting a full 32-bit
/// count for each possible program counter value!"
///
/// This bench sweeps the histogram bucket size on a fixed workload and
/// reports, for each: memory used by the histogram, and the attribution
/// error caused by buckets straddling routine boundaries (the samples the
/// analyzer must prorate).  Bucket size 1 is the epiphany: exact
/// attribution at maximal space.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analyzer.h"
#include "runtime/Monitor.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

using namespace gprof;
using namespace gprof::bench;

namespace {

/// Many small routines back to back, so bucket straddling matters.
std::string makeWorkloadSource() {
  std::string Src;
  for (int I = 0; I != 24; ++I)
    Src += format(R"(
      fn tiny%d(x) { return x * %d + %d; }
    )",
                  I, I + 2, I);
  Src += R"(
    fn main() {
      var acc = 0;
      var i = 0;
      while (i < 4000) {
  )";
  for (int I = 0; I != 24; ++I)
    Src += format("      acc = acc + tiny%d(i);\n", I);
  Src += R"(
        i = i + 1;
      }
      return acc;
    }
  )";
  return Src;
}

std::map<std::string, double> selfTimesAt(const Image &Img,
                                          uint64_t BucketSize,
                                          size_t &HistBytes) {
  MonitorOptions MO;
  MO.HistBucketSize = BucketSize;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 53;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  ProfileData Data = Mon.finish();
  HistBytes = Data.Hist.numBuckets() * sizeof(uint64_t);
  ProfileReport R = cantFail(analyzeImageProfile(Img, Data));
  std::map<std::string, double> Times;
  for (const FunctionEntry &F : R.Functions)
    Times[F.Name] = F.SelfTime;
  return Times;
}

} // namespace

int main() {
  banner("E13 (retrospective)",
         "histogram granularity: space vs attribution precision");

  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(makeWorkloadSource(), CG);
  std::printf("\ntext segment: %zu bytes, %zu routines\n\n",
              Img.Code.size(), Img.Functions.size());

  size_t ExactBytes = 0;
  auto Exact = selfTimesAt(Img, 1, ExactBytes);
  double Total = 0;
  for (const auto &[Name, T] : Exact)
    Total += T;

  row({"bucket size", "hist KiB", "max error", "mean error"}, 13);
  std::map<uint64_t, double> MaxErr;
  size_t BytesAt1 = 0, BytesAt64 = 0;
  for (uint64_t Bucket : {1ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
    size_t Bytes = 0;
    auto Times = selfTimesAt(Img, Bucket, Bytes);
    double Max = 0, Sum = 0;
    for (const auto &[Name, T] : Exact) {
      double Err = std::fabs(Times[Name] - T) / (Total > 0 ? Total : 1);
      Max = std::max(Max, Err);
      Sum += Err;
    }
    MaxErr[Bucket] = Max;
    if (Bucket == 1)
      BytesAt1 = Bytes;
    if (Bucket == 64)
      BytesAt64 = Bytes;
    row({format("%llu", (unsigned long long)Bucket),
         format("%.1f", static_cast<double>(Bytes) / 1024.0),
         formatPercent(Max, 1.0) + "%",
         formatPercent(Sum / Exact.size(), 1.0) + "%"},
        13);
  }

  std::printf("\nchecks against the paper:\n");
  bool Ok = true;
  Ok &= check(MaxErr[1] == 0.0,
              "bucket size 1 (the epiphany) attributes every sample "
              "exactly");
  Ok &= check(MaxErr[256] > MaxErr[4],
              "coarser histograms smear time across routine boundaries");
  Ok &= check(BytesAt64 * 32 <= BytesAt1,
              "coarser histograms cost proportionally less space");
  Ok &= check(MaxErr[4] < 0.02,
              "modest coarsening keeps attribution within 2% — the "
              "practical \"finer or coarser\" dial");
  return Ok ? 0 : 1;
}
