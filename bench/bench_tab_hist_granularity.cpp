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
/// reports, for each: memory used by the histogram, the bytes of the
/// profile file in the dense version 1 layout and in version 3 (which
/// writes only the sampled buckets), and the attribution error caused by
/// buckets straddling routine boundaries (the samples the analyzer must
/// prorate).  Bucket size 1 is the epiphany: exact attribution at maximal
/// space in memory, while on disk version 3 pays only for the pcs that
/// were sampled.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analyzer.h"
#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "tests/reference_gmon.h"
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

/// Memory and on-disk sizes of one profile.
struct Sizes {
  size_t HistBytes = 0; ///< The dense in-memory histogram.
  size_t V1Bytes = 0;   ///< The file in the dense version 1 layout.
  size_t V3Bytes = 0;   ///< The file as writeGmon writes it.
};

std::map<std::string, double> selfTimesAt(const Image &Img,
                                          uint64_t BucketSize, Sizes &Size) {
  MonitorOptions MO;
  MO.HistBucketSize = BucketSize;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 53;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  ProfileData Data = Mon.finish();
  Size.HistBytes = Data.Hist.numBuckets() * sizeof(uint64_t);
  Size.V1Bytes = writeGmonDense(Data).size();
  Size.V3Bytes = writeGmon(Data).size();
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

  Sizes ExactSizes;
  auto Exact = selfTimesAt(Img, 1, ExactSizes);
  double Total = 0;
  for (const auto &[Name, T] : Exact)
    Total += T;

  row({"bucket size", "hist KiB", "v1 file B", "v3 file B", "max error",
       "mean error"},
      13);
  std::map<uint64_t, double> MaxErr;
  size_t BytesAt1 = 0, BytesAt64 = 0;
  bool SparseSmaller = true;
  for (uint64_t Bucket : {1ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
    Sizes Size;
    auto Times = selfTimesAt(Img, Bucket, Size);
    const size_t Bytes = Size.HistBytes;
    SparseSmaller &= Size.V3Bytes < Size.V1Bytes;
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
         format("%zu", Size.V1Bytes), format("%zu", Size.V3Bytes),
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
  Ok &= check(SparseSmaller,
              "the version 3 file is smaller than the dense version 1 file "
              "at every bucket size");
  Ok &= check(MaxErr[4] < 0.02,
              "modest coarsening keeps attribution within 2% — the "
              "practical \"finer or coarser\" dial");
  return Ok ? 0 : 1;
}
