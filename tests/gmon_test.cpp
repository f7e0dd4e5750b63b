//===- tests/gmon_test.cpp - Unit tests for the profile data model --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "gmon_edge_profiles.h"
#include "reference_gmon.h"

#include "gmon/GmonFile.h"
#include "gmon/Histogram.h"
#include "gmon/ProfileData.h"
#include "support/Format.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace gprof;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketGeometry) {
  Histogram H(100, 200, 10);
  EXPECT_EQ(H.numBuckets(), 10u);
  EXPECT_EQ(H.bucketStart(0), 100u);
  EXPECT_EQ(H.bucketEnd(0), 110u);
  EXPECT_EQ(H.bucketStart(9), 190u);
  EXPECT_EQ(H.bucketEnd(9), 200u);
}

TEST(HistogramTest, PartialFinalBucket) {
  Histogram H(0, 25, 10);
  EXPECT_EQ(H.numBuckets(), 3u);
  EXPECT_EQ(H.bucketEnd(2), 25u); // Clamped.
}

TEST(HistogramTest, RecordInRange) {
  Histogram H(100, 200, 10);
  H.recordPc(100);
  H.recordPc(109);
  H.recordPc(110);
  H.recordPc(199);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(9), 1u);
  EXPECT_EQ(H.totalSamples(), 4u);
  EXPECT_EQ(H.outOfRangeSamples(), 0u);
}

TEST(HistogramTest, OutOfRangeCountedSeparately) {
  Histogram H(100, 200, 10);
  H.recordPc(99);
  H.recordPc(200);
  H.recordPc(5000);
  EXPECT_EQ(H.totalSamples(), 0u);
  EXPECT_EQ(H.outOfRangeSamples(), 3u);
}

TEST(HistogramTest, OneToOneGranularity) {
  // The retrospective's epiphany: bucket size 1 gives a full count per PC.
  Histogram H(0, 100, 1);
  EXPECT_EQ(H.numBuckets(), 100u);
  for (int I = 0; I != 5; ++I)
    H.recordPc(42);
  EXPECT_EQ(H.bucketCount(42), 5u);
}

TEST(HistogramTest, MergeAddsBuckets) {
  Histogram A(0, 100, 10), B(0, 100, 10);
  A.recordPc(5);
  B.recordPc(5);
  B.recordPc(95);
  cantFail(A.merge(B));
  EXPECT_EQ(A.bucketCount(0), 2u);
  EXPECT_EQ(A.bucketCount(9), 1u);
}

TEST(HistogramTest, MergeRejectsMismatchedRanges) {
  Histogram A(0, 100, 10), B(0, 200, 10);
  Error E = A.merge(B);
  EXPECT_TRUE(static_cast<bool>(E));
  Histogram C(0, 100, 20);
  Error E2 = A.merge(C);
  EXPECT_TRUE(static_cast<bool>(E2));
}

TEST(HistogramTest, EmptyMergesWithEmpty) {
  Histogram A, B;
  cantFail(A.merge(B));
  EXPECT_TRUE(A.empty());
}

TEST(HistogramTest, EmptySideAdoptsOtherGeometry) {
  // Regression: an empty histogram (a run with no samples) used to be
  // rejected as incompatible with a sampled sibling.
  Histogram Sampled(0, 100, 10);
  Sampled.recordPc(5);
  Sampled.recordPc(95);
  Sampled.recordPc(1000); // Out of range.

  Histogram Empty;
  cantFail(Empty.merge(Sampled));
  EXPECT_EQ(Empty.lowPc(), 0u);
  EXPECT_EQ(Empty.highPc(), 100u);
  EXPECT_EQ(Empty.bucketSize(), 10u);
  EXPECT_EQ(Empty.counts(), Sampled.counts());
  EXPECT_EQ(Empty.outOfRangeSamples(), 1u);

  // The other direction: merging an empty side changes nothing.
  Histogram Unsampled;
  Unsampled.recordPc(7); // Empty histogram: counted as out-of-range.
  cantFail(Sampled.merge(Unsampled));
  EXPECT_EQ(Sampled.totalSamples(), 2u);
  EXPECT_EQ(Sampled.outOfRangeSamples(), 2u);
}

TEST(HistogramTest, SaturatingAddClampsAtMax) {
  EXPECT_EQ(saturatingAdd(2, 3), 5u);
  EXPECT_EQ(saturatingAdd(UINT64_MAX - 1, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(0, 0), 0u);
}

TEST(HistogramTest, MergeSaturatesInsteadOfWrapping) {
  Histogram A(0, 10, 10), B(0, 10, 10);
  A.setBucketCount(0, UINT64_MAX - 1);
  B.setBucketCount(0, 5);
  cantFail(A.merge(B));
  // Regression: this used to wrap to 3 and silently restart the count.
  EXPECT_EQ(A.bucketCount(0), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// ProfileData
//===----------------------------------------------------------------------===//

TEST(ProfileDataTest, AddArcMerges) {
  ProfileData D;
  D.addArc(10, 20, 1);
  D.addArc(10, 20, 2);
  D.addArc(10, 30, 5);
  ASSERT_EQ(D.Arcs.size(), 2u);
  EXPECT_EQ(D.Arcs[0].Count, 3u);
  EXPECT_EQ(D.callsInto(20), 3u);
  EXPECT_EQ(D.callsInto(30), 5u);
  EXPECT_EQ(D.callsInto(99), 0u);
}

TEST(ProfileDataTest, MergeSumsRunsAndArcs) {
  ProfileData A, B;
  A.Hist = Histogram(0, 100, 1);
  B.Hist = Histogram(0, 100, 1);
  A.Hist.recordPc(1);
  B.Hist.recordPc(1);
  A.addArc(5, 6, 7);
  B.addArc(5, 6, 3);
  B.addArc(8, 9, 1);
  B.ArcTableOverflowed = true;
  cantFail(A.merge(B));
  EXPECT_EQ(A.RunCount, 2u);
  EXPECT_EQ(A.Hist.bucketCount(1), 2u);
  EXPECT_EQ(A.callsInto(6), 10u);
  EXPECT_EQ(A.callsInto(9), 1u);
  EXPECT_TRUE(A.ArcTableOverflowed);
}

TEST(ProfileDataTest, MergeAdoptsHistogramFromSampledSide) {
  // Regression: a run that recorded arcs but exited before the first
  // sample tick has no histogram and must still sum with a sampled run.
  ProfileData Unsampled;
  Unsampled.addArc(5, 6, 7);
  ProfileData Sampled;
  Sampled.Hist = Histogram(0, 100, 1);
  Sampled.Hist.recordPc(3);
  Sampled.addArc(5, 6, 1);

  ProfileData A = Unsampled;
  cantFail(A.merge(Sampled));
  EXPECT_EQ(A.Hist.totalSamples(), 1u);
  EXPECT_EQ(A.Hist.highPc(), 100u);
  EXPECT_EQ(A.callsInto(6), 8u);
  EXPECT_EQ(A.RunCount, 2u);

  ProfileData B = Sampled;
  cantFail(B.merge(Unsampled));
  EXPECT_EQ(B.Hist.totalSamples(), 1u);
  EXPECT_EQ(B.callsInto(6), 8u);
}

TEST(ProfileDataTest, AddArcSaturatesInsteadOfWrapping) {
  ProfileData D;
  D.addArc(1, 2, UINT64_MAX - 3);
  D.addArc(1, 2, 10);
  ASSERT_EQ(D.Arcs.size(), 1u);
  EXPECT_EQ(D.Arcs[0].Count, UINT64_MAX);
  EXPECT_EQ(D.callsInto(2), UINT64_MAX);
  // A second saturating add stays clamped.
  D.addArc(1, 2, 1);
  EXPECT_EQ(D.Arcs[0].Count, UINT64_MAX);
}

TEST(ProfileDataTest, ArcIndexSurvivesExternalMutation) {
  // The lazy index must revalidate after external code sorts or rewrites
  // the arc table directly.
  ProfileData D;
  D.addArc(30, 3, 1);
  D.addArc(20, 2, 1);
  D.addArc(10, 1, 1);
  EXPECT_EQ(D.callsInto(2), 1u); // Builds the index.
  std::sort(D.Arcs.begin(), D.Arcs.end(),
            [](const ArcRecord &A, const ArcRecord &B) {
              return A.FromPc < B.FromPc;
            });
  D.addArc(30, 3, 5); // Positional lookup detects the move and rebuilds.
  ASSERT_EQ(D.Arcs.size(), 3u);
  EXPECT_EQ(D.callsInto(3), 6u);
  EXPECT_EQ(D.callsInto(2), 1u);
  // In-place Count mutation needs the documented explicit invalidation.
  D.Arcs[0].Count = 100;
  D.invalidateArcIndex();
  EXPECT_EQ(D.callsInto(D.Arcs[0].SelfPc), 100u);
}

TEST(ProfileDataTest, AddArcIndexBeatsLinearScan) {
  // The historical addArc scanned the table linearly, making M-file
  // summing O(M·A²).  Sum the same synthetic files through a faithful
  // copy of the old scan and through the indexed addArc: identical output,
  // and the index must win by a wide margin (the acceptance bar is 10x).
  constexpr size_t Files = 20, ArcsPerFile = 4000;
  std::vector<ArcRecord> FileArcs;
  FileArcs.reserve(ArcsPerFile);
  SplitMix64 Rng(99);
  for (size_t I = 0; I != ArcsPerFile; ++I)
    FileArcs.push_back({Rng.next() | 1, Rng.next() | 1, 1 + (I % 7)});

  auto Clock = [] {
    return std::chrono::steady_clock::now();
  };

  auto LinearStart = Clock();
  std::vector<ArcRecord> Reference;
  for (size_t F = 0; F != Files; ++F)
    for (const ArcRecord &R : FileArcs) {
      bool Found = false;
      for (ArcRecord &Existing : Reference)
        if (Existing.FromPc == R.FromPc && Existing.SelfPc == R.SelfPc) {
          Existing.Count += R.Count;
          Found = true;
          break;
        }
      if (!Found)
        Reference.push_back(R);
    }
  auto LinearNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock() - LinearStart)
                      .count();

  auto IndexedStart = Clock();
  ProfileData D;
  for (size_t F = 0; F != Files; ++F)
    for (const ArcRecord &R : FileArcs)
      D.addArc(R.FromPc, R.SelfPc, R.Count);
  auto IndexedNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock() - IndexedStart)
                       .count();

  // Byte-identical result: same records in the same first-seen order.
  ASSERT_EQ(D.Arcs.size(), Reference.size());
  for (size_t I = 0; I != Reference.size(); ++I) {
    EXPECT_EQ(D.Arcs[I].FromPc, Reference[I].FromPc) << I;
    EXPECT_EQ(D.Arcs[I].SelfPc, Reference[I].SelfPc) << I;
    EXPECT_EQ(D.Arcs[I].Count, Reference[I].Count) << I;
  }
  EXPECT_GT(LinearNs, IndexedNs * 10)
      << "linear " << LinearNs << "ns vs indexed " << IndexedNs << "ns";
}

TEST(ProfileDataTest, MergeRejectsDifferentRates) {
  ProfileData A, B;
  A.TicksPerSecond = 60;
  B.TicksPerSecond = 100;
  Error E = A.merge(B);
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(ProfileDataTest, SampledSeconds) {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0, 10, 1);
  for (int I = 0; I != 120; ++I)
    D.Hist.recordPc(3);
  EXPECT_DOUBLE_EQ(D.sampledSeconds(), 2.0);
}

//===----------------------------------------------------------------------===//
// Gmon file format
//===----------------------------------------------------------------------===//

namespace {

ProfileData makeSampleData() {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.RunCount = 2;
  D.ArcTableOverflowed = false;
  D.Hist = Histogram(0x1000, 0x2000, 4);
  D.Hist.recordPc(0x1000);
  D.Hist.recordPc(0x1FFF);
  D.Hist.recordPc(0x1800);
  D.addArc(0x1010, 0x1100, 42);
  D.addArc(0x1020, 0x1100, 1);
  D.addArc(0, 0x1000, 1); // Spontaneous caller.
  return D;
}

} // namespace

TEST(GmonFileTest, RoundTrip) {
  ProfileData D = makeSampleData();
  auto Bytes = writeGmon(D);
  auto Back = readGmon(Bytes);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->TicksPerSecond, 60u);
  EXPECT_EQ(Back->RunCount, 2u);
  EXPECT_EQ(Back->Arcs.size(), 3u);
  EXPECT_EQ(Back->Hist.lowPc(), 0x1000u);
  EXPECT_EQ(Back->Hist.highPc(), 0x2000u);
  EXPECT_EQ(Back->Hist.bucketSize(), 4u);
  EXPECT_EQ(Back->Hist.totalSamples(), 3u);
  EXPECT_EQ(Back->callsInto(0x1100), 43u);
}

TEST(GmonFileTest, OverflowFlagPersists) {
  ProfileData D = makeSampleData();
  D.ArcTableOverflowed = true;
  auto Back = readGmon(writeGmon(D));
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(Back->ArcTableOverflowed);
}

TEST(GmonFileTest, EmptyHistogramRoundTrips) {
  ProfileData D;
  D.addArc(1, 2, 3);
  auto Back = readGmon(writeGmon(D));
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(Back->Hist.empty());
  EXPECT_EQ(Back->Arcs.size(), 1u);
}

TEST(GmonFileTest, BadMagicRejected) {
  auto Bytes = writeGmon(makeSampleData());
  Bytes[0] = 'X';
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  EXPECT_NE(Back.message().find("magic"), std::string::npos);
  (void)Back.takeError();
}

TEST(GmonFileTest, BadVersionRejected) {
  auto Bytes = writeGmon(makeSampleData());
  for (uint8_t Bad : {uint8_t{0}, uint8_t{4}, uint8_t{99}}) {
    Bytes[4] = Bad;
    auto Back = readGmon(Bytes);
    ASSERT_FALSE(static_cast<bool>(Back));
    // The message names every version the reader accepts.
    EXPECT_EQ(Back.message(), format("unsupported gmon version %u "
                                     "(expected 1, 2 or 3)",
                                     unsigned{Bad}));
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, WritesVersion3AndReadsEveryVersion) {
  // Version 3 is the only one written; dense version 1 and 2 files, as
  // older releases wrote them, still read to the same profile.
  ProfileData D = makeSampleData();
  std::vector<uint8_t> V3 = writeGmon(D);
  EXPECT_EQ(V3[4], 3);
  std::vector<uint8_t> V1 = writeGmonDense(D);
  ASSERT_EQ(V1[4], 1);
  EXPECT_EQ(writeGmon(cantFail(readGmon(V1))), V3);

  ProfileData C = D;
  C.addContextTree({{CctRootParent, 0x1010, 0x1100, 4, 2}});
  C.ContextTreeOverflowed = true;
  std::vector<uint8_t> V2 = writeGmonDense(C);
  ASSERT_EQ(V2[4], 2);
  ProfileData Back = cantFail(readGmon(V2));
  EXPECT_TRUE(Back.ContextTreeOverflowed);
  EXPECT_EQ(writeGmon(Back), writeGmon(C));
  EXPECT_TRUE(cantFail(readGmon(writeGmon(C))).ContextTreeOverflowed);
}

TEST(GmonFileTest, SparseEdgeHistogramsRoundTrip) {
  for (const auto &[Name, D] : gmonEdgeProfiles()) {
    std::vector<uint8_t> Bytes = writeGmon(D);
    ProfileData Back = cantFail(readGmon(Bytes));
    EXPECT_EQ(Back.Hist.lowPc(), D.Hist.lowPc()) << Name;
    EXPECT_EQ(Back.Hist.highPc(), D.Hist.highPc()) << Name;
    EXPECT_EQ(Back.Hist.counts(), D.Hist.counts()) << Name;
    EXPECT_EQ(writeGmon(Back), Bytes) << Name;
  }
  // Exact sizes: 53-byte header, nnonzero, the list's byte length, the
  // pairs, narcs, two arcs and the section count; a pair with gap < 128
  // and count < 128 is 2 bytes.
  auto Edge = gmonEdgeProfiles();
  const size_t Fixed = 53 + 8 + 8 + 8 + 2 * 24 + 4;
  EXPECT_EQ(writeGmon(Edge[0].second).size(), Fixed);         // all zero
  EXPECT_EQ(writeGmon(Edge[2].second).size(), Fixed + 2);     // bucket 0
  EXPECT_EQ(writeGmon(Edge[3].second).size(), Fixed + 2 + 1); // gap 299
  // Gaps 127/128/13/28 take 1+2+1+1 bytes; counts 127/128/2^63/max take
  // 1+2+10+10.
  EXPECT_EQ(writeGmon(Edge[4].second).size(), Fixed + 5 + 23);
}

TEST(GmonFileTest, BenchmarkShapedShardIsAnEighthOfV1) {
  // The shape of the repository benchmark's shard: 42,236 size-1 buckets
  // of which 5,024 were sampled, and 459 arcs.  Dense, that is 348,965
  // bytes, 96.8% of them bucket counts; version 3 must need at most an
  // eighth of that.  One sampled bucket in each run of eight, with counts
  // up to 4,095, so most pairs take three bytes (the benchmark's counts
  // stay under 128, and its seed-1 shard takes 21,138 bytes).
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0x1000, 0x1000 + 42236, 1);
  SplitMix64 Rng(21);
  for (size_t K = 0; K != 5024; ++K)
    D.Hist.setBucketCount(K * 8 + Rng.nextBelow(8), 1 + Rng.nextBelow(4095));
  for (uint64_t A = 0; A != 459; ++A)
    D.addArc(0x1000 + A * 64, 0x1000 + (A % 97) * 400,
             1 + Rng.nextBelow(1000));
  const size_t Dense = writeGmonDense(D).size();
  const size_t Sparse = writeGmon(D).size();
  EXPECT_EQ(Dense, 348965u);
  EXPECT_LE(Sparse * 8, Dense) << Sparse << " sparse bytes";
  EXPECT_EQ(writeGmon(cantFail(readGmon(writeGmonDense(D)))).size(), Sparse);
}

TEST(GmonFileTest, TruncationRejected) {
  auto Bytes = writeGmon(makeSampleData());
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() / 2, size_t(5)}) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "cut at " << Cut;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, TrailingGarbageRejected) {
  auto Bytes = writeGmon(makeSampleData());
  Bytes.push_back(0);
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  (void)Back.takeError();
}

TEST(GmonFileTest, FileRoundTripAndSumming) {
  std::string P1 = testing::TempDir() + "/gmon_test_1.out";
  std::string P2 = testing::TempDir() + "/gmon_test_2.out";
  ProfileData D = makeSampleData();
  cantFail(writeGmonFile(P1, D));
  cantFail(writeGmonFile(P2, D));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_TRUE(static_cast<bool>(Sum));
  EXPECT_EQ(Sum->RunCount, 4u);
  EXPECT_EQ(Sum->Hist.totalSamples(), 6u);
  EXPECT_EQ(Sum->callsInto(0x1100), 86u);

  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

TEST(GmonFileTest, SumAccumulatesRunsAcrossManyFiles) {
  // Regression: the runs counter must be the sum over every input, not
  // just the first pair.
  std::vector<std::string> Paths;
  uint32_t ExpectedRuns = 0;
  for (uint32_t Runs : {1u, 2u, 5u}) {
    ProfileData D = makeSampleData();
    D.RunCount = Runs;
    ExpectedRuns += Runs;
    std::string P = testing::TempDir() +
                    format("/gmon_runs_%u.out", Runs);
    cantFail(writeGmonFile(P, D));
    Paths.push_back(P);
  }
  auto Sum = readAndSumGmonFiles(Paths);
  ASSERT_TRUE(static_cast<bool>(Sum));
  EXPECT_EQ(Sum->RunCount, ExpectedRuns);
  EXPECT_EQ(Sum->Hist.totalSamples(), 9u); // 3 samples per file.
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(GmonFileTest, SumMismatchedRateNamesBothFiles) {
  std::string P1 = testing::TempDir() + "/gmon_rate_60.out";
  std::string P2 = testing::TempDir() + "/gmon_rate_100.out";
  ProfileData A = makeSampleData();
  ProfileData B = makeSampleData();
  B.TicksPerSecond = 100;
  cantFail(writeGmonFile(P1, A));
  cantFail(writeGmonFile(P2, B));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_FALSE(static_cast<bool>(Sum));
  EXPECT_NE(Sum.message().find(P1), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find(P2), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find("sampling rates"), std::string::npos);
  (void)Sum.takeError();
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

TEST(GmonFileTest, SumMismatchedHistogramNamesBothFiles) {
  std::string P1 = testing::TempDir() + "/gmon_hist_a.out";
  std::string P2 = testing::TempDir() + "/gmon_hist_b.out";
  ProfileData A = makeSampleData();
  ProfileData B = makeSampleData();
  B.Hist = Histogram(0x1000, 0x4000, 4); // Different [lowpc, highpc).
  cantFail(writeGmonFile(P1, A));
  cantFail(writeGmonFile(P2, B));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_FALSE(static_cast<bool>(Sum));
  EXPECT_NE(Sum.message().find(P1), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find(P2), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find("histograms"), std::string::npos)
      << Sum.message();
  (void)Sum.takeError();
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

//===----------------------------------------------------------------------===//
// Corrupted-input corpus: every mutation must produce an error, never a
// crash or a silent misparse.
//===----------------------------------------------------------------------===//

namespace {

/// Patches a little-endian u64 into \p Bytes at \p Offset.
void patchU64(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t Value) {
  ASSERT_LE(Offset + 8, Bytes.size());
  for (size_t I = 0; I != 8; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

// Fixed header layout (see docs/FORMATS.md): magic@0, version@4, hz@8,
// runs@16, flags@20, lowpc@21, highpc@29, bucketsize@37, nbuckets@45,
// then counts@53 in the dense versions 1 and 2 (writeGmonDense) and
// nnonzero@53 in version 3.
constexpr size_t NbucketsOffset = 45;
constexpr size_t CountsOffset = 53;

} // namespace

TEST(GmonFileTest, CorpusTruncatedHeaders) {
  auto Bytes = writeGmonDense(makeSampleData());
  // Every prefix that cuts inside the header or the histogram lengths must
  // fail cleanly.
  for (size_t Cut = 0; Cut != CountsOffset + 8; ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "header cut at " << Cut;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusOversizedNbuckets) {
  auto Valid = writeGmonDense(makeSampleData());
  // Larger than the plausibility cap, larger than the file, and the
  // all-ones pattern whose byte size would overflow.
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           ~0ULL, 1ULL << 40, (1ULL << 30) / 8 + 1, Valid.size()}) {
    auto Bytes = Valid;
    patchU64(Bytes, NbucketsOffset, Bad);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << "nbuckets = " << Bad;
    (void)Back.takeError();
  }
  // A count that disagrees with the range must also be rejected, even if
  // the buckets would fit in the file.
  auto Bytes = Valid;
  ProfileData D = makeSampleData();
  patchU64(Bytes, NbucketsOffset, D.Hist.numBuckets() - 1);
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  EXPECT_NE(Back.message().find("mismatch"), std::string::npos);
  (void)Back.takeError();
}

TEST(GmonFileTest, CorpusOversizedNarcs) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmonDense(D);
  size_t NarcsOffset = CountsOffset + 8 * D.Hist.numBuckets();
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           ~0ULL, 1ULL << 40, (1ULL << 30) / 8 + 1, 1000}) {
    auto Bytes = Valid;
    patchU64(Bytes, NarcsOffset, Bad);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << "narcs = " << Bad;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusTrailingGarbage) {
  auto Valid = writeGmonDense(makeSampleData());
  for (size_t Extra : {size_t(1), size_t(7), size_t(4096)}) {
    auto Bytes = Valid;
    Bytes.insert(Bytes.end(), Extra, 0xAB);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << Extra << " trailing bytes";
    EXPECT_NE(Back.message().find("trailing"), std::string::npos);
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusArcTableTruncations) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmonDense(D);
  size_t ArcsStart = CountsOffset + 8 * D.Hist.numBuckets() + 8;
  // Cut inside each arc record.
  for (size_t Cut = ArcsStart; Cut < Valid.size(); Cut += 5) {
    std::vector<uint8_t> Short(Valid.begin(), Valid.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "arc cut at " << Cut;
    (void)Back.takeError();
  }
}

namespace {

// Version-3 offsets: nnonzero and the pair list's byte length follow the
// 53-byte header, then the pairs.
constexpr size_t NnonzeroOffset = 53;
constexpr size_t ListBytesOffset = NnonzeroOffset + 8;
constexpr size_t PairsOffset = ListBytesOffset + 8;

/// Offset of narcs in a version-3 file: after the pairs, which end where
/// the arc table plus the section count start from the back.
size_t sparseNarcsOffset(const ProfileData &D, size_t FileSize) {
  return FileSize - 4 - 24 * D.Arcs.size() - 8;
}

/// Requires both read modes to reject \p Bytes with a message containing
/// \p Message.
void expectRejectedInBothModes(const std::vector<uint8_t> &Bytes,
                               const std::string &Message,
                               const std::string &What) {
  for (bool Tolerant : {false, true}) {
    GmonReadOptions Opts;
    Opts.Tolerant = Tolerant;
    auto Back = readGmon(Bytes, Opts);
    ASSERT_FALSE(static_cast<bool>(Back)) << What;
    EXPECT_NE(Back.message().find(Message), std::string::npos)
        << What << ": " << Back.message();
    (void)Back.takeError();
  }
}

} // namespace

TEST(GmonFileTest, SparseCorpusOversizedNnonzero) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmon(D);
  // Three pairs in eight bytes: (0, 1), (511, 1), (510, 1).
  ASSERT_EQ(Valid[ListBytesOffset], 8);
  // More pairs than buckets, and the all-ones pattern.
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           D.Hist.numBuckets() + 1, ~0ULL}) {
    auto Bytes = Valid;
    patchU64(Bytes, NnonzeroOffset, Bad);
    expectRejectedInBothModes(Bytes, "nonzero buckets of",
                              "nnonzero = " + std::to_string(Bad));
  }
  // More or fewer pairs than the list's bytes can hold.
  for (uint64_t Bad : {uint64_t{5}, uint64_t{0}}) {
    auto Bytes = Valid;
    patchU64(Bytes, NnonzeroOffset, Bad);
    expectRejectedInBothModes(Bytes, "cannot hold",
                              "nnonzero = " + std::to_string(Bad));
  }
  // One pair more or fewer than the list holds: the list does not end at
  // its length, which a tolerant read does not forgive either.
  for (uint64_t Bad : {uint64_t{2}, uint64_t{4}}) {
    auto Bytes = Valid;
    patchU64(Bytes, NnonzeroOffset, Bad);
    expectRejectedInBothModes(Bytes, "does not end at its 8 bytes",
                              "nnonzero = " + std::to_string(Bad));
  }
}

TEST(GmonFileTest, SparseCorpusOversizedNarcs) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmon(D);
  size_t NarcsOffset = sparseNarcsOffset(D, Valid.size());
  // Pairs (0, 1), (511, 1), (510, 1): gaps of 128 or more take 2 bytes.
  ASSERT_EQ(NarcsOffset, PairsOffset + 2 + 3 + 3);
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           ~0ULL, 1ULL << 40, (1ULL << 30) / 8 + 1, 1000}) {
    auto Bytes = Valid;
    patchU64(Bytes, NarcsOffset, Bad);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << "narcs = " << Bad;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, SumNoFilesFails) {
  auto Sum = readAndSumGmonFiles({});
  EXPECT_FALSE(static_cast<bool>(Sum));
  (void)Sum.takeError();
}

TEST(GmonFileTest, MergeCommutative) {
  SplitMix64 Rng(11);
  ProfileData A, B;
  A.Hist = Histogram(0, 1000, 8);
  B.Hist = Histogram(0, 1000, 8);
  for (int I = 0; I != 200; ++I) {
    A.Hist.recordPc(Rng.nextBelow(1000));
    B.Hist.recordPc(Rng.nextBelow(1000));
    A.addArc(Rng.nextBelow(50), Rng.nextBelow(50), 1 + Rng.nextBelow(5));
    B.addArc(Rng.nextBelow(50), Rng.nextBelow(50), 1 + Rng.nextBelow(5));
  }
  ProfileData AB = A, BA = B;
  cantFail(AB.merge(B));
  cantFail(BA.merge(A));
  EXPECT_EQ(AB.Hist.counts(), BA.Hist.counts());
  for (const ArcRecord &R : AB.Arcs) {
    // Same (from, self) totals in both orders.
    uint64_t Other = 0;
    for (const ArcRecord &S : BA.Arcs)
      if (S.FromPc == R.FromPc && S.SelfPc == R.SelfPc)
        Other = S.Count;
    EXPECT_EQ(R.Count, Other);
  }
}
