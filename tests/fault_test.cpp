//===- tests/fault_test.cpp - Crash-safe profile I/O ----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safety tests (docs/ROBUSTNESS.md): the fault-injection registry
/// itself, atomic write-then-rename under injected faults, the tolerant
/// gmon reader over a deterministic truncation/mutation corpus of dense
/// (version 1 and 2) and sparse (version 3) files, and a
/// fault sweep over every store I/O path asserting that a failed operation
/// never leaves a torn artifact behind.
///
//===----------------------------------------------------------------------===//

#include "gmon_edge_profiles.h"
#include "reference_gmon.h"

#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "store/ProfileStore.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace gprof;

namespace {

/// Every fixture disarms on teardown so a failing test cannot poison the
/// process-wide registry for its successors.
class FaultFixture : public ::testing::Test {
protected:
  void SetUp() override { fault::disarmAll(); }
  void TearDown() override { fault::disarmAll(); }
};

class FaultInjectionTest : public FaultFixture {};
class AtomicWriteTest : public FaultFixture {};
class FaultCorpusTest : public FaultFixture {};
class StoreFaultTest : public FaultFixture {};

/// A fresh directory under the test temp dir, removed on destruction.
/// The pid keeps concurrent ctest entries that re-run the same case
/// (the named smoke targets) from sweeping each other's trees.
struct TempDir {
  explicit TempDir(const std::string &Name)
      : Path(testing::TempDir() + "/gprof_fault_" +
             std::to_string(::getpid()) + "_" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string Path;
};

/// Reference profile with a fully known serialization:  8 histogram
/// buckets with counts 1..8 and 5 arcs with distinct fields, so every
/// truncation point has a computable salvage prefix.
ProfileData makeRefData() {
  ProfileData D;
  D.TicksPerSecond = 100;
  D.RunCount = 3;
  D.Hist = Histogram(0, 64, 8);
  for (uint64_t B = 0; B != 8; ++B)
    for (uint64_t K = 0; K != B + 1; ++K)
      D.Hist.recordPc(B * 8);
  D.addArc(0x10, 0x100, 1);
  D.addArc(0x20, 0x100, 2);
  D.addArc(0x30, 0x200, 3);
  D.addArc(0x40, 0x200, 4);
  D.addArc(0x50, 0x300, 5);
  return D;
}

// Dense (version 1) layout of makeRefData(), as writeGmonDense writes it
// (docs/FORMATS.md): the fixed header runs through the histogram
// geometry, then counts, then narcs, then 24-byte arc records.
constexpr size_t HeaderSize = 53;
constexpr size_t NumBuckets = 8;
constexpr size_t NumArcs = 5;
constexpr size_t CountsEnd = HeaderSize + 8 * NumBuckets;
constexpr size_t ArcsStart = CountsEnd + 8;
constexpr size_t TotalSize = ArcsStart + 24 * NumArcs;

/// Snapshot of every regular file under \p Root, path -> bytes.
std::map<std::string, std::vector<uint8_t>>
snapshotTree(const std::string &Root) {
  std::map<std::string, std::vector<uint8_t>> Snap;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Root))
    if (Entry.is_regular_file())
      Snap[Entry.path().string()] =
          cantFail(readFileBytes(Entry.path().string()));
  return Snap;
}

/// Replaces the tree under \p Root with \p Snap (from snapshotTree).
void restoreTree(const std::string &Root,
                 const std::map<std::string, std::vector<uint8_t>> &Snap) {
  std::filesystem::remove_all(Root);
  for (const auto &[Path, Bytes] : Snap) {
    std::filesystem::create_directories(
        std::filesystem::path(Path).parent_path());
    cantFail(writeFileBytes(Path, Bytes));
  }
}

/// True if any file under \p Root has a ".tmp" suffix.
bool anyTmpFile(const std::string &Root) {
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Root))
    if (Entry.path().extension() == ".tmp")
      return true;
  return false;
}

ProfileData makeStoreShard(uint64_t Seed) {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0x1000, 0x1100, 8);
  D.Hist.recordPc(0x1000 + (Seed % 32) * 8);
  D.addArc(0x1000 + Seed * 8, 0x1040, 1 + Seed);
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault-injection registry
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, FiresExactlyTheNthCall) {
  fault::arm("test.point", 3);
  EXPECT_FALSE(static_cast<bool>(fault::check("test.point", "a")));
  EXPECT_FALSE(static_cast<bool>(fault::check("test.point", "b")));
  Error E = fault::check("test.point", "c");
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("test.point"), std::string::npos);
  EXPECT_NE(E.message().find("call 3"), std::string::npos);
  EXPECT_NE(E.message().find("(c)"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(fault::check("test.point", "d")));
  EXPECT_EQ(fault::callCount("test.point"), 4u);
  EXPECT_EQ(fault::firedCount("test.point"), 1u);
}

TEST_F(FaultInjectionTest, CountWindowFailsConsecutiveCalls) {
  fault::arm("test.window", 2, 2);
  EXPECT_FALSE(static_cast<bool>(fault::check("test.window", "")));
  EXPECT_TRUE(static_cast<bool>(fault::check("test.window", "")));
  EXPECT_TRUE(static_cast<bool>(fault::check("test.window", "")));
  EXPECT_FALSE(static_cast<bool>(fault::check("test.window", "")));
  EXPECT_EQ(fault::firedCount("test.window"), 2u);
}

TEST_F(FaultInjectionTest, CountZeroFailsForever) {
  fault::arm("test.forever", 2, 0);
  EXPECT_FALSE(static_cast<bool>(fault::check("test.forever", "")));
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(static_cast<bool>(fault::check("test.forever", "")));
}

TEST_F(FaultInjectionTest, UnarmedPointsNeverFire) {
  EXPECT_FALSE(fault::anyArmed());
  EXPECT_FALSE(static_cast<bool>(fault::check("test.unarmed", "")));
  fault::arm("test.other", 1);
  EXPECT_TRUE(fault::anyArmed());
  EXPECT_FALSE(static_cast<bool>(fault::check("test.unarmed", "")));
  fault::disarmAll();
  EXPECT_FALSE(fault::anyArmed());
  EXPECT_FALSE(static_cast<bool>(fault::check("test.other", "")));
}

TEST_F(FaultInjectionTest, RearmReplacesScheduleAndCounters) {
  fault::arm("test.rearm", 1);
  EXPECT_TRUE(static_cast<bool>(fault::check("test.rearm", "")));
  fault::arm("test.rearm", 2);
  EXPECT_EQ(fault::callCount("test.rearm"), 0u);
  EXPECT_FALSE(static_cast<bool>(fault::check("test.rearm", "")));
  EXPECT_TRUE(static_cast<bool>(fault::check("test.rearm", "")));
}

TEST_F(FaultInjectionTest, SpecParsesEntries) {
  cantFail(fault::armFromSpec("test.a:1,test.b:2:3"));
  EXPECT_TRUE(static_cast<bool>(fault::check("test.a", "")));
  EXPECT_FALSE(static_cast<bool>(fault::check("test.b", "")));
  EXPECT_TRUE(static_cast<bool>(fault::check("test.b", "")));
}

TEST_F(FaultInjectionTest, BadSpecArmsNothing) {
  for (const char *Bad : {"nocolon", ":1", "p:zero", "p:0", "p:1:x",
                          "test.ok:1,broken"}) {
    Error E = fault::armFromSpec(Bad);
    EXPECT_TRUE(static_cast<bool>(E)) << Bad;
    EXPECT_FALSE(fault::anyArmed()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Atomic writes under injected faults
//===----------------------------------------------------------------------===//

TEST_F(AtomicWriteTest, WriteFaultLeavesOriginalByteIdentical) {
  TempDir Dir("atomic_write");
  std::string Path = Dir.Path + "/artifact.bin";
  std::vector<uint8_t> Old{1, 2, 3, 4};
  cantFail(writeFileBytesAtomic(Path, Old));

  fault::arm("file.write", 1, 0);
  Error E = writeFileBytesAtomic(Path, {9, 9, 9});
  ASSERT_TRUE(static_cast<bool>(E));
  fault::disarmAll();

  EXPECT_EQ(cantFail(readFileBytes(Path)), Old);
  EXPECT_FALSE(anyTmpFile(Dir.Path));
}

TEST_F(AtomicWriteTest, RenameFaultLeavesOriginalAndNoTmp) {
  TempDir Dir("atomic_rename");
  std::string Path = Dir.Path + "/artifact.bin";
  std::vector<uint8_t> Old{5, 6, 7};
  cantFail(writeFileBytesAtomic(Path, Old));

  fault::arm("file.rename", 1, 0);
  Error E = writeFileBytesAtomic(Path, {8, 8});
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("file.rename"), std::string::npos);
  fault::disarmAll();

  EXPECT_EQ(cantFail(readFileBytes(Path)), Old);
  // The failed commit must not leave its temporary behind either.
  EXPECT_FALSE(anyTmpFile(Dir.Path));
}

TEST_F(AtomicWriteTest, ReadFaultPropagates) {
  TempDir Dir("read_fault");
  std::string Path = Dir.Path + "/artifact.bin";
  cantFail(writeFileBytesAtomic(Path, {1}));
  fault::arm("file.read", 1);
  auto Bytes = readFileBytes(Path);
  EXPECT_FALSE(static_cast<bool>(Bytes));
  EXPECT_NE(Bytes.message().find(Path), std::string::npos);
  (void)Bytes.takeError();
}

TEST_F(AtomicWriteTest, CrashMidGmonWriteKeepsPriorProfile) {
  TempDir Dir("gmon_crash");
  std::string Path = Dir.Path + "/gmon.out";
  ProfileData Old = makeRefData();
  cantFail(writeGmonFile(Path, Old));
  std::vector<uint8_t> OldBytes = cantFail(readFileBytes(Path));

  ProfileData New = makeRefData();
  New.addArc(0x60, 0x400, 6);
  for (const char *Point : {"file.write", "file.rename"}) {
    fault::arm(Point, 1, 0);
    Error E = writeGmonFile(Path, New);
    ASSERT_TRUE(static_cast<bool>(E)) << Point;
    fault::disarmAll();
    // The previous profile survives byte-identical and still parses.
    EXPECT_EQ(cantFail(readFileBytes(Path)), OldBytes) << Point;
    EXPECT_FALSE(anyTmpFile(Dir.Path)) << Point;
    auto Back = readGmonFile(Path);
    ASSERT_TRUE(static_cast<bool>(Back)) << Point;
    EXPECT_EQ(Back->Arcs.size(), NumArcs) << Point;
  }
}

TEST_F(AtomicWriteTest, MultiThreadSnapshotWriteFaultLeavesNoTornGmon) {
  // The thread-aware runtime meets the crash-safe writer: a snapshot
  // merged from several threads goes through the same atomic
  // write-then-rename path as any profile artifact, so an injected
  // file.write fault mid-condense must leave the previous gmon.out
  // byte-identical and no temporary behind (docs/RUNTIME_MT.md).
  TempDir Dir("mt_snapshot");
  std::string Path = Dir.Path + "/gmon.out";

  constexpr Address Lo = 0x1000, Hi = 0x2000;
  Monitor Mon(Lo, Hi);
  auto FeedFromThreads = [&Mon] {
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != 4; ++T)
      Workers.emplace_back([&Mon, T] {
        for (Address I = 0; I != 500; ++I) {
          Mon.onCall(Lo + (I * 7 + T) % (Hi - Lo), Lo + (I % 16) * 64);
          Mon.onTick(Lo + (I * 13 + T) % (Hi - Lo));
        }
      });
    for (std::thread &W : Workers)
      W.join();
  };

  FeedFromThreads();
  cantFail(writeGmonFile(Path, Mon.finish()));
  std::vector<uint8_t> OldBytes = cantFail(readFileBytes(Path));

  // More concurrent data arrives; the next condense hits a write fault.
  FeedFromThreads();
  fault::arm("file.write", 1, 0);
  Error E = writeGmonFile(Path, Mon.finish());
  ASSERT_TRUE(static_cast<bool>(E));
  fault::disarmAll();
  EXPECT_EQ(cantFail(readFileBytes(Path)), OldBytes);
  EXPECT_FALSE(anyTmpFile(Dir.Path));
  // The surviving file still parses as the first snapshot.
  EXPECT_EQ(writeGmon(cantFail(readGmonFile(Path))), OldBytes);

  // With the fault gone the doubled snapshot commits cleanly.
  cantFail(writeGmonFile(Path, Mon.finish()));
  ProfileData Back = cantFail(readGmonFile(Path));
  ProfileData First = cantFail(readGmon(OldBytes));
  uint64_t FirstTotal = 0, BackTotal = 0;
  for (const ArcRecord &R : First.Arcs)
    FirstTotal += R.Count;
  for (const ArcRecord &R : Back.Arcs)
    BackTotal += R.Count;
  EXPECT_EQ(BackTotal, 2 * FirstTotal);
}

TEST_F(AtomicWriteTest, ConcurrentWritersOfOnePathEachCommit) {
  // Two cold queries of one window both write cache/<agg>.gmon.  Each
  // atomic write has a temporary of its own, so every rename commits a
  // whole file: with one shared "<path>.tmp", a writer whose temporary
  // another had already renamed away failed with ENOENT.
  TempDir Dir("atomic_concurrent");
  const std::string Path = Dir.Path + "/shared.bin";
  constexpr unsigned Threads = 8, Writes = 100;
  std::atomic<unsigned> Failures{0};
  std::string FirstFailure;
  std::mutex FailureMutex;
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != Threads; ++T)
    Writers.emplace_back([&, T] {
      const std::vector<uint8_t> Payload(256 + T, static_cast<uint8_t>(T));
      for (unsigned I = 0; I != Writes; ++I)
        if (Error E = writeFileBytesAtomic(Path, Payload)) {
          std::lock_guard<std::mutex> Lock(FailureMutex);
          if (Failures.fetch_add(1) == 0)
            FirstFailure = E.message();
        }
    });
  for (std::thread &W : Writers)
    W.join();
  EXPECT_EQ(Failures.load(), 0u) << FirstFailure;
  EXPECT_FALSE(anyTmpFile(Dir.Path));
  // The survivor is one writer's whole payload.
  std::vector<uint8_t> Final = cantFail(readFileBytes(Path));
  ASSERT_GE(Final.size(), 256u);
  const unsigned Writer = Final.size() - 256;
  ASSERT_LT(Writer, Threads);
  EXPECT_EQ(Final, std::vector<uint8_t>(256 + Writer,
                                        static_cast<uint8_t>(Writer)));
}

//===----------------------------------------------------------------------===//
// Truncation and mutation corpus
//===----------------------------------------------------------------------===//

TEST_F(FaultCorpusTest, TruncationEveryCutPoint) {
  ProfileData Ref = makeRefData();
  std::vector<uint8_t> Bytes = writeGmonDense(Ref);
  ASSERT_EQ(Bytes.size(), TotalSize);
  GmonReadOptions Tol;
  Tol.Tolerant = true;

  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);

    // Strict mode rejects every proper prefix.
    auto Strict = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Strict)) << "strict cut at " << Cut;
    (void)Strict.takeError();

    GmonSalvage S;
    auto Back = readGmon(Short, Tol, &S);
    if (Cut < HeaderSize) {
      // Below the salvage floor there are no usable records.
      EXPECT_FALSE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
      (void)Back.takeError();
      continue;
    }
    ASSERT_TRUE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
    EXPECT_TRUE(S.Damaged) << Cut;
    EXPECT_FALSE(S.Note.empty()) << Cut;
    EXPECT_EQ(Back->TicksPerSecond, Ref.TicksPerSecond) << Cut;
    EXPECT_EQ(Back->RunCount, Ref.RunCount) << Cut;

    if (Cut < CountsEnd) {
      // Cut inside the bucket counts: whole buckets survive, the torn
      // bucket and everything after it reads as zero, no arcs.
      size_t Whole = (Cut - HeaderSize) / 8;
      EXPECT_EQ(S.SalvagedBuckets, Whole) << Cut;
      EXPECT_EQ(S.DroppedBuckets, NumBuckets - Whole) << Cut;
      ASSERT_EQ(Back->Hist.numBuckets(), NumBuckets) << Cut;
      for (size_t B = 0; B != NumBuckets; ++B)
        EXPECT_EQ(Back->Hist.bucketCount(B), B < Whole ? B + 1 : 0u)
            << "cut " << Cut << " bucket " << B;
      EXPECT_TRUE(Back->Arcs.empty()) << Cut;
    } else if (Cut < ArcsStart) {
      // Cut inside the arc-count field: full histogram, no arcs.
      EXPECT_EQ(S.SalvagedBuckets, NumBuckets) << Cut;
      EXPECT_EQ(S.DroppedBuckets, 0u) << Cut;
      EXPECT_NE(S.Note.find("arc table count"), std::string::npos) << Cut;
      EXPECT_TRUE(Back->Arcs.empty()) << Cut;
    } else {
      // Cut inside the arc records: the exact prefix of whole records.
      size_t Whole = (Cut - ArcsStart) / 24;
      EXPECT_EQ(S.SalvagedArcs, Whole) << Cut;
      EXPECT_EQ(S.DroppedArcs, NumArcs - Whole) << Cut;
      for (size_t B = 0; B != NumBuckets; ++B)
        EXPECT_EQ(Back->Hist.bucketCount(B), B + 1) << Cut;
      ASSERT_EQ(Back->Arcs.size(), Whole) << Cut;
      for (size_t A = 0; A != Whole; ++A) {
        EXPECT_EQ(Back->Arcs[A].FromPc, Ref.Arcs[A].FromPc) << Cut;
        EXPECT_EQ(Back->Arcs[A].SelfPc, Ref.Arcs[A].SelfPc) << Cut;
        EXPECT_EQ(Back->Arcs[A].Count, Ref.Arcs[A].Count) << Cut;
      }
    }
  }
}

TEST_F(FaultCorpusTest, TolerantIntactFileReportsNoDamage) {
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  GmonSalvage S;
  auto Back = readGmon(writeGmonDense(makeRefData()), Tol, &S);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_FALSE(S.Damaged);
  EXPECT_TRUE(S.Note.empty());
  EXPECT_EQ(S.SalvagedArcs, NumArcs);
  EXPECT_EQ(S.DroppedArcs, 0u);
}

TEST_F(FaultCorpusTest, TolerantAcceptsTrailingJunk) {
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  auto Bytes = writeGmonDense(makeRefData());
  Bytes.insert(Bytes.end(), 17, 0xEE);
  GmonSalvage S;
  auto Back = readGmon(Bytes, Tol, &S);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(S.Damaged);
  EXPECT_EQ(S.TrailingBytes, 17u);
  EXPECT_EQ(Back->Arcs.size(), NumArcs);
  EXPECT_EQ(S.SalvagedArcs, NumArcs);
  EXPECT_EQ(S.DroppedArcs, 0u);
}

TEST_F(FaultCorpusTest, TolerantStillRejectsLyingHeaders) {
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  auto Valid = writeGmonDense(makeRefData());

  auto ExpectReject = [&](std::vector<uint8_t> Bytes, const char *What) {
    auto Back = readGmon(Bytes, Tol);
    EXPECT_FALSE(static_cast<bool>(Back)) << What;
    (void)Back.takeError();
  };

  auto BadMagic = Valid;
  BadMagic[0] = 'X';
  ExpectReject(BadMagic, "magic");
  auto BadVersion = Valid;
  BadVersion[4] = 42;
  ExpectReject(BadVersion, "version");
  auto BadNbuckets = Valid;
  BadNbuckets[45] = 0xFF; // nbuckets no longer matches the address range.
  ExpectReject(BadNbuckets, "nbuckets");
}

TEST_F(FaultCorpusTest, ByteMutationNeverCrashesEitherMode) {
  // Single-byte corruption at every offset, three flip patterns each.
  // Any outcome (reject, salvage, or a still-valid parse) is acceptable;
  // what this drives — under ASan/UBSan in sanitizer builds — is that no
  // mutation can crash, overflow, or leak in either reader mode.
  auto Bytes = writeGmonDense(makeRefData());
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    for (uint8_t Flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      auto Mutated = Bytes;
      Mutated[I] ^= Flip;
      auto Strict = readGmon(Mutated);
      if (!Strict)
        (void)Strict.takeError();
      GmonSalvage S;
      auto Tolerant = readGmon(Mutated, Tol, &S);
      if (!Tolerant)
        (void)Tolerant.takeError();
    }
  }
}

TEST_F(FaultCorpusTest, TolerantSummingReportsDamagedInputs) {
  TempDir Dir("tolerant_sum");
  std::string Intact = Dir.Path + "/intact.out";
  std::string Torn = Dir.Path + "/torn.out";
  ProfileData Ref = makeRefData();
  cantFail(writeGmonFile(Intact, Ref));
  auto Bytes = writeGmonDense(Ref);
  // Cut after the third arc record.
  Bytes.resize(ArcsStart + 3 * 24 + 7);
  cantFail(writeFileBytes(Torn, Bytes));

  // Strict summing rejects the torn file and names it.
  auto Strict = readAndSumGmonFiles({Intact, Torn});
  ASSERT_FALSE(static_cast<bool>(Strict));
  EXPECT_NE(Strict.message().find(Torn), std::string::npos);
  (void)Strict.takeError();

  GmonReadOptions Tol;
  Tol.Tolerant = true;
  std::vector<GmonFileSalvage> Salvages;
  auto Sum = readAndSumGmonFiles({Intact, Torn}, Tol, &Salvages);
  ASSERT_TRUE(static_cast<bool>(Sum));
  ASSERT_EQ(Salvages.size(), 1u);
  EXPECT_EQ(Salvages[0].Path, Torn);
  EXPECT_EQ(Salvages[0].Salvage.SalvagedArcs, 3u);
  EXPECT_EQ(Salvages[0].Salvage.DroppedArcs, 2u);
  // Intact contributes all 5 arcs; the torn file its first 3.
  EXPECT_EQ(Sum->callsInto(0x100), 2 * (1 + 2));
  EXPECT_EQ(Sum->callsInto(0x200), 2 * 3 + 4u);
  EXPECT_EQ(Sum->callsInto(0x300), 5u);
  EXPECT_EQ(Sum->RunCount, 2 * Ref.RunCount);
}

//===----------------------------------------------------------------------===//
// Truncation and mutation corpus: the v2 context-tree record
//===----------------------------------------------------------------------===//

namespace {

/// makeRefData() plus a four-node context tree, so the file serializes
/// as version 2 with one extension section.  The tree is already in
/// canonical form (children sorted by (FromPc, SelfPc)), so the layout
/// below is exact.
ProfileData makeRefDataWithContexts() {
  ProfileData D = makeRefData();
  std::vector<CctNode> T;
  T.push_back({CctRootParent, 0x10, 0x100, 1, 2}); // main
  T.push_back({0, 0x110, 0x200, 3, 4});            // main > a (site 1)
  T.push_back({1, 0x210, 0x300, 5, 6});            // main > a > b
  T.push_back({0, 0x120, 0x200, 7, 8});            // main > a (site 2)
  D.addContextTree(T);
  return D;
}

// Serialized layout of makeRefDataWithContexts() (docs/FORMATS.md): the
// whole v1 image above, then nsections u32, then the section header
// (tag u32 + bytelen u64), then the payload (nnodes u64 + 36-byte
// nodes).  The v1 region is byte-identical except the version field.
constexpr size_t NumCtxNodes = 4;
constexpr size_t SectCountStart = TotalSize;
constexpr size_t SectHdrStart = SectCountStart + 4;
constexpr size_t CtxPayloadStart = SectHdrStart + 12;
constexpr size_t CtxNodesStart = CtxPayloadStart + 8;
constexpr size_t CtxTotalSize = CtxNodesStart + 36 * NumCtxNodes;

} // namespace

TEST_F(FaultCorpusTest, ContextFileRoundTripsAndProjectsToV1) {
  ProfileData Ref = makeRefDataWithContexts();
  std::vector<uint8_t> Bytes = writeGmonDense(Ref);
  ASSERT_EQ(Bytes.size(), CtxTotalSize);
  EXPECT_EQ(Bytes[4], 2) << "context-carrying files are version 2";

  // Byte-exact round trip through the strict reader.
  ProfileData Back = cantFail(readGmon(Bytes));
  EXPECT_EQ(writeGmonDense(Back), Bytes);
  ASSERT_EQ(Back.Contexts.size(), NumCtxNodes);
  EXPECT_EQ(Back.Contexts[2].SelfPc, 0x300u);
  EXPECT_EQ(Back.Contexts[2].Ticks, 6u);

  // Arcs-only profiles stay version 1: the v1 image of the same data is
  // the context file minus the extension region and the version byte.
  std::vector<uint8_t> V1 = writeGmonDense(makeRefData());
  ASSERT_EQ(V1.size(), TotalSize);
  EXPECT_EQ(V1[4], 1);
  for (size_t I = 0; I != TotalSize; ++I)
    if (I != 4)
      ASSERT_EQ(V1[I], Bytes[I]) << "v1/v2 diverge at byte " << I;
}

TEST_F(FaultCorpusTest, ContextTruncationEveryCutPoint) {
  ProfileData Ref = makeRefDataWithContexts();
  std::vector<uint8_t> Bytes = writeGmonDense(Ref);
  GmonReadOptions Tol;
  Tol.Tolerant = true;

  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);

    auto Strict = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Strict)) << "strict cut at " << Cut;
    (void)Strict.takeError();

    GmonSalvage S;
    auto Back = readGmon(Short, Tol, &S);
    if (Cut < HeaderSize) {
      // The salvage floor is unchanged from v1.
      EXPECT_FALSE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
      (void)Back.takeError();
      continue;
    }
    ASSERT_TRUE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
    EXPECT_TRUE(S.Damaged) << Cut;

    if (Cut < TotalSize) {
      // Cut inside the v1 region: same salvage as v1, no contexts.
      EXPECT_TRUE(Back->Contexts.empty()) << Cut;
      EXPECT_EQ(S.SalvagedContexts, 0u) << Cut;
    } else if (Cut < CtxNodesStart) {
      // Cut inside the section plumbing (count, tag, length, node
      // count): the full v1 content survives, the tree is lost whole.
      EXPECT_EQ(S.SalvagedArcs, NumArcs) << Cut;
      EXPECT_TRUE(Back->Contexts.empty()) << Cut;
      EXPECT_EQ(S.SalvagedContexts, 0u) << Cut;
      EXPECT_FALSE(S.Note.empty()) << Cut;
    } else {
      // Cut inside the node records: the exact prefix of whole nodes.
      size_t Whole = (Cut - CtxNodesStart) / 36;
      EXPECT_EQ(S.SalvagedContexts, Whole) << Cut;
      EXPECT_EQ(S.DroppedContexts, NumCtxNodes - Whole) << Cut;
      ASSERT_EQ(Back->Contexts.size(), Whole) << Cut;
      for (size_t N = 0; N != Whole; ++N) {
        EXPECT_EQ(Back->Contexts[N].SelfPc, Ref.Contexts[N].SelfPc) << Cut;
        EXPECT_EQ(Back->Contexts[N].Calls, Ref.Contexts[N].Calls) << Cut;
        EXPECT_EQ(Back->Contexts[N].Ticks, Ref.Contexts[N].Ticks) << Cut;
      }
    }
  }
}

TEST_F(FaultCorpusTest, ContextByteMutationNeverCrashesEitherMode) {
  auto Bytes = writeGmonDense(makeRefDataWithContexts());
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    for (uint8_t Flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      auto Mutated = Bytes;
      Mutated[I] ^= Flip;
      auto Strict = readGmon(Mutated);
      if (!Strict)
        (void)Strict.takeError();
      GmonSalvage S;
      auto Tolerant = readGmon(Mutated, Tol, &S);
      if (!Tolerant)
        (void)Tolerant.takeError();
    }
  }
}

TEST_F(FaultCorpusTest, ContextTolerantStillRejectsLyingSections) {
  auto Valid = writeGmonDense(makeRefDataWithContexts());
  GmonReadOptions Tol;
  Tol.Tolerant = true;

  auto ExpectReject = [&](std::vector<uint8_t> Bytes, const char *What) {
    auto Strict = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Strict)) << What << " (strict)";
    (void)Strict.takeError();
    auto Lax = readGmon(Bytes, Tol);
    EXPECT_FALSE(static_cast<bool>(Lax)) << What << " (tolerant)";
    (void)Lax.takeError();
  };

  // Tolerance is for truncation, not for headers that lie about intact
  // bytes.  Section length disagreeing with the node count:
  auto BadLen = Valid;
  BadLen[SectHdrStart + 4] ^= 0x04;
  ExpectReject(BadLen, "length mismatch");

  // A node naming a later node (or itself) as parent would let the
  // analyzer's accumulation loop run away:
  auto BadParent = Valid;
  BadParent[CtxNodesStart + 36] = 9; // node 1's parent -> 9
  ExpectReject(BadParent, "invalid parent");

  // An implausible section count:
  auto BadCount = Valid;
  BadCount[SectCountStart] = 0xFF;
  ExpectReject(BadCount, "section count");
}

TEST_F(FaultCorpusTest, UnknownExtensionSectionIsSkippedCleanly) {
  // Forward compatibility: append a second section with an unknown tag;
  // both modes must skip it whole and still deliver the context tree.
  ProfileData Ref = makeRefDataWithContexts();
  auto Bytes = writeGmonDense(Ref);
  Bytes[SectCountStart] = 2; // nsections: 1 -> 2
  const uint8_t Unknown[] = {0x58, 0x58, 0x58, 0x58, // tag "XXXX"
                             5,    0,    0,    0,    0, 0, 0, 0, // len 5
                             1,    2,    3,    4,    5};         // payload
  Bytes.insert(Bytes.end(), std::begin(Unknown), std::end(Unknown));

  for (bool Tolerant : {false, true}) {
    GmonReadOptions Opts;
    Opts.Tolerant = Tolerant;
    GmonSalvage S;
    auto Back = readGmon(Bytes, Opts, &S);
    ASSERT_TRUE(static_cast<bool>(Back)) << "tolerant=" << Tolerant;
    EXPECT_EQ(Back->Contexts.size(), NumCtxNodes) << "tolerant=" << Tolerant;
    EXPECT_FALSE(S.Damaged) << "tolerant=" << Tolerant;
    // Re-serializing drops the unknown section (we cannot regenerate
    // what we did not understand) but keeps the tree.
    EXPECT_EQ(writeGmon(*Back), writeGmon(Ref)) << "tolerant=" << Tolerant;
  }
}

//===----------------------------------------------------------------------===//
// Truncation and mutation corpus: sparse version-3 histograms
//===----------------------------------------------------------------------===//

namespace {

// Version-3 layout of makeRefData(), as writeGmon writes it: the same
// 53-byte header, nnonzero, the pair list's byte length, one 2-byte
// (gap 0, count B+1) pair per bucket, narcs, the arc records, and a zero
// section count.
constexpr size_t PairsStart = HeaderSize + 8 + 8;
constexpr size_t PairsEnd = PairsStart + 2 * NumBuckets;
constexpr size_t SparseArcsStart = PairsEnd + 8;
constexpr size_t SparseArcsEnd = SparseArcsStart + 24 * NumArcs;
constexpr size_t SparseTotalSize = SparseArcsEnd + 4;

} // namespace

TEST_F(FaultCorpusTest, SparseTruncationEveryCutPoint) {
  ProfileData Ref = makeRefData();
  std::vector<uint8_t> Bytes = writeGmon(Ref);
  ASSERT_EQ(Bytes.size(), SparseTotalSize);
  GmonReadOptions Tol;
  Tol.Tolerant = true;

  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);

    auto Strict = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Strict)) << "strict cut at " << Cut;
    (void)Strict.takeError();

    GmonSalvage S;
    auto Back = readGmon(Short, Tol, &S);
    if (Cut < HeaderSize) {
      // The salvage floor is the v1 header, unchanged.
      EXPECT_FALSE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
      (void)Back.takeError();
      continue;
    }
    ASSERT_TRUE(static_cast<bool>(Back)) << "tolerant cut at " << Cut;
    EXPECT_TRUE(S.Damaged) << Cut;
    EXPECT_FALSE(S.Note.empty()) << Cut;
    EXPECT_EQ(Back->TicksPerSecond, Ref.TicksPerSecond) << Cut;
    EXPECT_EQ(Back->RunCount, Ref.RunCount) << Cut;
    ASSERT_EQ(Back->Hist.numBuckets(), NumBuckets) << Cut;

    if (Cut < PairsStart) {
      // Cut inside nnonzero or the list's length: the geometry survives,
      // no count does.
      EXPECT_NE(S.Note.find("pair list header"), std::string::npos) << Cut;
      EXPECT_EQ(S.SalvagedBuckets, 0u) << Cut;
      EXPECT_EQ(Back->Hist.totalSamples(), 0u) << Cut;
      EXPECT_TRUE(Back->Arcs.empty()) << Cut;
    } else if (Cut < PairsEnd) {
      // Cut inside the pairs: every whole pair survives, the torn pair
      // and everything after it reads as zero, no arcs.
      size_t Whole = (Cut - PairsStart) / 2;
      EXPECT_EQ(S.SalvagedBuckets, Whole) << Cut;
      EXPECT_EQ(S.DroppedBuckets, NumBuckets - Whole) << Cut;
      for (size_t B = 0; B != NumBuckets; ++B)
        EXPECT_EQ(Back->Hist.bucketCount(B), B < Whole ? B + 1 : 0u)
            << "cut " << Cut << " bucket " << B;
      EXPECT_TRUE(Back->Arcs.empty()) << Cut;
    } else if (Cut < SparseArcsStart) {
      EXPECT_EQ(S.SalvagedBuckets, NumBuckets) << Cut;
      EXPECT_EQ(S.DroppedBuckets, 0u) << Cut;
      EXPECT_NE(S.Note.find("arc table count"), std::string::npos) << Cut;
      EXPECT_TRUE(Back->Arcs.empty()) << Cut;
    } else if (Cut < SparseArcsEnd) {
      size_t Whole = (Cut - SparseArcsStart) / 24;
      EXPECT_EQ(S.SalvagedArcs, Whole) << Cut;
      EXPECT_EQ(S.DroppedArcs, NumArcs - Whole) << Cut;
      for (size_t B = 0; B != NumBuckets; ++B)
        EXPECT_EQ(Back->Hist.bucketCount(B), B + 1) << Cut;
      ASSERT_EQ(Back->Arcs.size(), Whole) << Cut;
      for (size_t A = 0; A != Whole; ++A)
        EXPECT_EQ(Back->Arcs[A].Count, Ref.Arcs[A].Count) << Cut;
    } else {
      // Cut inside the section count: everything before it survives.
      EXPECT_NE(S.Note.find("extension section count"), std::string::npos)
          << Cut;
      EXPECT_EQ(S.SalvagedArcs, NumArcs) << Cut;
      EXPECT_EQ(writeGmonDense(*Back), writeGmonDense(Ref)) << Cut;
    }
  }
}

TEST_F(FaultCorpusTest, SparseEdgeHistogramsSalvageWholePairs) {
  // At every cut of every edge histogram, a tolerant read keeps exactly
  // the recorded buckets whose pairs were whole, in ascending order, and
  // the arc and context prefixes after them.
  std::vector<std::pair<std::string, ProfileData>> Corpus =
      gmonEdgeProfiles();
  Corpus.push_back({"reference with contexts", makeRefDataWithContexts()});
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  for (const auto &[Name, Ref] : Corpus) {
    std::vector<size_t> Recorded; // Nonzero buckets, ascending.
    for (size_t B = 0; B != Ref.Hist.numBuckets(); ++B)
      if (Ref.Hist.bucketCount(B) != 0)
        Recorded.push_back(B);
    const std::vector<uint8_t> Bytes = writeGmon(Ref);
    for (size_t Cut = HeaderSize; Cut != Bytes.size(); ++Cut) {
      std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
      auto Strict = readGmon(Short);
      EXPECT_FALSE(static_cast<bool>(Strict)) << Name << " cut " << Cut;
      (void)Strict.takeError();
      GmonSalvage S;
      auto Back = readGmon(Short, Tol, &S);
      ASSERT_TRUE(static_cast<bool>(Back)) << Name << " cut " << Cut;
      EXPECT_TRUE(S.Damaged) << Name << " cut " << Cut;
      ASSERT_EQ(Back->Hist.numBuckets(), Ref.Hist.numBuckets()) << Name;
      ASSERT_LE(S.SalvagedBuckets, Recorded.size()) << Name << " cut " << Cut;
      if (Cut >= PairsStart) {
        EXPECT_EQ(S.SalvagedBuckets + S.DroppedBuckets, Recorded.size())
            << Name << " cut " << Cut;
      }
      std::vector<uint64_t> Want(Ref.Hist.numBuckets(), 0);
      for (size_t K = 0; K != S.SalvagedBuckets; ++K)
        Want[Recorded[K]] = Ref.Hist.bucketCount(Recorded[K]);
      EXPECT_EQ(Back->Hist.counts(), Want) << Name << " cut " << Cut;
      ASSERT_LE(Back->Arcs.size(), Ref.Arcs.size()) << Name;
      if (!Back->Arcs.empty()) {
        EXPECT_EQ(S.SalvagedBuckets, Recorded.size())
            << Name << " cut " << Cut;
      }
      for (size_t A = 0; A != Back->Arcs.size(); ++A)
        EXPECT_EQ(Back->Arcs[A].SelfPc, Ref.Arcs[A].SelfPc) << Name;
      ASSERT_LE(Back->Contexts.size(), Ref.Contexts.size()) << Name;
      for (size_t N = 0; N != Back->Contexts.size(); ++N)
        EXPECT_EQ(Back->Contexts[N].Ticks, Ref.Contexts[N].Ticks) << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Store fault sweep: a failed operation never leaves a torn artifact
//===----------------------------------------------------------------------===//

TEST_F(StoreFaultTest, PutFaultSweepLeavesPriorArtifactsIntact) {
  TempDir Dir("put_sweep");
  std::string Root = Dir.Path + "/store";
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  std::string Input = Dir.Path + "/incoming.gmon";
  cantFail(writeGmonFile(Input, makeStoreShard(4)));
  {
    auto Store = ProfileStore::open(Root, NoRetry);
    ASSERT_TRUE(static_cast<bool>(Store));
    for (uint64_t S = 1; S <= 3; ++S)
      cantFail(Store->put(makeStoreShard(S)).takeError());
  }
  // index.bin checkpoints two shards and index.log journals the third, so
  // the next put's record takes the journal past the checkpoint's size.
  auto Before = snapshotTree(Root);
  ASSERT_EQ(Before.count(Root + "/index.log"), 1u);

  // One case per (point, call depth) that a single ingest reaches: put
  // checks store.put once, writes and renames the object, appends one
  // journal record, then checkpoints — writes and renames index.bin and
  // empties the journal; putFile reads the incoming gmon once.  A fault
  // up to the append fails the ingest and leaves all prior artifacts
  // byte-identical (a torn append is cut back).  A fault in the
  // checkpoint comes after the record is durable: the put is
  // acknowledged, and the journal keeps what index.bin lacks.
  struct SweepCase {
    const char *Point;
    uint64_t Nth;
    bool ViaFile;
    bool Acked;
  };
  const SweepCase Cases[] = {
      {"store.put", 1, false, false},  {"file.read", 1, true, false},
      {"file.write", 1, false, false}, {"file.rename", 1, false, false},
      {"file.append", 1, false, false}, {"file.write", 2, false, true},
      {"file.rename", 2, false, true}, {"file.truncate", 1, false, true},
  };
  for (const SweepCase &C : Cases) {
    restoreTree(Root, Before);
    auto Store = ProfileStore::open(Root, NoRetry);
    ASSERT_TRUE(static_cast<bool>(Store)) << C.Point;
    fault::arm(C.Point, C.Nth, 0);
    auto Put = C.ViaFile ? Store->putFile(Input) : Store->put(makeStoreShard(4));
    uint64_t Fired = fault::firedCount(C.Point);
    fault::disarmAll();
    EXPECT_EQ(Fired, 1u) << C.Point << " nth " << C.Nth;
    EXPECT_FALSE(anyTmpFile(Root)) << C.Point << " nth " << C.Nth;

    if (C.Acked) {
      ASSERT_TRUE(static_cast<bool>(Put)) << C.Point << " nth " << C.Nth;
      auto Fresh = ProfileStore::open(Root, NoRetry);
      ASSERT_TRUE(static_cast<bool>(Fresh)) << C.Point;
      ASSERT_EQ(Fresh->shards().size(), 4u) << C.Point << " nth " << C.Nth;
      EXPECT_TRUE(static_cast<bool>(Fresh->loadShard(*Put)));
      if (std::string(C.Point) != "file.truncate")
        EXPECT_EQ(cantFail(readFileBytes(Root + "/index.bin")),
                  Before[Root + "/index.bin"])
            << C.Point << " nth " << C.Nth;
      continue;
    }
    EXPECT_FALSE(static_cast<bool>(Put)) << C.Point << " nth " << C.Nth;
    (void)Put.takeError();
    // Every prior artifact survives byte-identical, and the failed write
    // leaves no temporary behind.
    for (const auto &[Path, Bytes] : Before)
      EXPECT_EQ(cantFail(readFileBytes(Path)), Bytes)
          << C.Point << " nth " << C.Nth << ": " << Path;

    // An object that landed before a later fault is complete (never torn)
    // and unindexed; gc from a fresh handle restores the reference tree.
    auto Fresh = ProfileStore::open(Root, NoRetry);
    ASSERT_TRUE(static_cast<bool>(Fresh)) << C.Point;
    cantFail(Fresh->gc().takeError());
    EXPECT_EQ(snapshotTree(Root), Before) << C.Point << " nth " << C.Nth;
  }
}

TEST_F(StoreFaultTest, MergeFaultSweepLeavesStoreIntact) {
  TempDir Dir("merge_sweep");
  std::string Root = Dir.Path + "/store";
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  auto Store = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeStoreShard(1)).takeError());
  cantFail(Store->put(makeStoreShard(2)).takeError());
  auto Before = snapshotTree(Root);

  // A cache-miss merge checks store.merge once, reads one object per
  // member shard, then writes and renames the cache entry once each.
  struct SweepCase {
    const char *Point;
    uint64_t Nth;
  };
  const SweepCase Cases[] = {
      {"store.merge", 1}, {"file.read", 1},   {"file.read", 2},
      {"file.write", 1},  {"file.rename", 1},
  };
  for (const SweepCase &C : Cases) {
    fault::arm(C.Point, C.Nth, 0);
    auto Result = Store->merge({});
    EXPECT_FALSE(static_cast<bool>(Result)) << C.Point << " nth " << C.Nth;
    (void)Result.takeError();
    fault::disarmAll();
    // The failed merge changes nothing: no torn cache entry under the
    // aggregate key, no temporary, every prior artifact byte-identical.
    EXPECT_FALSE(anyTmpFile(Root)) << C.Point << " nth " << C.Nth;
    EXPECT_EQ(snapshotTree(Root), Before) << C.Point << " nth " << C.Nth;
  }

  // Unarmed, the same merge succeeds, and its cache entry is the
  // aggregate's gmon bytes followed by their SHA-256 (docs/FORMATS.md).
  auto Result = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Result));
  std::vector<uint8_t> Want = writeGmon(Result->Data);
  Sha256Digest Sum = Sha256::hash(Want);
  Want.insert(Want.end(), Sum.begin(), Sum.end());
  EXPECT_EQ(cantFail(readFileBytes(Store->cachePath(Result->Digest))), Want);
}

TEST_F(StoreFaultTest, GcFaultFailsWithoutSweeping) {
  TempDir Dir("gc_fault");
  std::string Root = Dir.Path + "/store";
  auto Store = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeStoreShard(1)).takeError());
  cantFail(Store->merge({}).takeError()); // Populate the cache.
  auto Before = snapshotTree(Root);

  fault::arm("store.gc", 1);
  auto Stats = Store->gc();
  EXPECT_FALSE(static_cast<bool>(Stats));
  (void)Stats.takeError();
  fault::disarmAll();
  EXPECT_EQ(snapshotTree(Root), Before);
}

TEST_F(StoreFaultTest, RetrySurvivesTransientWriteFault) {
  TempDir Dir("retry");
  std::string Root = Dir.Path + "/store";
  StoreOptions Opts;
  Opts.IoRetries = 1;
  Opts.RetryBackoffMs = 0;
  auto Store = ProfileStore::open(Root, Opts);
  ASSERT_TRUE(static_cast<bool>(Store));

  // One transient fault on the first write: the retry succeeds and the
  // ingest completes as if nothing happened.
  fault::arm("file.write", 1); // Count 1: only the first call fails.
  auto Digest = Store->put(makeStoreShard(7));
  uint64_t Fired = fault::firedCount("file.write");
  fault::disarmAll();
  ASSERT_TRUE(static_cast<bool>(Digest));
  EXPECT_EQ(Fired, 1u); // The fault really struck; the retry absorbed it.
  auto Loaded = Store->loadShard(*Digest);
  ASSERT_TRUE(static_cast<bool>(Loaded));
  EXPECT_EQ(Loaded->Arcs.size(), 1u);

  // With retries disabled the same fault is fatal.
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  auto Store2 = ProfileStore::open(Root + "2", NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store2));
  fault::arm("file.write", 1);
  auto Failed = Store2->put(makeStoreShard(7));
  EXPECT_FALSE(static_cast<bool>(Failed));
  (void)Failed.takeError();
}

TEST_F(StoreFaultTest, GcSweepsStaleTempFiles) {
  TempDir Dir("tmp_sweep");
  std::string Root = Dir.Path + "/store";
  auto Store = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeStoreShard(1)).takeError());
  // Plant the residue an interrupted writer (pre-rename crash) leaves.
  cantFail(writeFileText(Root + "/index.bin.tmp", "torn"));
  cantFail(writeFileText(Root + "/cache/deadbeef.gmon.tmp", "torn"));

  auto Stats = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->TempFiles, 2u);
  EXPECT_FALSE(anyTmpFile(Root));
  // The shard object and index survive.
  EXPECT_TRUE(fileExists(Root + "/index.bin"));
  EXPECT_TRUE(fileExists(Store->objectPath(Store->shards().front().Digest)));
}

TEST_F(StoreFaultTest, TolerantStoreIngestsTruncatedShard) {
  TempDir Dir("tolerant_put");
  std::string Torn = Dir.Path + "/torn.out";
  auto Bytes = writeGmonDense(makeRefData());
  Bytes.resize(ArcsStart + 2 * 24); // Keep two whole arc records.
  cantFail(writeFileBytes(Torn, Bytes));

  // Strict store: rejected.
  auto Strict = ProfileStore::open(Dir.Path + "/strict");
  ASSERT_TRUE(static_cast<bool>(Strict));
  auto Rejected = Strict->putFile(Torn);
  EXPECT_FALSE(static_cast<bool>(Rejected));
  (void)Rejected.takeError();

  // Tolerant store: the salvaged prefix is ingested.
  StoreOptions Tol;
  Tol.TolerantReads = true;
  auto Store = ProfileStore::open(Dir.Path + "/tolerant", Tol);
  ASSERT_TRUE(static_cast<bool>(Store));
  auto Digest = Store->putFile(Torn);
  ASSERT_TRUE(static_cast<bool>(Digest));
  auto Loaded = Store->loadShard(*Digest);
  ASSERT_TRUE(static_cast<bool>(Loaded));
  EXPECT_EQ(Loaded->Arcs.size(), 2u);
  EXPECT_EQ(Loaded->Hist.totalSamples(), makeRefData().Hist.totalSamples());
}

TEST_F(StoreFaultTest, TolerantStoreIngestsTruncatedSparseShard) {
  TempDir Dir("tolerant_put_v3");
  std::string Torn = Dir.Path + "/torn.out";
  auto Bytes = writeGmon(makeRefData());
  Bytes.resize(PairsStart + 2 * 5 + 1); // Five whole pairs, one torn.
  cantFail(writeFileBytes(Torn, Bytes));

  auto Strict = ProfileStore::open(Dir.Path + "/strict");
  ASSERT_TRUE(static_cast<bool>(Strict));
  auto Rejected = Strict->putFile(Torn);
  EXPECT_FALSE(static_cast<bool>(Rejected));
  (void)Rejected.takeError();

  StoreOptions Tol;
  Tol.TolerantReads = true;
  auto Store = ProfileStore::open(Dir.Path + "/tolerant", Tol);
  ASSERT_TRUE(static_cast<bool>(Store));
  auto Digest = Store->putFile(Torn);
  ASSERT_TRUE(static_cast<bool>(Digest));
  auto Loaded = Store->loadShard(*Digest);
  ASSERT_TRUE(static_cast<bool>(Loaded));
  EXPECT_TRUE(Loaded->Arcs.empty());
  EXPECT_EQ(Loaded->Hist.totalSamples(), 1u + 2 + 3 + 4 + 5);
}

TEST_F(StoreFaultTest, CompactionFaultSweepNeverTearsStore) {
  // Crash-safety of the tiered fold: a fault at any I/O step of a
  // compaction leaves the store byte-identical — or cleanly advanced by
  // one committed run file that gc() sweeps — and reports stay exact.
  TempDir Dir("compact_sweep");
  std::string Root = Dir.Path + "/store";
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  NoRetry.CompactionFanout = 2;
  auto Store = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 1; S <= 4; ++S)
    cantFail(Store->put(makeStoreShard(S), Sha256Digest{}, "profile", S)
                 .takeError());
  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));
  std::vector<uint8_t> RefBytes = writeGmon(Reference->Data);
  auto Before = snapshotTree(Root);

  // A fanout-2 fold checks store.compact once, reads one object per
  // folded input, writes and renames the run file, then appends the run's
  // journal record (the journal stays smaller than index.bin, so no
  // checkpoint follows).  A fault after the run file's rename advances the
  // store by one orphan run; everything earlier must change nothing, and
  // a torn append is cut back.
  struct SweepCase {
    const char *Point;
    uint64_t Nth;
  };
  const SweepCase Cases[] = {
      {"store.compact", 1}, {"file.read", 1},   {"file.read", 2},
      {"file.write", 1},    {"file.rename", 1}, {"file.append", 1},
  };
  for (const SweepCase &C : Cases) {
    fault::arm(C.Point, C.Nth, 0);
    auto Worked = Store->compactStep();
    EXPECT_FALSE(static_cast<bool>(Worked)) << C.Point << " nth " << C.Nth;
    (void)Worked.takeError();
    fault::disarmAll();

    // No torn temporary, and every prior artifact byte-identical.
    EXPECT_FALSE(anyTmpFile(Root)) << C.Point << " nth " << C.Nth;
    for (const auto &[Path, Bytes] : Before)
      EXPECT_EQ(cantFail(readFileBytes(Path)), Bytes)
          << C.Point << " nth " << C.Nth << ": " << Path;

    // A fresh handle sees the pre-fold index; gc sweeps any orphan run
    // the interrupted commit stranded, restoring the reference tree.
    auto Fresh = ProfileStore::open(Root, NoRetry);
    ASSERT_TRUE(static_cast<bool>(Fresh)) << C.Point;
    EXPECT_TRUE(Fresh->runs().empty()) << C.Point << " nth " << C.Nth;
    cantFail(Fresh->gc().takeError());
    EXPECT_EQ(snapshotTree(Root), Before) << C.Point << " nth " << C.Nth;

    // Reports over the recovered store are still byte-exact.
    cantFail(removeFile(Fresh->cachePath(Reference->Digest)));
    auto Merged = Fresh->merge({});
    ASSERT_TRUE(static_cast<bool>(Merged)) << C.Point << " nth " << C.Nth;
    EXPECT_EQ(writeGmon(Merged->Data), RefBytes)
        << C.Point << " nth " << C.Nth;
    EXPECT_EQ(snapshotTree(Root), Before) << C.Point << " nth " << C.Nth;
  }

  // Unarmed, compaction converges and the compacted report matches the
  // flat reference bytes.
  cantFail(Store->compact().takeError());
  EXPECT_FALSE(Store->compactionPending());
  EXPECT_FALSE(Store->runs().empty());
  cantFail(removeFile(Store->cachePath(Reference->Digest)));
  auto Compacted = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Compacted));
  EXPECT_GT(Compacted->RunsUsed, 0u);
  EXPECT_EQ(writeGmon(Compacted->Data), RefBytes);
}

TEST_F(StoreFaultTest, CompactionFaultMidSequenceResumesCleanly) {
  // A fold that dies between two committed folds must not disturb the
  // earlier ones: rerunning compaction picks up where it left off and the
  // final state is identical to an uninterrupted pass.
  TempDir Dir("compact_resume");
  std::string Root = Dir.Path + "/store";
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  NoRetry.CompactionFanout = 2;
  auto Store = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 1; S <= 4; ++S)
    cantFail(Store->put(makeStoreShard(S), Sha256Digest{}, "profile", S)
                 .takeError());
  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));

  // First fold commits; the second dies writing its run file.
  cantFail(Store->compactStep().takeError());
  ASSERT_EQ(Store->runs().size(), 1u);
  fault::arm("file.write", 1, 0);
  auto Died = Store->compactStep();
  EXPECT_FALSE(static_cast<bool>(Died));
  (void)Died.takeError();
  fault::disarmAll();
  // The committed fold survives the failed one.
  ASSERT_EQ(Store->runs().size(), 1u);
  EXPECT_TRUE(fileExists(Store->runPath(Store->runs()[0].Digest)));

  // Resume: compaction converges and reports stay byte-exact.
  cantFail(Store->compact().takeError());
  EXPECT_FALSE(Store->compactionPending());
  cantFail(removeFile(Store->cachePath(Reference->Digest)));
  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(writeGmon(Merged->Data), writeGmon(Reference->Data));
}

//===----------------------------------------------------------------------===//
// Index journal: damage, cuts and crashes (docs/FORMATS.md "index.log")
//===----------------------------------------------------------------------===//

namespace {

/// index.log's header, and one shard record: length u32, kind u8, the
/// 132-byte shard record, and an 8-byte check.
constexpr size_t JournalHeaderBytes = 24;
constexpr size_t ShardRecordBytes = 4 + 1 + 132 + 8;

/// Opens a fresh store at \p Root and puts makeStoreShard(1..N), shard S
/// captured at time S.  Seven puts leave shards 1-4 in index.bin and 5-7 as
/// three journal records: a checkpoint is written when the journal holds
/// more bytes than index.bin.
void putStoreShards(const std::string &Root, uint64_t N) {
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  auto Store = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 1; S <= N; ++S)
    cantFail(
        Store->put(makeStoreShard(S), Sha256Digest{}, "profile", S).takeError());
}

std::vector<Sha256Digest> shardDigests(const ProfileStore &Store) {
  std::vector<Sha256Digest> Out;
  for (const ShardInfo &S : Store.shards())
    Out.push_back(S.Digest);
  return Out;
}

} // namespace

TEST_F(StoreFaultTest, JournalPutAppendsOneRecordAndLeavesCheckpoint) {
  // The point of the journal: a put that does not checkpoint leaves
  // index.bin byte-identical and appends exactly one record, laid out as
  // docs/FORMATS.md says.
  TempDir Dir("journal_append");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 5);
  const std::string Log = Root + "/index.log";
  ASSERT_TRUE(fileExists(Log));
  std::vector<uint8_t> Index = cantFail(readFileBytes(Root + "/index.bin"));
  std::vector<uint8_t> Journal = cantFail(readFileBytes(Log));
  ASSERT_EQ(Journal.size(), JournalHeaderBytes + ShardRecordBytes);
  ASSERT_GE(Index.size(), Journal.size() + ShardRecordBytes);

  auto Store = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Store));
  Sha256Digest Digest = cantFail(Store->put(makeStoreShard(6)));
  EXPECT_EQ(cantFail(readFileBytes(Root + "/index.bin")), Index);
  std::vector<uint8_t> Grown = cantFail(readFileBytes(Log));
  ASSERT_EQ(Grown.size(), Journal.size() + ShardRecordBytes);
  EXPECT_TRUE(std::equal(Journal.begin(), Journal.end(), Grown.begin()));

  const uint8_t *R = Grown.data() + Journal.size();
  EXPECT_EQ(R[0] | R[1] << 8 | R[2] << 16 | R[3] << 24, 132);
  EXPECT_EQ(R[4], 1); // A shard record.
  EXPECT_TRUE(std::equal(Digest.begin(), Digest.end(), R + 5));
  Sha256Digest Check = Sha256::hash(R, 5 + 132);
  EXPECT_TRUE(std::equal(Check.begin(), Check.begin() + 8, R + 5 + 132));
}

TEST_F(StoreFaultTest, JournalEveryCut) {
  // A crash mid-append leaves a prefix of the journal that ends inside
  // its last record.  At every cut, reopening keeps exactly the whole
  // records before it — every put acknowledged by then — and the next put
  // cuts the torn tail off and appends a whole record in its place.
  TempDir Dir("journal_cuts");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 7);
  const std::string Log = Root + "/index.log";
  const std::vector<uint8_t> Full = cantFail(readFileBytes(Log));
  ASSERT_EQ(Full.size(), JournalHeaderBytes + 3 * ShardRecordBytes);
  const size_t InCheckpoint = 4;

  for (size_t Cut = 0; Cut != Full.size(); ++Cut) {
    const size_t Whole = Cut < JournalHeaderBytes
                             ? 0
                             : (Cut - JournalHeaderBytes) / ShardRecordBytes;
    cantFail(writeFileBytes(
        Log, std::vector<uint8_t>(Full.begin(), Full.begin() + Cut)));
    auto Store = ProfileStore::open(Root);
    ASSERT_TRUE(static_cast<bool>(Store)) << "cut " << Cut << ": "
                                          << Store.message();
    std::vector<Sha256Digest> Kept = shardDigests(*Store);
    ASSERT_EQ(Kept.size(), InCheckpoint + Whole) << "cut " << Cut;
    for (const ShardInfo &S : Store->shards())
      EXPECT_LE(S.CaptureTimeNs, InCheckpoint + Whole) << "cut " << Cut;
    Sha256Digest Added = cantFail(Store->put(makeStoreShard(8)));
    EXPECT_EQ(std::filesystem::file_size(Log),
              JournalHeaderBytes + (Whole + 1) * ShardRecordBytes)
        << "cut " << Cut;
    auto Reopened = ProfileStore::open(Root);
    ASSERT_TRUE(static_cast<bool>(Reopened)) << "cut " << Cut;
    Kept.push_back(Added);
    std::sort(Kept.begin(), Kept.end());
    EXPECT_EQ(shardDigests(*Reopened), Kept) << "cut " << Cut;
  }
}

TEST_F(StoreFaultTest, JournalEveryByteFlip) {
  // Damage is told from a tear by what follows it: a failing last record
  // is dropped like a torn one, but a failing record with an intact one
  // after it fails open, naming the file and the record's offset.  A
  // damaged header always fails open.
  TempDir Dir("journal_flips");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 7);
  const std::string Log = Root + "/index.log";
  const std::vector<uint8_t> Full = cantFail(readFileBytes(Log));
  ASSERT_EQ(Full.size(), JournalHeaderBytes + 3 * ShardRecordBytes);
  const size_t LastStart = Full.size() - ShardRecordBytes;
  size_t KeptWhenLastDropped = 0;
  {
    cantFail(writeFileBytes(
        Log, std::vector<uint8_t>(Full.begin(), Full.begin() + LastStart)));
    auto Store = ProfileStore::open(Root);
    ASSERT_TRUE(static_cast<bool>(Store));
    KeptWhenLastDropped = Store->shards().size();
  }
  ASSERT_EQ(KeptWhenLastDropped, 6u);

  for (size_t Off = 0; Off != Full.size(); ++Off)
    for (uint8_t Mask : {uint8_t(0x01), uint8_t(0x80)}) {
      std::vector<uint8_t> Bytes = Full;
      Bytes[Off] ^= Mask;
      cantFail(writeFileBytes(Log, Bytes));
      auto Store = ProfileStore::open(Root);
      if (Off >= LastStart) {
        ASSERT_TRUE(static_cast<bool>(Store))
            << "offset " << Off << ": " << Store.message();
        EXPECT_EQ(Store->shards().size(), KeptWhenLastDropped)
            << "offset " << Off;
        continue;
      }
      ASSERT_FALSE(static_cast<bool>(Store)) << "offset " << Off;
      if (Off < JournalHeaderBytes) {
        EXPECT_NE(Store.message().find(Log + ": "), std::string::npos)
            << Store.message();
        continue;
      }
      const size_t Record =
          Off - (Off - JournalHeaderBytes) % ShardRecordBytes;
      EXPECT_EQ(Store.message(), Log + ": damaged record at offset " +
                                     std::to_string(Record))
          << "offset " << Off;
    }
}

TEST_F(StoreFaultTest, JournalOfAStaleGenerationIsIgnored) {
  // gc expiry checkpoints index.bin under a new generation, then empties
  // the journal.  A crash between the two leaves the old journal beside
  // the new checkpoint; replaying it would bring back what gc expired.
  TempDir Dir("journal_stale");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 7);
  const std::string Log = Root + "/index.log";
  const std::vector<uint8_t> OldJournal = cantFail(readFileBytes(Log));
  ASSERT_GT(OldJournal.size(), JournalHeaderBytes);

  std::vector<Sha256Digest> AfterGc;
  {
    auto Store = ProfileStore::open(Root);
    ASSERT_TRUE(static_cast<bool>(Store));
    GcOptions Expire;
    Expire.ExpireBeforeNs = 2; // Shard 1 only.
    auto Stats = Store->gc(Expire);
    ASSERT_TRUE(static_cast<bool>(Stats));
    EXPECT_EQ(Stats->ExpiredShards, 1u);
    AfterGc = shardDigests(*Store);
  }
  ASSERT_EQ(AfterGc.size(), 6u);
  cantFail(writeFileBytes(Log, OldJournal));

  auto Store = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Store)) << Store.message();
  EXPECT_EQ(shardDigests(*Store), AfterGc);
  for (const ShardInfo &S : Store->shards())
    EXPECT_NE(S.CaptureTimeNs, 1u);

  // The next put cuts the stale journal off and starts a fresh one.
  Sha256Digest Added = cantFail(Store->put(makeStoreShard(8)));
  EXPECT_EQ(std::filesystem::file_size(Log),
            JournalHeaderBytes + ShardRecordBytes);
  auto Reopened = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  std::vector<Sha256Digest> Want = AfterGc;
  Want.push_back(Added);
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(shardDigests(*Reopened), Want);
}

TEST_F(StoreFaultTest, CheckpointGoesPastAnIgnoredJournalsGeneration) {
  // An index.bin restored from an older checkpoint ignores the newer
  // journal beside it.  A checkpoint from that state must not take the
  // journal's generation, or the next open would replay it over a store
  // it was never written against.
  TempDir Dir("journal_newer");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 3);
  const std::vector<uint8_t> OldIndex =
      cantFail(readFileBytes(Root + "/index.bin"));
  {
    StoreOptions Opts;
    auto Store = ProfileStore::open(Root, Opts);
    ASSERT_TRUE(static_cast<bool>(Store));
    for (uint64_t S = 4; S <= 7; ++S)
      cantFail(Store->put(makeStoreShard(S), Sha256Digest{}, "profile", S)
                   .takeError());
  }
  ASSERT_GT(std::filesystem::file_size(Root + "/index.log"),
            JournalHeaderBytes);
  cantFail(writeFileBytes(Root + "/index.bin", OldIndex));

  std::vector<Sha256Digest> AfterGc;
  {
    auto Store = ProfileStore::open(Root);
    ASSERT_TRUE(static_cast<bool>(Store));
    ASSERT_EQ(Store->shards().size(), 2u);
    GcOptions Expire;
    Expire.ExpireBeforeNs = 2;
    cantFail(Store->gc(Expire).takeError());
    AfterGc = shardDigests(*Store);
  }
  ASSERT_EQ(AfterGc.size(), 1u);
  auto Reopened = ProfileStore::open(Root);
  ASSERT_TRUE(static_cast<bool>(Reopened)) << Reopened.message();
  EXPECT_EQ(shardDigests(*Reopened), AfterGc);
}

TEST_F(StoreFaultTest, JournalAppendThatCannotBeCutBackRefusesWrites) {
  // A torn append is cut back before the put reports failure.  When the
  // cut fails too, the handle refuses every later write — it no longer
  // knows where the journal ends — until the store is reopened, which
  // drops the torn tail as it drops any torn last record.
  TempDir Dir("journal_refuse");
  std::string Root = Dir.Path + "/store";
  putStoreShards(Root, 5);
  const std::string Log = Root + "/index.log";
  const std::vector<uint8_t> Before = cantFail(readFileBytes(Log));
  StoreOptions NoRetry;
  NoRetry.IoRetries = 0;
  auto Store = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Store));

  fault::arm("file.append", 1);
  fault::arm("file.truncate", 1);
  auto Torn = Store->put(makeStoreShard(6));
  fault::disarmAll();
  ASSERT_FALSE(static_cast<bool>(Torn));
  (void)Torn.takeError();
  EXPECT_EQ(std::filesystem::file_size(Log),
            Before.size() + ShardRecordBytes / 2);

  auto Refused = Store->put(makeStoreShard(7));
  ASSERT_FALSE(static_cast<bool>(Refused));
  EXPECT_NE(Refused.message().find("could not be cut back"),
            std::string::npos)
      << Refused.message();
  (void)Refused.takeError();
  GcOptions Expire;
  Expire.ExpireBeforeNs = 2;
  auto Gc = Store->gc(Expire);
  EXPECT_FALSE(static_cast<bool>(Gc));
  (void)Gc.takeError();

  auto Reopened = ProfileStore::open(Root, NoRetry);
  ASSERT_TRUE(static_cast<bool>(Reopened)) << Reopened.message();
  EXPECT_EQ(Reopened->shards().size(), 5u);
  cantFail(Reopened->put(makeStoreShard(6)).takeError());
  std::vector<uint8_t> After = cantFail(readFileBytes(Log));
  ASSERT_EQ(After.size(), Before.size() + ShardRecordBytes);
  EXPECT_TRUE(std::equal(Before.begin(), Before.end(), After.begin()));
}
