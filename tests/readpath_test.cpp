//===- tests/readpath_test.cpp - Zero-copy read path ----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zero-copy read path (docs/READPATH.md): MappedFile mapping and
/// fallback semantics under injected faults, a differential corpus
/// proving the in-place gmon parser bit-identical to the legacy
/// BinaryStream reference reader (tests/reference_gmon.h) over every
/// truncation cut and byte mutation (strict and tolerant) of dense
/// version 1 and 2 files and sparse version 3 files, and the flat
/// symbol resolver and open-addressing arc index against their
/// historical behavior.
///
/// The ReadPathCorpusTest suite doubles as the ASan smoke body: the
/// in-place parser reads borrowed bytes with manual bounds checks, so
/// the corpus is exactly the input set where an off-by-one would touch
/// memory past the mapping (see gprof_asan_readpath_smoke in
/// tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "gmon_edge_profiles.h"
#include "reference_gmon.h"

#include "core/SymbolTable.h"
#include "support/BinaryStream.h"
#include "gmon/GmonFile.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

using namespace gprof;

namespace {

/// Every fixture disarms on teardown so a failing test cannot poison the
/// process-wide registry for its successors.
class FaultFixture : public ::testing::Test {
protected:
  void SetUp() override { fault::disarmAll(); }
  void TearDown() override { fault::disarmAll(); }
};

class MappedFileTest : public FaultFixture {};
class ReadPathCorpusTest : public FaultFixture {};
class ResolverTest : public ::testing::Test {};
class ArcIndexTest : public ::testing::Test {};

/// A fresh directory under the test temp dir, removed on destruction.
/// The pid is part of the path: the gprof_asan_readpath_smoke target
/// reruns these tests in a second process, and under `ctest -j` both
/// processes can hold the same test live at once — a shared path would
/// let one process's cleanup delete the other's files mid-test.
struct TempDir {
  explicit TempDir(const std::string &Name)
      : Path(testing::TempDir() + "/gprof_readpath_" +
             std::to_string(::getpid()) + "_" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string Path;
};

/// Reference profile with a fully known serialization — the same shape
/// as the crash-safety corpus (tests/fault_test.cpp): 8 histogram
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

/// Runs one byte image through the reference reader and the in-place
/// reader under \p Tolerant and asserts bit-identical outcomes: same
/// success/failure, same error message, same salvage tallies, and a
/// byte-identical re-serialization of the recovered profile.
void expectReadersAgree(const std::vector<uint8_t> &Bytes, bool Tolerant,
                        const std::string &What) {
  GmonReadOptions Opts;
  Opts.Tolerant = Tolerant;
  GmonSalvage SRef, SNew;
  auto Ref = readGmonReference(Bytes, Opts, &SRef);
  auto New = readGmon(Bytes.data(), Bytes.size(), Opts, &SNew);
  ASSERT_EQ(static_cast<bool>(Ref), static_cast<bool>(New)) << What;
  if (!Ref) {
    auto RefErr = Ref.takeError();
    auto NewErr = New.takeError();
    EXPECT_EQ(RefErr.message(), NewErr.message()) << What;
    return;
  }
  EXPECT_EQ(writeGmon(*Ref), writeGmon(*New)) << What;
  EXPECT_EQ(SRef.Damaged, SNew.Damaged) << What;
  EXPECT_EQ(SRef.SalvagedBuckets, SNew.SalvagedBuckets) << What;
  EXPECT_EQ(SRef.DroppedBuckets, SNew.DroppedBuckets) << What;
  EXPECT_EQ(SRef.SalvagedArcs, SNew.SalvagedArcs) << What;
  EXPECT_EQ(SRef.DroppedArcs, SNew.DroppedArcs) << What;
  EXPECT_EQ(SRef.SalvagedContexts, SNew.SalvagedContexts) << What;
  EXPECT_EQ(SRef.DroppedContexts, SNew.DroppedContexts) << What;
  EXPECT_EQ(SRef.TrailingBytes, SNew.TrailingBytes) << What;
  EXPECT_EQ(SRef.Note, SNew.Note) << What;
}

/// makeRefData() plus a context tree: serializes as version 2 with one
/// extension section, covering the section plumbing and the node records
/// in both readers (same shape as tests/fault_test.cpp).
ProfileData makeRefDataWithContexts() {
  ProfileData D = makeRefData();
  std::vector<CctNode> T;
  T.push_back({CctRootParent, 0x10, 0x100, 1, 2});
  T.push_back({0, 0x110, 0x200, 3, 4});
  T.push_back({1, 0x210, 0x300, 5, 6});
  T.push_back({0, 0x120, 0x200, 7, 8});
  D.addContextTree(T);
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// MappedFile
//===----------------------------------------------------------------------===//

TEST_F(MappedFileTest, MappingAndFallbackSeeIdenticalBytes) {
  TempDir Dir("mapped_basic");
  std::string Path = Dir.Path + "/blob.bin";
  std::vector<uint8_t> Bytes(8192);
  for (size_t I = 0; I != Bytes.size(); ++I)
    Bytes[I] = static_cast<uint8_t>(I * 7 + 3);
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, Bytes)));

  auto Mapped = MappedFile::open(Path);
  ASSERT_TRUE(static_cast<bool>(Mapped));
  EXPECT_TRUE(Mapped->isMapped());
  ASSERT_EQ(Mapped->size(), Bytes.size());
  EXPECT_EQ(std::vector<uint8_t>(Mapped->data(),
                                 Mapped->data() + Mapped->size()),
            Bytes);

  auto Fallback = MappedFile::open(Path, /*ForceReadFallback=*/true);
  ASSERT_TRUE(static_cast<bool>(Fallback));
  EXPECT_FALSE(Fallback->isMapped());
  ASSERT_EQ(Fallback->size(), Bytes.size());
  EXPECT_EQ(std::vector<uint8_t>(Fallback->data(),
                                 Fallback->data() + Fallback->size()),
            Bytes);
}

TEST_F(MappedFileTest, EmptyFileYieldsEmptyUnmappedView) {
  TempDir Dir("mapped_empty");
  std::string Path = Dir.Path + "/empty.bin";
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, {})));
  auto Map = MappedFile::open(Path);
  ASSERT_TRUE(static_cast<bool>(Map));
  EXPECT_EQ(Map->size(), 0u);
  EXPECT_FALSE(Map->isMapped());
}

TEST_F(MappedFileTest, MissingFileIsACleanError) {
  TempDir Dir("mapped_missing");
  auto Map = MappedFile::open(Dir.Path + "/nope.bin");
  ASSERT_FALSE(static_cast<bool>(Map));
  EXPECT_NE(Map.message().find("cannot open"), std::string::npos);
}

TEST_F(MappedFileTest, SharedFileReadFaultCoversTheZeroCopyPath) {
  TempDir Dir("mapped_readfault");
  std::string Path = Dir.Path + "/blob.bin";
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, {1, 2, 3})));
  fault::arm("file.read", 1);
  auto Map = MappedFile::open(Path);
  ASSERT_FALSE(static_cast<bool>(Map));
  EXPECT_NE(Map.message().find("file.read"), std::string::npos);
}

TEST_F(MappedFileTest, MmapFaultSurfacesAsErrorNotCrash) {
  TempDir Dir("mapped_mmapfault");
  std::string Path = Dir.Path + "/blob.bin";
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, {1, 2, 3})));
  fault::arm("file.mmap", 1);
  auto Map = MappedFile::open(Path);
  ASSERT_FALSE(static_cast<bool>(Map));
  EXPECT_NE(Map.message().find("file.mmap"), std::string::npos);
  // The registry point fires once; the next open succeeds.
  auto Retry = MappedFile::open(Path);
  ASSERT_TRUE(static_cast<bool>(Retry));
  EXPECT_EQ(Retry->size(), 3u);
}

TEST_F(MappedFileTest, GmonFileReadFailsCleanlyUnderMmapFault) {
  TempDir Dir("mapped_gmonfault");
  std::string Path = Dir.Path + "/p.gmon";
  ASSERT_FALSE(static_cast<bool>(writeGmonFile(Path, makeRefData())));
  fault::arm("file.mmap", 1);
  auto Data = readGmonFile(Path);
  ASSERT_FALSE(static_cast<bool>(Data));
  EXPECT_NE(Data.message().find("file.mmap"), std::string::npos);
  auto Retry = readGmonFile(Path);
  ASSERT_TRUE(static_cast<bool>(Retry));
  EXPECT_EQ(writeGmon(*Retry), writeGmon(makeRefData()));
}

//===----------------------------------------------------------------------===//
// Differential corpus: in-place parser vs the BinaryStream reference
//===----------------------------------------------------------------------===//

TEST_F(ReadPathCorpusTest, IntactFileBitIdenticalInBothModes) {
  std::vector<uint8_t> Bytes = writeGmonDense(makeRefData());
  expectReadersAgree(Bytes, /*Tolerant=*/false, "intact strict");
  expectReadersAgree(Bytes, /*Tolerant=*/true, "intact tolerant");
}

TEST_F(ReadPathCorpusTest, TruncationEveryCutPointMatchesReference) {
  const std::vector<uint8_t> Full = writeGmonDense(makeRefData());
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    std::vector<uint8_t> Bytes(Full.begin(), Full.begin() + Cut);
    expectReadersAgree(Bytes, false, "strict cut at " + std::to_string(Cut));
    expectReadersAgree(Bytes, true, "tolerant cut at " + std::to_string(Cut));
  }
}

TEST_F(ReadPathCorpusTest, EveryByteMutationMatchesReference) {
  const std::vector<uint8_t> Full = writeGmonDense(makeRefData());
  for (size_t I = 0; I != Full.size(); ++I) {
    std::vector<uint8_t> Bytes = Full;
    Bytes[I] ^= 0xFF;
    expectReadersAgree(Bytes, false, "strict flip at " + std::to_string(I));
    expectReadersAgree(Bytes, true, "tolerant flip at " + std::to_string(I));
  }
}

TEST_F(ReadPathCorpusTest, TrailingJunkMatchesReference) {
  std::vector<uint8_t> Bytes = writeGmonDense(makeRefData());
  Bytes.insert(Bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  expectReadersAgree(Bytes, false, "strict trailing");
  expectReadersAgree(Bytes, true, "tolerant trailing");
}

TEST_F(ReadPathCorpusTest, ContextFileIntactBitIdenticalInBothModes) {
  std::vector<uint8_t> Bytes = writeGmonDense(makeRefDataWithContexts());
  expectReadersAgree(Bytes, /*Tolerant=*/false, "v2 intact strict");
  expectReadersAgree(Bytes, /*Tolerant=*/true, "v2 intact tolerant");
}

TEST_F(ReadPathCorpusTest, ContextTruncationEveryCutPointMatchesReference) {
  const std::vector<uint8_t> Full = writeGmonDense(makeRefDataWithContexts());
  for (size_t Cut = 0; Cut != Full.size(); ++Cut) {
    std::vector<uint8_t> Bytes(Full.begin(), Full.begin() + Cut);
    expectReadersAgree(Bytes, false,
                       "v2 strict cut at " + std::to_string(Cut));
    expectReadersAgree(Bytes, true,
                       "v2 tolerant cut at " + std::to_string(Cut));
  }
}

TEST_F(ReadPathCorpusTest, ContextEveryByteMutationMatchesReference) {
  const std::vector<uint8_t> Full = writeGmonDense(makeRefDataWithContexts());
  for (size_t I = 0; I != Full.size(); ++I) {
    std::vector<uint8_t> Bytes = Full;
    Bytes[I] ^= 0xFF;
    expectReadersAgree(Bytes, false,
                       "v2 strict flip at " + std::to_string(I));
    expectReadersAgree(Bytes, true,
                       "v2 tolerant flip at " + std::to_string(I));
  }
}

TEST_F(ReadPathCorpusTest, ContextUnknownSectionSkipMatchesReference) {
  // Forward compatibility through both readers: an extra section with an
  // unknown tag is skipped whole; truncating inside it salvages the rest.
  std::vector<uint8_t> Bytes = writeGmonDense(makeRefDataWithContexts());
  Bytes[53 + 8 * 8 + 8 + 24 * 5] = 2; // nsections: 1 -> 2
  const uint8_t Unknown[] = {0x58, 0x58, 0x58, 0x58,
                             6,    0,    0,    0,    0, 0, 0, 0,
                             9,    8,    7,    6,    5, 4};
  Bytes.insert(Bytes.end(), std::begin(Unknown), std::end(Unknown));
  for (size_t Cut = Bytes.size() - sizeof(Unknown); Cut <= Bytes.size();
       ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    expectReadersAgree(Short, false,
                       "unknown-section strict cut at " + std::to_string(Cut));
    expectReadersAgree(Short, true,
                       "unknown-section tolerant cut at " +
                           std::to_string(Cut));
  }
}

namespace {

/// Writes every prefix of \p Full to a file and requires readGmonFile
/// (the mmap path) to match the reference reader on it in both modes.
void expectFileReadsAgreeAtEveryCut(const std::vector<uint8_t> &Full,
                                    const std::string &Path) {
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    std::vector<uint8_t> Bytes(Full.begin(), Full.begin() + Cut);
    ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, Bytes)));
    for (bool Tolerant : {false, true}) {
      GmonReadOptions Opts;
      Opts.Tolerant = Tolerant;
      GmonSalvage SRef, SFile;
      auto Ref = readGmonReference(Bytes, Opts, &SRef);
      auto File = readGmonFile(Path, Opts, &SFile);
      const std::string What =
          (Tolerant ? "tolerant" : "strict") + std::string(" file cut at ") +
          std::to_string(Cut);
      ASSERT_EQ(static_cast<bool>(Ref), static_cast<bool>(File)) << What;
      if (!Ref) {
        auto RefErr = Ref.takeError();
        auto FileErr = File.takeError();
        // The file layer prefixes the path; the parse diagnosis after it
        // must be the reference's, byte for byte.
        EXPECT_EQ(FileErr.message(), Path + ": " + RefErr.message()) << What;
        continue;
      }
      EXPECT_EQ(writeGmon(*Ref), writeGmon(*File)) << What;
      EXPECT_EQ(SRef.Note, SFile.Note) << What;
      EXPECT_EQ(SRef.SalvagedArcs, SFile.SalvagedArcs) << What;
      EXPECT_EQ(SRef.DroppedArcs, SFile.DroppedArcs) << What;
      EXPECT_EQ(SRef.SalvagedBuckets, SFile.SalvagedBuckets) << What;
      EXPECT_EQ(SRef.DroppedBuckets, SFile.DroppedBuckets) << What;
    }
  }
}

} // namespace

TEST_F(ReadPathCorpusTest, MmapFileReadMatchesReferenceAtEveryCut) {
  TempDir Dir("corpus_file");
  expectFileReadsAgreeAtEveryCut(writeGmonDense(makeRefData()),
                                 Dir.Path + "/cut.gmon");
}

TEST_F(ReadPathCorpusTest, MmapCountersAdvanceOnFileReads) {
  TempDir Dir("corpus_counters");
  std::string Path = Dir.Path + "/p.gmon";
  ASSERT_FALSE(static_cast<bool>(writeGmonFile(Path, makeRefData())));
  const uint64_t Size = cantFail(readFileBytes(Path)).size();
  const uint64_t Files0 = telemetry::counter("gmon.mmap.files").value();
  const uint64_t Bytes0 = telemetry::counter("gmon.mmap.bytes").value();
  ASSERT_TRUE(static_cast<bool>(readGmonFile(Path)));
  ASSERT_TRUE(static_cast<bool>(readGmonFile(Path)));
  EXPECT_EQ(telemetry::counter("gmon.mmap.files").value(), Files0 + 2);
  EXPECT_EQ(telemetry::counter("gmon.mmap.bytes").value(),
            Bytes0 + 2 * Size);
}

//===----------------------------------------------------------------------===//
// Differential corpus over version 3: sparse histograms
//===----------------------------------------------------------------------===//

namespace {

/// The v3 corpus: the reference profile with and without a context tree,
/// then the edge histograms (tests/gmon_edge_profiles.h).
std::vector<std::pair<std::string, ProfileData>> sparseCorpus() {
  std::vector<std::pair<std::string, ProfileData>> Corpus = {
      {"reference", makeRefData()},
      {"reference with contexts", makeRefDataWithContexts()}};
  for (auto &Entry : gmonEdgeProfiles())
    Corpus.push_back(std::move(Entry));
  return Corpus;
}

/// A version-3 file over 16 size-1 buckets, built by hand so the pair
/// bytes can break the canonical rules: \p NonZero, the list's byte
/// length (\p ListBytes, or the size of \p Pairs when it is 0), the raw
/// \p Pairs, then an empty arc table and section list.
std::vector<uint8_t> handBuiltSparse(uint64_t NonZero,
                                     const std::vector<uint8_t> &Pairs,
                                     uint64_t NumBuckets = 16,
                                     uint64_t ListBytes = 0) {
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>("GMON"), 4);
  W.writeU32(3);
  W.writeU64(60); // hz
  W.writeU32(1);  // runs
  W.writeU8(0);   // flags
  W.writeU64(0);  // lowpc
  W.writeU64(NumBuckets);
  W.writeU64(1); // bucketsize
  W.writeU64(NumBuckets);
  W.writeU64(NonZero);
  W.writeU64(ListBytes != 0 ? ListBytes : Pairs.size());
  W.writeBytes(Pairs.data(), Pairs.size());
  W.writeU64(0); // narcs
  W.writeU32(0); // nsections
  return W.takeBytes();
}

} // namespace

TEST_F(ReadPathCorpusTest, SparseFilesRoundTripBitIdentically) {
  for (const auto &[Name, Data] : sparseCorpus()) {
    std::vector<uint8_t> Bytes = writeGmon(Data);
    ASSERT_EQ(Bytes[4], 3) << Name;
    expectReadersAgree(Bytes, false, Name + " intact strict");
    expectReadersAgree(Bytes, true, Name + " intact tolerant");
    // The sparse file decodes to the same dense histogram the v1 file
    // does, and re-serializes to itself.
    ProfileData Back = cantFail(readGmon(Bytes));
    EXPECT_EQ(Back.Hist.counts(), Data.Hist.counts()) << Name;
    EXPECT_EQ(writeGmon(Back), Bytes) << Name;
    EXPECT_EQ(writeGmonDense(Back), writeGmonDense(Data)) << Name;
  }
}

TEST_F(ReadPathCorpusTest, SparseTruncationEveryCutPointMatchesReference) {
  for (const auto &[Name, Data] : sparseCorpus()) {
    const std::vector<uint8_t> Full = writeGmon(Data);
    for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
      std::vector<uint8_t> Bytes(Full.begin(), Full.begin() + Cut);
      expectReadersAgree(Bytes, false,
                         Name + " strict cut at " + std::to_string(Cut));
      expectReadersAgree(Bytes, true,
                         Name + " tolerant cut at " + std::to_string(Cut));
    }
  }
}

TEST_F(ReadPathCorpusTest, SparseEveryByteMutationMatchesReference) {
  for (const auto &[Name, Data] : sparseCorpus()) {
    const std::vector<uint8_t> Full = writeGmon(Data);
    for (size_t I = 0; I != Full.size(); ++I)
      for (uint8_t Flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> Bytes = Full;
        Bytes[I] ^= Flip;
        const std::string At =
            " flip " + std::to_string(Flip) + " at " + std::to_string(I);
        expectReadersAgree(Bytes, false, Name + " strict" + At);
        expectReadersAgree(Bytes, true, Name + " tolerant" + At);
      }
  }
}

TEST_F(ReadPathCorpusTest, SparseTrailingJunkMatchesReference) {
  std::vector<uint8_t> Bytes = writeGmon(makeRefData());
  Bytes.insert(Bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  expectReadersAgree(Bytes, false, "v3 strict trailing");
  expectReadersAgree(Bytes, true, "v3 tolerant trailing");
}

TEST_F(ReadPathCorpusTest, SparseMmapFileReadMatchesReferenceAtEveryCut) {
  TempDir Dir("corpus_file_v3");
  expectFileReadsAgreeAtEveryCut(writeGmon(makeRefDataWithContexts()),
                                 Dir.Path + "/cut.gmon");
}

TEST_F(ReadPathCorpusTest, SparseNonCanonicalRejectedByBothReaders) {
  // Each file breaks one canonical rule of the pair list.  Both readers
  // reject it in both modes, with the same message.
  struct Case {
    const char *What;
    std::vector<uint8_t> Bytes;
    const char *Message;
  };
  const uint8_t C = 0x80; // Continuation bit.
  const Case Cases[] = {
      {"zero count", handBuiltSparse(1, {0, 0}), "pair 0 has a zero count"},
      {"overlong gap", handBuiltSparse(1, {C, 0, 5}),
       "varint at offset 69 is overlong"},
      {"overlong count", handBuiltSparse(1, {0, C | 5, 0}),
       "varint at offset 70 is overlong"},
      {"eleven-byte count",
       handBuiltSparse(1, {0, C | 1, C, C, C, C, C, C, C, C, C, 1}),
       "varint at offset 70 is wider than 64 bits"},
      {"tenth byte past bit 63",
       handBuiltSparse(1, {0, C | 1, C, C, C, C, C, C, C, C, 2}),
       "varint at offset 70 is wider than 64 bits"},
      {"index at nbuckets", handBuiltSparse(1, {16, 1}),
       "pair 0 names a bucket past 16"},
      {"gaps run past nbuckets", handBuiltSparse(2, {10, 1, 5, 1}),
       "pair 1 names a bucket past 16"},
      {"more pairs than buckets",
       handBuiltSparse(17, std::vector<uint8_t>(34, 1)),
       "records 17 nonzero buckets of 16"},
      {"pairs without a histogram", handBuiltSparse(1, {0, 1}, 0),
       "records 1 nonzero buckets of 0"},
      {"list too short for its pairs", handBuiltSparse(3, {0, 1, 0, 1}),
       "pair list of 4 bytes cannot hold 3 pairs"},
      {"list too long for its pairs",
       handBuiltSparse(1, std::vector<uint8_t>(21, 1)),
       "pair list of 21 bytes cannot hold 1 pairs"},
      {"pairs overrun the list", handBuiltSparse(2, {0, C | 1, 1, 0, 1}, 16, 4),
       "pair list does not end at its 4 bytes"},
      {"list outlasts its pairs", handBuiltSparse(1, {0, 1, 0}),
       "pair list does not end at its 3 bytes"},
      {"nbuckets past the cap", handBuiltSparse(0, {}, (1ULL << 23) + 1),
       "implausibly large (8388609 buckets)"},
  };
  for (const Case &K : Cases) {
    for (bool Tolerant : {false, true}) {
      GmonReadOptions Opts;
      Opts.Tolerant = Tolerant;
      auto Back = readGmon(K.Bytes.data(), K.Bytes.size(), Opts);
      ASSERT_FALSE(static_cast<bool>(Back)) << K.What;
      EXPECT_NE(Back.message().find(K.Message), std::string::npos)
          << K.What << ": " << Back.message();
      (void)Back.takeError();
      expectReadersAgree(K.Bytes, Tolerant, K.What);
    }
  }

  // A list that claims more bytes than the file holds: a lie in strict
  // mode.  A tolerant read takes it for a cut, but both pairs decode
  // before the end of the file, so the list ends short of its length and
  // is rejected too.
  std::vector<uint8_t> Long = handBuiltSparse(2, {0, 1, 0, 1}, 16, 40);
  ASSERT_LT(Long.size(), 69u + 40);
  auto Strict = readGmon(Long);
  ASSERT_FALSE(static_cast<bool>(Strict));
  EXPECT_NE(Strict.message().find("longer than the file"), std::string::npos)
      << Strict.message();
  (void)Strict.takeError();
  GmonReadOptions Tol;
  Tol.Tolerant = true;
  auto Tolerant = readGmon(Long.data(), Long.size(), Tol);
  ASSERT_FALSE(static_cast<bool>(Tolerant));
  EXPECT_NE(Tolerant.message().find("does not end at its 40 bytes"),
            std::string::npos)
      << Tolerant.message();
  (void)Tolerant.takeError();
  expectReadersAgree(Long, false, "long strict");
  expectReadersAgree(Long, true, "long tolerant");

  // The widest canonical counts decode: 2^63 and UINT64_MAX in ten bytes.
  std::vector<uint8_t> Pairs = {0, C, C, C, C, C, C, C, C, C, 1}; // 2^63
  Pairs.push_back(0);
  Pairs.insert(Pairs.end(), 9, C | 0x7F);
  Pairs.push_back(1); // UINT64_MAX
  std::vector<uint8_t> Wide = handBuiltSparse(2, Pairs);
  ProfileData Back = cantFail(readGmon(Wide));
  EXPECT_EQ(Back.Hist.bucketCount(0), 1ULL << 63);
  EXPECT_EQ(Back.Hist.bucketCount(1), UINT64_MAX);
  EXPECT_EQ(writeGmon(Back), Wide);
  expectReadersAgree(Wide, false, "wide strict");
}

//===----------------------------------------------------------------------===//
// Flat symbol resolver
//===----------------------------------------------------------------------===//

namespace {

/// Naive reference resolver: linear scan over (start, end) ranges.
uint32_t linearFindContaining(const std::vector<Symbol> &Syms, Address Pc) {
  for (uint32_t I = 0; I != Syms.size(); ++I)
    if (Pc >= Syms[I].Addr && Pc < Syms[I].Addr + Syms[I].Size)
      return I;
  return NoSymbol;
}

SymbolTable makeTable(const std::vector<Symbol> &Syms) {
  SymbolTable T;
  for (const Symbol &S : Syms)
    T.addSymbol(S.Name, S.Addr, S.Size);
  cantFail(T.finalize());
  return T;
}

} // namespace

TEST_F(ResolverTest, DenseTableMatchesLinearReferenceEverywhere) {
  // Dense text like the VM's: contiguous 64-byte routines with a few
  // gaps.  This shape builds the direct map.
  std::vector<Symbol> Raw;
  Address A = 0x10000;
  for (int I = 0; I != 200; ++I) {
    Raw.push_back({"fn" + std::to_string(I), A, 48});
    A += I % 7 == 0 ? 96 : 64; // occasional gap
  }
  SymbolTable T = makeTable(Raw);
  // The table sorts; resolve the reference against the sorted view.
  std::vector<Symbol> Sorted;
  for (uint32_t I = 0; I != T.size(); ++I)
    Sorted.push_back(T.symbol(I));
  for (Address Pc = 0x10000 - 8; Pc < A + 16; ++Pc)
    ASSERT_EQ(T.findContaining(Pc), linearFindContaining(Sorted, Pc))
        << "pc=" << Pc;
}

TEST_F(ResolverTest, SparseTableMatchesLinearReferenceEverywhere) {
  // One far-away outlier makes the address span enormous relative to the
  // symbol count, which must abandon the direct map (too-dense slots)
  // and take the binary-search path — the answers stay identical.
  std::vector<Symbol> Raw;
  for (int I = 0; I != 100; ++I)
    Raw.push_back({"near" + std::to_string(I),
                   0x1000 + static_cast<Address>(I) * 16, 16});
  Raw.push_back({"far", 0x7FFFFFFF0000ULL, 32});
  SymbolTable T = makeTable(Raw);
  std::vector<Symbol> Sorted;
  for (uint32_t I = 0; I != T.size(); ++I)
    Sorted.push_back(T.symbol(I));
  for (Address Pc = 0x1000 - 4; Pc < 0x1000 + 100 * 16 + 4; ++Pc)
    ASSERT_EQ(T.findContaining(Pc), linearFindContaining(Sorted, Pc))
        << "pc=" << Pc;
  EXPECT_EQ(T.findContaining(0x7FFFFFFF0000ULL), T.size() - 1);
  EXPECT_EQ(T.findContaining(0x7FFFFFFF001FULL), T.size() - 1);
  EXPECT_EQ(T.findContaining(0x7FFFFFFF0020ULL), NoSymbol);
  EXPECT_EQ(T.findContaining(0x400000000000ULL), NoSymbol);
}

TEST_F(ResolverTest, BoundaryLookupsArePinned) {
  SymbolTable T = makeTable({{"a", 0x100, 0x10}, {"b", 0x120, 0x10}});
  EXPECT_EQ(T.findContaining(0x0FF), NoSymbol);
  EXPECT_EQ(T.findContaining(0x100), 0u);
  EXPECT_EQ(T.findContaining(0x10F), 0u);
  EXPECT_EQ(T.findContaining(0x110), NoSymbol); // gap between a and b
  EXPECT_EQ(T.findContaining(0x11F), NoSymbol);
  EXPECT_EQ(T.findContaining(0x120), 1u);
  EXPECT_EQ(T.findContaining(0x12F), 1u);
  EXPECT_EQ(T.findContaining(0x130), NoSymbol);
  EXPECT_EQ(T.findAt(0x100), 0u);
  EXPECT_EQ(T.findAt(0x101), NoSymbol);
  EXPECT_EQ(T.findFirstAtOrAfter(0x000), 0u);
  EXPECT_EQ(T.findFirstAtOrAfter(0x101), 1u);
  EXPECT_EQ(T.findFirstAtOrAfter(0x121), NoSymbol);
}

TEST_F(ResolverTest, FindByNameServesFirstInAddressOrder) {
  SymbolTable T = makeTable(
      {{"dup", 0x300, 8}, {"dup", 0x100, 8}, {"uniq", 0x200, 8}});
  // Sorted order: dup@0x100 (0), uniq@0x200 (1), dup@0x300 (2).
  EXPECT_EQ(T.findByName("dup"), 0u);
  EXPECT_EQ(T.findByName("uniq"), 1u);
  EXPECT_EQ(T.findByName("absent"), NoSymbol);
}

TEST_F(ResolverTest, CopiedTableAnswersIdentically) {
  // The name index views an arena owned by the table; copying must
  // re-intern, not alias the source's storage.
  SymbolTable Orig = makeTable({{"f", 0x100, 16}, {"g", 0x200, 16}});
  SymbolTable Copy(Orig);
  SymbolTable Assigned;
  Assigned = Orig;
  for (const SymbolTable *T : {&Copy, &Assigned}) {
    EXPECT_EQ(T->findByName("f"), 0u);
    EXPECT_EQ(T->findByName("g"), 1u);
    EXPECT_EQ(T->findContaining(0x108), 0u);
    EXPECT_EQ(T->starts(), Orig.starts());
    EXPECT_EQ(T->ends(), Orig.ends());
  }
}

TEST_F(ResolverTest, SymbolAccessorServesValidIndicesUnchecked) {
  // symbol(I) no longer pays a .at() bounds throw on the hot path; valid
  // indices — the only ones its contract admits — must keep working, and
  // the SoA mirror must agree with the Symbol objects.
  SymbolTable T = makeTable({{"f", 0x100, 16}, {"g", 0x200, 16}});
  for (uint32_t I = 0; I != T.size(); ++I) {
    EXPECT_EQ(T.symbol(I).Addr, T.starts()[I]);
    EXPECT_EQ(T.symbol(I).Addr + T.symbol(I).Size, T.ends()[I]);
  }
#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
  // Out of range is a caller bug: asserted in debug builds rather than
  // thrown, so release hot loops pay nothing.
  EXPECT_DEATH(T.symbol(static_cast<uint32_t>(T.size())),
               "symbol index out of range");
#endif
}

//===----------------------------------------------------------------------===//
// Open-addressing arc index (ProfileData)
//===----------------------------------------------------------------------===//

TEST_F(ArcIndexTest, AddArcAccumulatesAndIndexesCalleeTotals) {
  ProfileData D;
  for (uint64_t I = 0; I != 1000; ++I) {
    D.addArc(0x100 + (I % 50) * 8, 0x4000, 1);
    D.addArc(0x100 + (I % 50) * 8, 0x5000, 2);
  }
  EXPECT_EQ(D.Arcs.size(), 100u); // 50 call sites x 2 callees
  EXPECT_EQ(D.callsInto(0x4000), 1000u);
  EXPECT_EQ(D.callsInto(0x5000), 2000u);
  EXPECT_EQ(D.callsInto(0x6000), 0u);
  for (const ArcRecord &R : D.Arcs)
    EXPECT_EQ(R.Count, R.SelfPc == 0x4000 ? 20u : 40u);
}

TEST_F(ArcIndexTest, ExternalReorderIsDetectedAndReindexed) {
  ProfileData D;
  D.addArc(0x10, 0x100, 1);
  D.addArc(0x20, 0x200, 2);
  D.addArc(0x30, 0x300, 3);
  // Reorder Arcs behind the index's back; the next addArc must detect
  // the stale position and accumulate into the right record anyway.
  std::reverse(D.Arcs.begin(), D.Arcs.end());
  D.addArc(0x10, 0x100, 10);
  uint64_t Count = 0;
  for (const ArcRecord &R : D.Arcs)
    if (R.FromPc == 0x10 && R.SelfPc == 0x100)
      Count = R.Count;
  EXPECT_EQ(Count, 11u);
  EXPECT_EQ(D.Arcs.size(), 3u);
  EXPECT_EQ(D.callsInto(0x100), 11u);
}

TEST_F(ArcIndexTest, DirectPushIsReindexedOnNextAddArc) {
  ProfileData D;
  D.Arcs.push_back({0x10, 0x100, 5});
  D.Arcs.push_back({0x20, 0x100, 7});
  D.addArc(0x10, 0x100, 1); // size mismatch triggers a rebuild first
  EXPECT_EQ(D.Arcs.size(), 2u);
  EXPECT_EQ(D.Arcs[0].Count, 6u);
  EXPECT_EQ(D.callsInto(0x100), 13u);
}

TEST_F(ArcIndexTest, CanonicalizeCoalescesDuplicatesAndSorts) {
  ProfileData D;
  D.Arcs.push_back({0x30, 0x300, 3});
  D.Arcs.push_back({0x10, 0x100, 1});
  D.Arcs.push_back({0x30, 0x300, 4});
  D.canonicalizeArcs();
  ASSERT_EQ(D.Arcs.size(), 2u);
  EXPECT_EQ(D.Arcs[0].FromPc, 0x10u);
  EXPECT_EQ(D.Arcs[0].Count, 1u);
  EXPECT_EQ(D.Arcs[1].FromPc, 0x30u);
  EXPECT_EQ(D.Arcs[1].Count, 7u);
  EXPECT_EQ(D.callsInto(0x300), 7u);
}

TEST_F(ArcIndexTest, MergeSumsThroughTheFlatIndex) {
  ProfileData A, B;
  A.addArc(0x10, 0x100, 1);
  A.addArc(0x20, 0x200, 2);
  B.addArc(0x10, 0x100, 10);
  B.addArc(0x30, 0x300, 30);
  ASSERT_FALSE(static_cast<bool>(A.merge(B)));
  A.canonicalizeArcs();
  ASSERT_EQ(A.Arcs.size(), 3u);
  EXPECT_EQ(A.Arcs[0].Count, 11u);
  EXPECT_EQ(A.Arcs[1].Count, 2u);
  EXPECT_EQ(A.Arcs[2].Count, 30u);
  EXPECT_EQ(A.RunCount, 2u);
}
