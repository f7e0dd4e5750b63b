//===- tests/store_test.cpp - Profile store, merge engine, pool, digests --===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the profile repository subsystem: SHA-256 known-answer
/// vectors, ThreadPool behavior, canonical form, merge determinism across
/// shard orders, the aggregate cache (hit / miss / gc invalidation), and
/// store compatibility validation at ingest.
///
//===----------------------------------------------------------------------===//

#include "reference_gmon.h"

#include "gmon/GmonFile.h"
#include "store/MergeEngine.h"
#include "store/ProfileStore.h"
#include "support/BinaryStream.h"
#include "support/FileUtils.h"
#include "support/Random.h"
#include "support/Sha256.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

using namespace gprof;

namespace {

/// A fresh store root under the test temp dir, removed on destruction.
/// The pid keeps concurrent ctest entries that re-run the same case
/// (the named smoke targets) from sweeping each other's trees.
struct TempStoreDir {
  explicit TempStoreDir(const std::string &Name)
      : Path(testing::TempDir() + "/gprof_store_" +
             std::to_string(::getpid()) + "_" + Name) {
    std::filesystem::remove_all(Path);
  }
  ~TempStoreDir() { std::filesystem::remove_all(Path); }
  std::string Path;
};

/// Builds one synthetic shard with the shared geometry and seed-dependent
/// contents.
ProfileData makeShard(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0x1000, 0x3000, 8);
  for (int I = 0; I != 64; ++I)
    D.Hist.recordPc(0x1000 + Rng.nextBelow(0x2000));
  for (int I = 0; I != 32; ++I)
    D.addArc(0x1000 + Rng.nextBelow(64) * 8, 0x1000 + Rng.nextBelow(16) * 128,
             1 + Rng.nextBelow(9));
  return D;
}

std::vector<ProfileData> makeShards(size_t N, uint64_t Seed) {
  std::vector<ProfileData> Shards;
  for (size_t I = 0; I != N; ++I) {
    ProfileData D = makeShard(Seed + I);
    canonicalizeProfile(D);
    Shards.push_back(std::move(D));
  }
  return Shards;
}

/// Adds \p Delta to one histogram bucket of the run file for \p Run:
/// damage that still parses, so only the content digest can catch it.
void corruptRunCount(const ProfileStore &Store, const RunInfo &Run,
                     uint64_t Delta) {
  std::string Path = Store.runPath(Run.Digest);
  ProfileData Data = cantFail(readGmonFile(Path));
  Data.Hist.setBucketCount(0, Data.Hist.bucketCount(0) + Delta);
  cantFail(writeFileBytes(Path, writeGmon(Data)));
}

/// Encodes index.bin by hand, as docs/FORMATS.md lays it out: version-2
/// runs carry their flat member lists, version-3 runs their content
/// digest and children; version 4 adds the journal generation.
std::vector<uint8_t> encodeIndex(uint32_t Version,
                                 const std::vector<ShardInfo> &Shards,
                                 const std::vector<RunInfo> &Runs,
                                 uint64_t Generation = 0) {
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>("GPSI"), 4);
  W.writeU32(Version);
  if (Version >= 4)
    W.writeU64(Generation);
  W.writeU64(Shards.size());
  for (const ShardInfo &S : Shards) {
    W.writeBytes(S.Digest.data(), S.Digest.size());
    W.writeBytes(S.ImageId.data(), S.ImageId.size());
    for (uint64_t Field : {S.Hz, S.LowPc, S.HighPc, S.BucketSize,
                           S.NumBuckets, S.NumArcs, S.TotalSamples})
      W.writeU64(Field);
    W.writeU32(S.Runs);
    W.writeU64(S.CaptureTimeNs);
  }
  W.writeU64(Runs.size());
  for (const RunInfo &R : Runs) {
    W.writeBytes(R.Digest.data(), R.Digest.size());
    if (Version >= 3)
      W.writeBytes(R.ContentDigest.data(), R.ContentDigest.size());
    W.writeU32(R.Level);
    W.writeU64(R.MinTimeNs);
    W.writeU64(R.MaxTimeNs);
    const std::vector<Sha256Digest> &List =
        Version >= 3 ? R.Children : R.Members;
    W.writeU64(List.size());
    for (const Sha256Digest &D : List)
      W.writeBytes(D.data(), D.size());
  }
  return W.takeBytes();
}

/// Deterministic Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Sha256
//===----------------------------------------------------------------------===//

TEST(Sha256Test, KnownAnswerVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(digestToHex(Sha256::hash(nullptr, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const char *Abc = "abc";
  EXPECT_EQ(digestToHex(Sha256::hash(
                reinterpret_cast<const uint8_t *>(Abc), 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const char *Two = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(digestToHex(Sha256::hash(
                reinterpret_cast<const uint8_t *>(Two), 56)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  SplitMix64 Rng(7);
  std::vector<uint8_t> Bytes(100000);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(Rng.next());
  Sha256 H;
  // Uneven chunking crosses block boundaries in every alignment.
  size_t Pos = 0;
  for (size_t Chunk = 1; Pos < Bytes.size(); Chunk = Chunk * 3 + 1) {
    size_t Take = std::min(Chunk, Bytes.size() - Pos);
    H.update(Bytes.data() + Pos, Take);
    Pos += Take;
  }
  EXPECT_EQ(H.finish(), Sha256::hash(Bytes));
}

TEST(Sha256Test, HexRoundTrip) {
  Sha256Digest D = Sha256::hash(nullptr, 0);
  auto Back = digestFromHex(digestToHex(D));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, D);
  EXPECT_FALSE(digestFromHex("abc").has_value());
  EXPECT_FALSE(digestFromHex(std::string(64, 'g')).has_value());
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryJob) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  std::vector<std::future<int>> Futures;
  for (int I = 0; I != 100; ++I)
    Futures.push_back(Pool.async([I, &Counter] {
      ++Counter;
      return I * I;
    }));
  int Sum = 0;
  for (auto &F : Futures)
    Sum += F.get();
  EXPECT_EQ(Counter.load(), 100);
  // Sum of squares 0..99.
  EXPECT_EQ(Sum, 328350);
}

TEST(ThreadPoolTest, WaitDrainsQueue) {
  ThreadPool Pool(2);
  std::atomic<int> Done{0};
  for (int I = 0; I != 50; ++I)
    Pool.async([&Done] { ++Done; });
  Pool.wait();
  EXPECT_EQ(Done.load(), 50);
}

TEST(ThreadPoolTest, WorkersStartWithFirstJob) {
  // A pool built but never handed a job costs no thread.
  telemetry::Metric &Spawned = telemetry::gauge("threadpool.workers_spawned");
  const uint64_t Before = Spawned.value();
  ThreadPool Pool(3);
  EXPECT_EQ(Spawned.value(), Before);
  Pool.async([] {}).get();
  EXPECT_EQ(Spawned.value(), Before + 3);
  Pool.async([] {}).get();
  EXPECT_EQ(Spawned.value(), Before + 3);
}

TEST(ThreadPoolTest, DestructorCompletesQueuedFutures) {
  std::future<int> F;
  {
    ThreadPool Pool(1);
    F = Pool.async([] { return 42; });
  }
  EXPECT_EQ(F.get(), 42);
}

//===----------------------------------------------------------------------===//
// MergeEngine
//===----------------------------------------------------------------------===//

TEST(MergeEngineTest, CanonicalizeSortsAndCoalesces) {
  ProfileData D;
  D.Arcs = {{30, 1, 2}, {10, 5, 1}, {30, 1, 3}, {10, 2, 4}};
  canonicalizeProfile(D);
  ASSERT_EQ(D.Arcs.size(), 3u);
  EXPECT_EQ(D.Arcs[0].FromPc, 10u);
  EXPECT_EQ(D.Arcs[0].SelfPc, 2u);
  EXPECT_EQ(D.Arcs[1].SelfPc, 5u);
  EXPECT_EQ(D.Arcs[2].FromPc, 30u);
  EXPECT_EQ(D.Arcs[2].Count, 5u); // 2 + 3 coalesced.
  EXPECT_TRUE(isCanonicalProfile(D));
}

TEST(MergeEngineTest, MatchesSequentialFold) {
  std::vector<ProfileData> Shards = makeShards(17, 100);
  ProfileData Fold = Shards.front();
  for (size_t I = 1; I != Shards.size(); ++I)
    cantFail(Fold.merge(Shards[I]));
  canonicalizeProfile(Fold);

  auto Merged = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(writeGmon(*Merged), writeGmon(Fold));
}

TEST(MergeEngineTest, DeterministicAcrossOrder) {
  std::vector<ProfileData> Shards = makeShards(41, 2000);
  auto Reference = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Reference));
  std::vector<uint8_t> ReferenceBytes = writeGmon(*Reference);

  for (uint64_t Seed : {78u, 79u, 81u, 85u}) {
    shuffle(Shards, Seed);
    auto Merged = mergeProfiles(Shards);
    ASSERT_TRUE(static_cast<bool>(Merged)) << "seed " << Seed;
    EXPECT_EQ(writeGmon(*Merged), ReferenceBytes)
        << "seed " << Seed << ", shuffled input";
  }
}

TEST(MergeEngineTest, SumsRunsAndOverflow) {
  std::vector<ProfileData> Shards = makeShards(5, 9);
  Shards[1].RunCount = 3;
  Shards[4].ArcTableOverflowed = true;
  auto Merged = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->RunCount, 7u); // 1+3+1+1+1.
  EXPECT_TRUE(Merged->ArcTableOverflowed);
}

TEST(MergeEngineTest, RejectsIncompatibleShards) {
  std::vector<ProfileData> Shards = makeShards(3, 50);
  Shards[2].TicksPerSecond = 100;
  auto Merged = mergeProfiles(Shards);
  ASSERT_FALSE(static_cast<bool>(Merged));
  EXPECT_NE(Merged.message().find("sampling rates"), std::string::npos);
  (void)Merged.takeError();

  Shards = makeShards(3, 50);
  Shards[1].Hist = Histogram(0, 0x800, 8);
  auto Merged2 = mergeProfiles(Shards);
  ASSERT_FALSE(static_cast<bool>(Merged2));
  EXPECT_NE(Merged2.message().find("histogram ranges"), std::string::npos);
  (void)Merged2.takeError();
}

TEST(MergeEngineTest, EmptyInputFails) {
  auto Merged = mergeProfiles(std::vector<ProfileData>());
  EXPECT_FALSE(static_cast<bool>(Merged));
  (void)Merged.takeError();
}

TEST(MergeEngineTest, EmptyHistogramShardAdoptsGeometry) {
  // Regression: a shard that recorded arcs but no samples used to be
  // rejected as incompatible; it must merge and adopt the sampled
  // geometry.
  std::vector<ProfileData> Shards = makeShards(3, 70);
  Shards[1].Hist = Histogram(); // Arcs only, no samples.
  uint64_t ExpectedSamples =
      Shards[0].Hist.totalSamples() + Shards[2].Hist.totalSamples();
  cantFail(checkMergeCompatible(Shards[0], Shards[1], "a", "b"));
  cantFail(checkMergeCompatible(Shards[1], Shards[0], "b", "a"));
  auto Merged = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->Hist.lowPc(), Shards[0].Hist.lowPc());
  EXPECT_EQ(Merged->Hist.totalSamples(), ExpectedSamples);
  EXPECT_EQ(Merged->RunCount, 3u);
}

TEST(MergeEngineTest, IncompatibleSampledShardsRejectedPastEmptyFirst) {
  // Regression: validation compared everything to shard 0, so an
  // unsampled shard 0 let two incompatible sampled shards slip through.
  std::vector<ProfileData> Shards = makeShards(3, 71);
  Shards[0].Hist = Histogram(); // Empty reference decoy.
  Shards[2].Hist = Histogram(0, 0x800, 8); // Clashes with shard 1.
  auto Merged = mergeProfiles(Shards);
  ASSERT_FALSE(static_cast<bool>(Merged));
  EXPECT_NE(Merged.message().find("histogram ranges"), std::string::npos);
  (void)Merged.takeError();
}

TEST(MergeEngineTest, ArcCountsSaturateInsteadOfWrapping) {
  std::vector<ProfileData> Shards = makeShards(2, 72);
  // Force the same canonical-leading arc to near-max in both shards.
  ArcRecord Lead{1, 1, UINT64_MAX - 10};
  Shards[0].Arcs.insert(Shards[0].Arcs.begin(), Lead);
  Shards[1].Arcs.insert(Shards[1].Arcs.begin(), Lead);
  auto Merged = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged));
  ASSERT_FALSE(Merged->Arcs.empty());
  EXPECT_EQ(Merged->Arcs.front().FromPc, 1u);
  EXPECT_EQ(Merged->Arcs.front().Count, UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// ProfileStore
//===----------------------------------------------------------------------===//

TEST(ProfileStoreTest, PutIsContentAddressedAndIdempotent) {
  TempStoreDir Dir("idempotent");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));

  ProfileData D = makeShard(1);
  auto A = Store->put(D);
  ASSERT_TRUE(static_cast<bool>(A));
  // Same logical profile with a permuted arc table lands in the same slot.
  ProfileData Permuted = makeShard(1);
  std::reverse(Permuted.Arcs.begin(), Permuted.Arcs.end());
  auto B = Store->put(Permuted);
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(*A, *B);
  EXPECT_EQ(Store->shards().size(), 1u);
  EXPECT_TRUE(fileExists(Store->objectPath(*A)));
}

TEST(ProfileStoreTest, PersistsAcrossReopen) {
  TempStoreDir Dir("reopen");
  Sha256Digest Digest;
  {
    auto Store = ProfileStore::open(Dir.Path);
    ASSERT_TRUE(static_cast<bool>(Store));
    Digest = cantFail(Store->put(makeShard(3)));
  }
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_EQ(Store->shards().size(), 1u);
  EXPECT_EQ(Store->shards().front().Digest, Digest);
  EXPECT_EQ(Store->shards().front().Hz, 60u);
  EXPECT_EQ(Store->shards().front().NumBuckets, 0x2000u / 8);

  auto Loaded = Store->loadShard(Digest);
  ASSERT_TRUE(static_cast<bool>(Loaded));
  EXPECT_EQ(Sha256::hash(writeGmon(*Loaded)), Digest);
}

TEST(ProfileStoreTest, ResolvesUniquePrefixes) {
  TempStoreDir Dir("resolve");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  Sha256Digest A = cantFail(Store->put(makeShard(10)));
  cantFail(Store->put(makeShard(11)));

  auto Hit = Store->resolve(digestToHex(A).substr(0, 12));
  ASSERT_TRUE(static_cast<bool>(Hit));
  EXPECT_EQ(Hit->Digest, A);

  auto Miss = Store->resolve("ffffffffffff0000");
  EXPECT_FALSE(static_cast<bool>(Miss));
  (void)Miss.takeError();
  // A zero-length prefix would match everything.
  auto Empty = Store->resolve("");
  EXPECT_FALSE(static_cast<bool>(Empty));
  (void)Empty.takeError();
}

TEST(ProfileStoreTest, RejectsIncompatibleIngest) {
  TempStoreDir Dir("compat");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeShard(1)));

  ProfileData BadHz = makeShard(2);
  BadHz.TicksPerSecond = 100;
  auto R1 = Store->put(BadHz, Sha256Digest{}, "badhz.out");
  ASSERT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.message().find("badhz.out"), std::string::npos);
  EXPECT_NE(R1.message().find("sampling rates"), std::string::npos);
  (void)R1.takeError();

  ProfileData BadRange = makeShard(2);
  BadRange.Hist = Histogram(0, 0x100, 4);
  auto R2 = Store->put(BadRange);
  ASSERT_FALSE(static_cast<bool>(R2));
  EXPECT_NE(R2.message().find("histogram ranges"), std::string::npos);
  (void)R2.takeError();
}

TEST(ProfileStoreTest, UnsampledShardsIngestAndMerge) {
  // Regression: an arcs-only shard (no histogram) used to be rejected by
  // ingest compatibility, and an unsampled first shard disabled geometry
  // validation for everything after it.
  TempStoreDir Dir("unsampled");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));

  ProfileData NoSamples;
  NoSamples.TicksPerSecond = 60;
  NoSamples.addArc(0x1000, 0x1040, 9);
  cantFail(Store->put(NoSamples).takeError());

  // A sampled shard joins the unsampled one...
  cantFail(Store->put(makeShard(1)).takeError());
  // ... and pins the geometry: a clashing sampled shard is still rejected
  // no matter where the unsampled shard sorts in the index.
  ProfileData Clash = makeShard(2);
  Clash.Hist = Histogram(0, 0x100, 4);
  auto R = Store->put(Clash);
  ASSERT_FALSE(static_cast<bool>(R));
  (void)R.takeError();

  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->Data.RunCount, 2u);
  EXPECT_EQ(Merged->Data.Hist.totalSamples(),
            makeShard(1).Hist.totalSamples());
  EXPECT_EQ(Merged->Data.callsInto(0x1040), 9u);
}

TEST(ProfileStoreTest, PinsImageIdentity) {
  TempStoreDir Dir("imageid");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  Sha256Digest Image1{};
  Image1[0] = 1;
  Sha256Digest Image2{};
  Image2[0] = 2;
  cantFail(Store->put(makeShard(1), Image1));
  // Unknown identity is always accepted.
  auto Anon = Store->put(makeShard(2));
  EXPECT_TRUE(static_cast<bool>(Anon));
  // A different known identity is not.
  auto Clash = Store->put(makeShard(3), Image2);
  ASSERT_FALSE(static_cast<bool>(Clash));
  EXPECT_NE(Clash.message().find("image"), std::string::npos);
  (void)Clash.takeError();
  // The same known identity is.
  auto Same = Store->put(makeShard(4), Image1);
  EXPECT_TRUE(static_cast<bool>(Same));
}

TEST(ProfileStoreTest, MergeDigestIgnoresIngestOrder) {
  TempStoreDir DirA("order_a"), DirB("order_b");
  auto StoreA = ProfileStore::open(DirA.Path);
  auto StoreB = ProfileStore::open(DirB.Path);
  ASSERT_TRUE(static_cast<bool>(StoreA));
  ASSERT_TRUE(static_cast<bool>(StoreB));

  std::vector<uint64_t> Seeds(24);
  std::iota(Seeds.begin(), Seeds.end(), 500);
  for (uint64_t S : Seeds)
    cantFail(StoreA->put(makeShard(S)));
  shuffle(Seeds, 99);
  for (uint64_t S : Seeds)
    cantFail(StoreB->put(makeShard(S)));

  auto MergedA = StoreA->merge({});
  auto MergedB = StoreB->merge({});
  ASSERT_TRUE(static_cast<bool>(MergedA));
  ASSERT_TRUE(static_cast<bool>(MergedB));
  EXPECT_EQ(MergedA->Digest, MergedB->Digest);
  EXPECT_EQ(writeGmon(MergedA->Data), writeGmon(MergedB->Data));
  EXPECT_EQ(MergedA->MemberCount, 24u);
}

TEST(ProfileStoreTest, GcRetainsLiveAggregateDropsStale) {
  // Regression: gc() used to delete every cached aggregate, including the
  // one a repeat of the most recent full-store report would need — a
  // put→report→gc→report sequence re-merged everything.  Now only stale
  // entries (subset keys, superseded full-set keys) are swept.
  TempStoreDir Dir("cache");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  std::vector<Sha256Digest> Digests;
  for (uint64_t S = 0; S != 8; ++S)
    Digests.push_back(cantFail(Store->put(makeShard(40 + S))));

  auto First = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(First));
  EXPECT_FALSE(First->CacheHit);
  EXPECT_TRUE(fileExists(Store->cachePath(First->Digest)));
  // A subset aggregate is cached under its own (stale-able) key.
  auto Subset = Store->merge({Digests[0], Digests[1]});
  ASSERT_TRUE(static_cast<bool>(Subset));
  EXPECT_TRUE(fileExists(Store->cachePath(Subset->Digest)));

  auto Stats = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->CachedAggregates, 1u); // the subset entry
  EXPECT_EQ(Stats->RetainedAggregates, 1u); // the live full-set entry
  EXPECT_TRUE(fileExists(Store->cachePath(First->Digest)));
  EXPECT_FALSE(fileExists(Store->cachePath(Subset->Digest)));

  // put→report→gc→report: the second report is served from cache.
  auto Second = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Second));
  EXPECT_TRUE(Second->CacheHit);
  EXPECT_EQ(Second->Digest, First->Digest);
  EXPECT_EQ(writeGmon(Second->Data), writeGmon(First->Data));

  // Once new shards land, the old full-set entry is stale and sweepable.
  cantFail(Store->put(makeShard(99)));
  auto Stats2 = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats2));
  EXPECT_EQ(Stats2->CachedAggregates, 1u);
  EXPECT_FALSE(fileExists(Store->cachePath(First->Digest)));

  auto Third = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Third));
  EXPECT_FALSE(Third->CacheHit);
}

TEST(ProfileStoreTest, SubsetMergeAndRunsSum) {
  TempStoreDir Dir("subset");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  ProfileData A = makeShard(1), B = makeShard(2), C = makeShard(3);
  A.RunCount = 2;
  B.RunCount = 5;
  Sha256Digest DA = cantFail(Store->put(A));
  Sha256Digest DB = cantFail(Store->put(B));
  cantFail(Store->put(C));

  auto Merged = Store->merge({DA, DB});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->MemberCount, 2u);
  EXPECT_EQ(Merged->Data.RunCount, 7u);
  // Duplicate members collapse.
  auto Dup = Store->merge({DA, DA, DB});
  ASSERT_TRUE(static_cast<bool>(Dup));
  EXPECT_EQ(Dup->Digest, Merged->Digest);
  EXPECT_TRUE(Dup->CacheHit);
}

TEST(ProfileStoreTest, GcSweepsOrphanObjects) {
  TempStoreDir Dir("orphans");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeShard(1)));
  // Plant an object no index record names.
  std::string Orphan = Dir.Path + "/objects/zz";
  cantFail(createDirectories(Orphan));
  cantFail(writeFileText(Orphan + "/deadbeef.gmon", "junk"));

  auto Stats = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->OrphanObjects, 1u);
  EXPECT_FALSE(fileExists(Orphan + "/deadbeef.gmon"));
  // The indexed object survives.
  EXPECT_TRUE(fileExists(Store->objectPath(Store->shards().front().Digest)));
}

TEST(ProfileStoreTest, MergeOfEmptyStoreFails) {
  TempStoreDir Dir("empty");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  auto Merged = Store->merge({});
  EXPECT_FALSE(static_cast<bool>(Merged));
  (void)Merged.takeError();
}

TEST(ProfileStoreTest, ConcurrentPutsKeepIndexConsistent) {
  // Regression for the serve daemon's ingest path: N worker threads
  // put() into one shared store must not interleave the index.bin
  // rewrite and drop each other's entries (the single-writer ingest
  // lock in store/ProfileStore.h).
  TempStoreDir Dir("concurrent_puts");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));

  constexpr unsigned NumThreads = 8;
  constexpr unsigned PutsPerThread = 4;
  std::vector<ProfileData> Shards =
      makeShards(NumThreads * PutsPerThread, /*Seed=*/400);

  std::mutex DigestsMutex;
  std::set<Sha256Digest> Digests;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != PutsPerThread; ++I) {
        auto Digest = Store->put(Shards[T * PutsPerThread + I]);
        if (!Digest) {
          (void)Digest.takeError();
          Failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> Lock(DigestsMutex);
        Digests.insert(*Digest);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  ASSERT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Digests.size(), size_t(NumThreads) * PutsPerThread);
  EXPECT_EQ(Store->shards().size(), Digests.size());

  // The persisted index saw every entry too: a reopened store agrees.
  auto Reopened = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  ASSERT_EQ(Reopened->shards().size(), Digests.size());
  for (const ShardInfo &S : Reopened->shards())
    EXPECT_EQ(Digests.count(S.Digest), 1u) << digestToHex(S.Digest);
}

TEST(ProfileStoreTest, ConcurrentIdenticalPutsDeduplicate) {
  // The racing-dedup shape: every thread ingests the same shard, and the
  // store must end up with exactly one copy of it.
  TempStoreDir Dir("concurrent_dedup");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));

  ProfileData Shard = makeShard(77);
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != 4; ++I) {
        auto Digest = Store->put(Shard);
        if (!Digest) {
          (void)Digest.takeError();
          Failures.fetch_add(1);
        }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Store->shards().size(), 1u);
  auto Reopened = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  EXPECT_EQ(Reopened->shards().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Tiered compaction
//===----------------------------------------------------------------------===//

TEST(CompactionTest, ReportBytesInvariantAtEveryState) {
  // The core soundness property of the tiered store: at every intermediate
  // compaction state, a full report is byte-identical to the flat merge of
  // the uncompacted store.
  TempStoreDir Dir("compact_bytes");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 0; S != 20; ++S)
    cantFail(Store->put(makeShard(900 + S), Sha256Digest{}, "profile",
                        /*CaptureTimeNs=*/1000 + S));

  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));
  std::vector<uint8_t> RefBytes = writeGmon(Reference->Data);

  unsigned Steps = 0;
  for (;;) {
    auto Worked = Store->compactStep();
    ASSERT_TRUE(static_cast<bool>(Worked)) << "step " << Steps;
    if (!*Worked)
      break;
    ++Steps;
    ASSERT_LT(Steps, 64u) << "compaction failed to converge";
    // Force a real merge: drop the cached aggregate, then compare bytes.
    cantFail(removeFile(Store->cachePath(Reference->Digest)));
    auto Merged = Store->merge({});
    ASSERT_TRUE(static_cast<bool>(Merged)) << "step " << Steps;
    EXPECT_FALSE(Merged->CacheHit);
    EXPECT_EQ(Merged->Digest, Reference->Digest) << "step " << Steps;
    EXPECT_EQ(writeGmon(Merged->Data), RefBytes) << "step " << Steps;
  }
  // 20 shards at fanout 4: five L1 folds, one L2 fold of 4 of them.
  EXPECT_EQ(Steps, 6u);
  EXPECT_FALSE(Store->compactionPending());

  // Fully compacted: 5 L1 runs, 4 of them kept as the children of 1 L2
  // run.  The final merge covers the store with the L2 run (16 shards)
  // and the fifth L1 run (4 shards) — 2 inputs, not 20.
  ASSERT_EQ(Store->runs().size(), 6u);
  cantFail(removeFile(Store->cachePath(Reference->Digest)));
  auto Final = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Final));
  EXPECT_EQ(Final->InputsMerged, 2u);
  EXPECT_EQ(Final->RunsUsed, 2u);
  EXPECT_EQ(writeGmon(Final->Data), RefBytes);
}

TEST(CompactionTest, PendingIsTrueExactlyWhenTheNextStepCommits) {
  // compactionPending() reads counts that put, fold, expiry and load keep
  // current instead of planning a fold.  After each of them it must say
  // exactly whether the next compactStep() commits one, and a handle
  // reopened on the same state must agree.
  TempStoreDir Dir("compact_pending");
  StoreOptions SO;
  SO.CompactionFanout = 3;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  unsigned Folds = 0;
  auto Drain = [&](const std::string &After) {
    for (unsigned Step = 0;; ++Step) {
      const bool Pending = Store->compactionPending();
      auto Fresh = ProfileStore::open(Dir.Path, SO);
      ASSERT_TRUE(static_cast<bool>(Fresh));
      EXPECT_EQ(Fresh->compactionPending(), Pending) << After << " " << Step;
      auto Worked = Store->compactStep();
      ASSERT_TRUE(static_cast<bool>(Worked)) << After;
      EXPECT_EQ(*Worked, Pending) << After << " step " << Step;
      if (!*Worked)
        return;
      ++Folds;
    }
  };
  // Fold after every put: 12 shards make four level-1 runs, one level-2.
  for (uint64_t S = 0; S != 12; ++S) {
    cantFail(Store->put(makeShard(5200 + S), Sha256Digest{}, "profile",
                        100 + S));
    Drain("put " + std::to_string(S));
  }
  EXPECT_EQ(Folds, 5u);
  // A batch leaves several folds due at once, on two levels.
  for (uint64_t S = 12; S != 27; ++S)
    cantFail(Store->put(makeShard(5200 + S), Sha256Digest{}, "profile",
                        100 + S));
  Drain("batch");
  EXPECT_EQ(Folds, 13u); // 9 level-1, 3 level-2 and 1 level-3 runs.
  // Expiry retires runs over shard 0 and leaves their siblings as roots.
  GcOptions Expire;
  Expire.ExpireBeforeNs = 101;
  auto Stats = Store->gc(Expire);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_GT(Stats->RetiredRuns, 0u);
  Drain("expiry");
  for (uint64_t S = 27; S != 30; ++S)
    cantFail(Store->put(makeShard(5200 + S), Sha256Digest{}, "profile",
                        100 + S));
  Drain("after expiry");
}

TEST(CompactionTest, ConcurrentIngestCompactAndGcKeepEveryAck) {
  // The short ingest lock under load: 8 threads put distinct and
  // duplicate shards, writing objects outside the lock, while one thread
  // compacts and another sweeps with gc().  No acknowledged put may be
  // lost or left without its object, no temporary may survive, and the
  // report must equal the flat merge.
  TempStoreDir Dir("concurrent_ingest");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  constexpr unsigned Putters = 8, Own = 6;
  std::vector<ProfileData> Shards = makeShards(Putters * Own, /*Seed=*/6100);

  std::mutex AckMutex;
  std::set<Sha256Digest> Acked;
  std::vector<std::string> Errors;
  auto Fail = [&](const std::string &Message) {
    std::lock_guard<std::mutex> Lock(AckMutex);
    Errors.push_back(Message);
  };
  std::atomic<unsigned> Running{Putters};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Putters; ++T)
    Threads.emplace_back([&, T] {
      // Each thread puts its own shards and, interleaved, its
      // neighbour's: every shard is put twice, racing.
      for (unsigned I = 0; I != Own; ++I)
        for (unsigned Owner : {T, (T + 1) % Putters}) {
          auto Digest = Store->put(Shards[Owner * Own + I]);
          if (!Digest) {
            Fail(Digest.message());
            continue;
          }
          std::lock_guard<std::mutex> Lock(AckMutex);
          Acked.insert(*Digest);
        }
      Running.fetch_sub(1);
    });
  Threads.emplace_back([&] {
    while (Running.load() != 0)
      if (auto Stats = Store->compact(); !Stats)
        Fail(Stats.message());
  });
  Threads.emplace_back([&] {
    while (Running.load() != 0)
      if (auto Stats = Store->gc(); !Stats)
        Fail(Stats.message());
  });
  for (std::thread &Th : Threads)
    Th.join();
  ASSERT_TRUE(Errors.empty()) << Errors.front();
  cantFail(Store->compact().takeError());
  EXPECT_FALSE(Store->compactionPending());
  ASSERT_EQ(Acked.size(), Shards.size());

  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Dir.Path))
    EXPECT_NE(Entry.path().extension(), ".tmp") << Entry.path();
  auto Reopened = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Reopened)) << Reopened.message();
  ASSERT_EQ(Reopened->shards().size(), Acked.size());
  for (const Sha256Digest &D : Acked)
    EXPECT_TRUE(static_cast<bool>(Reopened->loadShard(D)))
        << digestToHex(D);
  EXPECT_FALSE(Reopened->runs().empty());

  auto Report = Reopened->merge({});
  ASSERT_TRUE(static_cast<bool>(Report)) << Report.message();
  EXPECT_GT(Report->RunsUsed, 0u);
  auto Flat = mergeProfiles(Shards);
  ASSERT_TRUE(static_cast<bool>(Flat));
  EXPECT_EQ(writeGmon(Report->Data), writeGmon(*Flat));
}

TEST(CompactionTest, SubsetQuerySlicingThroughRunFallsBack) {
  // A query whose member set cuts through a run cannot use it; the store
  // must fall back to the raw member objects and still be exact.
  TempStoreDir Dir("compact_subset");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  std::vector<Sha256Digest> Digests;
  for (uint64_t S = 0; S != 8; ++S)
    Digests.push_back(cantFail(
        Store->put(makeShard(300 + S), Sha256Digest{}, "profile", 1 + S)));
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 2u);

  // Pick one member out of each run: no run is fully covered.
  const auto &R0 = Store->runs()[0].Members;
  const auto &R1 = Store->runs()[1].Members;
  auto Sliced = Store->merge({R0.front(), R1.front()});
  ASSERT_TRUE(static_cast<bool>(Sliced));
  EXPECT_EQ(Sliced->MemberCount, 2u);
  EXPECT_EQ(Sliced->InputsMerged, 2u);
  EXPECT_EQ(Sliced->RunsUsed, 0u);

  // Same query against a fresh uncompacted store gives the same bytes.
  TempStoreDir FlatDir("compact_subset_flat");
  auto Flat = ProfileStore::open(FlatDir.Path);
  ASSERT_TRUE(static_cast<bool>(Flat));
  for (uint64_t S = 0; S != 8; ++S)
    cantFail(Flat->put(makeShard(300 + S)));
  auto FlatMerge = Flat->merge({R0.front(), R1.front()});
  ASSERT_TRUE(static_cast<bool>(FlatMerge));
  EXPECT_EQ(writeGmon(Sliced->Data), writeGmon(FlatMerge->Data));
}

TEST(CompactionTest, DamagedRunFallsBackToMembers) {
  // Runs are an acceleration structure: corrupting one must cost speed,
  // never correctness.
  TempStoreDir Dir("compact_damaged");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 0; S != 4; ++S)
    cantFail(Store->put(makeShard(600 + S)));
  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 1u);

  cantFail(writeFileText(Store->runPath(Store->runs()[0].Digest), "garbage"));
  cantFail(removeFile(Store->cachePath(Reference->Digest)));
  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->RunsUsed, 0u); // fell back to the 4 member objects
  EXPECT_EQ(Merged->InputsMerged, 4u);
  EXPECT_EQ(writeGmon(Merged->Data), writeGmon(Reference->Data));
}

TEST(CompactionTest, RunsPersistAcrossReopen) {
  // Index format v3 round-trip: run records (level, window, children,
  // content digest) survive close/reopen, and members derive again.
  TempStoreDir Dir("compact_reopen");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  std::vector<RunInfo> Before;
  {
    auto Store = ProfileStore::open(Dir.Path, SO);
    ASSERT_TRUE(static_cast<bool>(Store));
    for (uint64_t S = 0; S != 8; ++S)
      cantFail(Store->put(makeShard(150 + S), Sha256Digest{}, "profile",
                          100 + S));
    cantFail(Store->compact().takeError());
    Before = Store->runs();
    ASSERT_EQ(Before.size(), 2u);
  }
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_EQ(Store->runs().size(), Before.size());
  for (size_t I = 0; I != Before.size(); ++I) {
    EXPECT_EQ(Store->runs()[I].Digest, Before[I].Digest);
    EXPECT_EQ(Store->runs()[I].Level, Before[I].Level);
    EXPECT_EQ(Store->runs()[I].MinTimeNs, Before[I].MinTimeNs);
    EXPECT_EQ(Store->runs()[I].MaxTimeNs, Before[I].MaxTimeNs);
    EXPECT_EQ(Store->runs()[I].ContentDigest, Before[I].ContentDigest);
    EXPECT_EQ(Store->runs()[I].Children, Before[I].Children);
    EXPECT_EQ(Store->runs()[I].Members, Before[I].Members);
  }
  // Windows cover the members' capture times (oldest-first folding: the
  // first-planned run spans the 4 oldest stamps).
  uint64_t MinSeen = UINT64_MAX, MaxSeen = 0;
  for (const RunInfo &R : Store->runs()) {
    MinSeen = std::min(MinSeen, R.MinTimeNs);
    MaxSeen = std::max(MaxSeen, R.MaxTimeNs);
  }
  EXPECT_EQ(MinSeen, 100u);
  EXPECT_EQ(MaxSeen, 107u);
}

TEST(CompactionTest, WindowedSelection) {
  TempStoreDir Dir("window");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  std::vector<Sha256Digest> Digests;
  for (uint64_t S = 0; S != 6; ++S)
    Digests.push_back(cantFail(
        Store->put(makeShard(50 + S), Sha256Digest{}, "profile", 10 * (S + 1))));

  // [20, 40] picks capture times 20, 30, 40.
  auto Window = Store->membersInWindow(20, 40);
  ASSERT_EQ(Window.size(), 3u);
  std::vector<Sha256Digest> Expect = {Digests[1], Digests[2], Digests[3]};
  std::sort(Expect.begin(), Expect.end());
  EXPECT_EQ(Window, Expect);

  // UntilNs = 0 is unbounded above.
  EXPECT_EQ(Store->membersInWindow(40, 0).size(), 3u);
  EXPECT_EQ(Store->membersInWindow(0, 0).size(), 6u);
  EXPECT_TRUE(Store->membersInWindow(1000, 0).empty());

  // The windowed merge equals the explicit-subset merge.
  auto A = Store->merge(Window);
  auto B = Store->merge({Digests[1], Digests[2], Digests[3]});
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->Digest, B->Digest);
  EXPECT_EQ(writeGmon(A->Data), writeGmon(B->Data));
}

TEST(CompactionTest, GcExpiryRetiresShardsAndRuns) {
  TempStoreDir Dir("expire");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 0; S != 8; ++S)
    cantFail(Store->put(makeShard(800 + S), Sha256Digest{}, "profile",
                        100 + S));
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 2u);

  // Expire the 4 oldest shards: their covering run retires with them.
  GcOptions GO;
  GO.ExpireBeforeNs = 104;
  auto Stats = Store->gc(GO);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->ExpiredShards, 4u);
  EXPECT_EQ(Stats->RetiredRuns, 1u);
  EXPECT_EQ(Store->shards().size(), 4u);
  ASSERT_EQ(Store->runs().size(), 1u);
  for (const ShardInfo &S : Store->shards())
    EXPECT_GE(S.CaptureTimeNs, 104u);

  // The survivors still merge, via the surviving run.
  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->MemberCount, 4u);
  EXPECT_EQ(Merged->RunsUsed, 1u);

  // A reopened store agrees (the expiry committed to the index).
  auto Reopened = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  EXPECT_EQ(Reopened->shards().size(), 4u);
  EXPECT_EQ(Reopened->runs().size(), 1u);
}

TEST(CompactionTest, DamagedCacheEntryEvictedOnDetection) {
  // Regression: a torn cache entry used to survive if the recompute path
  // errored before rewriting it; now it is deleted the moment the parse
  // fails, under the store.merge.cache_evictions counter.
  TempStoreDir Dir("cache_evict");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  cantFail(Store->put(makeShard(1)));
  auto First = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(First));
  std::string Cached = Store->cachePath(First->Digest);
  ASSERT_TRUE(fileExists(Cached));
  cantFail(writeFileText(Cached, "torn"));

  uint64_t EvictionsBefore =
      telemetry::counter("store.merge.cache_evictions").value();
  auto Again = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_FALSE(Again->CacheHit);
  EXPECT_EQ(writeGmon(Again->Data), writeGmon(First->Data));
  EXPECT_EQ(telemetry::counter("store.merge.cache_evictions").value(),
            EvictionsBefore + 1);
  // The recompute rewrote a good entry in the damaged one's place.
  ASSERT_TRUE(fileExists(Cached));
  auto Third = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Third));
  EXPECT_TRUE(Third->CacheHit);
}

TEST(CompactionTest, CacheEntryFailingItsDigestIsEvicted) {
  // Damage that still parses: one count byte of a cache entry changes,
  // so the entry is a valid profile with the wrong data.  The SHA-256
  // stored after the gmon bytes catches it; the entry is evicted and
  // recomputed like a torn one, never served.
  TempStoreDir Dir("cache_digest");
  auto Store = ProfileStore::open(Dir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  ProfileData Shard = makeShard(1);
  Shard.Hist.setBucketCount(0, 5);
  cantFail(Store->put(Shard));
  auto First = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(First));
  std::string Cached = Store->cachePath(First->Digest);
  std::vector<uint8_t> Entry = cantFail(readFileBytes(Cached));
  // Version 3 (docs/FORMATS.md): nnonzero at 53, the pair list's length
  // at 61, then the first pair, (gap 0, count 5), at 69.  Count 5 -> 4 is
  // still a canonical profile.
  EXPECT_EQ(Entry[69], 0);
  EXPECT_EQ(Entry[70], 5);
  Entry[70] ^= 1;
  cantFail(writeFileBytes(Cached, Entry));
  auto Tampered =
      readGmon(Entry.data(), Entry.size() - sizeof(Sha256Digest));
  if (Tampered) {
    EXPECT_EQ(Tampered->Hist.bucketCount(0), 4u);
  } else {
    ADD_FAILURE() << "the tampered entry should parse: "
                  << Tampered.message();
    (void)Tampered.takeError();
  }

  uint64_t EvictionsBefore =
      telemetry::counter("store.merge.cache_evictions").value();
  auto Again = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_FALSE(Again->CacheHit);
  EXPECT_EQ(Again->Data.Hist.bucketCount(0), 5u);
  EXPECT_EQ(writeGmon(Again->Data), writeGmon(First->Data));
  EXPECT_EQ(telemetry::counter("store.merge.cache_evictions").value(),
            EvictionsBefore + 1);
  // The recompute rewrote a good entry, which the next query hits.
  auto Third = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Third));
  EXPECT_TRUE(Third->CacheHit);
  EXPECT_EQ(writeGmon(Third->Data), writeGmon(First->Data));
}

TEST(CompactionTest, MixedVersionObjectsReportLikeTheFlatMerge) {
  // A store written before version 3 holds dense version-1 objects under
  // the digests of those bytes.  They keep loading and verifying beside
  // new version-3 puts, and the store reports byte-identically to the
  // flat merge before and after a fold over mixed-version children.
  TempStoreDir Dir("mixed_versions");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  const std::vector<ProfileData> Profiles = makeShards(8, 5000);
  std::vector<ShardInfo> Shards;
  std::vector<Sha256Digest> V1Digests;
  {
    auto Store = ProfileStore::open(Dir.Path, SO);
    ASSERT_TRUE(static_cast<bool>(Store));
    // Odd capture times are version-3 puts.
    for (size_t I = 1; I < Profiles.size(); I += 2)
      cantFail(Store->put(Profiles[I], Sha256Digest{}, "profile", 100 + I));
    Shards = Store->shards();
    // Even ones are version-1 objects, as an older release stored them.
    for (size_t I = 0; I < Profiles.size(); I += 2) {
      const ProfileData &D = Profiles[I];
      std::vector<uint8_t> V1 = writeGmonDense(D);
      ShardInfo Info;
      Info.Digest = Sha256::hash(V1);
      Info.Hz = D.TicksPerSecond;
      Info.LowPc = D.Hist.lowPc();
      Info.HighPc = D.Hist.highPc();
      Info.BucketSize = D.Hist.bucketSize();
      Info.NumBuckets = D.Hist.numBuckets();
      Info.NumArcs = D.Arcs.size();
      Info.TotalSamples = D.Hist.totalSamples();
      Info.Runs = D.RunCount;
      Info.CaptureTimeNs = 100 + I;
      std::string Path = Store->objectPath(Info.Digest);
      cantFail(createDirectories(Path.substr(0, Path.rfind('/'))));
      cantFail(writeFileBytes(Path, V1));
      Shards.push_back(Info);
      V1Digests.push_back(Info.Digest);
    }
  }
  std::sort(Shards.begin(), Shards.end(),
            [](const ShardInfo &A, const ShardInfo &B) {
              return A.Digest < B.Digest;
            });
  cantFail(writeFileBytes(Dir.Path + "/index.bin",
                          encodeIndex(3, Shards, {})));

  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store)) << Store.message();
  ASSERT_EQ(Store->shards().size(), 8u);
  for (const Sha256Digest &D : V1Digests) {
    EXPECT_EQ(cantFail(readFileBytes(Store->objectPath(D)))[4], 1);
    EXPECT_TRUE(static_cast<bool>(Store->loadShard(D)));
  }

  const std::vector<uint8_t> Flat =
      writeGmon(cantFail(mergeProfiles(Profiles)));
  auto Before = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Before));
  EXPECT_EQ(Before->InputsMerged, 8u);
  EXPECT_EQ(writeGmon(Before->Data), Flat);

  // Capture order alternates versions, so each level-1 run folds two
  // version-1 and two version-3 children.
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 2u);
  for (const RunInfo &R : Store->runs()) {
    unsigned Dense = 0;
    for (const Sha256Digest &C : R.Children)
      Dense += cantFail(readFileBytes(Store->objectPath(C)))[4] == 1;
    EXPECT_EQ(Dense, 2u);
    EXPECT_EQ(cantFail(readFileBytes(Store->runPath(R.Digest)))[4], 3);
  }
  cantFail(removeFile(Store->cachePath(Before->Digest)));
  auto After = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(After));
  EXPECT_EQ(After->RunsUsed, 2u);
  EXPECT_EQ(writeGmon(After->Data), Flat);

  // Dedup does not cross the version boundary: re-putting a profile
  // stored as version 1 adds its version-3 bytes as a second shard.
  auto Again = Store->put(Profiles[0], Sha256Digest{}, "profile", 200);
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_NE(*Again, V1Digests[0]);
  EXPECT_EQ(Store->shards().size(), 9u);
}

TEST(CompactionTest, RunsInvariantUnderIngestOrder) {
  // The determinism guarantee extends through the tiered path: folds
  // follow capture time, not ingest order, so two stores fed the same
  // puts in different orders hold the same runs and report the same bytes.
  TempStoreDir DirA("compact_order_a"), DirB("compact_order_b");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto StoreA = ProfileStore::open(DirA.Path, SO);
  auto StoreB = ProfileStore::open(DirB.Path, SO);
  ASSERT_TRUE(static_cast<bool>(StoreA));
  ASSERT_TRUE(static_cast<bool>(StoreB));
  std::vector<uint64_t> Order(12);
  std::iota(Order.begin(), Order.end(), 0);
  for (uint64_t S : Order)
    cantFail(StoreA->put(makeShard(2000 + S), Sha256Digest{}, "profile", S));
  shuffle(Order, 7);
  for (uint64_t S : Order)
    cantFail(StoreB->put(makeShard(2000 + S), Sha256Digest{}, "profile", S));
  cantFail(StoreA->compact().takeError());
  cantFail(StoreB->compact().takeError());
  // 12 shards at fanout 4: three level-1 runs.
  ASSERT_EQ(StoreA->runs().size(), 3u);
  ASSERT_EQ(StoreB->runs().size(), 3u);
  for (size_t I = 0; I != StoreA->runs().size(); ++I)
    EXPECT_EQ(StoreA->runs()[I].Digest, StoreB->runs()[I].Digest);

  auto A = StoreA->merge({});
  auto B = StoreB->merge({});
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->Digest, B->Digest);
  EXPECT_EQ(writeGmon(A->Data), writeGmon(B->Data));
}

TEST(CompactionTest, CorruptRunThatStillParsesFallsBack) {
  // A run file whose bytes changed but still parse used to be summed as
  // is.  Its content digest now fails the load, and merge() falls back to
  // the member objects.
  TempStoreDir Dir("compact_corrupt_run");
  StoreOptions SO;
  SO.CompactionFanout = 8;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 0; S != 8; ++S)
    cantFail(Store->put(makeShard(4100 + S), Sha256Digest{}, "profile",
                        1 + S));
  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 1u);
  cantFail(removeFile(Store->cachePath(Reference->Digest)));
  corruptRunCount(*Store, Store->runs()[0], 50);

  telemetry::Metric &Fallbacks = telemetry::gauge("store.merge.run_fallbacks");
  uint64_t Before = Fallbacks.value();
  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  EXPECT_EQ(Merged->Data.Hist.totalSamples(),
            Reference->Data.Hist.totalSamples());
  EXPECT_EQ(writeGmon(Merged->Data), writeGmon(Reference->Data));
  EXPECT_EQ(Merged->RunsUsed, 0u);
  EXPECT_EQ(Merged->InputsMerged, 8u);
  EXPECT_EQ(Fallbacks.value(), Before + 1);
}

TEST(CompactionTest, CorruptSourceRunFoldsFromMembers) {
  // A damaged level-1 run under a pending level-2 fold must not stop the
  // fold, nor leak into it: the fold reads that source's member objects,
  // and the new run equals the flat merge byte for byte.
  TempStoreDir Dir("compact_corrupt_source");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store));
  for (uint64_t S = 0; S != 16; ++S)
    cantFail(Store->put(makeShard(4200 + S), Sha256Digest{}, "profile",
                        1 + S));
  auto Reference = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Reference));
  for (int I = 0; I != 4; ++I)
    ASSERT_TRUE(cantFail(Store->compactStep()));
  ASSERT_EQ(Store->runs().size(), 4u);
  ASSERT_TRUE(Store->compactionPending());
  corruptRunCount(*Store, Store->runs()[2], 50);

  telemetry::Metric &Fallbacks =
      telemetry::gauge("store.compact.run_fallbacks");
  uint64_t Before = Fallbacks.value();
  ASSERT_TRUE(cantFail(Store->compactStep()));
  EXPECT_EQ(Fallbacks.value(), Before + 1);
  EXPECT_FALSE(Store->compactionPending());
  const RunInfo *Top = nullptr;
  for (const RunInfo &R : Store->runs())
    if (R.Level == 2)
      Top = &R;
  ASSERT_NE(Top, nullptr);
  EXPECT_EQ(Top->Digest, Reference->Digest);
  EXPECT_EQ(cantFail(readFileBytes(Store->runPath(Top->Digest))),
            writeGmon(Reference->Data));
}

TEST(CompactionTest, AlignedWindowReadsOneRun) {
  // Folds keep their sources, so a capture-time window aligned to a
  // subtree reads that subtree's one run.  64 shards at fanout 4 keep 16
  // L1, 4 L2 and 1 L3 runs.
  constexpr unsigned Fanout = 4, NumShards = 64;
  TempStoreDir Dir("compact_aligned"), FlatDir("compact_aligned_flat");
  StoreOptions SO;
  SO.CompactionFanout = Fanout;
  auto Store = ProfileStore::open(Dir.Path, SO);
  auto Flat = ProfileStore::open(FlatDir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_TRUE(static_cast<bool>(Flat));
  std::vector<Sha256Digest> ByTime;
  for (uint64_t S = 0; S != NumShards; ++S) {
    ByTime.push_back(cantFail(Store->put(makeShard(4300 + S), Sha256Digest{},
                                         "profile", 1000 + S)));
    cantFail(Flat->put(makeShard(4300 + S)).takeError());
  }
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 21u);

  auto Window = [&](size_t Lo, size_t Width) {
    return std::vector<Sha256Digest>(ByTime.begin() + Lo,
                                     ByTime.begin() + Lo + Width);
  };
  auto ExpectFlatBytes = [&](const ProfileStore::MergeResult &Got,
                             const std::vector<Sha256Digest> &Members) {
    auto Want = Flat->merge(Members);
    ASSERT_TRUE(static_cast<bool>(Want));
    EXPECT_EQ(writeGmon(Got.Data), writeGmon(Want->Data));
  };
  for (size_t Lo = 0; Lo != NumShards; Lo += 16) {
    auto Merged = Store->merge(Window(Lo, 16));
    ASSERT_TRUE(static_cast<bool>(Merged)) << "window at " << Lo;
    EXPECT_EQ(Merged->InputsMerged, 1u) << "window at " << Lo;
    EXPECT_EQ(Merged->RunsUsed, 1u) << "window at " << Lo;
    ExpectFlatBytes(*Merged, Window(Lo, 16));
  }

  // Offset by 8, a 16-shard window straddles two L2 subtrees: it reads 4
  // L1 runs, within 2(F-1) per level.
  auto Offset = Store->merge(Window(8, 16));
  ASSERT_TRUE(static_cast<bool>(Offset));
  EXPECT_EQ(Offset->InputsMerged, 4u);
  EXPECT_EQ(Offset->RunsUsed, 4u);
  EXPECT_LE(Offset->RunsUsed, 2 * (Fanout - 1));
  ExpectFlatBytes(*Offset, Window(8, 16));
  // A 32-shard window offset by 8 reads runs of two levels: 2 L1, one L2
  // and 2 L1 again.
  auto Wide = Store->merge(Window(8, 32));
  ASSERT_TRUE(static_cast<bool>(Wide));
  EXPECT_EQ(Wide->InputsMerged, 5u);
  EXPECT_EQ(Wide->RunsUsed, 5u);
  ExpectFlatBytes(*Wide, Window(8, 32));
}

TEST(CompactionTest, ExpiryRetiresRunAndAncestorsKeepsSiblings) {
  // 16 shards at fanout 4: 4 L1 runs under 1 L2 run.  Expiring the 4
  // oldest shards retires their L1 run and the L2 above it; the other L1
  // runs stay, reports stay exact, and compaction refolds them later.
  TempStoreDir Dir("compact_nested_expiry"), FlatDir("compact_nested_flat");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  auto Store = ProfileStore::open(Dir.Path, SO);
  auto Flat = ProfileStore::open(FlatDir.Path);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_TRUE(static_cast<bool>(Flat));
  for (uint64_t S = 0; S != 16; ++S) {
    cantFail(Store->put(makeShard(4400 + S), Sha256Digest{}, "profile",
                        100 + S));
    if (S >= 4)
      cantFail(Flat->put(makeShard(4400 + S)).takeError());
  }
  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 5u);

  GcOptions GO;
  GO.ExpireBeforeNs = 104;
  auto Stats = Store->gc(GO);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->ExpiredShards, 4u);
  EXPECT_EQ(Stats->RetiredRuns, 2u);
  EXPECT_EQ(Stats->OrphanRuns, 2u); // the two retired run files
  ASSERT_EQ(Store->runs().size(), 3u);
  for (const RunInfo &R : Store->runs())
    EXPECT_EQ(R.Level, 1u);
  EXPECT_FALSE(Store->compactionPending());

  auto Survivors = Store->merge({});
  auto Want = Flat->merge({});
  ASSERT_TRUE(static_cast<bool>(Survivors));
  ASSERT_TRUE(static_cast<bool>(Want));
  EXPECT_EQ(Survivors->RunsUsed, 3u);
  EXPECT_EQ(writeGmon(Survivors->Data), writeGmon(Want->Data));

  // Four more shards: a new L1 run, and the siblings fold with it into a
  // new L2 run that covers the whole store.
  for (uint64_t S = 16; S != 20; ++S) {
    cantFail(Store->put(makeShard(4400 + S), Sha256Digest{}, "profile",
                        100 + S));
    cantFail(Flat->put(makeShard(4400 + S)).takeError());
  }
  auto Again = Store->compact();
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(Again->Steps, 2u);
  EXPECT_FALSE(Store->compactionPending());
  EXPECT_EQ(Store->runs().size(), 5u);
  auto Refolded = Store->merge({});
  Want = Flat->merge({});
  ASSERT_TRUE(static_cast<bool>(Refolded));
  ASSERT_TRUE(static_cast<bool>(Want));
  EXPECT_EQ(Refolded->InputsMerged, 1u);
  EXPECT_EQ(writeGmon(Refolded->Data), writeGmon(Want->Data));
}

TEST(CompactionTest, V2IndexOpensWithShardsAndNoRuns) {
  // A v2 run carries no content digest to verify, so a v2 index opens
  // with its shards only; its run file is an orphan for gc, and the next
  // compaction builds the tree.
  TempStoreDir Dir("index_v2");
  StoreOptions SO;
  SO.CompactionFanout = 4;
  std::vector<ShardInfo> Shards;
  RunInfo Old;
  {
    auto Store = ProfileStore::open(Dir.Path, SO);
    ASSERT_TRUE(static_cast<bool>(Store));
    for (uint64_t S = 0; S != 4; ++S)
      cantFail(Store->put(makeShard(4500 + S), Sha256Digest{}, "profile",
                          10 + S));
    Shards = Store->shards();
    Old.Members = {Shards[0].Digest, Shards[1].Digest};
    Old.Digest = ProfileStore::aggregateDigest(Old.Members);
    Old.MinTimeNs = 10;
    Old.MaxTimeNs = 11;
    auto Pair = Store->merge(Old.Members);
    ASSERT_TRUE(static_cast<bool>(Pair));
    cantFail(writeFileBytes(Store->runPath(Old.Digest),
                            writeGmon(Pair->Data)));
  }
  cantFail(writeFileBytes(Dir.Path + "/index.bin",
                          encodeIndex(2, Shards, {Old})));

  auto Store = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Store)) << Store.message();
  EXPECT_EQ(Store->shards().size(), 4u);
  EXPECT_EQ(Store->shards()[0].CaptureTimeNs, Shards[0].CaptureTimeNs);
  EXPECT_TRUE(Store->runs().empty());
  EXPECT_TRUE(Store->compactionPending());

  cantFail(Store->compact().takeError());
  ASSERT_EQ(Store->runs().size(), 1u);
  EXPECT_EQ(Store->runs()[0].Members.size(), 4u);
  auto Stats = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->OrphanRuns, 1u);
  EXPECT_FALSE(fileExists(Store->runPath(Old.Digest)));
  EXPECT_TRUE(fileExists(Store->runPath(Store->runs()[0].Digest)));

  // The rebuilt tree persists as v3.
  auto Reopened = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  EXPECT_EQ(Reopened->runs().size(), 1u);
}

TEST(CompactionTest, V3IndexRejectsBrokenTree) {
  // 8 shards at fanout 2: 4 L1, 2 L2 and 1 L3 run.
  TempStoreDir Dir("index_v3_tree");
  StoreOptions SO;
  SO.CompactionFanout = 2;
  std::vector<ShardInfo> Shards;
  std::vector<RunInfo> Runs;
  {
    auto Store = ProfileStore::open(Dir.Path, SO);
    ASSERT_TRUE(static_cast<bool>(Store));
    for (uint64_t S = 0; S != 8; ++S)
      cantFail(Store->put(makeShard(4600 + S), Sha256Digest{}, "profile",
                          1 + S));
    cantFail(Store->compact().takeError());
    Shards = Store->shards();
    Runs = Store->runs();
  }
  ASSERT_EQ(Runs.size(), 7u);
  // A hand-written v3 index of the same tree loads as generation 0, so
  // the journal the puts and folds left beside it is ignored.
  const std::string IndexPath = Dir.Path + "/index.bin";
  cantFail(writeFileBytes(IndexPath, encodeIndex(3, Shards, Runs)));
  {
    auto Loaded = ProfileStore::open(Dir.Path, SO);
    ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.message();
    EXPECT_EQ(Loaded->shards().size(), Shards.size());
    EXPECT_EQ(Loaded->runs().size(), Runs.size());
  }

  auto ExpectRejected = [&](const std::vector<RunInfo> &Broken,
                            const std::string &Why) {
    cantFail(writeFileBytes(IndexPath, encodeIndex(3, Shards, Broken)));
    auto Store = ProfileStore::open(Dir.Path, SO);
    ASSERT_FALSE(static_cast<bool>(Store)) << Why;
    EXPECT_NE(Store.message().find(Why), std::string::npos)
        << Store.message();
  };
  std::vector<size_t> L2;
  for (size_t I = 0; I != Runs.size(); ++I)
    if (Runs[I].Level == 2)
      L2.push_back(I);
  ASSERT_EQ(L2.size(), 2u);

  std::vector<RunInfo> Missing = Runs;
  Missing[L2[0]].Children[0].fill(0xAB);
  ExpectRejected(Missing, "not in the index");

  std::vector<RunInfo> WrongLevel = Runs;
  WrongLevel[L2[0]].Level = 3;
  ExpectRejected(WrongLevel, "names level-");

  std::vector<RunInfo> TwoParents = Runs;
  TwoParents[L2[1]].Children[0] = TwoParents[L2[0]].Children[0];
  ExpectRejected(TwoParents, "two runs claim");

  // A newer index version is refused, as this one is by older readers.
  cantFail(writeFileBytes(IndexPath, encodeIndex(5, Shards, Runs)));
  auto Newer = ProfileStore::open(Dir.Path, SO);
  ASSERT_FALSE(static_cast<bool>(Newer));
  EXPECT_NE(Newer.message().find("unsupported index version"),
            std::string::npos);

  // The intact tree opens again.
  cantFail(writeFileBytes(IndexPath, encodeIndex(3, Shards, Runs)));
  auto Intact = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Intact)) << Intact.message();
  EXPECT_EQ(Intact->runs().size(), 7u);

  // A removal commits as a checkpoint: expiring shard 1 retires its three
  // ancestors and rewrites index.bin as exactly the documented v4 layout,
  // at a generation past the v3 index's 0.
  GcOptions Expire;
  Expire.ExpireBeforeNs = 2;
  auto Stats = Intact->gc(Expire);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->RetiredRuns, 3u);
  std::vector<uint8_t> Checkpoint = cantFail(readFileBytes(IndexPath));
  ASSERT_GE(Checkpoint.size(), 16u);
  uint64_t Generation = 0;
  for (unsigned I = 0; I != 8; ++I)
    Generation |= uint64_t(Checkpoint[8 + I]) << (8 * I);
  EXPECT_GE(Generation, 1u);
  EXPECT_EQ(Checkpoint,
            encodeIndex(4, Intact->shards(), Intact->runs(), Generation));
  auto Reopened = ProfileStore::open(Dir.Path, SO);
  ASSERT_TRUE(static_cast<bool>(Reopened)) << Reopened.message();
  EXPECT_EQ(Reopened->shards().size(), 7u);
  EXPECT_EQ(Reopened->runs().size(), 4u);
}
