//===- store/ProfileStore.cpp ---------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "store/ProfileStore.h"

#include "gmon/GmonFile.h"
#include "store/MergeEngine.h"
#include "support/BinaryStream.h"
#include "support/EventLog.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace gprof;

namespace {

constexpr char IndexMagic[4] = {'G', 'P', 'S', 'I'};
/// v1: flat shard records.  v2 appends a capture timestamp per shard and
/// flat run manifests; v3 stores the runs as a merge tree, each with its
/// children and content digest; v4 is the v3 layout plus the generation of
/// the journal that continues it (docs/FORMATS.md).  v1 and v2 indexes
/// still load with their shards and no runs — v2 runs carry no content
/// digest to verify — and the next compaction rebuilds the tree.  v1-v3
/// load as generation 0.
constexpr uint32_t IndexVersion = 4;
constexpr uint32_t IndexVersionV1 = 1;

/// Cap on index record counts accepted from disk, guarding allocation
/// against a corrupted length field.
constexpr uint64_t MaxIndexRecords = 1ULL << 24;

/// index.log: a 24-byte header (magic, version u32, generation u64, check)
/// and then records of length u32, kind u8, the payload, and a check: the
/// first 8 bytes of SHA-256 over everything before it in the header or
/// record.  A payload is the index's own shard or v3 run record.
constexpr char JournalMagic[4] = {'G', 'P', 'S', 'J'};
constexpr uint32_t JournalVersion = 1;
constexpr size_t CheckBytes = 8;
constexpr size_t JournalHeaderBytes = 16 + CheckBytes;
constexpr size_t RecordFraming = 5 + CheckBytes;
constexpr uint8_t ShardRecord = 1;
constexpr uint8_t RunRecord = 2;
constexpr size_t ShardRecordBytes = 132;
constexpr size_t RunRecordFixedBytes = 92; ///< Plus 32 per child.

uint64_t loadLE(const uint8_t *P, unsigned Bytes) {
  uint64_t V = 0;
  for (unsigned I = 0; I != Bytes; ++I)
    V |= uint64_t(P[I]) << (8 * I);
  return V;
}

bool checkMatches(const uint8_t *Data, size_t Size, const uint8_t *Check) {
  Sha256Digest Sum = Sha256::hash(Data, Size);
  return std::equal(Check, Check + CheckBytes, Sum.begin());
}

void appendCheck(BinaryWriter &W, size_t From) {
  const std::vector<uint8_t> &B = W.bytes();
  Sha256Digest Sum = Sha256::hash(B.data() + From, B.size() - From);
  W.writeBytes(Sum.data(), CheckBytes);
}

/// Bytes of the journal record at Data[0, Avail) if an intact one starts
/// there, else 0.  The length must match the kind's layout before the
/// check is hashed, which keeps the scan for a later intact record cheap.
size_t intactRecordAt(const uint8_t *Data, size_t Avail) {
  if (Avail < RecordFraming)
    return 0;
  const uint64_t Len = loadLE(Data, 4);
  if (Len > Avail - RecordFraming)
    return 0;
  if (Data[4] == ShardRecord) {
    if (Len != ShardRecordBytes)
      return 0;
  } else if (Data[4] != RunRecord || Len < RunRecordFixedBytes ||
             (Len - RunRecordFixedBytes) % 32 != 0 ||
             loadLE(Data + 5 + RunRecordFixedBytes - 8, 8) !=
                 (Len - RunRecordFixedBytes) / 32) {
    return 0;
  }
  if (!checkMatches(Data, 5 + Len, Data + 5 + Len))
    return 0;
  return static_cast<size_t>(RecordFraming + Len);
}

void writeShardRecord(BinaryWriter &W, const ShardInfo &Info) {
  W.writeBytes(Info.Digest.data(), Info.Digest.size());
  W.writeBytes(Info.ImageId.data(), Info.ImageId.size());
  for (uint64_t Field : {Info.Hz, Info.LowPc, Info.HighPc, Info.BucketSize,
                         Info.NumBuckets, Info.NumArcs, Info.TotalSamples})
    W.writeU64(Field);
  W.writeU32(Info.Runs);
  W.writeU64(Info.CaptureTimeNs);
}

void writeRunRecord(BinaryWriter &W, const RunInfo &Run) {
  W.writeBytes(Run.Digest.data(), Run.Digest.size());
  W.writeBytes(Run.ContentDigest.data(), Run.ContentDigest.size());
  W.writeU32(Run.Level);
  W.writeU64(Run.MinTimeNs);
  W.writeU64(Run.MaxTimeNs);
  W.writeU64(Run.Children.size());
  for (const Sha256Digest &D : Run.Children)
    W.writeBytes(D.data(), D.size());
}

Error readDigest(BinaryReader &R, Sha256Digest &Out) {
  auto Bytes = R.readBytes(32);
  if (!Bytes)
    return Bytes.takeError();
  std::copy(Bytes->begin(), Bytes->end(), Out.begin());
  return Error::success();
}

Error readU64Into(BinaryReader &R, uint64_t &Out) {
  auto V = R.readU64();
  if (!V)
    return V.takeError();
  Out = *V;
  return Error::success();
}

/// One shard record of index version \p Ver (v1 has no capture time).
Error readShardRecord(BinaryReader &R, uint32_t Ver, ShardInfo &Info) {
  if (Error E = readDigest(R, Info.Digest))
    return E;
  if (Error E = readDigest(R, Info.ImageId))
    return E;
  for (uint64_t *Field : {&Info.Hz, &Info.LowPc, &Info.HighPc,
                          &Info.BucketSize, &Info.NumBuckets, &Info.NumArcs,
                          &Info.TotalSamples})
    if (Error E = readU64Into(R, *Field))
      return E;
  auto Runs32 = R.readU32();
  if (!Runs32)
    return Runs32.takeError();
  Info.Runs = *Runs32;
  if (Ver >= 2)
    return readU64Into(R, Info.CaptureTimeNs);
  return Error::success();
}

/// One run record of index version \p Ver: v3 and later carry the content
/// digest and children; v2's flat member list is read into Children for
/// the caller to drop.
Error readRunRecord(BinaryReader &R, uint32_t Ver, const std::string &Path,
                    RunInfo &Run) {
  if (Error E = readDigest(R, Run.Digest))
    return E;
  if (Ver >= 3)
    if (Error E = readDigest(R, Run.ContentDigest))
      return E;
  auto Level = R.readU32();
  if (!Level)
    return Level.takeError();
  Run.Level = *Level;
  for (uint64_t *Field : {&Run.MinTimeNs, &Run.MaxTimeNs})
    if (Error E = readU64Into(R, *Field))
      return E;
  auto Children = R.readU64();
  if (!Children)
    return Children.takeError();
  if (*Children > MaxIndexRecords)
    return Error::failure(Path + ": run child count implausibly large");
  Run.Children.resize(static_cast<size_t>(*Children));
  for (Sha256Digest &D : Run.Children)
    if (Error E = readDigest(R, D))
      return E;
  return Error::success();
}

bool isZeroDigest(const Sha256Digest &D) {
  return std::all_of(D.begin(), D.end(), [](uint8_t B) { return B == 0; });
}

bool digestLess(const ShardInfo &A, const ShardInfo &B) {
  return A.Digest < B.Digest;
}

bool runDigestLess(const RunInfo &A, const RunInfo &B) {
  return A.Digest < B.Digest;
}

/// Wall-clock now in nanoseconds since the epoch — capture times order
/// shards across processes and machines, so steady_clock is no use here.
uint64_t wallClockNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Parses the gmon bytes \p Data[0, Size) of the \p What file at \p Path,
/// once they hash to \p Want: on-disk damage that still parses must never
/// be summed or served.  Hash and parse read the same mapped view.
Expected<ProfileData> parseVerified(const std::string &Path, const char *What,
                                    const uint8_t *Data, size_t Size,
                                    const Sha256Digest &Want) {
  if (Sha256::hash(Data, Size) != Want)
    return Error::failure(
        format("%s: %s bytes do not match their digest", Path.c_str(), What));
  auto Parsed = readGmon(Data, Size);
  if (!Parsed)
    return Error::failure(Path + ": " + Parsed.message());
  return Parsed;
}

/// A cache entry is the aggregate's gmon bytes followed by their SHA-256,
/// so a hit is verified before it is served.
constexpr size_t CacheDigestBytes = sizeof(Sha256Digest);

std::vector<uint8_t> encodeCacheEntry(const ProfileData &Data) {
  std::vector<uint8_t> Bytes = writeGmon(Data);
  Sha256Digest Sum = Sha256::hash(Bytes);
  Bytes.insert(Bytes.end(), Sum.begin(), Sum.end());
  return Bytes;
}

Expected<ProfileData> loadCacheEntry(const std::string &Path) {
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  if (Map->size() < CacheDigestBytes)
    return Error::failure(Path + ": cache entry shorter than its digest");
  const size_t Body = Map->size() - CacheDigestBytes;
  Sha256Digest Want{};
  std::copy(Map->data() + Body, Map->data() + Map->size(), Want.begin());
  return parseVerified(Path, "cache entry", Map->data(), Body, Want);
}

} // namespace

Expected<ProfileStore> ProfileStore::open(const std::string &RootDir) {
  return open(RootDir, StoreOptions{});
}

Expected<ProfileStore> ProfileStore::open(const std::string &RootDir,
                                          const StoreOptions &Options) {
  ProfileStore Store;
  Store.Options = Options;
  Store.Root = RootDir;
  while (Store.Root.size() > 1 && Store.Root.back() == '/')
    Store.Root.pop_back();
  if (Store.Root.empty())
    return Error::failure("empty store path");
  for (const char *Sub : {"", "/objects", "/cache", "/runs"})
    if (Error E = createDirectories(Store.Root + Sub))
      return E;
  if (Error E = Store.loadIndex())
    return E;
  return Store;
}

std::string ProfileStore::objectPath(const Sha256Digest &Digest) const {
  std::string Hex = digestToHex(Digest);
  return Root + "/objects/" + Hex.substr(0, 2) + "/" + Hex + ".gmon";
}

std::string ProfileStore::runPath(const Sha256Digest &Digest) const {
  return Root + "/runs/" + digestToHex(Digest) + ".gmon";
}

std::string ProfileStore::cachePath(const Sha256Digest &AggDigest) const {
  return Root + "/cache/" + digestToHex(AggDigest) + ".gmon";
}

const ShardInfo *ProfileStore::findShard(const Sha256Digest &Digest) const {
  auto It = std::lower_bound(Shards.begin(), Shards.end(),
                             ShardInfo{.Digest = Digest}, digestLess);
  if (It != Shards.end() && It->Digest == Digest)
    return &*It;
  return nullptr;
}

const RunInfo *ProfileStore::findRun(const Sha256Digest &Digest) const {
  auto It = std::lower_bound(
      Runs.begin(), Runs.end(), Digest,
      [](const RunInfo &R, const Sha256Digest &D) { return R.Digest < D; });
  if (It != Runs.end() && It->Digest == Digest)
    return &*It;
  return nullptr;
}

Error ProfileStore::loadIndex() {
  std::string Path = Root + "/index.bin";
  if (fileExists(Path)) {
    // Parse straight out of the mapping; every record copies into Shards,
    // so the view only needs to live for the duration of this block.
    auto Map = MappedFile::open(Path);
    if (!Map)
      return Map.takeError();
    BinaryReader R(Map->data(), Map->size());

    auto Magic = R.readBytes(sizeof(IndexMagic));
    if (!Magic)
      return Magic.takeError();
    if (!std::equal(Magic->begin(), Magic->end(), IndexMagic))
      return Error::failure(Path + ": not a profile store index (bad magic)");
    auto Ver = R.readU32();
    if (!Ver)
      return Ver.takeError();
    if (*Ver < IndexVersionV1 || *Ver > IndexVersion)
      return Error::failure(format("%s: unsupported index version %u "
                                   "(expected %u)",
                                   Path.c_str(), *Ver, IndexVersion));
    if (*Ver >= 4)
      if (Error E = readU64Into(R, Generation))
        return E;
    auto Count = R.readU64();
    if (!Count)
      return Count.takeError();
    if (*Count > MaxIndexRecords)
      return Error::failure(Path + ": index record count implausibly large");
    Shards.reserve(static_cast<size_t>(*Count));
    for (uint64_t I = 0; I != *Count; ++I) {
      ShardInfo Info;
      if (Error E = readShardRecord(R, *Ver, Info))
        return E;
      Shards.push_back(Info);
    }
    if (*Ver >= 2) {
      auto RunCount = R.readU64();
      if (!RunCount)
        return RunCount.takeError();
      if (*RunCount > MaxIndexRecords)
        return Error::failure(Path + ": run manifest count implausibly large");
      Runs.reserve(static_cast<size_t>(*RunCount));
      for (uint64_t I = 0; I != *RunCount; ++I) {
        RunInfo Run;
        if (Error E = readRunRecord(R, *Ver, Path, Run))
          return E;
        if (*Ver >= 3)
          Runs.push_back(std::move(Run));
      }
    }
    if (!R.atEnd())
      return Error::failure(format("%s: %zu trailing bytes after index data",
                                   Path.c_str(), R.remaining()));
    // An older index counts as no checkpoint, so the first append writes
    // a v4 one, which binaries that predate the journal refuse to open.
    IndexBytes = *Ver == IndexVersion ? Map->size() : 0;
  }
  if (Error E = replayJournal())
    return E;
  // Sort once, after every record is in.
  std::sort(Shards.begin(), Shards.end(), digestLess);
  for (size_t I = 1; I < Shards.size(); ++I)
    if (Shards[I].Digest == Shards[I - 1].Digest)
      return Error::failure(
          format("%s: shard %s is indexed twice", Path.c_str(),
                 digestToHex(Shards[I].Digest).substr(0, 12).c_str()));
  if (Error E = checkRunTree(Path))
    return E;
  recountRoots();
  return Error::success();
}

Error ProfileStore::replayJournal() {
  const std::string Path = Root + "/index.log";
  if (!fileExists(Path))
    return Error::success();
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  const uint8_t *Data = Map->data();
  const size_t Size = Map->size();
  // Until records replay, every byte on disk is to be cut: a header cut
  // short is a torn first append, which nobody was told had landed.
  JournalNeedsCut = Size != 0;
  if (Size < JournalHeaderBytes)
    return Error::success();
  if (!std::equal(Data, Data + 4, JournalMagic))
    return Error::failure(Path + ": not a profile store journal (bad magic)");
  if (!checkMatches(Data, 16, Data + 16))
    return Error::failure(Path + ": journal header fails its check");
  if (loadLE(Data + 4, 4) != JournalVersion)
    return Error::failure(format("%s: unsupported journal version %u "
                                 "(expected %u)",
                                 Path.c_str(),
                                 static_cast<unsigned>(loadLE(Data + 4, 4)),
                                 JournalVersion));
  // Another generation's journal predates the checkpoint (a crash between
  // index.bin's rename and the journal's reset): index.bin already holds
  // whatever it recorded, and whatever gc has since expired.
  if (loadLE(Data + 8, 8) != Generation) {
    StaleGeneration = loadLE(Data + 8, 8);
    return Error::success();
  }
  size_t Off = JournalHeaderBytes;
  while (Off != Size) {
    const size_t Bytes = intactRecordAt(Data + Off, Size - Off);
    if (Bytes == 0) {
      // A torn last record was never acknowledged, and a failing one
      // cannot be told from a tear: either is dropped.  Damage with an
      // intact record after it is not a tear.
      for (size_t Next = Off + 1; Next < Size; ++Next)
        if (intactRecordAt(Data + Next, Size - Next))
          return Error::failure(format("%s: damaged record at offset %zu",
                                       Path.c_str(), Off));
      break;
    }
    BinaryReader R(Data + Off + 5, Bytes - RecordFraming);
    if (Data[Off + 4] == ShardRecord) {
      ShardInfo Info;
      if (Error E = readShardRecord(R, IndexVersion, Info))
        return E;
      Shards.push_back(Info);
    } else {
      RunInfo Run;
      if (Error E = readRunRecord(R, IndexVersion, Path, Run))
        return E;
      Runs.push_back(std::move(Run));
    }
    Off += Bytes;
  }
  JournalBytes = Off;
  JournalNeedsCut = Off != Size;
  return Error::success();
}

std::vector<Sha256Digest> ProfileStore::claimedChildren() const {
  std::vector<Sha256Digest> Claimed;
  for (const RunInfo &R : Runs)
    Claimed.insert(Claimed.end(), R.Children.begin(), R.Children.end());
  std::sort(Claimed.begin(), Claimed.end());
  return Claimed;
}

Error ProfileStore::checkRunTree(const std::string &Path) {
  // The index is written as a whole, atomically, so a tree that does not
  // hold together is corruption, not a torn write.
  std::sort(Runs.begin(), Runs.end(), runDigestLess);
  auto Short = [](const Sha256Digest &D) {
    return digestToHex(D).substr(0, 12);
  };
  std::vector<Sha256Digest> Claimed = claimedChildren();
  auto Twice = std::adjacent_find(Claimed.begin(), Claimed.end());
  if (Twice != Claimed.end())
    return Error::failure(format("%s: two runs claim child %s", Path.c_str(),
                                 Short(*Twice).c_str()));
  // Members derive bottom-up, so visit the runs by ascending level.
  std::vector<RunInfo *> ByLevel;
  for (RunInfo &R : Runs)
    ByLevel.push_back(&R);
  std::stable_sort(ByLevel.begin(), ByLevel.end(),
                   [](const RunInfo *A, const RunInfo *B) {
                     return A->Level < B->Level;
                   });
  for (RunInfo *R : ByLevel) {
    std::sort(R->Children.begin(), R->Children.end());
    if (R->Level == 0 || R->Children.empty())
      return Error::failure(format("%s: run %s has level %u and %zu "
                                   "children",
                                   Path.c_str(), Short(R->Digest).c_str(),
                                   R->Level, R->Children.size()));
    R->Members.clear();
    for (const Sha256Digest &C : R->Children) {
      // Level-1 children are shards; above, runs one level down.
      const RunInfo *Child = R->Level == 1 ? nullptr : findRun(C);
      if (R->Level == 1 ? !findShard(C) : !Child)
        return Error::failure(format("%s: run %s names child %s not in the "
                                     "index",
                                     Path.c_str(), Short(R->Digest).c_str(),
                                     Short(C).c_str()));
      if (Child && Child->Level + 1 != R->Level)
        return Error::failure(format("%s: level-%u run %s names level-%u "
                                     "run %s",
                                     Path.c_str(), R->Level,
                                     Short(R->Digest).c_str(), Child->Level,
                                     Short(C).c_str()));
      if (Child)
        R->Members.insert(R->Members.end(), Child->Members.begin(),
                          Child->Members.end());
      else
        R->Members.push_back(C);
    }
    std::sort(R->Members.begin(), R->Members.end());
  }
  return Error::success();
}

void ProfileStore::recountRoots() {
  const std::vector<Sha256Digest> Claimed = claimedChildren();
  auto IsClaimed = [&Claimed](const Sha256Digest &D) {
    return std::binary_search(Claimed.begin(), Claimed.end(), D);
  };
  UnclaimedShards = 0;
  for (const ShardInfo &S : Shards)
    UnclaimedShards += !IsClaimed(S.Digest);
  RootRuns.clear();
  for (const RunInfo &R : Runs) {
    if (IsClaimed(R.Digest))
      continue;
    if (RootRuns.size() <= R.Level)
      RootRuns.resize(R.Level + 1);
    ++RootRuns[R.Level];
  }
}

bool ProfileStore::foldDue() const {
  const unsigned Fanout = std::max(2u, Options.CompactionFanout);
  return UnclaimedShards >= Fanout ||
         std::any_of(RootRuns.begin(), RootRuns.end(),
                     [Fanout](uint64_t N) { return N >= Fanout; });
}

Error ProfileStore::appendRecord(uint8_t Kind,
                                 const std::vector<uint8_t> &Payload) {
  BinaryWriter W;
  if (JournalBytes == 0) {
    W.writeBytes(reinterpret_cast<const uint8_t *>(JournalMagic),
                 sizeof(JournalMagic));
    W.writeU32(JournalVersion);
    W.writeU64(Generation);
    appendCheck(W, 0);
  }
  const size_t Start = W.bytes().size();
  W.writeU32(static_cast<uint32_t>(Payload.size()));
  W.writeU8(Kind);
  W.writeBytes(Payload.data(), Payload.size());
  appendCheck(W, Start);

  const std::string Path = Root + "/index.log";
  if (Error E = retryIo([&]() -> Error {
        if (!WriteRefusal.empty())
          return Error::failure(WriteRefusal);
        if (!Journal.isOpen()) {
          auto F = AppendFile::open(Path);
          if (!F)
            return F.takeError();
          Journal = F.takeValue();
        }
        if (JournalNeedsCut) {
          if (Error Cut = Journal.truncate(JournalBytes))
            return Cut;
          JournalNeedsCut = false;
        }
        Error E = Journal.writeAt(JournalBytes, W.bytes());
        // Cut a torn append back off, so the next one lands after the
        // last whole record.
        if (E.isFailure())
          if (Error Cut = Journal.truncate(JournalBytes))
            WriteRefusal = format("%s: an append failed and could not be "
                                  "cut back (%s); reopen the store",
                                  Path.c_str(), Cut.message().c_str());
        return E;
      }))
    return E;
  JournalBytes += W.bytes().size();
  telemetry::gauge("store.index.journal_records").add(1);
  return Error::success();
}

Error ProfileStore::checkpoint() {
  if (!WriteRefusal.empty())
    return Error::failure(WriteRefusal);
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>(IndexMagic),
               sizeof(IndexMagic));
  const uint64_t Next = std::max(Generation, StaleGeneration) + 1;
  W.writeU32(IndexVersion);
  W.writeU64(Next);
  W.writeU64(Shards.size());
  for (const ShardInfo &Info : Shards)
    writeShardRecord(W, Info);
  W.writeU64(Runs.size());
  for (const RunInfo &Run : Runs)
    writeRunRecord(W, Run);
  // Write-then-rename so a crash mid-save never leaves a torn index.
  if (Error E = retryIo(
          [&] { return writeFileBytesAtomic(Root + "/index.bin", W.bytes()); }))
    return E;
  Generation = Next;
  IndexBytes = W.bytes().size();
  telemetry::gauge("store.index.checkpoints").add(1);
  // The journal's records are all in index.bin now, under an older
  // generation that open ignores; empty it, or cut it before the next
  // append if that fails or it is not open yet.
  JournalBytes = 0;
  JournalNeedsCut = !Journal.isOpen() || static_cast<bool>(Journal.truncate(0));
  return Error::success();
}

void ProfileStore::checkpointIfDue() {
  if (JournalBytes <= IndexBytes)
    return;
  if (Error E = checkpoint())
    telemetry::gauge("store.index.checkpoint_failures").add(1);
}

Error ProfileStore::retryIo(const std::function<Error()> &Op) const {
  unsigned BackoffMs = Options.RetryBackoffMs;
  for (unsigned Attempt = 0;; ++Attempt) {
    Error E = Op();
    if (!E || Attempt == Options.IoRetries)
      return E;
    // A gauge, not a counter: how often transient faults strike depends on
    // the environment, never on the data.
    telemetry::gauge("store.io.retries").add(1);
    if (BackoffMs != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
    BackoffMs *= 2;
  }
}

Error ProfileStore::checkCompatibleWithStore(const ProfileData &Data,
                                             const Sha256Digest &ImageId,
                                             const std::string &Label) const {
  if (Shards.empty())
    return Error::success();
  if (Data.TicksPerSecond != Shards.front().Hz)
    return Error::failure(format(
        "cannot ingest '%s' into store '%s': sampling rates differ "
        "(%llu vs %llu ticks/sec)",
        Label.c_str(), Root.c_str(),
        static_cast<unsigned long long>(Data.TicksPerSecond),
        static_cast<unsigned long long>(Shards.front().Hz)));
  // Geometry is checked against the first shard that has a histogram: an
  // empty histogram (a run with arcs but no samples) is compatible with
  // anything, so an unsampled shard must not serve as the reference.
  const ShardInfo *Key = nullptr;
  for (const ShardInfo &S : Shards)
    if (S.NumBuckets != 0) {
      Key = &S;
      break;
    }
  if (Key && !Data.Hist.empty() &&
      (Data.Hist.lowPc() != Key->LowPc || Data.Hist.highPc() != Key->HighPc ||
       Data.Hist.bucketSize() != Key->BucketSize))
    return Error::failure(format(
        "cannot ingest '%s' into store '%s': histogram ranges differ "
        "([%llu,%llu)/%llu vs [%llu,%llu)/%llu)",
        Label.c_str(), Root.c_str(),
        static_cast<unsigned long long>(Data.Hist.lowPc()),
        static_cast<unsigned long long>(Data.Hist.highPc()),
        static_cast<unsigned long long>(Data.Hist.bucketSize()),
        static_cast<unsigned long long>(Key->LowPc),
        static_cast<unsigned long long>(Key->HighPc),
        static_cast<unsigned long long>(Key->BucketSize)));
  if (!isZeroDigest(ImageId)) {
    // Any shard that recorded an image identity pins the store to it.
    for (const ShardInfo &S : Shards)
      if (!isZeroDigest(S.ImageId) && S.ImageId != ImageId)
        return Error::failure(format(
            "cannot ingest '%s' into store '%s': profiled image %s does not "
            "match the store's image %s",
            Label.c_str(), Root.c_str(),
            digestToHex(ImageId).substr(0, 12).c_str(),
            digestToHex(S.ImageId).substr(0, 12).c_str()));
  }
  return Error::success();
}

Expected<Sha256Digest> ProfileStore::put(ProfileData Data,
                                         const Sha256Digest &ImageId,
                                         const std::string &Label,
                                         uint64_t CaptureTimeNs) {
  static telemetry::DurationHistogram &Latency =
      telemetry::histogram("store.put.latency");
  telemetry::ScopedDuration Timer(Latency);
  if (Error E = fault::check("store.put", Label))
    return E;
  // Canonicalize, serialize and hash before any lock: concurrent puts
  // overlap everything but their checks and their commit.
  canonicalizeProfile(Data);
  std::vector<uint8_t> Bytes = writeGmon(Data);
  const Sha256Digest Digest = Sha256::hash(Bytes);

  // Under the ingest lock, before the object write and again before the
  // commit: between the two, another put may have stored this shard, or
  // pinned the store to a rate, geometry or image this one lacks.
  auto Admit = [&]() -> Expected<bool> {
    if (!WriteRefusal.empty())
      return Error::failure(WriteRefusal);
    if (Error E = checkCompatibleWithStore(Data, ImageId, Label))
      return E;
    if (!findShard(Digest))
      return false;
    telemetry::counter("store.put.dedup_hits").add(1);
    return true; // Content-addressed: already ingested.
  };
  {
    std::lock_guard<std::mutex> Lock(*IngestMutex);
    auto Stored = Admit();
    if (!Stored)
      return Stored.takeError();
    if (*Stored)
      return Digest;
  }

  // The object is written outside the ingest lock, under the shared write
  // gate held through the commit, so gc cannot sweep it, or its
  // temporary, before the index names it.  Atomic: a crash (or injected
  // fault) mid-ingest never leaves a torn object under a
  // content-addressed name.
  std::shared_lock<std::shared_mutex> Gate(*WriteGate);
  std::string Path = objectPath(Digest);
  if (Error E = createDirectories(Path.substr(0, Path.rfind('/'))))
    return E;
  if (Error E = retryIo([&] { return writeFileBytesAtomic(Path, Bytes); }))
    return E;

  std::lock_guard<std::mutex> Lock(*IngestMutex);
  auto Stored = Admit();
  if (!Stored)
    return Stored.takeError();
  if (*Stored)
    return Digest;
  ShardInfo Info;
  Info.Digest = Digest;
  Info.ImageId = ImageId;
  Info.Hz = Data.TicksPerSecond;
  Info.LowPc = Data.Hist.lowPc();
  Info.HighPc = Data.Hist.highPc();
  Info.BucketSize = Data.Hist.bucketSize();
  Info.NumBuckets = Data.Hist.numBuckets();
  Info.NumArcs = Data.Arcs.size();
  Info.TotalSamples = Data.Hist.totalSamples();
  Info.Runs = Data.RunCount;
  Info.CaptureTimeNs = CaptureTimeNs != 0 ? CaptureTimeNs : wallClockNs();
  BinaryWriter Record;
  writeShardRecord(Record, Info);
  if (Error E = appendRecord(ShardRecord, Record.bytes()))
    return E;
  Shards.insert(
      std::upper_bound(Shards.begin(), Shards.end(), Info, digestLess), Info);
  ++UnclaimedShards;
  telemetry::counter("store.put.ingested").add(1);
  telemetry::counter("store.put.bytes_written").add(Bytes.size());
  checkpointIfDue();
  return Digest;
}

Expected<Sha256Digest> ProfileStore::putFile(const std::string &GmonPath,
                                             const Sha256Digest &ImageId,
                                             uint64_t CaptureTimeNs) {
  GmonReadOptions ReadOpts;
  ReadOpts.Tolerant = Options.TolerantReads;
  auto Data = readGmonFile(GmonPath, ReadOpts);
  if (!Data)
    return Data.takeError();
  return put(Data.takeValue(), ImageId, GmonPath, CaptureTimeNs);
}

std::vector<ShardInfo> ProfileStore::shardsSnapshot() const {
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  return Shards;
}

std::vector<RunInfo> ProfileStore::runsSnapshot() const {
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  return Runs;
}

Expected<ShardInfo> ProfileStore::resolve(const std::string &HexPrefix) const {
  if (HexPrefix.empty())
    return Error::failure("empty shard digest");
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  const ShardInfo *Match = nullptr;
  for (const ShardInfo &S : Shards) {
    std::string Hex = digestToHex(S.Digest);
    if (Hex.compare(0, HexPrefix.size(), HexPrefix) == 0) {
      if (Match)
        return Error::failure(format("shard digest '%s' is ambiguous",
                                     HexPrefix.c_str()));
      Match = &S;
    }
  }
  if (!Match)
    return Error::failure(format("no shard matches digest '%s'",
                                 HexPrefix.c_str()));
  return *Match;
}

Expected<ProfileData>
ProfileStore::loadShard(const Sha256Digest &Digest) const {
  // The slot name promises the content; verify before trusting it.
  std::string Path = objectPath(Digest);
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  return parseVerified(Path, "object", Map->data(), Map->size(), Digest);
}

Expected<ProfileData> ProfileStore::loadRun(const RunInfo &Run) const {
  // Runs are named by member set, so the index entry carries the content
  // digest to check — a damaged run that still parses must not be summed.
  std::string Path = runPath(Run.Digest);
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  return parseVerified(Path, "run", Map->data(), Map->size(),
                       Run.ContentDigest);
}

Sha256Digest
ProfileStore::aggregateDigest(const std::vector<Sha256Digest> &Members) {
  // Hot path of every cache probe: sort a local index over the caller's
  // vector instead of copying 32 bytes per member.
  std::vector<const Sha256Digest *> Order;
  Order.reserve(Members.size());
  for (const Sha256Digest &D : Members)
    Order.push_back(&D);
  std::sort(Order.begin(), Order.end(),
            [](const Sha256Digest *A, const Sha256Digest *B) {
              return *A < *B;
            });
  Order.erase(std::unique(Order.begin(), Order.end(),
                          [](const Sha256Digest *A, const Sha256Digest *B) {
                            return *A == *B;
                          }),
              Order.end());
  Sha256 H;
  // Domain-separate aggregate keys from shard content digests.
  const char Tag[4] = {'G', 'A', 'G', 'G'};
  H.update(reinterpret_cast<const uint8_t *>(Tag), sizeof(Tag));
  for (const Sha256Digest *D : Order)
    H.update(D->data(), D->size());
  return H.finish();
}

std::vector<Sha256Digest>
ProfileStore::membersInWindow(uint64_t SinceNs, uint64_t UntilNs) const {
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  std::vector<Sha256Digest> Out;
  for (const ShardInfo &S : Shards)
    if (S.CaptureTimeNs >= SinceNs &&
        (UntilNs == 0 || S.CaptureTimeNs <= UntilNs))
      Out.push_back(S.Digest);
  return Out;
}

Expected<ProfileStore::MergeResult>
ProfileStore::merge(std::vector<Sha256Digest> Members, ThreadPool *Pool) {
  static telemetry::DurationHistogram &Latency =
      telemetry::histogram("store.merge.latency");
  telemetry::ScopedDuration Timer(Latency);
  if (Error E = fault::check("store.merge", Root))
    return E;

  // Selected runs are copied out of the index: their member lists ride
  // along so a damaged run file can fall back to the raw objects.
  std::vector<RunInfo> SelectedRuns;
  std::vector<Sha256Digest> Loose;
  {
    // Index reads race with concurrent put() in the daemon; the heavy
    // merge below runs outside the lock over immutable object files.
    std::lock_guard<std::mutex> Lock(*IngestMutex);
    if (Members.empty())
      for (const ShardInfo &S : Shards)
        Members.push_back(S.Digest);
    if (Members.empty())
      return Error::failure(format("store '%s' is empty", Root.c_str()));
    std::sort(Members.begin(), Members.end());
    Members.erase(std::unique(Members.begin(), Members.end()), Members.end());
    for (const Sha256Digest &D : Members)
      if (!findShard(D))
        return Error::failure(format("no shard %s in store '%s'",
                                     digestToHex(D).substr(0, 12).c_str(),
                                     Root.c_str()));

    // Tiered lookup: substitute every run whose member set the request
    // covers, preferring high levels (one level-L run replaces Fanout^L
    // members).  Runs of the merge tree are nested or disjoint, so the
    // first fit at the highest level is the whole subtree, and the
    // Covered mask skips the runs below it: the cover is disjoint.
    std::vector<const RunInfo *> Candidates;
    Candidates.reserve(Runs.size());
    for (const RunInfo &R : Runs)
      Candidates.push_back(&R);
    std::sort(Candidates.begin(), Candidates.end(),
              [](const RunInfo *A, const RunInfo *B) {
                if (A->Level != B->Level)
                  return A->Level > B->Level;
                return A->Digest < B->Digest;
              });
    std::vector<uint8_t> Covered(Members.size(), 0);
    for (const RunInfo *R : Candidates) {
      if (R->Members.size() > Members.size())
        continue;
      bool Usable = true;
      std::vector<size_t> Hits;
      Hits.reserve(R->Members.size());
      for (const Sha256Digest &D : R->Members) {
        auto It = std::lower_bound(Members.begin(), Members.end(), D);
        if (It == Members.end() || *It != D ||
            Covered[static_cast<size_t>(It - Members.begin())]) {
          Usable = false;
          break;
        }
        Hits.push_back(static_cast<size_t>(It - Members.begin()));
      }
      if (!Usable)
        continue;
      for (size_t I : Hits)
        Covered[I] = 1;
      SelectedRuns.push_back(*R);
    }
    for (size_t I = 0; I != Members.size(); ++I)
      if (!Covered[I])
        Loose.push_back(Members[I]);
  }

  MergeResult Result;
  Result.Digest = aggregateDigest(Members);
  Result.MemberCount = Members.size();

  // Cache traffic depends on what previous commands left on disk, so the
  // hit/miss tallies are gauges (docs/TELEMETRY.md); the CLI reports them
  // per command via MergeResult::CacheHit.  Register both up front so a
  // --stats dump always shows the pair, zero or not.
  telemetry::Metric &CacheHits = telemetry::gauge("store.merge.cache_hits");
  telemetry::Metric &CacheMisses =
      telemetry::gauge("store.merge.cache_misses");
  std::string Cached = cachePath(Result.Digest);
  if (fileExists(Cached)) {
    auto Data = loadCacheEntry(Cached);
    if (Data) {
      CacheHits.add(1);
      Result.Data = Data.takeValue();
      Result.CacheHit = true;
      return Result;
    }
    // A damaged cache entry — torn, or failing its digest — is recomputed
    // below, but evicted *now*: if the recompute errors out before its
    // atomic rename replaces the file, a lingering damaged entry would
    // fail every subsequent query.
    (void)Data.takeError();
    telemetry::counter("store.merge.cache_evictions").add(1);
    if (Error E = removeFile(Cached))
      return E;
  }
  CacheMisses.add(1);

  // Load the selected runs first, then the loose members they left over.
  // A run that fails to load or to verify costs speed, not correctness:
  // its members rejoin the loose list and merge from the raw objects.
  std::vector<ProfileData> Inputs;
  Inputs.reserve(SelectedRuns.size() + Loose.size());
  size_t RunsUsed = 0;
  for (const RunInfo &R : SelectedRuns) {
    auto Data = loadRun(R);
    if (!Data) {
      (void)Data.takeError();
      telemetry::gauge("store.merge.run_fallbacks").add(1);
      Loose.insert(Loose.end(), R.Members.begin(), R.Members.end());
      continue;
    }
    Inputs.push_back(Data.takeValue());
    ++RunsUsed;
  }
  std::sort(Loose.begin(), Loose.end());
  for (const Sha256Digest &D : Loose) {
    auto Data = loadShard(D);
    if (!Data)
      return Data.takeError();
    Inputs.push_back(Data.takeValue());
  }
  Result.InputsMerged = Inputs.size();
  Result.RunsUsed = RunsUsed;
  // Gauges: how much of the request compaction had pre-folded depends on
  // when the background pass last ran, not on the data alone.
  telemetry::gauge("store.merge.runs_used").add(RunsUsed);
  telemetry::gauge("store.merge.loose_shards").add(Loose.size());
  telemetry::counter("store.merge.shards_loaded").add(Inputs.size());
  auto Merged = mergeProfiles(Inputs, Pool);
  if (!Merged)
    return Merged.takeError();
  Result.Data = Merged.takeValue();
  std::vector<uint8_t> CacheBytes = encodeCacheEntry(Result.Data);
  // Atomic: readers race with cache population, and a torn cache entry
  // under the aggregate key would be served as a (corrupt) hit.  The
  // shared write gate keeps a concurrent gc off its temporary.
  std::shared_lock<std::shared_mutex> Gate(*WriteGate);
  if (Error E =
          retryIo([&] { return writeFileBytesAtomic(Cached, CacheBytes); }))
    return E;
  telemetry::counter("store.merge.bytes_written").add(CacheBytes.size());
  return Result;
}

bool ProfileStore::planCompaction(CompactionPlan &Plan) const {
  const unsigned Fanout = std::max(2u, Options.CompactionFanout);
  // A fold keeps its sources as children, so only unclaimed shards and
  // root runs are eligible; shards are claimed by level-1 runs alone.
  const std::vector<Sha256Digest> Claimed = claimedChildren();
  auto IsClaimed = [&Claimed](const Sha256Digest &D) {
    return std::binary_search(Claimed.begin(), Claimed.end(), D);
  };

  // Level 0: shards no level-1 run covers yet.  Oldest first, so runs
  // cover contiguous capture windows and retention can retire whole runs.
  std::vector<const ShardInfo *> Uncovered;
  for (const ShardInfo &S : Shards)
    if (!IsClaimed(S.Digest))
      Uncovered.push_back(&S);
  if (Uncovered.size() >= Fanout) {
    std::sort(Uncovered.begin(), Uncovered.end(),
              [](const ShardInfo *A, const ShardInfo *B) {
                if (A->CaptureTimeNs != B->CaptureTimeNs)
                  return A->CaptureTimeNs < B->CaptureTimeNs;
                return A->Digest < B->Digest;
              });
    Plan = CompactionPlan();
    Plan.OutLevel = 1;
    Plan.MinTimeNs = UINT64_MAX;
    for (unsigned I = 0; I != Fanout; ++I) {
      const ShardInfo *S = Uncovered[I];
      Plan.SourceShards.push_back(S->Digest);
      Plan.Members.push_back(S->Digest);
      Plan.MinTimeNs = std::min(Plan.MinTimeNs, S->CaptureTimeNs);
      Plan.MaxTimeNs = std::max(Plan.MaxTimeNs, S->CaptureTimeNs);
    }
    std::sort(Plan.Members.begin(), Plan.Members.end());
    Plan.Epoch = TreeEpoch;
    return true;
  }

  // Higher tiers: Fanout root runs of one level fold into the level
  // above, lowest level first so the tree fills bottom-up.
  uint32_t MaxLevel = 0;
  for (const RunInfo &R : Runs)
    MaxLevel = std::max(MaxLevel, R.Level);
  for (uint32_t L = 1; L <= MaxLevel; ++L) {
    std::vector<const RunInfo *> Roots;
    for (const RunInfo &R : Runs)
      if (R.Level == L && !IsClaimed(R.Digest))
        Roots.push_back(&R);
    if (Roots.size() < Fanout)
      continue;
    std::sort(Roots.begin(), Roots.end(),
              [](const RunInfo *A, const RunInfo *B) {
                if (A->MinTimeNs != B->MinTimeNs)
                  return A->MinTimeNs < B->MinTimeNs;
                return A->Digest < B->Digest;
              });
    Plan = CompactionPlan();
    Plan.OutLevel = L + 1;
    Plan.MinTimeNs = UINT64_MAX;
    for (unsigned I = 0; I != Fanout; ++I) {
      const RunInfo *R = Roots[I];
      Plan.SourceRuns.push_back(*R);
      Plan.Members.insert(Plan.Members.end(), R->Members.begin(),
                          R->Members.end());
      Plan.MinTimeNs = std::min(Plan.MinTimeNs, R->MinTimeNs);
      Plan.MaxTimeNs = std::max(Plan.MaxTimeNs, R->MaxTimeNs);
    }
    std::sort(Plan.Members.begin(), Plan.Members.end());
    Plan.Epoch = TreeEpoch;
    return true;
  }
  return false;
}

bool ProfileStore::compactionPending() const {
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  return foldDue();
}

Expected<bool> ProfileStore::compactStep(ThreadPool *Pool,
                                         CompactionStats *Stats) {
  static telemetry::DurationHistogram &Latency =
      telemetry::histogram("store.compact.latency");
  telemetry::ScopedDuration Timer(Latency);
  if (Error E = fault::check("store.compact", Root))
    return E;

  CompactionPlan Plan;
  {
    std::lock_guard<std::mutex> Lock(*IngestMutex);
    if (!foldDue() || !planCompaction(Plan))
      return false;
  }

  // Heavy phase outside the lock: the sources are immutable files, and a
  // concurrent put() must not stall behind a fold.  A source run that
  // fails to load or to verify is folded from its member objects instead:
  // the bytes come out the same, and one damaged run file must not stop
  // every later drain.
  std::vector<ProfileData> Inputs;
  Inputs.reserve(Plan.SourceRuns.size() + Plan.SourceShards.size());
  std::vector<Sha256Digest> FromObjects = Plan.SourceShards;
  for (const RunInfo &R : Plan.SourceRuns) {
    auto Data = loadRun(R);
    if (Data) {
      Inputs.push_back(Data.takeValue());
      continue;
    }
    (void)Data.takeError();
    telemetry::gauge("store.compact.run_fallbacks").add(1);
    FromObjects.insert(FromObjects.end(), R.Members.begin(), R.Members.end());
  }
  for (const Sha256Digest &D : FromObjects) {
    auto Data = loadShard(D);
    if (!Data)
      return Data.takeError();
    Inputs.push_back(Data.takeValue());
  }
  auto Merged = mergeProfiles(Inputs, Pool);
  if (!Merged)
    return Merged.takeError();
  std::vector<uint8_t> Bytes = writeGmon(*Merged);

  RunInfo NewRun;
  NewRun.Digest = aggregateDigest(Plan.Members);
  NewRun.ContentDigest = Sha256::hash(Bytes);
  NewRun.Level = Plan.OutLevel;
  NewRun.MinTimeNs = Plan.MinTimeNs;
  NewRun.MaxTimeNs = Plan.MaxTimeNs;
  NewRun.Children = Plan.SourceShards;
  for (const RunInfo &R : Plan.SourceRuns)
    NewRun.Children.push_back(R.Digest);
  std::sort(NewRun.Children.begin(), NewRun.Children.end());
  NewRun.Members = std::move(Plan.Members);

  // The run file commits before the ingest lock, under the shared write
  // gate that gc waits on, so no sweep takes it before its record lands.
  std::shared_lock<std::shared_mutex> Gate(*WriteGate);
  if (Error E = retryIo([&] {
        return writeFileBytesAtomic(runPath(NewRun.Digest), Bytes);
      }))
    return E;
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  // A fold or expiry committed since planning may have claimed or retired
  // a source.  Drop the plan — its run file is residue for gc, or the
  // same bytes another fold committed — and send the caller's loop back
  // to planning against the new state.
  if (Plan.Epoch != TreeEpoch)
    return true;
  // Commit order: run file first, then its journal record.  A failure
  // between the two strands an orphan run file gc() sweeps — never an
  // index naming a missing run.
  BinaryWriter Record;
  writeRunRecord(Record, NewRun);
  if (Error E = appendRecord(RunRecord, Record.bytes()))
    return E;
  Runs.insert(std::upper_bound(Runs.begin(), Runs.end(), NewRun,
                               runDigestLess),
              NewRun);
  if (NewRun.Level == 1)
    UnclaimedShards -= Plan.SourceShards.size();
  else
    RootRuns[NewRun.Level - 1] -= Plan.SourceRuns.size();
  if (RootRuns.size() <= NewRun.Level)
    RootRuns.resize(NewRun.Level + 1);
  ++RootRuns[NewRun.Level];
  ++TreeEpoch;
  checkpointIfDue();

  if (Stats) {
    ++Stats->Steps;
    Stats->ShardsFolded += Plan.SourceShards.size();
  }
  // Gauges: how many folds run, and when, depends on scheduling (daemon
  // idle time, CLI invocations), not on the profile data.
  telemetry::gauge("store.compact.steps").add(1);
  telemetry::gauge("store.compact.shards_folded")
      .add(Plan.SourceShards.size());
  EventLog::instance().emit(
      "compaction.step",
      jsonIntField("level", NewRun.Level) + ", " +
          jsonIntField("inputs", Inputs.size()) + ", " +
          jsonIntField("members", NewRun.Members.size()) + ", " +
          jsonStringField("run",
                          digestToHex(NewRun.Digest).substr(0, 12)));
  return true;
}

Expected<CompactionStats> ProfileStore::compact(ThreadPool *Pool) {
  CompactionStats Stats;
  for (;;) {
    auto Worked = compactStep(Pool, &Stats);
    if (!Worked)
      return Worked.takeError();
    if (!*Worked)
      return Stats;
  }
}

namespace {

bool hasTmpSuffix(const std::string &Name) {
  return Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".tmp") == 0;
}

/// Strips a trailing ".gmon" so slot names parse back to digests.
std::string stripGmonSuffix(std::string Name) {
  if (Name.size() > 5 && Name.compare(Name.size() - 5, 5, ".gmon") == 0)
    Name.resize(Name.size() - 5);
  return Name;
}

} // namespace

Expected<GcStats> ProfileStore::gc() { return gc(GcOptions{}); }

Expected<GcStats> ProfileStore::gc(const GcOptions &GcOpts) {
  if (Error E = fault::check("store.gc", Root))
    return E;
  // Sweeps delete the files the index does not name.  The write gate,
  // exclusive, waits out in-flight puts and folds — each holds it shared
  // from its file write to its commit — and the ingest lock freezes the
  // index for the whole sweep.
  std::unique_lock<std::shared_mutex> Gate(*WriteGate);
  std::lock_guard<std::mutex> Lock(*IngestMutex);
  GcStats Stats;

  // Retention expiry first: shrink the index, commit it, then let the
  // sweeps below collect the files it no longer names.  Index-then-files
  // order means a crash mid-gc can only strand orphans, never leave the
  // index naming deleted objects.
  if (GcOpts.ExpireBeforeNs != 0) {
    std::vector<Sha256Digest> Expired;
    for (const ShardInfo &S : Shards)
      if (S.CaptureTimeNs < GcOpts.ExpireBeforeNs)
        Expired.push_back(S.Digest);
    if (!Expired.empty()) {
      std::sort(Expired.begin(), Expired.end());
      auto IsExpired = [&Expired](const Sha256Digest &D) {
        return std::binary_search(Expired.begin(), Expired.end(), D);
      };
      // A run over any expired member is retired whole — its level-1 run
      // and every ancestor, whose aggregates would keep counting samples
      // the retention policy says are gone.  Their other children stay
      // as roots for the next compaction to refold.
      std::vector<ShardInfo> KeptShards;
      for (const ShardInfo &S : Shards)
        if (!IsExpired(S.Digest))
          KeptShards.push_back(S);
      std::vector<RunInfo> KeptRuns;
      for (const RunInfo &R : Runs)
        if (std::none_of(R.Members.begin(), R.Members.end(), IsExpired))
          KeptRuns.push_back(R);
      Stats.RetiredRuns = static_cast<unsigned>(Runs.size() - KeptRuns.size());
      Stats.ExpiredShards = static_cast<unsigned>(Expired.size());
      // Journal records only add, so a removal commits as a checkpoint;
      // if it fails, memory goes back to what disk still says.
      std::swap(Shards, KeptShards);
      std::swap(Runs, KeptRuns);
      if (Error E = checkpoint()) {
        std::swap(Shards, KeptShards);
        std::swap(Runs, KeptRuns);
        return E;
      }
      recountRoots();
      ++TreeEpoch;
    }
  }

  // Stale .tmp files are the residue of writes interrupted before their
  // rename; atomic writers leave them only on a crash or injected fault,
  // and every writer of a path names its own.
  auto RootEntries = listDirectory(Root);
  if (!RootEntries)
    return RootEntries.takeError();
  for (const std::string &Name : *RootEntries) {
    if (!hasTmpSuffix(Name))
      continue;
    if (Error E = removeFile(Root + "/" + Name))
      return E;
    ++Stats.TempFiles;
  }

  // The cache sweep keeps the entry for the current full member set —
  // the key the very next default report asks for, still valid because
  // the member set it memoizes is exactly what is live.  Subset keys are
  // one-way hashes of unknown member lists, so they cannot be proven
  // valid and are dropped.
  std::string LiveAggName;
  if (!Shards.empty()) {
    std::vector<Sha256Digest> All;
    All.reserve(Shards.size());
    for (const ShardInfo &S : Shards)
      All.push_back(S.Digest);
    LiveAggName = digestToHex(aggregateDigest(All)) + ".gmon";
  }
  auto CacheEntries = listDirectory(Root + "/cache");
  if (!CacheEntries)
    return CacheEntries.takeError();
  for (const std::string &Name : *CacheEntries) {
    if (!hasTmpSuffix(Name) && Name == LiveAggName) {
      ++Stats.RetainedAggregates;
      continue;
    }
    if (Error E = removeFile(Root + "/cache/" + Name))
      return E;
    if (hasTmpSuffix(Name))
      ++Stats.TempFiles;
    else
      ++Stats.CachedAggregates;
  }

  auto Fans = listDirectory(Root + "/objects");
  if (!Fans)
    return Fans.takeError();
  for (const std::string &Fan : *Fans) {
    std::string FanDir = Root + "/objects/" + Fan;
    auto Objects = listDirectory(FanDir);
    if (!Objects)
      return Objects.takeError();
    for (const std::string &Name : *Objects) {
      auto Digest = digestFromHex(stripGmonSuffix(Name));
      if (Digest && findShard(*Digest))
        continue;
      if (Error E = removeFile(FanDir + "/" + Name))
        return E;
      if (hasTmpSuffix(Name))
        ++Stats.TempFiles;
      else
        ++Stats.OrphanObjects;
    }
  }

  // Run files without a live manifest: compaction residue from a fold
  // that committed its file but not its index, runs gc expiry retired,
  // and the flat runs of a v1/v2 index.
  auto RunEntries = listDirectory(Root + "/runs");
  if (!RunEntries)
    return RunEntries.takeError();
  for (const std::string &Name : *RunEntries) {
    auto Digest = digestFromHex(stripGmonSuffix(Name));
    if (Digest && findRun(*Digest))
      continue;
    if (Error E = removeFile(Root + "/runs/" + Name))
      return E;
    if (hasTmpSuffix(Name))
      ++Stats.TempFiles;
    else
      ++Stats.OrphanRuns;
  }

  telemetry::counter("store.gc.cache_files").add(Stats.CachedAggregates);
  telemetry::counter("store.gc.retained_aggregates")
      .add(Stats.RetainedAggregates);
  telemetry::counter("store.gc.orphan_objects").add(Stats.OrphanObjects);
  telemetry::counter("store.gc.orphan_runs").add(Stats.OrphanRuns);
  telemetry::counter("store.gc.temp_files").add(Stats.TempFiles);
  telemetry::counter("store.gc.expired_shards").add(Stats.ExpiredShards);
  telemetry::counter("store.gc.retired_runs").add(Stats.RetiredRuns);
  EventLog::instance().emit(
      "gc.sweep", jsonIntField("cached", Stats.CachedAggregates) + ", " +
                      jsonIntField("retained", Stats.RetainedAggregates) +
                      ", " + jsonIntField("orphans", Stats.OrphanObjects) +
                      ", " + jsonIntField("orphan_runs", Stats.OrphanRuns) +
                      ", " + jsonIntField("temp", Stats.TempFiles) + ", " +
                      jsonIntField("expired", Stats.ExpiredShards) + ", " +
                      jsonIntField("retired_runs", Stats.RetiredRuns));
  return Stats;
}
