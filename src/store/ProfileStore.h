//===- store/ProfileStore.h - On-disk repository of gmon shards ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent repository for profile shards, built for the retrospective
/// observation that "summing the data over several profiled runs" is what
/// makes rarely-hit routines visible — at fleet scale that means keeping
/// thousands of gmon files around and aggregating subsets of them on
/// demand.  Layout under the store root:
///
///   index.bin                    checkpoint of the index of shards and runs
///   index.log                    journal: one record per put and per fold
///                                since the checkpoint (docs/FORMATS.md)
///   objects/<hh>/<digest>.gmon   canonical shard bytes, content-addressed
///   runs/<digest>.gmon           compacted partial merges (merge-tree runs)
///   cache/<digest>.gmon          merged aggregates, keyed by member set,
///                                each followed by its bytes' SHA-256
///
/// Shards are canonicalized (arc table sorted, duplicates coalesced) before
/// digesting, so the same logical profile always lands in the same slot no
/// matter how its arcs were ordered on disk.  Ingest validates
/// compatibility — sampling rate, histogram geometry, and (when known) the
/// identity of the profiled VM image — so a store never accumulates shards
/// that cannot be summed.  Aggregation runs on the parallel k-way merge
/// tree (store/MergeEngine.h) and is deterministic, which is what makes
/// the aggregate cache sound: the cache key depends only on the member
/// digest set, never on thread count or ingest order.
///
/// Aggregation is *tiered* (log-structured merge): freshly ingested shards
/// sit at level 0, and compaction folds the oldest Fanout of them into a
/// level-1 *run* — a memoized partial merge over a fixed member set — then
/// Fanout root level-1 runs into a level-2 run, and so on.  A fold keeps
/// its sources as the new run's children, so the runs form a merge tree
/// over capture order in which any two runs' member sets are nested or
/// disjoint.  merge() covers the request with whole runs, highest level
/// first: a window aligned to a subtree reads that one run, and any
/// window reads at most about 2(Fanout-1) runs per level plus the
/// uncompacted tail.  Runs are an acceleration structure only: shards are
/// never deleted by compaction, each run's content digest is checked on
/// load, and a run that is missing or damaged falls back to its member
/// objects, so losing a run file loses speed, never data.  Because the
/// merge engine is associative and deterministic, a tiered merge is
/// byte-identical to the flat merge of the same members at every
/// compaction state.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_STORE_PROFILESTORE_H
#define GPROF_STORE_PROFILESTORE_H

#include "gmon/ProfileData.h"
#include "support/Error.h"
#include "support/FileUtils.h"
#include "support/Sha256.h"
#include "support/ThreadPool.h"

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace gprof {

/// Index record for one ingested shard: its content digest plus the
/// summary fields `gprof-store list` shows without touching the object.
struct ShardInfo {
  Sha256Digest Digest{};  ///< SHA-256 of the canonical gmon bytes.
  Sha256Digest ImageId{}; ///< SHA-256 of the profiled image; zero = unknown.
  uint64_t Hz = 0;        ///< Sampling ticks per second.
  Address LowPc = 0;      ///< Histogram range (zeros when no histogram).
  Address HighPc = 0;
  uint64_t BucketSize = 0;
  uint64_t NumBuckets = 0;
  uint64_t NumArcs = 0;
  uint64_t TotalSamples = 0;
  uint32_t Runs = 0;
  /// Wall-clock capture time, nanoseconds since the epoch — stamped at
  /// ingest (index format v2).  Drives windowed reports (--since/--until)
  /// and retention expiry; shards from a v1 index read back as 0.
  uint64_t CaptureTimeNs = 0;
};

/// One compacted run: a memoized partial merge over a fixed set of shards,
/// and one node of the store's merge tree.  A level-1 run folds Fanout
/// shards; a level-(L+1) run folds Fanout level-L runs, which stay live as
/// its children.  No shard or run has two parents, so any two runs' member
/// sets are nested or disjoint, and merge() can cover a request with whole
/// runs without double counting.
struct RunInfo {
  /// Aggregate digest of the member set (aggregateDigest), which names
  /// runs/<digest>.gmon.  Keyed like cache entries: by *what was merged*,
  /// sound because the merge engine is deterministic.
  Sha256Digest Digest{};
  /// SHA-256 of the run file's bytes, recorded at commit and checked on
  /// every load, as a shard's slot name is.
  Sha256Digest ContentDigest{};
  uint32_t Level = 1; ///< Tier height; folding Fanout of these makes L+1.
  /// Capture-time window covered: [min, max] over the member shards.
  uint64_t MinTimeNs = 0;
  uint64_t MaxTimeNs = 0;
  /// The folded inputs, sorted: shard digests at level 1, run digests one
  /// level down above that.  This is what the index stores.
  std::vector<Sha256Digest> Children;
  /// Every shard under this run, sorted — derived from Children on load.
  std::vector<Sha256Digest> Members;
};

/// Retention knobs for gc().
struct GcOptions {
  /// Drop every shard captured strictly before this timestamp (ns since
  /// epoch); runs over an expired shard (its level-1 run and every
  /// ancestor) are retired with it.
  /// 0 = no expiry, sweep only.
  uint64_t ExpireBeforeNs = 0;
};

/// What gc() swept (and deliberately kept).
struct GcStats {
  unsigned CachedAggregates = 0;  ///< Cache entries removed.
  unsigned RetainedAggregates = 0; ///< Still-valid cache entries kept.
  unsigned OrphanObjects = 0;     ///< Object files not named by the index.
  unsigned OrphanRuns = 0;        ///< Run files without a live manifest.
  unsigned TempFiles = 0;         ///< Stale .tmp files from torn writes.
  unsigned ExpiredShards = 0;     ///< Shards dropped by ExpireBeforeNs.
  unsigned RetiredRuns = 0;       ///< Runs retired because a member expired.
};

/// What a compaction pass accomplished.
struct CompactionStats {
  unsigned Steps = 0;         ///< Folds committed (one new run each).
  uint64_t ShardsFolded = 0;  ///< Level-0 shards newly covered by a run.
};

/// Behavioral knobs for an open store.
struct StoreOptions {
  /// Salvage truncated gmon inputs on putFile() instead of rejecting them
  /// (gmon/GmonFile.h tolerant mode).  Damaged-input details land on the
  /// gmon.read.* telemetry counters.
  bool TolerantReads = false;
  /// Extra attempts after a failed store I/O operation (0 = fail fast).
  /// Retries target transient faults — NFS hiccups, AV interference — and
  /// each attempt doubles the backoff below.
  unsigned IoRetries = 2;
  /// Sleep before the first retry, in milliseconds; doubles per attempt.
  unsigned RetryBackoffMs = 1;
  /// Inputs folded per compaction step: Fanout uncovered shards become a
  /// level-1 run, Fanout level-L runs become a level-(L+1) run.  A store
  /// of N shards compacts to at most Fanout tiers per level plus a
  /// sub-Fanout tail, so report() merges O(Fanout·log_Fanout N) inputs.
  /// Clamped to >= 2.
  unsigned CompactionFanout = 8;
};

/// An open profile repository rooted at one directory.
class ProfileStore {
public:
  /// Creates an inert store; open() is the real entry point.
  ProfileStore() = default;

  /// Opens (creating if needed) the store rooted at \p RootDir.
  static Expected<ProfileStore> open(const std::string &RootDir);
  /// Same, with explicit behavior knobs.
  static Expected<ProfileStore> open(const std::string &RootDir,
                                     const StoreOptions &Options);

  const StoreOptions &options() const { return Options; }

  const std::string &rootDir() const { return Root; }

  /// Every ingested shard, sorted by ascending digest.  Borrowing view
  /// for single-threaded callers; concurrent readers (daemon workers
  /// racing with put) must use shardsSnapshot().
  const std::vector<ShardInfo> &shards() const { return Shards; }

  /// A copy of the index taken under the ingest lock — safe against
  /// concurrent put() from other threads sharing this store.
  std::vector<ShardInfo> shardsSnapshot() const;

  /// Every live compacted run — inner nodes of the merge tree included —
  /// sorted by ascending digest.  Borrowing view; concurrent readers must
  /// use runsSnapshot().
  const std::vector<RunInfo> &runs() const { return Runs; }

  /// A copy of the run manifests taken under the ingest lock.
  std::vector<RunInfo> runsSnapshot() const;

  /// Ingests one profile: canonicalizes, validates compatibility against
  /// the shards already present, writes the object, and appends the shard
  /// to the index journal.  Idempotent — re-ingesting identical data
  /// returns the same digest without rewriting anything.  \p Label names
  /// the source in errors.
  /// \p CaptureTimeNs stamps the shard's capture time (ns since epoch);
  /// 0 means "now".  Explicit stamps exist for backfill and for
  /// deterministic tests of windowed selection.
  Expected<Sha256Digest> put(ProfileData Data,
                             const Sha256Digest &ImageId = Sha256Digest{},
                             const std::string &Label = "profile",
                             uint64_t CaptureTimeNs = 0);

  /// Reads the gmon file at \p GmonPath and ingests it.
  Expected<Sha256Digest>
  putFile(const std::string &GmonPath,
          const Sha256Digest &ImageId = Sha256Digest{},
          uint64_t CaptureTimeNs = 0);

  /// Resolves a (unique) hex digest prefix to a shard record.
  Expected<ShardInfo> resolve(const std::string &HexPrefix) const;

  /// Loads one shard's profile data from its object slot.
  Expected<ProfileData> loadShard(const Sha256Digest &Digest) const;

  /// Loads one compacted run's aggregate from its run slot, checking the
  /// bytes against the run's content digest.
  Expected<ProfileData> loadRun(const RunInfo &Run) const;

  /// The digest that keys an aggregate over \p Members (order-insensitive:
  /// members are deduplicated and sorted before hashing; the argument is
  /// never copied — this runs on every cache probe).
  static Sha256Digest aggregateDigest(const std::vector<Sha256Digest> &Members);

  struct MergeResult {
    ProfileData Data;
    Sha256Digest Digest; ///< Aggregate digest (the cache key).
    bool CacheHit = false;
    size_t MemberCount = 0;
    /// Profiles actually folded on a cache miss: substituted runs plus
    /// loose shards.  After compaction this is O(log N), not N — the
    /// whole point of the tiered store.  0 on a cache hit.
    size_t InputsMerged = 0;
    /// How many of InputsMerged were compacted runs.
    size_t RunsUsed = 0;
  };

  /// Merges the shards named by \p Members (every shard when empty) and
  /// caches the aggregate; subsequent identical queries are served from
  /// the cache without re-merging, once the entry's bytes match the
  /// digest stored with them (a mismatch is evicted and recomputed,
  /// store.merge.cache_evictions).  Compacted runs fully covered by the
  /// member set substitute for their members, so a compacted store merges
  /// a handful of runs instead of every shard; a run whose bytes fail
  /// their digest falls back to its members (store.merge.run_fallbacks).
  /// The bytes are identical to a flat merge either way.  \p Pool may be
  /// null for a sequential merge — the bytes are identical either way.
  Expected<MergeResult> merge(std::vector<Sha256Digest> Members,
                              ThreadPool *Pool = nullptr);

  /// Shards captured inside [SinceNs, UntilNs] (ns since epoch, inclusive;
  /// UntilNs = 0 means unbounded above), sorted by digest.  Feed the
  /// result to merge() for a windowed report — but mind that an empty
  /// window yields an empty vector, which merge() reads as "all shards".
  std::vector<Sha256Digest> membersInWindow(uint64_t SinceNs,
                                            uint64_t UntilNs) const;

  /// Performs at most one compaction fold: the oldest Fanout uncovered
  /// shards into a level-1 run, or the oldest Fanout root level-L runs
  /// into a level-(L+1) run that keeps them as children.  A source run
  /// whose bytes fail their digest is folded from its members instead.
  /// Returns true if a fold was committed (or the store changed underfoot
  /// and planning should rerun), false when the store is fully compacted.
  /// Crash-safe: the run file commits by atomic write-then-rename before
  /// the run's journal record is appended, and a failure at any point
  /// leaves every committed artifact intact — at worst an orphan run file
  /// that gc() sweeps.  \p Stats, when given, accumulates what the fold
  /// accomplished.
  Expected<bool> compactStep(ThreadPool *Pool = nullptr,
                             CompactionStats *Stats = nullptr);

  /// Runs compactStep until no fold remains.
  Expected<CompactionStats> compact(ThreadPool *Pool = nullptr);

  /// True if compactStep would commit a fold: two counts kept current by
  /// every put, fold, expiry and load, read under the ingest lock.  The
  /// daemon asks after every stored push.
  bool compactionPending() const;

  /// Sweeps unreferenced files: cache entries other than the live
  /// full-member-set aggregate (subset keys are one-way hashes, so only
  /// the entry the next default report will ask for is identifiable as
  /// still-valid), object files the index does not name, run files
  /// without a live manifest, and stale .tmp residue.  With
  /// GcOptions::ExpireBeforeNs, first drops shards older than the cutoff
  /// and retires the runs over them; their siblings stay for the next
  /// compaction to refold.  Expiry always checkpoints the index, since
  /// journal records only add.  gc waits for in-flight puts and folds to
  /// commit, so it never sweeps a file one of them has yet to index.
  Expected<GcStats> gc();
  Expected<GcStats> gc(const GcOptions &GcOpts);

  /// Filesystem slot of a shard object / compacted run / cached aggregate.
  std::string objectPath(const Sha256Digest &Digest) const;
  std::string runPath(const Sha256Digest &Digest) const;
  std::string cachePath(const Sha256Digest &AggregateDigest) const;

private:
  /// One planned fold, selected under the ingest lock.
  struct CompactionPlan {
    uint32_t OutLevel = 1;
    /// Root runs folded (level >= 2), copied so a damaged one can fall
    /// back to its members outside the lock.
    std::vector<RunInfo> SourceRuns;
    std::vector<Sha256Digest> SourceShards; ///< Shards folded (level 1).
    std::vector<Sha256Digest> Members;      ///< Union member set, sorted.
    uint64_t MinTimeNs = 0;
    uint64_t MaxTimeNs = 0;
    uint64_t Epoch = 0; ///< TreeEpoch when planned.
  };

  /// Reads index.bin, replays index.log over it, and validates the result.
  Error loadIndex();
  /// Reads the journal records of the checkpoint's generation.
  Error replayJournal();
  /// Appends one journal record, writing the header first into an empty
  /// journal.  A failed append is cut back; if the cut fails too, every
  /// later write is refused until the store is reopened.
  Error appendRecord(uint8_t Kind, const std::vector<uint8_t> &Payload);
  /// Rewrites index.bin from memory under a generation past its own and
  /// StaleGeneration, then empties the journal.
  Error checkpoint();
  /// Checkpoints once the journal holds more bytes than index.bin.  The
  /// record that triggered it is already durable, so a failure is only
  /// counted; the next append tries again.
  void checkpointIfDue();
  const ShardInfo *findShard(const Sha256Digest &Digest) const;
  const RunInfo *findRun(const Sha256Digest &Digest) const;
  /// Every child digest some run names, sorted: the shards level-1 runs
  /// cover and the runs that are no longer roots.
  std::vector<Sha256Digest> claimedChildren() const;
  /// Validates the loaded run tree and derives Members.
  Error checkRunTree(const std::string &Path);
  /// Recomputes UnclaimedShards and RootRuns from the tree.
  void recountRoots();
  /// True if the counts say a fold is due.  Caller holds the ingest lock.
  bool foldDue() const;
  /// Picks the next fold (lowest level first, oldest root inputs first).
  /// Caller holds the ingest lock.  False when fully compacted.
  bool planCompaction(CompactionPlan &Plan) const;
  Error checkCompatibleWithStore(const ProfileData &Data,
                                 const Sha256Digest &ImageId,
                                 const std::string &Label) const;
  /// Runs \p Op, retrying per Options on failure (bounded attempts,
  /// doubling backoff).  Returns the last attempt's error.
  Error retryIo(const std::function<Error()> &Op) const;

  std::string Root;
  StoreOptions Options;
  std::vector<ShardInfo> Shards; ///< Sorted by digest.
  std::vector<RunInfo> Runs;     ///< Sorted by digest; one merge tree.
  /// Shards no level-1 run claims, and root runs per level (index L).
  uint64_t UnclaimedShards = 0;
  std::vector<uint64_t> RootRuns;
  /// Bumped by every fold commit and expiry: a plan from an older epoch
  /// may name a claimed or expired source, so it is re-planned.
  uint64_t TreeEpoch = 0;

  /// The index journal (docs/FORMATS.md), all under the ingest lock.
  AppendFile Journal;       ///< Opened at the first append.
  uint64_t Generation = 0;  ///< The journal generation index.bin expects.
  /// Generation of an ignored journal still on disk: the next checkpoint
  /// goes past it, so that journal can never come to match.
  uint64_t StaleGeneration = 0;
  uint64_t IndexBytes = 0;  ///< v4 checkpoint bytes; 0 if absent or older.
  uint64_t JournalBytes = 0; ///< Valid journal bytes, header included.
  /// The file holds bytes past JournalBytes — a dropped tail, or a stale
  /// generation — to cut before the next append.
  bool JournalNeedsCut = false;
  /// Set when a failed append could not be cut back: writes fail with it.
  std::string WriteRefusal;

  /// Single-writer lock over Shards, Runs, the counts and the journal:
  /// held by put and compactStep to check and commit (an insert plus one
  /// journal append, and the occasional checkpoint), by gc, and by every
  /// index read that can race with them.  Objects and run files are
  /// written outside it.  shared_ptr keeps the store movable
  /// (ProfileStore travels through Expected by value); cross-process
  /// writers still need external coordination — the serve daemon is the
  /// single writer for its root.
  std::shared_ptr<std::mutex> IngestMutex = std::make_shared<std::mutex>();
  /// Held shared by put and compactStep from their file write to their
  /// commit (and by merge around its cache write), exclusively by gc: a
  /// sweep never removes a file, or its temporary, that an in-flight
  /// writer has yet to index.  Taken before IngestMutex.
  std::shared_ptr<std::shared_mutex> WriteGate =
      std::make_shared<std::shared_mutex>();
};

} // namespace gprof

#endif // GPROF_STORE_PROFILESTORE_H
