//===- bench/bench_tab_store_merge.cpp - Store merge throughput -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the profile store's aggregation engine over a fleet-sized shard
/// set, in two sections.  Engine: 256 synthetic gmon shards merged by (a)
/// the historical sequential fold (ProfileData::merge, linear-scan addArc)
/// and (b) the parallel k-way merge tree at 1/2/4/8 workers, checking that
/// every configuration produces byte-identical output.  Compaction: a real
/// on-disk store at 256 and 1024 shards, comparing the cold flat-merge
/// report (every object read and merged) against the report after LSM
/// compaction (a handful of tiered runs), each timed once on a cold
/// store, asserting that the flat report merges every shard, that the
/// compacted report merges 1 to 16 inputs, and that its bytes match the
/// flat merge exactly.  Emits BENCH_store_merge.json for the
/// perf-tracking tooling; --smoke shrinks the sizes for the ctest hook
/// that keeps the bench and its JSON emission from rotting.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "gmon/GmonFile.h"
#include "store/MergeEngine.h"
#include "store/ProfileStore.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace gprof;
using namespace gprof::bench;

namespace {

/// One synthetic shard: common geometry, seed-dependent samples and arcs.
/// Arc keys are drawn from a pool large enough that shards overlap only
/// partially, like profiles of different request mixes.
ProfileData makeShard(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0x1000, 0x11000, 4);
  for (int I = 0; I != 512; ++I)
    D.Hist.recordPc(0x1000 + Rng.nextBelow(0x10000));
  for (int I = 0; I != 400; ++I)
    D.addArc(0x1000 + Rng.nextBelow(2048) * 16,
             0x1000 + Rng.nextBelow(256) * 256, 1 + Rng.nextBelow(50));
  canonicalizeProfile(D);
  return D;
}

/// What one compaction round measured at a given store size.
struct CompactionRound {
  size_t Shards = 0;
  double FlatMs = 0.0;        ///< Cold flat-merge report, uncompacted.
  double CompactMs = 0.0;     ///< One full compaction pass.
  double ReportMs = 0.0;      ///< Cold report after compaction.
  size_t InputsFlat = 0;      ///< Profiles the flat merge folded (== N).
  size_t InputsCompacted = 0; ///< Profiles the compacted merge folded.
  size_t RunsUsed = 0;
  unsigned Folds = 0;         ///< Compaction steps committed.
  bool Identical = false;     ///< Compacted report bytes == flat bytes.
};

CompactionRound runCompactionRound(size_t NumShards) {
  CompactionRound R;
  R.Shards = NumShards;
  std::string Root = std::filesystem::temp_directory_path().string() +
                     "/gprof_bench_compact_" +
                     format("%d_%zu", getpid(), NumShards);
  std::filesystem::remove_all(Root);

  StoreOptions SO;
  SO.CompactionFanout = 8;
  auto Store = cantFail(ProfileStore::open(Root, SO));
  for (size_t I = 0; I != NumShards; ++I)
    cantFail(Store.put(makeShard(0xC0DE + I), Sha256Digest{}, "profile",
                       /*CaptureTimeNs=*/I + 1)
                 .takeError());

  // Each operation is timed once: a repeat would hit the aggregate cache
  // (merge) or find nothing left to fold (compact).
  ThreadPool Pool(8);
  ProfileStore::MergeResult Flat;
  R.FlatMs = timeMs([&] { Flat = cantFail(Store.merge({}, &Pool)); }, 1);
  R.InputsFlat = Flat.InputsMerged;
  std::vector<uint8_t> FlatBytes = writeGmon(Flat.Data);

  R.CompactMs = timeMs(
      [&] {
        CompactionStats Stats = cantFail(Store.compact(&Pool));
        R.Folds = Stats.Steps;
      },
      1);

  // Cold again: drop the cached aggregate so the report actually merges.
  cantFail(removeFile(Store.cachePath(Flat.Digest)));
  ProfileStore::MergeResult Tiered;
  R.ReportMs =
      timeMs([&] { Tiered = cantFail(Store.merge({}, &Pool)); }, 1);
  R.InputsCompacted = Tiered.InputsMerged;
  R.RunsUsed = Tiered.RunsUsed;
  R.Identical = writeGmon(Tiered.Data) == FlatBytes;

  std::filesystem::remove_all(Root);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  const size_t EngineShards = Smoke ? 64 : 256;
  std::vector<size_t> StoreSizes = Smoke ? std::vector<size_t>{32}
                                         : std::vector<size_t>{256, 1024};

  banner("T-store (new)",
         "parallel k-way merge and LSM compaction over a profile "
         "repository");

  std::vector<ProfileData> Shards;
  Shards.reserve(EngineShards);
  for (size_t I = 0; I != EngineShards; ++I)
    Shards.push_back(makeShard(0xACE0 + I));
  size_t TotalArcs = 0;
  for (const ProfileData &S : Shards)
    TotalArcs += S.Arcs.size();
  std::printf("\nengine: %zu shards, %zu arc records total\n\n",
              Shards.size(), TotalArcs);

  row({"engine", "threads", "ms", "speedup vs fold"}, 16);

  BenchJson Json("store_merge");
  Json.set("engine_shards", uint64_t(EngineShards));
  Json.set("smoke", Smoke);

  // Baseline: the pre-store sequential fold (what readAndSumGmonFiles
  // does), quadratic in the merged arc table.
  ProfileData Fold;
  double FoldMs = timeMs([&] {
    Fold = Shards.front();
    for (size_t I = 1; I != Shards.size(); ++I)
      cantFail(Fold.merge(Shards[I]));
  });
  canonicalizeProfile(Fold);
  std::vector<uint8_t> Reference = writeGmon(Fold);
  row({"sequential fold", "1", format("%.2f", FoldMs), "1.00x"}, 16);
  Json.set("fold_ms", FoldMs);

  bool Identical = true;
  double KWay1Ms = 0.0, BestParallelMs = 1e300;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    ProfileData Merged;
    double Ms = timeMs([&] {
      Merged = cantFail(mergeProfiles(Shards, &Pool));
    });
    Identical = Identical && writeGmon(Merged) == Reference;
    if (Threads == 1)
      KWay1Ms = Ms;
    else if (Ms < BestParallelMs)
      BestParallelMs = Ms;
    row({"k-way tree", format("%u", Threads), format("%.2f", Ms),
         format("%.2fx", FoldMs / Ms)},
        16);
    Json.beginRow();
    Json.setRow("section", std::string("engine"));
    Json.setRow("threads", uint64_t(Threads));
    Json.setRow("ms", Ms);
  }

  std::printf("\ncompaction: fanout 8, cold report before vs after\n\n");
  row({"shards", "flat ms", "compact ms", "report ms", "inputs", "runs"},
      12);
  bool CompactIdentical = true, CompactBounded = true;
  for (size_t N : StoreSizes) {
    CompactionRound R = runCompactionRound(N);
    CompactIdentical = CompactIdentical && R.Identical;
    CompactBounded = CompactBounded && R.InputsFlat == N &&
                     R.InputsCompacted > 0 && R.InputsCompacted <= 16;
    row({format("%zu", R.Shards), format("%.2f", R.FlatMs),
         format("%.2f", R.CompactMs), format("%.2f", R.ReportMs),
         format("%zu -> %zu", R.InputsFlat, R.InputsCompacted),
         format("%zu", R.RunsUsed)},
        12);
    Json.beginRow();
    Json.setRow("section", std::string("compaction"));
    Json.setRow("shards", uint64_t(R.Shards));
    Json.setRow("flat_report_ms", R.FlatMs);
    Json.setRow("compact_ms", R.CompactMs);
    Json.setRow("compacted_report_ms", R.ReportMs);
    Json.setRow("inputs_flat", uint64_t(R.InputsFlat));
    Json.setRow("inputs_compacted", uint64_t(R.InputsCompacted));
    Json.setRow("runs_used", uint64_t(R.RunsUsed));
    Json.setRow("folds", uint64_t(R.Folds));
  }

  std::printf("\nchecks:\n");
  bool Ok = true;
  Ok &= check(Identical,
              "every engine and thread count produces byte-identical gmon "
              "output");
  if (!Smoke) {
    Ok &= check(KWay1Ms < FoldMs,
                "the k-way merge beats the quadratic sequential fold");
    Ok &= check(BestParallelMs <= KWay1Ms * 1.10,
                "parallel workers do not lose to single-threaded k-way "
                "(within 10% even on one core)");
  }
  Ok &= check(CompactIdentical,
              "the compacted report is byte-identical to the flat merge at "
              "every store size");
  Ok &= check(CompactBounded,
              "the flat report merges every shard, and after compaction a "
              "full report merges 1 to 16 inputs");
  Json.set("kway1_ms", KWay1Ms);
  Json.set("best_parallel_ms", BestParallelMs);
  Json.write();
  return Ok ? 0 : 1;
}
