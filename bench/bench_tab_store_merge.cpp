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
/// and (b) the k-way merge, checking that both produce byte-identical
/// output.  Compaction: a real on-disk store at 256 and 1024 shards,
/// comparing the cold flat-merge report (every object read and merged)
/// against the report after LSM compaction (a handful of tiered runs),
/// each timed once on a cold store, asserting that the flat report
/// merges every shard, that the compacted report merges 1 to 16 inputs,
/// and that its bytes match the flat merge exactly.  One aligned
/// capture-time window per store size (64 shards; 8 in smoke mode) must
/// read the one run of its subtree, with bytes equal to its flat merge.
/// Emits BENCH_store_merge.json for the perf-tracking tooling; --smoke
/// shrinks the sizes for the ctest hook that keeps the bench and its JSON
/// emission from rotting.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "gmon/GmonFile.h"
#include "store/MergeEngine.h"
#include "store/ProfileStore.h"
#include "support/Random.h"

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
  /// The oldest Window shards in capture order, merged cold before and
  /// after compaction.
  size_t Window = 0;
  double WindowFlatMs = 0.0;
  double WindowMs = 0.0;
  size_t WindowInputs = 0;
  bool WindowIdentical = false;
};

CompactionRound runCompactionRound(size_t NumShards, size_t Window) {
  CompactionRound R;
  R.Shards = NumShards;
  R.Window = Window;
  std::string Root = std::filesystem::temp_directory_path().string() +
                     "/gprof_bench_compact_" +
                     format("%d_%zu", getpid(), NumShards);
  std::filesystem::remove_all(Root);

  StoreOptions SO;
  SO.CompactionFanout = 8;
  auto Store = cantFail(ProfileStore::open(Root, SO));
  std::vector<Sha256Digest> Oldest;
  for (size_t I = 0; I != NumShards; ++I) {
    Sha256Digest D = cantFail(Store.put(makeShard(0xC0DE + I), Sha256Digest{},
                                        "profile", /*CaptureTimeNs=*/I + 1));
    if (I < Window)
      Oldest.push_back(D);
  }

  // Each operation is timed once: a repeat would hit the aggregate cache
  // (merge) or find nothing left to fold (compact).
  ProfileStore::MergeResult Flat;
  R.FlatMs = timeMs([&] { Flat = cantFail(Store.merge({})); }, 1);
  R.InputsFlat = Flat.InputsMerged;
  std::vector<uint8_t> FlatBytes = writeGmon(Flat.Data);
  ProfileStore::MergeResult FlatWindow;
  R.WindowFlatMs =
      timeMs([&] { FlatWindow = cantFail(Store.merge(Oldest)); }, 1);

  R.CompactMs = timeMs(
      [&] {
        CompactionStats Stats = cantFail(Store.compact());
        R.Folds = Stats.Steps;
      },
      1);

  // Cold again: drop the cached aggregate so the report actually merges.
  cantFail(removeFile(Store.cachePath(Flat.Digest)));
  ProfileStore::MergeResult Tiered;
  R.ReportMs = timeMs([&] { Tiered = cantFail(Store.merge({})); }, 1);
  R.InputsCompacted = Tiered.InputsMerged;
  R.RunsUsed = Tiered.RunsUsed;
  R.Identical = writeGmon(Tiered.Data) == FlatBytes;

  cantFail(removeFile(Store.cachePath(FlatWindow.Digest)));
  ProfileStore::MergeResult TreeWindow;
  R.WindowMs =
      timeMs([&] { TreeWindow = cantFail(Store.merge(Oldest)); }, 1);
  R.WindowInputs = TreeWindow.InputsMerged;
  R.WindowIdentical = writeGmon(TreeWindow.Data) == writeGmon(FlatWindow.Data);

  std::filesystem::remove_all(Root);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  const size_t EngineShards = Smoke ? 64 : 256;
  std::vector<size_t> StoreSizes = Smoke ? std::vector<size_t>{32}
                                         : std::vector<size_t>{256, 1024};
  const size_t Window = Smoke ? 8 : 64;

  banner("T-store (new)",
         "k-way merge and LSM compaction over a profile repository");

  std::vector<ProfileData> Shards;
  Shards.reserve(EngineShards);
  for (size_t I = 0; I != EngineShards; ++I)
    Shards.push_back(makeShard(0xACE0 + I));
  size_t TotalArcs = 0;
  for (const ProfileData &S : Shards)
    TotalArcs += S.Arcs.size();
  std::printf("\nengine: %zu shards, %zu arc records total\n\n",
              Shards.size(), TotalArcs);

  row({"engine", "ms", "speedup vs fold"}, 16);

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
  row({"sequential fold", format("%.2f", FoldMs), "1.00x"}, 16);
  Json.set("fold_ms", FoldMs);

  ProfileData Merged;
  double KWayMs = timeMs([&] { Merged = cantFail(mergeProfiles(Shards)); });
  bool Identical = writeGmon(Merged) == Reference;
  row({"k-way merge", format("%.2f", KWayMs), format("%.2fx", FoldMs / KWayMs)},
      16);
  Json.beginRow();
  Json.setRow("section", std::string("engine"));
  Json.setRow("ms", KWayMs);

  std::printf("\ncompaction: fanout 8, cold report before vs after\n\n");
  row({"shards", "flat ms", "compact ms", "report ms", "inputs", "runs"},
      12);
  bool CompactIdentical = true, CompactBounded = true;
  std::vector<CompactionRound> Rounds;
  for (size_t N : StoreSizes) {
    Rounds.push_back(runCompactionRound(N, Window));
    const CompactionRound &R = Rounds.back();
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

  std::printf("\naligned window: the oldest %zu shards, cold merge before "
              "vs after compaction\n\n",
              Window);
  row({"shards", "window", "flat ms", "tree ms", "inputs"}, 12);
  bool WindowOneRun = true;
  for (const CompactionRound &R : Rounds) {
    WindowOneRun = WindowOneRun && R.WindowInputs == 1 && R.WindowIdentical;
    row({format("%zu", R.Shards), format("%zu", R.Window),
         format("%.2f", R.WindowFlatMs), format("%.2f", R.WindowMs),
         format("%zu -> %zu", R.Window, R.WindowInputs)},
        12);
    Json.beginRow();
    Json.setRow("section", std::string("aligned_window"));
    Json.setRow("shards", uint64_t(R.Shards));
    Json.setRow("window", uint64_t(R.Window));
    Json.setRow("flat_window_ms", R.WindowFlatMs);
    Json.setRow("tree_window_ms", R.WindowMs);
    Json.setRow("window_inputs", uint64_t(R.WindowInputs));
  }

  std::printf("\nchecks:\n");
  bool Ok = true;
  Ok &= check(Identical,
              "the k-way merge and the sequential fold produce "
              "byte-identical gmon output");
  if (!Smoke)
    Ok &= check(KWayMs < FoldMs,
                "the k-way merge beats the quadratic sequential fold");
  Ok &= check(CompactIdentical,
              "the compacted report is byte-identical to the flat merge at "
              "every store size");
  Ok &= check(CompactBounded,
              "the flat report merges every shard, and after compaction a "
              "full report merges 1 to 16 inputs");
  Ok &= check(WindowOneRun,
              "an aligned capture-time window merges 1 input, byte-identical "
              "to its flat merge");
  Json.set("kway1_ms", KWayMs);
  Json.write();
  return Ok ? 0 : 1;
}
