//===- tests/store_cli_test.cpp - End-to-end gprof-store CLI tests --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the gprof-store binary as a user would: profile the TL `primes`
/// example in-process (same fixed settings as the golden tests), ingest
/// the gmon shard, and check `put`/`list`/`merge`/`report`/`gc` behavior.
/// The `report` output is pinned against the same golden files as the
/// plain gprof tool, proving the store path is a drop-in front end to the
/// analyzer.
///
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "vm/CodeGen.h"
#include "vm/Image.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace gprof;

namespace {

int runRedirected(const std::string &Full, std::string &Output) {
  std::FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe)
    return -1;
  Output.clear();
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), Pipe))
    Output.append(Buf, N);
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs a command, capturing stdout+stderr; returns the exit code.
int runCommand(const std::string &Command, std::string &Output) {
  return runRedirected(Command + " 2>&1", Output);
}

/// Runs a command, capturing only stdout; stderr is discarded.  Used where
/// the output is byte-compared against golden listings, which must not see
/// the cache-feedback and telemetry lines the store emits on stderr.
int runCommandStdout(const std::string &Command, std::string &Output) {
  return runRedirected(Command + " 2>/dev/null", Output);
}

/// Runs a command, capturing only stderr; stdout is discarded.  Note the
/// redirection order: stderr must be pointed at the pipe before stdout is
/// sent to /dev/null.
int runCommandStderr(const std::string &Command, std::string &Output) {
  return runRedirected(Command + " 2>&1 >/dev/null", Output);
}

std::string tempPath(const std::string &Name) {
  // Per-process paths: ctest runs each test case as its own process, so a
  // shared fixed path would race under parallel test execution.
  return testing::TempDir() +
         format("/gprof_store_cli_%d_%s", getpid(), Name.c_str());
}

/// Fixture: profiles primes.tl once under the golden-test settings and
/// writes the image and gmon shard where the CLI can reach them.
class StoreCliTest : public testing::Test {
protected:
  static void SetUpTestSuite() {
    Img = new std::string(tempPath("primes.tlx"));
    Gmon = new std::string(tempPath("primes_gmon.out"));
    StoreDir = new std::string(tempPath("store"));
    std::filesystem::remove_all(*StoreDir);

    std::string Source =
        cantFail(readFileText(std::string(TL_CORPUS_DIR) + "/primes.tl"));
    CodeGenOptions CG;
    CG.EnableProfiling = true;
    Image Compiled = compileTLOrDie(Source, CG);
    Monitor Mon(Compiled.lowPc(), Compiled.highPc());
    VMOptions VO;
    VO.CyclesPerTick = 997;
    VM Machine(Compiled, VO);
    Machine.setHooks(&Mon);
    cantFail(Machine.run());
    cantFail(Compiled.saveToFile(*Img));
    cantFail(writeGmonFile(*Gmon, Mon.finish()));
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*StoreDir);
    std::remove(Img->c_str());
    std::remove(Gmon->c_str());
    delete Img;
    delete Gmon;
    delete StoreDir;
  }

  static std::string *Img, *Gmon, *StoreDir;
};

std::string *StoreCliTest::Img = nullptr;
std::string *StoreCliTest::Gmon = nullptr;
std::string *StoreCliTest::StoreDir = nullptr;

std::string golden(const std::string &Name) {
  return cantFail(readFileText(std::string(GOLDEN_DIR) + "/" + Name));
}

} // namespace

TEST_F(StoreCliTest, PutListMergeReportGc) {
  std::string Out;

  // put: prints "<digest> <path>" and is idempotent.
  int Rc = runCommand(format("%s put %s --image %s %s", GPROF_STORE_PATH,
                             StoreDir->c_str(), Img->c_str(), Gmon->c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  ASSERT_GE(Out.size(), 64u);
  std::string Digest = Out.substr(0, 64);
  EXPECT_NE(Out.find(*Gmon), std::string::npos);

  Rc = runCommand(format("%s put %s %s", GPROF_STORE_PATH, StoreDir->c_str(),
                         Gmon->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out.substr(0, 64), Digest) << "re-ingest changed the digest";

  // list: one shard, shown by digest prefix.
  Rc = runCommand(format("%s list %s", GPROF_STORE_PATH, StoreDir->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find(Digest.substr(0, 12)), std::string::npos);
  EXPECT_NE(Out.find("1 shard(s)"), std::string::npos);

  // merge: computes an aggregate, then serves it from the cache.
  Rc = runCommand(format("%s merge %s -j 2", GPROF_STORE_PATH,
                         StoreDir->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("aggregate"), std::string::npos);
  EXPECT_EQ(Out.find("[cached]"), std::string::npos);
  Rc = runCommand(format("%s merge %s", GPROF_STORE_PATH, StoreDir->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[cached]"), std::string::npos);

  // --stats dumps the store telemetry as flat stats JSON on stderr; the
  // cached merge counts one cache hit and no misses.
  Rc = runCommandStderr(format("%s merge %s --stats", GPROF_STORE_PATH,
                               StoreDir->c_str()),
                        Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("\"bench\": \"gprof_store_stats\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("{\"metric\": \"store.merge.cache_hits\", "
                     "\"kind\": \"gauge\", \"value\": 1}"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("{\"metric\": \"store.merge.cache_misses\", "
                     "\"kind\": \"gauge\", \"value\": 0}"),
            std::string::npos)
      << Out;

  // gc: the cached aggregate covers the live full member set, so it is
  // retained — the next default report stays a cache hit.
  Rc = runCommand(format("%s gc %s", GPROF_STORE_PATH, StoreDir->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("0 stale cached aggregate(s) (1 retained)"),
            std::string::npos);
  Rc = runCommand(format("%s merge %s", GPROF_STORE_PATH, StoreDir->c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[cached]"), std::string::npos);
}

TEST_F(StoreCliTest, ReportMatchesGoldenListings) {
  std::string StorePath = tempPath("golden_store");
  std::filesystem::remove_all(StorePath);
  std::string Out;
  int Rc = runCommand(format("%s put %s %s", GPROF_STORE_PATH,
                             StorePath.c_str(), Gmon->c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;

  // The store's flat profile is byte-identical to the gprof golden file.
  Rc = runCommandStdout(format("%s report --flat-only %s %s",
                               GPROF_STORE_PATH, StorePath.c_str(),
                               Img->c_str()),
                        Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out, golden("primes_flat.txt"));

  // And so is the call graph profile.
  Rc = runCommandStdout(format("%s report --graph-only %s %s",
                               GPROF_STORE_PATH, StorePath.c_str(),
                               Img->c_str()),
                        Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out, golden("primes_graph.txt"));

  // The cache feedback lands on stderr: by now the aggregate was cached
  // by the earlier reports, so this run announces a cache hit.
  Rc = runCommandStderr(format("%s report --flat-only %s %s",
                               GPROF_STORE_PATH, StorePath.c_str(),
                               Img->c_str()),
                        Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[cache hit]"), std::string::npos) << Out;
  std::filesystem::remove_all(StorePath);
}

TEST_F(StoreCliTest, CompactAndWindowedReport) {
  std::string StorePath = tempPath("compact_store");
  std::filesystem::remove_all(StorePath);
  std::string Out;

  // Backfill a shard with an explicit capture stamp.
  int Rc = runCommand(format("%s put --capture-time 500 %s %s",
                             GPROF_STORE_PATH, StorePath.c_str(),
                             Gmon->c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;

  // A window covering the stamp selects the shard; the listing matches
  // the unwindowed golden output.
  Rc = runCommandStdout(format("%s report --flat-only --since 400 "
                               "--until 600 %s %s",
                               GPROF_STORE_PATH, StorePath.c_str(),
                               Img->c_str()),
                        Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out, golden("primes_flat.txt"));

  // A window past the stamp selects nothing — and says so, instead of
  // silently reporting over everything.
  Rc = runCommand(format("%s report --since 600 %s %s", GPROF_STORE_PATH,
                         StorePath.c_str(), Img->c_str()),
                  Out);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("no shards captured"), std::string::npos) << Out;

  // compact on a store below the fanout has nothing to fold but reports
  // the layout either way.
  Rc = runCommand(format("%s compact %s", GPROF_STORE_PATH,
                         StorePath.c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("0 step(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("1 shard(s) in 0 run(s)"), std::string::npos) << Out;

  // Retention expiry below the stamp keeps the shard.
  Rc = runCommand(format("%s gc --expire-before 400 %s", GPROF_STORE_PATH,
                         StorePath.c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  Rc = runCommand(format("%s list %s", GPROF_STORE_PATH, StorePath.c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("1 shard(s)"), std::string::npos) << Out;
  std::filesystem::remove_all(StorePath);
}

TEST_F(StoreCliTest, ReportStartsMergeWorkersOnlyWhenItFolds) {
  // The merge pool starts its workers with its first job.  A report whose
  // members fold on the calling thread (fewer than four inputs) or come
  // from the aggregate cache starts none; one that splits four inputs
  // over --jobs 2 starts two.
  std::string StorePath = tempPath("pool_store");
  std::filesystem::remove_all(StorePath);
  Image Compiled = cantFail(Image::loadFromFile(*Img));
  std::vector<std::string> Shards = {*Gmon};
  for (uint64_t CyclesPerTick : {1009, 1013, 1019}) {
    Monitor Mon(Compiled.lowPc(), Compiled.highPc());
    VMOptions VO;
    VO.CyclesPerTick = CyclesPerTick;
    VM Machine(Compiled, VO);
    Machine.setHooks(&Mon);
    cantFail(Machine.run());
    Shards.push_back(tempPath(format("pool_%llu.out",
                                     static_cast<unsigned long long>(
                                         CyclesPerTick))));
    cantFail(writeGmonFile(Shards.back(), Mon.finish()));
  }

  // Runs `report --stats` and returns its stderr; \p Spawned gets the
  // workers_spawned gauge, 0 when the gauge was never registered.
  auto Report = [&](const char *Flags, uint64_t &Spawned) {
    std::string Err;
    int Rc = runCommandStderr(format("%s report --flat-only --stats %s %s %s",
                                     GPROF_STORE_PATH, Flags,
                                     StorePath.c_str(), Img->c_str()),
                              Err);
    EXPECT_EQ(Rc, 0) << Err;
    const std::string Key = "{\"metric\": \"threadpool.workers_spawned\", "
                            "\"kind\": \"gauge\", \"value\": ";
    Spawned = 0;
    if (size_t At = Err.find(Key); At != std::string::npos)
      Spawned = std::stoull(Err.substr(At + Key.size()));
    return Err;
  };

  std::string Out;
  int Rc = runCommand(format("%s put %s %s %s", GPROF_STORE_PATH,
                             StorePath.c_str(), Shards[0].c_str(),
                             Shards[1].c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  uint64_t Spawned = 0;
  Out = Report("", Spawned);
  EXPECT_NE(Out.find("cache miss, merged 2 input(s)"), std::string::npos)
      << Out;
  EXPECT_EQ(Spawned, 0u) << Out;
  Out = Report("", Spawned);
  EXPECT_NE(Out.find("[cache hit]"), std::string::npos) << Out;
  EXPECT_EQ(Spawned, 0u) << Out;

  Rc = runCommand(format("%s put %s %s %s", GPROF_STORE_PATH,
                         StorePath.c_str(), Shards[2].c_str(),
                         Shards[3].c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;
  Out = Report("--jobs 2", Spawned);
  EXPECT_NE(Out.find("cache miss, merged 4 input(s)"), std::string::npos)
      << Out;
  EXPECT_EQ(Spawned, 2u) << Out;

  for (size_t I = 1; I != Shards.size(); ++I)
    std::remove(Shards[I].c_str());
  std::filesystem::remove_all(StorePath);
}

TEST_F(StoreCliTest, RejectsUnknownCommandAndMissingShard) {
  std::string Out;
  int Rc = runCommand(format("%s frobnicate", GPROF_STORE_PATH), Out);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("unknown command"), std::string::npos);

  std::string StorePath = tempPath("err_store");
  std::filesystem::remove_all(StorePath);
  Rc = runCommand(format("%s put %s %s", GPROF_STORE_PATH, StorePath.c_str(),
                         Gmon->c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;
  Rc = runCommand(format("%s merge %s ffffffffffff", GPROF_STORE_PATH,
                         StorePath.c_str()),
                  Out);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("no shard matches"), std::string::npos) << Out;
  std::filesystem::remove_all(StorePath);
}

TEST_F(StoreCliTest, HelpTextsWork) {
  std::string Out;
  int Rc = runCommand(format("%s --help", GPROF_STORE_PATH), Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("USAGE"), std::string::npos);
  for (const char *Cmd : {"put", "list", "merge", "report", "gc",
                          "compact"}) {
    Rc = runCommand(format("%s %s --help", GPROF_STORE_PATH, Cmd), Out);
    EXPECT_EQ(Rc, 0) << Cmd;
    EXPECT_NE(Out.find("USAGE"), std::string::npos) << Cmd;
  }
}
