//===- tests/tools_test.cpp - End-to-end tests of the CLI tools -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the installed binaries (tlc, tlrun, gprof, prof) exactly as a
/// user would: compile a TL file, run it to produce gmon.out, and
/// post-process.  Binary locations are injected by CMake.
///
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/TraceWriter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

using namespace gprof;

namespace {

/// Runs a command, capturing stdout; returns the exit code.
int runCommand(const std::string &Command, std::string &Output) {
  std::string Full = Command + " 2>&1";
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

std::string tempPath(const std::string &Name) {
  // Per-process paths: ctest runs each test case as its own process, so a
  // shared fixed path would race under parallel test execution.
  return testing::TempDir() +
         format("/gprof_tools_%d_%s", getpid(), Name.c_str());
}

const char *SampleProgram = R"(
  fn leaf(x) { return x * x; }
  fn middle(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc + leaf(i); i = i + 1; }
    return acc;
  }
  fn never_called() { return 42; }
  fn main() {
    print middle(400);
    return 0;
  }
)";

/// Fixture: compiles and runs the sample program once for all tests.
class ToolsTest : public testing::Test {
protected:
  static void SetUpTestSuite() {
    Src = new std::string(tempPath("prog.tl"));
    Img = new std::string(tempPath("prog.tlx"));
    Gmon = new std::string(tempPath("gmon.out"));
    cantFail(writeFileText(*Src, SampleProgram));

    std::string Out;
    int Rc = runCommand(format("%s %s --pg -o %s", TLC_PATH, Src->c_str(),
                               Img->c_str()),
                        Out);
    ASSERT_EQ(Rc, 0) << Out;
    Rc = runCommand(format("%s %s --gmon %s --cycles-per-tick 100",
                           TLRUN_PATH, Img->c_str(), Gmon->c_str()),
                    Out);
    ASSERT_EQ(Rc, 0) << Out;
  }

  static void TearDownTestSuite() {
    std::remove(Src->c_str());
    std::remove(Img->c_str());
    std::remove(Gmon->c_str());
    delete Src;
    delete Img;
    delete Gmon;
  }

  static std::string *Src, *Img, *Gmon;
};

std::string *ToolsTest::Src = nullptr;
std::string *ToolsTest::Img = nullptr;
std::string *ToolsTest::Gmon = nullptr;

} // namespace

TEST_F(ToolsTest, TlrunPrintsProgramOutput) {
  std::string Out;
  int Rc = runCommand(format("%s %s --gmon %s", TLRUN_PATH, Img->c_str(),
                             tempPath("scratch.out").c_str()),
                      Out);
  EXPECT_EQ(Rc, 0);
  // middle(400) = sum of squares 0..399.
  EXPECT_NE(Out.find("21253400"), std::string::npos) << Out;
  EXPECT_NE(Out.find("profile written"), std::string::npos) << Out;
  std::remove(tempPath("scratch.out").c_str());
}

TEST_F(ToolsTest, GprofProducesBothListings) {
  std::string Out;
  int Rc = runCommand(format("%s %s %s", GPROF_PATH, Img->c_str(),
                             Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("flat profile"), std::string::npos);
  EXPECT_NE(Out.find("call graph profile"), std::string::npos);
  EXPECT_NE(Out.find("leaf"), std::string::npos);
  EXPECT_NE(Out.find("400/400"), std::string::npos); // middle -> leaf.
  EXPECT_NE(Out.find("never_called"), std::string::npos);
  EXPECT_NE(Out.find("index by function name"), std::string::npos);
}

TEST_F(ToolsTest, GprofBriefAndFilters) {
  std::string Out;
  int Rc = runCommand(format("%s -b --graph-only --only leaf --no-index "
                             "%s %s",
                             GPROF_PATH, Img->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out.find("flat profile"), std::string::npos);
  EXPECT_NE(Out.find("leaf"), std::string::npos);
  // Only leaf's entry: middle has no primary line (its "called+self"
  // marker "1 middle" appears only if its entry prints).
  EXPECT_EQ(Out.find("middle [2]\n-----"), std::string::npos);
}

TEST_F(ToolsTest, GprofSumsMultipleRuns) {
  std::string Gmon2 = tempPath("gmon2.out");
  std::string Out;
  int Rc = runCommand(format("%s %s --gmon %s --cycles-per-tick 100 -q",
                             TLRUN_PATH, Img->c_str(), Gmon2.c_str()),
                      Out);
  ASSERT_EQ(Rc, 0);
  Rc = runCommand(format("%s -b %s %s %s", GPROF_PATH, Img->c_str(),
                         Gmon->c_str(), Gmon2.c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  // Two summed runs: middle called twice, leaf 800 times.
  EXPECT_NE(Out.find("800/800"), std::string::npos) << Out;
  std::remove(Gmon2.c_str());
}

TEST_F(ToolsTest, ProfPrintsFlatTable) {
  std::string Out;
  int Rc = runCommand(format("%s %s %s", PROF_PATH, Img->c_str(),
                             Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("%time"), std::string::npos);
  EXPECT_NE(Out.find("leaf"), std::string::npos);
  // prof never shows parent/child structure.
  EXPECT_EQ(Out.find("parents"), std::string::npos);
}

TEST_F(ToolsTest, TlcReportsDiagnostics) {
  std::string BadSrc = tempPath("bad.tl");
  cantFail(writeFileText(BadSrc, "fn main() { return x; }"));
  std::string Out;
  int Rc = runCommand(format("%s %s -o %s", TLC_PATH, BadSrc.c_str(),
                             tempPath("bad.tlx").c_str()),
                      Out);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("undeclared name 'x'"), std::string::npos) << Out;
  std::remove(BadSrc.c_str());
}

TEST_F(ToolsTest, TlcDisassembles) {
  std::string Out;
  int Rc = runCommand(format("%s %s --pg -o %s --disasm", TLC_PATH,
                             Src->c_str(), tempPath("d.tlx").c_str()),
                      Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("mcount"), std::string::npos);
  EXPECT_NE(Out.find("leaf:"), std::string::npos);
  std::remove(tempPath("d.tlx").c_str());
}

TEST_F(ToolsTest, GprofRejectsMissingFiles) {
  std::string Out;
  int Rc = runCommand(format("%s %s /definitely/not/here.out", GPROF_PATH,
                             Img->c_str()),
                      Out);
  EXPECT_NE(Rc, 0);
}

TEST_F(ToolsTest, GprofSumWritesMergedFile) {
  std::string SumPath = tempPath("summed.out");
  std::string Out;
  int Rc = runCommand(format("%s -b --flat-only --sum %s %s %s %s",
                             GPROF_PATH, SumPath.c_str(), Img->c_str(),
                             Gmon->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  auto Summed = readGmonFile(SumPath);
  ASSERT_TRUE(static_cast<bool>(Summed));
  EXPECT_EQ(Summed->RunCount, 2u);
  std::remove(SumPath.c_str());
}

TEST_F(ToolsTest, GprofAnnotateSource) {
  std::string Out;
  int Rc = runCommand(format("%s --annotate %s %s %s", GPROF_PATH,
                             Src->c_str(), Img->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("seconds"), std::string::npos);
  EXPECT_NE(Out.find("fn middle(n)"), std::string::npos);
  // The call line carries the leaf call count.
  size_t Pos = Out.find("acc + leaf(i)");
  ASSERT_NE(Pos, std::string::npos);
  size_t LineStart = Out.rfind('\n', Pos) + 1;
  EXPECT_NE(Out.substr(LineStart, Pos - LineStart).find("400"),
            std::string::npos)
      << Out.substr(LineStart, 80);
}

TEST_F(ToolsTest, GprofDotExport) {
  std::string DotPath = tempPath("graph.dot");
  std::string Out;
  int Rc = runCommand(format("%s --dot %s -b %s %s", GPROF_PATH,
                             DotPath.c_str(), Img->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  auto Dot = readFileText(DotPath);
  ASSERT_TRUE(static_cast<bool>(Dot));
  EXPECT_NE(Dot->find("digraph callgraph"), std::string::npos);
  EXPECT_NE(Dot->find("\"middle\" -> \"leaf\""), std::string::npos);
  std::remove(DotPath.c_str());
}

TEST_F(ToolsTest, GprofExcludeTime) {
  std::string Out;
  int Rc = runCommand(format("%s -E leaf -b --flat-only %s %s", GPROF_PATH,
                             Img->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("excluded from the analysis"), std::string::npos)
      << Out;
}

TEST_F(ToolsTest, TlrunContextsThenGprofContexts) {
  // Exact self and total times per call chain come from the context tree
  // tlrun --contexts records, listed by gprof --contexts.  tlrun has no
  // other exact-attribution mode: --stack is an unknown option.
  std::string CtxGmon = tempPath("contexts.out");
  std::string Out;
  int Rc = runCommand(format("%s --contexts -q --cycles-per-tick 100 %s "
                             "--gmon %s",
                             TLRUN_PATH, Img->c_str(), CtxGmon.c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  Rc = runCommand(format("%s --contexts %s %s", GPROF_PATH, Img->c_str(),
                         CtxGmon.c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("calling-context profile: 3 contexts"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("middle: 1 context, exact self"), std::string::npos)
      << Out;
  // leaf's one context carries all 400 of its calls.
  size_t Leaf = Out.find("main > middle > leaf");
  ASSERT_NE(Leaf, std::string::npos) << Out;
  EXPECT_EQ(std::stoull(Out.substr(Out.rfind('\n', Leaf) + 1)), 400u) << Out;
  std::remove(CtxGmon.c_str());

  Rc = runCommand(format("%s --stack -q %s", TLRUN_PATH, Img->c_str()), Out);
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("unknown option '--stack'"), std::string::npos) << Out;
}

TEST_F(ToolsTest, TlcDumpAst) {
  std::string Out;
  int Rc = runCommand(format("%s --dump-ast %s", TLC_PATH, Src->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("fn middle(n)"), std::string::npos);
  EXPECT_NE(Out.find("call-direct"), std::string::npos);
}

TEST_F(ToolsTest, GprofStatsAndTraceOut) {
  // The observability surface end to end: --stats=FILE writes the flat
  // stats JSON, --trace-out writes a Chrome trace, and neither disturbs
  // the listings.
  std::string StatsPath = tempPath("stats.json");
  std::string TracePath = tempPath("trace.json");

  std::string Plain, Instrumented;
  int Rc = runCommand(format("%s %s %s", GPROF_PATH, Img->c_str(),
                             Gmon->c_str()),
                      Plain);
  ASSERT_EQ(Rc, 0) << Plain;
  Rc = runCommand(format("%s --stats=%s --trace-out %s %s %s", GPROF_PATH,
                         StatsPath.c_str(), TracePath.c_str(), Img->c_str(),
                         Gmon->c_str()),
                  Instrumented);
  ASSERT_EQ(Rc, 0) << Instrumented;
  EXPECT_EQ(Instrumented, Plain);

  // The stats JSON parses and carries the pipeline counters.
  auto Stats = readFileText(StatsPath);
  ASSERT_TRUE(static_cast<bool>(Stats));
  ASSERT_TRUE(validateJson(*Stats).hasValue()) << *Stats;
  EXPECT_NE(Stats->find("\"bench\": \"gprof_stats\""), std::string::npos);
  EXPECT_NE(Stats->find("analyzer.symbolize.raw_records"),
            std::string::npos);

  // The trace parses, and every §4 phase appears in it once.
  auto Trace = readFileText(TracePath);
  ASSERT_TRUE(static_cast<bool>(Trace));
  auto TS = validateTraceJson(*Trace);
  ASSERT_TRUE(TS.hasValue()) << TS.message();
  EXPECT_EQ(TS->NameCounts.at("analyzer.symbolize"), 1u);
  EXPECT_EQ(TS->NameCounts.at("analyzer.assign"), 1u);
  EXPECT_EQ(TS->NameCounts.at("analyzer.propagate"), 1u);
  std::remove(StatsPath.c_str());
  std::remove(TracePath.c_str());
}

TEST_F(ToolsTest, GprofBareStatsDumpsToStderr) {
  std::string Out;
  int Rc = runCommand(format("%s -b --flat-only --stats %s %s", GPROF_PATH,
                             Img->c_str(), Gmon->c_str()),
                      Out);
  EXPECT_EQ(Rc, 0) << Out;
  // Bare --stats must not swallow the image path as its value.
  EXPECT_NE(Out.find("cumulative"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"bench\": \"gprof_stats\""), std::string::npos)
      << Out;
}

TEST_F(ToolsTest, TlrunTelemetryEnvKnob) {
  std::string StatsPath = tempPath("tlrun_stats.json");
  std::string Out;
  int Rc = runCommand(format("GPROF_TELEMETRY=%s %s %s -q --gmon %s "
                             "--cycles-per-tick 100",
                             StatsPath.c_str(), TLRUN_PATH, Img->c_str(),
                             tempPath("knob.out").c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  auto Stats = readFileText(StatsPath);
  ASSERT_TRUE(static_cast<bool>(Stats));
  ASSERT_TRUE(validateJson(*Stats).hasValue()) << *Stats;
  EXPECT_NE(Stats->find("\"bench\": \"tlrun_stats\""), std::string::npos);
  EXPECT_NE(Stats->find("runtime.mcount.records"), std::string::npos);
  EXPECT_NE(Stats->find("runtime.hist.ticks"), std::string::npos);
  std::remove(StatsPath.c_str());
  std::remove(tempPath("knob.out").c_str());

  // GPROF_TELEMETRY=- dumps to stderr instead.
  Rc = runCommand(format("GPROF_TELEMETRY=- %s %s -q --gmon %s",
                         TLRUN_PATH, Img->c_str(),
                         tempPath("knob2.out").c_str()),
                  Out);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("\"bench\": \"tlrun_stats\""), std::string::npos)
      << Out;
  std::remove(tempPath("knob2.out").c_str());
}

TEST_F(ToolsTest, TlrunRejectsOutOfRangeCounts) {
  // Each value is 2^32 + 1 or 2^32: truncated to 32 bits they would read
  // as 1 thread and a zero-node context budget.  Both are rejected before
  // the run starts, with the option named.
  std::string Out;
  int Rc = runCommand(format("%s -q --threads 4294967297 %s --gmon %s",
                             TLRUN_PATH, Img->c_str(),
                             tempPath("range_threads.out").c_str()),
                      Out);
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("--threads"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("threads, exit value"), std::string::npos) << Out;
  EXPECT_FALSE(fileExists(tempPath("range_threads.out")));

  Rc = runCommand(format("%s -q --contexts --cct-node-limit 4294967296 %s "
                         "--gmon %s",
                         TLRUN_PATH, Img->c_str(),
                         tempPath("range_cct.out").c_str()),
                  Out);
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("--cct-node-limit"), std::string::npos) << Out;
  EXPECT_FALSE(fileExists(tempPath("range_cct.out")));
}

TEST_F(ToolsTest, HelpTextsWork) {
  for (const char *Tool : {TLC_PATH, TLRUN_PATH, GPROF_PATH, PROF_PATH}) {
    std::string Out;
    int Rc = runCommand(format("%s --help", Tool), Out);
    EXPECT_EQ(Rc, 0);
    EXPECT_NE(Out.find("USAGE"), std::string::npos);
  }
}
