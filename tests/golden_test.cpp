//===- tests/golden_test.cpp - Byte-exact golden output regression --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole pipeline is deterministic, so entire listings can be pinned
/// byte-for-byte: any unintended change to sampling, propagation, sorting
/// or formatting shows up as a golden diff.  Regenerate the expectations
/// with:
///
///   GOLDEN_UPDATE=1 ./build/tests/golden_test
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Annotate.h"
#include "core/ContextTree.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "prof/ProfBaseline.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace gprof;

namespace {

struct Pipeline {
  Image Img;
  std::string Source;
  ProfileData Data;
  ProfileReport Report;
};

/// Compiles and profiles one corpus program under fixed settings.
Pipeline runCorpusProgram(const std::string &Name) {
  std::string Path = std::string(TL_CORPUS_DIR) + "/" + Name;
  std::string Source = cantFail(readFileText(Path));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Pipeline P{compileTLOrDie(Source, CG), Source, {}, {}};
  Monitor Mon(P.Img.lowPc(), P.Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 997;
  VM Machine(P.Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  P.Data = cantFail(readGmon(writeGmon(Mon.finish())));
  P.Report = cantFail(analyzeImageProfile(P.Img, P.Data));
  return P;
}

/// Compares \p Actual against the golden file, or rewrites it when
/// GOLDEN_UPDATE is set.
void checkGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(GOLDEN_DIR) + "/" + Name;
  if (std::getenv("GOLDEN_UPDATE")) {
    cantFail(writeFileText(Path, Actual));
    SUCCEED() << "updated " << Path;
    return;
  }
  auto Expected = readFileText(Path);
  ASSERT_TRUE(static_cast<bool>(Expected))
      << "missing golden file " << Path
      << " — run GOLDEN_UPDATE=1 ./build/tests/golden_test";
  EXPECT_EQ(Actual, *Expected) << "golden mismatch for " << Name;
}

} // namespace

TEST(GoldenTest, PrimesFlatProfile) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_flat.txt", printFlatProfile(P.Report));
}

TEST(GoldenTest, PrimesCallGraph) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_graph.txt", printCallGraph(P.Report));
}

TEST(GoldenTest, PrimesProfBaseline) {
  Pipeline P = runCorpusProgram("primes.tl");
  ProfReport Prof = analyzeProf(SymbolTable::fromImage(P.Img), P.Data);
  checkGolden("primes_prof.txt", printProf(Prof));
}

TEST(GoldenTest, PrimesAnnotatedSource) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_annotate.txt",
              printAnnotatedSource(annotateSource(P.Img, P.Source, P.Data)));
}

TEST(GoldenTest, CalculatorCallGraphWithCycle) {
  // calculator.tl's mutually recursive evaluator exercises the cycle
  // entry format.
  Pipeline P = runCorpusProgram("calculator.tl");
  checkGolden("calculator_graph.txt", printCallGraph(P.Report));
}

namespace {

/// Like runCorpusProgram, but with context-tree recording on.
Pipeline runCorpusProgramWithContexts(const std::string &Name) {
  std::string Path = std::string(TL_CORPUS_DIR) + "/" + Name;
  std::string Source = cantFail(readFileText(Path));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Pipeline P{compileTLOrDie(Source, CG), Source, {}, {}};
  MonitorOptions MO;
  MO.RecordContexts = true;
  Monitor Mon(P.Img.lowPc(), P.Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 997;
  VM Machine(P.Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  P.Data = cantFail(readGmon(writeGmon(Mon.finish())));
  P.Report = cantFail(analyzeImageProfile(P.Img, P.Data));
  return P;
}

} // namespace

TEST(GoldenTest, ContextsListing) {
  // The gprof --contexts listing for the context-dependent-cost corpus
  // program, pinned byte-exact.
  Pipeline P = runCorpusProgramWithContexts("contexts.tl");
  SymbolTable Syms = SymbolTable::fromImage(P.Img);
  ContextTree Tree = cantFail(ContextTree::build(P.Data, Syms));
  checkGolden("contexts_listing.txt", printContexts(Tree));
}

TEST(GoldenTest, ContextsPropagationError) {
  // The --prop-error table over the same run: cheap_user/costly_user
  // carry the paper-§6 misattribution this program is built to force;
  // a golden diff here means the propagation or the exact side moved.
  Pipeline P = runCorpusProgramWithContexts("contexts.tl");
  SymbolTable Syms = SymbolTable::fromImage(P.Img);
  ContextTree Tree = cantFail(ContextTree::build(P.Data, Syms));
  checkGolden("contexts_properr.txt",
              printPropagationError(propagationError(P.Report, Tree)));
}
