//===- tests/context_tree_test.cpp - Tests for exact per-context times ----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ContextTree turns the recorded calling-context tree into exact self
/// and inclusive times: the complete call stacks the retrospective asks
/// for, aggregated per path.  These tests run small programs with
/// contexts recorded and check the attribution against what the programs
/// must do: self never exceeds total, recursion counts each tick once,
/// a callee's ticks go to the caller that actually made the expensive
/// call, and every tick the VM delivered lands in exactly one context.
///
//===----------------------------------------------------------------------===//

#include "core/ContextTree.h"

#include "core/SymbolTable.h"
#include "runtime/Monitor.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace gprof;

namespace {

/// One run of a program with contexts recorded, and its analyzed tree.
struct ContextRun {
  Image Img;
  RunResult Run;
  ProfileData Data;
  SymbolTable Syms;
  ContextTree Tree;

  uint32_t routine(const std::string &Name) const {
    uint32_t I = Syms.findByName(Name);
    EXPECT_NE(I, NoSymbol) << Name;
    return I;
  }
  uint64_t self(const std::string &Name) const {
    return Tree.exactSelfTicks(routine(Name));
  }
  uint64_t total(const std::string &Name) const {
    return Tree.exactTotalTicks(routine(Name));
  }

  /// Ticks spent in \p Callee while called from \p Caller: the inclusive
  /// ticks of Callee's maximal contexts whose parent context runs Caller.
  uint64_t arcTicks(const std::string &Caller,
                    const std::string &Callee) const {
    const uint32_t From = Syms.findByName(Caller);
    const uint32_t To = Syms.findByName(Callee);
    if (From == NoSymbol || To == NoSymbol)
      return 0;
    uint64_t Ticks = 0;
    for (uint32_t I : Tree.contextsOf(To)) {
      const ContextEntry &E = Tree.node(I);
      if (E.Maximal && E.Parent != CctRootParent &&
          Tree.node(E.Parent).Routine == From)
        Ticks += E.InclusiveTicks;
    }
    return Ticks;
  }
};

/// Compiles \p Source with profiling, runs it under a context-recording
/// monitor and builds its tree.  Heap-allocated: the tree borrows Syms.
std::unique_ptr<ContextRun> runWithContexts(std::string_view Source,
                                            uint64_t CyclesPerTick = 50) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  auto R = std::make_unique<ContextRun>();
  R->Img = compileTLOrDie(Source, CG);
  MonitorOptions MO;
  MO.RecordContexts = true;
  Monitor Mon(R->Img.lowPc(), R->Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = CyclesPerTick;
  VM Machine(R->Img, VO);
  Machine.setHooks(&Mon);
  R->Run = cantFail(Machine.run());
  R->Data = Mon.finish();
  R->Syms = SymbolTable::fromImage(R->Img);
  R->Tree = cantFail(ContextTree::build(R->Data, R->Syms));
  return R;
}

/// Every tick the VM delivered is in the histogram and in exactly one
/// context: the exact self ticks plus the unattributed ones sum to it.
void expectTicksBalance(const ContextRun &R) {
  uint64_t SelfSum = R.Tree.unattributedTicks();
  for (uint32_t Routine : R.Tree.routines())
    SelfSum += R.Tree.exactSelfTicks(Routine);
  EXPECT_GT(R.Run.Ticks, 0u);
  EXPECT_EQ(SelfSum, R.Run.Ticks);
  EXPECT_EQ(R.Data.Hist.totalSamples(), R.Run.Ticks);
}

} // namespace

TEST(ContextTreeTest, SelfAndTotalTimes) {
  auto R = runWithContexts(R"(
    fn leaf(n) {
      var i = 0;
      var a = 0;
      while (i < n) { a = a + i * i; i = i + 1; }
      return a;
    }
    fn mid(n) { return leaf(n) + leaf(n); }
    fn main() { return mid(3000); }
  )");
  const double All = static_cast<double>(R->Run.Ticks);

  // Nearly all time is inside leaf; main and mid inherit it as total.
  EXPECT_GT(R->self("leaf"), 0.9 * All);
  EXPECT_GT(R->total("mid"), 0.9 * All);
  EXPECT_GT(R->total("main"), 0.99 * All);
  EXPECT_LT(R->self("mid"), 0.1 * All);
  // Self <= total, always.
  for (uint32_t Routine : R->Tree.routines())
    EXPECT_LE(R->Tree.exactSelfTicks(Routine),
              R->Tree.exactTotalTicks(Routine));
  expectTicksBalance(*R);
}

TEST(ContextTreeTest, RecursionCountedOnce) {
  auto R = runWithContexts(R"(
    fn down(n) {
      if (n == 0) { return 0; }
      var i = 0;
      var a = 0;
      while (i < 50) { a = a + i; i = i + 1; }
      return a + down(n - 1);
    }
    fn main() { return down(200); }
  )");
  // Up to 201 frames of down are live at once, yet each tick counts once
  // toward its total: main does nothing but call it, so down's total is
  // every tick of the run.
  EXPECT_EQ(R->total("down"), R->Run.Ticks);
  EXPECT_EQ(R->total("main"), R->Run.Ticks);
  expectTicksBalance(*R);
}

TEST(ContextTreeTest, CallerToCalleeAttribution) {
  auto R = runWithContexts(R"(
    fn spin(n) {
      var i = 0;
      var a = 0;
      while (i < n) { a = a + i; i = i + 1; }
      return a;
    }
    fn light() { return spin(40); }
    fn heavy() { return spin(4000); }
    fn main() {
      var i = 0;
      var a = 0;
      while (i < 10) { a = a + light(); i = i + 1; }
      return a + heavy();
    }
  )");
  // heavy's single call dwarfs light's ten calls.
  EXPECT_GT(R->arcTicks("heavy", "spin"), 5 * R->arcTicks("light", "spin"));
  // main never calls spin directly; unknown routines have no arcs.
  EXPECT_EQ(R->arcTicks("main", "spin"), 0u);
  EXPECT_EQ(R->arcTicks("nope", "spin"), 0u);
  expectTicksBalance(*R);
}

TEST(ContextTreeTest, TicksBalanceAtCoarseInterval) {
  auto R = runWithContexts(
      "fn main() { var i = 0; while (i < 6000) { i = i + 1; } return i; }",
      /*CyclesPerTick=*/100);
  EXPECT_EQ(R->self("main"), R->Run.Ticks);
  expectTicksBalance(*R);
}
