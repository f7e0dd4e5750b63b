//===- tests/vm_test.cpp - Unit tests for the bytecode VM substrate -------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"
#include "vm/CodeGen.h"
#include "vm/Disassembler.h"
#include "vm/Image.h"
#include "vm/StaticCallScanner.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <set>

using namespace gprof;

namespace {

/// Compiles and runs, returning the result.
RunResult runOk(std::string_view Src, CodeGenOptions CG = {},
                VMOptions VO = {}) {
  Image Img = compileTLOrDie(Src, CG);
  VM Machine(Img, VO);
  auto R = Machine.run();
  EXPECT_TRUE(static_cast<bool>(R)) << R.message();
  return R.takeValue();
}

/// Compiles and runs, expecting a trap whose message contains \p Needle.
void runTrap(std::string_view Src, const std::string &Needle) {
  Image Img = compileTLOrDie(Src);
  VM Machine(Img);
  auto R = Machine.run();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find(Needle), std::string::npos) << R.message();
  (void)R.takeError();
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic and control flow semantics
//===----------------------------------------------------------------------===//

TEST(VMTest, ArithmeticBasics) {
  EXPECT_EQ(runOk("fn main() { return 2 + 3 * 4; }").ExitValue, 14);
  EXPECT_EQ(runOk("fn main() { return (2 + 3) * 4; }").ExitValue, 20);
  EXPECT_EQ(runOk("fn main() { return 17 / 5; }").ExitValue, 3);
  EXPECT_EQ(runOk("fn main() { return 17 % 5; }").ExitValue, 2);
  EXPECT_EQ(runOk("fn main() { return -7; }").ExitValue, -7);
  EXPECT_EQ(runOk("fn main() { return 10 - 2 - 3; }").ExitValue, 5);
}

TEST(VMTest, Comparisons) {
  EXPECT_EQ(runOk("fn main() { return 1 < 2; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 2 < 1; }").ExitValue, 0);
  EXPECT_EQ(runOk("fn main() { return 2 <= 2; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 3 > 2; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 3 >= 4; }").ExitValue, 0);
  EXPECT_EQ(runOk("fn main() { return 5 == 5; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 5 != 5; }").ExitValue, 0);
}

TEST(VMTest, LogicalOperatorsNormalizeAndShortCircuit) {
  EXPECT_EQ(runOk("fn main() { return 7 && 9; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 7 && 0; }").ExitValue, 0);
  EXPECT_EQ(runOk("fn main() { return 0 || 5; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return 0 || 0; }").ExitValue, 0);
  EXPECT_EQ(runOk("fn main() { return !0; }").ExitValue, 1);
  EXPECT_EQ(runOk("fn main() { return !42; }").ExitValue, 0);
  // Short circuit: the division by zero on the RHS must not execute.
  EXPECT_EQ(runOk("fn main() { return 0 && (1 / 0); }").ExitValue, 0);
  EXPECT_EQ(runOk("fn main() { return 1 || (1 / 0); }").ExitValue, 1);
}

TEST(VMTest, TwosComplementWraparound) {
  // 2^62 * 4 wraps to 0; 2^63-1 + 1 wraps negative.
  EXPECT_EQ(runOk("fn main() { var x = 4611686018427387904; "
                  "return x * 4; }")
                .ExitValue,
            0);
  EXPECT_EQ(runOk("fn main() { var x = 9223372036854775807; "
                  "return x + 1; }")
                .ExitValue,
            INT64_MIN);
  // Negating INT64_MIN wraps to itself.
  EXPECT_EQ(runOk("fn main() { var x = 9223372036854775807; "
                  "return -(x + 1); }")
                .ExitValue,
            INT64_MIN);
}

TEST(VMTest, SignedDivisionAndRemainder) {
  EXPECT_EQ(runOk("fn main() { return (0 - 7) / 2; }").ExitValue, -3);
  EXPECT_EQ(runOk("fn main() { return (0 - 7) % 2; }").ExitValue, -1);
  EXPECT_EQ(runOk("fn main() { return 7 / (0 - 2); }").ExitValue, -3);
  runTrap("fn main() { var x = 9223372036854775807; "
          "return (-(x + 1)) / (0 - 1); }",
          "overflow");
}

TEST(VMTest, WhileLoopAndAssignment) {
  RunResult R = runOk(R"(
    fn main() {
      var sum = 0;
      var i = 1;
      while (i <= 100) {
        sum = sum + i;
        i = i + 1;
      }
      return sum;
    }
  )");
  EXPECT_EQ(R.ExitValue, 5050);
}

TEST(VMTest, IfElse) {
  EXPECT_EQ(runOk(R"(
    fn classify(x) {
      if (x < 0) { return 0 - 1; }
      else if (x == 0) { return 0; }
      else { return 1; }
    }
    fn main() { return classify(0-5) * 100 + classify(0) * 10 + classify(7); }
  )").ExitValue, -100 + 0 + 7 / 7);
}

TEST(VMTest, AssignmentIsAnExpression) {
  EXPECT_EQ(runOk("fn main() { var a = 0; var b = (a = 5) + 1; "
                  "return a * 10 + b; }")
                .ExitValue,
            56);
}

TEST(VMTest, GlobalsPersistAndInitialize) {
  RunResult R = runOk(R"(
    var counter = 10;
    fn bump() { counter = counter + 1; return counter; }
    fn main() { bump(); bump(); return bump(); }
  )");
  EXPECT_EQ(R.ExitValue, 13);
}

TEST(VMTest, PrintCollectsValues) {
  RunResult R = runOk("fn main() { print 1; print 2 + 3; return 0; }");
  ASSERT_EQ(R.Printed.size(), 2u);
  EXPECT_EQ(R.Printed[0], 1);
  EXPECT_EQ(R.Printed[1], 5);
}

//===----------------------------------------------------------------------===//
// Calls: direct, indirect, recursive
//===----------------------------------------------------------------------===//

TEST(VMTest, DirectCallsAndReturnValues) {
  EXPECT_EQ(runOk(R"(
    fn add(a, b) { return a + b; }
    fn twice(x) { return add(x, x); }
    fn main() { return twice(21); }
  )").ExitValue, 42);
}

TEST(VMTest, RecursionFibonacci) {
  EXPECT_EQ(runOk(R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { return fib(15); }
  )").ExitValue, 610);
}

TEST(VMTest, MutualRecursion) {
  EXPECT_EQ(runOk(R"(
    fn is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
    fn is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
    fn main() { return is_even(10) * 10 + is_odd(7); }
  )").ExitValue, 11);
}

TEST(VMTest, IndirectCallsThroughFunctionValues) {
  EXPECT_EQ(runOk(R"(
    fn double(x) { return 2 * x; }
    fn triple(x) { return 3 * x; }
    fn apply(f, x) { return f(x); }
    fn main() { return apply(&double, 10) + apply(&triple, 10); }
  )").ExitValue, 50);
}

TEST(VMTest, BareFunctionNameIsAValue) {
  EXPECT_EQ(runOk(R"(
    fn inc(x) { return x + 1; }
    fn main() {
      var f = inc;
      return f(41);
    }
  )").ExitValue, 42);
}

TEST(VMTest, PeekPokeMemory) {
  RunResult R = runOk(R"(
    fn main() {
      poke(0, 11);
      poke(1, 22);
      poke(2, peek(0) + peek(1));
      print peek(2);
      return peek(2) * 10 + (poke(5, 7)); // poke yields the value.
    }
  )");
  ASSERT_EQ(R.Printed.size(), 1u);
  EXPECT_EQ(R.Printed[0], 33);
  EXPECT_EQ(R.ExitValue, 337);
}

TEST(VMTest, MemoryZeroInitializedAndResetBetweenRuns) {
  Image Img = compileTLOrDie(R"(
    fn main() {
      var old = peek(9);
      poke(9, 42);
      return old;
    }
  )");
  VM Machine(Img);
  EXPECT_EQ(cantFail(Machine.run()).ExitValue, 0);
  // run() resets memory, so the second run sees zero again.
  EXPECT_EQ(cantFail(Machine.run()).ExitValue, 0);
}

TEST(VMTest, MemoryOutOfRangeTraps) {
  runTrap("fn main() { return peek(0 - 1); }", "out of range");
  runTrap("fn main() { return peek(99999999); }", "out of range");
  runTrap("fn main() { return poke(99999999, 1); }", "out of range");
}

TEST(VMTest, BuiltinsShadowedByUserFunctions) {
  // A user-defined peek takes precedence over the built-in.
  EXPECT_EQ(runOk(R"(
    fn peek(x) { return x + 100; }
    fn main() { return peek(1); }
  )").ExitValue, 101);
}

TEST(VMTest, BuiltinArityChecked) {
  DiagnosticEngine Diags;
  auto Img = compileTL("fn main() { return peek(1, 2); }", {}, Diags);
  EXPECT_FALSE(static_cast<bool>(Img));
  (void)Img.takeError();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(VMTest, FallOffEndReturnsZero) {
  EXPECT_EQ(runOk("fn f() { } fn main() { return f() + 5; }").ExitValue, 5);
}

TEST(VMTest, CallPersistentGlobalsAcrossCalls) {
  Image Img = compileTLOrDie(R"(
    var state = 0;
    fn step(n) { state = state + n; return state; }
    fn main() { return step(1); }
  )");
  VM Machine(Img);
  EXPECT_EQ(cantFail(Machine.call("step", {5})).ExitValue, 5);
  EXPECT_EQ(cantFail(Machine.call("step", {7})).ExitValue, 12);
  Machine.resetGlobals();
  EXPECT_EQ(cantFail(Machine.call("step", {1})).ExitValue, 1);
}

TEST(VMTest, CallUnknownFunctionFails) {
  Image Img = compileTLOrDie("fn main() { return 0; }");
  VM Machine(Img);
  auto R = Machine.call("nope", {});
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

TEST(VMTest, CallArityMismatchFails) {
  Image Img = compileTLOrDie(
      "fn f(a) { return a; } fn main() { return f(0); }");
  VM Machine(Img);
  auto R = Machine.call("f", {});
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(VMTest, DivisionByZeroTraps) {
  runTrap("fn main() { return 1 / 0; }", "division by zero");
  runTrap("fn main() { return 1 % 0; }", "division by zero");
}

TEST(VMTest, IndirectCallToNonFunctionTraps) {
  runTrap("fn main() { var f = 1234; return f(); }",
          "invalid function value");
}

TEST(VMTest, IndirectCallArityMismatchTraps) {
  runTrap(R"(
    fn f(a, b) { return a + b; }
    fn main() { var g = &f; return g(1); }
  )",
          "takes 2");
}

TEST(VMTest, InfiniteRecursionTrapsAtDepthLimit) {
  Image Img = compileTLOrDie("fn f() { return f(); } "
                             "fn main() { return f(); }");
  VMOptions VO;
  VO.MaxCallDepth = 1000;
  VM Machine(Img, VO);
  auto R = Machine.run();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("stack overflow"), std::string::npos);
  (void)R.takeError();
}

TEST(VMTest, CycleLimitTraps) {
  Image Img = compileTLOrDie("fn main() { while (1) { } return 0; }");
  VMOptions VO;
  VO.MaxCycles = 10000;
  VM Machine(Img, VO);
  auto R = Machine.run();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("cycle limit"), std::string::npos);
  (void)R.takeError();
}

//===----------------------------------------------------------------------===//
// Determinism and the virtual clock
//===----------------------------------------------------------------------===//

TEST(VMTest, RunsAreDeterministic) {
  Image Img = compileTLOrDie(R"(
    fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    fn main() { return fib(12); }
  )");
  VM A(Img), B(Img);
  RunResult RA = cantFail(A.run());
  RunResult RB = cantFail(B.run());
  EXPECT_EQ(RA.ExitValue, RB.ExitValue);
  EXPECT_EQ(RA.Cycles, RB.Cycles);
  EXPECT_EQ(RA.Instructions, RB.Instructions);
  EXPECT_EQ(RA.Ticks, RB.Ticks);
}

TEST(VMTest, TickCountMatchesClock) {
  VMOptions VO;
  VO.CyclesPerTick = 100;
  RunResult R = runOk(R"(
    fn main() {
      var i = 0;
      while (i < 1000) { i = i + 1; }
      return i;
    }
  )",
                      {}, VO);
  EXPECT_EQ(R.Ticks, R.Cycles / 100);
}

TEST(VMTest, ProfiledRunExecutesSameProgram) {
  const char *Src = R"(
    fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    fn main() { return fib(14); }
  )";
  CodeGenOptions Plain, Profiled;
  Profiled.EnableProfiling = true;
  RunResult A = runOk(Src, Plain);
  RunResult B = runOk(Src, Profiled);
  EXPECT_EQ(A.ExitValue, B.ExitValue);
  // The profiled version executes one extra Mcount per call.
  EXPECT_GT(B.Instructions, A.Instructions);
  EXPECT_GT(B.Cycles, A.Cycles);
}

//===----------------------------------------------------------------------===//
// Profiling hooks
//===----------------------------------------------------------------------===//

namespace {

/// Collects raw hook events for inspection.
struct RecordingHooks : ProfileHooks {
  std::vector<std::pair<Address, Address>> Calls;
  uint64_t Ticks = 0;

  void onCall(Address FromPc, Address SelfPc) override {
    Calls.emplace_back(FromPc, SelfPc);
  }
  void onTick(Address) override { ++Ticks; }
};

} // namespace

TEST(VMTest, McountReportsArcsWithCallSites) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(R"(
    fn leaf() { return 1; }
    fn mid() { return leaf() + leaf(); }
    fn main() { return mid(); }
  )",
                             CG);
  RecordingHooks Hooks;
  VM Machine(Img);
  Machine.setHooks(&Hooks);
  cantFail(Machine.run());

  Address LeafAddr = 0, MidAddr = 0, MainAddr = 0;
  for (const FuncInfo &F : Img.Functions) {
    if (F.Name == "leaf")
      LeafAddr = F.Addr;
    if (F.Name == "mid")
      MidAddr = F.Addr;
    if (F.Name == "main")
      MainAddr = F.Addr;
  }

  // main's activation is spontaneous: its FromPc (0) is outside the text.
  ASSERT_EQ(Hooks.Calls.size(), 4u);
  EXPECT_EQ(Hooks.Calls[0].second, MainAddr);
  EXPECT_LT(Hooks.Calls[0].first, Img.lowPc());

  // mid called from inside main; both leaf calls from inside mid, at two
  // *different* call sites.
  EXPECT_EQ(Hooks.Calls[1].second, MidAddr);
  const FuncInfo *MainFn = Img.findFunctionContaining(Hooks.Calls[1].first);
  ASSERT_NE(MainFn, nullptr);
  EXPECT_EQ(MainFn->Name, "main");

  EXPECT_EQ(Hooks.Calls[2].second, LeafAddr);
  EXPECT_EQ(Hooks.Calls[3].second, LeafAddr);
  EXPECT_NE(Hooks.Calls[2].first, Hooks.Calls[3].first);
  const FuncInfo *MidFn = Img.findFunctionContaining(Hooks.Calls[2].first);
  ASSERT_NE(MidFn, nullptr);
  EXPECT_EQ(MidFn->Name, "mid");
}

TEST(VMTest, UnprofiledFunctionsSkipMcount) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  CG.UnprofiledFunctions = {"leaf"};
  Image Img = compileTLOrDie(R"(
    fn leaf() { return 1; }
    fn main() { return leaf(); }
  )",
                             CG);
  RecordingHooks Hooks;
  VM Machine(Img);
  Machine.setHooks(&Hooks);
  cantFail(Machine.run());
  // Only main reports: leaf runs "at full speed".
  ASSERT_EQ(Hooks.Calls.size(), 1u);
  const FuncInfo *F = Img.findFunctionAt(Hooks.Calls[0].second);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Name, "main");
}

TEST(VMTest, ZeroCyclesPerTickFailsBeforeExecuting) {
  // A zero tick interval would deliver ticks forever on the first
  // instruction; both entry points refuse it up front.
  Image Img = compileTLOrDie("fn f(x) { return x; } "
                             "fn main() { return f(1); }");
  VMOptions VO;
  VO.CyclesPerTick = 0;
  RecordingHooks Hooks;
  VM Machine(Img, VO);
  Machine.setHooks(&Hooks);
  auto R = Machine.run();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("CyclesPerTick"), std::string::npos)
      << R.message();
  (void)R.takeError();
  auto C = Machine.call("f", {1});
  ASSERT_FALSE(static_cast<bool>(C));
  EXPECT_NE(C.message().find("CyclesPerTick"), std::string::npos)
      << C.message();
  (void)C.takeError();
  EXPECT_EQ(Hooks.Ticks, 0u);
  EXPECT_EQ(Machine.totalCycles(), 0u);
}

//===----------------------------------------------------------------------===//
// Image serialization
//===----------------------------------------------------------------------===//

TEST(ImageTest, SerializationRoundTrip) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(R"(
    var g = 9;
    fn f(a) { return a + g; }
    fn main() { return f(1); }
  )",
                             CG);
  auto Back = Image::deserialize(Img.serialize());
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->Code, Img.Code);
  ASSERT_EQ(Back->Functions.size(), Img.Functions.size());
  for (size_t I = 0; I != Img.Functions.size(); ++I) {
    EXPECT_EQ(Back->Functions[I].Name, Img.Functions[I].Name);
    EXPECT_EQ(Back->Functions[I].Addr, Img.Functions[I].Addr);
    EXPECT_EQ(Back->Functions[I].CodeSize, Img.Functions[I].CodeSize);
    EXPECT_EQ(Back->Functions[I].NumParams, Img.Functions[I].NumParams);
    EXPECT_EQ(Back->Functions[I].Profiled, Img.Functions[I].Profiled);
  }
  EXPECT_EQ(Back->GlobalNames, Img.GlobalNames);
  EXPECT_EQ(Back->GlobalInits, Img.GlobalInits);
  EXPECT_EQ(Back->EntryFunction, Img.EntryFunction);

  // The reloaded image must execute identically.
  VM A(Img), B(*Back);
  EXPECT_EQ(cantFail(A.run()).ExitValue, cantFail(B.run()).ExitValue);
}

TEST(ImageTest, CorruptImagesRejected) {
  Image Img = compileTLOrDie("fn main() { return 0; }");
  auto Bytes = Img.serialize();
  {
    auto Bad = Bytes;
    Bad[0] = 'Z';
    auto R = Image::deserialize(Bad);
    EXPECT_FALSE(static_cast<bool>(R));
    (void)R.takeError();
  }
  {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + 10);
    auto R = Image::deserialize(Short);
    EXPECT_FALSE(static_cast<bool>(R));
    (void)R.takeError();
  }
  {
    auto Bad = Bytes;
    Bad.push_back(7);
    auto R = Image::deserialize(Bad);
    EXPECT_FALSE(static_cast<bool>(R));
    (void)R.takeError();
  }
}

TEST(ImageTest, SymbolLookup) {
  Image Img = compileTLOrDie(R"(
    fn a() { return 1; }
    fn b() { return 2; }
    fn main() { return a() + b(); }
  )");
  for (const FuncInfo &F : Img.Functions) {
    EXPECT_EQ(Img.findFunctionAt(F.Addr), &F);
    EXPECT_EQ(Img.findFunctionContaining(F.Addr + F.CodeSize - 1), &F);
  }
  EXPECT_EQ(Img.findFunctionContaining(Img.lowPc() - 1), nullptr);
  EXPECT_EQ(Img.findFunctionContaining(Img.highPc()), nullptr);
  EXPECT_EQ(Img.findFunctionAt(Img.Functions[0].Addr + 1), nullptr);
}

//===----------------------------------------------------------------------===//
// Disassembler and static call scanner
//===----------------------------------------------------------------------===//

TEST(DisassemblerTest, ListsAllFunctionsAndCalls) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(R"(
    fn callee(x) { return x; }
    fn main() { return callee(1); }
  )",
                             CG);
  std::string Listing = disassemble(Img);
  EXPECT_NE(Listing.find("callee:"), std::string::npos);
  EXPECT_NE(Listing.find("main:"), std::string::npos);
  EXPECT_NE(Listing.find("mcount"), std::string::npos);
  EXPECT_NE(Listing.find("call"), std::string::npos);
  EXPECT_NE(Listing.find("callee, 1 args"), std::string::npos);
}

namespace {

/// A loadable image whose single function ends in \p Tail, an instruction
/// missing some of its operand bytes at the end of the code segment.
Image truncatedTailImage(std::vector<uint8_t> Tail) {
  Image Hand;
  Hand.Code = std::move(Tail);
  FuncInfo F;
  F.Name = "main";
  F.Addr = Image::BaseAddr;
  F.CodeSize = static_cast<uint32_t>(Hand.Code.size());
  Hand.Functions.push_back(F);
  // Image::deserialize accepts it: functions must lie inside the code
  // segment, but instruction boundaries are not checked.
  return cantFail(Image::deserialize(Hand.serialize()));
}

} // namespace

TEST(DisassemblerTest, TruncatedInstructionPrintedAsTruncated) {
  // A push with 3 of its 8 operand bytes.
  Image Img = truncatedTailImage({static_cast<uint8_t>(Opcode::Push), 1, 2, 3});
  EXPECT_EQ(disassemble(Img), "main:  ; 0 params, 0 slots\n"
                              "  0x001000: push       <truncated at end of "
                              "code segment>\n");
  EXPECT_EQ(disassembleInstruction(Img, Image::BaseAddr),
            "0x001000: push       <truncated at end of code segment>");
}

TEST(StaticScanTest, TruncatedInstructionEndsTheScan) {
  for (Opcode Op : {Opcode::Call, Opcode::PushFunc, Opcode::CallIndirect}) {
    SCOPED_TRACE(opcodeName(Op));
    StaticScanResult Scan =
        scanStaticCalls(truncatedTailImage({static_cast<uint8_t>(Op)}));
    EXPECT_TRUE(Scan.DirectCalls.empty());
    EXPECT_TRUE(Scan.AddressTaken.empty());
    EXPECT_TRUE(Scan.IndirectCallSites.empty());
  }
}

TEST(StaticScanTest, FindsDirectCallsIncludingUnexecuted) {
  Image Img = compileTLOrDie(R"(
    fn used() { return 1; }
    fn unused_callee() { return 2; }
    fn maybe(x) {
      if (x) { return unused_callee(); }
      return used();
    }
    fn main() { return maybe(0); }
  )");
  StaticScanResult Scan = scanStaticCalls(Img);

  // Arcs: maybe->unused_callee, maybe->used, main->maybe.
  ASSERT_EQ(Scan.DirectCalls.size(), 3u);
  std::set<std::pair<std::string, std::string>> Arcs;
  for (const StaticArc &A : Scan.DirectCalls) {
    const FuncInfo *From = Img.findFunctionContaining(A.CallSitePc);
    const FuncInfo *To = Img.findFunctionAt(A.TargetPc);
    ASSERT_NE(From, nullptr);
    ASSERT_NE(To, nullptr);
    Arcs.emplace(From->Name, To->Name);
  }
  EXPECT_TRUE(Arcs.count({"maybe", "unused_callee"}));
  EXPECT_TRUE(Arcs.count({"maybe", "used"}));
  EXPECT_TRUE(Arcs.count({"main", "maybe"}));
}

TEST(StaticScanTest, IndirectSitesAndAddressTaken) {
  Image Img = compileTLOrDie(R"(
    fn f(x) { return x; }
    fn g(x) { return x + 1; }
    fn main() {
      var h = &f;
      if (0) { h = &g; }
      return h(1);
    }
  )");
  StaticScanResult Scan = scanStaticCalls(Img);
  EXPECT_EQ(Scan.DirectCalls.size(), 0u);
  EXPECT_EQ(Scan.IndirectCallSites.size(), 1u);
  // Both f and g have their address taken.
  ASSERT_EQ(Scan.AddressTaken.size(), 2u);
  EXPECT_NE(Img.findFunctionAt(Scan.AddressTaken[0]), nullptr);
  EXPECT_NE(Img.findFunctionAt(Scan.AddressTaken[1]), nullptr);
}

TEST(BytecodeTest, InstructionSizesConsistent) {
  // Every opcode's size covers at least the opcode byte, and the cycle
  // cost is nonzero.
  for (unsigned Op = 0; Op != static_cast<unsigned>(Opcode::NumOpcodes);
       ++Op) {
    EXPECT_GE(instructionSize(static_cast<Opcode>(Op)), 1u);
    EXPECT_GE(opcodeCycleCost(static_cast<Opcode>(Op)), 1u);
    EXPECT_NE(opcodeName(static_cast<Opcode>(Op)), nullptr);
  }
}
