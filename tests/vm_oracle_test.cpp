//===- tests/vm_oracle_test.cpp - The VM against the reference interpreter ===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VM dispatches from a table it decodes once per image; ReferenceVM
/// (tests/reference_vm.h) re-decodes every instruction from the code bytes
/// as it executes it.  Every input here runs through both, and they must
/// agree on every RunResult field, on the ordered stream of hook events,
/// on the total cycle count and on the message of every trap.  The inputs
/// are the TL corpus at three tick rates, hand-assembled images reaching
/// every trap and decode edge, and seeded mutations of a compiled image.
/// The hand-built and mutated images are also the decoder's
/// untrusted-input corpus under ASan (ctest target gprof_vm_smoke).
///
//===----------------------------------------------------------------------===//

#include "reference_vm.h"

#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Random.h"
#include "vm/Bytecode.h"
#include "vm/CodeGen.h"
#include "vm/Image.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <dirent.h>
#include <optional>

using namespace gprof;

namespace {

/// A hook event stream, reduced to its length, an order-sensitive digest
/// of every event, and the first HeadLimit events as text (enough to show
/// where two streams part).
struct EventStream {
  static constexpr size_t HeadLimit = 4096;
  uint64_t Count = 0;
  uint64_t Digest = 0;
  std::vector<std::string> Head;
};

/// Records every hook event the machine delivers.
class EventLog : public ProfileHooks {
public:
  EventStream Events;

  void onCall(Address FromPc, Address SelfPc) override {
    begin('C');
    word(FromPc);
    word(SelfPc);
  }
  void onTick(Address Pc) override {
    begin('T');
    word(Pc);
  }
  void onReturn(Address SelfPc) override {
    begin('R');
    word(SelfPc);
  }

private:
  void begin(char Kind) {
    ++Events.Count;
    mix(static_cast<uint64_t>(Kind));
    if (Events.Count <= EventStream::HeadLimit)
      Events.Head.emplace_back(1, Kind);
  }
  void word(uint64_t W) {
    mix(W);
    if (Events.Count <= EventStream::HeadLimit)
      Events.Head.back() += format(" %llx", static_cast<unsigned long long>(W));
  }
  void mix(uint64_t W) {
    Events.Digest = (Events.Digest + W + 1) * 0x9e3779b97f4a7c15ULL;
    Events.Digest ^= Events.Digest >> 29;
  }
};

/// One entry into a machine: run() when Name is empty, else call().
struct Step {
  std::string Name;
  std::vector<int64_t> Args;
};

/// What one step produced.
struct Outcome {
  std::optional<RunResult> Result; ///< Empty when the step failed.
  std::string Error;               ///< The failure message.
  uint64_t TotalCycles = 0;
  EventStream Events;
};

template <class Machine>
std::vector<Outcome> runSteps(const Image &Img, const VMOptions &VO,
                              const std::vector<Step> &Steps) {
  Machine M(Img, VO);
  std::vector<Outcome> Out;
  for (const Step &S : Steps) {
    EventLog Log;
    M.setHooks(&Log);
    Expected<RunResult> R = S.Name.empty() ? M.run() : M.call(S.Name, S.Args);
    Outcome O;
    if (R)
      O.Result = R.takeValue();
    else
      O.Error = R.takeError().message();
    O.TotalCycles = M.totalCycles();
    O.Events = std::move(Log.Events);
    Out.push_back(std::move(O));
  }
  return Out;
}

void expectSameOutcome(const Outcome &V, const Outcome &R) {
  ASSERT_EQ(V.Result.has_value(), R.Result.has_value())
      << "VM: " << (V.Result ? "ok" : V.Error)
      << "\nreference: " << (R.Result ? "ok" : R.Error);
  if (V.Result) {
    EXPECT_EQ(V.Result->ExitValue, R.Result->ExitValue);
    EXPECT_EQ(V.Result->Cycles, R.Result->Cycles);
    EXPECT_EQ(V.Result->Instructions, R.Result->Instructions);
    EXPECT_EQ(V.Result->Ticks, R.Result->Ticks);
    EXPECT_EQ(V.Result->Printed, R.Result->Printed);
  } else {
    EXPECT_EQ(V.Error, R.Error);
  }
  EXPECT_EQ(V.TotalCycles, R.TotalCycles);
  EXPECT_EQ(V.Events.Count, R.Events.Count);
  if (V.Events.Digest == R.Events.Digest)
    return;
  const std::vector<std::string> &A = V.Events.Head, &B = R.Events.Head;
  auto Diff = std::mismatch(A.begin(), A.end(), B.begin(), B.end());
  size_t At = static_cast<size_t>(Diff.first - A.begin());
  ADD_FAILURE() << "hook event streams differ"
                << (At < EventStream::HeadLimit
                        ? format(" at event %zu: VM '%s', reference '%s'", At,
                                 Diff.first == A.end() ? "<end>"
                                                       : Diff.first->c_str(),
                                 Diff.second == B.end() ? "<end>"
                                                        : Diff.second->c_str())
                        : std::string(" after the recorded head"));
}

/// Runs \p Steps on a fresh VM and a fresh ReferenceVM over \p Img, expects
/// identical outcomes step by step, and returns the VM's.
std::vector<Outcome> expectSameRuns(const Image &Img, const VMOptions &VO,
                                    const std::vector<Step> &Steps) {
  std::vector<Outcome> V = runSteps<VM>(Img, VO, Steps);
  std::vector<Outcome> R = runSteps<ReferenceVM>(Img, VO, Steps);
  for (size_t I = 0; I != Steps.size(); ++I) {
    SCOPED_TRACE(format("step %zu (%s)", I,
                        Steps[I].Name.empty() ? "run" : Steps[I].Name.c_str()));
    expectSameOutcome(V[I], R[I]);
  }
  return V;
}

Outcome expectSameRun(const Image &Img, const VMOptions &VO = {}) {
  return expectSameRuns(Img, VO, {Step{}}).front();
}

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  DIR *Dir = opendir(TL_CORPUS_DIR);
  if (!Dir)
    return Files;
  while (dirent *Entry = readdir(Dir)) {
    std::string Name = Entry->d_name;
    if (Name.size() > 3 && Name.substr(Name.size() - 3) == ".tl")
      Files.push_back(std::string(TL_CORPUS_DIR) + "/" + Name);
  }
  closedir(Dir);
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::vector<uint8_t> sampleImageBytes() {
  return compileTLOrDie(R"(
    fn helper(a, b) { return a * b + 1; }
    fn main() {
      var i = 0;
      var acc = 0;
      while (i < 3) { acc = acc + helper(i, i); i = i + 1; }
      return acc;
    }
  )")
      .serialize();
}

} // namespace

//===----------------------------------------------------------------------===//
// Compiled programs
//===----------------------------------------------------------------------===//

TEST(VMOracleTest, CorpusPlainAndProfiledAtThreeTickRates) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_GE(Files.size(), 5u) << "expected the TL corpus at "
                              << TL_CORPUS_DIR;
  for (const std::string &Path : Files) {
    auto Source = readFileText(Path);
    ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
    for (bool Profiled : {false, true}) {
      CodeGenOptions CG;
      CG.EnableProfiling = Profiled;
      Image Img = compileTLOrDie(*Source, CG);
      for (uint64_t CyclesPerTick : {1, 53, 10000}) {
        SCOPED_TRACE(format("%s%s at %llu cycles per tick", Path.c_str(),
                            Profiled ? " --pg" : "",
                            static_cast<unsigned long long>(CyclesPerTick)));
        VMOptions VO;
        VO.CyclesPerTick = CyclesPerTick;
        Outcome O = expectSameRun(Img, VO);
        EXPECT_TRUE(O.Result.has_value()) << O.Error;
        EXPECT_GT(O.Events.Count, 0u);
      }
    }
  }
}

TEST(VMOracleTest, MaxCyclesAtUint64MaxMeansNoLimit) {
  // The cycle limit is relative to the cycles already run, so the later
  // calls start from a nonzero clock: a limit check that adds MaxCycles to
  // that start overflows there.
  Image Img = compileTLOrDie(R"(
    fn work(n) { var s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }
    fn main() { return work(100); }
  )");
  const std::vector<Step> Steps = {
      {}, {"work", {50}}, {"work", {1000}}, {"work", {7}}};
  for (uint64_t MaxCycles : {UINT64_MAX, UINT64_MAX - 1, UINT64_MAX - 3000}) {
    SCOPED_TRACE(format("MaxCycles = %llu",
                        static_cast<unsigned long long>(MaxCycles)));
    VMOptions VO;
    VO.MaxCycles = MaxCycles;
    VO.CyclesPerTick = 97;
    for (const Outcome &O : expectSameRuns(Img, VO, Steps))
      EXPECT_TRUE(O.Result.has_value()) << O.Error;
  }
}

TEST(VMOracleTest, CycleLimitTrapsAtTheSameInstruction) {
  Image Img = compileTLOrDie(R"(
    fn work(n) { var s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }
    fn main() { return work(10); }
  )");
  VMOptions Probe;
  const uint64_t Cycles = cantFail(VM(Img, Probe).call("work", {40})).Cycles;
  // A limit of exactly one call's cycles admits it, from any start.  The
  // entry function's final ret is not limit-checked, so the tightest limit
  // that traps is one below the clock before that 4-cycle ret.
  for (uint64_t MaxCycles : {Cycles, Cycles - 5, Cycles / 2}) {
    SCOPED_TRACE(format("MaxCycles = %llu",
                        static_cast<unsigned long long>(MaxCycles)));
    VMOptions VO;
    VO.MaxCycles = MaxCycles;
    VO.CyclesPerTick = 7;
    std::vector<Outcome> Out =
        expectSameRuns(Img, VO, {{"work", {40}}, {"work", {40}}});
    for (const Outcome &O : Out)
      EXPECT_EQ(O.Result.has_value(), MaxCycles == Cycles) << O.Error;
  }
}

//===----------------------------------------------------------------------===//
// Image fuzzing (deterministic seeds)
//===----------------------------------------------------------------------===//

class ImageFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ImageFuzzTest, TruncationsNeverCrash) {
  std::vector<uint8_t> Bytes = sampleImageBytes();
  SplitMix64 Rng(GetParam());
  for (int Trial = 0; Trial != 50; ++Trial) {
    size_t Cut = static_cast<size_t>(Rng.nextBelow(Bytes.size()));
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto R = Image::deserialize(Short);
    EXPECT_FALSE(static_cast<bool>(R));
    (void)R.takeError();
  }
}

TEST_P(ImageFuzzTest, MutatedImagesLoadOrFailCleanly_AndRunOrTrap) {
  std::vector<uint8_t> Bytes = sampleImageBytes();
  SplitMix64 Rng(GetParam() + 77);
  for (int Trial = 0; Trial != 100; ++Trial) {
    std::vector<uint8_t> Mutated = Bytes;
    unsigned Flips = 1 + static_cast<unsigned>(Rng.nextBelow(6));
    for (unsigned F = 0; F != Flips; ++F) {
      size_t Byte = static_cast<size_t>(Rng.nextBelow(Mutated.size()));
      Mutated[Byte] ^= static_cast<uint8_t>(1u << Rng.nextBelow(8));
    }
    auto Img = Image::deserialize(Mutated);
    if (!Img) {
      (void)Img.takeError();
      continue;
    }
    // A structurally valid mutant must either run to completion or trap
    // with a clean error — never crash — and exactly as the reference
    // does.  Bound the run tightly.
    SCOPED_TRACE(format("trial %d", Trial));
    VMOptions VO;
    VO.MaxCycles = 100000;
    VO.MaxCallDepth = 64;
    VO.CyclesPerTick = 31;
    expectSameRun(*Img, VO);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageFuzzTest,
                         testing::Range<uint64_t>(0, 4));

//===----------------------------------------------------------------------===//
// Hand-assembled images: every trap and decode edge
//===----------------------------------------------------------------------===//

namespace {

constexpr uint8_t op(Opcode O) { return static_cast<uint8_t>(O); }

/// Appends \p Op followed by the \p Bytes little-endian bytes of \p V.
void emit(std::vector<uint8_t> &Code, Opcode Op, uint64_t V = 0,
          unsigned Bytes = 0) {
  Code.push_back(op(Op));
  for (unsigned B = 0; B != Bytes; ++B)
    Code.push_back(static_cast<uint8_t>(V >> (8 * B)));
}

void emitPush(std::vector<uint8_t> &Code, int64_t V) {
  emit(Code, Opcode::Push, static_cast<uint64_t>(V), 8);
}

void emitCall(std::vector<uint8_t> &Code, Address Target, uint8_t Argc) {
  emit(Code, Opcode::Call, Target, 8);
  Code.push_back(Argc);
}

FuncInfo func(std::string Name, Address Addr, size_t Size,
              uint16_t NumParams = 0, uint16_t NumSlots = 0,
              bool Profiled = false) {
  FuncInfo F;
  F.Name = std::move(Name);
  F.Addr = Addr;
  F.CodeSize = static_cast<uint32_t>(Size);
  F.NumParams = NumParams;
  F.NumSlots = NumSlots;
  F.Profiled = Profiled;
  return F;
}

/// Builds a single-function image from raw code bytes.
Image handImage(std::vector<uint8_t> Code, uint16_t NumSlots = 0) {
  Image Img;
  Img.Code = std::move(Code);
  Img.Functions.push_back(
      func("main", Image::BaseAddr, Img.Code.size(), 0, NumSlots));
  Img.EntryFunction = 0;
  return Img;
}

/// Runs \p Steps through both machines and expects the last to trap with a
/// message containing \p Needle.
void expectTrap(const Image &Img, const std::string &Needle,
                const std::vector<Step> &Steps = {Step{}}) {
  VMOptions VO;
  VO.MaxCycles = 10000;
  Outcome O = expectSameRuns(Img, VO, Steps).back();
  ASSERT_FALSE(O.Result.has_value());
  EXPECT_NE(O.Error.find(Needle), std::string::npos) << O.Error;
}

} // namespace

TEST(VMHardeningTest, IllegalOpcodeTraps) {
  expectTrap(handImage({0xEE}), "illegal opcode 238");
}

TEST(VMHardeningTest, HaltSentinelTraps) {
  expectTrap(handImage({op(Opcode::Halt)}), "halt sentinel");
}

TEST(VMHardeningTest, RunningOffCodeEndTraps) {
  // A lone push falls off the end of the segment.
  std::vector<uint8_t> Code = {op(Opcode::Push), 1, 0, 0, 0, 0, 0, 0, 0};
  expectTrap(handImage(Code), "left the code segment");
}

TEST(VMHardeningTest, TruncatedInstructionTraps) {
  // Push opcode with only 3 of its 8 operand bytes.
  expectTrap(handImage({op(Opcode::Push), 1, 2, 3}), "truncated");
}

TEST(VMHardeningTest, JumpOutsideSegmentTraps) {
  std::vector<uint8_t> Code = {op(Opcode::Jump), 0, 0, 0, 0,
                               0, 0, 0, 0}; // Target 0 < BaseAddr.
  expectTrap(handImage(Code), "left the code segment");
}

TEST(VMHardeningTest, CallToNonEntryAddressTraps) {
  // Call target = BaseAddr + 1, which is not a function entry.
  std::vector<uint8_t> Code = {op(Opcode::Call), 1, 0x10, 0, 0,
                               0, 0, 0, 0, /*argc=*/0};
  expectTrap(handImage(Code), "invalid function value");
}

TEST(VMHardeningTest, WellFormedHandImageRuns) {
  // push 7; ret  — a minimal valid program.
  std::vector<uint8_t> Code = {op(Opcode::Push), 7, 0, 0, 0, 0, 0, 0, 0,
                               op(Opcode::Ret)};
  Outcome O = expectSameRun(handImage(Code));
  ASSERT_TRUE(O.Result.has_value()) << O.Error;
  EXPECT_EQ(O.Result->ExitValue, 7);
}

TEST(VMHardeningTest, OperandStackUnderflowTrapsInEveryPoppingInstruction) {
  // Each instruction below runs with one operand fewer than it pops.
  const Address Base = Image::BaseAddr;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Cases;
  auto Case = [&](std::string Name, Opcode Op, uint64_t V = 0,
                  unsigned Bytes = 0, bool WithOneOperand = false) {
    std::vector<uint8_t> Code;
    if (WithOneOperand)
      emitPush(Code, 1);
    emit(Code, Op, V, Bytes);
    Cases.emplace_back(std::move(Name), std::move(Code));
  };
  Case("pop", Opcode::Pop);
  Case("dup", Opcode::Dup);
  Case("neg", Opcode::Neg);
  Case("not", Opcode::Not);
  for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                    Opcode::Mod, Opcode::CmpEq, Opcode::CmpNe, Opcode::CmpLt,
                    Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe,
                    Opcode::MemStore})
    Case(opcodeName(Op), Op, 0, 0, /*WithOneOperand=*/true);
  Case("jz", Opcode::JumpIfZero, Base, 8);
  Case("jnz", Opcode::JumpIfNonZero, Base, 8);
  Case("storelocal", Opcode::StoreLocal, 0, 2);
  Case("storeglobal", Opcode::StoreGlobal, 0, 2);
  Case("calli", Opcode::CallIndirect, 0, 1);
  Case("ret", Opcode::Ret);
  Case("print", Opcode::Print);
  Case("memload", Opcode::MemLoad);
  for (auto &[Name, Code] : Cases) {
    SCOPED_TRACE(Name);
    Image Img = handImage(Code, /*NumSlots=*/1);
    Img.GlobalNames = {"g"};
    Img.GlobalInits = {0};
    expectTrap(Img, "operand stack underflow");
  }

  // A direct call with fewer operands than arguments.
  std::vector<uint8_t> Code;
  emitCall(Code, Base + 10, 1); // [0, 10): main
  emitPush(Code, 0);            // [10, 20): f(x)
  emit(Code, Opcode::Ret);
  Image Img = handImage(Code);
  Img.Functions[0].CodeSize = 10;
  Img.Functions.push_back(func("f", Base + 10, 10, 1, 1));
  expectTrap(Img, "operand stack underflow");
}

TEST(VMHardeningTest, LocalSlotOutOfRangeTraps) {
  for (Opcode Op : {Opcode::LoadLocal, Opcode::StoreLocal}) {
    SCOPED_TRACE(opcodeName(Op));
    std::vector<uint8_t> Code;
    emitPush(Code, 5);
    emit(Code, Op, /*slot=*/1, 2);
    expectTrap(handImage(Code, /*NumSlots=*/1), "local slot out of range");
  }
}

TEST(VMHardeningTest, GlobalIndexOutOfRangeTraps) {
  for (Opcode Op : {Opcode::LoadGlobal, Opcode::StoreGlobal}) {
    SCOPED_TRACE(opcodeName(Op));
    std::vector<uint8_t> Code;
    emitPush(Code, 5);
    emit(Code, Op, /*index=*/1, 2);
    Image Img = handImage(Code);
    Img.GlobalNames = {"g"};
    Img.GlobalInits = {3};
    expectTrap(Img, "global index out of range");
  }
}

TEST(VMHardeningTest, SignedDivisionOverflowTraps) {
  for (auto [Op, Needle] :
       {std::pair{Opcode::Div, "integer overflow in division"},
        std::pair{Opcode::Mod, "integer overflow in remainder"}}) {
    SCOPED_TRACE(opcodeName(Op));
    std::vector<uint8_t> Code;
    emitPush(Code, INT64_MIN);
    emitPush(Code, -1);
    emit(Code, Op);
    emit(Code, Opcode::Ret);
    expectTrap(handImage(Code), Needle);
  }
}

TEST(VMHardeningTest, CallEntryWithFewerSlotsThanArgumentsFails) {
  // VM::call checks the argument count against the parameters, but only
  // the frame size bounds the copy into the frame.
  std::vector<uint8_t> Code;
  emitPush(Code, 0);
  emit(Code, Opcode::Ret);
  Image Img = handImage(Code);
  Img.Functions.push_back(
      func("f", Image::BaseAddr, Code.size(), /*NumParams=*/2,
           /*NumSlots=*/1));
  expectTrap(Img, "entry 'f' declares 1 frame slots for 2 arguments",
             {{"f", {1, 2}}});
}

TEST(VMHardeningTest, CalleeWithFewerSlotsThanParametersTraps) {
  const Address Base = Image::BaseAddr;
  // f(x) declares no frame slots: [0, 10).
  std::vector<uint8_t> Code;
  emitPush(Code, 0);
  emit(Code, Opcode::Ret);
  for (bool Indirect : {false, true}) {
    SCOPED_TRACE(Indirect ? "calli" : "call");
    std::vector<uint8_t> Main = Code;
    emitPush(Main, 1);
    if (Indirect) {
      emit(Main, Opcode::PushFunc, Base, 8);
      emit(Main, Opcode::CallIndirect, 1, 1);
    } else {
      emitCall(Main, Base, 1);
    }
    emit(Main, Opcode::Ret);
    Image Img;
    Img.Functions.push_back(func("f", Base, Code.size(), 1, 0));
    Img.Functions.push_back(
        func("main", Base + Code.size(), Main.size() - Code.size()));
    Img.EntryFunction = 1;
    Img.Code = std::move(Main);
    expectTrap(Img, "call to 'f' whose frame declares 0 slots for 1 "
                    "parameters");
  }
}

TEST(VMHardeningTest, CalleePoppingIntoItsCallerLeavesZerosOnReturn) {
  // Nothing stops a callee from popping its caller's operands; its ret
  // restores the caller's stack depth, and the popped slots read as zero.
  const Address Base = Image::BaseAddr;
  std::vector<uint8_t> Code;
  emitPush(Code, 7); // [0, 31): main
  emitPush(Code, 9);
  emitCall(Code, Base + 31, 0);
  emit(Code, Opcode::Add);
  emit(Code, Opcode::Add);
  emit(Code, Opcode::Ret);
  const size_t MainSize = Code.size();
  emit(Code, Opcode::Pop); // [31, 43): f
  emit(Code, Opcode::Pop);
  emitPush(Code, 5);
  emit(Code, Opcode::Ret);
  Image Img = handImage(Code);
  Img.Functions[0].CodeSize = static_cast<uint32_t>(MainSize);
  Img.Functions.push_back(func("f", Base + MainSize, Code.size() - MainSize));
  Outcome O = expectSameRun(Img);
  ASSERT_TRUE(O.Result.has_value()) << O.Error;
  EXPECT_EQ(O.Result->ExitValue, 5);
}

TEST(VMHardeningTest, JumpIntoOperandBytesDecodesThere) {
  // push imm; jump imm+0 — the immediate's low byte is a ret opcode, so
  // the jump lands inside the push and returns the value it pushed.
  std::vector<uint8_t> Code;
  emitPush(Code, op(Opcode::Ret));
  emit(Code, Opcode::Jump, Image::BaseAddr + 1, 8);
  Outcome O = expectSameRun(handImage(Code));
  ASSERT_TRUE(O.Result.has_value()) << O.Error;
  EXPECT_EQ(O.Result->ExitValue, op(Opcode::Ret));
  EXPECT_EQ(O.Result->Instructions, 3u);
}

TEST(VMHardeningTest, CallAsLastInstructionReturnsOntoHighPc) {
  // f is profiled and returns to the address just past main's final call,
  // which is the end of the code segment.
  const Address Base = Image::BaseAddr;
  std::vector<uint8_t> Code;
  emit(Code, Opcode::Mcount); // [0, 11): f
  emitPush(Code, 5);
  emit(Code, Opcode::Ret);
  const size_t FSize = Code.size();
  emitCall(Code, Base, 0); // [11, 21): main
  Image Img;
  Img.Functions.push_back(func("f", Base, FSize, 0, 0, /*Profiled=*/true));
  Img.Functions.push_back(func("main", Base + FSize, Code.size() - FSize));
  Img.EntryFunction = 1;
  Img.Code = std::move(Code);
  expectTrap(Img, format("pc 0x%llx (in <outside code segment>): program "
                         "counter left the code segment",
                         static_cast<unsigned long long>(Img.highPc())));
}
