//===- vm/VM.cpp -----------------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "support/Format.h"
#include "vm/Bytecode.h"

#include <algorithm>

using namespace gprof;

ProfileHooks::~ProfileHooks() = default;

void ProfileHooks::onReturn(Address) {}

namespace {

/// Decoded-table markers for offsets that hold no executable instruction;
/// both lie past the last opcode.
constexpr uint8_t IllegalMarker = static_cast<uint8_t>(Opcode::NumOpcodes);
constexpr uint8_t TruncatedMarker = IllegalMarker + 1;

/// Initial operand stack and local slot capacity; both grow on demand.
constexpr size_t InitialStackWords = 256;

} // namespace

VM::VM(const Image &Img, VMOptions Opts)
    : Img(Img), Opts(Opts), Stack(InitialStackWords),
      Locals(InitialStackWords), Code(Img.Code.size()),
      EntryAt(Img.Code.size()) {
  resetGlobals();
  resetMemory();
  NextTickAt = Opts.CyclesPerTick;

  // Only a function's entry offset can resolve, but a duplicate-address
  // or zero-size function must resolve as findFunctionAt says.
  const size_t N = Img.Code.size();
  for (const FuncInfo &F : Img.Functions)
    if (F.Addr - Image::BaseAddr < N)
      EntryAt[F.Addr - Image::BaseAddr] = Img.findFunctionAt(F.Addr);

  for (size_t Off = 0; Off != N; ++Off) {
    DecodedInstruction I = decodeInstruction(Img.Code.data(), N, Off);
    Decoded &D = Code[Off];
    if (I.Status != DecodedInstruction::Valid) {
      D.Op = I.Status == DecodedInstruction::Illegal ? IllegalMarker
                                                     : TruncatedMarker;
      continue;
    }
    D.Op = static_cast<uint8_t>(I.Op);
    D.Size = I.Size;
    D.Cost = static_cast<uint8_t>(opcodeCycleCost(I.Op));
    D.Argc = I.Argc;
    switch (I.Op) {
    case Opcode::Jump:
    case Opcode::JumpIfZero:
    case Opcode::JumpIfNonZero:
      D.Operand = I.Operand - Image::BaseAddr;
      break;
    case Opcode::Call: {
      // A direct call's callee is fixed, so every check that depends only
      // on it is made here; a call failing one keeps a null callee and
      // re-derives its trap message when executed.
      const FuncInfo *F = functionAt(I.Operand);
      D.Callee = F && F->NumParams == I.Argc && F->NumSlots >= I.Argc
                     ? F
                     : nullptr;
      break;
    }
    default:
      D.Operand = I.Operand;
      break;
    }
  }
}

const FuncInfo *VM::functionAt(Address Pc) const {
  const uint64_t Off = Pc - Image::BaseAddr;
  return Off < EntryAt.size() ? EntryAt[Off] : Img.findFunctionAt(Pc);
}

void VM::resetGlobals() { Globals = Img.GlobalInits; }

void VM::resetMemory() { Memory.assign(Opts.MemoryWords, 0); }

Error VM::trap(uint64_t Offset, uint64_t Clock, const std::string &Message) {
  Cycles = Clock;
  const Address Pc = Image::BaseAddr + Offset;
  const FuncInfo *F = Img.findFunctionContaining(Pc);
  std::string Where = F ? F->Name : "<outside code segment>";
  return Error::failure(format("runtime error at pc 0x%llx (in %s): %s",
                               static_cast<unsigned long long>(Pc),
                               Where.c_str(), Message.c_str()));
}

Error VM::badCall(uint64_t Offset, uint64_t Clock, Address Target,
                  unsigned Argc) {
  const FuncInfo *Callee = Img.findFunctionAt(Target);
  if (!Callee)
    return trap(Offset, Clock,
                format("call through invalid function value 0x%llx",
                       static_cast<unsigned long long>(Target)));
  if (Callee->NumParams != Argc)
    return trap(Offset, Clock,
                format("call to '%s' with %u arguments; it takes %u",
                       Callee->Name.c_str(), Argc, Callee->NumParams));
  return trap(Offset, Clock,
              format("call to '%s' whose frame declares %u slots for "
                     "%u parameters",
                     Callee->Name.c_str(), Callee->NumSlots, Argc));
}

void VM::deliverDueTicks(Address Pc) {
  while (Cycles >= NextTickAt) {
    if (Hooks)
      Hooks->onTick(Pc);
    NextTickAt += Opts.CyclesPerTick;
    ++Ticks;
  }
}

Expected<RunResult> VM::run() {
  resetGlobals();
  resetMemory();
  assert(Img.EntryFunction < Img.Functions.size() && "bad entry function");
  return execute(Img.Functions[Img.EntryFunction], {});
}

Expected<RunResult> VM::call(const std::string &Name,
                             const std::vector<int64_t> &Args) {
  for (const FuncInfo &F : Img.Functions)
    if (F.Name == Name) {
      if (Args.size() != F.NumParams)
        return Error::failure(
            format("call to '%s' with %zu arguments; it takes %u",
                   Name.c_str(), Args.size(), F.NumParams));
      return execute(F, Args);
    }
  return Error::failure(format("no function named '%s'", Name.c_str()));
}

Expected<RunResult> VM::execute(const FuncInfo &Entry,
                                const std::vector<int64_t> &Args) {
  // A zero tick interval would deliver ticks forever on the first
  // instruction.
  if (Opts.CyclesPerTick == 0)
    return Error::failure("VMOptions::CyclesPerTick must be at least 1");

  RunResult Result;
  const uint64_t StartCycles = Cycles;
  const uint64_t StartTicks = Ticks;

  // Synthetic outermost frame: the return address 0 lies outside the code
  // segment, so the entry function's incoming arc symbolizes to no caller
  // and is classified spontaneous (paper §3.1).
  // A corrupt image can declare fewer frame slots than parameters; the
  // argument copy below must not write past the frame.
  if (Entry.NumSlots < Args.size())
    return trap(Entry.Addr - Image::BaseAddr, Cycles,
                format("entry '%s' declares %u frame slots for %zu arguments",
                       Entry.Name.c_str(), Entry.NumSlots, Args.size()));
  Frames.clear();
  Frames.push_back({/*ReturnAddr=*/0, /*LocalBase=*/0, /*StackBase=*/0,
                    &Entry});
  if (Locals.size() < Entry.NumSlots)
    Locals.resize(Entry.NumSlots);
  std::fill_n(Locals.begin(), Entry.NumSlots, 0);
  std::copy(Args.begin(), Args.end(), Locals.begin());

  // The hot state lives in locals.  The operand stack and the locals are
  // private to this function; the clock is written back to Cycles before
  // every hook, tick and trap, since those are where it can be observed.
  const Decoded *const Table = Code.data();
  const uint64_t CodeSize = Code.size();
  int64_t *const G = Globals.data();
  const size_t NumGlobals = Globals.size();
  int64_t *const Mem = Memory.data();
  const size_t MemWords = Memory.size();

  int64_t *S = Stack.data();
  size_t StackCap = Stack.size();
  size_t Sp = 0; // operand stack depth
  size_t LocalBase = 0;
  size_t LocalTop = Entry.NumSlots; // end of the current frame's slots
  int64_t *L = Locals.data();       // the current frame's slot 0
  uint64_t Clock = Cycles;
  uint64_t Instructions = 0;
  uint64_t Off = Entry.Addr - Image::BaseAddr;

  // One compare per instruction covers both the next tick and the cycle
  // limit; the limit is "Clock - StartCycles > MaxCycles", so a MaxCycles
  // too large to add to StartCycles means there is none.
  const uint64_t LimitAt =
      Opts.MaxCycles >= UINT64_MAX - StartCycles
          ? UINT64_MAX
          : StartCycles + Opts.MaxCycles + 1;
  uint64_t Wake = std::min(NextTickAt, LimitAt);

  auto Push = [&](int64_t V) {
    if (Sp == StackCap) [[unlikely]] {
      Stack.resize(2 * StackCap);
      S = Stack.data();
      StackCap = Stack.size();
    }
    S[Sp++] = V;
  };

  while (true) {
    if (Off >= CodeSize)
      return trap(Off, Clock, "program counter left the code segment");

    const Decoded &D = Table[Off];
    uint64_t Next = Off + D.Size;
    ++Instructions;

    switch (static_cast<Opcode>(D.Op)) {
    case Opcode::Halt:
      return trap(Off, Clock, "executed halt sentinel");

    case Opcode::Push:
    case Opcode::PushFunc:
      Push(static_cast<int64_t>(D.Operand));
      break;

    case Opcode::Pop:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      --Sp;
      break;

    case Opcode::Dup:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      Push(S[Sp - 1]);
      break;

    case Opcode::LoadLocal:
      if (D.Operand >= LocalTop - LocalBase)
        return trap(Off, Clock, "local slot out of range");
      Push(L[D.Operand]);
      break;

    case Opcode::StoreLocal:
      if (D.Operand >= LocalTop - LocalBase)
        return trap(Off, Clock, "local slot out of range");
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      L[D.Operand] = S[--Sp];
      break;

    case Opcode::LoadGlobal:
      if (D.Operand >= NumGlobals)
        return trap(Off, Clock, "global index out of range");
      Push(G[D.Operand]);
      break;

    case Opcode::StoreGlobal:
      if (D.Operand >= NumGlobals)
        return trap(Off, Clock, "global index out of range");
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      G[D.Operand] = S[--Sp];
      break;

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe: {
      if (Sp < 2)
        return trap(Off, Clock, "operand stack underflow");
      const int64_t RHS = S[--Sp];
      int64_t &LHS = S[Sp - 1];
      const uint64_t A = static_cast<uint64_t>(LHS);
      const uint64_t B = static_cast<uint64_t>(RHS);
      switch (static_cast<Opcode>(D.Op)) {
      case Opcode::Add:
        LHS = static_cast<int64_t>(A + B);
        break;
      case Opcode::Sub:
        LHS = static_cast<int64_t>(A - B);
        break;
      case Opcode::Mul:
        LHS = static_cast<int64_t>(A * B);
        break;
      case Opcode::Div:
        if (RHS == 0)
          return trap(Off, Clock, "division by zero");
        if (LHS == INT64_MIN && RHS == -1)
          return trap(Off, Clock, "integer overflow in division");
        LHS /= RHS;
        break;
      case Opcode::Mod:
        if (RHS == 0)
          return trap(Off, Clock, "division by zero");
        if (LHS == INT64_MIN && RHS == -1)
          return trap(Off, Clock, "integer overflow in remainder");
        LHS %= RHS;
        break;
      case Opcode::CmpEq:
        LHS = LHS == RHS;
        break;
      case Opcode::CmpNe:
        LHS = LHS != RHS;
        break;
      case Opcode::CmpLt:
        LHS = LHS < RHS;
        break;
      case Opcode::CmpLe:
        LHS = LHS <= RHS;
        break;
      case Opcode::CmpGt:
        LHS = LHS > RHS;
        break;
      default: // CmpGe
        LHS = LHS >= RHS;
        break;
      }
      break;
    }

    case Opcode::Neg:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      S[Sp - 1] = static_cast<int64_t>(-static_cast<uint64_t>(S[Sp - 1]));
      break;

    case Opcode::Not:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      S[Sp - 1] = S[Sp - 1] == 0;
      break;

    case Opcode::Jump:
      Next = D.Operand;
      break;

    case Opcode::JumpIfZero:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      if (S[--Sp] == 0)
        Next = D.Operand;
      break;

    case Opcode::JumpIfNonZero:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      if (S[--Sp] != 0)
        Next = D.Operand;
      break;

    case Opcode::Call:
    case Opcode::CallIndirect: {
      const unsigned Argc = D.Argc;
      const FuncInfo *Callee;
      if (D.Op == static_cast<uint8_t>(Opcode::Call)) {
        Callee = D.Callee;
        if (!Callee) {
          // The table keeps no target for a call that can only trap.
          const Address Target =
              decodeInstruction(Img.Code.data(), CodeSize, Off).Operand;
          return badCall(Off, Clock, Target, Argc);
        }
      } else {
        if (Sp == 0)
          return trap(Off, Clock, "operand stack underflow");
        const Address Target = static_cast<Address>(S[--Sp]);
        Callee = functionAt(Target);
        if (!Callee || Callee->NumParams != Argc || Callee->NumSlots < Argc)
          return badCall(Off, Clock, Target, Argc);
      }
      if (Frames.size() >= Opts.MaxCallDepth)
        return trap(Off, Clock, "call stack overflow");
      if (Sp < Argc)
        return trap(Off, Clock, "operand stack underflow");

      const size_t NewTop = LocalTop + Callee->NumSlots;
      if (NewTop > Locals.size())
        Locals.resize(std::max(NewTop, 2 * Locals.size()));
      L = Locals.data() + LocalTop;
      Sp -= Argc;
      std::copy_n(S + Sp, Argc, L);
      std::fill(L + Argc, L + Callee->NumSlots, 0);
      Frames.push_back({Image::BaseAddr + Next, LocalTop, Sp, Callee});
      LocalBase = LocalTop;
      LocalTop = NewTop;
      Next = Callee->Addr - Image::BaseAddr;
      break;
    }

    case Opcode::Ret: {
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      const int64_t Value = S[--Sp];
      const Frame F = Frames.back();
      Frames.pop_back();
      LocalTop = F.LocalBase;
      // A callee that popped below its frame's stack base leaves the
      // caller's stack refilled with zeros up to that base.
      if (Sp < F.StackBase)
        std::fill(S + Sp, S + F.StackBase, 0);
      Sp = F.StackBase;
      // The returning routine owns the ticks elapsed on its ret: they are
      // delivered before its return notification.
      Clock += D.Cost;
      Cycles = Clock;
      deliverDueTicks(Image::BaseAddr + Off);
      if (Hooks && F.Func->Profiled)
        Hooks->onReturn(F.Func->Addr);
      if (Frames.empty()) {
        // The entry function returned.
        Result.ExitValue = Value;
        Result.Cycles = Clock - StartCycles;
        Result.Instructions = Instructions;
        Result.Ticks = Ticks - StartTicks;
        return Result;
      }
      Push(Value);
      LocalBase = Frames.back().LocalBase;
      L = Locals.data() + LocalBase;
      if (Clock - StartCycles > Opts.MaxCycles)
        return trap(Off, Clock, "cycle limit exceeded");
      Wake = std::min(NextTickAt, LimitAt);
      Off = F.ReturnAddr - Image::BaseAddr;
      continue;
    }

    case Opcode::Print:
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      Result.Printed.push_back(S[--Sp]);
      break;

    case Opcode::Mcount:
      // The monitoring call inserted in the prologue: report the arc from
      // the caller's call site to this function's entry (paper §3.1).
      if (Hooks) {
        Cycles = Clock;
        Hooks->onCall(Frames.back().ReturnAddr, Frames.back().Func->Addr);
      }
      break;

    case Opcode::MemLoad: {
      if (Sp == 0)
        return trap(Off, Clock, "operand stack underflow");
      const uint64_t Addr = static_cast<uint64_t>(S[Sp - 1]);
      if (Addr >= MemWords)
        return trap(Off, Clock,
                    format("memory address %lld out of range [0, %zu)",
                           static_cast<long long>(S[Sp - 1]), MemWords));
      S[Sp - 1] = Mem[Addr];
      break;
    }

    case Opcode::MemStore: {
      if (Sp < 2)
        return trap(Off, Clock, "operand stack underflow");
      const int64_t Value = S[--Sp];
      const uint64_t Addr = static_cast<uint64_t>(S[Sp - 1]);
      if (Addr >= MemWords)
        return trap(Off, Clock,
                    format("memory address %lld out of range [0, %zu)",
                           static_cast<long long>(S[Sp - 1]), MemWords));
      Mem[Addr] = Value;
      S[Sp - 1] = Value; // poke yields the stored value.
      break;
    }

    case Opcode::NumOpcodes: // == IllegalMarker
      return trap(Off, Clock,
                  format("illegal opcode %u",
                         static_cast<unsigned>(Img.Code[Off])));

    default: // TruncatedMarker
      return trap(Off, Clock,
                  "truncated instruction at end of code segment");
    }

    // Advance the virtual clock; deliver any elapsed ticks at this
    // instruction's address and enforce the cycle limit.
    Clock += D.Cost;
    if (Clock >= Wake) [[unlikely]] {
      Cycles = Clock;
      deliverDueTicks(Image::BaseAddr + Off);
      if (Clock - StartCycles > Opts.MaxCycles)
        return trap(Off, Clock, "cycle limit exceeded");
      Wake = std::min(NextTickAt, LimitAt);
    }
    Off = Next;
  }
}
