//===- tests/reference_vm.cpp ----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "reference_vm.h"

#include "support/Format.h"
#include "vm/Bytecode.h"

using namespace gprof;

ReferenceVM::ReferenceVM(const Image &Img, VMOptions Opts)
    : Img(Img), Opts(Opts), Globals(Img.GlobalInits),
      Memory(Opts.MemoryWords, 0), NextTickAt(Opts.CyclesPerTick) {}

Error ReferenceVM::trap(Address Pc, const std::string &Message) const {
  const FuncInfo *F = Img.findFunctionContaining(Pc);
  std::string Where = F ? F->Name : "<outside code segment>";
  return Error::failure(format("runtime error at pc 0x%llx (in %s): %s",
                               static_cast<unsigned long long>(Pc),
                               Where.c_str(), Message.c_str()));
}

uint16_t ReferenceVM::readU16(Address Pc) const {
  size_t Off = static_cast<size_t>(Pc - Image::BaseAddr);
  return static_cast<uint16_t>(Img.Code[Off]) |
         static_cast<uint16_t>(Img.Code[Off + 1]) << 8;
}

uint64_t ReferenceVM::readU64(Address Pc) const {
  size_t Off = static_cast<size_t>(Pc - Image::BaseAddr);
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(Img.Code[Off + I]) << (8 * I);
  return V;
}

void ReferenceVM::deliverTick(Address Pc) {
  if (Hooks)
    Hooks->onTick(Pc);
}

Expected<RunResult> ReferenceVM::run() {
  Globals = Img.GlobalInits;
  Memory.assign(Opts.MemoryWords, 0);
  assert(Img.EntryFunction < Img.Functions.size() && "bad entry function");
  return execute(Img.Functions[Img.EntryFunction], {});
}

Expected<RunResult> ReferenceVM::call(const std::string &Name,
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

Expected<RunResult> ReferenceVM::execute(const FuncInfo &Entry,
                                         const std::vector<int64_t> &Args) {
  RunResult Result;
  uint64_t StartCycles = Cycles;
  // Set by Ret for a profiled function; fired after that instruction's
  // ticks are delivered (see the Ret case).
  const FuncInfo *PendingReturn = nullptr;
  uint64_t StartTicks = Ticks;

  Stack.clear();
  Locals.clear();
  Frames.clear();

  // Synthetic outermost frame: the return address 0 lies outside the code
  // segment, so the entry function's incoming arc symbolizes to no caller
  // and is classified spontaneous (paper §3.1).
  // A corrupt image can declare fewer frame slots than parameters; the
  // argument copy below must not write past the frame.
  if (Entry.NumSlots < Args.size())
    return trap(Entry.Addr,
                format("entry '%s' declares %u frame slots for %zu arguments",
                       Entry.Name.c_str(), Entry.NumSlots, Args.size()));
  Frames.push_back({/*ReturnAddr=*/0, /*LocalBase=*/0, /*StackBase=*/0,
                    &Entry});
  Locals.resize(Entry.NumSlots, 0);
  for (size_t I = 0; I != Args.size(); ++I)
    Locals[I] = Args[I];

  Address Pc = Entry.Addr;
  const Address LowPc = Img.lowPc();
  const Address HighPc = Img.highPc();

  while (true) {
    if (Pc < LowPc || Pc >= HighPc)
      return trap(Pc, "program counter left the code segment");

    const Address InsnPc = Pc;
    const Opcode Op = static_cast<Opcode>(Img.byteAt(Pc));
    if (Op >= Opcode::NumOpcodes)
      return trap(Pc, format("illegal opcode %u",
                             static_cast<unsigned>(Img.byteAt(Pc))));

    const unsigned Size = instructionSize(Op);
    if (InsnPc + Size > HighPc)
      return trap(Pc, "truncated instruction at end of code segment");
    Pc += Size;
    ++Result.Instructions;

    switch (Op) {
    case Opcode::Halt:
      return trap(InsnPc, "executed halt sentinel");

    case Opcode::Push:
      Stack.push_back(static_cast<int64_t>(readU64(InsnPc + 1)));
      break;

    case Opcode::PushFunc:
      Stack.push_back(static_cast<int64_t>(readU64(InsnPc + 1)));
      break;

    case Opcode::Pop:
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Stack.pop_back();
      break;

    case Opcode::Dup:
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Stack.push_back(Stack.back());
      break;

    case Opcode::LoadLocal: {
      uint16_t Slot = readU16(InsnPc + 1);
      if (Frames.back().LocalBase + Slot >= Locals.size())
        return trap(InsnPc, "local slot out of range");
      Stack.push_back(Locals[Frames.back().LocalBase + Slot]);
      break;
    }
    case Opcode::StoreLocal: {
      uint16_t Slot = readU16(InsnPc + 1);
      if (Frames.back().LocalBase + Slot >= Locals.size())
        return trap(InsnPc, "local slot out of range");
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Locals[Frames.back().LocalBase + Slot] = Stack.back();
      Stack.pop_back();
      break;
    }
    case Opcode::LoadGlobal: {
      uint16_t Idx = readU16(InsnPc + 1);
      if (Idx >= Globals.size())
        return trap(InsnPc, "global index out of range");
      Stack.push_back(Globals[Idx]);
      break;
    }
    case Opcode::StoreGlobal: {
      uint16_t Idx = readU16(InsnPc + 1);
      if (Idx >= Globals.size())
        return trap(InsnPc, "global index out of range");
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Globals[Idx] = Stack.back();
      Stack.pop_back();
      break;
    }

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
      if (Stack.size() < 2)
        return trap(InsnPc, "operand stack underflow");
      int64_t RHS = Stack.back();
      Stack.pop_back();
      int64_t LHS = Stack.back();
      int64_t R = 0;
      switch (Op) {
      case Opcode::Add:
        R = static_cast<int64_t>(static_cast<uint64_t>(LHS) +
                                 static_cast<uint64_t>(RHS));
        break;
      case Opcode::Sub:
        R = static_cast<int64_t>(static_cast<uint64_t>(LHS) -
                                 static_cast<uint64_t>(RHS));
        break;
      case Opcode::Mul:
        R = static_cast<int64_t>(static_cast<uint64_t>(LHS) *
                                 static_cast<uint64_t>(RHS));
        break;
      case Opcode::Div:
        if (RHS == 0)
          return trap(InsnPc, "division by zero");
        if (LHS == INT64_MIN && RHS == -1)
          return trap(InsnPc, "integer overflow in division");
        R = LHS / RHS;
        break;
      case Opcode::Mod:
        if (RHS == 0)
          return trap(InsnPc, "division by zero");
        if (LHS == INT64_MIN && RHS == -1)
          return trap(InsnPc, "integer overflow in remainder");
        R = LHS % RHS;
        break;
      case Opcode::CmpEq:
        R = LHS == RHS;
        break;
      case Opcode::CmpNe:
        R = LHS != RHS;
        break;
      case Opcode::CmpLt:
        R = LHS < RHS;
        break;
      case Opcode::CmpLe:
        R = LHS <= RHS;
        break;
      case Opcode::CmpGt:
        R = LHS > RHS;
        break;
      case Opcode::CmpGe:
        R = LHS >= RHS;
        break;
      default:
        break;
      }
      Stack.back() = R;
      break;
    }

    case Opcode::Neg:
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Stack.back() = static_cast<int64_t>(-static_cast<uint64_t>(Stack.back()));
      break;

    case Opcode::Not:
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Stack.back() = Stack.back() == 0;
      break;

    case Opcode::Jump:
      Pc = readU64(InsnPc + 1);
      break;

    case Opcode::JumpIfZero: {
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      int64_t V = Stack.back();
      Stack.pop_back();
      if (V == 0)
        Pc = readU64(InsnPc + 1);
      break;
    }
    case Opcode::JumpIfNonZero: {
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      int64_t V = Stack.back();
      Stack.pop_back();
      if (V != 0)
        Pc = readU64(InsnPc + 1);
      break;
    }

    case Opcode::Call:
    case Opcode::CallIndirect: {
      Address Target;
      uint8_t Argc;
      if (Op == Opcode::Call) {
        Target = readU64(InsnPc + 1);
        Argc = Img.Code[static_cast<size_t>(InsnPc + 9 - Image::BaseAddr)];
      } else {
        Argc = Img.Code[static_cast<size_t>(InsnPc + 1 - Image::BaseAddr)];
        if (Stack.empty())
          return trap(InsnPc, "operand stack underflow");
        Target = static_cast<Address>(
            static_cast<uint64_t>(Stack.back()));
        Stack.pop_back();
      }

      const FuncInfo *Callee = Img.findFunctionAt(Target);
      if (!Callee)
        return trap(InsnPc,
                    format("call through invalid function value 0x%llx",
                           static_cast<unsigned long long>(Target)));
      if (Callee->NumParams != Argc)
        return trap(InsnPc,
                    format("call to '%s' with %u arguments; it takes %u",
                           Callee->Name.c_str(), Argc, Callee->NumParams));
      if (Callee->NumSlots < Argc)
        return trap(InsnPc,
                    format("call to '%s' whose frame declares %u slots for "
                           "%u parameters",
                           Callee->Name.c_str(), Callee->NumSlots, Argc));
      if (Frames.size() >= Opts.MaxCallDepth)
        return trap(InsnPc, "call stack overflow");

      if (Stack.size() < Argc)
        return trap(InsnPc, "operand stack underflow");
      size_t LocalBase = Locals.size();
      Locals.resize(LocalBase + Callee->NumSlots, 0);
      for (unsigned I = 0; I != Argc; ++I)
        Locals[LocalBase + I] = Stack[Stack.size() - Argc + I];
      Stack.resize(Stack.size() - Argc);

      Frames.push_back({Pc, LocalBase, Stack.size(), Callee});
      Pc = Callee->Addr;
      break;
    }

    case Opcode::Ret: {
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      int64_t Value = Stack.back();
      Stack.pop_back();
      Frame F = Frames.back();
      Frames.pop_back();
      Locals.resize(F.LocalBase);
      Stack.resize(F.StackBase);
      // Defer the return notification until the ticks elapsed on this ret
      // instruction are delivered (after the switch): a sample landing
      // here belongs to the returning routine, not its caller.
      if (Hooks && F.Func->Profiled)
        PendingReturn = F.Func;
      if (Frames.empty()) {
        // The entry function returned: account this instruction's cycles
        // and finish.
        Cycles += opcodeCycleCost(Op);
        while (Cycles >= NextTickAt) {
          deliverTick(InsnPc);
          NextTickAt += Opts.CyclesPerTick;
          ++Ticks;
        }
        if (PendingReturn)
          Hooks->onReturn(PendingReturn->Addr);
        Result.ExitValue = Value;
        Result.Cycles = Cycles - StartCycles;
        Result.Ticks = Ticks - StartTicks;
        return Result;
      }
      Stack.push_back(Value);
      Pc = F.ReturnAddr;
      break;
    }

    case Opcode::Print: {
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      Result.Printed.push_back(Stack.back());
      Stack.pop_back();
      break;
    }

    case Opcode::Mcount: {
      // The monitoring call inserted in the prologue: report the arc from
      // the caller's call site to this function's entry (paper §3.1).
      const Frame &F = Frames.back();
      if (Hooks)
        Hooks->onCall(F.ReturnAddr, F.Func->Addr);
      break;
    }

    case Opcode::MemLoad: {
      if (Stack.empty())
        return trap(InsnPc, "operand stack underflow");
      uint64_t Addr = static_cast<uint64_t>(Stack.back());
      if (Addr >= Memory.size())
        return trap(InsnPc,
                    format("memory address %lld out of range [0, %zu)",
                           static_cast<long long>(Stack.back()),
                           Memory.size()));
      Stack.back() = Memory[static_cast<size_t>(Addr)];
      break;
    }

    case Opcode::MemStore: {
      if (Stack.size() < 2)
        return trap(InsnPc, "operand stack underflow");
      int64_t Value = Stack.back();
      Stack.pop_back();
      uint64_t Addr = static_cast<uint64_t>(Stack.back());
      if (Addr >= Memory.size())
        return trap(InsnPc,
                    format("memory address %lld out of range [0, %zu)",
                           static_cast<long long>(Stack.back()),
                           Memory.size()));
      Memory[static_cast<size_t>(Addr)] = Value;
      Stack.back() = Value; // poke yields the stored value.
      break;
    }

    case Opcode::NumOpcodes:
      return trap(InsnPc, "illegal opcode");
    }

    // Advance the virtual clock and deliver any elapsed ticks at this
    // instruction's address.
    Cycles += opcodeCycleCost(Op);
    while (Cycles >= NextTickAt) {
      deliverTick(InsnPc);
      NextTickAt += Opts.CyclesPerTick;
      ++Ticks;
    }
    if (PendingReturn) {
      Hooks->onReturn(PendingReturn->Addr);
      PendingReturn = nullptr;
    }
    if (Cycles - StartCycles > Opts.MaxCycles)
      return trap(InsnPc, "cycle limit exceeded");
  }
}
