//===- vm/Bytecode.cpp -----------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include <cassert>

using namespace gprof;

const char *gprof::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Halt:
    return "halt";
  case Opcode::Push:
    return "push";
  case Opcode::PushFunc:
    return "pushfunc";
  case Opcode::Pop:
    return "pop";
  case Opcode::Dup:
    return "dup";
  case Opcode::LoadLocal:
    return "loadlocal";
  case Opcode::StoreLocal:
    return "storelocal";
  case Opcode::LoadGlobal:
    return "loadglobal";
  case Opcode::StoreGlobal:
    return "storeglobal";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Mod:
    return "mod";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::Jump:
    return "jump";
  case Opcode::JumpIfZero:
    return "jz";
  case Opcode::JumpIfNonZero:
    return "jnz";
  case Opcode::Call:
    return "call";
  case Opcode::CallIndirect:
    return "calli";
  case Opcode::Ret:
    return "ret";
  case Opcode::Print:
    return "print";
  case Opcode::Mcount:
    return "mcount";
  case Opcode::MemLoad:
    return "memload";
  case Opcode::MemStore:
    return "memstore";
  case Opcode::NumOpcodes:
    break;
  }
  assert(false && "invalid opcode");
  return "invalid";
}

unsigned gprof::instructionSize(Opcode Op) {
  switch (Op) {
  case Opcode::Push:
    return 1 + 8;
  case Opcode::PushFunc:
    return 1 + 8;
  case Opcode::LoadLocal:
  case Opcode::StoreLocal:
  case Opcode::LoadGlobal:
  case Opcode::StoreGlobal:
    return 1 + 2;
  case Opcode::Jump:
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNonZero:
    return 1 + 8;
  case Opcode::Call:
    return 1 + 8 + 1;
  case Opcode::CallIndirect:
    return 1 + 1;
  default:
    return 1;
  }
}

uint64_t gprof::opcodeCycleCost(Opcode Op) {
  // Loosely modeled on a simple in-order machine: multiplies and divides
  // are expensive, calls cost several cycles, everything else one.
  switch (Op) {
  case Opcode::Mul:
    return 4;
  case Opcode::Div:
  case Opcode::Mod:
    return 12;
  case Opcode::Call:
    return 5;
  case Opcode::CallIndirect:
    return 6;
  case Opcode::Ret:
    return 4;
  case Opcode::Print:
    return 20;
  case Opcode::MemLoad:
  case Opcode::MemStore:
    return 3;
  case Opcode::Mcount:
    // The monitoring routine "has an overhead comparable with a call of a
    // regular routine" (paper §3).
    return 5;
  default:
    return 1;
  }
}

DecodedInstruction gprof::decodeInstruction(const uint8_t *Code, size_t Limit,
                                            size_t Offset) {
  assert(Offset < Limit && "decoding outside the code bytes");
  DecodedInstruction I;
  if (Code[Offset] >= static_cast<uint8_t>(Opcode::NumOpcodes))
    return I;
  I.Op = static_cast<Opcode>(Code[Offset]);
  I.Size = static_cast<uint8_t>(instructionSize(I.Op));
  if (I.Size > Limit - Offset) {
    I.Status = DecodedInstruction::Truncated;
    return I;
  }
  I.Status = DecodedInstruction::Valid;
  const uint8_t *P = Code + Offset + 1;
  auto Read = [P](unsigned Bytes) {
    uint64_t V = 0;
    for (unsigned B = 0; B != Bytes; ++B)
      V |= static_cast<uint64_t>(P[B]) << (8 * B);
    return V;
  };
  switch (I.Op) {
  case Opcode::Push:
  case Opcode::PushFunc:
  case Opcode::Jump:
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNonZero:
    I.Operand = Read(8);
    break;
  case Opcode::LoadLocal:
  case Opcode::StoreLocal:
  case Opcode::LoadGlobal:
  case Opcode::StoreGlobal:
    I.Operand = Read(2);
    break;
  case Opcode::Call:
    I.Operand = Read(8);
    I.Argc = P[8];
    break;
  case Opcode::CallIndirect:
    I.Argc = P[0];
    break;
  default:
    break;
  }
  return I;
}
