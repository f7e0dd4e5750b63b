//===- vm/Disassembler.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "vm/Disassembler.h"

#include "support/Format.h"
#include "vm/Bytecode.h"

using namespace gprof;

namespace {

DecodedInstruction decodeAt(const Image &Img, Address Pc) {
  return decodeInstruction(Img.Code.data(), Img.Code.size(),
                           static_cast<size_t>(Pc - Image::BaseAddr));
}

std::string targetName(const Image &Img, Address Target) {
  if (const FuncInfo *F = Img.findFunctionAt(Target))
    return F->Name;
  return format("0x%llx", static_cast<unsigned long long>(Target));
}

std::string render(const Image &Img, Address Pc, const DecodedInstruction &I) {
  if (I.Status == DecodedInstruction::Illegal)
    return format("0x%06llx: <illegal opcode %u>",
                  static_cast<unsigned long long>(Pc), Img.byteAt(Pc));

  std::string Line =
      format("0x%06llx: %-10s ", static_cast<unsigned long long>(Pc),
             opcodeName(I.Op));
  if (I.Status == DecodedInstruction::Truncated)
    return Line + "<truncated at end of code segment>";
  switch (I.Op) {
  case Opcode::Push:
    Line += format("%lld", static_cast<long long>(I.Operand));
    break;
  case Opcode::PushFunc:
    Line += targetName(Img, I.Operand);
    break;
  case Opcode::LoadLocal:
  case Opcode::StoreLocal:
    Line += format("slot %u", static_cast<unsigned>(I.Operand));
    break;
  case Opcode::LoadGlobal:
  case Opcode::StoreGlobal:
    Line += format("global %u", static_cast<unsigned>(I.Operand));
    break;
  case Opcode::Jump:
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNonZero:
    Line += format("0x%llx", static_cast<unsigned long long>(I.Operand));
    break;
  case Opcode::Call:
    Line += format("%s, %u args", targetName(Img, I.Operand).c_str(), I.Argc);
    break;
  case Opcode::CallIndirect:
    Line += format("%u args", I.Argc);
    break;
  default:
    break;
  }
  return Line;
}

} // namespace

std::string gprof::disassembleInstruction(const Image &Img, Address Pc) {
  return render(Img, Pc, decodeAt(Img, Pc));
}

std::string gprof::disassemble(const Image &Img) {
  std::string Out;
  for (const FuncInfo &F : Img.Functions) {
    Out += format("%s:  ; %u params, %u slots%s\n", F.Name.c_str(),
                  F.NumParams, F.NumSlots,
                  F.Profiled ? ", profiled" : "");
    Address Pc = F.Addr;
    Address End = F.Addr + F.CodeSize;
    while (Pc < End) {
      DecodedInstruction I = decodeAt(Img, Pc);
      Out += "  " + render(Img, Pc, I) + "\n";
      if (I.Status != DecodedInstruction::Valid)
        break;
      Pc += I.Size;
    }
  }
  return Out;
}
