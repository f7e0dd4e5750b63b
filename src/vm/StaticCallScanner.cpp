//===- vm/StaticCallScanner.cpp --------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "vm/StaticCallScanner.h"

#include "vm/Bytecode.h"

#include <algorithm>

using namespace gprof;

StaticScanResult gprof::scanStaticCalls(const Image &Img) {
  StaticScanResult Result;
  for (const FuncInfo &F : Img.Functions) {
    // Symbol boundaries keep the scan sane: decoding stops at the end of
    // the function, and at the first corrupt or truncated instruction.
    const size_t Begin = static_cast<size_t>(F.Addr - Image::BaseAddr);
    const size_t End = std::min<size_t>(Begin + F.CodeSize, Img.Code.size());
    for (size_t Off = Begin; Off < End;) {
      DecodedInstruction I = decodeInstruction(Img.Code.data(), End, Off);
      if (I.Status != DecodedInstruction::Valid)
        break;
      if (I.Op == Opcode::Call)
        Result.DirectCalls.push_back({Image::BaseAddr + Off, I.Operand});
      else if (I.Op == Opcode::PushFunc)
        Result.AddressTaken.push_back(I.Operand);
      else if (I.Op == Opcode::CallIndirect)
        Result.IndirectCallSites.push_back(Image::BaseAddr + Off);
      Off += I.Size;
    }
  }
  // Deduplicate the address-taken set.
  std::sort(Result.AddressTaken.begin(), Result.AddressTaken.end());
  Result.AddressTaken.erase(
      std::unique(Result.AddressTaken.begin(), Result.AddressTaken.end()),
      Result.AddressTaken.end());
  return Result;
}
