//===- vm/Bytecode.h - The TL virtual machine instruction set ------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode ISA executed by the VM.  Instructions are variable length:
/// a one-byte opcode followed by little-endian operands.  Code lives in a
/// flat address space (see vm/Image.h) so program-counter values behave
/// like the paper's text-segment addresses: the histogram buckets them and
/// the static scanner crawls them.
///
/// Every opcode has a virtual cycle cost; the VM's clock is the sum of the
/// costs of executed instructions, and clock ticks for PC sampling are
/// derived from it.  The Mcount opcode is the compiler-inserted prologue
/// call of paper §3: executing it reports the (call site, callee) arc to
/// the attached monitor, and its cycle cost is charged at the callee's
/// entry address — exactly where real mcount time lands in a PC histogram.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_VM_BYTECODE_H
#define GPROF_VM_BYTECODE_H

#include <cstddef>
#include <cstdint>

namespace gprof {

/// VM opcodes.
enum class Opcode : uint8_t {
  Halt = 0,     ///< Stop execution (emitted only as a code-end sentinel).
  Push,         ///< i64 imm: push constant.
  PushFunc,     ///< u64 addr: push a function entry address (functional value).
  Pop,          ///< Discard top of stack.
  Dup,          ///< Duplicate top of stack.
  LoadLocal,    ///< u16 slot: push frame slot.
  StoreLocal,   ///< u16 slot: pop into frame slot.
  LoadGlobal,   ///< u16 index: push global.
  StoreGlobal,  ///< u16 index: pop into global.
  Add,
  Sub,
  Mul,
  Div,          ///< Traps on division by zero.
  Mod,          ///< Traps on division by zero.
  Neg,
  Not,          ///< Logical not: 0 -> 1, nonzero -> 0.
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Jump,         ///< u64 target: unconditional branch.
  JumpIfZero,   ///< u64 target: pop; branch if zero.
  JumpIfNonZero,///< u64 target: pop; branch if nonzero.
  Call,         ///< u64 target, u8 argc: direct call.
  CallIndirect, ///< u8 argc: pop function address, then call it.
  Ret,          ///< Pop return value, pop frame, resume caller.
  Print,        ///< Pop and append to program output.
  Mcount,       ///< Profiling prologue: report the incoming arc.
  MemLoad,      ///< Pop address; push Memory[address].  Traps on range.
  MemStore,     ///< Pop value, pop address; store; push the value.

  NumOpcodes,
};

/// Returns the mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// Returns the total encoded size (opcode byte + operands) of \p Op.
unsigned instructionSize(Opcode Op);

/// Returns the virtual cycle cost of executing \p Op once.
uint64_t opcodeCycleCost(Opcode Op);

/// One instruction decoded from a code segment.
struct DecodedInstruction {
  enum Kind : uint8_t {
    Valid,     ///< Op, Size and the operands are set.
    Illegal,   ///< The byte is not an opcode.
    Truncated, ///< Op is set, but its operands run past the decode limit.
  };
  Kind Status = Illegal;
  Opcode Op = Opcode::Halt;
  /// Encoded size: instructionSize(Op), or 1 for an illegal byte.
  uint8_t Size = 1;
  /// Argument count of Call and CallIndirect.
  uint8_t Argc = 0;
  /// Push's immediate (two's complement), the address operand of PushFunc,
  /// the jumps and Call, or the u16 slot / global index.
  uint64_t Operand = 0;
};

/// Decodes the instruction at \p Offset of the code bytes [Code, Code +
/// Limit), reading no byte at or past \p Limit.  The VM, the disassembler
/// and the static scanner all decode through this one function, so they
/// agree on what is an illegal or truncated instruction.
DecodedInstruction decodeInstruction(const uint8_t *Code, size_t Limit,
                                     size_t Offset);

} // namespace gprof

#endif // GPROF_VM_BYTECODE_H
