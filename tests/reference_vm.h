//===- tests/reference_vm.h - Byte-at-a-time interpreter oracle ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the VM is tested against: a straightforward interpreter
/// that re-reads and re-decodes every instruction from the image's code
/// bytes as it executes it, keeps its operand stack and locals in growing
/// vectors, and searches the symbol table on every call.  VM pre-decodes
/// the code segment once and dispatches from the table; the differential
/// tests (tests/vm_oracle_test.cpp) require both to produce the same
/// RunResult, the same ordered hook events and the same trap messages.
/// Test-only: nothing outside tests/ links it.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_REFERENCE_VM_H
#define GPROF_TESTS_REFERENCE_VM_H

#include "vm/VM.h"

namespace gprof {

/// The interpreter VM replaced; same construction, hooks and entry points.
class ReferenceVM {
public:
  explicit ReferenceVM(const Image &Img, VMOptions Opts = VMOptions());

  void setHooks(ProfileHooks *H) { Hooks = H; }

  /// Resets globals and data memory, then runs 'main' to completion.
  Expected<RunResult> run();

  /// Calls function \p Name with \p Args using current global state.
  Expected<RunResult> call(const std::string &Name,
                           const std::vector<int64_t> &Args);

  /// Total cycles executed since construction.
  uint64_t totalCycles() const { return Cycles; }

private:
  struct Frame {
    Address ReturnAddr;
    size_t LocalBase;
    size_t StackBase;
    const FuncInfo *Func;
  };

  Expected<RunResult> execute(const FuncInfo &Entry,
                              const std::vector<int64_t> &Args);
  Error trap(Address Pc, const std::string &Message) const;
  void deliverTick(Address Pc);

  uint16_t readU16(Address Pc) const;
  uint64_t readU64(Address Pc) const;

  const Image &Img;
  VMOptions Opts;
  ProfileHooks *Hooks = nullptr;

  std::vector<int64_t> Globals;
  std::vector<int64_t> Memory;
  std::vector<int64_t> Stack;
  std::vector<int64_t> Locals;
  std::vector<Frame> Frames;

  uint64_t Cycles = 0;
  uint64_t NextTickAt = 0;
  uint64_t Ticks = 0;
};

} // namespace gprof

#endif // GPROF_TESTS_REFERENCE_VM_H
