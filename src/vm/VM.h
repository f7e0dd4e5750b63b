//===- vm/VM.h - The TL bytecode interpreter with a virtual clock --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes TL images deterministically.  The VM plays two roles from the
/// paper's environment:
///
///  - the *machine*: a flat-addressed code segment, a call stack whose
///    frames hold return addresses (so the monitoring routine can discover
///    the caller's call site, §3.1), and a cycle clock advanced by each
///    instruction's cost;
///  - the *kernel clock*: every CyclesPerTick cycles the VM delivers a
///    clock tick carrying the current PC to the attached hooks — the
///    equivalent of the histogram sampling "at the end of each clock tick
///    (1/60th of a second) in which a program runs" (§3.2), but exactly
///    uniform and reproducible.
///
/// Profiling hooks are "late bound" exactly as the retrospective marvels:
/// swapping in a different ProfileHooks implementation changes the whole
/// profiler without touching the compiler or the program.
///
/// Decoding happens once, when the VM is constructed: every byte offset of
/// the code segment gets a table entry holding the instruction that starts
/// there (opcode, or a marker for an illegal or truncated instruction; its
/// size and cycle cost; its decoded immediate, target, slot or argument
/// count; for a direct call, the callee's FuncInfo), so a jump may still
/// land on any byte, including another instruction's operands.  A second
/// per-offset table names the function entered at each offset, which
/// resolves indirect calls without a symbol-table search.  The run loop
/// dispatches from the table and never re-reads the code bytes.  Both
/// tables are built from the Image once and point into its function table,
/// so the Image must not change while a VM holds it.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_VM_VM_H
#define GPROF_VM_VM_H

#include "support/Error.h"
#include "vm/Image.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

/// Receives profiling events from the VM.  The three events are all any
/// profiler here needs: runtime/Monitor builds the histogram from onTick,
/// the arc table from onCall, and, with contexts on, the calling-context
/// tree from all three (the complete call stacks the retrospective asks
/// for, aggregated per path, with no per-tick stack copy).
class ProfileHooks {
public:
  virtual ~ProfileHooks();

  /// An Mcount prologue executed in the function entered at \p SelfPc; the
  /// caller's call site (the return address in the new frame) is
  /// \p FromPc.  FromPc may lie outside the code segment for spontaneous
  /// activations (e.g. main's synthetic caller).
  virtual void onCall(Address FromPc, Address SelfPc) = 0;

  /// A virtual clock tick elapsed while the instruction at \p Pc was
  /// executing.
  virtual void onTick(Address Pc) = 0;

  /// A profiled function (one whose prologue ran Mcount) returned; \p
  /// SelfPc is its entry address.  Fired *after* any ticks elapsed on the
  /// ret instruction are delivered, so a sample landing on the ret is
  /// attributed to the returning routine by both the histogram and a
  /// context recorder — the ordering the CCT/flat-profile equivalence
  /// invariant depends on (docs/RUNTIME_MT.md).  Default: ignored.
  virtual void onReturn(Address SelfPc);
};

/// Execution limits and clock configuration.
struct VMOptions {
  /// Virtual cycles per clock tick.  With the default cost table this
  /// stands in for the paper's 60 Hz line clock; lower values sample more
  /// finely (and cost more, see bench E4/E6).
  uint64_t CyclesPerTick = 10000;
  /// Abort with an error if the program runs longer than this many cycles.
  uint64_t MaxCycles = 2'000'000'000'000ULL;
  /// Abort with an error on call chains deeper than this.
  uint32_t MaxCallDepth = 1u << 20;
  /// Words of flat data memory addressable through peek/poke.
  uint32_t MemoryWords = 1u << 16;
};

/// The observable outcome of one execution.
struct RunResult {
  int64_t ExitValue = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Ticks = 0;
  std::vector<int64_t> Printed;
};

/// Interpreter for one loaded Image.  Global variable state persists
/// across call() invocations (and is re-initialized by run()), so a
/// long-lived "kernel" can be driven call by call while profiling is
/// switched on and off around it.
class VM {
public:
  /// Decodes \p Img's code segment.  \p Img must outlive the VM and must
  /// not change while the VM exists: the decoded table is not refreshed.
  explicit VM(const Image &Img, VMOptions Opts = VMOptions());

  /// Attaches (or detaches, with nullptr) profiling hooks.
  void setHooks(ProfileHooks *H) { Hooks = H; }

  /// Resets globals and runs 'main' to completion.  Fails without
  /// executing anything when Opts.CyclesPerTick is 0.
  Expected<RunResult> run();

  /// Calls function \p Name with \p Args using current global state.
  /// Fails without executing anything when Opts.CyclesPerTick is 0.
  Expected<RunResult> call(const std::string &Name,
                           const std::vector<int64_t> &Args);

  /// Re-initializes global variables from the image.
  void resetGlobals();

  /// Zeroes the peek/poke data memory (run() also does this).
  void resetMemory();

  /// Total cycles executed since construction (monotonic across calls).
  uint64_t totalCycles() const { return Cycles; }

private:
  struct Frame {
    Address ReturnAddr;
    size_t LocalBase;
    size_t StackBase;
    const FuncInfo *Func;
  };

  /// The decoded instruction at one code offset.
  struct Decoded {
    /// An Opcode, or IllegalMarker / TruncatedMarker (see VM.cpp).
    uint8_t Op = 0;
    uint8_t Size = 1;
    uint8_t Cost = 0;
    uint8_t Argc = 0;
    union {
      /// Push's immediate; PushFunc's address; the slot or global index;
      /// for jumps, the target's offset from Image::BaseAddr (wrapping).
      uint64_t Operand = 0;
      /// Call: the callee, or null when the call can only trap.
      const FuncInfo *Callee;
    };
  };

  Expected<RunResult> execute(const FuncInfo &Entry,
                              const std::vector<int64_t> &Args);
  /// Stores \p Clock into Cycles and fails at code offset \p Offset.
  Error trap(uint64_t Offset, uint64_t Clock, const std::string &Message);
  Error badCall(uint64_t Offset, uint64_t Clock, Address Target,
                unsigned Argc);
  void deliverDueTicks(Address Pc);
  /// Image::findFunctionAt(Pc), from EntryAt inside the code segment.
  const FuncInfo *functionAt(Address Pc) const;

  const Image &Img;
  VMOptions Opts;
  ProfileHooks *Hooks = nullptr;

  std::vector<int64_t> Globals;
  std::vector<int64_t> Memory;
  std::vector<int64_t> Stack;
  std::vector<int64_t> Locals;
  std::vector<Frame> Frames;

  /// One entry per code byte offset.
  std::vector<Decoded> Code;
  /// Per code byte offset: the function entered there, as
  /// Image::findFunctionAt resolves it, or null.
  std::vector<const FuncInfo *> EntryAt;

  uint64_t Cycles = 0;
  uint64_t NextTickAt = 0;
  uint64_t Ticks = 0;
};

} // namespace gprof

#endif // GPROF_VM_VM_H
