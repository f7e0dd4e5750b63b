//===- tests/reference_gmon.cpp -------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "reference_gmon.h"

#include "support/BinaryStream.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace gprof;

namespace {

// The container constants (layout in docs/FORMATS.md), restated here
// rather than shared with the production reader, so a wrong constant
// there cannot hide by being wrong here too.
constexpr char Magic[4] = {'G', 'M', 'O', 'N'};
constexpr uint32_t Version = 1;
constexpr uint32_t VersionContexts = 2;
/// "CCTR" as a little-endian u32.
constexpr uint32_t SectionTagContexts = 0x52544343;
/// parent u32 + frompc u64 + selfpc u64 + calls u64 + ticks u64.
constexpr uint64_t CctNodeBytes = 36;
constexpr uint64_t MaxRecords = (1ULL << 30) / 8;
constexpr uint32_t MaxSections = 64;

} // namespace

Expected<ProfileData>
gprof::readGmonReference(const std::vector<uint8_t> &Bytes,
                         const GmonReadOptions &Opts, GmonSalvage *Salvage) {
  GmonSalvage LocalSalvage;
  GmonSalvage &S = Salvage ? *Salvage : LocalSalvage;
  S = GmonSalvage{};
  BinaryReader R(Bytes);

  auto NoteDamage = [&S](std::string Note) {
    S.Damaged = true;
    if (S.Note.empty())
      S.Note = std::move(Note);
  };
  auto FinishSalvaged = [&S](ProfileData Data) -> Expected<ProfileData> {
    if (S.Damaged) {
      telemetry::counter("gmon.read.salvaged_files").add(1);
      telemetry::counter("gmon.read.salvaged_arcs").add(S.SalvagedArcs);
      telemetry::counter("gmon.read.dropped_arcs").add(S.DroppedArcs);
      telemetry::counter("gmon.read.dropped_buckets").add(S.DroppedBuckets);
      telemetry::counter("gmon.read.dropped_contexts").add(S.DroppedContexts);
    }
    return Data;
  };

  auto MagicBytes = R.readBytes(sizeof(Magic));
  if (!MagicBytes)
    return MagicBytes.takeError();
  if (!std::equal(MagicBytes->begin(), MagicBytes->end(), Magic))
    return Error::failure("not a gmon file: bad magic");

  auto Ver = R.readU32();
  if (!Ver)
    return Ver.takeError();
  if (*Ver != Version && *Ver != VersionContexts)
    return Error::failure(
        format("unsupported gmon version %u (expected %u)", *Ver, Version));

  ProfileData Data;
  auto Hz = R.readU64();
  if (!Hz)
    return Hz.takeError();
  if (*Hz == 0)
    return Error::failure("gmon file has zero sampling rate");
  Data.TicksPerSecond = *Hz;

  auto Runs = R.readU32();
  if (!Runs)
    return Runs.takeError();
  if (*Runs == 0)
    return Error::failure("gmon file records zero runs");
  Data.RunCount = *Runs;

  auto Flags = R.readU8();
  if (!Flags)
    return Flags.takeError();
  Data.ArcTableOverflowed = (*Flags & 1) != 0;
  if (*Ver >= VersionContexts)
    Data.ContextTreeOverflowed = (*Flags & 2) != 0;

  auto LowPc = R.readU64();
  if (!LowPc)
    return LowPc.takeError();
  auto HighPc = R.readU64();
  if (!HighPc)
    return HighPc.takeError();
  auto BucketSize = R.readU64();
  if (!BucketSize)
    return BucketSize.takeError();
  auto NumBuckets = R.readU64();
  if (!NumBuckets)
    return NumBuckets.takeError();
  if (*NumBuckets > MaxRecords)
    return Error::failure(
        format("gmon histogram implausibly large (%llu buckets)",
               static_cast<unsigned long long>(*NumBuckets)));
  if (!Opts.Tolerant && *NumBuckets * 8 > R.remaining())
    return Error::failure("gmon histogram longer than the file");

  if (*NumBuckets != 0) {
    if (*HighPc <= *LowPc || *BucketSize == 0)
      return Error::failure("gmon histogram has an invalid address range");
    uint64_t Span = *HighPc - *LowPc;
    uint64_t Implied = Span / *BucketSize + (Span % *BucketSize != 0);
    if (Implied != *NumBuckets)
      return Error::failure(
          format("gmon histogram bucket count mismatch: header says %llu, "
                 "range implies %llu",
                 static_cast<unsigned long long>(*NumBuckets),
                 static_cast<unsigned long long>(Implied)));
    Histogram H(*LowPc, *HighPc, *BucketSize);
    for (size_t I = 0; I != H.numBuckets(); ++I) {
      if (Opts.Tolerant && R.remaining() < 8) {
        NoteDamage(format("histogram truncated after %zu of %zu buckets",
                          I, H.numBuckets()));
        break;
      }
      auto C = R.readU64();
      if (!C)
        return C.takeError();
      H.setBucketCount(I, *C);
      ++S.SalvagedBuckets;
    }
    S.DroppedBuckets = H.numBuckets() - S.SalvagedBuckets;
    Data.Hist = std::move(H);
    if (S.DroppedBuckets != 0)
      return FinishSalvaged(std::move(Data));
  }

  if (Opts.Tolerant && R.remaining() < 8) {
    NoteDamage("arc table count truncated");
    return FinishSalvaged(std::move(Data));
  }
  auto NumArcs = R.readU64();
  if (!NumArcs)
    return NumArcs.takeError();
  if (*NumArcs > MaxRecords)
    return Error::failure(
        format("gmon arc table implausibly large (%llu records)",
               static_cast<unsigned long long>(*NumArcs)));
  uint64_t WholeArcs = *NumArcs;
  if (*NumArcs * 24 > R.remaining()) {
    if (!Opts.Tolerant)
      return Error::failure("gmon arc table longer than the file");
    WholeArcs = R.remaining() / 24;
    NoteDamage(format("arc table truncated after %llu of %llu records",
                      static_cast<unsigned long long>(WholeArcs),
                      static_cast<unsigned long long>(*NumArcs)));
  }
  Data.Arcs.reserve(static_cast<size_t>(WholeArcs));
  for (uint64_t I = 0; I != WholeArcs; ++I) {
    auto FromPc = R.readU64();
    if (!FromPc)
      return FromPc.takeError();
    auto SelfPc = R.readU64();
    if (!SelfPc)
      return SelfPc.takeError();
    auto Count = R.readU64();
    if (!Count)
      return Count.takeError();
    Data.Arcs.push_back({*FromPc, *SelfPc, *Count});
  }
  S.SalvagedArcs = WholeArcs;
  S.DroppedArcs = *NumArcs - WholeArcs;
  if (S.DroppedArcs != 0)
    return FinishSalvaged(std::move(Data));

  if (*Ver >= VersionContexts) {
    if (Opts.Tolerant && R.remaining() < 4) {
      NoteDamage("extension section count truncated");
      return FinishSalvaged(std::move(Data));
    }
    auto NumSections = R.readU32();
    if (!NumSections)
      return NumSections.takeError();
    if (*NumSections > MaxSections)
      return Error::failure(
          format("gmon extension section count implausibly large (%u)",
                 *NumSections));
    bool SeenContexts = false;
    for (uint32_t SI = 0; SI != *NumSections; ++SI) {
      if (Opts.Tolerant && R.remaining() < 4) {
        NoteDamage(format("extension section header truncated "
                          "(section %u of %u)",
                          SI, *NumSections));
        return FinishSalvaged(std::move(Data));
      }
      auto Tag = R.readU32();
      if (!Tag)
        return Tag.takeError();
      if (Opts.Tolerant && R.remaining() < 8) {
        NoteDamage(format("extension section header truncated "
                          "(section %u of %u)",
                          SI, *NumSections));
        return FinishSalvaged(std::move(Data));
      }
      auto Len = R.readU64();
      if (!Len)
        return Len.takeError();
      const bool Truncated = *Len > R.remaining();
      if (Truncated && !Opts.Tolerant)
        return Error::failure("gmon extension section longer than the file");
      if (*Tag != SectionTagContexts) {
        if (Truncated) {
          NoteDamage(format("unknown extension section 0x%08x truncated",
                            *Tag));
          return FinishSalvaged(std::move(Data));
        }
        telemetry::counter("gmon.read.skipped_sections").add(1);
        auto Skipped = R.readBytes(static_cast<size_t>(*Len));
        if (!Skipped)
          return Skipped.takeError();
        continue;
      }
      if (SeenContexts)
        return Error::failure("duplicate gmon context tree section");
      SeenContexts = true;
      uint64_t Avail = Truncated ? R.remaining() : *Len;
      if (Avail < 8) {
        if (!Opts.Tolerant || !Truncated)
          return Error::failure("gmon context tree section too small");
        NoteDamage("context tree node count truncated");
        return FinishSalvaged(std::move(Data));
      }
      auto NumNodes = R.readU64();
      if (!NumNodes)
        return NumNodes.takeError();
      if (*NumNodes > MaxRecords)
        return Error::failure(
            format("gmon context tree implausibly large (%llu nodes)",
                   static_cast<unsigned long long>(*NumNodes)));
      if (*Len != 8 + *NumNodes * CctNodeBytes)
        return Error::failure("gmon context tree section length mismatch");
      uint64_t WholeNodes = *NumNodes;
      if (Truncated) {
        WholeNodes = (Avail - 8) / CctNodeBytes;
        NoteDamage(format("context tree truncated after %llu of %llu nodes",
                          static_cast<unsigned long long>(WholeNodes),
                          static_cast<unsigned long long>(*NumNodes)));
      }
      Data.Contexts.reserve(static_cast<size_t>(WholeNodes));
      for (uint64_t I = 0; I != WholeNodes; ++I) {
        auto Parent = R.readU32();
        if (!Parent)
          return Parent.takeError();
        auto FromPc = R.readU64();
        if (!FromPc)
          return FromPc.takeError();
        auto SelfPc = R.readU64();
        if (!SelfPc)
          return SelfPc.takeError();
        auto Calls = R.readU64();
        if (!Calls)
          return Calls.takeError();
        auto Ticks = R.readU64();
        if (!Ticks)
          return Ticks.takeError();
        if (*Parent != CctRootParent && *Parent >= I)
          return Error::failure(
              format("gmon context tree node %llu has invalid parent %u",
                     static_cast<unsigned long long>(I), *Parent));
        Data.Contexts.push_back({*Parent, *FromPc, *SelfPc, *Calls, *Ticks});
      }
      S.SalvagedContexts = WholeNodes;
      S.DroppedContexts = *NumNodes - WholeNodes;
      if (S.DroppedContexts != 0)
        return FinishSalvaged(std::move(Data));
    }
  }

  if (!R.atEnd()) {
    if (!Opts.Tolerant)
      return Error::failure(
          format("%zu trailing bytes after gmon data", R.remaining()));
    S.TrailingBytes = R.remaining();
    NoteDamage(format("%zu trailing bytes ignored after gmon data",
                      R.remaining()));
  }
  return FinishSalvaged(std::move(Data));
}
