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
constexpr uint32_t VersionDense = 1;
constexpr uint32_t VersionContexts = 2;
constexpr uint32_t VersionSparse = 3;
/// "CCTR" as a little-endian u32.
constexpr uint32_t SectionTagContexts = 0x52544343;
/// parent u32 + frompc u64 + selfpc u64 + calls u64 + ticks u64.
constexpr uint64_t CctNodeBytes = 36;
constexpr uint64_t MaxRecords = (1ULL << 30) / 8;
/// A histogram of 2^23 buckets is 64 MiB in memory.
constexpr uint64_t MaxBuckets = 1ULL << 23;
constexpr uint32_t MaxSections = 64;

/// Reads one canonical unsigned LEB128 varint a byte at a time from the
/// pair list \p L, whose first byte sits at file offset \p Base: at most
/// ten bytes, the tenth holding only bit 63, and no trailing zero group.
/// Running out of the list's bytes sets \p Torn.
Error readVarint(BinaryReader &L, size_t Base, uint64_t &V, bool &Torn) {
  const size_t At = Base + L.position();
  V = 0;
  for (unsigned I = 0; I != 10; ++I) {
    if (L.atEnd()) {
      Torn = true;
      return Error::success();
    }
    auto B = L.readU8();
    if (!B)
      return B.takeError();
    if (I == 9 && *B > 1)
      return Error::failure(format(
          "gmon histogram varint at offset %zu is wider than 64 bits", At));
    V |= static_cast<uint64_t>(*B & 0x7F) << (7 * I);
    if ((*B & 0x80) == 0) {
      if (I != 0 && *B == 0)
        return Error::failure(
            format("gmon histogram varint at offset %zu is overlong", At));
      return Error::success();
    }
  }
  return Error::failure("unreachable: a tenth varint byte always ends it");
}

} // namespace

std::vector<uint8_t> gprof::writeGmonDense(const ProfileData &Data) {
  const bool HasContexts = !Data.Contexts.empty();
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>(Magic), sizeof(Magic));
  W.writeU32(HasContexts ? VersionContexts : VersionDense);
  W.writeU64(Data.TicksPerSecond);
  W.writeU32(Data.RunCount);
  uint8_t Flags = Data.ArcTableOverflowed ? 1 : 0;
  if (HasContexts && Data.ContextTreeOverflowed)
    Flags |= 2;
  W.writeU8(Flags);

  const Histogram &H = Data.Hist;
  W.writeU64(H.lowPc());
  W.writeU64(H.highPc());
  W.writeU64(H.bucketSize());
  W.writeU64(H.numBuckets());
  for (size_t I = 0; I != H.numBuckets(); ++I)
    W.writeU64(H.bucketCount(I));

  W.writeU64(Data.Arcs.size());
  for (const ArcRecord &R : Data.Arcs) {
    W.writeU64(R.FromPc);
    W.writeU64(R.SelfPc);
    W.writeU64(R.Count);
  }

  if (HasContexts) {
    W.writeU32(1); // extension section count
    W.writeU32(SectionTagContexts);
    W.writeU64(8 + Data.Contexts.size() * CctNodeBytes);
    W.writeU64(Data.Contexts.size());
    for (const CctNode &N : Data.Contexts) {
      W.writeU32(N.Parent);
      W.writeU64(N.FromPc);
      W.writeU64(N.SelfPc);
      W.writeU64(N.Calls);
      W.writeU64(N.Ticks);
    }
  }
  return W.takeBytes();
}

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
  if (*Ver != VersionDense && *Ver != VersionContexts &&
      *Ver != VersionSparse)
    return Error::failure(format(
        "unsupported gmon version %u (expected 1, 2 or 3)", *Ver));

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
  if (*NumBuckets > MaxBuckets)
    return Error::failure(
        format("gmon histogram implausibly large (%llu buckets)",
               static_cast<unsigned long long>(*NumBuckets)));
  const bool Sparse = *Ver == VersionSparse;
  if (!Sparse && !Opts.Tolerant && *NumBuckets * 8 > R.remaining())
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
    Data.Hist = Histogram(*LowPc, *HighPc, *BucketSize);
  }

  if (Sparse) {
    if (Opts.Tolerant && R.remaining() < 16) {
      NoteDamage("histogram pair list header truncated");
      return FinishSalvaged(std::move(Data));
    }
    auto NonZero = R.readU64();
    if (!NonZero)
      return NonZero.takeError();
    if (*NonZero > *NumBuckets)
      return Error::failure(
          format("gmon histogram records %llu nonzero buckets of %llu",
                 static_cast<unsigned long long>(*NonZero),
                 static_cast<unsigned long long>(*NumBuckets)));
    auto ListBytes = R.readU64();
    if (!ListBytes)
      return ListBytes.takeError();
    // Each pair is two varints of one to ten bytes.
    if (*ListBytes < *NonZero * 2 || *ListBytes > *NonZero * 20)
      return Error::failure(
          format("gmon histogram pair list of %llu bytes cannot hold %llu "
                 "pairs",
                 static_cast<unsigned long long>(*ListBytes),
                 static_cast<unsigned long long>(*NonZero)));
    const bool ListTorn = *ListBytes > R.remaining();
    if (ListTorn && !Opts.Tolerant)
      return Error::failure("gmon histogram longer than the file");
    auto ListEndError = [&] {
      return Error::failure(
          format("gmon histogram pair list does not end at its %llu bytes",
                 static_cast<unsigned long long>(*ListBytes)));
    };
    // The list, or what is left of it, read through a reader of its own.
    const size_t ListStart = R.position();
    auto List = R.readBytes(ListTorn ? R.remaining() : *ListBytes);
    if (!List)
      return List.takeError();
    BinaryReader L(*List);
    uint64_t Index = 0; // Index of the bucket the next gap counts from.
    bool Torn = false;
    while (S.SalvagedBuckets != *NonZero) {
      uint64_t Gap = 0, Count = 0;
      if (Error E = readVarint(L, ListStart, Gap, Torn))
        return E;
      if (Torn)
        break;
      if (Gap >= *NumBuckets || Index + Gap >= *NumBuckets)
        return Error::failure(
            format("gmon histogram pair %llu names a bucket past %llu",
                   static_cast<unsigned long long>(S.SalvagedBuckets),
                   static_cast<unsigned long long>(*NumBuckets)));
      if (Error E = readVarint(L, ListStart, Count, Torn))
        return E;
      if (Torn)
        break;
      if (Count == 0)
        return Error::failure(
            format("gmon histogram pair %llu has a zero count",
                   static_cast<unsigned long long>(S.SalvagedBuckets)));
      Data.Hist.setBucketCount(static_cast<size_t>(Index + Gap), Count);
      Index += Gap + 1;
      ++S.SalvagedBuckets;
    }
    // Out of list bytes mid-pair is a cut only where the file ends; and
    // once every pair is read, the list must be used up exactly.
    if (Torn ? !ListTorn : L.position() != *ListBytes)
      return ListEndError();
    if (Torn)
      NoteDamage(format("histogram truncated after %llu of %llu recorded "
                        "buckets",
                        static_cast<unsigned long long>(S.SalvagedBuckets),
                        static_cast<unsigned long long>(*NonZero)));
    S.DroppedBuckets = *NonZero - S.SalvagedBuckets;
    if (S.DroppedBuckets != 0)
      return FinishSalvaged(std::move(Data));
  } else if (*NumBuckets != 0) {
    Histogram &H = Data.Hist;
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
