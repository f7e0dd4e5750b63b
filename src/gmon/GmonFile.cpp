//===- gmon/GmonFile.cpp --------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"

#include "support/BinaryStream.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/Telemetry.h"

#include <cstring>

using namespace gprof;

namespace {

constexpr char Magic[4] = {'G', 'M', 'O', 'N'};
/// Versions 1 and 2 store every histogram bucket as a u64; version 2 adds
/// the extension sections after the arc table.  Both are still read.
constexpr uint32_t VersionDense = 1;
constexpr uint32_t VersionContexts = 2;
/// Version 3, the only one written: the histogram is a list of (gap,
/// count) varint pairs over its nonzero buckets, and the extension
/// section list is always present.
constexpr uint32_t VersionSparse = 3;

/// Extension-section tag of the calling-context tree ("CCTR" as a
/// little-endian u32).  Readers skip sections with tags they do not know.
constexpr uint32_t SectionTagContexts = 0x52544343;

/// Serialized size of one context-tree node:
/// parent u32 + frompc u64 + selfpc u64 + calls u64 + ticks u64.
constexpr uint64_t CctNodeBytes = 36;

/// Cap on narcs and context nodes accepted from a file, guarding
/// allocation against corrupted length fields.
constexpr uint64_t MaxRecords = (1ULL << 30) / 8;

/// Cap on nbuckets, in every version and mode.  The reader allocates the
/// whole dense histogram before it decodes the counts, and a version-3
/// file stores only the nonzero buckets, so a file of a few dozen bytes
/// may declare any nbuckets: this cap, not the file's size, bounds what a
/// read allocates for it, at 64 MiB (8M buckets, one per instruction of
/// an 8M-instruction text at bucket size 1).
constexpr uint64_t MaxBuckets = (64ULL << 20) / 8;

/// Bytes one (gap, count) varint pair takes: one to ten per varint.
constexpr uint64_t MinPairBytes = 2;
constexpr uint64_t MaxPairBytes = 20;

/// Cap on extension sections per file (one is defined today).
constexpr uint32_t MaxSections = 64;

/// Assembles a little-endian u64 from \p P.  Byte-by-byte assembly is
/// endian-safe and alignment-safe; on little-endian hosts compilers fold
/// it to a single 8-byte load, which is what makes the in-place bulk
/// decode loops below cheap.
inline uint64_t loadU64LE(const uint8_t *P) {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

inline uint32_t loadU32LE(const uint8_t *P) {
  uint32_t V = 0;
  for (unsigned I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

/// Bounds-checked view over borrowed bytes for the in-place parser.  The
/// failure message is byte-identical to BinaryReader::checkAvailable so
/// the zero-copy reader and the reference reader (tests/reference_gmon.h)
/// report the same errors — pinned by the differential corpus test.
struct ByteCursor {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;

  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }
  Error need(size_t N) const {
    if (Size - Pos < N)
      return Error::failure(format(
          "truncated input: need %zu bytes at offset %zu, have %zu", N, Pos,
          Size - Pos));
    return Error::success();
  }
  // Unchecked readers: the caller establishes availability with need().
  uint8_t u8() { return Data[Pos++]; }
  uint32_t u32() {
    uint32_t V = loadU32LE(Data + Pos);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    uint64_t V = loadU64LE(Data + Pos);
    Pos += 8;
    return V;
  }
};

/// What decoding one LEB128 varint found.
enum class VarintStatus { Ok, Torn, Overlong, TooWide };

/// Decodes one unsigned LEB128 varint: 7 bits per byte, low group first,
/// bit 7 set on every byte but the last.  Only the canonical encoding is
/// accepted: no trailing zero group (Overlong) and nothing past bit 63,
/// so the tenth byte may only be 0 or 1 (TooWide).  The shift never
/// exceeds 63.
VarintStatus decodeVarint(ByteCursor &R, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    if (R.atEnd())
      return VarintStatus::Torn;
    uint8_t B = R.u8();
    if (Shift == 63 && B > 1)
      return VarintStatus::TooWide;
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if ((B & 0x80) == 0)
      return B == 0 && Shift != 0 ? VarintStatus::Overlong : VarintStatus::Ok;
  }
}

void writeVarint(BinaryWriter &W, uint64_t V) {
  while (V >= 0x80) {
    W.writeU8(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  W.writeU8(static_cast<uint8_t>(V));
}

} // namespace

std::vector<uint8_t> gprof::writeGmon(const ProfileData &Data) {
  const bool HasContexts = !Data.Contexts.empty();
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>(Magic), sizeof(Magic));
  W.writeU32(VersionSparse);
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
  // One (gap, count) pair per nonzero bucket in ascending order; the gap
  // is the number of zero buckets skipped since the previous pair.  The
  // pair count and the list's byte length go before the list.
  BinaryWriter Pairs;
  uint64_t NonZero = 0;
  uint64_t Next = 0;
  for (size_t I = 0; I != H.numBuckets(); ++I) {
    uint64_t C = H.bucketCount(I);
    if (C == 0)
      continue;
    writeVarint(Pairs, I - Next);
    writeVarint(Pairs, C);
    Next = I + 1;
    ++NonZero;
  }
  W.writeU64(NonZero);
  W.writeU64(Pairs.size());
  W.writeBytes(Pairs.bytes().data(), Pairs.size());

  W.writeU64(Data.Arcs.size());
  for (const ArcRecord &R : Data.Arcs) {
    W.writeU64(R.FromPc);
    W.writeU64(R.SelfPc);
    W.writeU64(R.Count);
  }

  W.writeU32(HasContexts ? 1 : 0); // extension section count
  if (HasContexts) {
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

Expected<ProfileData> gprof::readGmon(const std::vector<uint8_t> &Bytes) {
  return readGmon(Bytes.data(), Bytes.size(), GmonReadOptions{}, nullptr);
}

Expected<ProfileData> gprof::readGmon(const std::vector<uint8_t> &Bytes,
                                      const GmonReadOptions &Opts,
                                      GmonSalvage *Salvage) {
  return readGmon(Bytes.data(), Bytes.size(), Opts, Salvage);
}

Expected<ProfileData> gprof::readGmon(const uint8_t *Bytes, size_t Size,
                                      const GmonReadOptions &Opts,
                                      GmonSalvage *Salvage) {
  GmonSalvage LocalSalvage;
  GmonSalvage &S = Salvage ? *Salvage : LocalSalvage;
  S = GmonSalvage{};
  ByteCursor R{Bytes, Size};

  // Publishes the salvage tallies once the tolerant path kept a damaged
  // file.  Counters, not gauges: the tallies derive from the bytes alone.
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

  if (Error E = R.need(sizeof(Magic)))
    return E;
  if (std::memcmp(R.Data + R.Pos, Magic, sizeof(Magic)) != 0)
    return Error::failure("not a gmon file: bad magic");
  R.Pos += sizeof(Magic);

  if (Error E = R.need(4))
    return E;
  uint32_t Ver = R.u32();
  if (Ver < VersionDense || Ver > VersionSparse)
    return Error::failure(format(
        "unsupported gmon version %u (expected 1, 2 or 3)", Ver));

  ProfileData Data;
  if (Error E = R.need(8))
    return E;
  uint64_t Hz = R.u64();
  if (Hz == 0)
    return Error::failure("gmon file has zero sampling rate");
  Data.TicksPerSecond = Hz;

  if (Error E = R.need(4))
    return E;
  uint32_t Runs = R.u32();
  if (Runs == 0)
    return Error::failure("gmon file records zero runs");
  Data.RunCount = Runs;

  if (Error E = R.need(1))
    return E;
  uint8_t Flags = R.u8();
  Data.ArcTableOverflowed = (Flags & 1) != 0;
  if (Ver >= VersionContexts)
    Data.ContextTreeOverflowed = (Flags & 2) != 0;

  // The histogram geometry words are checked one at a time so a cut
  // inside the header reports the same offset the reference reader does.
  if (Error E = R.need(8))
    return E;
  uint64_t LowPc = R.u64();
  if (Error E = R.need(8))
    return E;
  uint64_t HighPc = R.u64();
  if (Error E = R.need(8))
    return E;
  uint64_t BucketSize = R.u64();
  if (Error E = R.need(8))
    return E;
  uint64_t NumBuckets = R.u64();
  if (NumBuckets > MaxBuckets)
    return Error::failure(
        format("gmon histogram implausibly large (%llu buckets)",
               static_cast<unsigned long long>(NumBuckets)));
  // A dense histogram's length is checked against the bytes present
  // before allocating, so a corrupted count fails cleanly.  Tolerant mode
  // treats the shortfall as a torn tail instead and keeps the buckets
  // that made it to disk.  A sparse histogram's pair list is checked
  // against its own byte length below.
  if (Ver < VersionSparse && !Opts.Tolerant && NumBuckets * 8 > R.remaining())
    return Error::failure("gmon histogram longer than the file");

  if (NumBuckets != 0) {
    if (HighPc <= LowPc || BucketSize == 0)
      return Error::failure("gmon histogram has an invalid address range");
    // Check the range-implied bucket count arithmetically (overflow-free)
    // before constructing — a corrupt HighPc must not drive a huge
    // allocation.
    uint64_t Span = HighPc - LowPc;
    uint64_t Implied = Span / BucketSize + (Span % BucketSize != 0);
    if (Implied != NumBuckets)
      return Error::failure(
          format("gmon histogram bucket count mismatch: header says %llu, "
                 "range implies %llu",
                 static_cast<unsigned long long>(NumBuckets),
                 static_cast<unsigned long long>(Implied)));
    Data.Hist = Histogram(LowPc, HighPc, BucketSize);
  }
  Histogram &H = Data.Hist;

  if (Ver >= VersionSparse) {
    // Sparse counts: nnonzero, the pair list's byte length, then one
    // (gap, count) varint pair per nonzero bucket.  Only the canonical
    // encoding is accepted, and the pairs must end exactly at the list's
    // length, in both modes.  Only a list that runs past the end of the
    // file counts as torn; tolerant mode keeps its whole pairs.
    if (Opts.Tolerant && R.remaining() < 16) {
      NoteDamage("histogram pair list header truncated");
      return FinishSalvaged(std::move(Data));
    }
    if (Error E = R.need(8))
      return E;
    uint64_t NonZero = R.u64();
    if (NonZero > NumBuckets)
      return Error::failure(
          format("gmon histogram records %llu nonzero buckets of %llu",
                 static_cast<unsigned long long>(NonZero),
                 static_cast<unsigned long long>(NumBuckets)));
    if (Error E = R.need(8))
      return E;
    uint64_t ListBytes = R.u64();
    if (ListBytes < NonZero * MinPairBytes ||
        ListBytes > NonZero * MaxPairBytes)
      return Error::failure(
          format("gmon histogram pair list of %llu bytes cannot hold %llu "
                 "pairs",
                 static_cast<unsigned long long>(ListBytes),
                 static_cast<unsigned long long>(NonZero)));
    const bool ListTorn = ListBytes > R.remaining();
    if (ListTorn && !Opts.Tolerant)
      return Error::failure("gmon histogram longer than the file");
    // The list, or what is left of it, at its offsets in the file.
    ByteCursor L{R.Data, ListTorn ? R.Size : R.Pos + ListBytes, R.Pos};
    auto ListEndError = [&] {
      return Error::failure(
          format("gmon histogram pair list does not end at its %llu bytes",
                 static_cast<unsigned long long>(ListBytes)));
    };
    // Decodes one varint from the list.  Running out of the list's bytes
    // sets Torn at a cut and is an error anywhere else.
    bool Torn = false;
    auto ReadVarint = [&](uint64_t &V) -> Error {
      size_t At = L.Pos;
      switch (decodeVarint(L, V)) {
      case VarintStatus::Ok:
        break;
      case VarintStatus::Torn:
        if (!ListTorn)
          return ListEndError();
        Torn = true;
        break;
      case VarintStatus::Overlong:
        return Error::failure(
            format("gmon histogram varint at offset %zu is overlong", At));
      case VarintStatus::TooWide:
        return Error::failure(format(
            "gmon histogram varint at offset %zu is wider than 64 bits", At));
      }
      return Error::success();
    };
    uint64_t Next = 0; // Lowest bucket index the next pair may name.
    uint64_t Whole = 0;
    for (; Whole != NonZero; ++Whole) {
      uint64_t Gap = 0, Count = 0;
      if (Error E = ReadVarint(Gap))
        return E;
      if (Torn)
        break;
      if (Gap >= NumBuckets - Next)
        return Error::failure(
            format("gmon histogram pair %llu names a bucket past %llu",
                   static_cast<unsigned long long>(Whole),
                   static_cast<unsigned long long>(NumBuckets)));
      if (Error E = ReadVarint(Count))
        return E;
      if (Torn)
        break;
      if (Count == 0)
        return Error::failure(
            format("gmon histogram pair %llu has a zero count",
                   static_cast<unsigned long long>(Whole)));
      Next += Gap;
      H.setBucketCount(static_cast<size_t>(Next), Count);
      ++Next;
    }
    // Every pair decoded: the list must end exactly here, cut or not.
    if (!Torn && L.Pos - R.Pos != ListBytes)
      return ListEndError();
    if (Torn)
      NoteDamage(format("histogram truncated after %llu of %llu recorded "
                        "buckets",
                        static_cast<unsigned long long>(Whole),
                        static_cast<unsigned long long>(NonZero)));
    S.SalvagedBuckets = Whole;
    S.DroppedBuckets = NonZero - Whole;
    // What is left after a torn pair is that pair, not records.
    if (S.DroppedBuckets != 0)
      return FinishSalvaged(std::move(Data));
    R.Pos = L.Pos;
  } else if (NumBuckets != 0) {
    // Bulk in-place decode: every whole 8-byte bucket still in the span.
    // Strict mode already proved all of them fit; tolerant mode keeps the
    // intact prefix and notes the torn tail.
    size_t Whole = H.numBuckets();
    if (R.remaining() / 8 < Whole) {
      Whole = R.remaining() / 8;
      NoteDamage(format("histogram truncated after %zu of %zu buckets",
                        Whole, H.numBuckets()));
    }
    const uint8_t *P = R.Data + R.Pos;
    for (size_t I = 0; I != Whole; ++I, P += 8)
      H.setBucketCount(I, loadU64LE(P));
    R.Pos += Whole * 8;
    S.SalvagedBuckets = Whole;
    S.DroppedBuckets = H.numBuckets() - Whole;
    // A cut inside the counts leaves no room for an arc table; anything
    // left in the stream is the torn bucket, not records.
    if (S.DroppedBuckets != 0)
      return FinishSalvaged(std::move(Data));
  }

  if (Opts.Tolerant && R.remaining() < 8) {
    NoteDamage("arc table count truncated");
    return FinishSalvaged(std::move(Data));
  }
  if (Error E = R.need(8))
    return E;
  uint64_t NumArcs = R.u64();
  if (NumArcs > MaxRecords)
    return Error::failure(
        format("gmon arc table implausibly large (%llu records)",
               static_cast<unsigned long long>(NumArcs)));
  uint64_t WholeArcs = NumArcs;
  if (NumArcs * 24 > R.remaining()) {
    if (!Opts.Tolerant)
      return Error::failure("gmon arc table longer than the file");
    WholeArcs = R.remaining() / 24;
    NoteDamage(format("arc table truncated after %llu of %llu records",
                      static_cast<unsigned long long>(WholeArcs),
                      static_cast<unsigned long long>(NumArcs)));
  }
  // Bulk in-place decode of the arc table — the hot loop of a store-wide
  // read.  Records are viewed straight out of the mapping: three folded
  // loads per arc, one pre-sized vector, no BinaryStream, no byte copy.
  Data.Arcs.resize(static_cast<size_t>(WholeArcs));
  const uint8_t *P = R.Data + R.Pos;
  for (uint64_t I = 0; I != WholeArcs; ++I, P += 24) {
    ArcRecord &A = Data.Arcs[static_cast<size_t>(I)];
    A.FromPc = loadU64LE(P);
    A.SelfPc = loadU64LE(P + 8);
    A.Count = loadU64LE(P + 16);
  }
  R.Pos += static_cast<size_t>(WholeArcs) * 24;
  S.SalvagedArcs = WholeArcs;
  S.DroppedArcs = NumArcs - WholeArcs;
  // The bytes after the last whole record are the torn record, not
  // trailing junk; skip the trailing check for a truncated table.
  if (S.DroppedArcs != 0)
    return FinishSalvaged(std::move(Data));

  if (Ver >= VersionContexts) {
    if (Opts.Tolerant && R.remaining() < 4) {
      NoteDamage("extension section count truncated");
      return FinishSalvaged(std::move(Data));
    }
    if (Error E = R.need(4))
      return E;
    uint32_t NumSections = R.u32();
    if (NumSections > MaxSections)
      return Error::failure(
          format("gmon extension section count implausibly large (%u)",
                 NumSections));
    bool SeenContexts = false;
    for (uint32_t SI = 0; SI != NumSections; ++SI) {
      if (Opts.Tolerant && R.remaining() < 4) {
        NoteDamage(format("extension section header truncated "
                          "(section %u of %u)",
                          SI, NumSections));
        return FinishSalvaged(std::move(Data));
      }
      if (Error E = R.need(4))
        return E;
      uint32_t Tag = R.u32();
      if (Opts.Tolerant && R.remaining() < 8) {
        NoteDamage(format("extension section header truncated "
                          "(section %u of %u)",
                          SI, NumSections));
        return FinishSalvaged(std::move(Data));
      }
      if (Error E = R.need(8))
        return E;
      uint64_t Len = R.u64();
      const bool Truncated = Len > R.remaining();
      if (Truncated && !Opts.Tolerant)
        return Error::failure("gmon extension section longer than the file");
      if (Tag != SectionTagContexts) {
        // Forward compatibility: a section this reader does not know is
        // skipped whole, so older binaries read newer files cleanly.
        if (Truncated) {
          NoteDamage(format("unknown extension section 0x%08x truncated",
                            Tag));
          return FinishSalvaged(std::move(Data));
        }
        telemetry::counter("gmon.read.skipped_sections").add(1);
        R.Pos += static_cast<size_t>(Len);
        continue;
      }
      if (SeenContexts)
        return Error::failure("duplicate gmon context tree section");
      SeenContexts = true;
      uint64_t Avail = Truncated ? R.remaining() : Len;
      if (Avail < 8) {
        if (!Opts.Tolerant || !Truncated)
          return Error::failure("gmon context tree section too small");
        NoteDamage("context tree node count truncated");
        return FinishSalvaged(std::move(Data));
      }
      uint64_t NumNodes = R.u64();
      if (NumNodes > MaxRecords)
        return Error::failure(
            format("gmon context tree implausibly large (%llu nodes)",
                   static_cast<unsigned long long>(NumNodes)));
      // The section length and the in-payload node count must agree; a
      // mismatch is a lying header, rejected in both modes.
      if (Len != 8 + NumNodes * CctNodeBytes)
        return Error::failure("gmon context tree section length mismatch");
      uint64_t WholeNodes = NumNodes;
      if (Truncated) {
        WholeNodes = (Avail - 8) / CctNodeBytes;
        NoteDamage(format("context tree truncated after %llu of %llu nodes",
                          static_cast<unsigned long long>(WholeNodes),
                          static_cast<unsigned long long>(NumNodes)));
      }
      Data.Contexts.resize(static_cast<size_t>(WholeNodes));
      const uint8_t *CP = R.Data + R.Pos;
      for (uint64_t I = 0; I != WholeNodes; ++I, CP += CctNodeBytes) {
        CctNode &N = Data.Contexts[static_cast<size_t>(I)];
        N.Parent = loadU32LE(CP);
        N.FromPc = loadU64LE(CP + 4);
        N.SelfPc = loadU64LE(CP + 12);
        N.Calls = loadU64LE(CP + 20);
        N.Ticks = loadU64LE(CP + 28);
        // Structural invariant: parents precede children.  A violation is
        // corruption (it would let downstream accumulation loop), not
        // truncation, so both modes reject.
        if (N.Parent != CctRootParent && N.Parent >= I)
          return Error::failure(
              format("gmon context tree node %llu has invalid parent %u",
                     static_cast<unsigned long long>(I), N.Parent));
      }
      R.Pos += static_cast<size_t>(WholeNodes) * CctNodeBytes;
      S.SalvagedContexts = WholeNodes;
      S.DroppedContexts = NumNodes - WholeNodes;
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

Error gprof::writeGmonFile(const std::string &Path, const ProfileData &Data) {
  // Write-then-rename: a crash (or injected fault) mid-write leaves any
  // previous profile at Path byte-identical instead of torn.
  return writeFileBytesAtomic(Path, writeGmon(Data));
}

Expected<ProfileData> gprof::readGmonFile(const std::string &Path) {
  return readGmonFile(Path, GmonReadOptions{}, nullptr);
}

Expected<ProfileData> gprof::readGmonFile(const std::string &Path,
                                          const GmonReadOptions &Opts,
                                          GmonSalvage *Salvage) {
  // Zero-copy read path: map the file and parse records straight out of
  // the mapping — no heap buffer sized to the file, no byte copy.
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  telemetry::counter("gmon.mmap.files").add(1);
  telemetry::counter("gmon.mmap.bytes").add(Map->size());
  auto Data = readGmon(Map->data(), Map->size(), Opts, Salvage);
  if (!Data)
    return Error::failure(Path + ": " + Data.message());
  return Data;
}

Expected<ProfileData>
gprof::readAndSumGmonFiles(const std::vector<std::string> &Paths,
                           const GmonReadOptions &Opts,
                           std::vector<GmonFileSalvage> *Salvages) {
  if (Paths.empty())
    return Error::failure("no gmon files given");
  auto RecordSalvage = [&](const std::string &Path, GmonSalvage &S) {
    if (Salvages && S.Damaged)
      Salvages->push_back({Path, std::move(S)});
  };
  GmonSalvage S;
  auto First = readGmonFile(Paths.front(), Opts, &S);
  if (!First)
    return First.takeError();
  RecordSalvage(Paths.front(), S);
  ProfileData Sum = First.takeValue();
  for (size_t I = 1; I != Paths.size(); ++I) {
    auto Next = readGmonFile(Paths[I], Opts, &S);
    if (!Next)
      return Next.takeError();
    RecordSalvage(Paths[I], S);
    // Name both sides: the accumulated sum carries the geometry of the
    // first file, so a mismatch is between Paths[I] and Paths[0].
    if (Error E = Sum.merge(*Next))
      return Error::failure(format("cannot sum '%s' with '%s': %s",
                                   Paths[I].c_str(), Paths.front().c_str(),
                                   E.message().c_str()));
  }
  return Sum;
}
