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
constexpr uint32_t Version = 1;
/// Version 2 appends tagged extension sections after the arc table; it is
/// written only when there is a context tree to carry, so profiles without
/// one stay byte-identical to version 1 (content addresses and goldens
/// unchanged).
constexpr uint32_t VersionContexts = 2;

/// Extension-section tag of the calling-context tree ("CCTR" as a
/// little-endian u32).  Readers skip sections with tags they do not know.
constexpr uint32_t SectionTagContexts = 0x52544343;

/// Serialized size of one context-tree node:
/// parent u32 + frompc u64 + selfpc u64 + calls u64 + ticks u64.
constexpr uint64_t CctNodeBytes = 36;

/// Cap on nbuckets/narcs accepted from a file, guarding allocation against
/// corrupted length fields (a 1 GiB histogram is already implausible).
constexpr uint64_t MaxRecords = (1ULL << 30) / 8;

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

} // namespace

std::vector<uint8_t> gprof::writeGmon(const ProfileData &Data) {
  const bool HasContexts = !Data.Contexts.empty();
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>(Magic), sizeof(Magic));
  W.writeU32(HasContexts ? VersionContexts : Version);
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
  if (Ver != Version && Ver != VersionContexts)
    return Error::failure(
        format("unsupported gmon version %u (expected %u)", Ver, Version));

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
  if (NumBuckets > MaxRecords)
    return Error::failure(
        format("gmon histogram implausibly large (%llu buckets)",
               static_cast<unsigned long long>(NumBuckets)));
  // Validate the length against the bytes actually present before
  // allocating, so corrupted counts fail cleanly instead of exhausting
  // memory.  Tolerant mode treats the shortfall as a torn tail instead
  // and keeps the buckets that made it to disk.
  if (!Opts.Tolerant && NumBuckets * 8 > R.remaining())
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
    Histogram H(LowPc, HighPc, BucketSize);
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
    Data.Hist = std::move(H);
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
