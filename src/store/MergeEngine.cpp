//===- store/MergeEngine.cpp ----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "store/MergeEngine.h"

#include "support/Format.h"
#include "support/Telemetry.h"

#include <cassert>
#include <queue>

using namespace gprof;

void gprof::canonicalizeProfile(ProfileData &Data) { Data.canonicalizeArcs(); }

bool gprof::isCanonicalProfile(const ProfileData &Data) {
  for (size_t I = 1; I < Data.Arcs.size(); ++I) {
    const ArcRecord &P = Data.Arcs[I - 1], &C = Data.Arcs[I];
    if (P.FromPc > C.FromPc ||
        (P.FromPc == C.FromPc && P.SelfPc >= C.SelfPc))
      return false;
  }
  return true;
}

Error gprof::checkMergeCompatible(const ProfileData &A, const ProfileData &B,
                                  const std::string &NameA,
                                  const std::string &NameB) {
  if (A.TicksPerSecond != B.TicksPerSecond)
    return Error::failure(format(
        "cannot sum '%s' with '%s': sampling rates differ "
        "(%llu vs %llu ticks/sec)",
        NameB.c_str(), NameA.c_str(),
        static_cast<unsigned long long>(B.TicksPerSecond),
        static_cast<unsigned long long>(A.TicksPerSecond)));
  // An empty histogram (a run that recorded arcs but exited before the
  // first sample tick) is compatible with anything; merging adopts the
  // non-empty side's geometry.
  if (A.Hist.empty() || B.Hist.empty())
    return Error::success();
  if (A.Hist.lowPc() != B.Hist.lowPc() ||
      A.Hist.highPc() != B.Hist.highPc() ||
      A.Hist.bucketSize() != B.Hist.bucketSize())
    return Error::failure(format(
        "cannot sum '%s' with '%s': histogram ranges differ "
        "([%llu,%llu)/%llu vs [%llu,%llu)/%llu)",
        NameB.c_str(), NameA.c_str(),
        static_cast<unsigned long long>(B.Hist.lowPc()),
        static_cast<unsigned long long>(B.Hist.highPc()),
        static_cast<unsigned long long>(B.Hist.bucketSize()),
        static_cast<unsigned long long>(A.Hist.lowPc()),
        static_cast<unsigned long long>(A.Hist.highPc()),
        static_cast<unsigned long long>(A.Hist.bucketSize())));
  return Error::success();
}

namespace {

/// Heap cursor into one shard's canonical arc table.
struct ArcCursor {
  Address FromPc;
  Address SelfPc;
  size_t Shard;
  size_t Pos;
};

struct CursorGreater {
  bool operator()(const ArcCursor &A, const ArcCursor &B) const {
    if (A.FromPc != B.FromPc)
      return A.FromPc > B.FromPc;
    if (A.SelfPc != B.SelfPc)
      return A.SelfPc > B.SelfPc;
    // Tie-break on shard index so heap order is fully determined.
    return A.Shard > B.Shard;
  }
};

/// Merges canonical, mutually compatible shards in one k-way pass.
ProfileData kWayMerge(const std::vector<ProfileData> &Shards) {
  assert(!Shards.empty() && "k-way merge of nothing");
  telemetry::Span MergeSpan("store.merge.kway");
  ProfileData Out;
  Out.TicksPerSecond = Shards.front().TicksPerSecond;
  Out.RunCount = 0;
  Out.ArcTableOverflowed = false;

  size_t TotalArcs = 0;
  for (const ProfileData &S : Shards) {
    assert(isCanonicalProfile(S) && "k-way merge needs canonical shards");
    Out.RunCount += S.RunCount;
    Out.ArcTableOverflowed = Out.ArcTableOverflowed || S.ArcTableOverflowed;
    TotalArcs += S.Arcs.size();
    // Geometry was checked before the pass, so the sum cannot fail.
    cantFail(Out.Hist.merge(S.Hist));
  }

  std::priority_queue<ArcCursor, std::vector<ArcCursor>, CursorGreater> Heap;
  for (size_t S = 0; S != Shards.size(); ++S)
    if (!Shards[S].Arcs.empty()) {
      const ArcRecord &R = Shards[S].Arcs.front();
      Heap.push({R.FromPc, R.SelfPc, S, 0});
    }

  Out.Arcs.reserve(TotalArcs);
  uint64_t HeapPops = 0;
  uint64_t ArcSaturations = 0;
  while (!Heap.empty()) {
    ArcCursor Top = Heap.top();
    Heap.pop();
    ++HeapPops;
    const ArcRecord &R = Shards[Top.Shard].Arcs[Top.Pos];
    if (!Out.Arcs.empty() && Out.Arcs.back().FromPc == R.FromPc &&
        Out.Arcs.back().SelfPc == R.SelfPc) {
      if (R.Count > UINT64_MAX - Out.Arcs.back().Count)
        ++ArcSaturations;
      Out.Arcs.back().Count = saturatingAdd(Out.Arcs.back().Count, R.Count);
    } else {
      Out.Arcs.push_back(R);
    }
    if (Top.Pos + 1 != Shards[Top.Shard].Arcs.size()) {
      const ArcRecord &Next = Shards[Top.Shard].Arcs[Top.Pos + 1];
      Heap.push({Next.FromPc, Next.SelfPc, Top.Shard, Top.Pos + 1});
    }
  }
  // Gauges, not counters: a compacted run stands in for its members, so
  // how many pops and saturations a report takes depends on when
  // compaction last ran, not on the profile data alone.
  telemetry::gauge("store.merge.heap_pops").add(HeapPops);
  if (ArcSaturations != 0)
    telemetry::gauge("store.merge.arc_saturations").add(ArcSaturations);
  return Out;
}

} // namespace

Expected<ProfileData>
gprof::mergeProfiles(const std::vector<ProfileData> &Shards) {
  if (Shards.empty())
    return Error::failure("no profiles to merge");
  telemetry::Span Phase("store.merge");
  {
    uint64_t InputArcs = 0;
    for (const ProfileData &S : Shards)
      InputArcs += S.Arcs.size();
    telemetry::counter("store.merge.shards").add(Shards.size());
    telemetry::counter("store.merge.input_arcs").add(InputArcs);
  }
  // Validate geometry against the first shard that actually has a
  // histogram; empty-histogram shards are compatible with anything, so
  // blindly comparing to shard 0 would let two incompatible sampled
  // shards slip past an unsampled shard 0.
  size_t Ref = 0;
  while (Ref != Shards.size() && Shards[Ref].Hist.empty())
    ++Ref;
  if (Ref == Shards.size())
    Ref = 0;
  for (size_t I = 0; I != Shards.size(); ++I)
    if (I != Ref)
      if (Error E = checkMergeCompatible(Shards[Ref], Shards[I],
                                         format("shard %zu", Ref),
                                         format("shard %zu", I)))
        return E;
  return kWayMerge(Shards);
}
