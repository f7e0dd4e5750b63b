//===- store/MergeEngine.h - Deterministic k-way profile merging ---------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregation engine behind the profile store: merges any number of
/// gmon shards in one k-way pass.  The paper's multi-run summing ("the
/// profile data for several executions ... can be combined") was a linear
/// fold over a handful of files (ProfileData::merge).  Here every shard's
/// arc table is first put in canonical (FromPc, SelfPc) order, so M shards
/// merge in O(total·log M) with a heap and the result comes out canonical
/// with no arc index and no final sort.
///
/// Determinism is a hard requirement: the merged bytes must be identical
/// for any shard order and any grouping of the shards into partial merges
/// (compacted runs), so cached aggregates keyed by the shard-digest set
/// stay valid no matter how they were produced.  That holds because every
/// combining operation is exact integer arithmetic (saturating bucket and
/// arc-count adds, run-count adds, flag OR — all commutative and
/// associative: a saturating sum is min(true sum, max) for any grouping)
/// and the output arc table is emitted in canonical order.  No
/// floating-point reduction ever runs here.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_STORE_MERGEENGINE_H
#define GPROF_STORE_MERGEENGINE_H

#include "gmon/ProfileData.h"
#include "support/Error.h"

#include <vector>

namespace gprof {

/// Puts \p Data in canonical form: arcs sorted by (FromPc, SelfPc) with
/// duplicate keys coalesced.  Canonical form is what the store serializes,
/// digests, and feeds to the k-way merge.
void canonicalizeProfile(ProfileData &Data);

/// True if \p Data's arc table is in canonical form.
bool isCanonicalProfile(const ProfileData &Data);

/// Checks that \p A and \p B may be summed (same sampling rate, same
/// histogram geometry; an empty histogram is compatible with any geometry).
/// \p NameA / \p NameB label the two sides in the error message (file
/// paths, digests, ...).
Error checkMergeCompatible(const ProfileData &A, const ProfileData &B,
                           const std::string &NameA, const std::string &NameB);

/// Merges \p Shards — all canonical — into one canonical profile in a
/// single k-way pass on the calling thread.  Fails without merging when
/// \p Shards is empty or two of them are not compatible.
Expected<ProfileData> mergeProfiles(const std::vector<ProfileData> &Shards);

} // namespace gprof

#endif // GPROF_STORE_MERGEENGINE_H
