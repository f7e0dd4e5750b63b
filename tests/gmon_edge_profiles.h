//===- tests/gmon_edge_profiles.h - Edge histograms for the v3 corpora ----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiles whose histograms sit on the edges of the version-3 sparse
/// encoding: no nonzero bucket, every bucket nonzero, only the first or
/// only the last bucket, and counts at the varint width boundaries (127 /
/// 128 take one / two bytes, 2^63 and UINT64_MAX take ten).  Gaps of 127,
/// 128 and 299 cross the same boundaries.  The truncation, mutation and
/// salvage corpora in readpath_test, fault_test and gmon_test run over
/// each of them.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_GMON_EDGE_PROFILES_H
#define GPROF_TESTS_GMON_EDGE_PROFILES_H

#include "gmon/ProfileData.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gprof {

/// (name, profile) pairs; every histogram spans 300 buckets of size 1.
inline std::vector<std::pair<std::string, ProfileData>> gmonEdgeProfiles() {
  constexpr uint64_t Buckets = 300;
  auto Make = [](const std::vector<std::pair<size_t, uint64_t>> &Counts) {
    ProfileData D;
    D.TicksPerSecond = 60;
    D.RunCount = 2;
    D.Hist = Histogram(0x1000, 0x1000 + Buckets, 1);
    for (const auto &[Bucket, Count] : Counts)
      D.Hist.setBucketCount(Bucket, Count);
    D.addArc(0x1010, 0x1100, 3);
    D.addArc(0x1020, 0x1110, 1);
    return D;
  };
  std::vector<std::pair<size_t, uint64_t>> Every;
  for (size_t B = 0; B != Buckets; ++B)
    Every.push_back({B, B + 1});
  ProfileData NoHistogram;
  NoHistogram.TicksPerSecond = 60;
  NoHistogram.addArc(0x1010, 0x1100, 3);
  return {
      {"all zero", Make({})},
      {"all nonzero", Make(Every)},
      {"only bucket 0", Make({{0, 1}})},
      {"only the last bucket", Make({{Buckets - 1, 1}})},
      {"varint width edges",
       Make({{127, 127}, {256, 128}, {270, 1ULL << 63}, {299, UINT64_MAX}})},
      {"no histogram", NoHistogram},
  };
}

} // namespace gprof

#endif // GPROF_TESTS_GMON_EDGE_PROFILES_H
