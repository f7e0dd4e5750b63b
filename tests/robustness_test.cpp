//===- tests/robustness_test.cpp - Hostile-input and hardening tests ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deserializers must reject — never crash on — damaged inputs: truncated
/// files, bit flips, and random garbage.  Damaged images, and the VM's
/// traps on malformed code, are covered with the VM's reference
/// interpreter in tests/vm_oracle_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace gprof;

namespace {

std::vector<uint8_t> sampleGmonBytes() {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0x1000, 0x1400, 4);
  D.Hist.recordPc(0x1000);
  D.Hist.recordPc(0x1234);
  for (int I = 0; I != 20; ++I)
    D.addArc(0x1000 + I * 3, 0x1100 + (I % 4) * 16, I + 1);
  return writeGmon(D);
}

} // namespace

//===----------------------------------------------------------------------===//
// Deserializer fuzzing (deterministic seeds)
//===----------------------------------------------------------------------===//

class GmonFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GmonFuzzTest, TruncationsNeverCrash) {
  std::vector<uint8_t> Bytes = sampleGmonBytes();
  SplitMix64 Rng(GetParam());
  for (int Trial = 0; Trial != 50; ++Trial) {
    size_t Cut = static_cast<size_t>(Rng.nextBelow(Bytes.size()));
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto R = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(R)) << "cut at " << Cut;
    (void)R.takeError();
  }
}

TEST_P(GmonFuzzTest, BitFlipsEitherParseOrFailCleanly) {
  std::vector<uint8_t> Bytes = sampleGmonBytes();
  SplitMix64 Rng(GetParam() + 100);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::vector<uint8_t> Mutated = Bytes;
    // Flip 1-4 random bits.
    unsigned Flips = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    for (unsigned F = 0; F != Flips; ++F) {
      size_t Byte = static_cast<size_t>(Rng.nextBelow(Mutated.size()));
      Mutated[Byte] ^= static_cast<uint8_t>(1u << Rng.nextBelow(8));
    }
    auto R = readGmon(Mutated);
    if (R) {
      // A parse that survives must produce internally consistent data.
      EXPECT_LE(R->Hist.numBuckets(), 1u << 27);
    } else {
      (void)R.takeError();
    }
  }
}

TEST_P(GmonFuzzTest, RandomGarbageRejected) {
  SplitMix64 Rng(GetParam() + 500);
  for (int Trial = 0; Trial != 100; ++Trial) {
    std::vector<uint8_t> Garbage(Rng.nextBelow(256));
    for (uint8_t &B : Garbage)
      B = static_cast<uint8_t>(Rng.next());
    auto R = readGmon(Garbage);
    // 4-byte magic + version make an accidental parse implausible.
    EXPECT_FALSE(static_cast<bool>(R));
    (void)R.takeError();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GmonFuzzTest,
                         testing::Range<uint64_t>(0, 4));
