//===--- SupportTest.cpp - unit tests for src/support ---------------------===//

#include "support/Format.h"
#include "support/MemoryTracker.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <set>

using namespace ft;

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DiffersAcrossSeeds) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64Hash, IsBijectiveOnSamples) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 10000; ++I)
    Seen.insert(splitMix64(I));
  EXPECT_EQ(Seen.size(), 10000u);
}

TEST(Xoshiro, IsDeterministic) {
  Xoshiro256StarStar A(7), B(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Xoshiro, NextBelowStaysInRange) {
  Xoshiro256StarStar Rng(123);
  for (int I = 0; I != 10000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(Xoshiro, NextBelowCoversRange) {
  Xoshiro256StarStar Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(Rng.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Xoshiro, NextInRangeInclusive) {
  Xoshiro256StarStar Rng(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 5000; ++I) {
    int64_t V = Rng.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Xoshiro, NextBoolExtremes) {
  Xoshiro256StarStar Rng(5);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(Rng.nextBool(0.0));
    EXPECT_TRUE(Rng.nextBool(1.0));
  }
}

TEST(Xoshiro, NextBoolRoughlyFair) {
  Xoshiro256StarStar Rng(11);
  int Heads = 0;
  for (int I = 0; I != 10000; ++I)
    Heads += Rng.nextBool(0.5);
  EXPECT_GT(Heads, 4500);
  EXPECT_LT(Heads, 5500);
}

TEST(Xoshiro, NextDoubleUnitInterval) {
  Xoshiro256StarStar Rng(3);
  for (int I = 0; I != 10000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(PickWeighted, RespectsZeroWeights) {
  Xoshiro256StarStar Rng(21);
  double Weights[] = {0.0, 1.0, 0.0};
  for (int I = 0; I != 200; ++I)
    EXPECT_EQ(pickWeighted(Rng, Weights, 3), 1u);
}

TEST(PickWeighted, ApproximatesDistribution) {
  Xoshiro256StarStar Rng(22);
  double Weights[] = {82.3, 14.5, 3.2};
  int Counts[3] = {0, 0, 0};
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    ++Counts[pickWeighted(Rng, Weights, 3)];
  EXPECT_NEAR(Counts[0] / double(N), 0.823, 0.01);
  EXPECT_NEAR(Counts[1] / double(N), 0.145, 0.01);
  EXPECT_NEAR(Counts[2] / double(N), 0.032, 0.01);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(1234567), "1,234,567");
  EXPECT_EQ(withCommas(796816918), "796,816,918");
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(2.345, 1), "2.3");
  EXPECT_EQ(fixed(2.345, 2), "2.35"); // rounds
  EXPECT_EQ(fixed(10.0, 0), "10");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(humanBytes(512), "512 B");
  EXPECT_EQ(humanBytes(2048), "2.0 KB");
  EXPECT_EQ(humanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(Format, Slowdown) { EXPECT_EQ(slowdown(8.53), "8.5x"); }

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(MemoryTracker, TracksPeakAndLive) {
  MemoryTracker Tracker;
  Tracker.allocate(100);
  Tracker.allocate(50);
  EXPECT_EQ(Tracker.liveBytes(), 150u);
  EXPECT_EQ(Tracker.peakBytes(), 150u);
  Tracker.release(100);
  EXPECT_EQ(Tracker.liveBytes(), 50u);
  EXPECT_EQ(Tracker.peakBytes(), 150u);
  Tracker.allocate(10);
  EXPECT_EQ(Tracker.peakBytes(), 150u);
  EXPECT_EQ(Tracker.totalBytes(), 160u);
  Tracker.reset();
  EXPECT_EQ(Tracker.liveBytes(), 0u);
}

TEST(MemoryTracker, ReleaseClampsAtZero) {
  MemoryTracker Tracker;
  Tracker.allocate(10);
  Tracker.release(100);
  EXPECT_EQ(Tracker.liveBytes(), 0u);
}

TEST(MemoryTracker, SampleLiveReplacesReadingAndUpdatesPeak) {
  MemoryTracker Tracker;
  Tracker.sampleLive(500);
  EXPECT_EQ(Tracker.liveBytes(), 500u);
  EXPECT_EQ(Tracker.peakBytes(), 500u);
  // A lower sample replaces live (state shrank) but peak is sticky.
  Tracker.sampleLive(200);
  EXPECT_EQ(Tracker.liveBytes(), 200u);
  EXPECT_EQ(Tracker.peakBytes(), 500u);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch Watch;
  EXPECT_GE(Watch.seconds(), 0.0);
  Watch.restart();
  EXPECT_GE(Watch.nanoseconds(), 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table T;
  T.addHeader({"Program", "Slowdown"});
  T.addRow({"colt", "0.9x"});
  T.addRow({"montecarlo", "6.4x"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("Program"), std::string::npos);
  EXPECT_NE(Out.find("montecarlo"), std::string::npos);
  // Numeric column is right-aligned: "0.9x" gets padded to width of header.
  EXPECT_NE(Out.find("    0.9x"), std::string::npos);
}

TEST(Table, SeparatorSpansWidth) {
  Table T;
  T.addHeader({"A", "B"});
  T.addSeparator();
  T.addRow({"x", "y"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("----"), std::string::npos);
}
