//===--- HappensBeforeTest.cpp - exact HB relation and race oracle --------===//

#include "hb/RaceOracle.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"

#include <gtest/gtest.h>

using namespace ft;

TEST(HappensBefore, ProgramOrder) {
  Trace T = TraceBuilder().wr(0, 0).rd(0, 0).take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.happensBefore(0, 1));
}

TEST(HappensBefore, UnorderedThreadsAreConcurrent) {
  Trace T = TraceBuilder().fork(0, 1).fork(0, 2).wr(1, 0).wr(2, 0).take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.concurrent(2, 3));
}

TEST(HappensBefore, LockingEdge) {
  // The Section 2.2 example: wr(0,x) rel(0,m) acq(1,m) wr(1,x), made
  // feasible with the matching acquire/release pairs.
  Trace T = TraceBuilder()
          .fork(0, 1)
          .acq(0, 0)
          .wr(0, 0)
          .rel(0, 0)
          .acq(1, 0)
          .wr(1, 0)
          .rel(1, 0)
          .take();
  ASSERT_TRUE(isFeasible(T));
  HappensBefore Hb(T);
  // wr(0,x) at index 2 happens before wr(1,x) at index 5 via the lock.
  EXPECT_TRUE(Hb.happensBefore(2, 5));
}

TEST(HappensBefore, NoEdgeWithoutCommonLock) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(0, 0)
                .wr(0, 0)
                .rel(0, 0)
                .acq(1, 1) // different lock
                .wr(1, 0)
                .rel(1, 1)
                .take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.concurrent(2, 5));
}

TEST(HappensBefore, ForkEdge) {
  Trace T = TraceBuilder().wr(0, 0).fork(0, 1).rd(1, 0).take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.happensBefore(0, 2));
}

TEST(HappensBefore, JoinEdge) {
  Trace T = TraceBuilder().fork(0, 1).wr(1, 0).join(0, 1).rd(0, 0).take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.happensBefore(1, 3));
}

TEST(HappensBefore, NoBackwardEdgeFromFork) {
  // Parent ops after fork are concurrent with the child.
  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).rd(1, 0).take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.concurrent(1, 2));
}

TEST(HappensBefore, VolatileEdge) {
  // vol_wr(0) then vol_rd(1) orders surrounding accesses.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0)
                .volWr(0, 0)
                .volRd(1, 0)
                .rd(1, 0)
                .take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.happensBefore(1, 4));
}

TEST(HappensBefore, VolatileReadBeforeWriteGivesNoEdge) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .volRd(1, 0) // reads before any write: no edge
                .wr(0, 0)
                .volWr(0, 0)
                .rd(1, 0)
                .take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.concurrent(2, 4));
}

TEST(HappensBefore, BarrierOrdersPhases) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(1, 0)      // 1: pre-barrier write by thread 1
                .barrier({0, 1})
                .rd(0, 0)      // 3: post-barrier read by thread 0
                .take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.happensBefore(1, 3));
}

TEST(HappensBefore, ThreadsStayConcurrentWithinBarrierPhase) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .barrier({0, 1})
                .wr(0, 0)
                .wr(1, 0)
                .take();
  HappensBefore Hb(T);
  EXPECT_TRUE(Hb.concurrent(2, 3));
}

TEST(RaceOracle, RaceFreeLockProtectedTrace) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .lockedWr(0, 0, 0)
                .lockedWr(1, 0, 0)
                .join(0, 1)
                .take();
  EXPECT_TRUE(isRaceFree(T));
}

TEST(RaceOracle, DetectsWriteWriteRace) {
  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).wr(1, 0).take();
  auto Races = findRaces(T);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Var, 0u);
  EXPECT_EQ(Races[0].FirstIndex, 1u);
  EXPECT_EQ(Races[0].SecondIndex, 2u);
  EXPECT_EQ(Races[0].FirstKind, OpKind::Write);
  EXPECT_EQ(Races[0].SecondKind, OpKind::Write);
}

TEST(RaceOracle, DetectsWriteReadAndReadWriteRaces) {
  Trace T1 = TraceBuilder().fork(0, 1).wr(0, 0).rd(1, 0).take();
  auto R1 = findRaces(T1);
  ASSERT_EQ(R1.size(), 1u);
  EXPECT_EQ(R1[0].SecondKind, OpKind::Read);

  Trace T2 = TraceBuilder().fork(0, 1).rd(0, 0).wr(1, 0).take();
  auto R2 = findRaces(T2);
  ASSERT_EQ(R2.size(), 1u);
  EXPECT_EQ(R2[0].FirstKind, OpKind::Read);
  EXPECT_EQ(R2[0].SecondKind, OpKind::Write);
}

TEST(RaceOracle, ReadReadIsNeverARace) {
  Trace T = TraceBuilder().fork(0, 1).rd(0, 0).rd(1, 0).take();
  EXPECT_TRUE(isRaceFree(T));
}

TEST(RaceOracle, ForkJoinHandoffIsRaceFree) {
  Trace T = TraceBuilder()
                .wr(0, 0)
                .fork(0, 1)
                .rd(1, 0)
                .wr(1, 0)
                .join(0, 1)
                .rd(0, 0)
                .take();
  EXPECT_TRUE(isRaceFree(T));
}

TEST(RaceOracle, FirstPerVarLimitsReports) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0)
                .wr(1, 0)
                .wr(0, 0)
                .wr(1, 1)
                .wr(0, 1)
                .take();
  RaceOracleOptions Options;
  Options.FirstPerVar = true;
  auto Races = findRaces(T, Options);
  EXPECT_EQ(Races.size(), 2u); // one per variable

  auto All = findRaces(T);
  EXPECT_GT(All.size(), 2u);
}

TEST(RaceOracle, MaxPairsCap) {
  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).wr(1, 0).wr(0, 0).take();
  RaceOracleOptions Options;
  Options.MaxPairs = 1;
  EXPECT_EQ(findRaces(T, Options).size(), 1u);
}

TEST(RaceOracle, RacyVarsSortedUnique) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 3)
                .wr(1, 3)
                .wr(0, 1)
                .wr(1, 1)
                .take();
  std::vector<VarId> Expected = {1, 3};
  EXPECT_EQ(racyVars(T), Expected);
}

TEST(RaceOracle, ReadSharedThenOrderedWriteIsRaceFree) {
  // The Figure 4 pattern: two concurrent reads, then a write after join.
  Trace T = TraceBuilder()
                .wr(0, 0)
                .fork(0, 1)
                .rd(1, 0)
                .rd(0, 0)
                .join(0, 1)
                .wr(0, 0)
                .rd(0, 0)
                .take();
  EXPECT_TRUE(isRaceFree(T));
}

TEST(RaceOracle, LinearOracleMatchesRacyVarsOnRandomTraces) {
  // Seeded random traces across the discipline spectrum: race-free,
  // lightly and heavily chaotic, with volatiles, barriers and bursts.
  size_t RacyTraces = 0;
  for (uint64_t Seed = 1; Seed != 121; ++Seed) {
    RandomTraceConfig Config;
    Config.Seed = Seed;
    Config.NumThreads = 2 + Seed % 4;
    Config.NumVars = 4 + Seed % 13;
    Config.ChaosProbability = (Seed % 4) * 0.05;
    Config.BarrierProbability = Seed % 3 == 0 ? 0.05 : 0.0;
    Config.MaxAccessBurst = 1 + Seed % 3;
    Trace T = generateRandomTrace(Config);
    std::vector<VarId> Expected = racyVars(T);
    EXPECT_EQ(racyVarsLinear(T), Expected) << "seed " << Seed;
    RacyTraces += !Expected.empty();
  }
  EXPECT_GT(RacyTraces, 30u) << "the sweep must exercise racy traces";
}

TEST(RaceOracle, LinearOracleSeesRacesBehindEarlierReads) {
  // The write races with thread 1's read even though thread 2's later
  // read is ordered before it (through lock 0): every thread's last read
  // is checked, not just the latest one.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .fork(0, 2)
                .rd(1, 0)
                .acq(2, 0)
                .rd(2, 0)
                .rel(2, 0)
                .acq(0, 0)
                .wr(0, 0)
                .take();
  EXPECT_EQ(racyVars(T), std::vector<VarId>{0});
  EXPECT_EQ(racyVarsLinear(T), racyVars(T));
}
