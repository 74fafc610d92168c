//===--- TraceTest.cpp - unit tests for Trace/Operation/Builder/Stats -----===//

#include "trace/TraceBuilder.h"
#include "trace/TraceStats.h"

#include <gtest/gtest.h>

using namespace ft;

TEST(Operation, ToStringMirrorsPaperNotation) {
  EXPECT_EQ(toString(rd(1, 4)), "rd(1,x4)");
  EXPECT_EQ(toString(wr(0, 2)), "wr(0,x2)");
  EXPECT_EQ(toString(acq(1, 0)), "acq(1,m0)");
  EXPECT_EQ(toString(rel(1, 0)), "rel(1,m0)");
  EXPECT_EQ(toString(fork(0, 1)), "fork(0,t1)");
  EXPECT_EQ(toString(join(0, 1)), "join(0,t1)");
  EXPECT_EQ(toString(volRd(2, 3)), "vrd(2,v3)");
  EXPECT_EQ(toString(volWr(2, 3)), "vwr(2,v3)");
  EXPECT_EQ(toString(atomicBegin(1)), "abegin(1)");
}

TEST(Operation, Predicates) {
  EXPECT_TRUE(isAccess(OpKind::Read));
  EXPECT_TRUE(isAccess(OpKind::Write));
  EXPECT_FALSE(isAccess(OpKind::Acquire));
  EXPECT_TRUE(isLockOp(OpKind::Acquire));
  EXPECT_TRUE(isLockOp(OpKind::Release));
  EXPECT_TRUE(isThreadOp(OpKind::Fork));
  EXPECT_TRUE(isThreadOp(OpKind::Join));
  EXPECT_TRUE(isVolatileOp(OpKind::VolatileRead));
  EXPECT_FALSE(isVolatileOp(OpKind::Read));
}

TEST(Trace, TracksEntityCounts) {
  Trace T;
  T.append(fork(0, 2));
  T.append(wr(2, 5));
  T.append(acq(2, 3));
  T.append(volWr(2, 1));
  EXPECT_EQ(T.numThreads(), 3u);
  EXPECT_EQ(T.numVars(), 6u);
  EXPECT_EQ(T.numLocks(), 4u);
  EXPECT_EQ(T.numVolatiles(), 2u);
  EXPECT_EQ(T.size(), 4u);
}

TEST(Trace, EmptyTraceHasMainThread) {
  Trace T;
  EXPECT_EQ(T.numThreads(), 1u);
  EXPECT_TRUE(T.empty());
}

TEST(Trace, BarrierSetsAreDedupedAndSorted) {
  Trace T;
  Operation B1 = T.appendBarrier({2, 0, 1, 1});
  Operation B2 = T.appendBarrier({0, 1, 2});
  EXPECT_EQ(B1.Target, B2.Target);
  EXPECT_EQ(T.numBarrierSets(), 1u);
  std::vector<ThreadId> Expected = {0, 1, 2};
  EXPECT_EQ(T.barrierSet(B1.Target), Expected);
  EXPECT_EQ(B1.Thread, 0u); // lowest member
  EXPECT_EQ(T.numThreads(), 3u);
}

TEST(Trace, DistinctBarrierSetsGetDistinctIndices) {
  Trace T;
  Operation B1 = T.appendBarrier({0, 1});
  Operation B2 = T.appendBarrier({0, 2});
  EXPECT_NE(B1.Target, B2.Target);
  EXPECT_EQ(T.numBarrierSets(), 2u);
}

TEST(Trace, ClearResetsEverything) {
  Trace T;
  T.append(wr(1, 1));
  T.appendBarrier({0, 1});
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.numThreads(), 1u);
  EXPECT_EQ(T.numVars(), 0u);
  EXPECT_EQ(T.numBarrierSets(), 0u);
}

TEST(Trace, AppendRunGrowsGeometrically) {
  // The online capture appends one run per merged batch, and a batch can
  // be a single event. Growth must be geometric, or a capture of n
  // one-event runs reallocates n times and copies O(n^2) operations.
  Trace T;
  constexpr size_t Runs = 100000;
  size_t CapacityChanges = 0;
  size_t LastCapacity = T.capacity();
  for (size_t I = 0; I != Runs; ++I) {
    const Operation Op(I % 2 ? OpKind::Read : OpKind::Write,
                       static_cast<ThreadId>(I % 3),
                       static_cast<uint32_t>(I % 7));
    T.appendRun(&Op, 1);
    if (T.capacity() != LastCapacity) {
      ++CapacityChanges;
      LastCapacity = T.capacity();
    }
  }
  ASSERT_EQ(T.size(), Runs);
  EXPECT_EQ(T[Runs - 1].Target, (Runs - 1) % 7);
  EXPECT_EQ(T.numThreads(), 3u);
  EXPECT_EQ(T.numVars(), 7u);
  // log2(1e5) ~ 17: allow a small constant factor, nowhere near n.
  EXPECT_LE(CapacityChanges, 2 * 17u) << "capacity changed per run";
}

TEST(Trace, AppendRunCountsEntitiesAsAppendDoes) {
  // One run of every non-barrier kind, ids out of order so that each
  // count's maximum comes mid-run, onto a trace whose counts are already
  // raised: the run starts from the trace's counts and ends where per-op
  // append() ends. Atomic markers carry NoTarget and count only their
  // thread.
  const std::vector<Operation> Before = {fork(0, 3), wr(1, 20), acq(2, 5),
                                         volRd(1, 4)};
  const std::vector<Operation> Run = {
      rd(1, 9),   volRd(2, 3),    acq(4, 6),   fork(0, 11), wr(3, 40),
      rel(4, 2),  atomicBegin(15), volWr(7, 8), join(0, 12), rd(2, 17),
      atomicEnd(5), acq(1, 30),   fork(13, 2), wr(6, 1),    volWr(1, 6),
      join(9, 10)};
  Trace PerOp, InRun;
  for (const Operation &Op : Before) {
    PerOp.append(Op);
    InRun.append(Op);
  }
  for (const Operation &Op : Run)
    PerOp.append(Op);
  InRun.appendRun(Run.data(), Run.size());

  EXPECT_EQ(InRun.operations(), PerOp.operations());
  EXPECT_EQ(InRun.numThreads(), PerOp.numThreads());
  EXPECT_EQ(InRun.numVars(), PerOp.numVars());
  EXPECT_EQ(InRun.numLocks(), PerOp.numLocks());
  EXPECT_EQ(InRun.numVolatiles(), PerOp.numVolatiles());
  // And the counts themselves, so the two paths cannot agree on a wrong
  // answer.
  EXPECT_EQ(InRun.numThreads(), 16u);
  EXPECT_EQ(InRun.numVars(), 41u);
  EXPECT_EQ(InRun.numLocks(), 31u);
  EXPECT_EQ(InRun.numVolatiles(), 9u);
}

TEST(TraceBuilder, BuildsThePaperSection22Trace) {
  // wr(0,x) rel(0,m) acq(1,m) wr(1,x) — the worked example of Section 2.2.
  Trace T = TraceBuilder().wr(0, 0).rel(0, 0).acq(1, 0).wr(1, 0).take();
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0], wr(0, 0));
  EXPECT_EQ(T[1], rel(0, 0));
  EXPECT_EQ(T[2], acq(1, 0));
  EXPECT_EQ(T[3], wr(1, 0));
}

TEST(TraceBuilder, LockedAccessHelpers) {
  Trace T = TraceBuilder().lockedWr(1, 7, 3).take();
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0], acq(1, 7));
  EXPECT_EQ(T[1], wr(1, 3));
  EXPECT_EQ(T[2], rel(1, 7));
}

TEST(TraceStats, CountsEveryKind) {
  TraceBuilder B;
  B.fork(0, 1).rd(0, 0).rd(1, 0).wr(0, 1).acq(1, 0).rel(1, 0);
  B.volRd(0, 0).volWr(0, 0).barrier({0, 1}).atomicBegin(0).atomicEnd(0);
  B.join(0, 1);
  Trace T = B.take();
  TraceStats Stats = computeStats(T);
  EXPECT_EQ(Stats.Reads, 2u);
  EXPECT_EQ(Stats.Writes, 1u);
  EXPECT_EQ(Stats.Acquires, 1u);
  EXPECT_EQ(Stats.Releases, 1u);
  EXPECT_EQ(Stats.Forks, 1u);
  EXPECT_EQ(Stats.Joins, 1u);
  EXPECT_EQ(Stats.VolatileReads, 1u);
  EXPECT_EQ(Stats.VolatileWrites, 1u);
  EXPECT_EQ(Stats.Barriers, 1u);
  EXPECT_EQ(Stats.AtomicMarkers, 2u);
  EXPECT_EQ(Stats.total(), T.size());
}

TEST(TraceStats, PercentagesSumSensibly) {
  TraceBuilder B;
  for (int I = 0; I != 823; ++I)
    B.rd(0, 0);
  for (int I = 0; I != 145; ++I)
    B.wr(0, 0);
  for (int I = 0; I != 16; ++I)
    B.acq(0, 0).rel(0, 0);
  Trace T = B.take();
  TraceStats Stats = computeStats(T);
  EXPECT_NEAR(Stats.readPercent(), 82.3, 0.1);
  EXPECT_NEAR(Stats.writePercent(), 14.5, 0.1);
  EXPECT_NEAR(Stats.syncPercent(), 3.2, 0.1);
  EXPECT_FALSE(Stats.summary().empty());
}
