//===--- FastTrackTest.cpp - the FastTrack algorithm, rule by rule --------===//

#include "core/FastTrack.h"
#include "clock/ClockStats.h"
#include "framework/Replay.h"
#include "hb/HappensBefore.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace ft;

namespace {

/// Replays \p T through a fresh FastTrack instance and returns it.
struct FtRun {
  FastTrack Tool;
  ReplayResult Result;

  explicit FtRun(const Trace &T, FastTrackOptions Options = FastTrackOptions())
      : Tool(Options) {
    Result = replay(T, Tool);
  }

  size_t warningCount() const { return Tool.warnings().size(); }
  const FastTrackRuleStats &rules() const { return Tool.ruleStats(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// The worked examples from the paper.
//===----------------------------------------------------------------------===//

TEST(FastTrack, Section22LockHandoffIsRaceFree) {
  // wr(0,x) rel(0,m) acq(1,m) wr(1,x): the Section 2.2/3 example. The
  // second write sees Wx = 4@0 ≼ C1 and no race is reported.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(0, 0)
                .wr(0, 0)
                .rel(0, 0)
                .acq(1, 0)
                .wr(1, 0)
                .rel(1, 0)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(R.rules().WriteExclusive, 2u);
}

TEST(FastTrack, Figure4AdaptiveRepresentation) {
  // The Figure 4 trace: Rx inflates to a VC at the concurrent second read,
  // deflates back to an epoch at the ordered write, and ends as a
  // non-minimal epoch after the final read.
  Trace T = TraceBuilder()
                .wr(0, 0)    // Wx := epoch of thread 0
                .fork(0, 1)
                .rd(1, 0)    // Rx := epoch 1@1 (exclusive)
                .rd(0, 0)    // concurrent with rd(1,x): Rx inflates to VC
                .join(0, 1)
                .wr(0, 0)    // happens after both reads: Rx deflates to ⊥e
                .rd(0, 0)    // Rx := non-minimal epoch
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(R.rules().ReadExclusive, 2u); // rd(1,x) and the final rd(0,x)
  EXPECT_EQ(R.rules().ReadShare, 1u);     // rd(0,x) inflates
  EXPECT_EQ(R.rules().WriteShared, 1u);   // wr(0,x) after join deflates
  EXPECT_EQ(R.Tool.inflatedReadStates(), 0u); // deflated by the write
}

//===----------------------------------------------------------------------===//
// Read rules.
//===----------------------------------------------------------------------===//

TEST(FastTrack, ReadSameEpochFastPath) {
  Trace T = TraceBuilder().rd(0, 0).rd(0, 0).rd(0, 0).take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadExclusive, 1u);
  EXPECT_EQ(R.rules().ReadSameEpoch, 2u);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(FastTrack, ReadExclusiveAcrossEpochs) {
  // A release increments the thread's clock, ending the epoch; the next
  // read is first-in-epoch again but still exclusive.
  Trace T =
      TraceBuilder().rd(0, 0).acq(0, 0).rel(0, 0).rd(0, 0).take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadExclusive, 2u);
  EXPECT_EQ(R.rules().ReadSameEpoch, 0u);
}

TEST(FastTrack, ReadShareInflatesOnConcurrentReads) {
  Trace T = TraceBuilder().fork(0, 1).rd(0, 0).rd(1, 0).take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadShare, 1u);
  EXPECT_EQ(R.Tool.inflatedReadStates(), 1u);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(FastTrack, ReadSharedUpdatesInPlace) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .fork(0, 2)
                .rd(0, 0)
                .rd(1, 0) // inflate
                .rd(2, 0) // [FT READ SHARED]
                .take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadShare, 1u);
  EXPECT_EQ(R.rules().ReadShared, 1u);
}

TEST(FastTrack, OrderedReadsByDifferentThreadsStayExclusive) {
  // Reads ordered through a lock: the epoch representation suffices.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(0, 0)
                .rd(0, 0)
                .rel(0, 0)
                .acq(1, 0)
                .rd(1, 0)
                .rel(1, 0)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadExclusive, 2u);
  EXPECT_EQ(R.rules().ReadShare, 0u);
}

//===----------------------------------------------------------------------===//
// Write rules and race detection.
//===----------------------------------------------------------------------===//

TEST(FastTrack, WriteSameEpochFastPath) {
  Trace T = TraceBuilder().wr(0, 0).wr(0, 0).take();
  FtRun R(T);
  EXPECT_EQ(R.rules().WriteExclusive, 1u);
  EXPECT_EQ(R.rules().WriteSameEpoch, 1u);
}

TEST(FastTrack, DetectsWriteWriteRace) {
  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).wr(1, 0).take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  const RaceWarning &W = R.Tool.warnings()[0];
  EXPECT_EQ(W.Var, 0u);
  EXPECT_EQ(W.CurrentThread, 1u);
  EXPECT_EQ(W.PriorThread, 0u);
  EXPECT_EQ(W.Detail, "write-write race");
}

TEST(FastTrack, DetectsWriteReadRace) {
  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).rd(1, 0).take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  EXPECT_EQ(R.Tool.warnings()[0].Detail, "write-read race");
  EXPECT_EQ(R.Tool.warnings()[0].PriorThread, 0u);
}

TEST(FastTrack, DetectsReadWriteRaceExclusive) {
  Trace T = TraceBuilder().fork(0, 1).rd(0, 0).wr(1, 0).take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  EXPECT_EQ(R.Tool.warnings()[0].Detail, "read-write race");
}

TEST(FastTrack, DetectsReadWriteRaceShared) {
  // Two concurrent readers inflate Rx; a concurrent write must compare
  // against the whole read vector ([FT WRITE SHARED] slow path).
  Trace T = TraceBuilder()
                .fork(0, 1)
                .fork(0, 2)
                .rd(0, 0)
                .rd(1, 0)
                .wr(2, 0)
                .take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  EXPECT_EQ(R.Tool.warnings()[0].Detail, "read-write race");
  EXPECT_EQ(R.rules().WriteShared, 1u);
}

TEST(FastTrack, BarrierSeparatedPhasesAreRaceFree) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(1, 0)
                .barrier({0, 1})
                .wr(0, 0)
                .barrier({0, 1})
                .rd(1, 0)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(FastTrack, VolatileHandoffIsRaceFree) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0)
                .volWr(0, 0)
                .volRd(1, 0)
                .rd(1, 0)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(FastTrack, VolatileAccessesThemselvesNeverRace) {
  Trace T = TraceBuilder().fork(0, 1).volWr(0, 0).volWr(1, 0).take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(FastTrack, OneWarningPerVariable) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0)
                .wr(1, 0)
                .wr(0, 0)
                .wr(1, 0)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 1u);
}

TEST(FastTrack, RvcRecyclingDoesNotCauseFalseAlarms) {
  // Variable goes read-shared, deflates at a write, then goes read-shared
  // again. Stale Rvc entries from the first phase must not survive.
  Trace T = TraceBuilder()
                .fork(0, 1) // worker for phase 1
                .rd(0, 0)
                .rd(1, 0)   // inflate: Rvc[1] set
                .join(0, 1)
                .wr(0, 0)   // deflate
                .fork(0, 2)
                .rd(0, 0)
                .rd(2, 0)   // re-inflate: Rvc must be clean
                .join(0, 2)
                .wr(0, 0)   // compares Rvc ⊑ C0; stale Rvc[1] would alarm
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(R.rules().ReadShare, 2u);
  EXPECT_EQ(R.rules().WriteShared, 2u);
}

TEST(FastTrack, WriteAfterSharedDeflatesToEpochMode) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .rd(0, 0)
                .rd(1, 0)
                .join(0, 1)
                .wr(0, 0)
                .rd(0, 0) // exclusive again: epoch mode
                .rd(0, 0) // same epoch
                .take();
  FtRun R(T);
  EXPECT_EQ(R.Tool.inflatedReadStates(), 0u);
  EXPECT_EQ(R.rules().ReadSameEpoch, 1u);
}

//===----------------------------------------------------------------------===//
// Precision guarantee: detect at least the first race on each variable.
//===----------------------------------------------------------------------===//

TEST(FastTrack, ReportsRaceOnEveryRacyVariable) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0)
                .wr(1, 0) // race on x0
                .rd(0, 1)
                .wr(1, 1) // race on x1
                .lockedWr(0, 0, 2)
                .lockedWr(1, 0, 2) // no race on x2
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 2u);
}

//===----------------------------------------------------------------------===//
// Options / ablations.
//===----------------------------------------------------------------------===//

TEST(FastTrack, AblationNoSameEpochStillPrecise) {
  FastTrackOptions Options;
  Options.SameEpochFastPath = false;
  Trace T = TraceBuilder().fork(0, 1).rd(0, 0).rd(0, 0).wr(1, 0).take();
  FtRun R(T, Options);
  EXPECT_EQ(R.rules().ReadSameEpoch, 0u);
  EXPECT_EQ(R.warningCount(), 1u); // read-write race still found
}

TEST(FastTrack, AblationNoEpochReadsUsesVectorClocks) {
  FastTrackOptions Options;
  Options.EpochReads = false;
  Trace T = TraceBuilder().rd(0, 0).acq(0, 0).rel(0, 0).rd(0, 0).take();
  FtRun R(T, Options);
  EXPECT_EQ(R.rules().ReadExclusive, 0u);
  EXPECT_EQ(R.rules().ReadShare, 1u);   // inflated immediately
  EXPECT_EQ(R.rules().ReadShared, 1u);
  EXPECT_EQ(R.Tool.inflatedReadStates(), 1u);
}

TEST(FastTrack, ExtendedSharedSameEpochCountsAsFastPath) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .rd(0, 0)
                .rd(1, 0) // inflate
                .rd(1, 0) // same epoch on shared data
                .take();
  // The Section 3 extension is on by default: the re-read is a
  // same-epoch hit on read-shared data, counted apart from the paper's
  // [FT READ SAME EPOCH].
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadSharedSameEpoch, 1u);
  EXPECT_EQ(R.rules().ReadSameEpoch, 0u);
  EXPECT_EQ(R.rules().ReadShared, 0u);

  // The paper's default (extension off): the read takes the Shared rule.
  FastTrackOptions Paper;
  Paper.ExtendedSharedSameEpoch = false;
  FtRun R2(T, Paper);
  EXPECT_EQ(R2.rules().ReadShared, 1u);
  EXPECT_EQ(R2.rules().ReadSharedSameEpoch, 0u);
}

TEST(FastTrack, ReadSharedReReadAcrossEpochsUpdatesInline) {
  // Thread 1's re-read after a release is in a new epoch: Rx(1) is
  // stale, Wx = ⊥ ≼ C1, so [FT READ SHARED] updates Rx(1) in place; the
  // next re-read in that epoch is then a same-epoch hit.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .rd(0, 0)
                .rd(1, 0) // inflate
                .acq(1, 0)
                .rel(1, 0) // ends thread 1's epoch
                .rd(1, 0)  // [FT READ SHARED], Rx(1) := C1(1)
                .rd(1, 0)  // same epoch on shared data
                .take();
  FtRun R(T);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(R.rules().ReadShare, 1u);
  EXPECT_EQ(R.rules().ReadShared, 1u);
  EXPECT_EQ(R.rules().ReadSharedSameEpoch, 1u);
  EXPECT_EQ(R.Tool.inflatedReadStates(), 1u);
}

TEST(FastTrack, RacyReadOfReadSharedDataStillWarns) {
  // x's read clock reuses y's deflated side-store buffer, which keeps its
  // width: thread 1 has a (zero) entry in Rx without ever having read x.
  // Its read races with thread 4's write, so it must not take the inline
  // update, and the slow path must warn.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .fork(0, 2)
                .fork(0, 3)
                .rd(2, 1)
                .rd(3, 1) // y inflates; its clock is 4 entries wide
                .join(0, 2)
                .join(0, 3)
                .wr(0, 1) // y deflates, parking handle and buffer
                .fork(0, 4)
                .acq(4, 0)
                .wr(4, 0)
                .rel(4, 0)
                .acq(0, 0)
                .rd(0, 0) // ordered after the write: exclusive
                .rel(0, 0)
                .rd(4, 0) // concurrent reads: x inflates, recycling y's clock
                .rd(1, 0) // unordered with wr(4, x): write-read race
                .take();
  FtRun R(T);
  EXPECT_EQ(R.rules().ReadShare, 2u);
  ASSERT_EQ(R.warningCount(), 1u);
  const RaceWarning &W = R.Tool.warnings()[0];
  EXPECT_EQ(W.Var, 0u);
  EXPECT_EQ(W.CurrentThread, 1u);
  EXPECT_EQ(W.PriorThread, 4u);
  EXPECT_EQ(W.Detail, "write-read race");
}

//===----------------------------------------------------------------------===//
// Filtering behaviour (prefilter pass flags) and accounting.
//===----------------------------------------------------------------------===//

TEST(FastTrack, SameEpochAccessesAreFilteredOut) {
  Trace T = TraceBuilder().rd(0, 0).rd(0, 0).wr(0, 1).wr(0, 1).take();
  FtRun R(T);
  // 2 of the 4 accesses were same-epoch hits -> not passed downstream.
  EXPECT_EQ(R.Result.AccessesPassed, 2u);
}

TEST(FastTrack, EpochStateUsesNoVectorClockOps) {
  // A purely thread-local + lock-protected workload should allocate no
  // per-variable VCs and perform only the O(n) ops of sync handling.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .rd(0, 0)
                .wr(0, 0)
                .lockedWr(0, 0, 1)
                .lockedWr(1, 0, 1)
                .join(0, 1)
                .take();
  resetClockStats();
  FastTrack Tool;
  replay(T, Tool);
  // No reads ever inflate, so the only VC traffic is from sync operations.
  EXPECT_EQ(Tool.inflatedReadStates(), 0u);
  EXPECT_EQ(Tool.ruleStats().ReadShare, 0u);
  EXPECT_EQ(Tool.ruleStats().WriteShared, 0u);
}

TEST(FastTrack, ShadowBytesGrowWithVariables) {
  TraceBuilder B;
  for (VarId X = 0; X != 100; ++X)
    B.wr(0, X);
  Trace T = B.take();
  FastTrack Tool;
  replay(T, Tool);
  EXPECT_GT(Tool.shadowBytes(), 100 * sizeof(uint64_t));
}

TEST(FastTrack, RuleStatsTotalsMatchAccessCounts) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .rd(0, 0)
                .rd(0, 0)
                .wr(0, 1)
                .rd(1, 2)
                .wr(1, 1)
                .take();
  FtRun R(T);
  EXPECT_EQ(R.rules().reads(), 3u);
  EXPECT_EQ(R.rules().writes(), 2u);
}

//===----------------------------------------------------------------------===//
// Recycled thread slots (online engine reuses joined threads' dense ids).
// Each case is cross-checked against the exact happens-before oracle to
// prove the stale-epoch comparisons — including dead-slot entries inside
// read-shared VCs — match the reference relation.
//===----------------------------------------------------------------------===//

TEST(FastTrack, RecycledSlotStaleWriteEpochIsOrdered) {
  // Tid 1 lives twice: write, join, then the reincarnation writes the
  // same variable. The first lifetime's epoch c@1 is stale when the
  // second write tests it; the reincarnating fork's join edge makes it
  // ordered, so no race.
  Trace T = TraceBuilder()
                .fork(0, 1) // 0
                .wr(1, 0)   // 1: first lifetime's write
                .join(0, 1) // 2
                .fork(0, 1) // 3: reincarnation of tid 1
                .wr(1, 0)   // 4: second lifetime's write
                .take();
  ClockStats Before = clockStats();
  FtRun R(T);
  ClockStats Delta = clockStats() - Before;
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(Delta.Reincarnations, 1u);
  HappensBefore Oracle(T);
  EXPECT_TRUE(Oracle.happensBefore(1, 4));
}

TEST(FastTrack, RecycledSlotDoesNotMaskRacesWithLiveThreads) {
  // Recycling must not grant the reincarnation any ordering it does not
  // have: thread 2 was forked before tid 1's second lifetime and never
  // synchronized with it, so new-1's write races with 2's read.
  Trace T = TraceBuilder()
                .fork(0, 1) // 0
                .wr(1, 0)   // 1: first lifetime's write
                .join(0, 1) // 2
                .fork(0, 2) // 3
                .fork(0, 1) // 4: reincarnation of tid 1
                .wr(1, 0)   // 5: second lifetime's write
                .rd(2, 0)   // 6: concurrent with op 5
                .take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  EXPECT_EQ(R.Tool.warnings()[0].OpIndex, 6u);
  EXPECT_EQ(R.Tool.warnings()[0].CurrentThread, 2u);
  EXPECT_EQ(R.Tool.warnings()[0].PriorThread, 1u);
  HappensBefore Oracle(T);
  EXPECT_TRUE(Oracle.concurrent(5, 6));  // the reported race is real
  EXPECT_TRUE(Oracle.happensBefore(1, 6)); // the stale write is not racy
}

TEST(FastTrack, RecycledSlotEntryInsideReadSharedVC) {
  // The read-shared VC holds an entry for dead tid 1 when new-1 writes.
  // The dead entry is ordered (via join + reincarnating fork); the live
  // concurrent reader 2 is not, and must be the one reported.
  Trace T = TraceBuilder()
                .wr(0, 0)   // 0
                .fork(0, 1) // 1
                .fork(0, 2) // 2
                .rd(1, 0)   // 3: first lifetime's read (inflates with 4)
                .rd(2, 0)   // 4: concurrent read → READ_SHARED
                .join(0, 1) // 5
                .fork(0, 1) // 6: reincarnation of tid 1
                .wr(1, 0)   // 7: tests the shared VC
                .take();
  FtRun R(T);
  ASSERT_EQ(R.warningCount(), 1u);
  EXPECT_EQ(R.Tool.warnings()[0].OpIndex, 7u);
  EXPECT_EQ(R.Tool.warnings()[0].PriorThread, 2u); // the live reader, not dead 1
  EXPECT_EQ(R.rules().WriteShared, 1u);
  HappensBefore Oracle(T);
  EXPECT_TRUE(Oracle.concurrent(4, 7));   // reader 2 really is concurrent
  EXPECT_TRUE(Oracle.happensBefore(3, 7)); // dead lifetime's read is ordered
}

TEST(FastTrack, RecycledSlotManyIncarnations) {
  // Ten sequential lifetimes under one tid, all writing the same
  // variable: every epoch left behind is stale for the next lifetime and
  // every comparison must come out ordered.
  TraceBuilder B;
  for (int I = 0; I != 10; ++I)
    B.fork(0, 1).wr(1, 0).join(0, 1);
  Trace T = B.take();
  ClockStats Before = clockStats();
  FtRun R(T);
  ClockStats Delta = clockStats() - Before;
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_EQ(Delta.Reincarnations, 9u);
  HappensBefore Oracle(T);
  // Each lifetime's write happens before the next lifetime's.
  for (size_t I = 1; I + 3 < T.size(); I += 3)
    EXPECT_TRUE(Oracle.happensBefore(I, I + 3));
}
