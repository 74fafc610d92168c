//===--- OnlineDriverTest.cpp - push-mode dispatch vs the replay loop -----===//

#include "core/FastTrack.h"
#include "detectors/DjitPlus.h"
#include "detectors/Eraser.h"
#include "framework/OnlineDriver.h"
#include "framework/Replay.h"
#include "support/MemoryTracker.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace ft;

namespace {

constexpr OnlineDriver::DispatchOutcome Delivered =
    OnlineDriver::DispatchOutcome::Delivered;
constexpr OnlineDriver::DispatchOutcome Rejected =
    OnlineDriver::DispatchOutcome::Rejected;

/// Offers \p Op, passed by value so a call can name a temporary.
OnlineDriver::DispatchOutcome offerOp(OnlineDriver &Driver, Operation Op) {
  return Driver.offer(Op);
}

/// Feeds every operation of \p T to a fresh driver over \p Checker.
OnlineDriver pushAll(const Trace &T, Tool &Checker,
                     const ToolContext &Capacity,
                     OnlineDriverOptions Options = {}) {
  OnlineDriver Driver(Checker, Capacity, std::move(Options));
  for (Operation Op : T)
    Driver.offer(Op);
  Driver.finish();
  return Driver;
}

ToolContext capacity(unsigned Threads = 8, unsigned Vars = 64,
                     unsigned Locks = 8, unsigned Volatiles = 8) {
  ToolContext Context;
  Context.NumThreads = Threads;
  Context.NumVars = Vars;
  Context.NumLocks = Locks;
  Context.NumVolatiles = Volatiles;
  return Context;
}

void expectSameWarnings(const std::vector<RaceWarning> &A,
                        const std::vector<RaceWarning> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Var, B[I].Var);
    EXPECT_EQ(A[I].OpIndex, B[I].OpIndex);
    EXPECT_EQ(A[I].CurrentThread, B[I].CurrentThread);
    EXPECT_EQ(A[I].CurrentKind, B[I].CurrentKind);
    EXPECT_EQ(A[I].PriorThread, B[I].PriorThread);
    EXPECT_EQ(A[I].PriorKind, B[I].PriorKind);
    EXPECT_EQ(A[I].Detail, B[I].Detail);
  }
}

/// A trace exercising races, lock hand-offs, re-entrant locks, volatiles,
/// and fork/join — the op mix both engines must agree on.
Trace mixedTrace() {
  return TraceBuilder()
      .fork(0, 1)
      .fork(0, 2)
      .acq(0, 0)
      .acq(0, 0) // re-entrant: filtered by both engines
      .wr(0, 0)
      .rel(0, 0)
      .rel(0, 0)
      .acq(1, 0)
      .wr(1, 0) // ordered via m0: no race
      .rel(1, 0)
      .wr(2, 1)
      .rd(1, 1) // race on x1
      .volWr(1, 0)
      .volRd(2, 0)
      .wr(2, 2)
      .rd(1, 2) // race on x2 (vrd does not order t1 after t2's write)
      .join(0, 1)
      .join(0, 2)
      .rd(0, 0)
      .take();
}

} // namespace

TEST(OnlineDriver, WarningsMatchOfflineReplayExactly) {
  Trace T = mixedTrace();

  FastTrack Online;
  OnlineDriver Driver = pushAll(T, Online, capacity());

  FastTrack Offline;
  ReplayResult R = replay(T, Offline);

  expectSameWarnings(Online.warnings(), Offline.warnings());
  EXPECT_GT(Online.warnings().size(), 0u);
  EXPECT_EQ(Driver.rawOps(), T.size());
  EXPECT_EQ(Driver.dispatched(), R.Events);
  EXPECT_EQ(Driver.accessesPassed(), R.AccessesPassed);
  EXPECT_FALSE(Driver.halted());
  EXPECT_TRUE(Driver.diags().empty());
}

TEST(OnlineDriver, EraserAgreesWithOfflineReplayToo) {
  // A non-VC tool: the driver makes no assumptions about tool internals.
  Trace T = mixedTrace();
  Eraser Online, Offline;
  pushAll(T, Online, capacity());
  replay(T, Offline);
  expectSameWarnings(Online.warnings(), Offline.warnings());
}

TEST(OnlineDriver, RawIndicesCountFilteredLockEvents) {
  // The warning's OpIndex must name the position in the *raw* stream — a
  // capture replayed offline yields the same index even though the
  // re-entrant pair before the racy access was never dispatched.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(0, 0)
                .acq(0, 0)
                .rel(0, 0)
                .wr(0, 3)
                .rel(0, 0)
                .wr(1, 3) // raw op 6; two lock events before it filtered
                .take();
  FastTrack Online;
  OnlineDriver Driver = pushAll(T, Online, capacity());
  ASSERT_EQ(Online.warnings().size(), 1u);
  EXPECT_EQ(Online.warnings()[0].OpIndex, 6u);
  EXPECT_EQ(Driver.rawOps(), 7u);
  EXPECT_EQ(Driver.dispatched(), 5u); // 2 of 7 filtered
}

TEST(OnlineDriver, WarningSinkFiresImmediately) {
  std::vector<std::pair<size_t, size_t>> SinkLog; // (warning op, raw ops)
  FastTrack Checker;
  OnlineDriverOptions Options;
  OnlineDriver *DriverPtr = nullptr;
  Options.WarningSink = [&](const RaceWarning &W) {
    SinkLog.emplace_back(W.OpIndex, DriverPtr->rawOps());
  };
  OnlineDriver Driver(Checker, capacity(), Options);
  DriverPtr = &Driver;

  Trace T = TraceBuilder().fork(0, 1).wr(0, 0).wr(1, 0).wr(0, 1).take();
  for (Operation Op : T)
    Driver.offer(Op);
  Driver.finish();

  ASSERT_EQ(SinkLog.size(), 1u);
  EXPECT_EQ(SinkLog[0].first, 2u);  // the racy wr(1, x0)
  EXPECT_EQ(SinkLog[0].second, 3u); // sink ran before op 3 was offered
}

TEST(OnlineDriver, OverCapacityVariableHaltsWhenLadderPinnedOff) {
  FastTrack Checker;
  OnlineDriverOptions Options;
  Options.Degrade.Enabled = false; // pre-ladder behavior: halt outright
  OnlineDriver Driver(Checker, capacity(2, 4, 2, 2), Options);
  EXPECT_EQ(offerOp(Driver, wr(0, 3)), Delivered); // at the edge: fine
  EXPECT_EQ(offerOp(Driver, wr(0, 4)), Rejected);  // over: halt
  EXPECT_TRUE(Driver.halted());
  ASSERT_EQ(Driver.diags().size(), 1u);
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ResourceExhausted);
  EXPECT_EQ(Driver.diags()[0].OpIndex, 1u); // rejected op consumed no index
  // Halted drivers reject everything; the raw stream stays replayable.
  EXPECT_EQ(offerOp(Driver, wr(0, 0)), Rejected);
  EXPECT_EQ(Driver.rawOps(), 1u);
  Driver.finish();
}

TEST(OnlineDriver, OverCapacityVariableCoarsensInsteadOfHalting) {
  FastTrack Checker;
  OnlineDriver Driver(Checker, capacity(2, 4, 2, 2)); // default ladder on
  EXPECT_EQ(offerOp(Driver, wr(0, 3)), Delivered);
  Operation Over = wr(0, 4); // over capacity: first coarse rung absorbs it
  EXPECT_EQ(Driver.offer(Over), Delivered);
  EXPECT_EQ(Over.Target, 0u); // 4 / 8
  EXPECT_FALSE(Driver.halted());
  EXPECT_EQ(Driver.rung(), 1u);
  EXPECT_EQ(Driver.degradations(), 1u);
  ASSERT_EQ(Driver.diags().size(), 1u);
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ResourceExhausted);
  EXPECT_EQ(Driver.diags()[0].Sev, Severity::Warning);
  // Every later access folds through the same divisor (coherent shadow).
  Operation Low = wr(0, 3);
  EXPECT_EQ(Driver.offer(Low), Delivered);
  EXPECT_EQ(Low.Target, 0u); // 3 / 8
  EXPECT_EQ(Driver.rawOps(), 3u);
  Driver.finish();
}

TEST(OnlineDriver, LadderWidensUntilTheMappedIdFits) {
  // A wildly over-capacity id takes several coarse rungs in one offer.
  FastTrack Checker;
  OnlineDriver Driver(Checker, capacity(2, 4, 2, 2));
  Operation Far = wr(0, 600); // 600/8=75, /64=9 still over, /512=1 fits
  EXPECT_EQ(Driver.offer(Far), Delivered);
  EXPECT_EQ(Far.Target, 1u);
  EXPECT_FALSE(Driver.halted());
  EXPECT_EQ(Driver.rung(), 3u);
  EXPECT_EQ(Driver.degradations(), 3u);
  Driver.finish();

  // An id the widest divisor cannot fold under capacity has no rung left
  // to absorb it: it halts at once with the capacity diagnostic, as an
  // over-cap lock or thread id does, consumes no raw index, and logs no
  // rung it never took.
  FastTrack Beyond;
  OnlineDriver Halting(Beyond, capacity(2, 4, 2, 2));
  Operation Past = wr(0, 512 * 4); // /512 = 4, still not under 4
  EXPECT_EQ(Halting.offer(Past), Rejected);
  EXPECT_TRUE(Halting.halted());
  EXPECT_EQ(Halting.rung(), 0u);
  EXPECT_EQ(Halting.degradations(), 0u);
  ASSERT_EQ(Halting.diags().size(), 1u);
  EXPECT_EQ(Halting.diags().back().Code, StatusCode::ResourceExhausted);
  EXPECT_EQ(Halting.diags().back().Sev, Severity::Error);
  EXPECT_EQ(Halting.rawOps(), 0u);
  Halting.finish();
}

TEST(OnlineDriver, ForcedBudgetBreachStepsDownOnceAtTheProbe) {
  FastTrack Checker;
  OnlineDriverOptions Options;
  Options.Degrade.BudgetCheckEveryOps = 4;
  Options.ForceBudgetBreachAtRawOp = 4; // the fault-injection hook
  OnlineDriver Driver(Checker, capacity(), Options);
  for (int I = 0; I != 12; ++I)
    offerOp(Driver, wr(0, 1));
  // Exactly one transition: the forced breach fires at the first probe at
  // or after raw op 4; later probes read the real (zero-budget) state.
  EXPECT_EQ(Driver.rung(), 1u);
  EXPECT_EQ(Driver.degradations(), 1u);
  ASSERT_EQ(Driver.diags().size(), 1u);
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ResourceExhausted);
  EXPECT_LE(Driver.diags()[0].OpIndex, 8u);
  Driver.finish();
}

TEST(OnlineDriver, BudgetBreachWalksLadderThenContinuesUnbudgeted) {
  FastTrack Checker;
  OnlineDriverOptions Options;
  Options.Degrade.Memory.BudgetBytes = 1; // always breached
  Options.Degrade.BudgetCheckEveryOps = 1;
  OnlineDriver Driver(Checker, capacity(), Options);
  // Sync ops keep consuming raw indices, so the probes keep firing until
  // the ladder runs out.
  for (int I = 0; I != 16; ++I) {
    offerOp(Driver, acq(0, 0));
    offerOp(Driver, rel(0, 0));
  }
  EXPECT_FALSE(Driver.halted()); // never halts: detection beats death
  EXPECT_EQ(Driver.rung(), 3u);  // full default ladder exhausted
  bool Unbudgeted = false;
  for (const Diagnostic &D : Driver.diags())
    Unbudgeted |= D.Sev == Severity::Note &&
                  D.Message.find("unbudgeted") != std::string::npos;
  EXPECT_TRUE(Unbudgeted);
  Driver.finish();
}

TEST(OnlineDriver, DecliningToolWalksDivisorRungsUnderMemoryBudget) {
  // DJIT+ declines configureShadowPolicy, so the one budget knob is
  // enforced by the driver's probe: one ladder rung per breached probe,
  // starting with the divisor rungs and no in-table summarize rung.
  DjitPlus Checker;
  OnlineDriverOptions Options;
  Options.Degrade.Memory.Enabled = true;
  Options.Degrade.Memory.BudgetBytes = 1; // always breached
  Options.Degrade.BudgetCheckEveryOps = 1;
  OnlineDriver Driver(Checker, capacity(), Options);
  for (int I = 0; I != 16; ++I) {
    offerOp(Driver, wr(0, static_cast<VarId>(I)));
    offerOp(Driver, acq(0, 0));
    offerOp(Driver, rel(0, 0));
  }
  EXPECT_FALSE(Driver.halted());
  EXPECT_EQ(Driver.rung(), 3u); // full default ladder exhausted
  std::vector<std::string> Steps;
  bool Unbudgeted = false;
  for (const Diagnostic &D : Driver.diags()) {
    if (D.Sev == Severity::Warning)
      Steps.push_back(D.Message);
    Unbudgeted |= D.Sev == Severity::Note &&
                  D.Message.find("unbudgeted") != std::string::npos;
  }
  ASSERT_EQ(Steps.size(), 3u);
  EXPECT_NE(Steps[0].find("divisor 8)"), std::string::npos) << Steps[0];
  EXPECT_NE(Steps[1].find("divisor 64)"), std::string::npos) << Steps[1];
  EXPECT_NE(Steps[2].find("divisor 512)"), std::string::npos) << Steps[2];
  EXPECT_TRUE(Unbudgeted);
  Driver.finish();
}

TEST(OnlineDriver, TrackerAloneSamplesShadowBytes) {
  // A tracker with no budget still gets the probe's samples, for a tool
  // that governs itself and for one that declines alike.
  auto PeakOf = [](Tool &Checker, bool Governed) {
    MemoryTracker Tracker;
    OnlineDriverOptions Options;
    Options.Degrade.Memory.Enabled = Governed;
    Options.Degrade.Tracker = &Tracker;
    Options.Degrade.BudgetCheckEveryOps = 4;
    OnlineDriver Driver(Checker, capacity(), Options);
    for (VarId X = 0; X != 64; ++X)
      offerOp(Driver, wr(0, X));
    EXPECT_EQ(Driver.rung(), 0u);
    EXPECT_TRUE(Driver.diags().empty());
    Driver.finish();
    return Tracker.peakBytes();
  };
  FastTrack Plain, Governed;
  DjitPlus Djit;
  EXPECT_GT(PeakOf(Plain, false), 0u);
  EXPECT_GT(PeakOf(Governed, true), 0u);
  EXPECT_GT(PeakOf(Djit, false), 0u);
}

TEST(OnlineDriver, GovernedToolCoarsensOverCapacityVariableOnTheFirstDivisor) {
  // A governed tool's in-table fold is no ladder rung, so an
  // over-capacity variable takes the first divisor directly: one step,
  // one diagnostic, and it names divisor 8.
  FastTrack Checker;
  OnlineDriverOptions Options;
  Options.Degrade.Memory.Enabled = true;
  OnlineDriver Driver(Checker, capacity(8, 4), Options);
  Operation Over = wr(0, 16);
  EXPECT_EQ(Driver.offer(Over), Delivered);
  EXPECT_EQ(Over.Target, 2u);
  EXPECT_EQ(Driver.rung(), 1u);
  EXPECT_EQ(Driver.degradations(), 1u);
  ASSERT_EQ(Driver.diags().size(), 1u);
  EXPECT_NE(Driver.diags()[0].Message.find("divisor 8)"), std::string::npos)
      << Driver.diags()[0].Message;
  Driver.finish();
}

TEST(OnlineDriver, GovernedBudgetTripWithNothingColdStaysAtRungZero) {
  // A 1-byte budget trips on the first page fault-in, but sixteen pages
  // touched in one generation leave nothing cold to summarize. The table
  // lost no precision and its counters say so; the driver must neither
  // step nor claim a fold.
  FastTrack Checker;
  OnlineDriverOptions Options;
  Options.Degrade.Memory.Enabled = true;
  Options.Degrade.Memory.BudgetBytes = 1;
  Options.Degrade.BudgetCheckEveryOps = 4;
  OnlineDriver Driver(Checker, capacity(8, 128 * 1024), Options); // paged
  for (VarId Page = 0; Page != 16; ++Page)
    offerOp(Driver, wr(0, Page * ShadowPageVars));
  for (int I = 0; I != 8; ++I)
    offerOp(Driver, rd(0, 0)); // later probes see the trip too
  Driver.finish();
  EXPECT_FALSE(Driver.halted());
  EXPECT_EQ(Driver.rung(), 0u);
  EXPECT_EQ(Driver.degradations(), 0u);
  for (const Diagnostic &D : Driver.diags())
    EXPECT_EQ(D.Message.find("degraded"), std::string::npos) << D.Message;
  EXPECT_GE(Checker.shadowGovernorStats().BudgetTrips, 1u);
  EXPECT_EQ(Checker.shadowGovernorStats().PagesSummarized, 0u);
}

TEST(OnlineDriver, DegradedCaptureReplaysToIdenticalWarnings) {
  // The equivalence contract on a degraded rung: the capture is the
  // delivered stream, exactly as offer() left each op, and replaying
  // it offline reproduces the online warnings byte for byte.
  Trace T = mixedTrace();
  FastTrack Online;
  OnlineDriverOptions Options;
  Options.Degrade.Ladder = {2};
  Options.Degrade.StartRung = 1;
  OnlineDriver Driver(Online, capacity(), Options);
  Trace Capture;
  for (const Operation &Op : T) {
    Operation Copy = Op;
    if (Driver.offer(Copy) == Delivered)
      Capture.append(Copy);
  }
  Driver.finish();
  EXPECT_EQ(Capture.size(), Driver.rawOps());

  FastTrack Offline;
  replay(Capture, Offline);
  expectSameWarnings(Online.warnings(), Offline.warnings());
}

namespace {

/// Throws from the Nth read/write handler call.
class BombTool : public Tool {
public:
  explicit BombTool(uint64_t ThrowAt) : ThrowAt(ThrowAt) {}
  const char *name() const override { return "Bomb"; }
  bool onRead(ThreadId, VarId, size_t) override { return tick(); }
  bool onWrite(ThreadId, VarId, size_t) override { return tick(); }

private:
  bool tick() {
    if (Seen++ == ThrowAt)
      throw std::runtime_error("boom");
    return true;
  }
  uint64_t ThrowAt;
  uint64_t Seen = 0;
};

} // namespace

TEST(OnlineDriver, ThrowingToolHaltsWithToolFaultNotUnwind) {
  BombTool Checker(2);
  OnlineDriver Driver(Checker, capacity());
  EXPECT_EQ(offerOp(Driver, wr(0, 0)), Delivered);
  EXPECT_EQ(offerOp(Driver, wr(0, 1)), Delivered);
  Operation Bang = wr(0, 2);
  EXPECT_EQ(Driver.offer(Bang), Rejected);
  EXPECT_TRUE(Driver.halted());
  // The throwing op was rolled back out of the stream: a capture holding
  // the two delivered ops replays cleanly.
  EXPECT_EQ(Driver.rawOps(), 2u);
  ASSERT_EQ(Driver.diags().size(), 1u);
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ToolFault);
  EXPECT_NE(Driver.diags()[0].Message.find("boom"), std::string::npos);
  Driver.finish();
}

TEST(OnlineDriver, OverCapacityThreadAndLockAndVolatileHalt) {
  {
    FastTrack Checker;
    OnlineDriver Driver(Checker, capacity(2, 4, 2, 2));
    EXPECT_EQ(offerOp(Driver, wr(2, 0)), Rejected);
    EXPECT_TRUE(Driver.halted());
  }
  {
    FastTrack Checker;
    OnlineDriver Driver(Checker, capacity(2, 4, 2, 2));
    EXPECT_EQ(offerOp(Driver, acq(0, 2)), Rejected);
    EXPECT_TRUE(Driver.halted());
  }
  {
    FastTrack Checker;
    OnlineDriver Driver(Checker, capacity(2, 4, 2, 2));
    EXPECT_EQ(offerOp(Driver, volRd(0, 2)), Rejected);
    EXPECT_TRUE(Driver.halted());
  }
  {
    FastTrack Checker;
    OnlineDriver Driver(Checker, capacity(4, 4, 2, 2));
    EXPECT_EQ(offerOp(Driver, fork(0, 4)), Rejected);
    EXPECT_TRUE(Driver.halted());
  }
}

TEST(OnlineDriver, BarrierOperationsHalt) {
  FastTrack Checker;
  OnlineDriver Driver(Checker, capacity());
  Operation Barrier(OpKind::Barrier, 0, 0);
  EXPECT_EQ(Driver.offer(Barrier), Rejected);
  EXPECT_TRUE(Driver.halted());
}

TEST(OnlineDriver, FinishIsIdempotent) {
  FastTrack Checker;
  OnlineDriver Driver(Checker, capacity());
  offerOp(Driver, wr(0, 0));
  Driver.finish();
  Driver.finish(); // second call must not re-run Tool::end()
  EXPECT_EQ(Driver.rawOps(), 1u);
}
