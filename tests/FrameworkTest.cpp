//===--- FrameworkTest.cpp - replay dispatcher, granularity, pipelines ----===//

#include "core/FastTrack.h"
#include "detectors/DjitPlus.h"
#include "detectors/EmptyTool.h"
#include "detectors/Eraser.h"
#include "detectors/ThreadLocalFilter.h"
#include "framework/OnlineDriver.h"
#include "framework/Replay.h"
#include "framework/VectorClockToolBase.h"
#include "runtime/BroadcastLog.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace ft;

namespace {

/// Records every event it receives, for dispatch-order assertions.
class RecordingTool : public Tool {
public:
  const char *name() const override { return "Recorder"; }
  bool onRead(ThreadId T, VarId X, size_t) override {
    Log.push_back("rd " + std::to_string(T) + " " + std::to_string(X));
    return true;
  }
  bool onWrite(ThreadId T, VarId X, size_t) override {
    Log.push_back("wr " + std::to_string(T) + " " + std::to_string(X));
    return true;
  }
  void onAcquire(ThreadId T, LockId M, size_t) override {
    Log.push_back("acq " + std::to_string(T) + " " + std::to_string(M));
  }
  void onRelease(ThreadId T, LockId M, size_t) override {
    Log.push_back("rel " + std::to_string(T) + " " + std::to_string(M));
  }
  void onBarrier(const std::vector<ThreadId> &Threads, size_t) override {
    Log.push_back("barrier " + std::to_string(Threads.size()));
  }
  void begin(const ToolContext &Context) override { Ctx = Context; }

  std::vector<std::string> Log;
  ToolContext Ctx;
};

} // namespace

TEST(Replay, DispatchesEventsInOrder) {
  RecordingTool Tool;
  Trace T = TraceBuilder().rd(0, 1).acq(0, 2).wr(0, 1).rel(0, 2).take();
  ReplayResult R = replay(T, Tool);
  std::vector<std::string> Expected = {"rd 0 1", "acq 0 2", "wr 0 1",
                                       "rel 0 2"};
  EXPECT_EQ(Tool.Log, Expected);
  EXPECT_EQ(R.Events, 4u);
}

TEST(Replay, ContextCarriesEntityCounts) {
  RecordingTool Tool;
  Trace T = TraceBuilder().fork(0, 2).wr(2, 9).acq(2, 4).rel(2, 4).take();
  replay(T, Tool);
  EXPECT_EQ(Tool.Ctx.NumThreads, 3u);
  EXPECT_EQ(Tool.Ctx.NumVars, 10u);
  EXPECT_EQ(Tool.Ctx.NumLocks, 5u);
}

TEST(Replay, FiltersReentrantLockPairs) {
  RecordingTool Tool;
  Trace T = TraceBuilder()
                .acq(0, 0)
                .acq(0, 0) // re-entrant: filtered
                .rd(0, 0)
                .rel(0, 0) // inner release: filtered
                .rel(0, 0)
                .take();
  ReplayResult R = replay(T, Tool);
  std::vector<std::string> Expected = {"acq 0 0", "rd 0 0", "rel 0 0"};
  EXPECT_EQ(Tool.Log, Expected);
  EXPECT_EQ(R.Events, 3u);
}

TEST(Replay, ReentrantFilterCanBeDisabled) {
  RecordingTool Tool;
  Trace T = TraceBuilder().acq(0, 0).acq(0, 0).rel(0, 0).rel(0, 0).take();
  ReplayOptions Options;
  Options.FilterReentrantLocks = false;
  ReplayResult R = replay(T, Tool, Options);
  EXPECT_EQ(R.Events, 4u);
}

TEST(Replay, CoarseGranularityMergesVariables) {
  // Default coarse mapping: 8 fields per object. Vars 0..7 -> object 0.
  RecordingTool Tool;
  Trace T = TraceBuilder().wr(0, 0).wr(0, 7).wr(0, 8).take();
  ReplayOptions Options;
  Options.Gran = Granularity::Coarse;
  replay(T, Tool, Options);
  std::vector<std::string> Expected = {"wr 0 0", "wr 0 0", "wr 0 1"};
  EXPECT_EQ(Tool.Log, Expected);
  EXPECT_EQ(Tool.Ctx.NumVars, 2u);
}

TEST(Replay, CoarseGranularityWithExplicitMap) {
  RecordingTool Tool;
  Trace T = TraceBuilder().wr(0, 0).wr(0, 1).wr(0, 2).take();
  std::vector<uint32_t> Map = {5, 5, 6};
  ReplayOptions Options;
  Options.Gran = Granularity::Coarse;
  Options.VarToObject = &Map;
  replay(T, Tool, Options);
  std::vector<std::string> Expected = {"wr 0 5", "wr 0 5", "wr 0 6"};
  EXPECT_EQ(Tool.Log, Expected);
}

TEST(Replay, CoarseGranularityCausesFalseSharingWarnings) {
  // Two distinct fields protected by different locks are race-free under
  // fine granularity but collide under coarse (the Section 4 trade-off).
  Trace T = TraceBuilder()
                .fork(0, 1)
                .lockedWr(0, 0, 0)
                .lockedWr(1, 1, 1)
                .take();
  FastTrack Fine;
  replay(T, Fine);
  EXPECT_EQ(Fine.warnings().size(), 0u);

  FastTrack Coarse;
  ReplayOptions Options;
  Options.Gran = Granularity::Coarse;
  replay(T, Coarse, Options);
  EXPECT_EQ(Coarse.warnings().size(), 1u);
}

TEST(Replay, MeasuresClockStatsDelta) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 0)
                .rel(1, 0)
                .join(0, 1)
                .take();
  FastTrack Tool;
  ReplayResult R = replay(T, Tool);
  EXPECT_GT(R.Clocks.totalOps(), 0u); // sync ops did VC work
  EXPECT_EQ(R.NumWarnings, 0u);
  EXPECT_GT(R.ShadowBytes, 0u);
}

namespace {

/// A mixed workload with real races, lock discipline, fork/join edges,
/// volatiles and a reentrant pair — enough to touch every dispatch path.
Trace devirtWorkload() {
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  for (VarId X = 0; X != 4; ++X)
    B.lockedWr(0, 0, X).lockedRd(1, 0, X);
  B.wr(1, 10).rd(2, 10);         // write-read race on 10
  B.rd(0, 11).rd(1, 11).wr(2, 11); // read-shared then racy write on 11
  B.acq(0, 1).acq(0, 1).rel(0, 1).rel(0, 1); // reentrant pair
  B.volWr(1, 0).volRd(2, 0);
  B.join(0, 1).join(0, 2).wr(0, 10);
  return B.take();
}

void expectSameReplayResults(const ReplayResult &A, const ReplayResult &B) {
  EXPECT_EQ(A.Events, B.Events);
  EXPECT_EQ(A.AccessesPassed, B.AccessesPassed);
  EXPECT_EQ(A.NumWarnings, B.NumWarnings);
  EXPECT_EQ(A.ShadowBytes, B.ShadowBytes);
  EXPECT_EQ(A.StoppedAtOp, B.StoppedAtOp);
  EXPECT_EQ(A.Clocks.Allocations, B.Clocks.Allocations);
  EXPECT_EQ(A.Clocks.JoinOps, B.Clocks.JoinOps);
  EXPECT_EQ(A.Clocks.CompareOps, B.Clocks.CompareOps);
  EXPECT_EQ(A.Clocks.CopyOps, B.Clocks.CopyOps);
}

void expectSameRules(const FastTrackRuleStats &A, const FastTrackRuleStats &B) {
  EXPECT_EQ(A.ReadSameEpoch, B.ReadSameEpoch);
  EXPECT_EQ(A.ReadShared, B.ReadShared);
  EXPECT_EQ(A.ReadExclusive, B.ReadExclusive);
  EXPECT_EQ(A.ReadShare, B.ReadShare);
  EXPECT_EQ(A.WriteSameEpoch, B.WriteSameEpoch);
  EXPECT_EQ(A.WriteExclusive, B.WriteExclusive);
  EXPECT_EQ(A.WriteShared, B.WriteShared);
}

void expectSameRules(const DjitRuleStats &A, const DjitRuleStats &B) {
  EXPECT_EQ(A.ReadSameEpoch, B.ReadSameEpoch);
  EXPECT_EQ(A.ReadGeneral, B.ReadGeneral);
  EXPECT_EQ(A.WriteSameEpoch, B.WriteSameEpoch);
  EXPECT_EQ(A.WriteGeneral, B.WriteGeneral);
}

/// Replays \p T through a registered \p ToolT twice — once via replay()
/// (the registry's devirtualized loop, with the inlined handlers) and once
/// via the forced-virtual replayWithTool<Tool> — and expects identical
/// results, rule counts and warning lists. \returns the devirtualized run.
template <typename ToolT>
ReplayResult expectDevirtualizedMatchesVirtual(const Trace &T,
                                               const ReplayOptions &Options,
                                               ToolT &Fast) {
  ReplayResult FastResult = replay(T, Fast, Options);

  ToolT Virt;
  Tool &Erased = Virt;
  ReplayResult VirtResult = replayWithTool<Tool>(T, Erased, Options);

  expectSameReplayResults(FastResult, VirtResult);
  expectSameRules(Fast.ruleStats(), Virt.ruleStats());
  const std::vector<RaceWarning> &FW = Fast.warnings();
  const std::vector<RaceWarning> &VW = Virt.warnings();
  EXPECT_EQ(FW.size(), VW.size());
  for (size_t I = 0; I != std::min(FW.size(), VW.size()); ++I)
    EXPECT_EQ(toString(FW[I]), toString(VW[I])) << "warning " << I;
  return FastResult;
}

template <typename ToolT> void expectFullReplayMatches() {
  ToolT Fast;
  expectDevirtualizedMatchesVirtual(devirtWorkload(), ReplayOptions(), Fast);
  EXPECT_GT(Fast.warnings().size(), 0u) << "workload must contain races";
}

/// Coarse granularity takes the loop's non-identity remapping branch.
template <typename ToolT> void expectCoarseReplayMatches() {
  ReplayOptions Options;
  Options.Gran = Granularity::Coarse;
  ToolT Fast;
  expectDevirtualizedMatchesVirtual(devirtWorkload(), Options, Fast);
  ASSERT_GT(Fast.warnings().size(), 0u) << "workload must contain races";
  // Variables 0-3, 10 and 11 fold into objects 0 and 1 (8 fields each).
  for (const RaceWarning &W : Fast.warnings())
    EXPECT_LT(W.Var, 2u) << "access dispatched without remapping";
}

} // namespace

TEST(Replay, DevirtualizedPathMatchesVirtualPathExactly) {
  expectFullReplayMatches<FastTrack>();
}

TEST(Replay, DevirtualizedCoarseReplayMatchesVirtualPath) {
  expectCoarseReplayMatches<FastTrack>();
}

TEST(Replay, DevirtualizedDjitPlusMatchesVirtualPathExactly) {
  expectFullReplayMatches<DjitPlus>();
}

TEST(Replay, DevirtualizedDjitPlusCoarseReplayMatchesVirtualPath) {
  expectCoarseReplayMatches<DjitPlus>();
}

namespace {

/// Overrides a registered tool's access handlers; its exact type is NOT
/// registered, so replay() must take the virtual path (a devirtualized
/// FastTrack loop would silently skip these overrides).
class CountingFastTrack : public FastTrack {
public:
  bool onRead(ThreadId T, VarId X, size_t I) override {
    ++Reads;
    return FastTrack::onRead(T, X, I);
  }
  bool onWrite(ThreadId T, VarId X, size_t I) override {
    ++Writes;
    return FastTrack::onWrite(T, X, I);
  }
  uint64_t Reads = 0, Writes = 0;
};

} // namespace

TEST(Replay, SubclassOfRegisteredToolFallsBackToVirtualDispatch) {
  Trace T = devirtWorkload();
  CountingFastTrack Counting;
  replay(T, Counting);
  EXPECT_GT(Counting.Reads, 0u) << "override was bypassed";
  EXPECT_GT(Counting.Writes, 0u) << "override was bypassed";

  FastTrack Plain;
  replay(T, Plain);
  EXPECT_EQ(Counting.warnings().size(), Plain.warnings().size());

  // The same exact-type guard protects the online run loop: dispatchRun()
  // must reach the overrides too, access for access.
  CountingFastTrack Online;
  OnlineDriverOptions DO;
  DO.Role = DriverRole::DispatchOnly;
  OnlineDriver Driver(Online, makeToolContext(T, GranularityMap()), DO);
  std::vector<runtime::EventWord> Events;
  for (const Operation &Op : T)
    Events.push_back(runtime::EventWord::of(Op.Kind, Op.Target, Op.Thread));
  ASSERT_EQ(Driver.dispatchRun(Events.data(), Events.size(), 0),
            Events.size());
  Driver.finish();
  EXPECT_EQ(Online.Reads, Counting.Reads) << "override was bypassed online";
  EXPECT_EQ(Online.Writes, Counting.Writes) << "override was bypassed online";
}

TEST(Tool, WarningDeduplicationPerVariable) {
  class AlwaysWarn : public Tool {
  public:
    const char *name() const override { return "AlwaysWarn"; }
    bool onWrite(ThreadId T, VarId X, size_t I) override {
      RaceWarning W;
      W.Var = X;
      W.OpIndex = I;
      W.CurrentThread = T;
      W.CurrentKind = OpKind::Write;
      reportRace(std::move(W));
      return true;
    }
  };
  AlwaysWarn Tool;
  Trace T = TraceBuilder().wr(0, 0).wr(0, 0).wr(0, 1).take();
  replay(T, Tool);
  EXPECT_EQ(Tool.warnings().size(), 2u);
  Tool.clearWarnings();
  EXPECT_TRUE(Tool.warnings().empty());
}

TEST(Warning, ToStringIncludesDetail) {
  RaceWarning W;
  W.Var = 3;
  W.OpIndex = 17;
  W.CurrentThread = 1;
  W.CurrentKind = OpKind::Write;
  W.PriorThread = 0;
  W.PriorKind = OpKind::Write;
  W.Detail = "write-write race";
  std::string S = toString(W);
  EXPECT_NE(S.find("x3"), std::string::npos);
  EXPECT_NE(S.find("op 17"), std::string::npos);
  EXPECT_NE(S.find("thread 1"), std::string::npos);
  EXPECT_NE(S.find("write-write race"), std::string::npos);
}

TEST(Pipeline, FiltersAccessesBeforeDownstream) {
  ThreadLocalFilter Filter;
  RecordingTool Downstream;
  Trace T = TraceBuilder()
                .fork(0, 1)
                .wr(0, 0) // thread-local: dropped
                .wr(0, 0) // dropped
                .rd(1, 0) // shared now: forwarded
                .rd(0, 0) // forwarded
                .take();
  PipelineResult R = replayFiltered(T, Filter, Downstream);
  EXPECT_EQ(R.AccessesSeen, 4u);
  EXPECT_EQ(R.AccessesForwarded, 2u);
  std::vector<std::string> Expected = {"rd 1 0", "rd 0 0"};
  EXPECT_EQ(Downstream.Log, Expected);
}

TEST(Pipeline, SyncEventsReachBothTools) {
  EmptyTool Filter;
  RecordingTool Downstream;
  Trace T = TraceBuilder().acq(0, 0).rel(0, 0).take();
  replayFiltered(T, Filter, Downstream);
  std::vector<std::string> Expected = {"acq 0 0", "rel 0 0"};
  EXPECT_EQ(Downstream.Log, Expected);
}

TEST(Pipeline, FastTrackPrefilterDropsSameEpochAccesses) {
  FastTrack Filter;
  RecordingTool Downstream;
  TraceBuilder B;
  B.fork(0, 1);
  for (int I = 0; I != 10; ++I)
    B.rd(1, 0); // 1 first-in-epoch + 9 same-epoch
  PipelineResult R = replayFiltered(B.take(), Filter, Downstream);
  EXPECT_EQ(R.AccessesSeen, 10u);
  EXPECT_EQ(R.AccessesForwarded, 1u);
}

TEST(VectorClockToolBase, BarrierJoinsAllMembers) {
  class Probe : public VectorClockToolBase {
  public:
    const char *name() const override { return "Probe"; }
    using VectorClockToolBase::currentClock;
    using VectorClockToolBase::threadClock;
  };
  Probe Tool;
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 0)
                .rel(1, 0)
                .barrier({0, 1})
                .take();
  replay(T, Tool);
  // After the barrier both threads' clocks dominate each other's
  // pre-barrier clocks; each was also incremented.
  EXPECT_GE(Tool.threadClock(0).get(1), 2u);
  EXPECT_GE(Tool.threadClock(1).get(0), 2u);
}
