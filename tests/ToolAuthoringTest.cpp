//===--- ToolAuthoringTest.cpp - the TOOL_AUTHORING.md worked example -----===//
//
// The complete tool from docs/TOOL_AUTHORING.md, compiled and pinned by
// tests. The guide's code blocks are excerpts of the MiniLockSet class
// below — keep the two in sync when either changes. The tests exercise
// every integration point the guide walks through: serial replay(),
// pipeline composition via replayFiltered(), and opting into the sharded
// parallel engine through ShardableTool.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "framework/ParallelReplay.h"
#include "framework/Replay.h"
#include "framework/ShardableTool.h"
#include "framework/Tool.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

using namespace ft;

namespace {

/// The guide's example analysis: a deliberately naive lockset check.
/// MiniLockSet warns when a variable has been accessed by two different
/// threads and the intersection of the locks held across all its
/// accesses is empty — Eraser stripped of its ownership state machine,
/// small enough to read in one sitting yet touching every part of the
/// Tool API: context-driven shadow sizing, access handlers, sync
/// handlers, warning reporting, memory accounting, and sharding.
class MiniLockSet : public Tool, public ShardableTool {
public:
  const char *name() const override { return "MiniLockSet"; }

  /// Step 1 — size shadow state from the trace's static facts. The
  /// context already reflects any granularity remapping.
  void begin(const ToolContext &Context) override {
    Held.assign(Context.NumThreads, {});
    Vars.assign(Context.NumVars, {});
  }

  /// Step 2 — access handlers. Returning true means "interesting" when
  /// the tool acts as a prefilter in a composed pipeline; tools that are
  /// not filters simply return true.
  bool onRead(ThreadId T, VarId X, size_t OpIndex) override {
    return access(T, X, OpIndex, OpKind::Read);
  }
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override {
    return access(T, X, OpIndex, OpKind::Write);
  }

  /// Step 3 — synchronization handlers. MiniLockSet only needs the
  /// locks-held sets; unimplemented events default to no-ops.
  void onAcquire(ThreadId T, LockId M, size_t) override {
    Held[T].push_back(M);
  }
  void onRelease(ThreadId T, LockId M, size_t) override {
    auto It = std::find(Held[T].begin(), Held[T].end(), M);
    if (It != Held[T].end())
      Held[T].erase(It);
  }

  /// Step 4 — memory accounting for the Table 3 style benchmarks.
  size_t shadowBytes() const override {
    size_t Bytes = Vars.capacity() * sizeof(VarShadow);
    for (const VarShadow &S : Vars)
      Bytes += S.Candidates.capacity() * sizeof(LockId);
    return Bytes;
  }

  /// Step 6 (optional) — sharding. Per-variable state depends only on
  /// that variable's accesses plus the locks-held sets, which are a
  /// function of the sync schedule alone, so MiniLockSet is shard-safe:
  /// each worker replays every sync event through its own clone.
  std::unique_ptr<Tool> cloneForShard() const override {
    return std::make_unique<MiniLockSet>();
  }
  void mergeShard(Tool &) override {} // warnings merge in the engine

private:
  struct VarShadow {
    bool Accessed = false;
    bool MultiThreaded = false;
    ThreadId First = 0;
    std::vector<LockId> Candidates; ///< ∩ of locks held at each access.
  };

  bool access(ThreadId T, VarId X, size_t OpIndex, OpKind Kind) {
    VarShadow &S = Vars[X];
    if (!S.Accessed) {
      S.Accessed = true;
      S.First = T;
      S.Candidates = Held[T];
      return true;
    }
    if (T != S.First)
      S.MultiThreaded = true;
    // Candidates ∩= Held[T].
    auto Unheld = [&](LockId M) {
      return std::find(Held[T].begin(), Held[T].end(), M) == Held[T].end();
    };
    S.Candidates.erase(
        std::remove_if(S.Candidates.begin(), S.Candidates.end(), Unheld),
        S.Candidates.end());
    if (S.MultiThreaded && S.Candidates.empty()) {
      RaceWarning W;
      W.Var = X;
      W.OpIndex = OpIndex;
      W.CurrentThread = T;
      W.CurrentKind = Kind;
      W.Detail = "no common lock";
      reportRace(std::move(W)); // deduplicates to one warning per var
    }
    return true;
  }

  std::vector<std::vector<LockId>> Held;
  std::vector<VarShadow> Vars;
};

} // namespace

TEST(ToolAuthoring, GuideExampleFlagsUnlockedSharing) {
  // x0 is consistently protected by lock m0; x1 is shared with no lock.
  Trace T = TraceBuilder()
                .fork(0, 1)
                .lockedWr(0, 0, 0)
                .lockedWr(1, 0, 0)
                .wr(0, 1)
                .wr(1, 1)
                .join(0, 1)
                .take();
  MiniLockSet Checker;
  ReplayResult Result = replay(T, Checker);
  ASSERT_EQ(Checker.warnings().size(), 1u);
  const RaceWarning &W = Checker.warnings().front();
  EXPECT_EQ(W.Var, 1u);
  EXPECT_EQ(W.CurrentThread, 1u);
  EXPECT_EQ(W.Detail, "no common lock");
  EXPECT_EQ(Result.Events, T.size());
  EXPECT_GT(Checker.shadowBytes(), 0u);
}

TEST(ToolAuthoring, GuideExampleIsQuietOnDisciplinedTraces) {
  RandomTraceConfig Config;
  Config.Seed = 21;
  Config.ThreadLocalShare = 0.0;
  Config.ReadSharedShare = 0.0; // everything lock-protected
  Trace T = generateRandomTrace(Config);
  MiniLockSet Checker;
  replay(T, Checker);
  EXPECT_TRUE(Checker.warnings().empty());
}

TEST(ToolAuthoring, GuideExampleComposesAsPipelineDownstream) {
  // "-tool FastTrack:MiniLockSet": FastTrack's pass flag filters the
  // boring accesses; the downstream tool sees sync events plus whatever
  // survives the filter.
  RandomTraceConfig Config;
  Config.Seed = 5;
  Config.ChaosProbability = 0.08;
  Trace T = generateRandomTrace(Config);

  FastTrack Filter;
  MiniLockSet Downstream;
  PipelineResult Result = replayFiltered(T, Filter, Downstream);
  EXPECT_EQ(Result.Total.Events, T.size());

  MiniLockSet Solo;
  replay(T, Solo);
  // The filter can only shrink what the downstream tool complains about.
  EXPECT_LE(Downstream.warnings().size(), Solo.warnings().size());
}

TEST(ToolAuthoring, GuideExampleShardsDeterministically) {
  RandomTraceConfig Config;
  Config.Seed = 13;
  Config.NumThreads = 6;
  Config.NumVars = 40;
  Config.OpsPerThread = 300;
  Config.ChaosProbability = 0.05;
  Trace T = generateRandomTrace(Config);

  MiniLockSet Serial;
  replay(T, Serial);
  ASSERT_FALSE(Serial.warnings().empty()); // the sweep must exercise merge

  for (unsigned Shards : {2u, 4u, 8u}) {
    MiniLockSet Sharded;
    ParallelReplayOptions Options;
    Options.NumShards = Shards;
    ParallelReplayResult Result = parallelReplay(T, Sharded, Options);
    EXPECT_TRUE(Result.Sharded);
    ASSERT_EQ(Sharded.warnings().size(), Serial.warnings().size());
    for (size_t I = 0; I != Serial.warnings().size(); ++I) {
      EXPECT_EQ(Sharded.warnings()[I].Var, Serial.warnings()[I].Var);
      EXPECT_EQ(Sharded.warnings()[I].OpIndex, Serial.warnings()[I].OpIndex);
    }
  }
}
