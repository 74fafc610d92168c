//===--- FaultInjectionTest.cpp - kill, corrupt, starve -------------------===//
//
// Deterministic fault injection for the fault-tolerant replay pipeline:
//   - checkpoint/resume under injected kills, corrupt images, and
//     mismatched traces (framework/Checkpoint.h) — resumed runs must be
//     bit-identical to uninterrupted ones, invalid images must only ever
//     cost time;
//   - shadow-memory budgets (ShadowMemoryPolicy::BudgetBytes offered
//     through Tool::configureShadowPolicy) — a starved replay completes
//     with cold pages summarized, never missing a raced page region;
//   - a throwing tool member is quarantined by its group, offline.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "framework/Checkpoint.h"
#include "framework/ParallelReplay.h"
#include "framework/ToolGroup.h"
#include "runtime/FaultPlan.h"
#include "support/ByteStream.h"
#include "support/MemoryTracker.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"

#include "GovernanceTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

using namespace ft;

namespace {

/// A chaotic trace with enough events for several checkpoint intervals
/// and enough races for the warning comparisons to have teeth.
Trace makeRacyTrace(uint64_t Seed, unsigned OpsPerThread = 400) {
  RandomTraceConfig Config;
  Config.Seed = Seed;
  Config.NumThreads = 4;
  Config.NumVars = 64;
  Config.OpsPerThread = OpsPerThread;
  Config.ChaosProbability = 0.15;
  return generateRandomTrace(Config);
}

void expectSameWarnings(const std::vector<RaceWarning> &Expected,
                        const std::vector<RaceWarning> &Actual,
                        const char *Where) {
  ASSERT_EQ(Expected.size(), Actual.size()) << Where;
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(Expected[I].Var, Actual[I].Var) << Where << " #" << I;
    EXPECT_EQ(Expected[I].OpIndex, Actual[I].OpIndex) << Where << " #" << I;
    EXPECT_EQ(Expected[I].CurrentThread, Actual[I].CurrentThread)
        << Where << " #" << I;
    EXPECT_EQ(Expected[I].PriorThread, Actual[I].PriorThread)
        << Where << " #" << I;
    EXPECT_EQ(Expected[I].Detail, Actual[I].Detail) << Where << " #" << I;
  }
}

void expectSameRuleStats(const FastTrackRuleStats &A,
                         const FastTrackRuleStats &B, const char *Where) {
  EXPECT_EQ(A.ReadSameEpoch, B.ReadSameEpoch) << Where;
  EXPECT_EQ(A.ReadShared, B.ReadShared) << Where;
  EXPECT_EQ(A.ReadExclusive, B.ReadExclusive) << Where;
  EXPECT_EQ(A.ReadShare, B.ReadShare) << Where;
  EXPECT_EQ(A.WriteSameEpoch, B.WriteSameEpoch) << Where;
  EXPECT_EQ(A.WriteExclusive, B.WriteExclusive) << Where;
  EXPECT_EQ(A.WriteShared, B.WriteShared) << Where;
}

/// The strongest equality check available: the full serialized analysis
/// state σ = (C, L, R, W) plus rule counters, byte for byte.
std::string shadowImage(const FastTrack &Tool) {
  ByteWriter Writer;
  Tool.snapshotShadow(Writer);
  return std::string(Writer.bytes());
}

bool fileExists(const std::string &Path) {
  if (std::FILE *File = std::fopen(Path.c_str(), "rb")) {
    std::fclose(File);
    return true;
  }
  return false;
}

/// The CLI's --mem-budget path: offers the one budget knob through
/// configureShadowPolicy, then runs a plain replay.
ReplayResult replayUnderBudget(const Trace &T, FastTrack &Tool,
                               uint64_t BudgetBytes,
                               MemoryTracker *Tracker = nullptr) {
  ShadowMemoryPolicy Policy;
  Policy.Enabled = true;
  Policy.BudgetBytes = BudgetBytes;
  Policy.MaintainEveryAccesses = 32;
  Policy.ColdAgeTicks = 1;
  EXPECT_TRUE(Tool.configureShadowPolicy(Policy));
  ReplayOptions Options;
  Options.BudgetTracker = Tracker;
  Options.BudgetCheckEveryOps = 16;
  return replay(T, Tool, Options);
}

bool hasDiag(const std::vector<Diagnostic> &Diags, StatusCode Code) {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

} // namespace

TEST(Checkpoint, NoFileMatchesPlainReplay) {
  // With checkpointing disabled the driver must mirror replay() exactly.
  Trace T = makeRacyTrace(11);
  FastTrack Plain, Checkpointed;
  ReplayResult Reference = replay(T, Plain);
  CheckpointedReplayResult Result = replayCheckpointed(T, Checkpointed);
  EXPECT_TRUE(Result.St.ok());
  EXPECT_FALSE(Result.Resumed);
  EXPECT_EQ(Result.CheckpointsWritten, 0u);
  EXPECT_EQ(Result.Result.Events, Reference.Events);
  EXPECT_EQ(Result.Result.AccessesPassed, Reference.AccessesPassed);
  expectSameWarnings(Plain.warnings(), Checkpointed.warnings(), "no-file");
  expectSameRuleStats(Plain.ruleStats(), Checkpointed.ruleStats(), "no-file");
  EXPECT_EQ(shadowImage(Plain), shadowImage(Checkpointed));
}

TEST(Checkpoint, KillAndResumeIsBitIdentical) {
  Trace T = makeRacyTrace(12);
  FastTrack Reference;
  ReplayResult Uninterrupted = replay(T, Reference);

  const std::string Path = "fault_kill_resume.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;

  // Run 1: killed mid-trace. No end() hook fires, no state is flushed —
  // only the periodically renamed-into-place checkpoints survive.
  CheckpointOptions Crash = Ck;
  Crash.InjectCrashAfterOps = 500;
  FastTrack Victim;
  CheckpointedReplayResult Killed = replayCheckpointed(T, Victim, {}, Crash);
  EXPECT_EQ(Killed.St.code(), StatusCode::Cancelled);
  EXPECT_GT(Killed.CheckpointsWritten, 0u);
  EXPECT_LT(Killed.Result.StoppedAtOp, T.size());
  ASSERT_TRUE(fileExists(Path));

  // Run 2: a fresh process (fresh tool) resumes and finishes.
  FastTrack Survivor;
  CheckpointedReplayResult Resumed = replayCheckpointed(T, Survivor, {}, Ck);
  EXPECT_TRUE(Resumed.St.ok());
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_GT(Resumed.ResumedAtOp, 0u);
  EXPECT_EQ(Resumed.ResumedAtOp % Ck.EveryOps, 0u);

  EXPECT_EQ(Resumed.Result.Events, Uninterrupted.Events);
  EXPECT_EQ(Resumed.Result.AccessesPassed, Uninterrupted.AccessesPassed);
  expectSameWarnings(Reference.warnings(), Survivor.warnings(), "resume");
  expectSameRuleStats(Reference.ruleStats(), Survivor.ruleStats(), "resume");
  EXPECT_EQ(shadowImage(Reference), shadowImage(Survivor));

  // A completed run cleans up its checkpoint.
  EXPECT_FALSE(fileExists(Path));
}

TEST(Checkpoint, RepeatedKillsEventuallyComplete) {
  // A run that dies every 300 ops still finishes: each attempt resumes
  // from the last checkpoint and makes >= (300 - 64) ops of progress.
  Trace T = makeRacyTrace(13, /*OpsPerThread=*/500);
  FastTrack Reference;
  replay(T, Reference);

  const std::string Path = "fault_repeated_kills.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;
  Ck.InjectCrashAfterOps = 300;

  int Attempts = 0;
  FastTrack Final;
  for (; Attempts != 60; ++Attempts) {
    FastTrack Tool;
    CheckpointedReplayResult Result = replayCheckpointed(T, Tool, {}, Ck);
    if (Result.St.ok()) {
      expectSameWarnings(Reference.warnings(), Tool.warnings(), "repeated");
      expectSameRuleStats(Reference.ruleStats(), Tool.ruleStats(),
                          "repeated");
      EXPECT_EQ(shadowImage(Reference), shadowImage(Tool));
      break;
    }
    EXPECT_EQ(Result.St.code(), StatusCode::Cancelled);
  }
  EXPECT_GT(Attempts, 1);
  EXPECT_LT(Attempts, 60);
}

TEST(Checkpoint, CorruptImageIsIgnoredWithDiagnostic) {
  Trace T = makeRacyTrace(14);
  FastTrack Reference;
  replay(T, Reference);

  const std::string Path = "fault_corrupt.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;

  CheckpointOptions Crash = Ck;
  Crash.InjectCrashAfterOps = 400;
  FastTrack Victim;
  replayCheckpointed(T, Victim, {}, Crash);
  ASSERT_TRUE(fileExists(Path));

  // Flip one byte mid-image; the trailing checksum must catch it.
  {
    std::FILE *File = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(File, nullptr);
    std::fseek(File, 100, SEEK_SET);
    int C = std::fgetc(File);
    std::fseek(File, 100, SEEK_SET);
    std::fputc(C ^ 0x40, File);
    std::fclose(File);
  }

  FastTrack Tool;
  CheckpointedReplayResult Result = replayCheckpointed(T, Tool, {}, Ck);
  EXPECT_TRUE(Result.St.ok());
  EXPECT_FALSE(Result.Resumed);
  EXPECT_TRUE(hasDiag(Result.Diags, StatusCode::CheckpointError));
  expectSameWarnings(Reference.warnings(), Tool.warnings(), "corrupt");
  EXPECT_EQ(shadowImage(Reference), shadowImage(Tool));
}

TEST(Checkpoint, WrongTraceIsRejectedByFingerprint) {
  Trace A = makeRacyTrace(15);
  Trace B = makeRacyTrace(16);
  FastTrack ReferenceB;
  replay(B, ReferenceB);

  const std::string Path = "fault_wrong_trace.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;

  CheckpointOptions Crash = Ck;
  Crash.InjectCrashAfterOps = 400;
  FastTrack Victim;
  replayCheckpointed(A, Victim, {}, Crash);
  ASSERT_TRUE(fileExists(Path));

  // Resuming trace B against A's checkpoint must start B from scratch.
  FastTrack Tool;
  CheckpointedReplayResult Result = replayCheckpointed(B, Tool, {}, Ck);
  EXPECT_TRUE(Result.St.ok());
  EXPECT_FALSE(Result.Resumed);
  EXPECT_TRUE(hasDiag(Result.Diags, StatusCode::CheckpointError));
  expectSameWarnings(ReferenceB.warnings(), Tool.warnings(), "wrong-trace");
  EXPECT_EQ(shadowImage(ReferenceB), shadowImage(Tool));
}

TEST(Checkpoint, ConfigMismatchIsRejectedByFingerprint) {
  // Same trace, different granularity: the shadow layouts are
  // incompatible, so the fingerprint must differ.
  Trace T = makeRacyTrace(17);
  const std::string Path = "fault_config_mismatch.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;

  CheckpointOptions Crash = Ck;
  Crash.InjectCrashAfterOps = 400;
  FastTrack Victim;
  replayCheckpointed(T, Victim, {}, Crash);
  ASSERT_TRUE(fileExists(Path));

  ReplayOptions Coarse;
  Coarse.Gran = Granularity::Coarse;
  FastTrack CoarseReference;
  replay(T, CoarseReference, Coarse);
  FastTrack Tool;
  CheckpointedReplayResult Result = replayCheckpointed(T, Tool, Coarse, Ck);
  EXPECT_TRUE(Result.St.ok());
  EXPECT_FALSE(Result.Resumed);
  EXPECT_TRUE(hasDiag(Result.Diags, StatusCode::CheckpointError));
  expectSameWarnings(CoarseReference.warnings(), Tool.warnings(),
                     "config-mismatch");
  std::remove(Path.c_str());
}

namespace {

/// A tool without checkpoint support (no ShardableTool base at all).
class PlainCounter : public Tool {
public:
  const char *name() const override { return "PlainCounter"; }
  bool onRead(ThreadId, VarId, size_t) override {
    ++Reads;
    return true;
  }
  uint64_t Reads = 0;
};

} // namespace

TEST(Checkpoint, NonCheckpointableToolDegradesGracefully) {
  Trace T = makeRacyTrace(18);
  const std::string Path = "fault_unsupported.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 64;

  PlainCounter Tool;
  CheckpointedReplayResult Result = replayCheckpointed(T, Tool, {}, Ck);
  EXPECT_TRUE(Result.St.ok());
  EXPECT_TRUE(hasDiag(Result.Diags, StatusCode::CheckpointError));
  EXPECT_EQ(Result.CheckpointsWritten, 0u);
  EXPECT_FALSE(fileExists(Path));
  EXPECT_GT(Tool.Reads, 0u); // the replay itself still ran
}

TEST(Governor, BudgetBreachDegradesAndCompletes) {
  // Starve a governed replay: the table must summarize cold pages and
  // finish, never die, and never lose a raced page region.
  Trace T = governanceTrace(19);
  ASSERT_GT(T.numVars(), ShadowEagerVarLimit); // paged, so governable
  FastTrack Tool;
  MemoryTracker Tracker;
  ReplayResult Result = replayUnderBudget(T, Tool, 8 * 1024, &Tracker);
  EXPECT_EQ(Result.StoppedAtOp, T.size());
  EXPECT_GE(Tool.shadowGovernorStats().BudgetTrips, 1u);
  EXPECT_GT(Tool.shadowGovernorStats().PagesSummarized, 0u);
  EXPECT_GT(Tracker.peakBytes(), 0u);

  // Coarsened to the page region, never missing: every page region the
  // ungoverned run warns on is warned by the governed run too.
  FastTrack Reference;
  replay(T, Reference);
  ASSERT_FALSE(Reference.warnings().empty());
  std::vector<VarId> Regions;
  for (const RaceWarning &W : Tool.warnings())
    Regions.push_back(W.Var >> ShadowPageShift);
  std::sort(Regions.begin(), Regions.end());
  for (const RaceWarning &W : Reference.warnings())
    EXPECT_TRUE(std::binary_search(Regions.begin(), Regions.end(),
                                   W.Var >> ShadowPageShift))
        << "race on x" << W.Var << " lost from its page region";
}

TEST(Governor, UnlimitedBudgetNeverDegrades) {
  // Governance without a budget only compresses, losslessly.
  Trace T = governanceTrace(20);
  FastTrack Governed, Plain;
  replayUnderBudget(T, Governed, 0);
  replay(T, Plain);
  EXPECT_EQ(Governed.shadowGovernorStats().BudgetTrips, 0u);
  EXPECT_EQ(Governed.shadowGovernorStats().PagesSummarized, 0u);
  expectSameWarnings(Plain.warnings(), Governed.warnings(), "unlimited");
}

TEST(Governor, AmpleBudgetStaysFine) {
  Trace T = governanceTrace(21);
  FastTrack Governed, Plain;
  replayUnderBudget(T, Governed, 1ull << 30);
  replay(T, Plain);
  EXPECT_EQ(Governed.shadowGovernorStats().BudgetTrips, 0u);
  EXPECT_EQ(Governed.shadowGovernorStats().PagesSummarized, 0u);
  expectSameWarnings(Plain.warnings(), Governed.warnings(), "ample");
}

TEST(Replay, BudgetTrackerObservesPeakWithoutBudget) {
  Trace T = makeRacyTrace(23);
  FastTrack Tool;
  MemoryTracker Tracker;
  ReplayOptions Options;
  Options.BudgetTracker = &Tracker;
  Options.BudgetCheckEveryOps = 16;
  ReplayResult Result = replay(T, Tool, Options);
  EXPECT_EQ(Result.StoppedAtOp, T.size());
  EXPECT_GT(Tracker.peakBytes(), 0u);
}

TEST(Quarantine, ThrowingMemberIsIsolatedSiblingsKeepDetecting) {
  // A composition survives one member throwing mid-stream: the group
  // quarantines it at the faulting op and the healthy sibling's verdicts
  // are exactly what it would have produced running alone.
  Trace T = makeRacyTrace(26);
  FastTrack Reference;
  replay(T, Reference);

  FastTrack Healthy, Victim;
  ft::runtime::ThrowAfterTool Bomb(Victim, 50);
  ToolGroup Group({&Healthy, &Bomb});
  ReplayResult Result = replay(T, Group);

  EXPECT_EQ(Result.Events, T.size()); // the replay itself never aborted
  EXPECT_FALSE(Group.quarantined(0));
  EXPECT_TRUE(Group.quarantined(1));
  EXPECT_EQ(Group.activeMembers(), 1u);
  ASSERT_EQ(Group.diags().size(), 1u);
  EXPECT_EQ(Group.diags()[0].Code, StatusCode::ToolFault);
  EXPECT_NE(Group.diags()[0].OpIndex, NoOpIndex);
  expectSameWarnings(Reference.warnings(), Healthy.warnings(), "quarantine");
  expectSameRuleStats(Reference.ruleStats(), Healthy.ruleStats(),
                      "quarantine");
  // The group adopted the surviving member's warnings.
  expectSameWarnings(Reference.warnings(), Group.warnings(), "group-adopt");
}

TEST(Quarantine, HealthyGroupMatchesSoloRunExactly) {
  Trace T = makeRacyTrace(27);
  FastTrack Reference;
  replay(T, Reference);

  FastTrack A, B;
  ToolGroup Group({&A, &B});
  replay(T, Group);
  EXPECT_EQ(Group.activeMembers(), 2u);
  EXPECT_TRUE(Group.diags().empty());
  expectSameWarnings(Reference.warnings(), A.warnings(), "group-a");
  expectSameWarnings(Reference.warnings(), B.warnings(), "group-b");
}

TEST(Quarantine, GroupWithEveryMemberDeadStillCompletes) {
  Trace T = makeRacyTrace(28);
  FastTrack Victim;
  ft::runtime::ThrowAfterTool Bomb(Victim, 0); // first access throws
  ToolGroup Group({&Bomb});
  ReplayResult Result = replay(T, Group);
  EXPECT_EQ(Result.Events, T.size());
  EXPECT_EQ(Group.activeMembers(), 0u);
  EXPECT_TRUE(Group.warnings().empty());
}

TEST(Replay, FourShardRunMatchesSerial) {
  Trace T = makeRacyTrace(25);
  FastTrack Reference;
  replay(T, Reference);

  FastTrack Tool;
  ParallelReplayOptions Options;
  Options.NumShards = 4;
  ParallelReplayResult Result = parallelReplay(T, Tool, Options);
  EXPECT_TRUE(Result.Sharded);
  expectSameWarnings(Reference.warnings(), Tool.warnings(), "healthy");
}

TEST(Checkpoint, TidReuseTraceResumesBitIdentical) {
  // Crash-and-resume over a trace whose tids carry several lifetimes
  // (the online engine's recycled slots, replayed offline): the clock
  // snapshot must carry each slot's dead-lifetime clock across the
  // crash, or the resumed replay would mis-order stale epochs against
  // later incarnations. The bystander thread 3 is concurrent with every
  // lifetime, so genuine races cross the checkpoint boundary too.
  TraceBuilder B;
  B.fork(0, 3);
  for (int I = 0; I != 30; ++I) {
    B.fork(0, 1).wr(1, 0).rd(1, 1).join(0, 1);
    if (I % 5 == 0)
      B.wr(3, 0); // no edge to tid 1's incarnations: races
    B.fork(0, 2).rd(2, 1).wr(2, 1).join(0, 2);
  }
  B.join(0, 3);
  Trace T = B.take();

  FastTrack Reference;
  ReplayResult Uninterrupted = replay(T, Reference);
  EXPECT_FALSE(Reference.warnings().empty());

  const std::string Path = "fault_tid_reuse.ckpt";
  std::remove(Path.c_str());
  CheckpointOptions Ck;
  Ck.Path = Path;
  Ck.EveryOps = 32; // lands mid-incarnation repeatedly

  CheckpointOptions Crash = Ck;
  Crash.InjectCrashAfterOps = 120;
  FastTrack Victim;
  CheckpointedReplayResult Killed = replayCheckpointed(T, Victim, {}, Crash);
  EXPECT_EQ(Killed.St.code(), StatusCode::Cancelled);
  ASSERT_TRUE(fileExists(Path));

  FastTrack Survivor;
  CheckpointedReplayResult Resumed = replayCheckpointed(T, Survivor, {}, Ck);
  EXPECT_TRUE(Resumed.St.ok());
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_EQ(Resumed.Result.Events, Uninterrupted.Events);
  expectSameWarnings(Reference.warnings(), Survivor.warnings(), "tid reuse");
  expectSameRuleStats(Reference.ruleStats(), Survivor.ruleStats(),
                      "tid reuse");
  EXPECT_EQ(shadowImage(Reference), shadowImage(Survivor));
  EXPECT_FALSE(fileExists(Path));
}

TEST(Checkpoint, TrackerSampledLikeReplay) {
  // The checkpointed replay runs replay()'s loop and samples the tracker
  // at the same ops, also when its checkpoint writes fall between them.
  Trace T = makeRacyTrace(29);
  ReplayOptions Options;
  Options.BudgetCheckEveryOps = 16;

  FastTrack Plain;
  MemoryTracker PlainTracker;
  Options.BudgetTracker = &PlainTracker;
  replay(T, Plain, Options);
  EXPECT_GT(PlainTracker.peakBytes(), 0u);

  for (uint64_t EveryOps : {uint64_t(0), uint64_t(37)}) {
    const std::string Path = "fault_tracker.ckpt";
    std::remove(Path.c_str());
    CheckpointOptions Ck;
    Ck.Path = EveryOps ? Path : "";
    Ck.EveryOps = EveryOps;
    FastTrack Checkpointed;
    MemoryTracker Tracker;
    Options.BudgetTracker = &Tracker;
    CheckpointedReplayResult Result =
        replayCheckpointed(T, Checkpointed, Options, Ck);
    EXPECT_TRUE(Result.St.ok());
    EXPECT_EQ(Tracker.peakBytes(), PlainTracker.peakBytes()) << EveryOps;
    // The last sample is the same one: before the last multiple of 16.
    EXPECT_EQ(Tracker.liveBytes(), PlainTracker.liveBytes()) << EveryOps;
  }
}

TEST(Checkpoint, ResumeAtEveryCutMatchesReplay) {
  // Kill after every possible op count, then resume: the result must be
  // replay()'s whatever segment boundary the kill and the checkpoints
  // fall on — inside a nested re-entrant lock, between the fields of one
  // coarse object, or on the last op.
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  for (VarId X = 0; X != 4; ++X) {
    B.acq(1, 0).acq(1, 0).wr(1, X).acq(1, 1).rd(1, X + 1).rel(1, 1);
    B.rel(1, 0).wr(1, X + 4).rel(1, 0);
    B.acq(2, 1).acq(2, 1).rd(2, X + 4).rel(2, 1).wr(2, X).rel(2, 1);
  }
  B.join(0, 1).join(0, 2).wr(0, 3);
  Trace T = B.take();

  ReplayOptions Options;
  Options.Gran = Granularity::Coarse;
  Options.DefaultFieldsPerObject = 2;
  FastTrack Reference;
  ReplayResult Uninterrupted = replay(T, Reference, Options);
  ASSERT_FALSE(Reference.warnings().empty());
  ASSERT_LT(Uninterrupted.Events, T.size()); // the filter stripped some

  const std::string Path = "fault_every_cut.ckpt";
  const size_t E = T.size();
  for (uint64_t EveryOps : {uint64_t(1), uint64_t(7)}) {
    for (size_t K = 1; K <= E; ++K) {
      std::remove(Path.c_str());
      CheckpointOptions Ck;
      Ck.Path = Path;
      Ck.EveryOps = EveryOps;
      CheckpointOptions Crash = Ck;
      Crash.InjectCrashAfterOps = K;
      FastTrack Victim;
      CheckpointedReplayResult Killed =
          replayCheckpointed(T, Victim, Options, Crash);
      ASSERT_EQ(Killed.St.code(), StatusCode::Cancelled) << K;
      EXPECT_EQ(Killed.Result.StoppedAtOp, K);

      // Images are cut at every multiple of EveryOps short of the end.
      uint64_t LastCut = K / EveryOps * EveryOps;
      if (LastCut == E)
        LastCut -= EveryOps;
      EXPECT_EQ(Killed.CheckpointsWritten, LastCut / EveryOps) << K;

      FastTrack Survivor;
      CheckpointedReplayResult Resumed =
          replayCheckpointed(T, Survivor, Options, Ck);
      ASSERT_TRUE(Resumed.St.ok()) << K;
      EXPECT_EQ(Resumed.Resumed, LastCut != 0) << K;
      EXPECT_EQ(Resumed.ResumedAtOp, LastCut) << K;
      EXPECT_EQ(Resumed.Result.StoppedAtOp, E);
      EXPECT_EQ(Resumed.Result.Events, Uninterrupted.Events) << K;
      EXPECT_EQ(Resumed.Result.AccessesPassed, Uninterrupted.AccessesPassed)
          << K;
      expectSameWarnings(Reference.warnings(), Survivor.warnings(),
                         "every cut");
      EXPECT_EQ(shadowImage(Reference), shadowImage(Survivor)) << K;
    }
  }
  std::remove(Path.c_str());
}
