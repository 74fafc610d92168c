//===--- ParallelReplayTest.cpp - sharded replay determinism --------------===//
//
// The contract of parallelReplay (docs/ARCHITECTURE.md, "Sharded
// replay"): for any shard count, any shardable tool, and any feasible
// trace, the merged result is bit-identical to serial replay() — the
// same warnings in the same order with the same fields, the same rule
// counters, the same event and pass counts. These tests enforce that
// contract over seeded RandomTrace sweeps (including chaotic, racy
// configurations), the MiniConc example-program corpus and both
// granularity modes — plus the event accounting under re-entrant lock
// filtering and the shard-count cap.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "core/ToolRegistry.h"
#include "detectors/BasicVC.h"
#include "detectors/DjitPlus.h"
#include "detectors/Eraser.h"
#include "framework/ParallelReplay.h"
#include "lang/Interp.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ft;

#ifndef FT_CORPUS_DIR
#error "FT_CORPUS_DIR must point at examples/programs"
#endif

namespace {

const unsigned ShardCounts[] = {1, 2, 3, 4, 8};

/// Full-field warning equality; EXPECTs with a context label on mismatch.
void expectSameWarnings(const std::vector<RaceWarning> &Serial,
                        const std::vector<RaceWarning> &Sharded,
                        const std::string &Label) {
  ASSERT_EQ(Serial.size(), Sharded.size()) << Label;
  for (size_t I = 0; I != Serial.size(); ++I) {
    const RaceWarning &A = Serial[I], &B = Sharded[I];
    EXPECT_EQ(A.Var, B.Var) << Label << " warning " << I;
    EXPECT_EQ(A.OpIndex, B.OpIndex) << Label << " warning " << I;
    EXPECT_EQ(A.CurrentThread, B.CurrentThread) << Label << " warning " << I;
    EXPECT_EQ(A.CurrentKind, B.CurrentKind) << Label << " warning " << I;
    EXPECT_EQ(A.PriorThread, B.PriorThread) << Label << " warning " << I;
    EXPECT_EQ(A.PriorKind, B.PriorKind) << Label << " warning " << I;
    EXPECT_EQ(A.Detail, B.Detail) << Label << " warning " << I;
  }
}

/// Replays \p T through registry tool \p Name serially and with every
/// shard count, asserting identical warnings and bookkeeping throughout.
/// \returns the serial warning count (so callers can assert racy-ness).
size_t expectDeterministic(const Trace &T, const std::string &Name,
                           const std::string &Label,
                           const ReplayOptions &Replay = ReplayOptions()) {
  auto Serial = createTool(Name);
  EXPECT_TRUE(Serial) << Name;
  if (!Serial)
    return 0;
  ReplayResult Reference = replay(T, *Serial, Replay);

  for (unsigned Shards : ShardCounts) {
    std::string Where = Label + " [" + Name + " @" +
                        std::to_string(Shards) + " shards]";
    auto Checker = createTool(Name);
    ParallelReplayOptions Options;
    Options.Replay = Replay;
    Options.NumShards = Shards;
    ParallelReplayResult Result = parallelReplay(T, *Checker, Options);

    expectSameWarnings(Serial->warnings(), Checker->warnings(), Where);
    EXPECT_EQ(Reference.Events, Result.Total.Events) << Where;
    EXPECT_EQ(Reference.AccessesPassed, Result.Total.AccessesPassed) << Where;
    EXPECT_EQ(Serial->warnings().size(), Result.Total.NumWarnings) << Where;
    // Shards > 1 must actually engage the sharded engine for these tools.
    EXPECT_EQ(Shards > 1 && !T.empty(), Result.Sharded) << Where;
  }
  return Serial->warnings().size();
}

/// A chaotic (racy) configuration in the shape of the paper's benchmarks:
/// undisciplined accesses, barriers, volatiles, and access bursts.
RandomTraceConfig chaoticConfig(uint64_t Seed) {
  RandomTraceConfig Config;
  Config.Seed = Seed;
  Config.NumThreads = 8;
  Config.NumVars = 64;
  Config.NumLocks = 4;
  Config.NumVolatiles = 3;
  Config.OpsPerThread = 400;
  Config.ChaosProbability = 0.05;
  Config.BarrierProbability = 0.01;
  Config.MaxAccessBurst = 3;
  return Config;
}

std::string readFileOrEmpty(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return {};
  std::string Text;
  char Buf[1 << 14];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Text.append(Buf, Got);
  std::fclose(File);
  return Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism: every shardable tool, random traces
//===----------------------------------------------------------------------===//

TEST(ParallelReplay, MatchesSerialOnRandomTraces) {
  size_t TotalWarnings = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Trace T = generateRandomTrace(chaoticConfig(Seed));
    std::string Label = "chaotic seed " + std::to_string(Seed);
    for (const char *Name :
         {"fasttrack", "fasttrack64", "djit+", "basicvc", "eraser"})
      TotalWarnings += expectDeterministic(T, Name, Label);
  }
  // The sweep must exercise the warning-merge path, not just clean runs.
  EXPECT_GT(TotalWarnings, 0u);
}

TEST(ParallelReplay, MatchesSerialOnRaceFreeTraces) {
  RandomTraceConfig Config = chaoticConfig(11);
  Config.ChaosProbability = 0.0; // disciplined: provably race-free
  Trace T = generateRandomTrace(Config);
  for (const char *Name : {"fasttrack", "djit+", "basicvc"})
    EXPECT_EQ(expectDeterministic(T, Name, "race-free"), 0u);
}

TEST(ParallelReplay, RuleCountersFoldExactly) {
  Trace T = generateRandomTrace(chaoticConfig(3));

  FastTrack SerialFT;
  replay(T, SerialFT);
  DjitPlus SerialDjit;
  replay(T, SerialDjit);

  for (unsigned Shards : ShardCounts) {
    ParallelReplayOptions Options;
    Options.NumShards = Shards;

    FastTrack ShardedFT;
    parallelReplay(T, ShardedFT, Options);
    const FastTrackRuleStats &A = SerialFT.ruleStats();
    const FastTrackRuleStats &B = ShardedFT.ruleStats();
    EXPECT_EQ(A.ReadSameEpoch, B.ReadSameEpoch) << Shards;
    EXPECT_EQ(A.ReadShared, B.ReadShared) << Shards;
    EXPECT_EQ(A.ReadExclusive, B.ReadExclusive) << Shards;
    EXPECT_EQ(A.ReadShare, B.ReadShare) << Shards;
    EXPECT_EQ(A.WriteSameEpoch, B.WriteSameEpoch) << Shards;
    EXPECT_EQ(A.WriteExclusive, B.WriteExclusive) << Shards;
    EXPECT_EQ(A.WriteShared, B.WriteShared) << Shards;

    DjitPlus ShardedDjit;
    parallelReplay(T, ShardedDjit, Options);
    const DjitRuleStats &C = SerialDjit.ruleStats();
    const DjitRuleStats &D = ShardedDjit.ruleStats();
    EXPECT_EQ(C.ReadSameEpoch, D.ReadSameEpoch) << Shards;
    EXPECT_EQ(C.ReadGeneral, D.ReadGeneral) << Shards;
    EXPECT_EQ(C.WriteSameEpoch, D.WriteSameEpoch) << Shards;
    EXPECT_EQ(C.WriteGeneral, D.WriteGeneral) << Shards;
  }
}

TEST(ParallelReplay, CoarseGranularityMatchesSerial) {
  Trace T = generateRandomTrace(chaoticConfig(7));
  ReplayOptions Coarse;
  Coarse.Gran = Granularity::Coarse;
  Coarse.DefaultFieldsPerObject = 4;
  for (const char *Name : {"fasttrack", "eraser"})
    expectDeterministic(T, Name, "coarse granularity", Coarse);
}

//===----------------------------------------------------------------------===//
// Serial fallback
//===----------------------------------------------------------------------===//

TEST(ParallelReplay, NonShardableToolFallsBackToSerial) {
  Trace T = generateRandomTrace(chaoticConfig(2));

  // Order-sensitive tools (Goldilocks streams a global event list) never
  // implement ShardableTool; the engine must run them serially and still
  // produce their usual result.
  auto Reference = createTool("goldilocks");
  ASSERT_TRUE(Reference);
  ASSERT_EQ(dynamic_cast<ShardableTool *>(Reference.get()), nullptr);
  replay(T, *Reference);

  auto Checker = createTool("goldilocks");
  ParallelReplayOptions Options;
  Options.NumShards = 8;
  ParallelReplayResult Result = parallelReplay(T, *Checker, Options);
  EXPECT_FALSE(Result.Sharded);
  expectSameWarnings(Reference->warnings(), Checker->warnings(),
                     "goldilocks fallback");
}

TEST(ParallelReplay, OneShardAndEmptyTracesFallBack) {
  Trace T = generateRandomTrace(chaoticConfig(1));
  FastTrack Checker;
  ParallelReplayOptions Options;
  Options.NumShards = 1;
  EXPECT_FALSE(parallelReplay(T, Checker, Options).Sharded);

  Trace Empty;
  FastTrack Checker2;
  Options.NumShards = 4;
  EXPECT_FALSE(parallelReplay(Empty, Checker2, Options).Sharded);
}

//===----------------------------------------------------------------------===//
// Corpus programs (end-to-end through the MiniConc pipeline)
//===----------------------------------------------------------------------===//

TEST(ParallelReplay, MatchesSerialOnCorpusPrograms) {
  const char *Programs[] = {"philosophers.mc", "bounded_buffer.mc",
                            "stencil.mc", "readers_writer.mc",
                            "double_checked.mc"};
  size_t TotalWarnings = 0;
  for (const char *Program : Programs) {
    std::string Source =
        readFileOrEmpty(std::string(FT_CORPUS_DIR) + "/" + Program);
    ASSERT_FALSE(Source.empty()) << Program;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      std::vector<lang::Diag> Diags;
      lang::InterpOptions Options;
      Options.Seed = Seed;
      lang::InterpResult Run = lang::runSource(Source, Diags, Options);
      ASSERT_TRUE(Diags.empty() && Run.Ok) << Program;
      std::string Label =
          std::string(Program) + " seed " + std::to_string(Seed);
      for (const char *Name : {"fasttrack", "eraser"})
        TotalWarnings += expectDeterministic(Run.EventTrace, Name, Label);
    }
  }
  EXPECT_GT(TotalWarnings, 0u); // double_checked.mc races on some seeds
}

//===----------------------------------------------------------------------===//
// Event accounting and the shard-count cap
//===----------------------------------------------------------------------===//

TEST(ParallelReplay, ReentrantLockOpsAreFiltered) {
  Trace T = TraceBuilder()
                .acq(0, 0)
                .acq(0, 0) // re-entrant: filtered
                .wr(0, 0)
                .rel(0, 0) // inner release: filtered
                .rel(0, 0)
                .take();
  for (bool Filter : {true, false}) {
    ReplayOptions Replay;
    Replay.FilterReentrantLocks = Filter;
    FastTrack Serial;
    ReplayResult Reference = replay(T, Serial, Replay);
    EXPECT_EQ(Reference.Events, Filter ? 3u : 5u);
    for (unsigned Shards : {2u, 4u}) {
      FastTrack Checker;
      ParallelReplayOptions Options;
      Options.Replay = Replay;
      Options.NumShards = Shards;
      ParallelReplayResult Result = parallelReplay(T, Checker, Options);
      EXPECT_TRUE(Result.Sharded) << Shards;
      EXPECT_EQ(Result.Total.Events, Reference.Events)
          << "filter " << Filter << " @" << Shards;
    }
  }
}

TEST(ParallelReplay, ShardCountIsCapped) {
  Trace T = generateRandomTrace(chaoticConfig(9));
  FastTrack Serial;
  replay(T, Serial);
  ASSERT_FALSE(Serial.warnings().empty());

  FastTrack Checker;
  ParallelReplayOptions Options;
  Options.NumShards = MaxShards + 1;
  ParallelReplayResult Result = parallelReplay(T, Checker, Options);
  EXPECT_TRUE(Result.Sharded);
  EXPECT_EQ(Result.Shards, 64u);
  EXPECT_EQ(Result.ShardSeconds.size(), 64u);
  expectSameWarnings(Serial.warnings(), Checker.warnings(), "capped");
}
