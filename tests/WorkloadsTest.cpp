//===--- WorkloadsTest.cpp - the 16 benchmark analogues + Eclipse ops -----===//
//
// Validates each synthetic workload's ground truth: feasibility, oracle-
// verified race content, the warning behaviour of every detector (the
// right column of Table 1), and the operation mix the generators were
// calibrated to.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/BasicVC.h"
#include "detectors/DjitPlus.h"
#include "detectors/Eraser.h"
#include "detectors/Goldilocks.h"
#include "detectors/MultiRace.h"
#include "framework/Replay.h"
#include "hb/RaceOracle.h"
#include "trace/TraceStats.h"
#include "trace/TraceValidator.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ft;

namespace {

/// Small size factor: tests need speed, not volume.
constexpr double TestFactor = 0.04;

size_t warningsOf(Tool &Checker, const Trace &T) {
  replay(T, Checker);
  return Checker.warnings().size();
}

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &workload() const { return benchmarkSuite()[GetParam()]; }
};

TEST_P(WorkloadSuite, TracesAreFeasible) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  auto Violations = validateTrace(T);
  ASSERT_TRUE(Violations.empty())
      << W.Name << ": " << (Violations.empty() ? "" : Violations[0].Message);
  EXPECT_EQ(T.numThreads(), W.Workers + 1) << W.Name;
}

TEST_P(WorkloadSuite, DeterministicPerSeed) {
  const Workload &W = workload();
  Trace A = W.Generate(11, TestFactor);
  Trace B = W.Generate(11, TestFactor);
  ASSERT_EQ(A.size(), B.size()) << W.Name;
  for (size_t I = 0; I != A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << W.Name << " op " << I;
}

TEST_P(WorkloadSuite, OracleConfirmsGroundTruthRaceCount) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  EXPECT_EQ(racyVars(T).size(), W.RealRacyVars) << W.Name;
}

TEST_P(WorkloadSuite, LinearOracleMatchesRacyVars) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  EXPECT_EQ(racyVarsLinear(T), racyVars(T)) << W.Name;
}

TEST_P(WorkloadSuite, FastTrackFindsExactlyTheRealRaces) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  FastTrack Ft;
  EXPECT_EQ(warningsOf(Ft, T), W.RealRacyVars) << W.Name;
}

TEST_P(WorkloadSuite, PreciseVcDetectorsAgree) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  DjitPlus Djit;
  BasicVC Basic;
  EXPECT_EQ(warningsOf(Djit, T), W.RealRacyVars) << W.Name;
  EXPECT_EQ(warningsOf(Basic, T), W.RealRacyVars) << W.Name;
}

TEST_P(WorkloadSuite, EraserWarningsMatchTable1) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  Eraser E;
  replay(T, E);
  // Eraser reports its false alarms plus the subset of real races its
  // state machine can see (it misses silent write->read hand-offs: two
  // of the hedc races and one of the jbb races).
  unsigned Missed = W.Name == "hedc" ? 2 : W.Name == "jbb" ? 1 : 0;
  EXPECT_EQ(E.warnings().size(),
            W.ExpectedEraserFalseAlarms + W.RealRacyVars - Missed)
      << W.Name;
}

TEST_P(WorkloadSuite, GoldilocksUnsoundFastPathMissesHandoffs) {
  const Workload &W = workload();
  Trace T = W.Generate(7, TestFactor);
  Goldilocks Fast(/*UnsoundThreadLocal=*/true);
  unsigned Missed = W.Name == "hedc" ? 3 : W.Name == "jbb" ? 1 : 0;
  EXPECT_EQ(warningsOf(Fast, T), W.RealRacyVars - Missed) << W.Name;

  Goldilocks Sound(/*UnsoundThreadLocal=*/false);
  EXPECT_EQ(warningsOf(Sound, T), W.RealRacyVars) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::Range<size_t>(0, benchmarkSuite().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });

TEST(WorkloadRegistry, SuiteMatchesPaperRowOrderAndTotals) {
  const auto &Suite = benchmarkSuite();
  ASSERT_EQ(Suite.size(), 16u);
  EXPECT_EQ(Suite.front().Name, "colt");
  EXPECT_EQ(Suite.back().Name, "jbb");
  unsigned TotalReal = 0, TotalEraserFalse = 0, NotComputeBound = 0;
  for (const Workload &W : Suite) {
    TotalReal += W.RealRacyVars;
    TotalEraserFalse += W.ExpectedEraserFalseAlarms;
    NotComputeBound += !W.ComputeBound;
  }
  EXPECT_EQ(TotalReal, 8u);        // FastTrack column total in Table 1
  EXPECT_EQ(NotComputeBound, 4u);  // elevator, philo, hedc, jbb
  // Eraser column total is 27 = false alarms + real races it sees (8-3).
  EXPECT_EQ(TotalEraserFalse + TotalReal - 3, 27u);
}

TEST(WorkloadRegistry, FindWorkloadByName) {
  EXPECT_NE(findWorkload("tsp"), nullptr);
  EXPECT_NE(findWorkload("eclipse-debug"), nullptr);
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(WorkloadMix, AggregateOperationMixApproximatesFigure2) {
  // The paper reports 82.3 % reads / 14.5 % writes / 3.3 % sync across
  // its benchmarks; the generators were calibrated to stay in the same
  // regime (read-dominated, sync rare).
  uint64_t Reads = 0, Writes = 0, Sync = 0, Total = 0;
  for (const Workload &W : benchmarkSuite()) {
    Trace T = W.Generate(3, TestFactor);
    TraceStats Stats = computeStats(T);
    Reads += Stats.Reads;
    Writes += Stats.Writes;
    Sync += Stats.syncOps();
    Total += Stats.total();
  }
  double ReadPct = 100.0 * Reads / Total;
  double WritePct = 100.0 * Writes / Total;
  double SyncPct = 100.0 * Sync / Total;
  EXPECT_GT(ReadPct, 55.0);
  EXPECT_LT(WritePct, 42.0);
  EXPECT_LT(SyncPct, 12.0);
}

class EclipseSuite : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &op() const { return eclipseOperations()[GetParam()]; }
};

TEST_P(EclipseSuite, FeasibleAndTwentyFourThreaded) {
  const Workload &W = op();
  Trace T = W.Generate(5, 0.2);
  EXPECT_TRUE(isFeasible(T)) << W.Name;
  EXPECT_EQ(T.numThreads(), 25u) << W.Name; // 24 workers + main
}

TEST_P(EclipseSuite, FastTrackWarningsAreTheRealRaces) {
  const Workload &W = op();
  Trace T = W.Generate(5, 1.0);
  FastTrack Ft;
  size_t FtWarnings = warningsOf(Ft, T);
  EXPECT_EQ(FtWarnings, W.RealRacyVars) << W.Name;

  // Eraser drowns the real warnings in spurious ones (the 960-vs-30
  // contrast of Section 5.3).
  Eraser E;
  size_t EraserWarnings = warningsOf(E, T);
  EXPECT_GT(EraserWarnings, 10 * FtWarnings) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EclipseSuite,
    ::testing::Range<size_t>(0, eclipseOperations().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = eclipseOperations()[Info.param].Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(EclipseRegistry, ThirtyRealRacesAcrossTheFiveOps) {
  unsigned Total = 0;
  for (const Workload &W : eclipseOperations())
    Total += W.RealRacyVars;
  EXPECT_EQ(Total, 30u); // "FASTTRACK reported 30 distinct warnings"
}
