//===--- OnlineResilienceTest.cpp - overload, stalls, quarantine ----------===//
//
// The tentpole contracts of the overload-resilient runtime, each driven
// by a FaultPlan or by a tool handler the test blocks or slows
// (BlockingTool.h):
//
//  - a ring-full storm drops and counts parked accesses at emit instead
//    of halting or stepping the ladder, application threads stay bounded
//    by the park deadline, and the delivered subsequence still replays to
//    identical warnings;
//  - a stall — a handler that does not return — is answered in two steps:
//    the first deadline drops and counts parked accesses, a second in a
//    row halts detection, which frees producers parked on sync events.
//    Every application thread finishes while the handler is still
//    blocked, at one shard and at four; a handler that is only slow
//    misses one deadline and halts nothing;
//  - a tool that throws inside a ToolGroup is quarantined while its
//    siblings keep detecting; a tool that throws with no group around it
//    halts the driver with a ToolFault and post-halt drops are counted
//    per thread.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/Eraser.h"
#include "framework/Replay.h"
#include "framework/ToolGroup.h"
#include "runtime/FaultPlan.h"
#include "runtime/Instrument.h"
#include "support/Stopwatch.h"
#include "trace/TraceValidator.h"

#include "BlockingTool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace ft;
namespace rt = ft::runtime;

namespace {

void expectSameWarnings(const std::vector<RaceWarning> &Online,
                        const std::vector<RaceWarning> &Offline) {
  ASSERT_EQ(Online.size(), Offline.size());
  for (size_t I = 0; I != Online.size(); ++I) {
    EXPECT_EQ(Online[I].Var, Offline[I].Var) << "warning " << I;
    EXPECT_EQ(Online[I].OpIndex, Offline[I].OpIndex) << "warning " << I;
    EXPECT_EQ(Online[I].CurrentThread, Offline[I].CurrentThread);
    EXPECT_EQ(Online[I].CurrentKind, Offline[I].CurrentKind);
    EXPECT_EQ(Online[I].PriorThread, Offline[I].PriorThread);
    EXPECT_EQ(Online[I].PriorKind, Offline[I].PriorKind);
    EXPECT_EQ(Online[I].Detail, Offline[I].Detail);
  }
}

bool anyDiagContains(const std::vector<Diagnostic> &Diags,
                     const char *Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// Diagnostics about shadow space: ladder steps, budget notes and the
/// finish-time record of the table's fold.
unsigned memoryDiags(const std::vector<Diagnostic> &Diags) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Code == StatusCode::ResourceExhausted;
  return N;
}

unsigned countDiags(const std::vector<Diagnostic> &Diags, Severity Sev,
                    const char *Needle) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Sev == Sev && D.Message.find(Needle) != std::string::npos;
  return N;
}

/// Spins on an uninstrumented flag (no happens-before edge for the
/// detector).
void await(const std::atomic<bool> &Flag) {
  while (!Flag.load(std::memory_order_acquire))
    std::this_thread::yield();
}

/// Options for the halt tests: tiny rings, so producers park while the
/// handler is blocked, and a park deadline far past the stall deadlines,
/// so only the supervisor frees a parked producer.
rt::OnlineOptions haltOptions() {
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  Options.Degrade.Enabled = false;
  Options.Supervise.TickMs = 5;
  Options.Supervise.StallDeadlineMs = 30;
  Options.Supervise.MaxParkMs = 60000;
  return Options;
}

/// Two producers lock, write and unlock until done; with a blocked
/// handler and tiny rings they park on accesses and on sync events. The
/// test joins both while the handler is still blocked — possible only
/// because the halt frees the sync parks — then releases it. Should no
/// halt come, a backstop releases the handler after 10 s, so the test
/// fails rather than hangs.
rt::OnlineReport runPastABlockedHandler(Tool &Checker, HandlerGate &Gate,
                                        const rt::OnlineOptions &Options) {
  constexpr int Iters = 200;
  rt::Mutex M;
  std::vector<rt::Shared<int>> Vars(8);
  std::atomic<bool> Joined{false};
  std::thread Backstop([&] {
    for (int Ms = 0; Ms < 10000 && !Joined.load(); Ms += 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Gate.release();
  });
  rt::Engine Engine(Checker, Options);
  {
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != 2; ++T)
      Threads.emplace_back([&, T] {
        for (int I = 0; I != Iters; ++I) {
          M.lock();
          FT_WRITE(Vars[(T + static_cast<unsigned>(I)) % Vars.size()], I);
          M.unlock();
        }
      });
    EXPECT_TRUE(Gate.waitBlocked());
    for (rt::Thread &T : Threads)
      T.join();
  }
  EXPECT_TRUE(Engine.halted()) << "the application finished without a halt";
  Joined.store(true);
  Backstop.join(); // releases the handler
  return Engine.finish(); // waits for the released handler to return
}

/// The halt contract: halted by the supervisor with an Error naming the
/// stall, every drop counted on a thread's row, and the session lossy.
void expectHaltedAndCounted(const rt::OnlineReport &Report,
                            const char *Stall) {
  EXPECT_TRUE(Report.Halted);
  EXPECT_EQ(countDiags(Report.Diags, Severity::Warning, Stall), 1u);
  EXPECT_EQ(countDiags(Report.Diags, Severity::Error, Stall), 1u);
  bool Named = false;
  for (const Diagnostic &D : Report.Diags)
    Named |= D.Sev == Severity::Error && D.Code == StatusCode::Stalled &&
             D.Message.find("detection halted") != std::string::npos;
  EXPECT_TRUE(Named);
  const uint64_t Dropped = Report.DroppedPostHalt + Report.DroppedOverload;
  EXPECT_GT(Dropped, 0u);
  uint64_t Rows = 0;
  for (const rt::ThreadDropStats &S : Report.PerThreadDrops)
    Rows += S.PostHalt + S.Overload;
  EXPECT_EQ(Rows, Dropped);
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Lossy);
}

} // namespace

//===----------------------------------------------------------------------===//
// Overload: the emit drop under a ring-full storm
//===----------------------------------------------------------------------===//

TEST(OnlineResilience, RingStormDropsAtEmitWithoutHalting) {
  // Every handler call costs 2 ms in the sequencer, the whole session
  // long — a consumer far too slow for four producers hammering 16-slot
  // rings. The one response to time is the counted drop at emit: parked
  // accesses past MaxParkMs are shed there, and the ladder, which answers
  // space only, stays at Full.
  rt::OnlineOptions Options;
  Options.RingCapacity = 16;
  Options.Supervise.TickMs = 5;
  Options.Supervise.MaxParkMs = 5;
  // A 2 ms/event consumer is slow, not stalled: the watermark keeps
  // moving. Park this test's stall detection out of the way so it
  // isolates the park deadline.
  Options.Supervise.StallDeadlineMs = 60000;

  constexpr unsigned NumThreads = 4;
  constexpr int PerThread = 400;

  FastTrack Detector;
  BlockingTool Slow(Detector, 0, BlockingTool::Never,
                    std::chrono::microseconds(2000));
  std::vector<rt::Shared<int>> Vars(NumThreads);
  rt::Shared<int> Racy;
  std::array<uint64_t, NumThreads> MaxWriteNs{};

  rt::Engine Engine(Slow, Options);
  {
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        uint64_t Worst = 0;
        for (int I = 0; I != PerThread; ++I) {
          Stopwatch W;
          FT_WRITE(Vars[T], I);
          if (I % 16 == 0)
            FT_WRITE(Racy, static_cast<int>(T)); // cross-thread races
          Worst = std::max(Worst, W.nanoseconds());
        }
        MaxWriteNs[T] = Worst;
      });
    for (rt::Thread &T : Threads)
      T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  // Overload cost events; it did not halt detection or step the ladder.
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.DegradeRung, 0u);
  EXPECT_FALSE(anyDiagContains(Report.Diags, "degraded to rung"));

  // Load actually came off at the emit side (park deadline), counted
  // per thread, and the report names the session lossy.
  EXPECT_GT(Report.DroppedOverload, 0u);
  uint64_t Rows = 0;
  for (const rt::ThreadDropStats &S : Report.PerThreadDrops)
    Rows += S.Overload;
  EXPECT_EQ(Rows, Report.DroppedOverload);
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Lossy);
  EXPECT_GT(Report.MaxBacklog, 0u);

  // The emit-side bound held: no application thread blocked for
  // anything near the un-shed backlog's worth of time (which would be
  // multiple seconds at 2 ms/event). The park deadline is 5 ms; allow
  // generous scheduler noise.
  for (uint64_t Worst : MaxWriteNs)
    EXPECT_LT(Worst, 1000u * 1000u * 1000u);

  // The capture is the delivered subsequence: still a feasible trace
  // (modulo rule 4 — the emit drop may strip every access of a thread
  // while its fork/join spine survives), and an offline replay of it
  // reproduces the online warnings exactly.
  TraceValidatorOptions VOpts;
  VOpts.RequireThreadOps = false;
  EXPECT_TRUE(isFeasible(Report.Captured, VOpts));
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

//===----------------------------------------------------------------------===//
// Supervision: drop-and-count, then halt
//===----------------------------------------------------------------------===//

TEST(OnlineResilience, BlockedHandlerHaltsDetectionAndFreesSyncParks) {
  // The merge loop is wedged inside a tool handler, so nothing in the
  // engine can unwedge it. The first deadline sheds parked accesses; the
  // second in a row halts detection, and producers parked on lock events
  // return. Both application threads finish while the handler is still
  // blocked; finish() then waits for it and reports the halt.
  HandlerGate Gate;
  FastTrack Inner;
  BlockingTool Blocker(Inner, Gate, 20);
  rt::OnlineReport Report =
      runPastABlockedHandler(Blocker, Gate, haltOptions());
  expectHaltedAndCounted(Report, "sequencer stalled at merge position");
  EXPECT_EQ(Report.DegradeRung, 0u);
}

TEST(OnlineResilience, BlockedShardCloneHaltsDetectionAndSiblingWorkersExit) {
  // The same wedge inside one shard's clone at Shards=4. The blocked
  // worker's cursor holds the 64-slot log full, so the merge loop parks on
  // it and the siblings idle at its tail: only the blocked worker's cursor
  // is watched, and its second deadline halts detection. The siblings
  // discard what the halt leaves them, and finish() joins every worker.
  HandlerGate Gate;
  FastTrack Inner;
  BlockingTool Blocker(Inner, Gate, 20, /*InShard=*/1);
  rt::OnlineOptions Options = haltOptions();
  Options.Shards = 4;
  Options.ShardBlockVars = 1;
  Options.SequencerBatch = 4; // a log of 4 x max(RingCapacity, 4 x 4) slots
  rt::OnlineReport Report = runPastABlockedHandler(Blocker, Gate, Options);
  EXPECT_EQ(Report.Shards, 4u);
  expectHaltedAndCounted(Report, "shard 1 stalled at drain watermark");
  EXPECT_FALSE(anyDiagContains(Report.Diags, "sequencer stalled"))
      << "a merge loop parked on a full log is not the stall";
}

TEST(OnlineResilience, PostHaltDropsAreCountedOnceAcrossShards) {
  // Every worker holds a copy of each sync event in the log, but a
  // discarded event is one lost event: after a halt each worker books the
  // accesses it owns, worker 0 the sync events, and the merge loop what
  // it never appended. Main emits a write and 30 lock round trips while
  // shard 1 blocks in its first handler call; the 16-slot log and main's
  // 4-slot ring fill, main parks on a lock event, and the second deadline
  // halts detection.
  constexpr int Pairs = 30;
  constexpr uint64_t Emitted = 1 + 2 * Pairs;
  HandlerGate Gate;
  FastTrack Inner;
  BlockingTool Blocker(Inner, Gate, 0, /*InShard=*/1);
  rt::OnlineOptions Options = haltOptions();
  Options.Shards = 4;
  Options.ShardBlockVars = 1;
  Options.SequencerBatch = 1; // a log of 4 x max(RingCapacity, 4) slots
  std::atomic<bool> Done{false};
  std::thread Backstop([&] {
    for (int Ms = 0; Ms < 10000 && !Done.load(); Ms += 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Gate.release();
  });
  rt::OnlineReport Report;
  {
    rt::Mutex M;
    rt::Shared<int> X;
    rt::Engine Engine(Blocker, Options);
    FT_WRITE(X, 1);
    for (int I = 0; I != Pairs; ++I) {
      M.lock();
      M.unlock();
    }
    EXPECT_TRUE(Engine.halted()) << "main finished without a halt";
    Done.store(true);
    Backstop.join(); // releases the handler
    Report = Engine.finish();
  }
  EXPECT_TRUE(Report.Halted);
  EXPECT_TRUE(anyDiagContains(Report.Diags, "shard 1 stalled"));
  EXPECT_GT(Report.DroppedPostHalt, 0u);
  EXPECT_LE(Report.DroppedPostHalt, Emitted);
  uint64_t Rows = 0;
  for (const rt::ThreadDropStats &S : Report.PerThreadDrops)
    Rows += S.PostHalt;
  EXPECT_EQ(Rows, Report.DroppedPostHalt);
  EXPECT_LE(Report.EventsCaptured + Report.DroppedPostHalt +
                Report.DroppedOverload,
            Emitted + 1) // the one event the merge loop captured but
                         // could not append
      << "an event was counted twice";
}

TEST(OnlineResilience, SlowHandlerMissesOneDeadlineWithoutHalting) {
  // The boundary: a handler that takes 1.5 deadlines once is slow, not
  // wedged. The first deadline warns and switches on drop-and-count, the
  // handler returns before the second, and nothing halts. The rings hold
  // the whole stream, so nobody parks and nothing is dropped.
  constexpr unsigned DeadlineMs = 100;
  HandlerGate Gate;
  FastTrack Detector;
  BlockingTool Blocker(Detector, Gate, 10);
  rt::OnlineOptions Options;
  Options.RingCapacity = 4096;
  Options.Supervise.TickMs = 5;
  Options.Supervise.StallDeadlineMs = DeadlineMs;

  rt::Shared<int> X;
  rt::Engine Engine(Blocker, Options);
  for (int I = 0; I != 100; ++I)
    FT_WRITE(X, I);
  ASSERT_TRUE(Gate.waitBlocked());
  std::this_thread::sleep_for(std::chrono::milliseconds(DeadlineMs * 3 / 2));
  Gate.release();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(countDiags(Report.Diags, Severity::Warning, "stalled"), 1u);
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.EventsCaptured, 100u);
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Identical);
}

TEST(OnlineResilience, StallOnASyncFreeStreamWarnsOnceWithoutHalting) {
  // Two workers write private variables with no synchronization: past
  // their first events no ticket is outstanding, so a stall sensor that
  // watched tickets would never fire. The sensor watches merged events
  // against events pushed, so a handler blocked deep in the sync-free
  // stretch is still caught. Released between the first and the second
  // deadline, the stall costs a warning and nothing else.
  constexpr int PerThread = 2000;
  constexpr unsigned DeadlineMs = 100;
  HandlerGate Gate;
  FastTrack Detector;
  BlockingTool Blocker(Detector, Gate, 1500);
  rt::OnlineOptions Options;
  Options.Degrade.Enabled = false;
  Options.RingCapacity = 4096; // nobody parks, so nothing is shed
  Options.Supervise.TickMs = 5;
  Options.Supervise.StallDeadlineMs = DeadlineMs;

  std::vector<rt::Shared<int>> Own(2);
  rt::Engine Engine(Blocker, Options);
  {
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != 2; ++T)
      Threads.emplace_back([&Own, T] {
        for (int I = 0; I != PerThread; ++I)
          FT_WRITE(Own[T], I);
      });
    EXPECT_TRUE(Gate.waitBlocked());
    std::this_thread::sleep_for(std::chrono::milliseconds(DeadlineMs * 3 / 2));
    Gate.release();
    for (rt::Thread &T : Threads)
      T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.EventsCaptured, 4u + 2u * PerThread);
  EXPECT_EQ(Report.DroppedPostHalt, 0u);
  EXPECT_EQ(Report.DroppedOverload, 0u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_EQ(countDiags(Report.Diags, Severity::Warning,
                       "stalled at merge position"),
            1u);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

//===----------------------------------------------------------------------===//
// Tool faults: quarantine in a group, ToolFault halt without one
//===----------------------------------------------------------------------===//

TEST(OnlineResilience, ThrowingMemberIsQuarantinedSiblingsKeepDetecting) {
  FastTrack Main;
  Eraser SiblingInner;
  rt::ThrowAfterTool Bomb(SiblingInner, 3); // detonates on its 4th access
  ToolGroup Group({&Main, &Bomb});

  rt::Shared<int> X;
  rt::Engine Engine(Group);
  FT_WRITE(X, 0);
  {
    rt::Thread A([&] {
      FT_WRITE(X, 1);
      FT_WRITE(X, 2);
    });
    rt::Thread B([&] {
      (void)FT_READ(X);
      (void)FT_READ(X);
    });
    A.join();
    B.join();
  }
  rt::OnlineReport Report = Engine.finish();

  // The group absorbed the throw: the driver saw no exception, so the
  // engine never halted and every event was delivered.
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.EventsCaptured, 9u); // wr + 2 forks + 4 accesses + 2 joins
  EXPECT_FALSE(Group.quarantined(0));
  EXPECT_TRUE(Group.quarantined(1));
  EXPECT_EQ(Group.activeMembers(), 1u);
  ASSERT_EQ(Group.diags().size(), 1u);
  EXPECT_EQ(Group.diags()[0].Code, StatusCode::ToolFault);
  EXPECT_NE(Group.diags()[0].Message.find("quarantined"), std::string::npos);

  // The healthy sibling kept detecting: A's writes race B's reads.
  EXPECT_GE(Main.warnings().size(), 1u);
  EXPECT_GE(Report.NumWarnings, 1u);

  // And its verdicts are untouched by the sibling's death: replaying the
  // capture through a fresh FastTrack reproduces them exactly.
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Main.warnings(), Offline.warnings());
}

TEST(OnlineResilience, UncontainedToolFaultHaltsAndCountsEveryDrop) {
  FastTrack Inner;
  rt::ThrowAfterTool Bomb(Inner, 2); // third access throws

  rt::Shared<int> X;
  rt::Engine Engine(Bomb);
  FT_WRITE(X, 0);
  FT_WRITE(X, 1);
  FT_WRITE(X, 2); // detonates in the sequencer; halt lands asynchronously
  for (int I = 0; I != 5000 && !Engine.halted(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(Engine.halted());
  // The application is still running; its events are now dropped and
  // counted at the emit side, on this thread's row.
  for (int I = 0; I != 5; ++I)
    FT_WRITE(X, I);
  rt::OnlineReport Report = Engine.finish();

  EXPECT_TRUE(Report.Halted);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_EQ(Report.Diags[0].Code, StatusCode::ToolFault);
  // Exactly the two pre-fault accesses were delivered; the detonating
  // op and everything after it is dropped-and-counted, never silent.
  EXPECT_EQ(Report.EventsCaptured, 2u);
  EXPECT_EQ(Report.DroppedPostHalt, 6u);
  ASSERT_FALSE(Report.PerThreadDrops.empty());
  EXPECT_EQ(Report.PerThreadDrops[0].Thread, 0u);
  EXPECT_GE(Report.PerThreadDrops[0].PostHalt, 5u);
  bool OneShot = false;
  for (const Diagnostic &D : Report.Diags)
    OneShot |= D.Message.find("dropped after detection halted") !=
               std::string::npos;
  EXPECT_TRUE(OneShot);
}

//===----------------------------------------------------------------------===//
// Memory governance: OOM faults, budget soak, governed capture replay
//===----------------------------------------------------------------------===//

TEST(OnlineResilience, DeniedShadowAllocationDegradesOneRungNeverAborts) {
  // The third shadow page allocation is denied mid-stream. The contract:
  // the engine never aborts, detection continues (a real race planted
  // after the fault is still caught), exactly one diagnostic reports the
  // denial, and the degradation ladder never moves: the fold happened in
  // the table, whose counters are its one record.
  rt::FaultPlan Faults;
  Faults.FailShadowPageAllocAt = 2;

  rt::OnlineOptions Options;
  Options.Faults = &Faults;
  Options.MaxVars = 128 * 1024; // paged shadow table
  Options.Degrade.BudgetCheckEveryOps = 256;
  // The sweep saturates the rings by design; keep the emit drop out of
  // the way so the table's fold is the session's only precision loss.
  Options.RingCapacity = 8192;
  Options.Supervise.MaxParkMs = 10000;

  // Enough distinct variables that the capture itself spans a paged
  // table (> ShadowEagerVarLimit), so the governed offline replay below
  // exercises the same lifecycle the online table walked.
  constexpr size_t Sweep = 96 * 1024;
  FastTrack Detector;
  std::vector<rt::Shared<int>> Vars(Sweep);
  rt::Engine Engine(Detector, Options);
  for (size_t I = 0; I != Sweep; ++I)
    FT_WRITE(Vars[I], 1); // page 2's fault-in (var 1024) is denied
  {
    rt::Thread A([&] { FT_WRITE(Vars[2000], 2); });
    rt::Thread B([&] { FT_WRITE(Vars[2000], 3); }); // concurrent with A
    A.join();
    B.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  EXPECT_GE(Report.NumWarnings, 1u);
  EXPECT_GE(Report.PagesSummarized, 1u); // the denied region degraded
  EXPECT_EQ(Report.BudgetTrips, 0u);     // no byte budget in play
  EXPECT_EQ(Report.DegradeRung, 0u);     // the fold is no ladder rung
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Coarsened);
  EXPECT_TRUE(anyDiagContains(Report.Diags, "shadow allocation denied"));
  EXPECT_TRUE(anyDiagContains(Report.Diags, "summarized at page granularity"));
  unsigned DenialDiags = 0;
  for (const Diagnostic &D : Report.Diags)
    DenialDiags += D.Message.find("shadow allocation denied") !=
                   std::string::npos;
  EXPECT_EQ(DenialDiags, 1u);
  EXPECT_EQ(memoryDiags(Report.Diags), 1u);

  // A governed replay of the capture — same policy, same fault ordinal —
  // walks the identical table lifecycle and reproduces every warning.
  FastTrackOptions SamePolicy;
  SamePolicy.Memory.Enabled = true;
  SamePolicy.Memory.FailPageAllocAt = 2;
  FastTrack Offline(SamePolicy);
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  EXPECT_EQ(Offline.shadowGovernorStats().AllocDenied, 1u);
}

TEST(OnlineResilience, BudgetSoakHoldsHighWaterAndKeepsDetecting) {
  // A million-variable-class streaming sweep against a 256 KiB budget the
  // ungoverned table exceeds several times over. The governed session
  // must hold its high-water mark near the budget, report the trips and
  // folds in one diagnostic without moving the ladder, keep finding races
  // planted after the pressure — and stay warning-for-warning replayable.
  rt::OnlineOptions Options;
  Options.MaxVars = 256 * 1024;
  Options.Degrade.Memory.Enabled = true;
  Options.Degrade.Memory.BudgetBytes = 128 * 1024;
  Options.Degrade.Memory.MaintainEveryAccesses = 512;
  Options.Degrade.Memory.ColdAgeTicks = 1;
  Options.Degrade.BudgetCheckEveryOps = 512;
  // As above: the table's fold is the session's only precision loss.
  Options.RingCapacity = 8192;
  Options.Supervise.MaxParkMs = 10000;

  constexpr size_t Sweep = 100 * 1024; // ~200 page regions ≈ 800 KiB raw
  FastTrack Detector;
  std::vector<rt::Shared<int>> Vars(Sweep);
  rt::Engine Engine(Detector, Options);
  for (size_t I = 0; I != Sweep; ++I) {
    // Write *and read* every variable: read state makes the swept pages
    // incompressible (lossless packing serves write-only pages), so the
    // budget has to be enforced the hard way — by summarization.
    FT_WRITE(Vars[I], 1);
    (void)FT_READ(Vars[I]);
  }
  {
    rt::Thread A([&] { FT_WRITE(Vars[0], 2); });
    rt::Thread B([&] { FT_WRITE(Vars[0], 3); }); // concurrent with A
    A.join();
    B.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  EXPECT_GE(Report.BudgetTrips, 1u);
  EXPECT_GT(Report.PagesSummarized, 0u);
  EXPECT_EQ(Report.DegradeRung, 0u); // the fold is no ladder rung
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Coarsened);
  EXPECT_TRUE(anyDiagContains(Report.Diags, "summarized at page granularity"));
  EXPECT_EQ(memoryDiags(Report.Diags), 1u);
  EXPECT_GE(Report.NumWarnings, 1u); // the race survived the pressure
  // The watermark held: within one hysteresis band plus per-generation
  // drift of the budget, against an ungoverned footprint 4x+ larger.
  EXPECT_LE(Report.ShadowBytesHighWater,
            Options.Degrade.Memory.BudgetBytes + 64 * 1024);

  FastTrack Offline; // ungoverned: the unbounded reference
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  EXPECT_GT(Offline.shadowBytes(), 4 * Report.ShadowBytesHighWater);
}

TEST(OnlineResilience, JoinWhileRingNonemptyStallsSlotReuseNotCorrectness) {
  // A thread is joined while the merge loop — blocked in a tool handler —
  // still holds undrained events in its ring. The slot must retire but
  // NOT reincarnate until the ring is empty: the next fork waits on the
  // drain, a helper releases the handler, and only then does the
  // successor take the slot. Nothing is lost and nothing is reordered.
  rt::OnlineOptions Options;
  Options.MaxThreads = 2; // main + one recyclable child slot
  Options.SlotDrainWaitMs = 5000;
  Options.Supervise.Enabled = false; // no deadline races the release

  FastTrack Detector;
  HandlerGate Gate;
  // Position 0 is the first fork: the handler of the first child's first
  // write blocks before the child emits its other two.
  BlockingTool Blocker(Detector, Gate, 1);
  // The fork of the second child waits on the drain inside this thread,
  // so a helper releases the handler once that fork has begun.
  std::atomic<bool> Forking{false};
  std::thread Releaser([&] {
    await(Forking);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Gate.release();
  });
  rt::Shared<int> X;
  rt::Engine Engine(Blocker, Options);

  rt::Thread First([&X, &Gate] {
    FT_WRITE(X, 0);
    EXPECT_TRUE(Gate.waitBlocked());
    FT_WRITE(X, 1);
    FT_WRITE(X, 2);
  });
  ThreadId FirstId = First.id();
  First.join(); // retires the slot with positions 2..3 still in its ring

  // Only one child slot exists and it is still draining: this fork blocks
  // on the drain until the handler is released, then reincarnates the
  // same slot.
  Forking.store(true, std::memory_order_release);
  rt::Thread Second([&X] {
    for (int I = 3; I != 6; ++I)
      FT_WRITE(X, I);
  });
  ThreadId SecondId = Second.id();
  Second.join();
  Releaser.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_NE(FirstId, rt::Engine::NoThread);
  EXPECT_EQ(SecondId, FirstId); // same slot, next incarnation
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.SlotsAllocated, 2u);
  EXPECT_EQ(Report.ThreadsRecycled, 1u);
  EXPECT_EQ(Report.ForksRejected, 0u);
  EXPECT_EQ(Report.EventsCaptured, 10u); // 2 × (fork + 3 writes + join)
  EXPECT_EQ(Report.DroppedOverload, 0u);
  EXPECT_EQ(Report.NumWarnings, 0u); // all writes chain through the joins

  TraceValidatorOptions VOpts;
  VOpts.AllowTidReuse = true;
  EXPECT_TRUE(isFeasible(Report.Captured, VOpts));
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}
