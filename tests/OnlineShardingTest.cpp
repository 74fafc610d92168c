//===--- OnlineShardingTest.cpp - shard workers over one broadcast log ---===//
//
// The sharded online engine's contracts:
//
//  - determinism: the same native workload run at Shards ∈ {1, 2, 3, 4,
//    8} warns on exactly the same variables, and every run's
//    flight-recorder capture replays offline to the identical warning
//    list — shard count is invisible in the results;
//  - the sync stream: lock/fork/join-heavy workloads stay exactly
//    equivalent because every worker reads the full sync stream in order;
//  - a tool without ShardableTool runs at Shards=1, dispatched inline,
//    with a Note rather than failing (a wedged shard worker's halt is
//    pinned in OnlineResilienceTest.cpp);
//  - the SequencerBatch/watermark invariant: the merge position is
//    published per batch, so the capture is byte-identical whatever the
//    batch size;
//  - backpressure between the stages: with a 16-slot log shared by four
//    workers the merge loop parks on a full log for nearly every batch,
//    and the results stay exact;
//  - the building blocks: BroadcastLog::peekRun/release (the shard
//    workers' zero-copy read, paced by the slowest cursor) and
//    OnlineDriver::dispatchRun (batched, devirtualized for every
//    registered tool, keeping only the shard's own accesses) agree with
//    the per-event paths they replace, and a governed driver admits
//    whole runs;
//  - memory governance per shard: clones compress losslessly, and under
//    a budget summarize pages with warnings coarsened, never missing.
//
// The CI TSan and ASan+UBSan jobs run this binary: merge loop, shard
// workers, supervisor, and producers all exercise their real hand-off
// paths here.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/BasicVC.h"
#include "detectors/DjitPlus.h"
#include "detectors/EmptyTool.h"
#include "detectors/Eraser.h"
#include "detectors/Goldilocks.h"
#include "detectors/MultiRace.h"
#include "detectors/ThreadLocalFilter.h"
#include "framework/FastPath.h"
#include "framework/Replay.h"
#include "hb/RaceOracle.h"
#include "runtime/FaultPlan.h"
#include "runtime/Instrument.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"

#include "NativePrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <typeindex>
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

std::set<VarId> warnedVars(const std::vector<RaceWarning> &Warnings) {
  std::set<VarId> Vars;
  for (const RaceWarning &W : Warnings)
    Vars.insert(W.Var);
  return Vars;
}

bool anyDiagContains(const std::vector<Diagnostic> &Diags,
                     const char *Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// The shared determinism workload: NumThreads threads, each writing its
/// own private vars (never racy), all of them hammering a set of shared
/// vars (always racy: no cross-thread synchronization ever orders two
/// writers), plus per-thread mutexes that feed the sync spine without
/// creating happens-before edges between siblings. Main pre-touches every
/// variable before forking so dense ids — and therefore the warned-var
/// set — are identical across runs and shard counts. The pre-touch reads
/// happen-before every fork, so they are never part of a race.
struct DeterminismWorkload {
  static constexpr unsigned NumThreads = 4;
  static constexpr unsigned NumRacy = 24; // spans several ownership blocks
  static constexpr int Rounds = 50;

  std::vector<rt::Shared<int>> Private{NumThreads * 4};
  std::vector<rt::Shared<int>> Racy{NumRacy};
  std::vector<rt::Mutex> Locks{NumThreads};

  void run() {
    for (rt::Shared<int> &V : Private)
      FT_READ(V);
    for (rt::Shared<int> &V : Racy)
      FT_READ(V);
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([this, T] {
        for (int I = 0; I != Rounds; ++I) {
          for (unsigned P = 0; P != 4; ++P)
            FT_WRITE(Private[T * 4 + P], I);
          FT_WRITE(Racy[(T * 7 + static_cast<unsigned>(I)) % NumRacy],
                   static_cast<int>(T));
          Locks[T].lock(); // spine traffic, no cross-thread edge
          Locks[T].unlock();
        }
      });
    for (rt::Thread &T : Threads)
      T.join();
  }
};

/// Runs the determinism workload at \p Shards and returns the report
/// after asserting the per-run equivalence contract (feasible capture,
/// offline replay reproduces the online warnings and dispatch count
/// exactly).
rt::OnlineReport runDeterminism(FastTrack &Detector, unsigned Shards) {
  rt::OnlineOptions Options;
  Options.Shards = Shards;
  // Small ownership blocks so the two-dozen interned vars actually spread
  // across all shards instead of fitting inside one default-sized block.
  Options.ShardBlockVars = 4;
  // Exact-equivalence runs: no coarsening and no drops allowed.
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;

  DeterminismWorkload Workload;
  rt::Engine Engine(Detector, std::move(Options));
  Workload.run();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_TRUE(isFeasible(Report.Captured));
  FastTrack Offline;
  const ReplayResult R = replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  EXPECT_EQ(Report.EventsDispatched, R.Events);
  return Report;
}

} // namespace

//===----------------------------------------------------------------------===//
// Building blocks: the broadcast log and dispatchRun
//===----------------------------------------------------------------------===//

TEST(BroadcastLog, PeekRunStopsAtTheWrapAndReleasesIncrementally) {
  // The shard workers' zero-copy read: peekRun() exposes one reader's
  // readable run in place, bounded by the buffer's wrap point, and
  // release() hands slots back one dispatched prefix at a time. Two
  // readers read the same words, and the producer reuses a slot only
  // once the slower one has released it. Each word's target is a payload
  // that tells the words apart.
  static_assert(sizeof(rt::EventWord) == 8);
  rt::BroadcastLog Log(8, 2);
  auto Append = [&Log](uint32_t S) {
    ASSERT_TRUE(Log.tryAppend(rt::EventWord::of(OpKind::Write, S, 1)));
  };
  const rt::EventWord *Run = nullptr;
  EXPECT_EQ(Log.peekRun(0, Run), 0u);
  // Move both cursors to slot 6, so the next five events wrap: 6 7 | 0 1 2.
  for (uint32_t S = 0; S != 6; ++S)
    Append(S);
  EXPECT_EQ(Log.peekRun(0, Run), 0u) << "nothing is readable before publish";
  Log.publish();
  for (unsigned R : {0u, 1u}) {
    ASSERT_EQ(Log.peekRun(R, Run), 6u);
    Log.release(R, 6);
  }
  EXPECT_EQ(Log.slowest(), Log.tail());
  for (uint64_t S : {3u, 7u, 8u, 100u, 101u})
    Append(S);
  Log.publish();

  ASSERT_EQ(Log.peekRun(0, Run), 2u) << "the run must stop at the wrap";
  EXPECT_EQ(Run[0].target(), 3u);
  EXPECT_EQ(Run[1].target(), 7u);
  EXPECT_EQ(Run[1].thread(), 1u);
  EXPECT_EQ(Run[1].kind(), OpKind::Write);
  ASSERT_EQ(Log.peekRun(0, Run), 2u) << "peeking must consume nothing";
  Log.release(0, 1);
  EXPECT_EQ(Log.cursor(0), 7u);
  ASSERT_EQ(Log.peekRun(0, Run), 1u);
  EXPECT_EQ(Run[0].target(), 7u);
  Log.release(0, 1);
  ASSERT_EQ(Log.peekRun(0, Run), 3u) << "the rest starts at the buffer front";
  EXPECT_EQ(Run[0].target(), 8u);
  EXPECT_EQ(Run[2].target(), 101u);
  Log.release(0, 3);
  EXPECT_EQ(Log.cursor(0), Log.tail());
  EXPECT_EQ(Log.peekRun(0, Run), 0u);

  // Reader 1 still holds all five, so only three slots are free: the
  // slowest reader paces the producer, whatever reader 0 has done.
  for (uint32_t S = 200; S != 203; ++S)
    Append(S);
  EXPECT_FALSE(Log.tryAppend(rt::EventWord::of(OpKind::Read, 203)));
  EXPECT_FALSE(Log.full()) << "the full state is not published yet";
  Log.publish();
  EXPECT_TRUE(Log.full());
  EXPECT_EQ(Log.slowest(), Log.cursor(1));

  ASSERT_EQ(Log.peekRun(1, Run), 2u);
  EXPECT_EQ(Run[0].target(), 3u);
  Log.release(1, 2);
  EXPECT_FALSE(Log.full());
  ASSERT_TRUE(Log.tryAppend(rt::EventWord::of(OpKind::Read, 203)));
  Log.publish();
  // The reader re-reads the tail only once its cached view is used up,
  // so the new event shows from the next peek on.
  ASSERT_EQ(Log.peekRun(1, Run), 6u) << "the rest starts at the buffer front";
  EXPECT_EQ(Run[0].target(), 8u);
  EXPECT_EQ(Run[5].target(), 202u);
  Log.release(1, 6);
  ASSERT_EQ(Log.peekRun(1, Run), 1u);
  EXPECT_EQ(Run[0].target(), 203u);
  EXPECT_EQ(Run[0].kind(), OpKind::Read);
  Log.release(1, 1);
  ASSERT_EQ(Log.peekRun(0, Run), 4u);
  EXPECT_EQ(Run[0].target(), 200u);
  Log.release(0, 4);
  EXPECT_EQ(Log.slowest(), Log.tail());
  EXPECT_EQ(Log.peekRun(1, Run), 0u);
}

namespace {

/// The driver-level equivalence stream: racy write pairs that alternate
/// threads on every access, then a lock round trip and the join.
Trace driverEquivalenceStream() {
  TraceBuilder Builder;
  Builder.fork(0, 1);
  for (uint32_t I = 0; I != 64; ++I)
    Builder.wr(0, I % 8).wr(1, I % 8); // racy pairs
  Builder.acq(0, 0).rel(0, 0).join(0, 1);
  return Builder.take();
}

/// \p Ops as shard-log words: word I has raw index I.
std::vector<rt::EventWord> logWords(const Trace &Ops) {
  std::vector<rt::EventWord> Words;
  for (const Operation &Op : Ops)
    Words.push_back(rt::EventWord::of(Op.Kind, Op.Target, Op.Thread));
  return Words;
}

ToolContext driverTestCapacity() {
  ToolContext Capacity;
  Capacity.NumThreads = 4;
  Capacity.NumVars = 16;
  Capacity.NumLocks = 4;
  Capacity.NumVolatiles = 4;
  return Capacity;
}

struct ToolCase {
  std::function<std::unique_ptr<Tool>()> Make;
  bool Warns;
};

/// One case per tool with a registered run loop.
std::vector<ToolCase> registeredToolCases() {
  return {
      {[] { return std::make_unique<FastTrack>(); }, true},
      {[] { return std::make_unique<FastTrack64>(); }, true},
      {[] { return std::make_unique<DjitPlus>(); }, true},
      {[] { return std::make_unique<BasicVC>(); }, true},
      {[] { return std::make_unique<MultiRace>(); }, true},
      {[] { return std::make_unique<Goldilocks>(); }, true},
      {[] { return std::make_unique<Eraser>(); }, true},
      {[] { return std::make_unique<ThreadLocalFilter>(); }, false},
      {[] { return std::make_unique<EmptyTool>(); }, false},
  };
}

} // namespace

TEST(OnlineDriver, DispatchRunMatchesPerEventOffer) {
  // The same pre-admitted stream through offer() (Full role) and
  // dispatchRun() (DispatchOnly role) must leave two instances of every
  // registered tool with identical warnings — batching and
  // devirtualization are pure mechanism.
  Trace Ops = driverEquivalenceStream();
  const ToolContext Capacity = driverTestCapacity();

  const std::vector<rt::EventWord> Events = logWords(Ops);

  std::set<std::type_index> Covered;
  for (const ToolCase &C : registeredToolCases()) {
    std::unique_ptr<Tool> PerEvent = C.Make();
    std::unique_ptr<Tool> Batched = C.Make();
    SCOPED_TRACE(PerEvent->name());
    ASSERT_NE(findFastPath(*Batched), nullptr)
        << "tool has no registered run loop";
    const Tool &BatchedTool = *Batched;
    Covered.insert(std::type_index(typeid(BatchedTool)));

    OnlineDriver Serial(*PerEvent, Capacity);
    for (Operation Op : Ops)
      ASSERT_EQ(Serial.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
    Serial.finish();

    OnlineDriverOptions BatchOpts;
    BatchOpts.Role = DriverRole::DispatchOnly;
    BatchOpts.FilterReentrantLocks = false;
    OnlineDriver Runs(*Batched, Capacity, BatchOpts);
    // Deliver in uneven chunks so runs straddle chunk boundaries.
    size_t Pos = 0;
    for (size_t Chunk : {1u, 7u, 64u, 3u, 1000u}) {
      size_t N = std::min(Chunk, Events.size() - Pos);
      ASSERT_EQ(Runs.dispatchRun(Events.data() + Pos, N, Pos), N);
      Pos += N;
    }
    ASSERT_EQ(Pos, Events.size());
    Runs.finish();

    if (C.Warns) {
      EXPECT_GT(PerEvent->warnings().size(), 0u);
    }
    expectSameWarnings(PerEvent->warnings(), Batched->warnings());
    EXPECT_EQ(Serial.dispatched(), Runs.dispatched());
    EXPECT_EQ(Serial.accessesPassed(), Runs.accessesPassed());
  }
  // A newly registered tool must join the list above.
  for (const FastPathEntry &Entry : fastPaths())
    EXPECT_EQ(Covered.count(std::type_index(*Entry.Type)), 1u)
        << Entry.Type->name() << " is registered but not covered";
}

TEST(OnlineDriver, DispatchRunKeepsOnlyTheShardsOwnAccesses) {
  // Each shard worker hands its driver the whole log: the run loop
  // dispatches every sync event and only the accesses its shard owns.
  // Three such drivers over one stream split the accesses exactly, and
  // together warn as one driver fed everything.
  Trace Ops = driverEquivalenceStream();
  const ToolContext Capacity = driverTestCapacity();
  const std::vector<rt::EventWord> Events = logWords(Ops);
  uint64_t Syncs = 0;
  for (const Operation &Op : Ops)
    Syncs += !isAccess(Op.Kind);
  FastTrack Serial;
  OnlineDriver All(Serial, Capacity);
  for (Operation Op : Ops)
    ASSERT_EQ(All.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
  All.finish();

  const ShardMap Owners(3, 3); // 3-variable blocks: the division form
  std::vector<RaceWarning> Merged;
  uint64_t Owned = 0;
  for (unsigned Shard = 0; Shard != 3; ++Shard) {
    FastTrack Clone;
    OnlineDriverOptions Opts;
    Opts.Role = DriverRole::DispatchOnly;
    Opts.FilterReentrantLocks = false;
    OnlineDriver Part(Clone, Capacity, Opts);
    ASSERT_EQ(
        Part.dispatchRun(Events.data(), Events.size(), 0, Owners, Shard),
        Events.size());
    Part.finish();
    uint64_t Mine = 0;
    for (const rt::EventWord W : Events)
      Mine += isAccess(W.kind()) && Owners.indexOf(W.target()) == Shard;
    EXPECT_GT(Mine, 0u) << "shard " << Shard;
    EXPECT_EQ(Part.dispatched(), Syncs + Mine) << "shard " << Shard;
    Owned += Mine;
    Merged.insert(Merged.end(), Clone.warnings().begin(),
                  Clone.warnings().end());
  }
  EXPECT_EQ(Owned + Syncs, All.dispatched());
  std::stable_sort(Merged.begin(), Merged.end(),
                   [](const RaceWarning &A, const RaceWarning &B) {
                     return A.OpIndex != B.OpIndex ? A.OpIndex < B.OpIndex
                                                   : A.Var < B.Var;
                   });
  EXPECT_GT(Merged.size(), 0u);
  expectSameWarnings(Serial.warnings(), Merged);
}

TEST(ShardMap, BlockCyclicInBothForms) {
  const ShardMap Pow2(4, 2), Division(3, 3), ZeroBlock(0, 4), Default;
  for (uint32_t X = 0; X != 100; ++X) {
    EXPECT_EQ(Pow2.indexOf(X), (X / 4) % 2) << X;
    EXPECT_EQ(Division.indexOf(X), (X / 3) % 3) << X;
    EXPECT_EQ(ZeroBlock.indexOf(X), X % 4) << X;
    EXPECT_EQ(Default.indexOf(X), 0u) << X;
  }
}

TEST(OnlineDriver, FullAccessRunMatchesPerEventOffer) {
  // At Shards=1 the merge loop hands each same-thread access stretch to a
  // Full driver through admitAccessRun(), and sync events through
  // offer(). Fed that way, every registered tool must end exactly as a
  // driver fed one offer() per event: same warnings, same counters. The
  // shared stream has runs of one access; the second has long runs.
  TraceBuilder Long;
  Long.fork(0, 1);
  for (uint32_t R = 0; R != 8; ++R) {
    for (uint32_t V = 0; V != 8; ++V)
      Long.rd(0, (R + V) % 16).wr(0, (R + 2 * V) % 16);
    for (uint32_t V = 0; V != 8; ++V)
      Long.wr(1, (R + V) % 16);
    Long.acq(1, 1).rel(1, 1);
  }
  Long.join(0, 1);
  const ToolContext Capacity = driverTestCapacity();

  for (const Trace &Ops : {driverEquivalenceStream(), Long.take()}) {
    for (const ToolCase &C : registeredToolCases()) {
      std::unique_ptr<Tool> PerEvent = C.Make();
      std::unique_ptr<Tool> Batched = C.Make();
      SCOPED_TRACE(PerEvent->name());

      OnlineDriver Serial(*PerEvent, Capacity);
      for (Operation Op : Ops)
        ASSERT_EQ(Serial.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
      Serial.finish();

      OnlineDriver Runs(*Batched, Capacity);
      for (size_t I = 0; I != Ops.size();) {
        if (!isAccess(Ops[I].Kind)) {
          Operation Op = Ops[I++];
          ASSERT_EQ(Runs.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
          continue;
        }
        // Words as the merge loop pulls them off a ring: a ticket tag (or
        // none) and no thread. The driver stamps the thread and raw index.
        const ThreadId T = Ops[I].Thread;
        std::vector<rt::EventWord> Run;
        for (; I != Ops.size() && isAccess(Ops[I].Kind) && Ops[I].Thread == T;
             ++I)
          Run.push_back(Run.empty() ? rt::EventWord::withTicket(
                                          Ops[I].Kind, Ops[I].Target, I)
                                    : rt::EventWord::of(Ops[I].Kind,
                                                        Ops[I].Target));
        ASSERT_TRUE(Runs.admitAccessRun(T, Run.data(), Run.size()));
      }
      Runs.finish();

      if (C.Warns) {
        EXPECT_GT(PerEvent->warnings().size(), 0u);
      }
      expectSameWarnings(PerEvent->warnings(), Batched->warnings());
      EXPECT_EQ(Serial.rawOps(), Runs.rawOps());
      EXPECT_EQ(Serial.dispatched(), Runs.dispatched());
      EXPECT_EQ(Serial.accessesPassed(), Runs.accessesPassed());
    }
  }
}

TEST(OnlineDriver, FullAccessRunDeclinesWhatOnlyOfferHandles) {
  // The run path admits nothing where per-event offer() must act: a rung
  // that rewrites accesses, an over-capacity target. An over-capacity
  // target mid-run stops admission just before it, so offer() meets it in
  // stream order. A budget probe due inside the run is taken there and
  // the run admitted whole.
  ToolContext Capacity = driverTestCapacity();
  Capacity.NumVars = 1024;
  constexpr size_t N = 16; // well inside one default probe window
  std::vector<rt::EventWord> Run;
  for (uint32_t I = 0; I != N; ++I)
    Run.push_back(rt::EventWord::of(I % 2 ? OpKind::Read : OpKind::Write, I * 3));

  auto Admit = [&](const char *What, OnlineDriverOptions Opts,
                   std::vector<rt::EventWord> Events, size_t Expect) {
    SCOPED_TRACE(What);
    FastTrack Detector;
    OnlineDriver Driver(Detector, Capacity, Opts);
    EXPECT_EQ(Driver.admitAccessRun(1, Events.data(), Events.size()),
              Expect == Events.size());
    EXPECT_EQ(Driver.rawOps(), Expect);
    EXPECT_EQ(Driver.dispatched(), Expect);
    EXPECT_FALSE(Driver.halted());
    EXPECT_TRUE(Driver.diags().empty());
  };
  Admit("full fidelity", OnlineDriverOptions(), Run, N);

  OnlineDriverOptions Coarse;
  Coarse.Degrade.StartRung = 1; // coarse granularity, divisor 8
  Admit("coarse rung", Coarse, Run, 0);

  OnlineDriverOptions Probe;
  Probe.Degrade.Memory.BudgetBytes = 1ull << 40;
  Probe.Degrade.BudgetCheckEveryOps = N / 2;
  Admit("budget probe inside the run", Probe, Run, N);

  std::vector<rt::EventWord> Wide = Run;
  Wide[0] = rt::EventWord::of(Wide[0].kind(), Capacity.NumVars);
  Admit("over-capacity first target", OnlineDriverOptions(), Wide, 0);
  Wide = Run;
  Wide[5] = rt::EventWord::of(Wide[5].kind(), Capacity.NumVars + 7);
  Admit("over-capacity target mid-run", OnlineDriverOptions(), Wide, 5);

  // Other roles: a DispatchOnly driver never admits.
  OnlineDriverOptions Dispatch;
  Dispatch.Role = DriverRole::DispatchOnly;
  Admit("DispatchOnly", Dispatch, Run, 0);
}

TEST(OnlineDriver, FullAccessRunRollsBackAtTheThrowingEvent) {
  // A tool that throws mid-run halts the driver exactly as per-event
  // offer() would have: the fault is anchored at the throwing event, and
  // the events before it stay admitted and dispatched.
  FastTrack Inner;
  rt::ThrowAfterTool Bomb(Inner, 2); // third access throws
  OnlineDriver Driver(Bomb, driverTestCapacity());
  std::vector<rt::EventWord> Run;
  for (uint32_t I = 0; I != 5; ++I)
    Run.push_back(rt::EventWord::of(OpKind::Write, I));

  EXPECT_FALSE(Driver.admitAccessRun(0, Run.data(), Run.size()));
  EXPECT_TRUE(Driver.halted());
  ASSERT_FALSE(Driver.diags().empty());
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ToolFault);
  EXPECT_EQ(Driver.diags()[0].OpIndex, 2u);
  EXPECT_EQ(Driver.rawOps(), 2u);
  EXPECT_EQ(Driver.dispatched(), 2u);
  EXPECT_EQ(Bomb.accessesSeen(), 3u);

  // Halted: nothing more is admitted, and offer() rejects.
  EXPECT_FALSE(Driver.admitAccessRun(0, Run.data(), Run.size()));
  Operation Op(OpKind::Write, 0, 0);
  EXPECT_EQ(Driver.offer(Op), OnlineDriver::DispatchOutcome::Rejected);
  EXPECT_EQ(Driver.rawOps(), 2u);
  EXPECT_EQ(Driver.diags().size(), 1u);
}

TEST(OnlineDriver, DispatchRunAnchorsToolFaultAtTheThrowingEvent) {
  // A shard worker's run starts at its log position and mixes threads and
  // skip words; a fault mid-run is anchored at the thrower's own raw
  // index, its position.
  FastTrack Inner;
  rt::ThrowAfterTool Bomb(Inner, 2); // third access throws
  OnlineDriverOptions Opts;
  Opts.Role = DriverRole::DispatchOnly;
  Opts.FilterReentrantLocks = false;
  OnlineDriver Driver(Bomb, driverTestCapacity(), Opts);
  const std::vector<rt::EventWord> Run = {
      rt::EventWord::of(OpKind::Write, 0, 0), rt::EventWord::skip(),
      rt::EventWord::of(OpKind::Read, 1, 1),
      rt::EventWord::of(OpKind::Write, 2, 0),
      rt::EventWord::of(OpKind::Write, 3, 1),
      rt::EventWord::of(OpKind::Read, 4, 0)};

  EXPECT_EQ(Driver.dispatchRun(Run.data(), Run.size(), 10), 3u);
  EXPECT_TRUE(Driver.halted());
  ASSERT_FALSE(Driver.diags().empty());
  EXPECT_EQ(Driver.diags()[0].Code, StatusCode::ToolFault);
  EXPECT_EQ(Driver.diags()[0].OpIndex, 13u);
  EXPECT_EQ(Driver.dispatched(), 2u);
}

TEST(OnlineDriver, AdmitAccessRunStaysOnAtTheMemoryRung) {
  // A governed tool folds pages inside its table and takes no ladder
  // rung for it, so a governed admission driver admits whole runs at
  // rung 0; the first rung, coarse 8, rewrites accesses and sends the
  // merge loop back to per-event offer().
  ToolContext Capacity;
  Capacity.NumThreads = 4;
  Capacity.NumVars = 1024;
  Capacity.NumLocks = 4;
  Capacity.NumVolatiles = 4;
  constexpr size_t N = 16; // well inside one BudgetCheckEveryOps window
  std::vector<rt::EventWord> Run;
  for (uint32_t I = 0; I != N; ++I)
    Run.push_back(rt::EventWord::of(I % 2 ? OpKind::Read : OpKind::Write, I * 3));

  auto Admit = [&](unsigned StartRung, bool ExpectAdmitted) {
    SCOPED_TRACE("StartRung " + std::to_string(StartRung));
    OnlineDriverOptions Opts;
    Opts.Role = DriverRole::AdmissionOnly;
    Opts.Degrade.Memory.Enabled = true;
    Opts.Degrade.Memory.BudgetBytes = 64 * 1024;
    Opts.Degrade.StartRung = StartRung;
    FastTrack Detector;
    OnlineDriver Driver(Detector, Capacity, Opts);
    ASSERT_EQ(Driver.rung(), StartRung);
    EXPECT_EQ(Driver.admitAccessRun(1, Run.data(), N), ExpectAdmitted);
    EXPECT_EQ(Driver.rawOps(), ExpectAdmitted ? N : 0u);
    EXPECT_EQ(Driver.dispatched(), ExpectAdmitted ? N : 0u);
  };
  Admit(0, true);
  Admit(1, false); // coarse 8
}

namespace {

/// Feeds \p Ops to \p Driver as the merge loop does: each same-thread
/// access stretch through admitAccessRun(), the rest of a declined
/// stretch and every sync event through offer(). Returns how many
/// stretches were admitted whole.
size_t feedAsMergeLoop(OnlineDriver &Driver, const Trace &Ops) {
  size_t Whole = 0;
  for (size_t I = 0; I != Ops.size();) {
    size_t End = I + 1;
    if (isAccess(Ops[I].Kind)) {
      while (End != Ops.size() && isAccess(Ops[End].Kind) &&
             Ops[End].Thread == Ops[I].Thread)
        ++End;
      std::vector<rt::EventWord> Run;
      for (size_t J = I; J != End; ++J)
        Run.push_back(rt::EventWord::of(Ops[J].Kind, Ops[J].Target));
      const uint64_t Base = Driver.rawOps();
      Whole += Driver.admitAccessRun(Ops[I].Thread, Run.data(), Run.size());
      I += static_cast<size_t>(Driver.rawOps() - Base);
    }
    for (; I != End; ++I) {
      Operation Op = Ops[I];
      EXPECT_EQ(Driver.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
    }
  }
  return Whole;
}

/// Driver options whose budget probe records the raw index it ran at.
OnlineDriverOptions probeRecording(DriverRole Role,
                                   std::vector<uint64_t> &ProbedAt,
                                   OnlineDriver *&Self) {
  OnlineDriverOptions Opts;
  Opts.Role = Role;
  Opts.Degrade.Memory.BudgetBytes = 1ull << 40; // probed, never breached
  Opts.Degrade.BudgetCheckEveryOps = 5;
  Opts.ShadowBytes = [&ProbedAt, &Self] {
    ProbedAt.push_back(Self->rawOps());
    return uint64_t(0);
  };
  return Opts;
}

/// Two threads, each writing stretches of 3 to 12 variables between lock
/// round trips: with probes every 5 ops, most stretches straddle one.
Trace straddlingStream() {
  TraceBuilder B;
  B.fork(0, 1);
  for (uint32_t R = 0; R != 12; ++R) {
    const ThreadId T = R % 2;
    for (uint32_t V = 0; V != 3 + R % 10; ++V)
      B.wr(T, (R * 5 + V) % 16);
    B.acq(T, T).rel(T, T);
  }
  B.join(0, 1);
  return B.take();
}

} // namespace

TEST(OnlineDriver, AccessRunStraddlingAProbeIsAdmittedWhole) {
  // A budget probe due inside an access stretch is taken in the run,
  // once, at the raw index per-event offer() takes it, and admission goes
  // on: every stretch is admitted whole, and the probes and warnings match
  // a driver fed one offer() per event, in both roles that admit.
  const Trace Ops = straddlingStream();
  for (DriverRole Role : {DriverRole::Full, DriverRole::AdmissionOnly}) {
    SCOPED_TRACE(Role == DriverRole::Full ? "Full" : "AdmissionOnly");
    std::vector<uint64_t> SerialProbes, RunProbes;
    OnlineDriver *SerialSelf = nullptr, *RunSelf = nullptr;
    FastTrack PerEvent, Batched;
    OnlineDriver Serial(PerEvent, driverTestCapacity(),
                        probeRecording(Role, SerialProbes, SerialSelf));
    OnlineDriver Runs(Batched, driverTestCapacity(),
                      probeRecording(Role, RunProbes, RunSelf));
    SerialSelf = &Serial;
    RunSelf = &Runs;
    for (Operation Op : Ops)
      ASSERT_EQ(Serial.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
    EXPECT_EQ(feedAsMergeLoop(Runs, Ops), 12u) << "a stretch was declined";
    Serial.finish();
    Runs.finish();

    ASSERT_GT(SerialProbes.size(), 5u);
    EXPECT_EQ(RunProbes, SerialProbes);
    for (uint64_t At : RunProbes)
      EXPECT_EQ(At % 5, 0u) << "probe off its index: " << At;
    EXPECT_EQ(Runs.rawOps(), Serial.rawOps());
    EXPECT_EQ(Runs.dispatched(), Serial.dispatched());
    EXPECT_TRUE(Runs.diags().empty());
    expectSameWarnings(PerEvent.warnings(), Batched.warnings());
    if (Role == DriverRole::Full) {
      EXPECT_GT(Batched.warnings().size(), 0u);
    }
  }
}

TEST(OnlineDriver, ForcedBreachInsideAnAccessRunStepsAtItsIndex) {
  // A breach forced at raw op 8, probes every 4 ops: the probe at 8 falls
  // inside thread 1's stretch of writes (raw 2..15). Admission takes the
  // prefix, probes, steps onto the coarse rung there, and stops, so
  // per-event offer() rewrites the rest: the rung, its diagnostic, the
  // indices and the warnings all match a driver fed one offer() per event.
  TraceBuilder B;
  B.fork(0, 1).wr(0, 3);
  for (uint32_t V = 0; V != 14; ++V)
    B.wr(1, V);
  B.join(0, 1).wr(0, 9);
  const Trace Ops = B.take();
  ToolContext Capacity = driverTestCapacity();
  Capacity.NumVars = 64;
  OnlineDriverOptions Opts;
  Opts.Degrade.BudgetCheckEveryOps = 4;
  Opts.ForceBudgetBreachAtRawOp = 8;

  FastTrack PerEvent, Batched;
  OnlineDriver Serial(PerEvent, Capacity, Opts);
  for (Operation Op : Ops)
    ASSERT_EQ(Serial.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
  OnlineDriver Runs(Batched, Capacity, Opts);
  EXPECT_EQ(feedAsMergeLoop(Runs, Ops), 1u) << "only wr(0, 3) is whole";
  Serial.finish();
  Runs.finish();

  ASSERT_EQ(Serial.diags().size(), 1u);
  EXPECT_EQ(Serial.diags()[0].OpIndex, 8u);
  ASSERT_EQ(Runs.diags().size(), 1u);
  EXPECT_EQ(Runs.diags()[0].OpIndex, 8u);
  EXPECT_EQ(Runs.diags()[0].Message, Serial.diags()[0].Message);
  EXPECT_EQ(Runs.rung(), 1u);
  EXPECT_EQ(Serial.rung(), 1u);
  EXPECT_EQ(Runs.rawOps(), Serial.rawOps());
  EXPECT_EQ(Runs.dispatched(), Serial.dispatched());
  EXPECT_GT(Batched.warnings().size(), 0u);
  expectSameWarnings(PerEvent.warnings(), Batched.warnings());
}

//===----------------------------------------------------------------------===//
// Cross-shard determinism
//===----------------------------------------------------------------------===//

TEST(OnlineSharding, WarningSetsIdenticalAcrossShardCounts) {
  // 3 shards take the map's division path; the others shift and mask.
  std::vector<std::set<VarId>> PerShardCount;
  for (unsigned Shards : {1u, 2u, 3u, 4u, 8u}) {
    FastTrack Detector;
    rt::OnlineReport Report = runDeterminism(Detector, Shards);
    EXPECT_FALSE(Report.Halted);
    EXPECT_EQ(Report.Shards, Shards);
    EXPECT_EQ(Report.DroppedPostHalt, 0u);
    for (const Diagnostic &D : Report.Diags)
      ADD_FAILURE() << "Shards=" << Shards << ": " << toString(D);
    EXPECT_EQ(warnedVars(Detector.warnings()).size(),
              DeterminismWorkload::NumRacy);
    PerShardCount.push_back(warnedVars(Detector.warnings()));
  }
  ASSERT_EQ(PerShardCount.size(), 5u);
  for (size_t I = 1; I != PerShardCount.size(); ++I)
    EXPECT_EQ(PerShardCount[0], PerShardCount[I])
        << "run " << I << " must warn on exactly the single-sequencer "
        << "variables";
}

TEST(OnlineSharding, SyncHeavyWorkloadStaysEquivalent) {
  // A sync-dominated workload: every access bracketed by a lock, plus a
  // deliberately unguarded pair. Every worker dispatches every lock event
  // while it keeps a quarter of the accesses, so this leans on the
  // workers' shared view of the sync stream as hard as a small test can.
  rt::OnlineOptions Options;
  Options.Shards = 4;
  Options.ShardBlockVars = 2; // spread the nine vars over all four shards
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;

  FastTrack Detector;
  std::vector<rt::Shared<int>> Cells(8);
  rt::Shared<int> Unguarded;
  std::vector<rt::Mutex> Locks(8);

  rt::Engine Engine(Detector, std::move(Options));
  {
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != 4; ++T)
      Threads.emplace_back([&, T] {
        // Before the first acquire: no lock chain can order this write
        // after a sibling's, so the race survives every schedule (the
        // in-loop writes below can all be serialized through the shared
        // locks on a one-core box).
        FT_WRITE(Unguarded, static_cast<int>(T));
        for (int I = 0; I != 100; ++I) {
          unsigned C = (T + static_cast<unsigned>(I)) % 8;
          Locks[C].lock();
          FT_WRITE(Cells[C], I);
          Locks[C].unlock();
        }
      });
    for (rt::Thread &T : Threads)
      T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.Shards, 4u);
  EXPECT_TRUE(isFeasible(Report.Captured));
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  // Exactly the unguarded cell races; the locked cells never do.
  EXPECT_EQ(warnedVars(Detector.warnings()).size(), 1u);
}

namespace {

/// A program whose merged stream no schedule can change: each worker runs
/// alone (main waits for it natively before forking the next) and ends on
/// a ticketed release, so all it emits merges before the next fork.
/// Worker W takes lock W twice, the inner pair re-entrant, around writes
/// and reads of variables every worker touches, so the variables race
/// and the filter strips a lock event pair per round. Emitted through
/// Engine::emit with raw ids.
void runSequentialLockedWorkers(unsigned Workers, unsigned Rounds) {
  std::atomic<unsigned> Finished{0};
  std::vector<rt::Thread> Threads;
  for (unsigned W = 0; W != Workers; ++W) {
    Threads.emplace_back([W, Rounds, &Finished] {
      rt::Engine &E = *rt::Engine::current();
      for (unsigned R = 0; R != Rounds; ++R) {
        E.emit(OpKind::Acquire, W);
        E.emit(OpKind::Write, (W + R) % 16);
        E.emit(OpKind::Acquire, W);
        E.emit(OpKind::Read, (3 * R) % 16);
        E.emit(OpKind::Write, (W * 5 + R) % 16);
        E.emit(OpKind::Release, W);
        E.emit(OpKind::Release, W);
      }
      Finished.fetch_add(1, std::memory_order_release);
    });
    while (Finished.load(std::memory_order_acquire) != W + 1)
      std::this_thread::yield();
  }
  for (rt::Thread &T : Threads)
    T.join();
}

/// One session of runSequentialLockedWorkers at \p Shards, its first
/// ticket \p FirstTicket.
rt::OnlineReport runSequential(FastTrack &Detector, unsigned Shards,
                               uint64_t FirstTicket = 0) {
  rt::FaultPlan Plan;
  Plan.FirstTicket = FirstTicket;
  rt::OnlineOptions Options;
  Options.Shards = Shards;
  Options.ShardBlockVars = 1; // the sixteen variables on every shard
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  Options.Faults = &Plan;
  rt::Engine Engine(Detector, std::move(Options));
  runSequentialLockedWorkers(3, 20);
  return Engine.finish();
}

void expectSameCapture(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << "op " << I;
}

} // namespace

TEST(OnlineSharding, FilteredLockEventsKeepTheirIndicesAcrossShardCounts) {
  // With FilterReentrantLocks on, the nested acquire/release pairs are
  // captured but never dispatched; in the shard log they sit as skip
  // words, so a log position stays the event's raw index. Warnings
  // (OpIndex included) and captures are byte-identical at every shard
  // count.
  FastTrack Reference;
  const rt::OnlineReport Serial = runSequential(Reference, 1);
  ASSERT_FALSE(Serial.Halted);
  ASSERT_GT(Reference.warnings().size(), 0u);
  // The capture keeps the nested pairs, and the validator reads them as
  // re-entrant acquires, not as a second owner.
  for (const Diagnostic &D : Serial.Diags)
    EXPECT_NE(D.Code, StatusCode::ValidationError) << toString(D);
  uint64_t Acquires = 0;
  for (const Operation &Op : Serial.Captured)
    Acquires += Op.Kind == OpKind::Acquire;
  EXPECT_EQ(Acquires, 3u * 20 * 2) << "filtered acquires are captured";
  EXPECT_EQ(Serial.EventsDispatched, Serial.EventsCaptured - 3u * 20 * 2);
  for (unsigned Shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << Shards << " shards");
    FastTrack Detector;
    const rt::OnlineReport Report = runSequential(Detector, Shards);
    EXPECT_EQ(Report.Shards, Shards);
    EXPECT_FALSE(Report.Halted);
    for (const Diagnostic &D : Report.Diags)
      ADD_FAILURE() << toString(D);
    expectSameCapture(Serial.Captured, Report.Captured);
    expectSameWarnings(Reference.warnings(), Detector.warnings());
  }
}

TEST(OnlineEngine, TicketsMergeAcrossTheResidueWrap) {
  // Ring words keep a ticket modulo EventWord::TicketWindow. A session
  // whose ticket counter starts just below the wrap merges its sync
  // events through it in ticket order: the capture and the warnings are
  // those of a session that starts at 0, with and without shards.
  for (unsigned Shards : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << Shards << " shards");
    FastTrack AtZero, AtWrap;
    const rt::OnlineReport Zero = runSequential(AtZero, Shards);
    const rt::OnlineReport Wrap =
        runSequential(AtWrap, Shards, rt::EventWord::TicketWindow - 50);
    ASSERT_GT(Zero.EventsCaptured, 200u) << "the wrap must fall mid-session";
    EXPECT_FALSE(Wrap.Halted);
    for (const Diagnostic &D : Wrap.Diags)
      ADD_FAILURE() << toString(D);
    expectSameCapture(Zero.Captured, Wrap.Captured);
    ASSERT_GT(AtZero.warnings().size(), 0u);
    expectSameWarnings(AtZero.warnings(), AtWrap.warnings());
  }
}

//===----------------------------------------------------------------------===//
// Fallback and per-shard resilience
//===----------------------------------------------------------------------===//

namespace {

/// A correct but deliberately non-ShardableTool detector stand-in.
class CountingTool : public Tool {
public:
  const char *name() const override { return "CountingTool"; }
  bool onRead(ThreadId, VarId, size_t) override { return ++Accesses != 0; }
  bool onWrite(ThreadId, VarId, size_t) override { return ++Accesses != 0; }
  uint64_t Accesses = 0;
};

} // namespace

TEST(OnlineSharding, TinyLogStaysEquivalent) {
  // A 16-slot log for four workers (4 x max(RingCapacity 4,
  // SequencerBatch 1 x 4)) under the generated sync-heavy programs: nearly
  // every batch finds the log full,
  // so the merge loop spends the session on its one park-on-full-log
  // path, and the workers run in lockstep. Whatever the schedule, the
  // capture must
  // validate, the warnings must be exactly what the Shards=1 delivery step
  // (a Full driver dispatching inline) reports on the same merged stream,
  // and the warned variables must be the HB oracle's racy set.
  ToolContext Capacity;
  {
    const rt::OnlineOptions Defaults;
    Capacity.NumThreads = Defaults.MaxThreads;
    Capacity.NumVars = Defaults.MaxVars;
    Capacity.NumLocks = Defaults.MaxLocks;
    Capacity.NumVolatiles = Defaults.MaxVolatiles;
  }
  size_t RacyPrograms = 0;
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    const NativeProgram Program(Seed * 7919, /*SyncFree=*/false);
    rt::OnlineOptions Options;
    Options.Shards = 4;
    Options.ShardBlockVars = 2;
    Options.SequencerBatch = 1;
    Options.RingCapacity = 4;
    Options.Degrade.Enabled = false;
    Options.Supervise.Enabled = false;

    FastTrack Detector;
    rt::OnlineReport Report;
    {
      rt::Engine Engine(Detector, std::move(Options));
      Program.run();
      Report = Engine.finish();
    }
    EXPECT_FALSE(Report.Halted);
    EXPECT_EQ(Report.Shards, 4u);
    for (const Diagnostic &D : Report.Diags)
      ADD_FAILURE() << toString(D);
    EXPECT_TRUE(isFeasible(Report.Captured));

    FastTrack Inline;
    OnlineDriver Full(Inline, Capacity);
    for (Operation Op : Report.Captured)
      ASSERT_EQ(Full.offer(Op), OnlineDriver::DispatchOutcome::Delivered);
    Full.finish();
    expectSameWarnings(Detector.warnings(), Inline.warnings());

    const std::set<VarId> Warned = warnedVars(Detector.warnings());
    EXPECT_EQ(std::vector<VarId>(Warned.begin(), Warned.end()),
              racyVarsLinear(Report.Captured));
    RacyPrograms += !Warned.empty();
  }
  EXPECT_GT(RacyPrograms, 0u) << "the sweep must exercise warnings";
}

TEST(OnlineSharding, NonShardableToolFallsBackToSingleSequencer) {
  rt::OnlineOptions Options;
  Options.Shards = 4;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;

  CountingTool Counter;
  rt::Shared<int> X;
  rt::Engine Engine(Counter, std::move(Options));
  for (int I = 0; I != 10; ++I)
    FT_WRITE(X, I);
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.Shards, 1u);
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Counter.Accesses, 10u);
  EXPECT_TRUE(anyDiagContains(Report.Diags,
                              "does not implement ShardableTool"));
}

TEST(OnlineEngine, OptionsBeyondTheEventWordAreCutToFit) {
  // MaxThreads × (RingCapacity + 1) tickets may be in flight, and a ring
  // word keeps 2^27 apart. Options past that run cut to fit, with a
  // diagnostic, never an abort; options within it pass unchanged.
  struct Case {
    unsigned MaxThreads;
    size_t RingCapacity;
    unsigned ExpectThreads;
    size_t ExpectRing;
  };
  for (const Case &C : {Case{1u << 20, 1024, 1u << 20, 64},
                        Case{1u << 30, 8, 1u << 26, 1},
                        Case{64, 1000, 64, 1000}}) {
    SCOPED_TRACE(testing::Message() << C.MaxThreads << " threads, ring "
                                    << C.RingCapacity);
    rt::OnlineOptions Options;
    Options.MaxThreads = C.MaxThreads;
    Options.RingCapacity = C.RingCapacity;
    Options.MaxLocks = 1;
    Options.Supervise.Enabled = false;
    CountingTool Counter;
    rt::OnlineReport Report;
    {
      rt::Engine Engine(Counter, std::move(Options));
      for (uint32_t I = 0; I != 100; ++I)
        Engine.emit(OpKind::Write, I);
      Report = Engine.finish();
    }
    EXPECT_FALSE(Report.Halted);
    EXPECT_EQ(Counter.Accesses, 100u);
    const bool Cut = C.ExpectThreads != C.MaxThreads ||
                     C.ExpectRing != C.RingCapacity;
    EXPECT_EQ(anyDiagContains(Report.Diags, "exceeds the event word"), Cut);
    if (Cut) {
      EXPECT_TRUE(anyDiagContains(
          Report.Diags, ("running with MaxThreads " +
                         std::to_string(C.ExpectThreads) + " and RingCapacity " +
                         std::to_string(C.ExpectRing))
                            .c_str()));
    }
  }
}

TEST(OnlineSharding, ShardCountIsCapped) {
  rt::OnlineOptions Options;
  Options.Shards = MaxShards + 1;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;

  FastTrack Detector;
  rt::Shared<int> X;
  rt::Engine Engine(Detector, std::move(Options));
  for (int I = 0; I != 10; ++I)
    FT_WRITE(X, I);
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.Shards, 64u);
  EXPECT_FALSE(Report.Halted);
  EXPECT_TRUE(Detector.warnings().empty());
}

//===----------------------------------------------------------------------===//
// The SequencerBatch/watermark invariant
//===----------------------------------------------------------------------===//

TEST(OnlineSharding, CaptureIsIdenticalWhateverTheBatchSize) {
  // One producer thread → one deterministic merge order. The merge
  // position is published per batch, after the whole batch is admitted,
  // captured and logged, so the batch size decides only how often it is
  // published: at several SequencerBatch sizes, every capture must be
  // byte-identical to the default batch's, with zero events lost or
  // duplicated.
  auto RunOnce = [](size_t Batch) {
    rt::OnlineOptions Options;
    Options.Shards = 2;
    Options.ShardBlockVars = 4;
    Options.SequencerBatch = Batch;
    Options.Degrade.Enabled = false;
    Options.Supervise.Enabled = false;

    FastTrack Detector;
    std::vector<rt::Shared<int>> Vars(16);
    rt::Mutex M;
    rt::Engine Engine(Detector, std::move(Options));
    for (int I = 0; I != 100; ++I) {
      FT_WRITE(Vars[static_cast<unsigned>(I) % 16], I);
      if (I % 10 == 0) {
        M.lock();
        M.unlock();
      }
    }
    rt::OnlineReport Report = Engine.finish();
    EXPECT_FALSE(Report.Halted);
    EXPECT_EQ(Report.DroppedPostHalt, 0u) << "batch " << Batch;
    return Report.Captured;
  };

  Trace Baseline = RunOnce(256);
  ASSERT_GT(Baseline.size(), 0u);
  for (size_t Batch : {1u, 3u, 1024u}) {
    Trace Other = RunOnce(Batch);
    ASSERT_EQ(Other.size(), Baseline.size()) << "batch " << Batch;
    for (size_t I = 0; I != Baseline.size(); ++I) {
      EXPECT_EQ(Other[I].Kind, Baseline[I].Kind) << "op " << I;
      EXPECT_EQ(Other[I].Thread, Baseline[I].Thread) << "op " << I;
      EXPECT_EQ(Other[I].Target, Baseline[I].Target) << "op " << I;
    }
  }
}

TEST(OnlineSharding, ThreadChurnIsEquivalentAcrossShardCounts) {
  // Slot recycling happens in the merge loop's admission layer, upstream
  // of the shard split: every worker sees the same fork/join stream
  // whichever incarnation a tid is in, so churn through a tiny slot table
  // must be invisible in the results at every shard count. Three-variable
  // blocks take the map's division path at every shard count.
  constexpr unsigned Churn = 50;
  std::vector<std::set<VarId>> PerShardCount;
  for (unsigned Shards : {1u, 2u, 3u, 4u, 8u}) {
    FastTrack Detector;
    std::vector<rt::Shared<int>> Vars(Churn);
    rt::OnlineOptions Options;
    Options.Shards = Shards;
    Options.ShardBlockVars = 3;
    Options.MaxThreads = 8;
    Options.Supervise.Enabled = false;

    rt::Engine Engine(Detector, Options);
    for (unsigned I = 0; I != Churn; ++I) {
      rt::Thread T([&Vars, I] { FT_WRITE(Vars[I], 1); });
      FT_WRITE(Vars[I], 2); // concurrent with the child: always a race
      T.join();
    }
    rt::OnlineReport Report = Engine.finish();

    EXPECT_FALSE(Report.Halted);
    EXPECT_EQ(Report.Shards, Shards);
    for (const Diagnostic &D : Report.Diags)
      ADD_FAILURE() << "Shards=" << Shards << ": " << toString(D);
    EXPECT_EQ(Report.SlotsAllocated, 2u);
    EXPECT_EQ(Report.ThreadsRecycled, static_cast<uint64_t>(Churn - 1));
    EXPECT_EQ(Detector.warnings().size(), Churn);

    TraceValidatorOptions VOpts;
    VOpts.AllowTidReuse = true;
    EXPECT_TRUE(isFeasible(Report.Captured, VOpts));
    FastTrack Offline;
    replay(Report.Captured, Offline);
    expectSameWarnings(Detector.warnings(), Offline.warnings());
    PerShardCount.push_back(warnedVars(Detector.warnings()));
  }
  ASSERT_EQ(PerShardCount.size(), 5u);
  for (size_t I = 1; I != PerShardCount.size(); ++I)
    EXPECT_EQ(PerShardCount[0], PerShardCount[I]) << "run " << I;
}

//===----------------------------------------------------------------------===//
// Memory governance across shards
//===----------------------------------------------------------------------===//

TEST(OnlineSharding, GovernedShardsCompressAndStayEquivalent) {
  // Each shard clone governs its own slice of the shadow space. With no
  // byte budget the governance is compression only — lossless — so the
  // sharded run must stay warning-for-warning equivalent to an offline
  // ungoverned replay of its capture, while the report aggregates real
  // compression work and high-water telemetry from every clone.
  rt::OnlineOptions Options;
  Options.Shards = 4;
  Options.MaxVars = 128 * 1024; // every clone runs a paged table
  Options.Degrade.Memory.Enabled = true;
  Options.Degrade.Memory.MaintainEveryAccesses = 256;
  Options.Degrade.Memory.ColdAgeTicks = 1;
  Options.RingCapacity = 8192;
  Options.Supervise.MaxParkMs = 10000;

  constexpr size_t Sweep = 80 * 1024; // ~160 page regions, block-mapped
  FastTrack Detector;
  std::vector<rt::Shared<int>> Vars(Sweep);
  rt::Engine Engine(Detector, Options);
  for (size_t I = 0; I != Sweep; ++I)
    FT_WRITE(Vars[I], 1); // write-only sweep: compressible once cold
  {
    rt::Thread A([&] { FT_WRITE(Vars[100], 2); });
    rt::Thread B([&] { FT_WRITE(Vars[100], 3); }); // concurrent with A
    A.join();
    B.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.Shards, 4u);
  EXPECT_GT(Report.PagesCompressed, 0u);
  EXPECT_EQ(Report.PagesSummarized, 0u); // lossless mode only
  EXPECT_EQ(Report.BudgetTrips, 0u);
  EXPECT_GT(Report.ShadowBytesHighWater, 0u);
  EXPECT_GE(Report.NumWarnings, 1u);

  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

TEST(OnlineSharding, BudgetedShardsStayEquivalentPastTheMemoryRung) {
  // The budget soak of OnlineResilienceTest at two shards: each clone
  // summarizes cold pages under its share of the budget, the merge loop
  // never moves the ladder and keeps admitting accesses in batches, finish
  // records the fold once, and the warnings keep the governed relation to
  // the oracle — coarsened to the page region, never missing.
  rt::OnlineOptions Options;
  Options.Shards = 2;
  Options.MaxVars = 256 * 1024;
  Options.Degrade.Memory.Enabled = true;
  Options.Degrade.Memory.BudgetBytes = 128 * 1024;
  Options.Degrade.Memory.MaintainEveryAccesses = 512;
  Options.Degrade.Memory.ColdAgeTicks = 1;
  Options.Degrade.BudgetCheckEveryOps = 512;
  // The table's fold is the session's only precision loss.
  Options.RingCapacity = 8192;
  Options.Supervise.MaxParkMs = 10000;

  constexpr size_t Sweep = 100 * 1024; // ~200 page regions ≈ 800 KiB raw
  FastTrack Detector;
  std::vector<rt::Shared<int>> Vars(Sweep);
  rt::Engine Engine(Detector, Options);
  for (size_t I = 0; I != Sweep; ++I) {
    // Read state makes the swept pages incompressible, so the budget is
    // enforced by summarization.
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
  EXPECT_EQ(Report.Shards, 2u);
  EXPECT_EQ(Report.DegradeRung, 0u); // the fold is no ladder rung
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Coarsened);
  unsigned MemoryDiags = 0, FoldDiags = 0;
  for (const Diagnostic &D : Report.Diags) {
    MemoryDiags += D.Code == StatusCode::ResourceExhausted;
    FoldDiags += D.Message.find("summarized at page granularity") !=
                 std::string::npos;
  }
  EXPECT_EQ(MemoryDiags, 1u);
  EXPECT_EQ(FoldDiags, 1u);
  EXPECT_GE(Report.BudgetTrips, 1u);
  EXPECT_GT(Report.PagesSummarized, 0u);
  EXPECT_GE(Report.NumWarnings, 1u);
  EXPECT_TRUE(isFeasible(Report.Captured));

  const std::vector<VarId> Racy = racyVarsLinear(Report.Captured);
  ASSERT_FALSE(Racy.empty());
  std::set<VarId> RacyPages, WarnedPages;
  for (VarId V : Racy)
    RacyPages.insert(V / ShadowPageVars);
  for (const RaceWarning &W : Detector.warnings())
    WarnedPages.insert(W.Var / ShadowPageVars);
  EXPECT_EQ(RacyPages, WarnedPages);
}
