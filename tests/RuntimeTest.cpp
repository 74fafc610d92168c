//===--- RuntimeTest.cpp - the online in-process detection runtime --------===//
//
// Covers the pieces bottom-up (ring and merge gate, interner) and then the contracts the
// subsystem exists for: ticket order is a legal linearization (captures
// pass TraceValidator), online warnings equal an offline replay of the
// flight-recorder capture exactly, capture files round-trip through
// TraceIO, and backpressure/capacity limits degrade without deadlock.
//
// The CI TSan job runs this binary: real producer threads against the
// real sequencer certify the runtime's own concurrency.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/Eraser.h"
#include "framework/ParallelReplay.h"
#include "framework/Replay.h"
#include "hb/RaceOracle.h"
#include "runtime/Instrument.h"
#include "support/MemoryTracker.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceValidator.h"

#include "BlockingTool.h"
#include "NativePrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
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

/// Runs \p Body under an online FastTrack session and asserts the full
/// online/offline equivalence contract: the capture is feasible, and an
/// offline replay of it reproduces the online warnings exactly.
template <typename Body>
rt::OnlineReport checkedSession(FastTrack &Detector, Body &&Run,
                                rt::OnlineOptions Options = {}) {
  // These are exact-equivalence contract tests: every emitted event must
  // be delivered. Pin off the overload ladder and the supervisor's
  // load-shedding so a slow CI machine (TSan especially) cannot shed
  // accesses mid-test. Resilience behavior has its own suite
  // (OnlineResilienceTest.cpp).
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Engine Engine(Detector, std::move(Options));
  Run();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  for (const Diagnostic &D : Report.Diags)
    ADD_FAILURE() << toString(D);
  EXPECT_TRUE(isFeasible(Report.Captured));

  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  return Report;
}

} // namespace

//===----------------------------------------------------------------------===//
// EventRing: a thread's ring is a one-reader BroadcastLog of 8-byte words,
// drained by the merge gate (Engine::pullBatch)
//===----------------------------------------------------------------------===//

namespace {

/// A thread's ring: one reader, the merge loop.
struct Ring : rt::BroadcastLog {
  explicit Ring(size_t Capacity) : rt::BroadcastLog(Capacity, 1) {}

  /// The producer's emit: append and publish. False when full.
  bool push(rt::EventWord W) {
    if (!tryAppend(W))
      return false;
    publish();
    return true;
  }

  /// The oldest unread word, or nullptr when the ring is drained.
  const rt::EventWord *head() {
    const rt::EventWord *W = nullptr;
    return peekRun(0, W) == 0 ? nullptr : W;
  }

  bool empty() const { return cursor(0) == tail(); }
};

/// A ring word holding \p Ticket.
rt::EventWord ticketed(uint64_t Ticket, OpKind Kind, uint32_t Target) {
  return rt::EventWord::withTicket(Kind, Target, Ticket);
}

/// An unticketed ring word (an access).
rt::EventWord access(OpKind Kind, uint32_t Target) {
  return rt::EventWord::of(Kind, Target);
}

/// Join lookup for rings without joins: never consulted.
rt::BroadcastLog *NoJoins(uint32_t) {
  ADD_FAILURE() << "join gate consulted without a join";
  return nullptr;
}

size_t pull(Ring &R, uint64_t &Next, rt::EventWord *Out, size_t Max) {
  return rt::Engine::pullBatch(R, Next, Out, Max, NoJoins);
}

} // namespace

TEST(EventRing, FifoAndWraparound) {
  static_assert(sizeof(rt::EventWord) == 8, "a ring slot is one word");
  Ring R(4);
  EXPECT_EQ(R.capacity(), 4u);
  for (uint32_t Round = 0; Round != 3; ++Round) {
    for (uint32_t I = 0; I != 4; ++I) {
      ASSERT_TRUE(R.hasSpace());
      ASSERT_TRUE(R.push(access(OpKind::Read, Round * 4 + I)));
    }
    EXPECT_FALSE(R.hasSpace());
    for (uint32_t I = 0; I != 4; ++I) {
      const rt::EventWord *W = R.head();
      ASSERT_NE(W, nullptr);
      EXPECT_EQ(*W, access(OpKind::Read, Round * 4 + I));
      R.release(0, 1);
    }
    EXPECT_EQ(R.head(), nullptr);
    EXPECT_TRUE(R.empty());
  }
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(3).capacity(), 4u);
  EXPECT_EQ(Ring(5).capacity(), 8u);
  EXPECT_EQ(Ring(1024).capacity(), 1024u);
}

TEST(EventRing, PopRunDrainsConsecutiveTickets) {
  Ring R(8);
  for (uint32_t I = 0; I != 5; ++I)
    R.push(ticketed(I, OpKind::Acquire, I));
  rt::EventWord Out[8];
  uint64_t Next = 0;
  size_t N = pull(R, Next, Out, 8);
  ASSERT_EQ(N, 5u);
  EXPECT_EQ(Next, 5u);
  for (uint32_t I = 0; I != 5; ++I) {
    EXPECT_EQ(Out[I], ticketed(I, OpKind::Acquire, I));
    EXPECT_EQ(Out[I].kind(), OpKind::Acquire);
    EXPECT_EQ(Out[I].target(), I);
  }
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(pull(R, Next, Out, 8), 0u);
}

TEST(EventRing, PopRunRespectsMaxAndResumes) {
  Ring R(8);
  for (uint64_t I = 0; I != 6; ++I)
    R.push(ticketed(I, OpKind::Release, 0));
  rt::EventWord Out[4];
  uint64_t Next = 0;
  EXPECT_EQ(pull(R, Next, Out, 4), 4u);
  EXPECT_EQ(Next, 4u);
  EXPECT_EQ(pull(R, Next, Out, 4), 2u);
  EXPECT_EQ(Next, 6u);
  EXPECT_TRUE(R.empty());
}

TEST(EventRing, PopRunStopsAtOutOfRunTicket) {
  // Ticket 7 belongs to another thread's ring; this ring resumes at 8.
  Ring R(8);
  R.push(ticketed(5, OpKind::Acquire, 0));
  R.push(ticketed(6, OpKind::Release, 0));
  R.push(ticketed(8, OpKind::Acquire, 0));
  rt::EventWord Out[8];
  uint64_t Next = 5;
  EXPECT_EQ(pull(R, Next, Out, 8), 2u);
  EXPECT_EQ(Next, 7u);
  ASSERT_NE(R.head(), nullptr);
  EXPECT_EQ(*R.head(), ticketed(8, OpKind::Acquire, 0))
      << "out-of-run word must stay queued";
  Next = 8;
  EXPECT_EQ(pull(R, Next, Out, 8), 1u);
  EXPECT_TRUE(R.empty());
}

TEST(EventRing, PopRunFreesSpaceForTheProducer) {
  Ring R(4);
  rt::EventWord Out[4];
  uint64_t Next = 0;
  for (uint64_t I = 0; I != 4; ++I)
    R.push(ticketed(I, OpKind::Acquire, 0));
  EXPECT_FALSE(R.hasSpace());
  EXPECT_EQ(pull(R, Next, Out, 4), 4u);
  EXPECT_TRUE(R.hasSpace()) << "batch pull must release all slots";
  for (uint64_t I = 4; I != 8; ++I) {
    ASSERT_TRUE(R.hasSpace());
    R.push(ticketed(I, OpKind::Acquire, 0));
  }
  EXPECT_EQ(pull(R, Next, Out, 4), 4u);
  EXPECT_EQ(Next, 8u);
}

TEST(EventRing, UnticketedAccessesFlowBetweenTickets) {
  // Accesses carry no ticket: they pass freely, in FIFO order, and only
  // a ticketed word that is not next stops the run.
  Ring R(16);
  R.push(ticketed(3, OpKind::Acquire, 0));
  R.push(access(OpKind::Write, 1));
  R.push(access(OpKind::Read, 2));
  R.push(ticketed(4, OpKind::Release, 0));
  R.push(access(OpKind::Write, 3));
  R.push(ticketed(7, OpKind::Acquire, 0)); // another ring holds 5 and 6
  R.push(access(OpKind::Write, 4));
  rt::EventWord Out[16];
  uint64_t Next = 3;
  ASSERT_EQ(pull(R, Next, Out, 16), 5u);
  EXPECT_EQ(Next, 5u);
  const uint32_t Targets[] = {0, 1, 2, 0, 3};
  for (size_t I = 0; I != 5; ++I)
    EXPECT_EQ(Out[I].target(), Targets[I]) << "word " << I;
  ASSERT_NE(R.head(), nullptr);
  EXPECT_EQ(*R.head(), ticketed(7, OpKind::Acquire, 0))
      << "future ticket must stay queued";

  Next = 7;
  ASSERT_EQ(pull(R, Next, Out, 16), 2u);
  EXPECT_EQ(Next, 8u);
  EXPECT_FALSE(Out[1].ticketed());
  EXPECT_EQ(Out[1].tag(), 0u) << "an access carries an empty tag";
  EXPECT_TRUE(R.empty());
}

TEST(EventRing, UnticketedRunRespectsMax) {
  // A sync-free run is bounded by Max alone and resumes where it left.
  Ring R(8);
  for (uint32_t I = 0; I != 6; ++I)
    R.push(access(OpKind::Write, I));
  rt::EventWord Out[4];
  uint64_t Next = 0;
  EXPECT_EQ(pull(R, Next, Out, 4), 4u);
  EXPECT_EQ(pull(R, Next, Out, 4), 2u);
  EXPECT_EQ(Out[1].target(), 5u);
  EXPECT_EQ(Next, 0u) << "unticketed words draw no ticket";
  EXPECT_TRUE(R.empty());
}

TEST(EventRing, TicketedRunAcrossTheWrapMergesWhole) {
  // Advance the ring's position to 5 of 8 slots, then queue a run of
  // tickets 5..10 that occupies slots 5, 6, 7, 0, 1, 2: one pull must
  // take all six in order, not stop at the buffer's end.
  Ring R(8);
  rt::EventWord Out[8];
  uint64_t Next = 0;
  for (uint64_t I = 0; I != 5; ++I)
    R.push(ticketed(I, OpKind::Release, 0));
  ASSERT_EQ(pull(R, Next, Out, 8), 5u);
  for (uint32_t I = 5; I != 11; ++I)
    ASSERT_TRUE(R.push(ticketed(I, OpKind::Acquire, I)));
  ASSERT_EQ(pull(R, Next, Out, 8), 6u);
  EXPECT_EQ(Next, 11u);
  for (uint32_t I = 0; I != 6; ++I)
    EXPECT_EQ(Out[I], ticketed(5 + I, OpKind::Acquire, 5 + I)) << "word " << I;
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.cursor(0), 11u) << "the whole run is released at once";
}

TEST(EventRing, TicketResiduesMergeAcrossTheirWrap) {
  // A word keeps its ticket modulo TicketWindow. Tickets in flight never
  // span a window, so residue equality is ticket equality: the run
  // W-2, W-1, W, W+1 merges in order through the residue's wrap to 0,
  // and a residue that is not next's stays queued.
  constexpr uint64_t W = rt::EventWord::TicketWindow;
  Ring R(8);
  for (uint64_t T = W - 2; T != W + 2; ++T)
    R.push(ticketed(T, OpKind::Acquire, static_cast<uint32_t>(T % 7)));
  R.push(ticketed(W + 3, OpKind::Release, 0)); // W + 2 is another ring's
  EXPECT_EQ(ticketed(W, OpKind::Acquire, 0), ticketed(0, OpKind::Acquire, 0))
      << "the word holds the residue only";
  rt::EventWord Out[8];
  uint64_t Next = W - 2;
  ASSERT_EQ(pull(R, Next, Out, 8), 4u);
  EXPECT_EQ(Next, W + 2);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_EQ(Out[I].target(), (W - 2 + I) % 7) << "word " << I;
  ASSERT_NE(R.head(), nullptr);
  EXPECT_EQ(R.head()->tag(), rt::EventWord::ticketTag(3));
  Next = W + 3;
  EXPECT_EQ(pull(R, Next, Out, 8), 1u);
  EXPECT_TRUE(R.empty());
}

TEST(EventRing, JoinWaitsForTheJoinedThreadsTrailingAccesses) {
  // join(t, u) is next, but u's ring still holds unticketed accesses
  // u made before it exited: they must merge first.
  Ring Parent(8), Child(8);
  Parent.push(ticketed(5, OpKind::Join, 1));
  Child.push(access(OpKind::Write, 0));
  Child.push(access(OpKind::Read, 0));
  auto ChildLog = [&](uint32_t U) -> rt::BroadcastLog * {
    EXPECT_EQ(U, 1u);
    return &Child;
  };
  rt::EventWord Out[8];
  uint64_t Next = 5;
  EXPECT_EQ(rt::Engine::pullBatch(Parent, Next, Out, 8, ChildLog), 0u);
  EXPECT_EQ(Next, 5u) << "a gated join must not consume its ticket";
  EXPECT_EQ(pull(Child, Next, Out, 8), 2u);
  EXPECT_EQ(rt::Engine::pullBatch(Parent, Next, Out, 8, ChildLog), 1u);
  EXPECT_EQ(Out[0].kind(), OpKind::Join);
  EXPECT_EQ(Next, 6u);
}

TEST(EventRing, JoinGateOpensOnALaterIncarnationsTicketedHead) {
  // A recycled slot: the next incarnation's first event is ticketed (it
  // was forked after the join), so a ticketed head means the joined
  // incarnation has fully drained — the gate must open, not deadlock
  // waiting on an event that can only merge after the join.
  Ring Parent(8), Slot(8);
  Parent.push(ticketed(5, OpKind::Join, 1));
  Parent.push(ticketed(6, OpKind::Fork, 1));
  Slot.push(access(OpKind::Write, 0));        // dead incarnation
  Slot.push(ticketed(7, OpKind::Write, 0));   // successor's first event
  Slot.push(access(OpKind::Write, 0));
  auto SlotLog = [&](uint32_t) -> rt::BroadcastLog * { return &Slot; };
  rt::EventWord Out[8];
  uint64_t Next = 5;
  EXPECT_EQ(rt::Engine::pullBatch(Parent, Next, Out, 8, SlotLog), 0u);
  // The successor's head is not mergeable yet, but the dead
  // incarnation's access is.
  EXPECT_EQ(pull(Slot, Next, Out, 8), 1u);
  EXPECT_EQ(rt::Engine::pullBatch(Parent, Next, Out, 8, SlotLog), 2u);
  EXPECT_EQ(Next, 7u);
  EXPECT_EQ(pull(Slot, Next, Out, 8), 2u);
  EXPECT_EQ(Next, 8u);
}

//===----------------------------------------------------------------------===//
// EntityInterner
//===----------------------------------------------------------------------===//

TEST(EntityInterner, DenseStableIdsPerKind) {
  rt::EntityInterner Interner;
  int A = 0, B = 0, C = 0;
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &A), 0u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &B), 1u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &A), 0u); // stable
  // Kinds are independent id spaces: the same address can be a var id
  // and a lock id.
  EXPECT_EQ(Interner.intern(rt::EntityKind::Lock, &A), 0u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Volatile, &C), 0u);
  EXPECT_EQ(Interner.numVars(), 2u);
  EXPECT_EQ(Interner.numLocks(), 1u);
  EXPECT_EQ(Interner.numVolatiles(), 1u);
  EXPECT_EQ(Interner.allocateThreadId(), 0u);
  EXPECT_EQ(Interner.allocateThreadId(), 1u);
}

//===----------------------------------------------------------------------===//
// Engine: capture shape and linearization
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, SingleThreadedCaptureIsTheProgramOrder) {
  FastTrack Detector;
  rt::Shared<int> X;
  rt::Mutex M;
  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  M.lock();
  (void)FT_READ(X);
  M.unlock();
  rt::OnlineReport Report = Engine.finish();

  Trace Expected = TraceBuilder().wr(0, 0).acq(0, 0).rd(0, 0).rel(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsCaptured, 4u);
  EXPECT_EQ(Report.EventsDispatched, 4u);
  EXPECT_EQ(Report.NumWarnings, 0u);
}

TEST(OnlineEngine, ForkAndJoinBracketChildEvents) {
  FastTrack Detector;
  rt::Shared<int> X;
  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  rt::Thread Child([&X] { FT_WRITE(X, 2); });
  Child.join();
  (void)FT_READ(X);
  rt::OnlineReport Report = Engine.finish();

  // fork-join ordering makes this race-free, and the capture must spell
  // the bracketing out exactly.
  Trace Expected =
      TraceBuilder().wr(0, 0).fork(0, 1).wr(1, 0).join(0, 1).rd(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, DetectsARaceOnlineAndReportsItImmediately) {
  FastTrack Detector;
  rt::Shared<int> X;
  std::vector<RaceWarning> Sunk;
  rt::OnlineOptions Options;
  Options.OnWarning = [&Sunk](const RaceWarning &W) { Sunk.push_back(W); };

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  rt::Thread A([&X] { FT_WRITE(X, 2); });
  rt::Thread B([&X] { (void)FT_READ(X); });
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.NumWarnings, 1u); // dedup: one warning for x0
  ASSERT_EQ(Sunk.size(), 1u);
  EXPECT_EQ(Sunk[0].Var, 0u);
  expectSameWarnings(Detector.warnings(), Sunk);
}

TEST(OnlineEngine, DowngradedSharedSkipsEventsButCountsThem) {
  // The native elision annotation: a downgraded Shared<T> performs its
  // accesses without emitting, and the session report says how many.
  FastTrack Detector;
  rt::Shared<int> Local;
  rt::Shared<int> Checked;
  Local.downgrade();
  EXPECT_FALSE(Local.checked());

  rt::Engine Engine(Detector);
  FT_WRITE(Local, 1);
  FT_WRITE(Checked, 2);
  rt::Thread Child([&Local] {
    FT_WRITE(Local, 3); // would be a capture-visible op if checked
    (void)FT_READ(Local);
  });
  Child.join();
  (void)FT_READ(Checked);
  rt::OnlineReport Report = Engine.finish();

  // Only Checked's accesses (plus fork/join) reach the stream.
  Trace Expected =
      TraceBuilder().wr(0, 0).fork(0, 1).join(0, 1).rd(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsElided, 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_EQ(Local.read(), 3);
}

TEST(OnlineEngine, UpgradeRestoresEmission) {
  FastTrack Detector;
  rt::Shared<int> X;
  X.downgrade();
  X.upgrade();

  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  rt::OnlineReport Report = Engine.finish();
  EXPECT_EQ(Report.EventsCaptured, 1u);
  EXPECT_EQ(Report.EventsElided, 0u);
}

TEST(OnlineEngine, UncheckedIsAPureUninstrumentedPassThrough) {
  FastTrack Detector;
  rt::Unchecked<int> Scratch(5);
  rt::Engine Engine(Detector);
  Scratch.write(Scratch.read() + 1);
  rt::Thread Child([&Scratch] { (void)Scratch.read(); });
  Child.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Scratch.read(), 6);
  // Nothing emitted, nothing counted: Unchecked is invisible to the
  // session (unlike downgrade(), which is audited via EventsElided).
  Trace Expected = TraceBuilder().fork(0, 1).join(0, 1).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsElided, 0u);
}

//===----------------------------------------------------------------------===//
// Online/offline equivalence on the ported example programs
//===----------------------------------------------------------------------===//

namespace {

/// The bounded-buffer port (examples/native_bounded_buffer.cpp), small.
struct BoundedBuffer {
  rt::Mutex M;
  rt::CondVar CV;
  rt::Shared<int> Slot;
  rt::Shared<int> Full;
  rt::Shared<int> Consumed;

  void producer(int Items) {
    for (int I = 1; I <= Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 0; });
      FT_WRITE(Slot, I * 10);
      FT_WRITE(Full, 1);
      CV.notifyAll();
    }
  }
  void consumer(int Items) {
    for (int I = 0; I < Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 1; });
      FT_WRITE(Consumed, FT_READ(Consumed) + FT_READ(Slot));
      FT_WRITE(Full, 0);
      CV.notifyAll();
    }
  }
};

/// The broken double-checked-locking port (racy on every schedule).
struct BrokenLazyInit {
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Shared<int> Initialized;

  int getInstance() {
    if (FT_READ(Initialized) == 0) {
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (FT_READ(Initialized) == 0) {
        FT_WRITE(Singleton, 42);
        FT_WRITE(Initialized, 1);
      }
    }
    return FT_READ(Singleton);
  }
};

} // namespace

TEST(OnlineEquivalence, BoundedBufferIsRaceFreeOnEverySchedule) {
  for (int Round = 0; Round != 5; ++Round) {
    FastTrack Detector;
    BoundedBuffer Buffer;
    rt::OnlineReport Report = checkedSession(Detector, [&Buffer] {
      rt::Thread P([&Buffer] { Buffer.producer(5); });
      rt::Thread C([&Buffer] { Buffer.consumer(5); });
      P.join();
      C.join();
    });
    EXPECT_EQ(Report.NumWarnings, 0u) << "round " << Round;
    EXPECT_EQ(Buffer.Consumed.read(), 150);
  }
}

TEST(OnlineEquivalence, HoldsForEverySequencerBatchSize) {
  // Batch edges: 1 degenerates to the unbatched drain, 2 and 3 force
  // mid-run batch boundaries, 1024 exceeds every ring's content. The
  // merged order (and so the warnings) must be identical throughout.
  for (size_t Batch : {size_t(1), size_t(2), size_t(3), size_t(1024)}) {
    FastTrack Detector;
    BoundedBuffer Buffer;
    rt::OnlineOptions Options;
    Options.SequencerBatch = Batch;
    rt::OnlineReport Report = checkedSession(
        Detector,
        [&Buffer] {
          rt::Thread P([&Buffer] { Buffer.producer(5); });
          rt::Thread C([&Buffer] { Buffer.consumer(5); });
          P.join();
          C.join();
        },
        std::move(Options));
    EXPECT_EQ(Report.NumWarnings, 0u) << "batch " << Batch;
    EXPECT_EQ(Buffer.Consumed.read(), 150);
  }
}

TEST(OnlineEquivalence, DoubleCheckedLockingIsRacyOnEverySchedule) {
  for (int Round = 0; Round != 5; ++Round) {
    FastTrack Detector;
    BrokenLazyInit Lazy;
    rt::OnlineReport Report = checkedSession(Detector, [&Lazy] {
      rt::Thread A([&Lazy] { (void)Lazy.getInstance(); });
      rt::Thread B([&Lazy] { (void)Lazy.getInstance(); });
      A.join();
      B.join();
    });
    // Whatever the schedule, the unprotected flag read races with the
    // initializing write (see the example for the argument).
    EXPECT_GT(Report.NumWarnings, 0u) << "round " << Round;
  }
}

TEST(OnlineEquivalence, VolatileFlagFixesDoubleCheckedLocking) {
  FastTrack Detector;
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Volatile<int> Initialized;
  auto GetInstance = [&] {
    if (Initialized.read() == 0) {
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (Initialized.read() == 0) {
        FT_WRITE(Singleton, 42);
        Initialized.write(1);
      }
    }
    return FT_READ(Singleton);
  };
  rt::OnlineReport Report = checkedSession(Detector, [&] {
    rt::Thread A([&] { (void)GetInstance(); });
    rt::Thread B([&] { (void)GetInstance(); });
    A.join();
    B.join();
  });
  EXPECT_EQ(Report.NumWarnings, 0u);
}

//===----------------------------------------------------------------------===//
// Flight recorder: capture → validate → save → load → replay round trip
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, CaptureRoundTripsThroughDiskAndReplay) {
  const char *Path = "runtime_capture_roundtrip.trc";
  FastTrack Detector;
  rt::Shared<int> X, Y;
  rt::Mutex M;
  rt::OnlineOptions Options;
  Options.CapturePath = Path;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(Y, 5);
  rt::Thread A([&] {
    M.lock();
    FT_WRITE(X, 1);
    M.unlock();
    (void)FT_READ(Y); // race with main's later write
  });
  M.lock();
  FT_WRITE(X, 2);
  M.unlock();
  FT_WRITE(Y, 6);
  A.join();
  rt::OnlineReport Report = Engine.finish();
  ASSERT_TRUE(Report.Diags.empty());

  // 1. The in-memory capture is feasible (already asserted by the engine
  //    when ValidateCapture is on; assert independently here).
  EXPECT_TRUE(isFeasible(Report.Captured));

  // 2. The .trc file parses back to the identical trace.
  Trace Loaded;
  ParseReport Parse = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Parse.ok());
  EXPECT_EQ(serializeTrace(Loaded), serializeTrace(Report.Captured));
  EXPECT_TRUE(isFeasible(Loaded));

  // 3. Replaying the loaded file reproduces the online warnings exactly.
  FastTrack Offline;
  replay(Loaded, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  EXPECT_EQ(Detector.warnings().size(), 1u); // the y race

  std::remove(Path);
}

TEST(FlightRecorder, KeepCaptureOffStillWritesTheFile) {
  const char *Path = "runtime_capture_fileonly.trc";
  FastTrack Detector;
  rt::Shared<int> X;
  rt::OnlineOptions Options;
  Options.CapturePath = Path;
  Options.KeepCapture = false;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  rt::OnlineReport Report = Engine.finish();
  EXPECT_TRUE(Report.Captured.empty()); // not kept in memory

  Trace Loaded;
  ASSERT_TRUE(loadTraceFile(Path, Loaded).ok());
  EXPECT_EQ(Loaded.size(), 1u);
  std::remove(Path);
}

//===----------------------------------------------------------------------===//
// Backpressure, capacity, and degraded modes
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, TinyRingsBackpressureWithoutDeadlockOrLoss) {
  // Rings of 4 events force constant producer parking; every event must
  // still arrive, in a feasible order.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  // "Or loss" is the point here: disable every shedding mechanism so the
  // count below is exact even when CI runs this at TSan speed.
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Mutex M;
  rt::Shared<int> X;
  constexpr int PerThread = 500;

  rt::Engine Engine(Detector, Options);
  auto Hammer = [&] {
    for (int I = 0; I != PerThread; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      FT_WRITE(X, I);
    }
  };
  rt::Thread A(Hammer);
  rt::Thread B(Hammer);
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  // 2 forks + 2 joins + 2 threads × 500 × (acq + wr + rel).
  EXPECT_EQ(Report.EventsCaptured, 4u + 2u * PerThread * 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, BackpressureParkUnparkIsCountedNotLost) {
  // Tiny rings plus a slow handler (a storm over the first 50 merged
  // events, 1 ms each) guarantee producers park; generous supervisor
  // deadlines guarantee nothing is shed. The report must carry the
  // MaxQueueDepth-style pressure stats while the delivered stream stays
  // complete. (The TSan CI job runs this: parking and unparking across
  // producer/sequencer threads is the racy part.)
  FastTrack Detector;
  BlockingTool Slow(Detector, 0, 50, std::chrono::microseconds(1000));
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  Options.Degrade.Enabled = false;          // nothing may be shed...
  Options.Supervise.MaxParkMs = 60000;      // ...parked accesses wait
  Options.Supervise.StallDeadlineMs = 60000; // a slow merge is not a stall
  rt::Mutex M;
  rt::Shared<int> X;
  constexpr int PerThread = 100;

  rt::Engine Engine(Slow, Options);
  auto Hammer = [&] {
    for (int I = 0; I != PerThread; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      FT_WRITE(X, I);
    }
  };
  rt::Thread A(Hammer);
  rt::Thread B(Hammer);
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.EventsCaptured, 4u + 2u * PerThread * 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.DroppedOverload, 0u);
  EXPECT_EQ(Report.DroppedPostHalt, 0u);
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Identical);
  // Pressure really happened, and the per-thread rows account for it.
  EXPECT_GT(Report.ParkEpisodes, 0u);
  EXPECT_GT(Report.MaxBacklog, 0u);
  uint64_t Parks = 0;
  for (const rt::ThreadDropStats &S : Report.PerThreadDrops)
    Parks += S.Parks;
  EXPECT_EQ(Parks, Report.ParkEpisodes);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, CapacityBreachHaltsDetectionNotTheProgram) {
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxVars = 2;
  // With the ladder on, an over-capacity variable coarsens instead of
  // halting (OnlineResilienceTest covers that); this test pins the
  // pre-ladder halt behavior.
  Options.Degrade.Enabled = false;
  std::vector<rt::Shared<int>> Vars(8);

  rt::Engine Engine(Detector, Options);
  for (rt::Shared<int> &V : Vars)
    FT_WRITE(V, 1); // third distinct variable breaches MaxVars
  rt::OnlineReport Report = Engine.finish();

  EXPECT_TRUE(Report.Halted);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_EQ(Report.Diags[0].Code, StatusCode::ResourceExhausted);
  // The six writes emitted after the breach are not lost silently: each
  // is counted exactly once (at emit when the halt was already visible,
  // or discarded by the sequencer when it was ticketed first) and the
  // loss is flagged by a one-shot diagnostic.
  EXPECT_EQ(Report.DroppedPostHalt, 6u);
  bool DropDiag = false;
  for (const Diagnostic &D : Report.Diags)
    DropDiag |= D.Code == StatusCode::Cancelled &&
                D.Message.find("dropped after detection halted") !=
                    std::string::npos;
  EXPECT_TRUE(DropDiag);
  // The capture holds exactly the accepted prefix, still replayable.
  EXPECT_EQ(Report.Captured.size(), 2u);
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

TEST(OnlineEngine, NoEngineMeansPassThrough) {
  ASSERT_EQ(rt::Engine::current(), nullptr);
  rt::Shared<int> X;
  rt::Mutex M;
  M.lock();
  FT_WRITE(X, 7);
  M.unlock();
  EXPECT_EQ(FT_READ(X), 7);
  rt::Thread T([&X] { FT_WRITE(X, 8); });
  T.join();
  EXPECT_EQ(FT_READ(X), 8);
}

TEST(OnlineEngine, ObjectsOutlivingASessionReInternCleanly) {
  // The same Shared/Mutex objects run under two engines; the id cache
  // must not leak ids across sessions (generation stamping).
  rt::Shared<int> X;
  rt::Mutex M;
  auto Run = [&] {
    FastTrack Detector;
    rt::Engine Engine(Detector);
    M.lock();
    FT_WRITE(X, 1);
    M.unlock();
    rt::OnlineReport Report = Engine.finish();
    EXPECT_EQ(Report.EventsCaptured, 3u);
    EXPECT_EQ(Report.Captured[1].Target, 0u); // dense again each session
    return Report.NumWarnings;
  };
  EXPECT_EQ(Run(), 0u);
  EXPECT_EQ(Run(), 0u);
}

TEST(OnlineEngine, ForeignThreadsAreAnalyzedButFlaggedByTheValidator) {
  // A plain std::thread (no fork edge) touching instrumented state: its
  // accesses are analyzed — conservatively unordered, so this races —
  // and the capture fails validation, as documented.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.ValidateCapture = false; // we validate by hand below
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  std::thread Foreign([&X] { FT_WRITE(X, 2); });
  Foreign.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.NumWarnings, 1u); // no fork edge: a (real) race
  EXPECT_FALSE(isFeasible(Report.Captured));
}

//===----------------------------------------------------------------------===//
// Stress: many threads, mixed primitives, online == offline every time
//===----------------------------------------------------------------------===//

TEST(OnlineEquivalence, StressManyThreadsMixedPrimitives) {
  constexpr unsigned NumThreads = 8;
  constexpr int Iters = 200;
  FastTrack Detector;
  rt::Mutex Locks[2];
  rt::Shared<int> Protected[2];
  rt::Shared<int> Racy;
  rt::Volatile<int> Flag;

  rt::OnlineReport Report = checkedSession(Detector, [&] {
    // Intern in a fixed order so var ids are deterministic, and seed the
    // fork edges that order these writes before every thread.
    FT_WRITE(Protected[0], 0);
    FT_WRITE(Protected[1], 0);
    FT_WRITE(Racy, 0);
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        // First action, before any lock: two threads' initial writes can
        // never be happens-before ordered, so this races on EVERY
        // schedule (the only edge into a fresh thread is its fork).
        FT_WRITE(Racy, static_cast<int>(T));
        for (int I = 0; I != Iters; ++I) {
          unsigned Which = (T + I) % 2;
          Locks[Which].lock();
          FT_WRITE(Protected[Which], FT_READ(Protected[Which]) + 1);
          Locks[Which].unlock();
          if (I % 32 == 0) {
            Flag.write(I);
            (void)Flag.read();
          }
        }
      });
    for (rt::Thread &T : Threads)
      T.join();
  });

  EXPECT_EQ(Report.NumWarnings, 1u); // exactly the Racy variable
  EXPECT_EQ(Detector.warnings()[0].Var, 2u);
  EXPECT_GT(Report.EventsCaptured, NumThreads * Iters * 3ull);
}

//===----------------------------------------------------------------------===//
// Eraser online: any existing Tool runs unchanged
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, EraserRunsOnlineUnchanged) {
  Eraser Detector;
  rt::Mutex M;
  rt::Shared<int> Guarded, Unguarded;

  rt::Engine Engine(Detector);
  rt::Thread A([&] {
    M.lock();
    FT_WRITE(Guarded, 1);
    M.unlock();
    FT_WRITE(Unguarded, 1);
  });
  rt::Thread B([&] {
    M.lock();
    FT_WRITE(Guarded, 2);
    M.unlock();
    FT_WRITE(Unguarded, 2);
  });
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  ASSERT_EQ(Report.NumWarnings, 1u);
  EXPECT_EQ(Detector.warnings()[0].Var, 1u); // Unguarded

  Eraser Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

//===----------------------------------------------------------------------===//
// Thread churn: recycled slots, bounded shadow lifecycle, graceful
// exhaustion (the unbounded-churn robustness contract)
//===----------------------------------------------------------------------===//

namespace {

/// Validator options for captures of sessions that recycle thread slots:
/// one dense id legally carries several non-overlapping lifetimes.
TraceValidatorOptions tidReuse() {
  TraceValidatorOptions O;
  O.AllowTidReuse = true;
  return O;
}

/// The churn suite's exact-equivalence check (checkedSession validates
/// with the default options, which reject tid reuse by design).
void expectOfflineEquivalent(const FastTrack &Online, const Trace &Captured) {
  FastTrack Offline;
  replay(Captured, Offline);
  expectSameWarnings(Online.warnings(), Offline.warnings());
}

} // namespace

TEST(ThreadChurn, SequentialChurnRecyclesSlots) {
  // 200 short-lived threads through an 8-slot table: every fork after the
  // first reincarnates the drained slot of its joined predecessor, so the
  // session pays for 2 slots (main + one live child), not 201.
  constexpr int Churn = 200;
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 8;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  for (int I = 0; I != Churn; ++I) {
    rt::Thread T([&X, I] { FT_WRITE(X, I); });
    T.join(); // join -> next fork: writes chain through main, race-free
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  for (const Diagnostic &D : Report.Diags)
    ADD_FAILURE() << toString(D);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_EQ(Report.SlotsAllocated, 2u);
  EXPECT_EQ(Report.PeakLiveSlots, 2u);
  EXPECT_EQ(Report.ThreadsRecycled, static_cast<uint64_t>(Churn - 1));
  EXPECT_EQ(Report.ForksRejected, 0u);
  EXPECT_EQ(Report.UntrackedEvents, 0u);
  // The capture genuinely reuses tids: feasible only under AllowTidReuse.
  EXPECT_TRUE(isFeasible(Report.Captured, tidReuse()));
  EXPECT_FALSE(isFeasible(Report.Captured));
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, RecyclingOffPreservesFreshIdBehavior) {
  // The PR 3 behavior is still available: with recycling pinned off each
  // fork consumes a fresh slot forever.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.RecycleThreadSlots = false;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  for (int I = 0; I != 5; ++I) {
    rt::Thread T([&X, I] { FT_WRITE(X, I); });
    T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.SlotsAllocated, 6u); // main + 5 children
  EXPECT_EQ(Report.ThreadsRecycled, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured)); // no tid ever reused
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, ForeignThreadsGetFreshSlotsNeverRecycled) {
  // A foreign (non-runtime) thread has no fork edge, so splicing it into
  // a dead thread's slot would invent ordering: it must always take a
  // fresh slot even when drained slots are free.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 4;
  Options.ValidateCapture = false; // foreign thread: no fork edge
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X, Y;

  rt::Engine Engine(Detector, Options);
  rt::Thread T([&X] { FT_WRITE(X, 1); });
  T.join(); // slot 1 retires and drains
  std::thread Foreign([&Y] { FT_WRITE(Y, 2); });
  Foreign.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.SlotsAllocated, 3u); // main, child, foreign
  EXPECT_EQ(Report.ThreadsRecycled, 0u);
  EXPECT_EQ(Report.ForksRejected, 0u);
}

TEST(ThreadChurn, SlotExhaustionDegradesGracefully) {
  // 8 slots, all live (main + 7 held children): the 8th child must not
  // abort or halt detection — it runs untracked, the rejection surfaces
  // as a structured Status plus one supervisor diagnostic, and once the
  // held children are joined the next fork is tracked again.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 8;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  std::vector<rt::Shared<int>> Vars(9);

  rt::Engine Engine(Detector, Options);
  std::atomic<bool> Release{false};
  std::atomic<int> Started{0};
  std::vector<rt::Thread> Held;
  for (int I = 0; I != 7; ++I)
    Held.emplace_back([&, I] {
      FT_WRITE(Vars[I], I);
      Started.fetch_add(1);
      while (!Release.load())
        std::this_thread::yield();
    });
  while (Started.load() != 7)
    std::this_thread::yield();

  // All 8 slots live: a direct fork request reports exhaustion without
  // emitting anything.
  ThreadId Direct = 0;
  Status S = Engine.tryForkThread(Direct);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(Direct, rt::Engine::NoThread);

  // The shim path: the child still runs, untracked.
  std::atomic<bool> UntrackedRan{false};
  rt::Thread Over([&] {
    FT_WRITE(Vars[7], 7); // dropped and counted, never delivered
    UntrackedRan.store(true);
  });
  EXPECT_EQ(Over.id(), rt::Engine::NoThread);
  Over.join();
  EXPECT_TRUE(UntrackedRan.load());

  Release.store(true);
  for (rt::Thread &T : Held)
    T.join();

  // With the table drained, churn resumes on recycled slots.
  rt::Thread After([&] { FT_WRITE(Vars[8], 8); });
  After.join();
  EXPECT_NE(After.id(), rt::Engine::NoThread);

  rt::OnlineReport Report = Engine.finish();
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.SlotsAllocated, 8u);
  EXPECT_EQ(Report.PeakLiveSlots, 8u);
  EXPECT_EQ(Report.ForksRejected, 2u); // tryForkThread + the Over shim
  EXPECT_EQ(Report.UntrackedEvents, 1u);
  // No coarser variable id conjures slots: exhaustion steps no rung.
  EXPECT_EQ(Report.DegradeRung, 0u);
  EXPECT_EQ(Report.Degradations, 0u);
  EXPECT_EQ(Report.relation(), rt::OracleRelation::Lossy);
  EXPECT_GE(Report.ThreadsRecycled, 1u);
  bool SawExhaustion = false;
  for (const Diagnostic &D : Report.Diags)
    SawExhaustion |= D.Code == StatusCode::ResourceExhausted &&
                     D.Message.find("exhausted") != std::string::npos;
  EXPECT_TRUE(SawExhaustion);
  EXPECT_TRUE(isFeasible(Report.Captured, tidReuse()));
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, SoakTenThousandThreadsBoundedAndEquivalent) {
  // The acceptance workload: 10,000 sequential short-lived threads, one
  // deliberate race per thread on its own variable. Capped at 8 slots
  // with recycling, the session must (a) run to completion, (b) keep VC
  // width and shadow memory at max-live scale, and (c) report the same
  // races as an uncapped run that gives every thread a fresh id.
  constexpr unsigned Churn = 10000;
  std::vector<rt::Shared<int>> Vars(Churn); // distinct interned ids

  auto racedVars = [](const std::vector<RaceWarning> &Warnings) {
    std::vector<VarId> Ids;
    for (const RaceWarning &W : Warnings)
      Ids.push_back(W.Var);
    return Ids;
  };
  auto runChurn = [&](auto &Tool, rt::OnlineOptions Options) {
    Options.Supervise.Enabled = false;
    rt::Engine Engine(Tool, Options);
    for (unsigned I = 0; I != Churn; ++I) {
      rt::Thread T([&Vars, I] { FT_WRITE(Vars[I], 1); });
      FT_WRITE(Vars[I], 2); // concurrent with the child: races always
      T.join();
    }
    return Engine.finish();
  };

  // Capped run: 8 slots, recycling on, memory tracked.
  FastTrack Capped;
  MemoryTracker Tracker;
  rt::OnlineOptions CappedOptions;
  CappedOptions.MaxThreads = 8;
  CappedOptions.Degrade.Enabled = true;
  CappedOptions.Degrade.Tracker = &Tracker;
  rt::OnlineReport CappedReport = runChurn(Capped, CappedOptions);

  EXPECT_FALSE(CappedReport.Halted);
  EXPECT_EQ(CappedReport.DegradeRung, 0u); // tracked, never degraded
  EXPECT_EQ(CappedReport.NumWarnings, Churn);
  EXPECT_EQ(CappedReport.SlotsAllocated, 2u); // peak VC width = max-live
  EXPECT_EQ(CappedReport.PeakLiveSlots, 2u);
  EXPECT_EQ(CappedReport.ThreadsRecycled, Churn - 1);
  EXPECT_EQ(CappedReport.ForksRejected, 0u);
  // Bounded RSS: 10k threads' shadow fits in single-digit megabytes
  // (an uncapped FastTrack64 run pays hundreds for the VC columns).
  EXPECT_GT(Tracker.peakBytes(), 0u);
  EXPECT_LT(Tracker.peakBytes(), 16u << 20);
  EXPECT_TRUE(isFeasible(CappedReport.Captured, tidReuse()));
  expectOfflineEquivalent(Capped, CappedReport.Captured);

  // Uncapped control: fresh 16-bit-tid slots for all 10k threads (the
  // 8-bit default epoch layout cannot even name them).
  FastTrack64 Uncapped;
  rt::OnlineOptions UncappedOptions;
  UncappedOptions.MaxThreads = Churn + 50;
  UncappedOptions.RecycleThreadSlots = false;
  UncappedOptions.RingCapacity = 64; // 10k rings: keep the table small
  UncappedOptions.Degrade.Enabled = false;
  rt::OnlineReport UncappedReport = runChurn(Uncapped, UncappedOptions);

  EXPECT_FALSE(UncappedReport.Halted);
  EXPECT_EQ(UncappedReport.NumWarnings, Churn);
  EXPECT_EQ(UncappedReport.SlotsAllocated, Churn + 1);
  EXPECT_EQ(UncappedReport.ThreadsRecycled, 0u);
  EXPECT_TRUE(isFeasible(UncappedReport.Captured));

  // No warning differences: the same variables race, in the same order
  // (one per churn iteration; reporter thread/epoch are schedule-local).
  EXPECT_EQ(racedVars(Capped.warnings()), racedVars(Uncapped.warnings()));
}

//===----------------------------------------------------------------------===//
// Sync-only tickets: the fork gate, the join gate, recycled slots, and
// equivalence with the HB oracle over generated native programs
//===----------------------------------------------------------------------===//

namespace {

/// Options for the gate tests: a tool handler the test blocks holds the
/// merge, and events wait in their rings until the test releases it. No
/// supervisor, so no deadline races the release and nothing is shed.
rt::OnlineOptions gateOptions() {
  rt::OnlineOptions Options;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  return Options;
}

/// Index of the first operation matching \p Pred at or after \p From.
template <typename Pred>
size_t findOp(const Trace &T, Pred &&P, size_t From = 0) {
  for (size_t I = From; I != T.size(); ++I)
    if (P(T[I]))
      return I;
  return T.size();
}

/// Spins on an uninstrumented flag: the tests below order threads
/// without giving the detector a happens-before edge.
void await(const std::atomic<bool> &Flag) {
  while (!Flag.load(std::memory_order_acquire))
    std::this_thread::yield();
}

} // namespace

TEST(OnlineEngine, ForkGateHoldsWhenTheChildsRingIsSweptFirst) {
  // The merge sweeps rings in slot order. C reincarnates A's slot 1, so
  // C's ring is swept before its parent B's (slot 2). The merge blocks in
  // the handler of B's last write, before B forks C; by the release, C's
  // accesses wait in slot 1's ring. Only C's ticketed first event keeps
  // them behind the fork — unticketed, they would merge first and C would
  // act before it exists.
  constexpr int BWrites = 20, CWrites = 50;
  rt::Shared<int> VarA, VarB, VarC;
  std::atomic<bool> ReleaseA{false}, GoB{false};
  rt::OnlineOptions Options = gateOptions();
  Options.MaxThreads = 3; // main, B, and one slot for A then C

  FastTrack Detector;
  HandlerGate Gate;
  // fork(0,A), wr A, fork(0,B), join(0,A), then B's writes: the handler
  // of B's last write (merge position 3 + BWrites) blocks.
  BlockingTool Blocker(Detector, Gate, 3 + BWrites);
  ThreadId AId = rt::Engine::NoThread, CId = rt::Engine::NoThread;
  rt::Engine Engine(Blocker, Options);
  {
    rt::Thread A([&] {
      FT_WRITE(VarA, 1);
      await(ReleaseA);
    });
    AId = A.id();
    rt::Thread B([&] {
      await(GoB);
      for (int I = 0; I != BWrites; ++I)
        FT_WRITE(VarB, I);
      EXPECT_TRUE(Gate.waitBlocked());
      rt::Thread C([&] {
        for (int I = 0; I != CWrites; ++I)
          FT_WRITE(VarC, I);
      });
      CId = C.id();
      C.join();
    });
    ReleaseA.store(true, std::memory_order_release);
    A.join();
    GoB.store(true, std::memory_order_release);
    B.join();
  }
  Gate.release();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(CId, AId) << "C must reincarnate A's slot";
  EXPECT_EQ(Report.ThreadsRecycled, 1u);
  EXPECT_EQ(Report.EventsCaptured, 7u + BWrites + CWrites);
  EXPECT_EQ(Report.NumWarnings, 0u);
  for (const Diagnostic &D : Report.Diags)
    EXPECT_NE(D.Sev, Severity::Error) << toString(D);
  const Trace &Cap = Report.Captured;
  EXPECT_TRUE(isFeasible(Cap, tidReuse()));
  const size_t ForkC = findOp(Cap, [&](const Operation &Op) {
    return Op.Kind == OpKind::Fork && Op.Target == CId && Op.Thread != 0;
  });
  ASSERT_LT(ForkC, Cap.size());
  const size_t JoinA = findOp(Cap, [&](const Operation &Op) {
    return Op.Kind == OpKind::Join && Op.Target == AId;
  });
  ASSERT_LT(JoinA, ForkC);
  // Between A's join and C's fork, slot 1 does nothing.
  EXPECT_EQ(findOp(Cap, [&](const Operation &Op) { return Op.Thread == CId; },
                   JoinA),
            ForkC + 1);
  expectOfflineEquivalent(Detector, Cap);
}

TEST(OnlineEngine, JoinGateDrainsTheChildsTrailingAccessesFirst) {
  // The merge blocks in a handler halfway through the child's writes; the
  // child exits and main joins it while the rest of the writes sit
  // unticketed in the child's ring. Main's ring is swept first, and its
  // join ticket is next — the join gate must still let the child's ring
  // drain before join(0, u) merges.
  constexpr int Writes = 200;
  rt::Shared<int> Own, Shared;
  FastTrack Detector;
  HandlerGate Gate;
  // fork(0,u) is position 0 and the child's writes 1..Writes: the handler
  // of write Writes / 2 blocks before the child emits the rest.
  BlockingTool Blocker(Detector, Gate, Writes / 2);

  ThreadId U = rt::Engine::NoThread;
  rt::Engine Engine(Blocker, gateOptions());
  {
    rt::Thread Child([&] {
      for (int I = 0; I != Writes; ++I) {
        if (I == Writes / 2) {
          EXPECT_TRUE(Gate.waitBlocked());
        }
        FT_WRITE(I + 1 == Writes ? Shared : Own, I);
      }
    });
    U = Child.id();
    Child.join();
  }
  FT_WRITE(Shared, -1); // ordered after the child's last write by the join
  Gate.release();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.EventsCaptured, 3u + Writes);
  EXPECT_EQ(Report.NumWarnings, 0u) << "join ordered before child writes";
  const Trace &Cap = Report.Captured;
  EXPECT_TRUE(isFeasible(Cap));
  const size_t Join = findOp(Cap, [](const Operation &Op) {
    return Op.Kind == OpKind::Join;
  });
  ASSERT_LT(Join, Cap.size());
  size_t LastChildOp = 0;
  for (size_t I = 0; I != Cap.size(); ++I)
    if (Cap[I].Thread == U)
      LastChildOp = I;
  EXPECT_EQ(LastChildOp + 1, Join) << "every child access precedes the join";
  expectOfflineEquivalent(Detector, Cap);
}

TEST(ThreadChurn, RecycledSlotWaitsForItsPredecessorsAccesses) {
  // The first incarnation leaves most of its (unticketed) accesses in the
  // ring when it is joined — the merge is blocked in a tool handler. The
  // successor's fork must wait for the drain, and the capture must keep
  // the two lifetimes apart: old accesses, join, fork, new accesses.
  constexpr int Writes = 300;
  rt::Shared<int> X;
  rt::OnlineOptions Options = gateOptions();
  Options.MaxThreads = 2;
  Options.SlotDrainWaitMs = 5000;

  FastTrack Detector;
  HandlerGate Gate;
  // Position 0 is the first fork: the handler of the first child's second
  // write blocks before the child emits the rest.
  BlockingTool Blocker(Detector, Gate, 2);
  // The second fork below waits on the drain inside the main thread, so a
  // helper releases the handler once that fork has begun.
  std::atomic<bool> Forking{false};
  std::thread Releaser([&] {
    await(Forking);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Gate.release();
  });
  rt::Engine Engine(Blocker, Options);
  ThreadId Ids[2];
  for (int Life = 0; Life != 2; ++Life) {
    if (Life == 1)
      Forking.store(true, std::memory_order_release);
    rt::Thread T([&X, &Gate, Life] {
      for (int I = 0; I != Writes; ++I) {
        if (Life == 0 && I == 2) {
          EXPECT_TRUE(Gate.waitBlocked());
        }
        FT_WRITE(X, Life * Writes + I);
      }
    });
    Ids[Life] = T.id();
    T.join();
  }
  Releaser.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Ids[1], Ids[0]);
  EXPECT_EQ(Report.ThreadsRecycled, 1u);
  EXPECT_EQ(Report.EventsCaptured, 2u * (2 + Writes));
  EXPECT_EQ(Report.NumWarnings, 0u);
  const Trace &Cap = Report.Captured;
  EXPECT_TRUE(isFeasible(Cap, tidReuse()));
  // fork, Writes accesses, join — twice, nothing interleaved.
  ASSERT_EQ(Cap.size(), 2u * (2 + Writes));
  for (size_t Life = 0; Life != 2; ++Life) {
    const size_t Base = Life * (2 + Writes);
    EXPECT_EQ(Cap[Base].Kind, OpKind::Fork);
    for (size_t I = 1; I <= Writes; ++I)
      EXPECT_EQ(Cap[Base + I].Thread, Ids[0]) << "op " << Base + I;
    EXPECT_EQ(Cap[Base + Writes + 1].Kind, OpKind::Join);
  }
  expectOfflineEquivalent(Detector, Cap);
}

namespace {

std::vector<VarId> warnedVars(const std::vector<RaceWarning> &Warnings) {
  std::vector<VarId> Vars;
  for (const RaceWarning &W : Warnings)
    Vars.push_back(W.Var);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

} // namespace

TEST(OnlineEquivalence, GeneratedProgramsMatchTheOracleAtEveryShardCount) {
  // Accesses merge in whatever order the rings drain, so the capture is
  // one HB-consistent linearization among many. Whatever it is, it must
  // validate, the warned variables must be exactly the oracle's racy set
  // on it, and an offline replay of it must reproduce the warnings byte
  // for byte. Sync-free programs are schedule-independent, so their racy
  // set is also known up front.
  size_t RacyPrograms = 0, CleanVars = 0;
  for (bool SyncFree : {true, false})
    for (uint64_t Seed = 1; Seed != 9; ++Seed) {
      const NativeProgram Program(Seed * 7919 + SyncFree, SyncFree);
      for (unsigned Shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << (SyncFree ? "sync-free" : "mixed")
                                        << " seed " << Seed << " shards "
                                        << Shards);
        rt::OnlineOptions Options;
        Options.Shards = Shards;
        Options.ShardBlockVars = 2;
        Options.RingCapacity = 64; // keep producers and merge interleaving
        FastTrack Detector;
        rt::OnlineReport Report = checkedSession(
            Detector, [&] { Program.run(); }, Options);
        EXPECT_EQ(Report.Shards, Shards);
        const std::vector<VarId> Warned = warnedVars(Detector.warnings());
        EXPECT_EQ(Warned, racyVarsLinear(Report.Captured));
        if (SyncFree) {
          EXPECT_EQ(Warned, Program.syncFreeRaces());
        }
        RacyPrograms += !Warned.empty();
        CleanVars += NativeProgram::NumVars - Warned.size();
      }
    }
  // The sweep must exercise both answers.
  EXPECT_GT(RacyPrograms, 16u);
  EXPECT_GT(CleanVars, 0u);
}

//===----------------------------------------------------------------------===//
// The merge loop's pace (EXPERIMENTS.md E17)
//===----------------------------------------------------------------------===//

namespace {

/// The lock_heavy loop: two producers lock, read, write and unlock 4
/// striped counters, with the supervisor on. Rings of 4 slots cap a sweep
/// at 12 events (main's ring and two producers'), below the merge loop's
/// pace threshold, so every sweep that merges anything waits before the
/// next one, on any core count. With \p DropLock the second producer never
/// takes stripe 0's lock. Both producers start on stripe 0, and neither
/// has acquired a lock the other released before its first access there,
/// so those two accesses race on every schedule.
rt::OnlineReport runStripedLockLoop(FastTrack &Detector, bool DropLock) {
  constexpr unsigned Stripes = 4;
  constexpr int Iters = 1000;
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  // No shedding, so the capture holds every access: no ladder, and a
  // parked access waits rather than being dropped at the park deadline.
  Options.Degrade.Enabled = false;
  Options.Supervise.MaxParkMs = 60000;
  rt::Engine Engine(Detector, Options);
  rt::Mutex Locks[Stripes];
  rt::Shared<int> Cells[Stripes];
  auto Loop = [&](unsigned T) {
    for (int I = 0; I != Iters; ++I) {
      const unsigned S = static_cast<unsigned>(I) % Stripes;
      const bool Locked = !(DropLock && T == 1 && S == 0);
      if (Locked)
        Locks[S].lock();
      FT_WRITE(Cells[S], FT_READ(Cells[S]) + 1);
      if (Locked)
        Locks[S].unlock();
    }
  };
  rt::Thread A([&] { Loop(0); });
  rt::Thread B([&] { Loop(1); });
  A.join();
  B.join();
  return Engine.finish();
}

/// The paced path's contract: it paced, nothing halted, and the capture
/// replays offline to the online warnings at every shard count.
void expectPacedAndExact(FastTrack &Detector, const rt::OnlineReport &Report) {
  EXPECT_FALSE(Report.Halted);
  EXPECT_GT(Report.MergePacedWaits, 0u);
  EXPECT_LE(Report.MergePacedWaits, Report.MergeSweeps);
  EXPECT_TRUE(isFeasible(Report.Captured));
  for (unsigned Shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "offline shards " << Shards);
    FastTrack Offline;
    ParallelReplayOptions ReplayOpts;
    ReplayOpts.NumShards = Shards;
    parallelReplay(Report.Captured, Offline, ReplayOpts);
    expectSameWarnings(Detector.warnings(), Offline.warnings());
  }
}

} // namespace

TEST(PacedMerge, LockHeavyLoopStaysExact) {
  FastTrack Detector;
  rt::OnlineReport Report = runStripedLockLoop(Detector, false);
  expectPacedAndExact(Detector, Report);
  EXPECT_EQ(Report.NumWarnings, 0u);
}

TEST(PacedMerge, DroppedLockIsStillReported) {
  FastTrack Detector;
  rt::OnlineReport Report = runStripedLockLoop(Detector, true);
  expectPacedAndExact(Detector, Report);
  const std::vector<VarId> Warned = warnedVars(Detector.warnings());
  EXPECT_EQ(Warned.size(), 1u); // stripe 0's counter, and only it
  EXPECT_EQ(Warned, racyVarsLinear(Report.Captured));
}
