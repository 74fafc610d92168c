//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online detection engine: race-check real std::thread programs with
/// any existing Tool, no trace file required.
///
/// This is the third producer column of the architecture diagram and the
/// first one fed by real concurrency — the deployment model of the paper
/// (RoadRunner instrumenting a live JVM), transplanted to native C++.
/// An Engine session looks like:
///
/// \code
///   FastTrack Detector;
///   ft::runtime::OnlineOptions Options;
///   Options.CapturePath = "run.trc";        // optional flight recorder
///   {
///     ft::runtime::Engine Engine(Detector, Options);
///     // ... run code built from ft::runtime::Thread / Mutex / Shared<T>
///     ft::runtime::OnlineReport Report = Engine.finish();
///   }
///   // Detector.warnings() holds the races, reported as they happened.
/// \endcode
///
/// How the pieces fit (each one a paper-adjacent engineering idea):
///
///  - **Tickets, for sync events only.** Happens-before is built from
///    program order and the order of synchronization operations alone
///    (paper §2), so only sync events need a global order. Each one —
///    acquire, release, fork, join, volatile access — draws a global
///    sequence number (one relaxed fetch_add) at a moment when the real
///    operation has made it safe: an acquire while the lock is held, a
///    release before it is given up, a fork before the child starts, a
///    join after the child is reaped. Reads and writes carry no ticket,
///    except the first event a thread emits after binding to a slot,
///    which is ticketed so it cannot merge ahead of the fork that
///    created the thread.
///  - **Rings.** Each thread publishes its events into a private bounded
///    log with one reader, the merge loop (BroadcastLog.h), one 8-byte
///    word per event: target, kind, and the ticket's residue modulo
///    2^27 (EventWord). Emit is wait-free until the ring fills; a full
///    ring parks the thread (bounded-queue backpressure), so the
///    application can never race unboundedly ahead of the detector.
///  - **The sequencer.** One drain thread runs the one merge loop at
///    every shard count. It merges the rings into one totally-ordered
///    stream (Engine::pullBatch): each ring drains in FIFO order,
///    unticketed accesses pass freely, a ticketed event passes only when
///    its ticket is next, and join(t, u) additionally waits until u's
///    trailing accesses have merged. The result keeps every thread's
///    program order and the ticket order of sync events, so it has the
///    execution's happens-before relation and the same racy variables —
///    a legal linearization, not necessarily the real interleaving of
///    accesses. Each event is admitted by the framework's OnlineDriver,
///    which applies the serial replay loop's semantics (re-entrant lock
///    filtering, raw op indices), captured, and delivered. With one shard
///    the delivery step is the unmodified Tool itself: the driver
///    dispatches each sync event inline and each run of one thread's
///    accesses in one call (OnlineDriver::admitAccessRun). Detection runs
///    entirely off the application's critical path. The loop is paced: a
///    sweep that merged only a few events waits about one cross-core
///    round trip before the next, so it stops stealing back the ring
///    lines its producers are still writing (docs/RUNTIME.md, Merge;
///    EXPERIMENTS.md E17).
///  - **Shards** (OnlineOptions::Shards > 1). The delivery step becomes
///    one append to a bounded broadcast log (the same class): a word of
///    target, kind and thread, whose position in the log is its raw op
///    index (a re-entrant lock event the filter stripped is logged as a
///    skip word to keep its position). N shard workers each read the
///    whole log through their own cursor and dispatch, into a
///    shard-local tool clone, every sync event plus the accesses to the
///    variables they own. FastTrack's state is per
///    variable and its happens-before comes from sync events alone, so
///    warnings and captures stay identical to Shards=1. The log's bound
///    paces the workers: a fast one runs at most one log ahead of the
///    slowest. The full protocol is worked through in docs/RUNTIME.md.
///  - **The flight recorder.** The merged stream is optionally captured
///    as a Trace and written as a .trc file on finish() — or, with
///    CaptureSegmentBytes set, streamed as sealed, fsynced segments
///    (trace/SegmentedCapture.h) so a crash loses at most one segment.
///
/// **Resilience.** A production detector must survive the host program
/// misbehaving, and must never hang it. Four mechanisms:
///
///  - **The coarsening ladder** (OnlineDriver.h): an over-capacity
///    variable, or a budget breach of a tool that declines shadow
///    governance, steps the driver through widening variable-id divisors
///    instead of halting. Every rung coarsens and none drops an event;
///    sync events are never remapped, so the happens-before spine stays
///    exact; every transition is a Warning diagnostic in the report. Pin
///    it off with OnlineOptions::Degrade.Enabled = false. The ladder
///    answers space only: the one answer to time is the counted drop at
///    emit below.
///  - **Shadow governance** (shadow/ShadowPolicy.h): a tool that accepts
///    it holds the byte budget in its own table by summarizing cold
///    pages. That fold is no ladder rung; the report's PagesSummarized
///    and BudgetTrips and one Warning diagnostic at finish record it.
///  - **The supervisor** (a watchdog thread): when a loop makes no
///    progress past the deadline while work is outstanding — the merge
///    position against the events pushed, or a shard worker's log cursor
///    against the log's tail — it unparks blocked producers into
///    drop-and-count mode, where a parked access is dropped and counted.
///    When a second consecutive deadline passes with the same watermark
///    still frozen, it halts detection: parked sync events then return
///    too, and every later event is dropped and counted. Application
///    threads therefore never block on a wedged detector for longer than
///    two deadlines, even when the loop is stuck inside a tool handler.
///    The halt stops detection, never the application;
///    OnlineReport::relation() names what any of this cost the session's
///    precision.
///  - **Fault injection** (FaultPlan.h): the budget-breach and
///    shadow-allocation faults are drivable deterministically, keyed on
///    raw op indices and allocation ordinals.
///
/// Threads created through ft::runtime::Thread get fork/join edges; any
/// other thread that touches instrumented state is auto-registered on
/// first emit (its events are analyzed, conservatively unordered — but a
/// capture containing such a thread will fail TraceValidator's
/// fork-before-first-op rule, so instrument thread creation too).
///
/// **Thread lifecycle.** Dense thread ids are *slots*, not threads: once
/// a thread is joined and the sequencer has drained its ring, its slot
/// (channel + vector-clock column) is retired and the next forkThread()
/// reincarnates it under the same id (OnlineOptions::RecycleThreadSlots).
/// Memory and VC width therefore track the *max-live* thread count, not
/// total-ever — a thread-pool churning 10k workers through 8 slots costs
/// 8 columns. The clock algebra needs no special case: the dead thread's
/// final clock survives in its slot's VC entry, join already bumped the
/// slot's own clock strictly past it, and fork joins the parent's clock
/// on top — so the fork edge doubles as an implicit dead-thread→successor
/// edge and every stale epoch `c@t` still compares correctly (proved
/// against the HB oracle in the FastTrack suite; the full protocol is in
/// docs/RUNTIME.md). When max-live genuinely exceeds MaxThreads, fork
/// degrades instead of dying: tryForkThread() returns a structured
/// ResourceExhausted Status, the child runs *untracked* (its events are
/// dropped and counted, never silently) and a supervisor diagnostic is
/// attached, rather than the application crashing.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_ENGINE_H
#define FASTTRACK_RUNTIME_ENGINE_H

#include "clock/ClockStats.h"
#include "framework/OnlineDriver.h"
#include "runtime/BroadcastLog.h"
#include "runtime/Interner.h"
#include "support/Status.h"
#include "support/Stopwatch.h"
#include "trace/SegmentedCapture.h"
#include "trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ft::runtime {

struct FaultPlan;

/// Knobs of the stall watchdog. The supervisor is a 5 ms-tick thread; its
/// cost is noise, but it is the only mechanism that bounds how long an
/// application thread can block on a wedged detector, so it defaults on.
struct SupervisorOptions {
  /// Master switch. Off: a wedged merge loop or shard worker parks
  /// producers until it returns, and parked accesses are never dropped.
  bool Enabled = true;

  /// Sampling cadence of the watchdog thread.
  unsigned TickMs = 5;

  /// A loop whose watermark has not moved for this long while work is
  /// outstanding is stalled. The first deadline unparks blocked producers
  /// into drop-and-count mode (a Warning diagnostic); a second
  /// consecutive deadline on the same frozen watermark halts detection
  /// (an Error diagnostic). Progress in between resets both.
  unsigned StallDeadlineMs = 250;

  /// Emit-side bound: an *access* event parked on a full ring (yielding,
  /// never sleeping) this long is dropped and counted rather than
  /// blocking the application further. Sync events are never dropped
  /// this way (the HB spine must stay exact); they wait until the ring
  /// drains or detection halts.
  unsigned MaxParkMs = 200;
};

/// Options for one online session.
struct OnlineOptions {
  /// Shadow-state capacity announced to the tool (tools pre-size flat
  /// arrays and index them unchecked, so the engine enforces the bounds).
  /// An over-capacity *variable* coarsens a ladder rung (when enabled);
  /// other breaches halt detection — never the application. The default
  /// FastTrack epoch layout caps threads at 256 anyway.
  unsigned MaxThreads = 64;
  unsigned MaxVars = 1u << 16;
  unsigned MaxLocks = 1024;
  unsigned MaxVolatiles = 1024;

  /// Per-thread event-ring capacity (rounded up to a power of two). The
  /// backpressure bound: an application thread more than this many events
  /// ahead of the sequencer parks until it drains. MaxThreads ×
  /// (capacity + 1) must fit EventWord::TicketWindow (2^27), and
  /// MaxThreads EventWord::ThreadLimit; a session given more runs with
  /// both cut to fit and a Warning diagnostic.
  size_t RingCapacity = 1024;

  /// How many consecutive events the sequencer copies out of a ring per
  /// batch before admitting and delivering them (Engine::pullBatch).
  /// Larger batches amortize the ring's atomic hand-off and release
  /// backpressure space in bulk; the merge rules are the same either way.
  ///
  /// **Watermark invariant** (pinned by OnlineShardingTest): the merge
  /// position — the merged-event count the supervisor watches — is
  /// published once per *batch*, after every event of the batch has been
  /// admitted, captured and delivered (with Shards > 1: appended to the
  /// broadcast log and published), so it strictly increases and never counts an event
  /// still in flight. The capture is the same whatever SequencerBatch is.
  size_t SequencerBatch = 256;

  /// Shard workers — the offline variable partitioning brought online.
  /// 0 or 1 runs none: the sequencer's merge loop delivers each admitted
  /// event to the tool inline. With N > 1 the same loop (merge,
  /// admission: degradation ladder, capacity checks, lock filtering,
  /// raw-index assignment; capture) delivers by appending each admitted
  /// event once to a broadcast log of N × max(RingCapacity,
  /// 4 × SequencerBatch) slots. Every worker reads the whole log and
  /// dispatches, into a shard-local clone of the tool
  /// (ShardableTool::cloneForShard), every sync event plus the accesses
  /// it owns: shardOf(x) = (x / ShardBlockVars) % N. Warnings and
  /// captures are byte-identical to Shards=1 (asserted by the
  /// determinism suite). A tool that does not implement ShardableTool
  /// runs at 1 with a Note diagnostic. Clamped to MaxShards (64).
  unsigned Shards = 1;

  /// Variables per ownership block. The block-cyclic map keeps
  /// neighboring variable ids (fields of one object, elements of one
  /// array) in one shard's shadow arrays — the cache/TLB locality the
  /// shard split exists to create; pure modulo would interleave every
  /// shard through every cache line. Must not change mid-session. 0 is
  /// treated as 1.
  uint32_t ShardBlockVars = 64;

  /// Reuse the slot (dense id + channel + VC column) of a fully joined
  /// thread for the next fork, once the sequencer has drained the dead
  /// thread's ring. On: shadow memory and VC width track max-live
  /// threads, so unbounded churn fits in a bounded slot table. Off
  /// restores PR 3 behavior (every fork consumes a fresh id forever).
  bool RecycleThreadSlots = true;

  /// When every slot is live or still draining, forkThread() waits up to
  /// this long for a retiring slot's ring to empty before declaring the
  /// table exhausted. Generous by default: the wait only triggers at the
  /// capacity edge, and a slow drain means a slow tool handler, which
  /// either returns or is halted past two StallDeadlineMs (a halt ends
  /// the wait at once).
  unsigned SlotDrainWaitMs = 1000;

  /// Strip redundant re-entrant lock events, as replay() does.
  bool FilterReentrantLocks = true;

  /// Keep the merged stream as a Trace in the report (the flight
  /// recorder's in-memory form; needed for in-process re-checks).
  bool KeepCapture = true;

  /// When nonempty, write the merged stream to this .trc file on
  /// finish() — the on-disk flight recorder.
  std::string CapturePath;

  /// When nonzero (and CapturePath is set), the flight recorder writes
  /// crash-safe segments of roughly this many bytes instead of one file
  /// at finish(): `<CapturePath minus .trc>.segNNNNNN.trc`, each sealed
  /// with a checksummed footer and fsynced, recoverable after SIGKILL
  /// with recoverSegmentedCapture(). 0 keeps the single-file recorder.
  size_t CaptureSegmentBytes = 0;

  /// Run TraceValidator over the capture on finish() and attach any
  /// violations to the report's diagnostics.
  bool ValidateCapture = true;

  /// Space-degradation ladder shared with the driver (see
  /// OnlineDriver.h). Degrade.Enabled = false pins every rung off.
  DegradePolicy Degrade;

  /// Stall watchdog knobs.
  SupervisorOptions Supervise;

  /// Deterministic fault injection for tests (not owned; may be null).
  const FaultPlan *Faults = nullptr;

  /// Online warning sink: invoked from the sequencer thread the moment a
  /// race is detected, with the full RaceWarning (thread/op context).
  std::function<void(const RaceWarning &)> OnWarning;
};

/// Per-thread drop accounting (satellite: no silent event loss).
struct ThreadDropStats {
  ThreadId Thread = 0;
  uint64_t PostHalt = 0; ///< Events dropped because detection had halted.
  uint64_t Overload = 0; ///< Accesses shed by park-deadline/drop mode.
  uint64_t Parks = 0;    ///< Backpressure park episodes.
};

/// How an online session's warnings relate to the oracle: FastTrack over
/// the whole execution at full precision.
enum class OracleRelation : uint8_t {
  Identical, ///< Every event analyzed at full precision.
  Coarsened, ///< Every event analyzed; some variable ids or cold shadow
             ///< pages were folded, so a race may be reported against
             ///< its bucket, but none is missed.
  Lossy,     ///< Events went unanalyzed (dropped, untracked, or after a
             ///< halt): races among them may be missing.
};

inline const char *toString(OracleRelation R) {
  switch (R) {
  case OracleRelation::Identical:
    return "identical";
  case OracleRelation::Coarsened:
    return "coarsened";
  case OracleRelation::Lossy:
    return "lossy";
  }
  return "?";
}

/// What one online session measured and captured.
struct OnlineReport {
  double Seconds = 0;            ///< Wall-clock session time.
  uint64_t EventsCaptured = 0;   ///< Delivered (captured) stream length.
  uint64_t EventsDispatched = 0; ///< Events reaching the tool (post filter).
  size_t NumWarnings = 0;        ///< Tool warnings at finish.
  ClockStats Clocks;             ///< VC ops spent by online detection.
  bool Halted = false;           ///< Detection stopped (a breach, a tool
                                 ///< fault, or a loop stalled twice).
  std::vector<Diagnostic> Diags; ///< Halts, degradations, watchdog events.
  Trace Captured;                ///< The merged stream (when KeepCapture).

  // --- resilience telemetry ---
  unsigned DegradeRung = 0;      ///< Final ladder position (0 = Full).
  unsigned Degradations = 0;     ///< Ladder transitions taken.
  uint64_t AccessesShed = 0;     ///< Always 0: no ladder rung sheds an
                                 ///< access. Kept for readers built
                                 ///< against the older report.
  uint64_t DroppedPostHalt = 0;  ///< Events dropped after a halt (total:
                                 ///< at emit, or in a ring or the
                                 ///< broadcast log when the halt landed;
                                 ///< each event counted once).
  uint64_t DroppedOverload = 0;  ///< Accesses shed at emit (park deadline
                                 ///< or drop-and-count mode).
  uint64_t ParkEpisodes = 0;     ///< Total backpressure park episodes.
  uint64_t MaxBacklog = 0;       ///< Max observed events outstanding —
                                 ///< pushed into the rings, not yet
                                 ///< merged (MaxQueueDepth-style
                                 ///< pressure stat).
  // Merge-loop polling (EXPERIMENTS.md E17).
  uint64_t MergeSweeps = 0;     ///< Sweeps over every ring.
  uint64_t MergeEmptyPolls = 0; ///< Ring visits that pulled nothing.
  uint64_t MergePacedWaits = 0; ///< Sweeps that merged a few events and
                                ///< then waited about one cross-core
                                ///< round trip before the next sweep.
  unsigned CaptureSegments = 0;  ///< Segments sealed (segmented recorder).
  std::vector<ThreadDropStats> PerThreadDrops; ///< Nonzero rows only.

  // --- sharded-engine telemetry (OnlineOptions::Shards) ---
  unsigned Shards = 1;        ///< Shards actually used (1 = no shard
                              ///< workers, the tool dispatched inline;
                              ///< includes the non-ShardableTool
                              ///< fallback).

  // --- thread-lifecycle telemetry (slot recycling) ---
  unsigned SlotsAllocated = 0; ///< Distinct slots ever created — the VC
                               ///< width the tool actually paid for. With
                               ///< recycling this is the peak *live*
                               ///< count, not the total thread count.
  unsigned PeakLiveSlots = 0;  ///< Max simultaneously live slots.
  uint64_t ThreadsRecycled = 0; ///< Forks served by reincarnating a
                                ///< retired slot.
  uint64_t ForksRejected = 0;  ///< Slot requests (forks and foreign-thread
                               ///< auto-registrations) refused for
                               ///< exhaustion; each such thread ran
                               ///< untracked.
  uint64_t UntrackedEvents = 0; ///< Events dropped (and counted here)
                                ///< because their thread had no slot.
  uint64_t EventsElided = 0;    ///< Accesses skipped by elision — through
                                ///< Unchecked<T> never counting, this is
                                ///< only downgraded Shared<T> accesses
                                ///< (Engine::noteElided()).

  // --- memory-governance telemetry (shadow/ShadowPolicy.h; summed
  // across shard clones in sharded mode) ---
  uint64_t ShadowBytesHighWater = 0; ///< Peak governed shadow footprint.
  uint64_t PagesCompressed = 0;  ///< Cold pages packed losslessly.
  uint64_t PagesSummarized = 0;  ///< Pages folded to one summary slot.
  uint64_t BudgetTrips = 0;      ///< High-watermark crossings.

  /// The session's precision contract, derived from the fields above.
  OracleRelation relation() const {
    if (Halted || DroppedOverload != 0 || DroppedPostHalt != 0 ||
        UntrackedEvents != 0)
      return OracleRelation::Lossy;
    if (DegradeRung != 0 || PagesSummarized != 0)
      return OracleRelation::Coarsened;
    return OracleRelation::Identical;
  }
};

/// One online detection session over one Tool. Construct it, run
/// instrumented code, call finish() after joining every runtime Thread.
/// At most one Engine is live at a time (the instrumentation shims find
/// it through Engine::current()).
class Engine {
public:
  explicit Engine(Tool &Checker, OnlineOptions Options = OnlineOptions());
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Drains all in-flight events, stops the supervisor and sequencer,
  /// calls the tool's end(), writes/validates the capture, and returns
  /// the measurements. All threads created through ft::runtime::Thread
  /// must be joined first. Callable once; the destructor calls it if the
  /// caller did not.
  ///
  /// finish() hands the tool back only once no loop is inside it: a
  /// handler that is blocked (even after the supervisor halted detection
  /// around it) is waited for until it returns, because the tool's state
  /// is not safe to read or destroy while a handler runs. A halt frees
  /// the application's threads, not the thread that calls finish().
  OnlineReport finish();

  /// The live engine instrumentation attaches to, or nullptr when no
  /// session is active (shims become pass-throughs).
  static Engine *current();

  /// Monotone session stamp; instrumented objects cache (generation, id)
  /// pairs so ids never leak across sessions.
  uint64_t generation() const { return Gen; }

  /// True once detection halted (the application keeps running; events
  /// are dropped and counted). Safe from any thread.
  bool halted() const { return Halted.load(std::memory_order_acquire); }

  // --- instrumentation back end (called by the shims in Instrument.h) ---

  /// Dense id for \p Obj in \p Kind's space.
  uint32_t internId(EntityKind Kind, const void *Obj) {
    return Interner.intern(Kind, Obj);
  }

  /// Emits one event from the calling thread; sync events (and the
  /// thread's first event on its slot) draw the next global ticket.
  /// Parks, yielding, while the thread's ring is full (backpressure) — but
  /// never past the supervisor's bounds: a parked *access* is dropped and
  /// counted after MaxParkMs (or immediately in drop-and-count mode);
  /// sync events wait until the ring drains or the supervisor halts
  /// detection. Events after a halt are dropped and counted, never
  /// silently.
  void emit(OpKind Kind, uint32_t Target);

  /// Records one access a downgraded Shared<T> performed without
  /// emitting (the native analogue of Expr::ElideEvent): a single
  /// relaxed increment, aggregated into OnlineReport::EventsElided at
  /// finish(). Keeping the count lets a session verify how much
  /// instrumentation the elision annotations actually removed.
  void noteElided() { ElidedEvents.fetch_add(1, std::memory_order_relaxed); }

  /// Sentinel returned by forkThread() when the slot table is exhausted:
  /// the child has no dense id and must run untracked (bind with
  /// bindCurrentThreadUntracked(); its events are dropped and counted).
  static constexpr ThreadId NoThread = ~0u;

  /// Allocates a slot for a child thread about to start and emits
  /// fork(current, child). Call before the native thread launches so the
  /// fork precedes the child's first event in merged order. Prefers the
  /// drained slot of a joined thread (RecycleThreadSlots); falls back to
  /// a fresh slot under MaxThreads; otherwise waits up to SlotDrainWaitMs
  /// for a retiring ring to drain. On genuine exhaustion (max-live over
  /// the cap) sets \p Child = NoThread and returns ResourceExhausted —
  /// with a one-time supervisor diagnostic. Detection is never halted and
  /// the application never aborted by running out of slots.
  Status tryForkThread(ThreadId &Child);

  /// tryForkThread() for callers that only need the id: returns NoThread
  /// on exhaustion (the Instrument.h Thread shim runs such children
  /// untracked).
  ThreadId forkThread();

  /// Emits join(current, child) and retires the child's slot for reuse.
  /// Call after the native join returns so every child event precedes it
  /// in merged order. NoThread (an untracked child) is a no-op.
  void joinThread(ThreadId Child);

  /// Binds the calling thread to dense id \p Id (child bootstrap). The
  /// slot was reserved by forkThread(); the native-thread creation edge
  /// orders this incarnation's ring accesses after the dead previous
  /// incarnation's (producer hand-off: dead producer → native join →
  /// parent fork → native create → new producer).
  void bindCurrentThread(ThreadId Id);

  /// Binds the calling thread to *no* slot: every event it emits is
  /// dropped and counted (OnlineReport::UntrackedEvents). The bootstrap
  /// for children forked after slot exhaustion.
  void bindCurrentThreadUntracked();

  /// The merge's ticket and join gate over one thread's ring \p Log (as
  /// its reader 0): copies the ring's next mergeable words, at most
  /// \p Max, to \p Out in FIFO order and releases them with one cursor
  /// store, so a parked producer sees the whole batch of space at once.
  /// An unticketed word (an access) passes freely. A ticketed word
  /// passes only when its residue is ticket \p Next's, which it then
  /// advances; a join additionally needs the joined thread's ring
  /// (\p LogOf(u), null when u has none) to be empty or to hold a
  /// ticketed word at its head, so u's trailing accesses merge first. The
  /// pull stops at the first word that may not pass yet, which stays in
  /// the ring for a later visit; a run that stops at the buffer's wrap
  /// point continues past it. Returns the number of words written.
  template <typename LogOfFn>
  static size_t pullBatch(BroadcastLog &Log, uint64_t &Next, EventWord *Out,
                          size_t Max, LogOfFn &&LogOf) {
    size_t N = 0;
    while (N != Max) {
      const EventWord *Run = nullptr;
      const size_t Len = std::min(Log.peekRun(0, Run, N), Max - N);
      size_t I = 0;
      for (; I != Len; ++I) {
        const EventWord W = Run[I];
        if (W.ticketed()) {
          if (W.tag() != EventWord::ticketTag(Next) ||
              (W.kind() == OpKind::Join &&
               !headTicketedOrEmpty(LogOf(W.target()))))
            break;
          ++Next;
        }
        Out[N + I] = W;
      }
      N += I;
      if (Len == 0 || I != Len)
        break;
    }
    if (N != 0)
      Log.release(0, N);
    return N;
  }

private:
  /// The join gate's test on the joined thread's ring: no unticketed
  /// access waits at its head. Merge-loop side only (reader 0).
  static bool headTicketedOrEmpty(BroadcastLog *Log) {
    const EventWord *Head = nullptr;
    return !Log || Log->peekRun(0, Head) == 0 || Head->ticketed();
  }

  /// Where a slot is in its lifecycle. Transitions (always under
  /// ChannelMu): Live → Retiring at joinThread(), Retiring → Free once
  /// the sequencer has drained the ring (checked lazily at the next
  /// fork), Free → Live at reincarnation — under the *same* dense id, so
  /// the tool's VC column carries the dead incarnation's final clock into
  /// the fork's join (the implicit dead→successor HB edge).
  enum class SlotState : uint8_t { Live, Retiring, Free };

  /// One registered slot: its dense id, its event ring, and its drop
  /// accounting (all counters relaxed; they are aggregated only after
  /// every producer has been joined — a recycled slot's counters span
  /// every incarnation). The Channel object itself is never destroyed or
  /// moved before teardown, whatever its SlotState, so the raw pointers
  /// held by TLS bindings and the sequencer snapshot stay valid.
  struct Channel {
    explicit Channel(ThreadId Id, size_t RingCapacity)
        : Id(Id), Log(RingCapacity, /*NumReaders=*/1) {}
    ThreadId Id;
    BroadcastLog Log; ///< The thread's ring; reader 0 is the merge loop.
    SlotState State = SlotState::Live; ///< Guarded by ChannelMu.
    std::atomic<uint64_t> DroppedPostHalt{0};
    std::atomic<uint64_t> DroppedOverload{0};
    std::atomic<uint64_t> Parks{0};
  };

  /// One shard worker's whole world: its index (its log cursor), its tool
  /// clone and DispatchOnly driver, and its published shadow telemetry.
  /// An idle worker yields, like the merge loop. Defined in Engine.cpp.
  struct Shard;

  Channel *channelForCurrentThread();
  Channel *registerThreadLocked(ThreadId Id);
  Channel *acquireSlot(bool ForeignThread);
  /// One allocation attempt under ChannelMu: recycled slot first, then —
  /// only when no retiring slot is about to drain, or the caller's drain
  /// wait already expired (\p FreshDespiteRetiring) — a fresh slot under
  /// MaxThreads. Null means "wait or give up".
  Channel *takeSlotLocked(bool ForeignThread, bool FreshDespiteRetiring = false);
  void promoteDrainedLocked();
  void noteExhaustion(const char *Who);
  bool parkUntilSpace(Channel *Ch, OpKind Kind);
  /// The merge loop's state, the same at every shard count. The
  /// snapshot is rebuilt whenever a slot registers.
  struct MergeCursor {
    uint64_t Next = 0; ///< The next sync ticket the merge may take.
    uint64_t Pos = 0;  ///< Events consumed so far (the merge position).
    std::vector<Channel *> Snapshot;
    size_t Known = 0;  ///< NumChannels the snapshot reflects.
    uint64_t Sweeps = 0;
    uint64_t EmptyPolls = 0; ///< Ring visits that pulled nothing.
    uint64_t PacedWaits = 0; ///< Thin sweeps followed by a pace.
    uint64_t MaxBacklog = 0; ///< Sampled every 16th sweep.
  };
  /// Sweep prologue: refreshes the snapshot and samples backlog.
  void beginSweep(MergeCursor &M);
  void endMerge(const MergeCursor &M);
  /// Books the \p N log words worker \p Shard discarded after a halt on
  /// their threads' rows, each event once across the workers: an access
  /// by its owner, a sync event by worker 0, a skip word by none.
  void dropDiscarded(unsigned Shard, const EventWord *Words, size_t N);
  /// Events ever published into any ring (Σ ring tails).
  uint64_t pushedEvents();
  void mergeLoop();
  void shardLoop(Shard &S);
  uint64_t shardShadowBytes() const;
  void supervisorLoop();
  void superviseNote(Severity Sev, StatusCode Code, std::string Message);
  void noteMaxBacklog(uint64_t Backlog);

  Tool &Checker;
  OnlineOptions Options;
  uint64_t Gen;
  EntityInterner Interner;
  /// Shard workers in use: resolved before Driver (declaration order
  /// matters — driverOptions() selects the admission-only role from it).
  /// 1 means no shard workers (the tool is dispatched inline), whether
  /// requested or the non-ShardableTool fallback.
  unsigned NumShards;
  /// Which shard owns each variable (ShardBlockVars over NumShards).
  ShardMap Owners;
  /// Shard clones accepted configureShadowPolicy (set during shard
  /// construction, read by the workers' publish gate).
  bool ShardMemoryGoverned = false;
  OnlineDriver Driver;
  Trace Capture;
  bool MemCapture;  ///< Keep the in-memory Trace capture.
  bool Capturing;   ///< Collect delivered batches (memory or segments).
  std::unique_ptr<SegmentedTraceWriter> SegWriter;

  /// Registered channels; guarded by ChannelMu. Channels are never
  /// removed before teardown, so raw pointers handed to TLS bindings and
  /// the sequencer stay valid. NumChannels mirrors Channels.size() so the
  /// sequencer can notice registrations without taking the mutex on every
  /// sweep (it locks only to rebuild its snapshot).
  std::mutex ChannelMu;
  std::vector<std::unique_ptr<Channel>> Channels;
  std::atomic<size_t> NumChannels{0};

  // --- slot-lifecycle state (all guarded by ChannelMu; fork/join are
  // cold paths, so a mutex is fine) ---
  std::vector<Channel *> FreeSlots;     ///< Drained, ready to reincarnate.
  std::vector<Channel *> RetiringSlots; ///< Joined, ring not yet drained.
  unsigned LiveSlots = 0;
  unsigned PeakLiveSlots = 0;
  uint64_t ThreadsRecycled = 0;
  std::atomic<uint64_t> ForksRejected{0};
  std::atomic<uint64_t> UntrackedEvents{0};
  std::atomic<uint64_t> ElidedEvents{0};
  std::atomic<bool> ExhaustionNoted{false}; ///< One diagnostic however
                                            ///< many forks bounce.

  /// Producers write Seq, the sequencer writes the merge position, and
  /// every emit reads Halted: three cache lines, so neither writer evicts
  /// what the other side reads on its hot path.
  alignas(64) std::atomic<uint64_t> Seq{0}; ///< Next sync ticket to hand
                                            ///< out.
  /// The merge position, published per batch (see SequencerBatch).
  alignas(64) std::atomic<uint64_t> MergedEvents{0}; ///< Events the merge
                                                     ///< consumed (the
                                                     ///< stall sensor).
  alignas(64) std::atomic<bool> Running{true}; ///< Cleared by finish().

  /// Detection stopped (unrecoverable breach, tool fault, or a loop
  /// stalled past two deadlines); emits drop-and-count. Store/load
  /// ordering is release/acquire: the setter (sequencer, shard worker or
  /// supervisor) publishes the diagnostics and counters explaining the
  /// halt *before* the flag, so any producer that observes Halted==true
  /// — and therefore stops contributing events — also observes a
  /// fully-formed halt state, and the pre-halt prefix it helped produce
  /// is consistent with the report finish() assembles. Relaxed ordering
  /// would let a producer skip events against a half-published halt.
  std::atomic<bool> Halted{false};

  // --- supervision state ---
  std::atomic<bool> DropAccesses{false}; ///< Drop-and-count mode: parked
                                         ///< producers shed accesses.
  std::atomic<uint64_t> MaxBacklogSeen{0};
  std::atomic<bool> SupervisorRun{true};
  std::mutex SupMu; ///< Guards SupDiags.
  std::vector<Diagnostic> SupDiags;

  // --- sharded mode (NumShards > 1) ---
  std::vector<std::unique_ptr<Shard>> ShardSet;
  std::unique_ptr<BroadcastLog> Log; ///< Merge loop → every worker.
  std::atomic<bool> LogClosed{false}; ///< No more appends (the merge loop
                                      ///< is joined): idle workers exit.
  std::mutex SinkMu;   ///< Serializes OnWarning across shard workers.
  std::mutex ClocksMu; ///< Guards SequencerClocks and merge-counter
                       ///< folds: shard workers and the merge loop can
                       ///< exit concurrently.

  std::thread SequencerThread;
  std::thread SupervisorThread;
  ClockStats SequencerClocks; ///< Accumulated across the merge loop and
                              ///< shard workers, under ClocksMu.
  Stopwatch Watch;
  OnlineReport Report;
  bool Finished = false;
};

} // namespace ft::runtime

#endif // FASTTRACK_RUNTIME_ENGINE_H
