#include "runtime/Engine.h"

#include "framework/ShardableTool.h"
#include "runtime/FaultPlan.h"
#include "trace/TraceIO.h"
#include "trace/TraceValidator.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace ft;
using namespace ft::runtime;

namespace {

/// The one live session (shims attach through Engine::current()).
std::atomic<Engine *> CurrentEngine{nullptr};

/// Session stamps start at 1 so a zero-initialized object cache never
/// matches a real generation.
std::atomic<uint64_t> GenerationCounter{0};

/// The merge loop's pace (EXPERIMENTS.md E17, "temporal slipping" after
/// FastForward, PPoPP 2008). A sweep that merges only a few events found
/// its producers' rings nearly empty, so it read the Tail and slot lines
/// the producers are still writing; sweeping again at once steals those
/// lines back every time, and each steal stalls a producer behind its
/// next locked instruction. After such a sweep the loop waits about one
/// cross-core round trip (about 200 ns on the E17 host), timed from the
/// sweep's end, so the producers fill a few more slots first. Longer
/// waits cost more than they save (E17: 1.1 µs reads slower than no
/// wait). Sweeps that merge PaceBelowEvents or more never wait.
constexpr uint64_t PaceBelowEvents = 16;
constexpr std::chrono::nanoseconds PaceWait{250};
constexpr unsigned PausesPerClockRead = 4;

/// One spin-wait hint: x86 `pause`, AArch64 `yield`, else a compiler
/// barrier. Its latency varies ~10x across CPUs, which is why the pace
/// is bounded by the clock, not by a pause count.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

void paceMerge() {
  const auto Until = std::chrono::steady_clock::now() + PaceWait;
  do {
    for (unsigned I = 0; I != PausesPerClockRead; ++I)
      cpuRelax();
  } while (std::chrono::steady_clock::now() < Until);
}

ToolContext capacityContext(const OnlineOptions &Options) {
  ToolContext Context;
  Context.NumThreads = Options.MaxThreads;
  Context.NumVars = Options.MaxVars;
  Context.NumLocks = Options.MaxLocks;
  Context.NumVolatiles = Options.MaxVolatiles;
  return Context;
}

/// The session's shadow-governance policy: the configured one, with the
/// FaultPlan's real allocation failures folded in (arming either shadow
/// fault forces governance on — the gates live inside the governed
/// table).
ShadowMemoryPolicy effectiveMemoryPolicy(const OnlineOptions &Options) {
  ShadowMemoryPolicy M = Options.Degrade.Memory;
  if (Options.Faults) {
    if (Options.Faults->FailShadowPageAllocAt != FaultPlan::None) {
      M.Enabled = true;
      M.FailPageAllocAt = Options.Faults->FailShadowPageAllocAt;
    }
    if (Options.Faults->FailSideStoreInflateAt != FaultPlan::None) {
      M.Enabled = true;
      M.FailInflateAt = Options.Faults->FailSideStoreInflateAt;
    }
  }
  return M;
}

OnlineDriverOptions driverOptions(const OnlineOptions &Options,
                                  unsigned NumShards,
                                  std::function<uint64_t()> ShadowBytes) {
  OnlineDriverOptions Driver;
  // With shards the primary driver is admission-only: it owns the ladder,
  // the capacity checks, the raw indices, and the lock filter, but the
  // tool handlers run in the shard workers' DispatchOnly drivers. Its
  // budget probes read the shadow bytes the workers publish (its own tool
  // instance never grows), and the warning sink stays empty — shard
  // drivers sink warnings live; installing it here too would replay every
  // adopted warning a second time at finish().
  Driver.Role =
      NumShards > 1 ? DriverRole::AdmissionOnly : DriverRole::Full;
  Driver.ShadowBytes = std::move(ShadowBytes);
  Driver.FilterReentrantLocks = Options.FilterReentrantLocks;
  if (NumShards == 1)
    Driver.WarningSink = Options.OnWarning;
  Driver.Degrade = Options.Degrade;
  Driver.Degrade.Memory = effectiveMemoryPolicy(Options);
  if (Options.Faults)
    Driver.ForceBudgetBreachAtRawOp = Options.Faults->ForceBudgetBreachAtRawOp;
  return Driver;
}

/// \p O fitted to the event word's fields (EventWord in BroadcastLog.h):
/// the shard log's thread tag, and the ring's ticket window, which must
/// hold every ticket drawn and not yet merged: one per ring slot plus the
/// one each thread may be appending, MaxThreads × (capacity + 1) at most.
/// The ring shrinks first; a thread count too large even for one-slot
/// rings is cut as well.
OnlineOptions withinEventWord(OnlineOptions O) {
  constexpr uint64_t Window = EventWord::TicketWindow;
  O.MaxThreads = static_cast<unsigned>(
      std::min<uint64_t>({O.MaxThreads, EventWord::ThreadLimit, Window / 2}));
  const uint64_t Threads = std::max(1u, O.MaxThreads);
  uint64_t Cap = 1; // the ring's capacity as BroadcastLog rounds it
  while (Cap < O.RingCapacity && Cap < Window)
    Cap <<= 1;
  while (Threads * (Cap + 1) > Window)
    Cap >>= 1;
  if (Cap < O.RingCapacity)
    O.RingCapacity = Cap;
  return O;
}

/// How many shards this session actually runs. Shards > 1 requires the
/// ShardableTool clone/merge hooks; a tool without them runs at 1, its
/// handlers dispatched inline (the constructor attaches the explanatory
/// Note).
unsigned resolveShardCount(const OnlineOptions &Options, Tool &Checker) {
  unsigned N = Options.Shards == 0 ? 1 : Options.Shards;
  N = std::min(N, MaxShards);
  if (N > 1 && dynamic_cast<ShardableTool *>(&Checker) == nullptr)
    return 1;
  return N;
}

/// Which engine/channel the calling thread is bound to. Rebinding is
/// lazy: a thread carrying a stale binding (from a finished session)
/// re-registers against the live engine on first emit. Every (re)binding
/// starts with NeedTicket set: the first event a thread emits on a slot
/// is ticketed even when it is an access, so it cannot merge ahead of the
/// fork that created the thread, and so a later incarnation of a recycled
/// slot always starts with a ticketed head (the join gate relies on it).
struct TlsBinding {
  const void *E = nullptr;
  void *Ch = nullptr;
  bool NeedTicket = true;
};
thread_local TlsBinding Binding;

} // namespace

Engine *Engine::current() {
  return CurrentEngine.load(std::memory_order_acquire);
}

/// One shard worker's whole world.
struct Engine::Shard {
  explicit Shard(unsigned Index) : Index(Index) {}

  const unsigned Index; ///< The shard it owns and its log cursor.
  std::unique_ptr<Tool> Clone;          ///< Shard-local tool instance.
  std::unique_ptr<OnlineDriver> Driver; ///< DispatchOnly over Clone.
  std::thread Worker;

  std::atomic<uint64_t> ShadowPublished{0}; ///< Clone->shadowBytes() as
                                            ///< of the last batch refill;
                                            ///< read by the admission
                                            ///< driver's budget probe.
};

Engine::Engine(Tool &Checker, OnlineOptions Opts)
    : Checker(Checker), Options(withinEventWord(Opts)),
      Gen(GenerationCounter.fetch_add(1, std::memory_order_relaxed) + 1),
      NumShards(resolveShardCount(Options, Checker)),
      Driver(Checker, capacityContext(Options),
             driverOptions(Options, NumShards,
                           NumShards > 1
                               ? std::function<uint64_t()>(
                                     [this] { return shardShadowBytes(); })
                               : std::function<uint64_t()>())),
      MemCapture(Options.KeepCapture ||
                 (!Options.CapturePath.empty() &&
                  Options.CaptureSegmentBytes == 0)),
      Capturing(false) {
  if (!Options.CapturePath.empty() && Options.CaptureSegmentBytes != 0) {
    // Segmented flight recorder: CapturePath names the chain prefix (a
    // trailing .trc is stripped — segments carry their own extension).
    std::string Prefix = Options.CapturePath;
    if (Prefix.size() > 4 &&
        Prefix.compare(Prefix.size() - 4, 4, ".trc") == 0)
      Prefix.resize(Prefix.size() - 4);
    SegmentWriterOptions SW;
    SW.SegmentBytes = Options.CaptureSegmentBytes;
    SegWriter = std::make_unique<SegmentedTraceWriter>(Prefix, SW);
  }
  Capturing = MemCapture || SegWriter != nullptr;
  if (Options.MaxThreads != Opts.MaxThreads ||
      Options.RingCapacity != Opts.RingCapacity)
    superviseNote(Severity::Warning, StatusCode::ValidationError,
                  "MaxThreads " + std::to_string(Opts.MaxThreads) +
                      " with RingCapacity " +
                      std::to_string(Opts.RingCapacity) +
                      " exceeds the event word's thread and ticket fields; "
                      "running with MaxThreads " +
                      std::to_string(Options.MaxThreads) +
                      " and RingCapacity " +
                      std::to_string(Options.RingCapacity));
  if (Options.Faults)
    Seq.store(Options.Faults->FirstTicket, std::memory_order_relaxed);
  if (Options.Shards > 1 && NumShards == 1)
    superviseNote(Severity::Note, StatusCode::ValidationError,
                  std::string("tool '") + Checker.name() +
                      "' does not implement ShardableTool; running "
                      "without shard workers, the tool dispatched inline "
                      "by the merge loop");

  if (NumShards > 1) {
    auto &Shardable = dynamic_cast<ShardableTool &>(Checker);
    const size_t BatchCap = std::max<size_t>(1, Options.SequencerBatch);
    // Each worker may fall max(RingCapacity, four admission batches) of
    // its own events behind, so a full batch never parks the merge loop on
    // its own size; a worker owns about 1/N of the log's events.
    Log = std::make_unique<BroadcastLog>(
        NumShards * std::max(Options.RingCapacity, 4 * BatchCap), NumShards);
    Owners = ShardMap(Options.ShardBlockVars, NumShards);
    // Per-shard governance: each clone self-governs against an equal
    // slice of the byte budget (finish() sums the clones' counters).
    // Configured before the shard driver exists — its begin() is what
    // applies the policy.
    ShadowMemoryPolicy ShardMem = effectiveMemoryPolicy(Options);
    if (ShardMem.BudgetBytes != 0)
      ShardMem.BudgetBytes =
          std::max<uint64_t>(1, ShardMem.BudgetBytes / NumShards);
    for (unsigned I = 0; I != NumShards; ++I) {
      auto S = std::make_unique<Shard>(I);
      S->Clone = Shardable.cloneForShard();
      if (Options.Degrade.Enabled && ShardMem.Enabled)
        ShardMemoryGoverned = S->Clone->configureShadowPolicy(ShardMem);
      OnlineDriverOptions DO;
      DO.Role = DriverRole::DispatchOnly;
      // Admission already ran the lock filter and the ladder transform on
      // everything in the log; running either again would desync the
      // clone from the capture.
      DO.FilterReentrantLocks = false;
      DO.Degrade.Enabled = false;
      if (Options.OnWarning)
        DO.WarningSink = [this](const RaceWarning &W) {
          std::lock_guard<std::mutex> Guard(SinkMu);
          Options.OnWarning(W);
        };
      S->Driver = std::make_unique<OnlineDriver>(
          *S->Clone, capacityContext(Options), std::move(DO));
      ShardSet.push_back(std::move(S));
    }
  }

  // The constructing thread is the session's main thread, dense id 0 (a
  // slot that is always live — the main thread is never joined).
  {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    Binding = {this, takeSlotLocked(/*ForeignThread=*/false)};
  }

  assert(CurrentEngine.load(std::memory_order_relaxed) == nullptr &&
         "one online session at a time");
  CurrentEngine.store(this, std::memory_order_release);

  for (std::unique_ptr<Shard> &S : ShardSet) {
    Shard *P = S.get();
    P->Worker = std::thread([this, P] { shardLoop(*P); });
  }
  SequencerThread = std::thread([this] { mergeLoop(); });
  if (Options.Supervise.Enabled)
    SupervisorThread = std::thread([this] { supervisorLoop(); });
}

Engine::~Engine() {
  if (!Finished)
    (void)finish();
}

Engine::Channel *Engine::registerThreadLocked(ThreadId Id) {
  Channels.push_back(std::make_unique<Channel>(Id, Options.RingCapacity));
  NumChannels.store(Channels.size(), std::memory_order_release);
  ++LiveSlots;
  PeakLiveSlots = std::max(PeakLiveSlots, LiveSlots);
  return Channels.back().get();
}

void Engine::promoteDrainedLocked() {
  // Retiring → Free once the sequencer has drained the dead thread's
  // ring. The merge cursor and the tail are both acquire loads, so equal
  // values mean every event of the dead incarnation has been pulled —
  // and pulled events dispatch strictly before anything the successor
  // will push: the successor's first event is ticketed after the
  // reincarnating fork, which is ticketed after the dead incarnation's
  // join, and its later events queue behind that first one.
  size_t Out = 0;
  for (Channel *Ch : RetiringSlots) {
    if (Ch->Log.cursor(0) == Ch->Log.tail()) {
      Ch->State = SlotState::Free;
      FreeSlots.push_back(Ch);
    } else {
      RetiringSlots[Out++] = Ch;
    }
  }
  RetiringSlots.resize(Out);
}

Engine::Channel *Engine::takeSlotLocked(bool ForeignThread,
                                        bool FreshDespiteRetiring) {
  promoteDrainedLocked();
  // Reincarnation first: same dense id, so the tool's VC column still
  // holds the dead incarnation's final clock and the coming fork's join
  // doubles as the dead→successor happens-before edge (see the class
  // comment). Foreign threads never reincarnate a slot: without a fork
  // event a recycled id would splice an unrelated thread into the dead
  // thread's history with no edge to justify it — they get fresh slots
  // (conservatively unordered) or run untracked.
  bool MayRecycle = !ForeignThread && Options.RecycleThreadSlots;
  if (MayRecycle && !FreeSlots.empty()) {
    Channel *Ch = FreeSlots.back();
    FreeSlots.pop_back();
    Ch->State = SlotState::Live;
    ++ThreadsRecycled;
    ++LiveSlots;
    PeakLiveSlots = std::max(PeakLiveSlots, LiveSlots);
    return Ch;
  }
  // A retiring slot is a recycled slot in a few ring-drain microseconds:
  // prefer waiting for it (acquireSlot's bounded loop) over widening the
  // table, so VC width and shadow memory track *max-live* threads, not
  // churn. Only once the caller's drain wait has expired does a fresh
  // slot beat an undrained one.
  if (MayRecycle && !RetiringSlots.empty() && !FreshDespiteRetiring)
    return nullptr;
  if (Channels.size() < Options.MaxThreads)
    return registerThreadLocked(Interner.allocateThreadId());
  return nullptr;
}

Engine::Channel *Engine::acquireSlot(bool ForeignThread) {
  {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    if (Channel *Ch = takeSlotLocked(ForeignThread))
      return Ch;
    if (ForeignThread || !Options.RecycleThreadSlots ||
        RetiringSlots.empty())
      return nullptr;
  }
  // A joined thread's slot is still draining. Draining is the sequencer's
  // normal job (ring-latency fast); the one slow case is a slow tool
  // handler, which returns or is halted by the supervisor — so wait
  // bounded rather than failing eagerly or forever.
  Stopwatch Wait;
  const uint64_t DeadlineNs =
      static_cast<uint64_t>(Options.SlotDrainWaitMs) * 1000000ull;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> Guard(ChannelMu);
    if (Channel *Ch = takeSlotLocked(ForeignThread))
      return Ch;
    if (RetiringSlots.empty() || Wait.nanoseconds() >= DeadlineNs ||
        Halted.load(std::memory_order_acquire))
      // Give up on the drain: take a fresh slot if the table still has
      // room (robustness beats width), else report exhaustion.
      return takeSlotLocked(ForeignThread, /*FreshDespiteRetiring=*/true);
  }
}

void Engine::noteExhaustion(const char *Who) {
  ForksRejected.fetch_add(1, std::memory_order_relaxed);
  // One diagnostic however many threads bounce; the ladder is not asked
  // to step: no coarser variable id conjures slots.
  if (ExhaustionNoted.exchange(true, std::memory_order_acq_rel))
    return;
  superviseNote(Severity::Warning, StatusCode::ResourceExhausted,
                std::string(Who) + ": thread-slot table exhausted (" +
                    std::to_string(Options.MaxThreads) +
                    " slots all live or undrained); over-cap threads run "
                    "untracked, their events dropped and counted");
}

Engine::Channel *Engine::channelForCurrentThread() {
  if (Binding.E == this)
    return static_cast<Channel *>(Binding.Ch); // null = untracked binding
  // A thread the runtime has not seen: auto-register so its events are
  // analyzed rather than lost. Without a fork edge its accesses are
  // conservatively unordered with every other thread; captures containing
  // it fail the validator's fork-before-first-op rule (see class comment).
  // Always a fresh slot, never a recycled one (see takeSlotLocked); on
  // exhaustion the thread runs untracked rather than halting detection.
  Channel *Ch = acquireSlot(/*ForeignThread=*/true);
  if (!Ch)
    noteExhaustion("foreign thread");
  Binding = {this, Ch};
  return Ch;
}

void Engine::bindCurrentThread(ThreadId Id) {
  // The slot was reserved (and its channel created) by forkThread(); the
  // thread-creation edge orders this producer's ring accesses after the
  // previous incarnation's, so the SPSC ring hand-off needs no extra
  // synchronization.
  std::lock_guard<std::mutex> Guard(ChannelMu);
  for (const std::unique_ptr<Channel> &Ch : Channels)
    if (Ch->Id == Id) {
      Binding = {this, Ch.get()};
      return;
    }
  // Hand-rolled caller with an id the engine never issued: register it so
  // events are analyzed rather than lost (pre-recycling behavior).
  Binding = {this, registerThreadLocked(Id)};
}

void Engine::bindCurrentThreadUntracked() { Binding = {this, nullptr}; }

void Engine::emit(OpKind Kind, uint32_t Target) {
  Channel *Ch = channelForCurrentThread();
  if (!Ch) {
    // Untracked thread (slot exhaustion): never silent, never fatal.
    UntrackedEvents.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Acquire pairs with the release store at every halt site: see the
  // Halted declaration for why relaxed would be wrong here.
  if (Halted.load(std::memory_order_acquire)) {
    Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Backpressure: park until the sequencer drains. A ticket is drawn
  // only after space is certain, so the sequencer never waits on a seq
  // number owned by a parked thread (that would deadlock the pipeline) —
  // and an event shed while parked owns no ticket either, so shedding
  // leaves no gap in the sequence.
  if (!Ch->Log.hasSpace() && !parkUntilSpace(Ch, Kind))
    return;
  // Only sync events need a global order: happens-before is built from
  // program order and the order of sync operations, so accesses travel
  // unticketed and the merge slots them between their thread's sync
  // events (see the class comment).
  EventWord W = EventWord::of(Kind, Target);
  if (!isAccess(Kind) || Binding.NeedTicket) {
    W = EventWord::withTicket(Kind, Target,
                              Seq.fetch_add(1, std::memory_order_relaxed));
    Binding.NeedTicket = false;
  }
  Ch->Log.tryAppend(W); // cannot fail: the space was certain above
  Ch->Log.publish();
}

bool Engine::parkUntilSpace(Channel *Ch, OpKind Kind) {
  // The cold path: the producer is about to block on the detector. The
  // supervisor bounds that: a parked *access* is shed after MaxParkMs (or
  // immediately in drop-and-count mode) and counted; sync events are the
  // HB spine and keep waiting — until the supervisor halts a loop stalled
  // past two deadlines, so even they cannot wait unboundedly unless
  // supervision is pinned off.
  Ch->Parks.fetch_add(1, std::memory_order_relaxed);
  const bool Droppable = isAccess(Kind) && Options.Supervise.Enabled;
  const uint64_t DeadlineNs =
      static_cast<uint64_t>(Options.Supervise.MaxParkMs) * 1000000ull;
  Stopwatch Park;
  bool GotSpace = false;
  for (;;) {
    if (Ch->Log.hasSpace()) {
      GotSpace = true;
      break;
    }
    if (Halted.load(std::memory_order_acquire)) {
      Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (Droppable) {
      if (DropAccesses.load(std::memory_order_acquire)) {
        Ch->DroppedOverload.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (Park.nanoseconds() >= DeadlineNs) {
        Ch->DroppedOverload.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    std::this_thread::yield();
  }
  return GotSpace;
}

Status Engine::tryForkThread(ThreadId &Child) {
  Child = NoThread;
  Channel *Slot = acquireSlot(/*ForeignThread=*/false);
  if (!Slot) {
    // Max-live genuinely exceeds the cap: a structured error and a
    // one-time supervisor diagnostic — the production answer to "out of
    // slots", where PR 3's fixed table made the driver halt detection on
    // the first over-cap thread id.
    noteExhaustion("forkThread");
    return Status::error(StatusCode::ResourceExhausted,
                         "thread-slot table exhausted (" +
                             std::to_string(Options.MaxThreads) +
                             " slots all live or undrained); child will "
                             "run untracked");
  }
  Child = Slot->Id;
  // Ticketed before the native thread starts, so fork(t, u) precedes
  // every event of u in the merged order — and, for a recycled slot,
  // strictly after the predecessor's join ticket, so the tool sees
  // join(t, u) ... fork(t', u) with nothing of u in between.
  emit(OpKind::Fork, Child);
  return Status();
}

ThreadId Engine::forkThread() {
  ThreadId Child = NoThread;
  (void)tryForkThread(Child);
  return Child;
}

void Engine::joinThread(ThreadId Child) {
  if (Child == NoThread)
    return; // untracked child: no slot, no events, no edge to emit
  // Ticketed after the native join returned, and merged only once the
  // child's ring holds no unticketed access at its head (the join gate
  // in Engine::pullBatch), so every event of the child precedes
  // join(t, u) in the merged order.
  emit(OpKind::Join, Child);
  if (!Options.RecycleThreadSlots)
    return;
  // Retire the slot. The ring may still hold undrained events (they all
  // merge before the join just emitted); the slot becomes reusable only
  // once the sequencer has emptied it (promoteDrainedLocked).
  std::lock_guard<std::mutex> Guard(ChannelMu);
  for (const std::unique_ptr<Channel> &Ch : Channels)
    if (Ch->Id == Child && Ch->State == SlotState::Live) {
      Ch->State = SlotState::Retiring;
      RetiringSlots.push_back(Ch.get());
      --LiveSlots;
      break;
    }
}

uint64_t Engine::pushedEvents() {
  std::lock_guard<std::mutex> Guard(ChannelMu);
  uint64_t Total = 0;
  for (const std::unique_ptr<Channel> &Ch : Channels)
    Total += Ch->Log.tail();
  return Total;
}

void Engine::noteMaxBacklog(uint64_t Backlog) {
  uint64_t Seen = MaxBacklogSeen.load(std::memory_order_relaxed);
  while (Backlog > Seen &&
         !MaxBacklogSeen.compare_exchange_weak(Seen, Backlog,
                                               std::memory_order_relaxed))
    ;
}

void Engine::beginSweep(MergeCursor &M) {
  // Rebuild the channel snapshot only when a registration happened; the
  // steady-state sweep never touches ChannelMu.
  if (NumChannels.load(std::memory_order_acquire) != M.Known) {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    M.Snapshot.clear();
    for (const std::unique_ptr<Channel> &Ch : Channels)
      M.Snapshot.push_back(Ch.get());
    M.Known = Channels.size();
  }
  // Backlog is sampled, not tracked: summing the rings reads every
  // producer's tail line, which a sync-heavy stream, merging a few events
  // per sweep, would otherwise pay on every sweep.
  if ((M.Sweeps++ & 15u) == 0) {
    uint64_t Backlog = 0;
    for (Channel *Ch : M.Snapshot)
      Backlog += Ch->Log.tail() - Ch->Log.cursor(0);
    M.MaxBacklog = std::max(M.MaxBacklog, Backlog);
  }
}

void Engine::endMerge(const MergeCursor &M) {
  noteMaxBacklog(M.MaxBacklog);
  // Vector-clock counters are thread-local (see ClockStats.h); the merge
  // loop folds its block in at exit. ClocksMu covers the sharded engine,
  // where shard workers can exit concurrently.
  std::lock_guard<std::mutex> Guard(ClocksMu);
  SequencerClocks += clockStats();
  Report.MergeSweeps += M.Sweeps;
  Report.MergeEmptyPolls += M.EmptyPolls;
  Report.MergePacedWaits += M.PacedWaits;
}

void Engine::dropDiscarded(unsigned Shard, const EventWord *Words,
                           size_t N) {
  // Post-halt only, so a scan under the slot lock is fine. Ids are unique
  // per channel (a recycled slot keeps its id), and a run of events mostly
  // shares one thread.
  std::lock_guard<std::mutex> Guard(ChannelMu);
  Channel *Ch = nullptr;
  for (size_t I = 0; I != N; ++I) {
    const EventWord W = Words[I];
    if (W.isSkip() ||
        (isAccess(W.kind()) ? Owners.indexOf(W.target()) != Shard : Shard != 0))
      continue;
    if (!Ch || Ch->Id != W.thread())
      for (const std::unique_ptr<Channel> &C : Channels)
        if (C->Id == W.thread()) {
          Ch = C.get();
          break;
        }
    Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t Engine::shardShadowBytes() const {
  // The admission driver's budget-probe source. Probing the clones'
  // containers from the merge loop would race the workers; instead
  // each worker publishes its clone's size at every batch refill and the
  // probe sums the published values (staleness of one batch is fine — the
  // budget trigger is a trend detector, not an invariant).
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : ShardSet)
    Total += S->ShadowPublished.load(std::memory_order_relaxed);
  return Total;
}

void Engine::mergeLoop() {
  // The one merge loop, at every shard count. It merges the rings into one
  // totally-ordered stream, admits each event through the primary driver,
  // captures the delivered runs and publishes the merge position per batch.
  // Only the delivery step depends on the shard count. Without shards the
  // driver is Full: admission already dispatched the event to the tool (a
  // whole access run per call), so the delivery step is the tool itself.
  // With shards the driver is AdmissionOnly and the loop appends each
  // admitted event once to the broadcast log, at the position that is the
  // raw index the driver just assigned, so shard tools see single-stream
  // op indices.
  MergeCursor M;
  M.Next = Options.Faults ? Options.Faults->FirstTicket : 0;
  const size_t BatchCap = std::max<size_t>(1, Options.SequencerBatch);
  std::vector<EventWord> Batch(BatchCap);
  std::vector<Operation> Delivered;
  Delivered.reserve(BatchCap);
  BroadcastLog *const Out = Log.get();
  // The join gate's lookup of the joined thread's ring. A ticketed head
  // there can only be a later incarnation's first event (the dead one's
  // tickets all precede the join), so the gate holds across slot
  // recycling. Joins are rare; a linear scan of the snapshot is fine. A
  // slot not yet in the snapshot has pushed nothing this merge must wait
  // for: its first event is ticketed before the join, so it would have
  // had to merge first.
  auto LogOf = [&M](ThreadId U) -> BroadcastLog * {
    for (Channel *Other : M.Snapshot)
      if (Other->Id == U)
        return &Other->Log;
    return nullptr;
  };
  // An admitted event is never abandoned while detection runs: it is in
  // the capture and owns a raw index. On a full log the loop publishes
  // what it appended and waits for the slowest worker; only a halt lets it
  // give up, and it books what it never appended.
  auto Append = [&](Channel &Ch, EventWord W) {
    if (Out->tryAppend(W))
      return;
    Out->publish();
    while (!Out->tryAppend(W)) {
      if (Halted.load(std::memory_order_acquire)) {
        Ch.DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
  };
  for (;;) {
    // Read before the sweep: the main thread's last accesses are
    // unticketed, so only a clean sweep begun after finish() cleared
    // Running proves every ring empty.
    const bool Stopping = !Running.load(std::memory_order_acquire);
    beginSweep(M);
    uint64_t Merged = 0;
    for (Channel *Ch : M.Snapshot) {
      // Drain this ring in batches: the events are copied out and their
      // slots released in one cursor store (so a parked producer unblocks
      // early), then admitted from the local buffer. A short batch means
      // the ring is out of mergeable events, so move on; a ring's capacity
      // per visit keeps one busy producer from starving the others.
      size_t Taken = 0;
      while (Taken < Ch->Log.capacity()) {
        size_t N = pullBatch(Ch->Log, M.Next, Batch.data(), BatchCap, LogOf);
        if (N == 0) {
          M.EmptyPolls += Taken == 0;
          break;
        }
        Taken += N;
        Delivered.clear();
        size_t I = 0;
        size_t PerEventTo = 0; // the declined rest of an access stretch
        while (I != N) {
          if (Halted.load(std::memory_order_relaxed)) {
            // Emitted before the halt landed; discarded but counted on its
            // thread's row — no silent loss (relaxed: nothing read here
            // depends on what the halting thread published).
            Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
            ++I;
            continue;
          }
          // Access stretches take the batched path: one admitAccessRun()
          // call consumes the stretch's raw indices (and at Shards=1
          // dispatches it to the tool) without per-event Operations or
          // offer()'s per-event checks; with shards the admitted events go
          // straight from the merge batch into the log. What the run path
          // declines — a rung that rewrites accesses (also one a budget
          // probe inside the run just stepped onto), a capacity breach, a
          // throwing tool — goes per event below, which owns the exact
          // semantics.
          if (I >= PerEventTo && isAccess(Batch[I].kind())) {
            size_t End = I + 1;
            while (End != N && isAccess(Batch[End].kind()))
              ++End;
            const uint64_t Base = Driver.rawOps();
            Driver.admitAccessRun(Ch->Id, &Batch[I], End - I);
            const size_t Done = static_cast<size_t>(Driver.rawOps() - Base);
            if (Capturing || Out)
              for (size_t J = 0; J != Done; ++J) {
                const EventWord W = Batch[I + J];
                if (Capturing)
                  Delivered.push_back(Operation(W.kind(), Ch->Id, W.target()));
                if (Out)
                  Append(*Ch, W.onThread(Ch->Id));
              }
            I += Done;
            if (I == End)
              continue;
            PerEventTo = End;
          }
          Operation Op(Batch[I].kind(), Ch->Id, Batch[I].target());
          OnlineDriver::DispatchOutcome Outcome = Driver.offer(Op);
          if (Outcome == OnlineDriver::DispatchOutcome::Delivered) {
            if (Capturing)
              Delivered.push_back(Op);
            // A filter-stripped lock event owns a raw index, so it takes
            // its log position as a skip word: shard drivers run with the
            // filter off and must not dispatch it.
            if (Out)
              Append(*Ch, Driver.lastAdmittedFiltered()
                              ? EventWord::skip()
                              : EventWord::of(Op.Kind, Op.Target, Ch->Id));
          } else if (Outcome == OnlineDriver::DispatchOutcome::Rejected) {
            // Unrecoverable driver halt. Release pairs with the acquire
            // in emit(): the driver's diagnostics are fully written
            // before producers can observe the flag (see Halted).
            Halted.store(true, std::memory_order_release);
            Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
          }
          ++I;
        }
        if (!Delivered.empty()) {
          // Batched capture: the whole delivered run lands in one
          // appendRun and one segment write.
          if (MemCapture)
            Capture.appendRun(Delivered.data(), Delivered.size());
          if (SegWriter)
            SegWriter->append(Delivered.data(), Delivered.size());
        }
        // Publish the position per batch, only after the whole batch is
        // admitted, captured and published to the log: the watchdog reads
        // it for stall detection, and finish() for the drain.
        if (Out)
          Out->publish();
        M.Pos += N;
        MergedEvents.store(M.Pos, std::memory_order_release);
        if (N != BatchCap)
          break;
      }
      Merged += Taken;
    }
    if (Merged >= PaceBelowEvents)
      continue;
    if (Merged != 0) {
      // A thin sweep: let the producers get ahead before the next one.
      ++M.PacedWaits;
      paceMerge();
      continue;
    }
    // Nothing mergeable: a ticket is in flight (drawn but not yet
    // published — a handful of instructions), or nothing is happening.
    if (Stopping && M.Next == Seq.load(std::memory_order_acquire))
      break;
    std::this_thread::yield();
  }
  endMerge(M);
}

void Engine::shardLoop(Shard &S) {
  // One shard worker: dispatches each readable run of the whole log in
  // place — every sync event, and the accesses this shard owns. Each
  // variable's state lives in one shard and every clone sees the full sync
  // stream in order, so the workers need no barrier; the log's bound keeps
  // a fast worker at most one log ahead of the slowest.
  OnlineDriver &D = *S.Driver;
  // Bounds how long the worker goes between halt checks.
  const size_t BatchCap = std::max<size_t>(1, Options.SequencerBatch);
  // Mirrors the primary driver's own probe (OnlineDriver.cpp): it reads
  // ShadowPublished only for a tracker, or for a budget the clones do not
  // hold in-table.
  const bool ShadowProbeNeeded =
      (Options.Degrade.Memory.BudgetBytes != 0 && !ShardMemoryGoverned) ||
      Options.Degrade.Tracker != nullptr;
  uint64_t Refills = 0; ///< Throttles the shadow-size publish.
  uint64_t Pos = 0;     ///< This worker's cursor: the next word's raw index.
  for (;;) {
    // Tool::shadowBytes() walks the clone's whole shadow (it is O(vars)
    // for every shipped detector), so publish it only when the merge loop
    // actually probes budgets, and then only every 16th refill — roughly
    // the primary driver's own BudgetCheckEveryOps cadence.
    if (ShadowProbeNeeded && (Refills++ & 15u) == 0)
      S.ShadowPublished.store(S.Clone->shadowBytes(),
                              std::memory_order_relaxed);
    // Read before the peek: once the merge loop is joined, an empty peek
    // means this worker has read everything.
    const bool Closed = LogClosed.load(std::memory_order_acquire);
    const EventWord *Run = nullptr;
    const size_t Len = std::min(Log->peekRun(S.Index, Run), BatchCap);
    if (Len == 0) {
      if (Closed)
        break;
      // Idle: yield, like the merge loop. Never sleep: a sleeping worker
      // lets the log fill, and the merge loop, then the producers, park
      // behind it in a convoy; yield() already cedes the core to runnable
      // threads on an oversubscribed host.
      std::this_thread::yield();
      continue;
    }
    size_t Done = 0;
    if (!Halted.load(std::memory_order_acquire)) {
      Done = D.dispatchRun(Run, Len, Pos, Owners, S.Index);
      if (D.halted())
        Halted.store(true, std::memory_order_release);
    }
    // Read before the halt landed (or from the throwing event on):
    // discarded, and counted once across the workers.
    if (Done != Len)
      dropDiscarded(S.Index, Run + Done, Len - Done);
    Log->release(S.Index, Len);
    Pos += Len;
  }
  std::lock_guard<std::mutex> Guard(ClocksMu);
  SequencerClocks += clockStats();
}

void Engine::superviseNote(Severity Sev, StatusCode Code,
                           std::string Message) {
  std::lock_guard<std::mutex> Guard(SupMu);
  SupDiags.push_back({Code, Sev, 0, NoOpIndex, std::move(Message)});
}

void Engine::supervisorLoop() {
  using Clock = std::chrono::steady_clock;
  const SupervisorOptions &S = Options.Supervise;
  const std::string Deadline =
      " past the " + std::to_string(S.StallDeadlineMs) + " ms deadline";
  // One watch per watermark: the merge position, then each shard worker's
  // log cursor. Deadlines counts the deadlines passed since the mark last
  // moved; Since is when the current one started.
  struct Watch {
    uint64_t Mark = 0;
    Clock::time_point Since;
    unsigned Deadlines = 0;
  };
  std::vector<Watch> Watches(1 + ShardSet.size(), {0, Clock::now(), 0});
  // The one stall routine, for the merge loop and the shards alike.
  // \p Waiting: the loop owes work, so a frozen mark is its stall. The
  // first deadline unparks producers into drop-and-count mode; the
  // second in a row halts detection, which frees producers parked on
  // sync events (a loop wedged in a tool handler never drains them).
  // \p Where names the stall for the diagnostics. Returns whether this
  // loop is stalled now.
  auto Check = [&](Watch &W, uint64_t Mark, bool Waiting,
                   Clock::time_point Now, auto &&Where) {
    if (Mark != W.Mark || !Waiting) {
      W = {Mark, Now, 0};
      return false;
    }
    if (Now - W.Since < std::chrono::milliseconds(S.StallDeadlineMs))
      return W.Deadlines != 0;
    W.Since = Now;
    if (++W.Deadlines == 1) {
      superviseNote(Severity::Warning, StatusCode::Stalled,
                    Where() + Deadline +
                        "; unparking producers into drop-and-count mode");
      DropAccesses.store(true, std::memory_order_release);
      return true;
    }
    superviseNote(Severity::Error, StatusCode::Stalled,
                  Where() + " for a second deadline in a row" + Deadline +
                      "; detection halted");
    // Release: the diagnostic is visible before the flag (see Halted).
    Halted.store(true, std::memory_order_release);
    return true;
  };
  while (SupervisorRun.load(std::memory_order_acquire) &&
         !Halted.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(S.TickMs));
    const Clock::time_point Now = Clock::now();
    // Merged first: every event it counts was pushed earlier, so the
    // difference never underflows.
    const uint64_t Mark = MergedEvents.load(std::memory_order_acquire);
    const uint64_t Pending = pushedEvents() - Mark;
    noteMaxBacklog(Pending);
    // The merge loop: events outstanding, frozen merge position. Tickets
    // alone cannot tell: a sync-free stream has none outstanding. A full
    // log freezes the position too, but that stall is the slowest
    // worker's and is watched on its cursor.
    const bool Waiting = Pending != 0 && !(Log && Log->full());
    bool Stalled = Check(Watches[0], Mark, Waiting, Now, [Mark] {
      return "sequencer stalled at merge position " + std::to_string(Mark);
    });
    // Workers: a frozen cursor behind the log's tail (read after the
    // cursor, so it never reads behind it).
    for (unsigned I = 0; I != ShardSet.size(); ++I) {
      const uint64_t Cursor = Log->cursor(I);
      Stalled |= Check(Watches[1 + I], Cursor, Log->tail() > Cursor, Now,
                       [I, Cursor] {
                         return "shard " + std::to_string(I) +
                                " stalled at drain watermark " +
                                std::to_string(Cursor);
                       });
    }
    // Every loop is draining again: leave drop-and-count mode.
    if (!Stalled && DropAccesses.load(std::memory_order_relaxed))
      DropAccesses.store(false, std::memory_order_release);
  }
}

OnlineReport Engine::finish() {
  assert(!Finished && "finish() is callable once");
  Finished = true;

  // Drain: every event pushed has been merged (or discarded after a
  // halt) — so every ticket too, and every ring is empty. Requires all
  // runtime Threads to be joined by the caller. A loop blocked in a tool
  // handler holds this wait until the handler returns: after a halt it
  // then discards and counts the rest, but the tool is not handed back
  // while a handler may still touch it.
  while (MergedEvents.load(std::memory_order_acquire) < pushedEvents())
    std::this_thread::yield();
  // Sharded: the merge loop has published everything to the log (the
  // position is published only after the log is); now wait for every
  // worker to read it all. A halted worker still advances its cursor by
  // discard-and-count.
  if (Log)
    while (Log->slowest() < Log->tail())
      std::this_thread::yield();
  Running.store(false, std::memory_order_release);
  SupervisorRun.store(false, std::memory_order_release);
  if (SupervisorThread.joinable())
    SupervisorThread.join();
  if (SequencerThread.joinable())
    SequencerThread.join();
  if (NumShards > 1) {
    // Only after the merge loop is joined is LogClosed true in the sense
    // the workers rely on: no more appends, ever.
    LogClosed.store(true, std::memory_order_release);
    for (const std::unique_ptr<Shard> &S : ShardSet)
      if (S->Worker.joinable())
        S->Worker.join();
    for (const std::unique_ptr<Shard> &S : ShardSet)
      S->Driver->finish();
    // Fold the shards back into the primary tool: warnings first, merged
    // in raw-index order so the set AND order match a Shards=1 run byte
    // for byte (each variable lives in exactly one shard, so the
    // one-warning-per-variable policy cannot collide across clones), then
    // the instrumentation counters via the ShardableTool hook.
    std::vector<RaceWarning> Merged;
    for (const std::unique_ptr<Shard> &S : ShardSet)
      for (const RaceWarning &W : S->Clone->warnings())
        Merged.push_back(W);
    std::stable_sort(Merged.begin(), Merged.end(),
                     [](const RaceWarning &A, const RaceWarning &B) {
                       return A.OpIndex != B.OpIndex ? A.OpIndex < B.OpIndex
                                                     : A.Var < B.Var;
                     });
    Checker.adoptWarnings(Merged);
    auto &Shardable = dynamic_cast<ShardableTool &>(Checker);
    for (const std::unique_ptr<Shard> &S : ShardSet)
      Shardable.mergeShard(*S->Clone);
  }
  Driver.finish();

  Report.Seconds = Watch.seconds();
  Report.Clocks = SequencerClocks;
  Report.EventsCaptured = Driver.rawOps();
  Report.EventsDispatched = Driver.dispatched();
  Report.NumWarnings = Checker.warnings().size();
  Report.Halted =
      Driver.halted() || Halted.load(std::memory_order_acquire);
  Report.Diags = Driver.diags();
  {
    std::lock_guard<std::mutex> Guard(SupMu);
    for (Diagnostic &D : SupDiags)
      Report.Diags.push_back(std::move(D));
    SupDiags.clear();
  }
  Report.DegradeRung = Driver.rung();
  Report.Degradations = Driver.degradations();
  Report.MaxBacklog = MaxBacklogSeen.load(std::memory_order_relaxed);
  Report.Shards = NumShards;
  for (const std::unique_ptr<Shard> &S : ShardSet) {
    Report.Halted = Report.Halted || S->Driver->halted();
    for (const Diagnostic &D : S->Driver->diags())
      Report.Diags.push_back(D);
  }
  {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    for (const std::unique_ptr<Channel> &Ch : Channels) {
      uint64_t PH = Ch->DroppedPostHalt.load(std::memory_order_relaxed);
      uint64_t OV = Ch->DroppedOverload.load(std::memory_order_relaxed);
      uint64_t PK = Ch->Parks.load(std::memory_order_relaxed);
      Report.DroppedPostHalt += PH;
      Report.DroppedOverload += OV;
      Report.ParkEpisodes += PK;
      if ((PH | OV | PK) != 0)
        Report.PerThreadDrops.push_back({Ch->Id, PH, OV, PK});
    }
    // Lifecycle telemetry: with recycling, SlotsAllocated is the width
    // the tool actually paid for (= Interner's dense-id high-water mark),
    // bounded by max-live rather than total threads forked.
    Report.SlotsAllocated = static_cast<unsigned>(Channels.size());
    Report.PeakLiveSlots = PeakLiveSlots;
    Report.ThreadsRecycled = ThreadsRecycled;
  }
  Report.ForksRejected = ForksRejected.load(std::memory_order_relaxed);
  Report.UntrackedEvents = UntrackedEvents.load(std::memory_order_relaxed);
  Report.EventsElided = ElidedEvents.load(std::memory_order_relaxed);
  {
    // Memory-governance telemetry. Sharded: sum the clones (workers are
    // joined, so reading them is safe); the primary's table saw no
    // accesses and its reset-seeded high water would only distort the
    // sum. High waters add across shards — a conservative (never
    // understated) peak, since the shards' peaks need not coincide.
    ShadowGovernorStats GS;
    if (NumShards > 1)
      for (const std::unique_ptr<Shard> &S : ShardSet)
        GS += S->Clone->shadowGovernorStats();
    else
      GS = Checker.shadowGovernorStats();
    Report.ShadowBytesHighWater = GS.ShadowBytesHighWater;
    Report.PagesCompressed = GS.PagesCompressed;
    Report.PagesSummarized = GS.PagesSummarized;
    Report.BudgetTrips = GS.BudgetTrips;
    // The one record of the in-table fold (relation() reads
    // PagesSummarized): warnings on a summarized page may name its
    // region rather than the variable.
    if (GS.PagesSummarized != 0)
      Report.Diags.push_back(
          {StatusCode::ResourceExhausted, Severity::Warning, 0, NoOpIndex,
           std::to_string(GS.PagesSummarized) +
               " shadow page(s) summarized at page granularity; " +
               std::to_string(GS.BudgetTrips) + " budget trip(s), " +
               (GS.AllocDenied != 0
                    ? "shadow allocation denied " +
                          std::to_string(GS.AllocDenied) + " time(s)"
                    : std::string("no denied allocation"))});
  }
  if (Report.ForksRejected != 0)
    Report.Diags.push_back(
        {StatusCode::ResourceExhausted, Severity::Warning, 0, NoOpIndex,
         std::to_string(Report.ForksRejected) +
             " thread(s) ran untracked after slot-table exhaustion; " +
             std::to_string(Report.UntrackedEvents) +
             " of their event(s) dropped (counted, never silent)"});
  if (Report.DroppedPostHalt != 0)
    // One-shot: a single diagnostic however many events were lost; the
    // per-thread accounting lives in the counters above.
    Report.Diags.push_back(
        {StatusCode::Cancelled, Severity::Warning, 0, NoOpIndex,
         std::to_string(Report.DroppedPostHalt) +
             " event(s) dropped after detection halted (per-thread counts "
             "in the report)"});

  if (SegWriter) {
    (void)SegWriter->finish();
    Report.CaptureSegments = SegWriter->segmentsSealed();
    for (const Diagnostic &D : SegWriter->diags())
      Report.Diags.push_back(D);
  }
  if (MemCapture && Options.ValidateCapture) {
    TraceValidatorOptions VOpts;
    // The emit drop can strip every access of a thread while its
    // fork/join spine is still delivered, which rule (4) would flag; that
    // is a legitimate lossy capture, not a malformed one.
    VOpts.RequireThreadOps = Report.DroppedOverload == 0;
    // Recycled slots legally re-fork a joined tid; the validator knows
    // the reincarnation protocol through this option.
    VOpts.AllowTidReuse = Options.RecycleThreadSlots;
    // The capture keeps the nested acquire/release pairs the re-entrant
    // lock filter strips before dispatch.
    VOpts.AllowReentrantLocks = true;
    for (Diagnostic &D : validateTrace(Capture, VOpts))
      Report.Diags.push_back(std::move(D));
  }
  if (!Options.CapturePath.empty() && !SegWriter) {
    if (Status St = saveTraceFile(Options.CapturePath, Capture); !St.ok()) {
      Diagnostic D;
      D.Code = St.code();
      D.Sev = Severity::Error;
      D.Message = "flight recorder: " + St.message();
      Report.Diags.push_back(std::move(D));
    }
  }
  if (Options.KeepCapture)
    Report.Captured = std::move(Capture);

  if (Binding.E == this)
    Binding = {};
  CurrentEngine.store(nullptr, std::memory_order_release);
  return std::move(Report);
}
