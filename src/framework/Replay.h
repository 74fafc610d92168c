//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event dispatcher: replays a trace through one tool (or a filter →
/// tool pipeline) and gathers the measurements every experiment needs —
/// wall time, vector-clock counter deltas, shadow memory, warning counts.
///
/// Two RoadRunner behaviours are reproduced here rather than inside each
/// tool, so that all tools benefit identically:
///   - re-entrant lock acquires/releases (which are redundant) are
///     filtered out (Section 4, "ROADRUNNER");
///   - fine/coarse analysis granularity is applied by remapping variable
///     ids before dispatch (Section 4, "Granularity").
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_REPLAY_H
#define FASTTRACK_FRAMEWORK_REPLAY_H

#include "clock/ClockStats.h"
#include "framework/Tool.h"
#include "support/MemoryTracker.h"
#include "support/Status.h"
#include "support/Stopwatch.h"
#include "trace/ReentrancyFilter.h"
#include "trace/Trace.h"

#include <algorithm>
#include <type_traits>
#include <typeinfo>

namespace ft {

/// Analysis granularity (Section 4). Fine: every variable is its own
/// shadow entity. Coarse: variables are grouped into objects, trading
/// precision for memory.
enum class Granularity : uint8_t { Fine, Coarse };

class GranularityMap;

/// Options controlling one replay.
struct ReplayOptions {
  Granularity Gran = Granularity::Fine;

  /// Under coarse granularity, maps each variable to its object. When
  /// null, the default mapping Var / DefaultFieldsPerObject is used.
  const std::vector<uint32_t> *VarToObject = nullptr;

  /// Fields per object for the default coarse mapping.
  unsigned DefaultFieldsPerObject = 8;

  /// Strip redundant re-entrant lock acquires/releases before dispatch.
  bool FilterReentrantLocks = true;

  /// How often (in trace operations) the BudgetTracker probe runs.
  /// Probes cost an O(state) shadowBytes() walk, so they are amortized.
  unsigned BudgetCheckEveryOps = 4096;

  /// Optional tracker that receives a shadowBytes() probe via
  /// sampleLive() before every BudgetCheckEveryOps-th operation, so
  /// callers observe live/peak shadow bytes across the replay; replay(),
  /// replayFiltered() and replayCheckpointed() sample it alike. The
  /// replay never stops on it: a shadow budget is the tool's own
  /// ShadowMemoryPolicy::BudgetBytes (Tool::configureShadowPolicy).
  MemoryTracker *BudgetTracker = nullptr;
};

/// Precomputed variable remapping for the requested granularity. Shared
/// by the serial and sharded replay engines so both dispatch identical
/// variable ids (and the shard partitioner groups whole objects).
class GranularityMap {
public:
  static GranularityMap make(const ReplayOptions &Options) {
    GranularityMap Map;
    if (Options.Gran == Granularity::Fine)
      return Map;
    Map.Identity = false;
    Map.Explicit = Options.VarToObject;
    Map.Divisor =
        Options.DefaultFieldsPerObject ? Options.DefaultFieldsPerObject : 1;
    return Map;
  }

  VarId map(VarId X) const {
    if (Identity)
      return X;
    if (Explicit)
      return X < Explicit->size() ? (*Explicit)[X] : X;
    return X / Divisor;
  }

  bool identity() const { return Identity; }

private:
  const std::vector<uint32_t> *Explicit = nullptr;
  unsigned Divisor = 1;
  bool Identity = true;
};

/// Builds the ToolContext for replaying \p T under \p Map (entity counts
/// already reflect the granularity remapping).
ToolContext makeToolContext(const Trace &T, const GranularityMap &Map);

/// Dispatches one synchronization event other than a barrier to
/// \p Checker: the one sync switch, shared by every replay loop and the
/// online driver (inline, so offer() and dispatchRun keep it in line).
/// Accesses and barriers are ignored: they dispatch elsewhere.
inline void dispatchSync(Tool &Checker, OpKind Kind, ThreadId Thread,
                         uint32_t Target, size_t I) {
  switch (Kind) {
  case OpKind::Acquire:
    Checker.onAcquire(Thread, Target, I);
    break;
  case OpKind::Release:
    Checker.onRelease(Thread, Target, I);
    break;
  case OpKind::Fork:
    Checker.onFork(Thread, Target, I);
    break;
  case OpKind::Join:
    Checker.onJoin(Thread, Target, I);
    break;
  case OpKind::VolatileRead:
    Checker.onVolatileRead(Thread, Target, I);
    break;
  case OpKind::VolatileWrite:
    Checker.onVolatileWrite(Thread, Target, I);
    break;
  case OpKind::AtomicBegin:
    Checker.onAtomicBegin(Thread, I);
    break;
  case OpKind::AtomicEnd:
    Checker.onAtomicEnd(Thread, I);
    break;
  case OpKind::Read:
  case OpKind::Write:
  case OpKind::Barrier:
    break;
  }
}

/// Dispatches one non-access operation of \p T to \p Checker: a barrier
/// with its thread set, anything else through dispatchSync().
void dispatchSyncOp(Tool &Checker, const Trace &T, const Operation &Op,
                    size_t I);

/// Measurements from one replay.
struct ReplayResult {
  double Seconds = 0;            ///< Wall-clock time of the replay loop.
  uint64_t Events = 0;           ///< Events dispatched to the tool.
  uint64_t AccessesPassed = 0;   ///< Accesses the tool flagged interesting.
  ClockStats Clocks;             ///< Delta of the global VC counters.
  size_t ShadowBytes = 0;        ///< Tool-reported shadow state at end.
  size_t NumWarnings = 0;        ///< Warnings after the replay.

  /// The trace index after the last processed operation: the trace size
  /// on a completed run, earlier when a checkpointed replay is killed by
  /// fault injection (framework/Checkpoint.h).
  size_t StoppedAtOp = 0;
};

namespace detail {

/// The one loop that walks a trace into a tool: the serial, filtered,
/// checkpointed and sharded replays all run it. It dispatches operations
/// [\p From, \p To) of \p T: \p Access receives the access events, with
/// the variable id remapped for the granularity, and returns whether the
/// access "passed"; sync events are dispatched via \p Sync after the
/// re-entrant lock filter, which the caller owns so that a replay may run
/// in segments. The events dispatched and the accesses passed are added
/// to \p Events and \p AccessesPassed.
///
/// Reads and writes dominate every workload in the suite (the paper's
/// benchmarks run ~96% accesses), so the loop is arranged with the access
/// dispatch as the predicted-taken straight-line path: one branch on
/// isAccess(), then the sync switch only for the rare remainder.
/// Everything the access path reads per event — the trace's operations,
/// the identity-map flag, the two counters and the access closure (taken
/// by value) — is a local: the handlers' out-of-line slow paths write
/// memory the compiler cannot prove disjoint from the caller's objects,
/// which would otherwise be reloaded after every call. The loop stays
/// out of line, one symbol per instantiation, so that
/// scripts/check_fast_path_inlining.py finds and checks it by name. It
/// starts on a cache line of its own, so its loop's alignment does not
/// move with the size of unrelated code linked before it (that alone
/// moved offline_table1 by 3–7 % ns/event).
template <typename AccessFn, typename SyncFn>
[[gnu::noinline, gnu::aligned(64)]] void
replayLoop(const Trace &T, const ReplayOptions &Options,
           const GranularityMap &Map, ReentrancyFilter &Reentrancy,
           size_t From, size_t To, AccessFn Access, SyncFn &&Sync,
           uint64_t &Events, uint64_t &AccessesPassed) {
  const bool FilterLocks = Options.FilterReentrantLocks;
  const Operation *Ops = T.operations().data();
  const bool Identity = Map.identity();
  uint64_t Dispatched = 0, Passed = 0;

  for (size_t I = From; I != To; ++I) {
    const Operation &Op = Ops[I];
    if (isAccess(Op.Kind)) {
      ++Dispatched;
      Passed += Access(Op.Kind, Op.Thread,
                       Identity ? Op.Target : Map.map(Op.Target), I);
      continue;
    }
    if (FilterLocks) {
      if (Op.Kind == OpKind::Acquire &&
          !Reentrancy.onAcquire(Op.Thread, Op.Target))
        continue;
      if (Op.Kind == OpKind::Release &&
          !Reentrancy.onRelease(Op.Thread, Op.Target))
        continue;
    }
    ++Dispatched;
    Sync(Op, I);
  }
  Events += Dispatched;
  AccessesPassed += Passed;
}

/// The end of the segment that starts at \p I: the next multiple of
/// \p Every, or \p E when that comes first.
inline size_t segmentEnd(size_t I, uint64_t Every, size_t E) {
  const uint64_t Left = Every - I % Every;
  return Left >= E - I ? E : I + static_cast<size_t>(Left);
}

/// Runs replayLoop over all of \p T and fills in \p Result's Events,
/// AccessesPassed and StoppedAtOp. Without Options.BudgetTracker that is
/// one segment. With it, the replay runs in segments of
/// Options.BudgetCheckEveryOps and samples \p Probe (the tool-side
/// shadow bytes) between them: before op k·N, never at T.size().
template <typename AccessFn, typename SyncFn, typename ProbeFn>
void replayAll(const Trace &T, const ReplayOptions &Options,
               const GranularityMap &Map, AccessFn Access, SyncFn &&Sync,
               ProbeFn &&Probe, ReplayResult &Result) {
  ReentrancyFilter Reentrancy(T.numThreads(), T.numLocks());
  MemoryTracker *const Tracker = Options.BudgetTracker;
  const uint64_t Every = std::max(1u, Options.BudgetCheckEveryOps);
  const size_t E = T.size();
  for (size_t I = 0; I != E;) {
    if (I != 0)
      Tracker->sampleLive(Probe());
    const size_t To = Tracker ? segmentEnd(I, Every, E) : E;
    replayLoop(T, Options, Map, Reentrancy, I, To, Access, Sync,
               Result.Events, Result.AccessesPassed);
    I = To;
  }
  Result.StoppedAtOp = E;
}

/// Dispatches onRead non-virtually when the concrete tool type is known
/// at compile time. The qualified call pins the override, so the
/// compiler may inline it; it does so only for a small inline handler,
/// which is why FastTrack's onRead holds just the same-epoch rule and
/// calls an out-of-line readSlow for the rest (FastPath.h). The
/// ToolT == Tool instantiation keeps the virtual call for type-erased
/// callers.
template <typename ToolT>
inline bool callOnRead(ToolT &Checker, ThreadId T, VarId X, size_t I) {
  if constexpr (std::is_same_v<ToolT, Tool>)
    return Checker.onRead(T, X, I);
  else
    return Checker.ToolT::onRead(T, X, I);
}

template <typename ToolT>
inline bool callOnWrite(ToolT &Checker, ThreadId T, VarId X, size_t I) {
  if constexpr (std::is_same_v<ToolT, Tool>)
    return Checker.onWrite(T, X, I);
  else
    return Checker.ToolT::onWrite(T, X, I);
}

} // namespace detail

/// Replays \p T through \p Checker with the access handlers dispatched
/// non-virtually for the concrete \p ToolT. Correct only when \p Checker
/// really is a \p ToolT (not a further-derived type that overrides
/// onRead/onWrite again); replay() enforces that with an exact-type check
/// before selecting this path. Sync handlers stay virtual — they are off
/// the hot path.
template <typename ToolT>
ReplayResult replayWithTool(const Trace &T, ToolT &Checker,
                            const ReplayOptions &Options = ReplayOptions()) {
  GranularityMap Map = GranularityMap::make(Options);
  ReplayResult Result;
  ClockStats Before = clockStats();

  Stopwatch Watch;
  Checker.begin(makeToolContext(T, Map));
  detail::replayAll(
      T, Options, Map,
      [&Checker](OpKind Kind, ThreadId Thread, VarId X, size_t I) {
        return Kind == OpKind::Read
                   ? detail::callOnRead(Checker, Thread, X, I)
                   : detail::callOnWrite(Checker, Thread, X, I);
      },
      [&](const Operation &Op, size_t I) { dispatchSyncOp(Checker, T, Op, I); },
      [&] { return Checker.shadowBytes(); }, Result);
  Checker.end();
  Result.Seconds = Watch.seconds();

  Result.Clocks = clockStats() - Before;
  Result.ShadowBytes = Checker.shadowBytes();
  Result.NumWarnings = Checker.warnings().size();
  return Result;
}

/// Replays \p T through \p Checker. Consults the devirtualization
/// registry (FastPath.h) first: when \p Checker's exact type was
/// registered, the devirtualized replayWithTool<ToolT> loop runs;
/// otherwise the loop dispatches virtually. Results are identical either
/// way.
ReplayResult replay(const Trace &T, Tool &Checker,
                    const ReplayOptions &Options = ReplayOptions());

/// Measurements from one filtered (composed) replay.
struct PipelineResult {
  ReplayResult Total;            ///< Timing of the whole pipeline.
  uint64_t AccessesSeen = 0;     ///< Accesses entering the filter.
  uint64_t AccessesForwarded = 0;///< Accesses the filter let through.
};

/// Replays \p T through the composition Filter → Downstream: every
/// synchronization event reaches both tools; read/write events reach
/// \p Downstream only when \p Filter's handler returns true. This is the
/// analogue of RoadRunner's "-tool FastTrack:Velodrome" chaining.
PipelineResult replayFiltered(const Trace &T, Tool &Filter, Tool &Downstream,
                              const ReplayOptions &Options = ReplayOptions());

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_REPLAY_H
