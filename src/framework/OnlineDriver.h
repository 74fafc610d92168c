//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online dispatch entry point: the push-mode sibling of replay().
///
/// replay() pulls events out of an immutable Trace; an OnlineDriver is
/// handed events one at a time, in the total order they were observed, by
/// a producer that does not yet know how the execution ends — the
/// in-process runtime of src/runtime, a streaming ingester, or a test.
/// The driver applies the exact per-event semantics of the serial replay
/// loop (re-entrant lock filtering, raw-stream op indices) so that a tool
/// driven online reports byte-for-byte the warnings an offline replay of
/// the same stream would: the online/offline equivalence contract the
/// runtime's flight recorder depends on.
///
/// Because events arrive from a live program, entity counts cannot be
/// known up front. The driver is constructed with a *capacity*
/// ToolContext — the tool pre-sizes its shadow state from it exactly as
/// it would for a trace — and every incoming operation is bounds-checked
/// against that capacity.
///
/// Unlike the original (PR 3) driver, an over-capacity variable or a
/// shadow-memory budget breach no longer kills detection outright: the
/// driver carries a *coarsening ladder* (framework/Degrade.h, following
/// SmartTrack's philosophy of cutting work per event rather than giving
/// up):
///
///   Full → divisor 8 → divisor 64 → divisor 512
///
/// Each rung folds variable ids through a widening divisor (the
/// GranularityMap mapping of replay()), so every rung coarsens and none
/// drops an event: a race is still reported, possibly against its
/// bucket's representative id. Sync events
/// (acquire/release/fork/join/volatiles) are never remapped, so the
/// happens-before spine stays exact on every rung. A governed tool's
/// in-table fold (cold pages summarized under the byte budget) is no
/// rung: the tool's ShadowGovernorStats record it, and the runtime
/// reports it once at finish. Each transition emits
/// a Warning diagnostic anchored to the raw op index. Halting remains
/// only for the failures no rung can absorb: thread/lock/volatile
/// capacity breaches, a variable id too large for the widest divisor,
/// barriers, and tools that throw mid-dispatch.
///
/// The equivalence contract survives degradation because the transform is
/// applied *before* the flight recorder sees the op: offer() remaps the
/// operation in place and tells the caller whether it is part of the
/// delivered stream. Replaying a degraded capture offline therefore
/// reproduces the online warnings byte for byte — the capture *is* the
/// delivered stream.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_ONLINEDRIVER_H
#define FASTTRACK_FRAMEWORK_ONLINEDRIVER_H

#include "framework/Degrade.h"
#include "framework/ShardableTool.h"
#include "framework/Tool.h"
#include "support/Status.h"
#include "trace/ReentrancyFilter.h"

#include <functional>
#include <vector>

namespace ft {

struct AccessRun;
namespace runtime {
struct EventWord;
} // namespace runtime

/// Which half (or both) of the offer() pipeline a driver instance runs.
/// The sharded engine splits the single-sequencer driver into one
/// admission-side instance on the merge loop and one dispatch-side
/// instance per shard worker; Full is the classic single-sequencer
/// combination and the default everywhere else.
enum class DriverRole : uint8_t {
  /// Admission + dispatch in one instance (the single-sequencer engine,
  /// streaming ingesters, tests).
  Full,
  /// Admission only: degradation-ladder transform, capacity checks,
  /// budget probes, re-entrant lock filtering, and raw-index assignment —
  /// but the tool is never called. The sharded merge loop runs this role
  /// so the capture and raw indices are decided exactly as a Full driver
  /// would decide them, then appends Delivered events to the broadcast
  /// log.
  AdmissionOnly,
  /// Dispatch only: events arrive pre-admitted (already transformed and
  /// filtered, as shard-log words whose position is their raw index) via
  /// dispatchRun(). Shard workers run this role with the ladder disabled
  /// and the re-entrant filter off — admission already applied both.
  DispatchOnly,
};

/// Options controlling one online dispatch session.
struct OnlineDriverOptions {
  /// Sentinel for the fault-injection knob below.
  static constexpr uint64_t NoFault = ~0ull;

  /// Pipeline half this instance runs (see DriverRole).
  DriverRole Role = DriverRole::Full;

  /// Overrides the shadow-size source for budget probes. A Full driver
  /// probes its own Tool::shadowBytes(); an AdmissionOnly driver's tool
  /// holds no shadow state (the shard clones do), so the sharded engine
  /// installs a functor summing the sizes the shard workers publish.
  std::function<uint64_t()> ShadowBytes;

  /// Strip redundant re-entrant lock acquires/releases before dispatch,
  /// as the serial replay loop does. Keep this in sync with the replay
  /// options used to re-check a captured stream offline.
  bool FilterReentrantLocks = true;

  /// Invoked once per new warning, immediately after the event that
  /// raised it was dispatched — the "report races as they happen" sink.
  /// Called from whichever thread calls offer(); may be empty.
  std::function<void(const RaceWarning &)> WarningSink;

  /// Space-degradation policy (see DegradePolicy).
  DegradePolicy Degrade;

  /// Fault injection: the first budget probe at or after this raw op
  /// index reports a breach regardless of actual shadow size (the
  /// runtime's FaultPlan "allocation failure" hook). NoFault disables.
  uint64_t ForceBudgetBreachAtRawOp = NoFault;
};

/// Drives one Tool from a live, totally-ordered event stream.
///
/// Not thread-safe: exactly one thread (the runtime's sequencer) may call
/// offer()/finish(). Concurrency belongs to the producers
/// upstream; by the time events reach the driver they are already merged.
class OnlineDriver {
public:
  /// What happened to one offered operation.
  enum class DispatchOutcome : uint8_t {
    /// Part of the delivered stream: dispatched to the tool, or filtered
    /// by the re-entrant lock filter (which still consumes a raw index).
    /// A flight recorder must capture the operation as offer() left it
    /// (coarse rungs remap the variable id in place).
    Delivered,
    /// The driver is halted — by this operation or an earlier one.
    /// Nothing was consumed; must not be captured.
    Rejected,
  };

  /// Calls Checker.begin(Capacity); the capacity bounds the entity ids
  /// offer() will accept (tools index shadow state without checks).
  OnlineDriver(Tool &Checker, const ToolContext &Capacity,
               OnlineDriverOptions Options = OnlineDriverOptions());

  /// Feeds the next operation of the merged stream, applying the current
  /// degradation rung first: \p Op's variable id is remapped in place on
  /// coarse rungs, so on Delivered the caller captures \p Op as returned.
  /// Every Delivered operation consumes one raw op index — including
  /// re-entrant lock events the filter strips — so indices agree with an
  /// offline replay of the captured stream. Barrier operations cannot be
  /// dispatched online (their thread sets live in a Trace side table)
  /// and halt the driver. A tool that throws mid-dispatch halts the
  /// driver with a ToolFault diagnostic instead of unwinding into the
  /// sequencer (compose tools through ToolGroup to quarantine the
  /// thrower and keep its siblings detecting).
  DispatchOutcome offer(Operation &Op);

  /// AdmissionOnly: true iff the most recent Delivered offer() was
  /// consumed by the re-entrant lock filter — it owns a raw index and
  /// belongs in the capture, but must NOT reach the shard workers (shard
  /// drivers run with the filter off; dispatching it would double-apply
  /// the lock semantics the filter stripped), so the merge loop logs a
  /// skip word at its raw index.
  bool lastAdmittedFiltered() const { return LastFiltered; }

  /// Batched admission of a run of one thread's accesses: the merge
  /// loop's path for every access stretch, at every shard count. Admits
  /// the \p N ring words (all Read/Write — the caller guarantees it)
  /// emitted by \p Thread in one call while nothing per-event fires: the
  /// driver is un-halted and at a rung that leaves accesses untouched. A
  /// budget probe due inside the run is taken at the raw index offer()
  /// would take it, between the prefix before it and the rest; admission
  /// stops there only if the probe stepped onto a rung that rewrites
  /// accesses. Admission also stops just before an over-capacity target.
  /// Event I takes raw index rawOps() + I and counts as dispatched: the
  /// state the same Delivered offer() calls would leave. An AdmissionOnly
  /// driver stops there (the merge loop appends the run to the log). A
  /// Full driver also dispatches the run, in one pass through the tool's
  /// run loop per probe window, and drains warnings once per call; a tool
  /// that throws halts it with a ToolFault anchored at the thrower, and
  /// rawOps() and dispatched() stop just before it. A DispatchOnly driver
  /// never admits. Returns true iff all N events were admitted; the
  /// caller feeds the rest to per-event offer(), which owns the exact
  /// diagnostics and degradations.
  bool admitAccessRun(ThreadId Thread, const runtime::EventWord *Run,
                      size_t N);

  /// DispatchOnly batched dispatch: feeds \p N pre-admitted shard-log
  /// words to the tool, hoisting the per-event halt/capacity/rung checks
  /// offer() pays out of the loop (they already ran on the admission
  /// side). Word I has raw op index \p FirstRaw + I, the index admission
  /// assigned, so warnings carry single-sequencer indices. Access
  /// stretches go through the same run loop as admitAccessRun, keeping
  /// only those \p Owners maps to \p Shard (by default, all); sync events
  /// dispatch virtually one at a time, and skip words not at all. Returns
  /// the words handled: \p N, or the index of a thrower that halted the
  /// driver, anchored at its raw index (the events before it stay
  /// dispatched). A halted driver handles nothing.
  size_t dispatchRun(const runtime::EventWord *Run, size_t N,
                     uint64_t FirstRaw, const ShardMap &Owners = ShardMap(),
                     unsigned Shard = 0);

  /// Calls Checker.end() and flushes the warning sink. A throwing end()
  /// is absorbed into a ToolFault diagnostic. Idempotent.
  void finish();

  /// True once an unrecoverable operation stopped the analysis. The
  /// application may keep running; events are dropped.
  bool halted() const { return Halted; }

  /// Raw op indices consumed (== the length of a faithful capture).
  uint64_t rawOps() const { return Raw; }

  /// Events actually forwarded to the tool (post lock filtering).
  uint64_t dispatched() const { return Dispatched; }

  /// Accesses whose handler returned the pass flag.
  uint64_t accessesPassed() const { return AccessesPassed; }

  /// Current ladder position: 0 = Full, N = ladder step N-1 applied.
  unsigned rung() const { return Rung; }

  /// Degradation transitions taken (== diagnostics emitted for them).
  unsigned degradations() const { return Degradations; }

  /// Diagnostics describing halts and degradations, anchored to the raw
  /// op index at which they happened.
  const std::vector<Diagnostic> &diags() const { return Diags; }

  const ToolContext &capacity() const { return Capacity; }

private:
  void halt(std::string Message);
  void halt(StatusCode Code, std::string Message);
  bool stepDown(StatusCode Code, const std::string &Reason);
  void applyRung();
  /// The widest variable-id divisor the ladder can still reach.
  uint32_t widestDivisor() const;
  /// The rung rewrites accesses: a divisor above 1 (a custom ladder may
  /// hold divisor 1, which leaves every access as it was).
  bool transformsAccesses() const { return Divisor != 1; }
  void probeBudget();
  void drainWarnings();
  /// Halts with a ToolFault for the exception in flight, anchored at raw
  /// index \p At. Call only from a catch block.
  void toolFault(uint64_t At, const char *During);
  /// The access-run helper both roles share: dispatches \p Run, whose
  /// first word has raw index \p FirstRaw, through FastRun (see AccessRun
  /// for \p Thread, \p Owners and \p Shard) and returns the events
  /// handled. On a throw it halts, anchored at the thrower.
  size_t runAccesses(const runtime::EventWord *Run, size_t N,
                     ThreadId Thread, uint64_t FirstRaw,
                     const ShardMap &Owners = ShardMap(), unsigned Shard = 0);

  Tool &Checker;
  ToolContext Capacity;
  OnlineDriverOptions Options;
  ReentrancyFilter Reentrancy;
  /// Access-run loop: devirtualized for Checker's exact dynamic type when
  /// one is registered, else the virtual instantiation. Resolved once at
  /// construction.
  void (*FastRun)(Tool &, AccessRun &);
  std::vector<Diagnostic> Diags;
  uint64_t Raw = 0;
  uint64_t Dispatched = 0;
  uint64_t AccessesPassed = 0;
  uint64_t NextProbe = ~0ull; ///< Raw index of the next budget probe.
  size_t SinkCursor = 0;
  unsigned Rung = 0;
  unsigned Degradations = 0;
  // Effective configuration at the current rung (derived by applyRung).
  uint32_t Divisor = 1;
  bool LastFiltered = false;
  /// The tool accepted configureShadowPolicy: it holds Memory.BudgetBytes
  /// in-table (its governor counters record every fold), so no probe
  /// steps down on its shadowBytes().
  bool MemoryGoverned = false;
  bool Halted = false;
  bool Finished = false;
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_ONLINEDRIVER_H
