//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The degradation ladder and the one shadow-memory budget.
///
/// Two subsystems coarsen precision when space runs out: the governed
/// shadow table (shadow/ShadowPolicy.h) summarizes cold pages in place,
/// offline and online, and the online driver (framework/OnlineDriver.h)
/// remaps the live stream's variable ids rung by rung. Both fold onto the
/// same geometry — the ladder's widest divisor, ShadowPageVars, is the
/// fold a summarized page applies locally. Each fold has one record: the
/// table's counters (ShadowGovernorStats: PagesSummarized, BudgetTrips,
/// AllocDenied) for the in-table fold, the driver's rung and its Warning
/// diagnostics for a divisor step. The ladder holds divisors only.
///
/// Every rung coarsens and none sheds: a race on a variable is still
/// reported, possibly against its bucket's representative id. The ladder
/// answers space only (an over-capacity variable id, a budget breach);
/// the online runtime's one answer to time is the counted drop at emit
/// (runtime/Engine.h, SupervisorOptions::MaxParkMs).
///
/// There is one budget knob, DegradePolicy::Memory.BudgetBytes (a
/// ShadowMemoryPolicy). A tool that accepts Tool::configureShadowPolicy
/// holds it in-table. For a tool that declines, the online driver's
/// shadowBytes() probe steps one ladder rung per breached probe.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_DEGRADE_H
#define FASTTRACK_FRAMEWORK_DEGRADE_H

#include "shadow/ShadowPolicy.h"
#include "shadow/ShadowTable.h"

#include <vector>

namespace ft {

class MemoryTracker;

/// Policy for coarsening under space pressure instead of halting. The
/// effective divisor at rung R is Ladder[R - 1] (1 at rung 0).
struct DegradePolicy {
  /// Pin the whole ladder off: every trigger that would have degraded
  /// halts instead (the pre-PR-5 behavior).
  bool Enabled = true;

  /// Variable-id divisors (fields per object), in the order the rungs
  /// apply them. Divisors are absolute, not cumulative: each replaces the
  /// one before. The widest default folds exactly one shadow page region
  /// per object, so fully degraded shadow is one slot per page of the
  /// fine-grained table — the fold the shadow governor's page
  /// summarization applies in place.
  std::vector<unsigned> Ladder = {8, 64, ShadowPageVars};

  /// Raw ops between the driver's shadowBytes() probes. A probe runs
  /// when Memory.BudgetBytes is set for a tool that declined the policy
  /// (a governed tool holds the budget in-table and is never probed), or
  /// when a Tracker is installed.
  unsigned BudgetCheckEveryOps = 4096;

  /// Optional tracker observing every probe (live/peak bytes).
  MemoryTracker *Tracker = nullptr;

  /// Ladder steps pre-applied at construction (0 = start Full). Lets the
  /// benches measure a pinned rung without manufacturing a breach.
  unsigned StartRung = 0;

  /// Shadow-table self-governance (temperature tracking, cold-page
  /// compression, watermark shedding) and the session's one byte budget,
  /// Memory.BudgetBytes. When Memory.Enabled, the policy is offered to
  /// the tool via Tool::configureShadowPolicy before begin(). A tool that
  /// accepts sheds in-table and nowhere else, and only its governor
  /// counters record the fold. For a tool that declines
  /// (or when Memory.Enabled is off) a nonzero BudgetBytes is enforced
  /// by the driver's probe instead: each breached probe steps one ladder
  /// rung, and once the ladder is exhausted the run continues
  /// unbudgeted with a Note diagnostic.
  ShadowMemoryPolicy Memory;
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_DEGRADE_H
