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
/// same divisor ladder — fine → 8 → 64 → ShadowPageVars, a summarized
/// page being the last rung applied locally — so this header is the
/// single source of truth for the rung constants, the rung descriptions,
/// and the memory-driven rung the shadow governor adds.
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

/// The canonical coarse-granularity divisors (fields per object), in the
/// order they are applied. The final divisor folds exactly one shadow
/// page region (ShadowPageVars fields) per object, aligning maximal
/// coarsening with the paged table's geometry: fully degraded shadow is
/// one slot per page of the fine-grained table — the same fold the
/// shadow governor's page summarization applies in place.
inline constexpr unsigned DegradeDivisorLadder[] = {8, 64, ShadowPageVars};

/// One rung of the space-degradation ladder.
struct DegradeStep {
  enum class Kind : uint8_t {
    /// Map variable ids through a widening divisor (fields-per-object),
    /// the DegradeDivisorLadder rungs. Divisors are absolute, not
    /// cumulative: the step's Param replaces any earlier divisor.
    CoarseGranularity,
    /// The memory-driven rung: the governed shadow table has summarized
    /// cold pages to page-granularity slots (warnings may coarsen to the
    /// page region; no race is missed). The stream is *not* transformed —
    /// the precision loss already happened inside the table, and it is a
    /// deterministic function of the delivered stream, so a degraded
    /// capture still replays to identical warnings. Crossing this rung
    /// records the transition and its diagnostic.
    ShadowSummarize,
  };
  Kind K = Kind::CoarseGranularity;
  unsigned Param = 8;
};

/// The online driver's default ladder: the shared divisor rungs.
inline std::vector<DegradeStep> defaultOnlineLadder() {
  std::vector<DegradeStep> Ladder;
  for (unsigned Divisor : DegradeDivisorLadder)
    Ladder.push_back({DegradeStep::Kind::CoarseGranularity, Divisor});
  return Ladder;
}

/// Policy for coarsening under space pressure instead of halting. The
/// effective configuration at rung R is the latest coarse divisor among
/// ladder steps [0, R).
struct DegradePolicy {
  /// Pin the whole ladder off: every trigger that would have degraded
  /// halts instead (the pre-PR-5 behavior).
  bool Enabled = true;

  /// Rungs in the order they are applied (see defaultOnlineLadder). When
  /// Memory.Enabled, the driver prepends a ShadowSummarize rung so the
  /// first memory-pressure transition is the in-table fold, before any
  /// stream transform.
  std::vector<DegradeStep> Ladder = defaultOnlineLadder();

  /// Raw ops between the driver's shadowBytes() probes. A probe runs
  /// when Memory.BudgetBytes is set for a tool that declined the policy,
  /// when the tool governs itself (to surface its first shed as the
  /// ShadowSummarize rung), or when a Tracker is installed.
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
  /// accepts sheds in-table and nowhere else. For a tool that declines
  /// (or when Memory.Enabled is off) a nonzero BudgetBytes is enforced
  /// by the driver's probe instead: each breached probe steps one ladder
  /// rung, and once the ladder is exhausted the run continues
  /// unbudgeted with a Note diagnostic.
  ShadowMemoryPolicy Memory;
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_DEGRADE_H
