//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-governance policy and telemetry for the shadow table
/// (docs/RUNTIME.md, "Memory governance").
///
/// The paged ShadowTable makes shadow memory *compact*; this policy makes
/// it *bounded*. A governed table stamps pages with a last-touch
/// generation, compresses cold write-only pages into lossless packed
/// encodings, and — when a byte budget's high watermark trips — summarizes
/// cold pages down to a single page-granularity slot (the sound coarse
/// fold of the degradation ladder's final divisor rung: warnings may
/// coarsen to the page region, no race is missed). Everything here is a
/// deterministic function of the delivered access stream, so governed
/// captures replay to the same warnings.
///
/// The struct lives beside the table (not in framework/) so the shadow
/// layer stays self-contained; framework's DegradePolicy and the runtime's
/// OnlineOptions embed it by value.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_SHADOW_SHADOWPOLICY_H
#define FASTTRACK_SHADOW_SHADOWPOLICY_H

#include <cstdint>

namespace ft {

/// How a shadow table governs its own footprint. Default-constructed, the
/// policy is inert: no temperature stamping, no compression, no budget.
struct ShadowMemoryPolicy {
  /// Sentinel for the allocation-fault knobs below.
  static constexpr uint64_t NoFault = ~0ull;

  /// Master switch. Off = the ungoverned PR-9 table, bit for bit.
  bool Enabled = false;

  /// Byte budget for ShadowTable::memoryBytes(); 0 = compress cold pages
  /// but never shed (no watermarks).
  uint64_t BudgetBytes = 0;

  /// Watermarks as fixed fractions of BudgetBytes. Crossing High (the
  /// budget itself) arms pressure shedding (cold pages summarized, oldest
  /// first); shedding disarms only once the footprint falls back under Low
  /// (three quarters of the budget) — the hysteresis band that keeps a
  /// footprint oscillating near the budget from thrashing
  /// summarize/fault-in cycles.
  static constexpr double HighWaterFrac = 1.0;
  static constexpr double LowWaterFrac = 0.75;

  /// Maintenance cadence in *accesses dispatched to the tool* (not wall
  /// clock, so governance is replay-deterministic). Each tick advances the
  /// temperature generation, compresses pages cold for ColdAgeTicks
  /// generations, and re-evaluates the watermarks against exact byte
  /// counts. 0 disables maintenance (stamping still happens).
  unsigned MaintainEveryAccesses = 4096;

  /// Generations without a touch before a page is compression-cold.
  /// Must be >= 1: a page touched in the current generation is never
  /// compressed or summarized, so slot references held by an in-flight
  /// access rule cannot dangle.
  unsigned ColdAgeTicks = 2;

  /// Fault injection (runtime/FaultPlan.h): the Nth shadow page
  /// allocation (0-based; fault-ins and decompressions both count)
  /// reports failure. The table serves the access from a page-granularity
  /// summary slot instead of dereferencing a page — the deterministic
  /// stand-in for a real allocator refusal. NoFault disables.
  uint64_t FailPageAllocAt = NoFault;

  /// Fault injection: the Nth *fresh* side-store clock allocation
  /// (0-based; free-list recycling is not an allocation) reports failure.
  /// The table arms pressure shedding — which refills the free list by
  /// deflating summarized pages' handles — and retries the free list
  /// before falling back to growth. NoFault disables.
  uint64_t FailInflateAt = NoFault;
};

/// Telemetry a governed table accumulates between reset()s. Aggregated
/// into OnlineReport; per-shard instances sum with operator+=.
struct ShadowGovernorStats {
  uint64_t PagesCompressed = 0;   ///< Cold pages packed losslessly.
  uint64_t PagesDecompressed = 0; ///< Packed pages re-expanded on touch.
  uint64_t PagesFreed = 0;        ///< All-bottom cold pages released.
  uint64_t PagesSummarized = 0;   ///< Pages folded to one summary slot.
  uint64_t BudgetTrips = 0;       ///< High-watermark crossings.
  uint64_t AllocDenied = 0;       ///< Injected allocation failures taken.
  uint64_t ShadowBytesHighWater = 0; ///< Peak governed memoryBytes().

  ShadowGovernorStats &operator+=(const ShadowGovernorStats &Other) {
    PagesCompressed += Other.PagesCompressed;
    PagesDecompressed += Other.PagesDecompressed;
    PagesFreed += Other.PagesFreed;
    PagesSummarized += Other.PagesSummarized;
    BudgetTrips += Other.BudgetTrips;
    AllocDenied += Other.AllocDenied;
    // High waters are per-table peaks at different instants; summing is
    // the conservative (never-understated) aggregate across shards.
    ShadowBytesHighWater += Other.ShadowBytesHighWater;
    return *this;
  }
};

} // namespace ft

#endif // FASTTRACK_SHADOW_SHADOWPOLICY_H
