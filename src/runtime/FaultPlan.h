//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the online runtime.
///
/// The resilience machinery of Engine.h — the degradation ladder, the
/// sequencer watchdog, tool quarantine, crash-safe capture — only earns
/// trust if every rung and recovery transition is exercised by a
/// reproducible test rather than by luck. A FaultPlan describes *where*
/// in the merged stream misbehavior strikes, keyed on merge positions —
/// the count of events the merge has consumed, which for a given
/// workload schedule is deterministic and, unlike sync tickets, advances
/// on every event, accesses included — and on raw op indices:
///
///  - **Sequencer stalls/deaths.** The sequencer busy-waits instead of
///    consuming merge position StallAtEvent, as if wedged in a slow
///    consumer; it only resumes when the supervisor abandons it (restart)
///    — so each armed stall consumes one watchdog recovery. Arm it twice
///    to drive two restarts in a row.
///  - **Ring-full storms.** Every delivered event in a window of merge
///    positions is slowed by a fixed delay, backing events up into the
///    producers' rings until they park — the overload the emit drop
///    absorbs.
///  - **Allocation failures.** A budget probe is forced to report a
///    shadow-memory breach at a chosen raw op (forwarded to
///    OnlineDriverOptions::ForceBudgetBreachAtRawOp).
///  - **Tool exceptions.** ThrowAfterTool wraps any Tool and throws from
///    a chosen access handler call — the quarantine scenario.
///
/// The stall counter is mutable because the plan is observed from the
/// sequencer thread while tests hold it by const pointer; it is the only
/// mutable state and is internally synchronized.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_FAULTPLAN_H
#define FASTTRACK_RUNTIME_FAULTPLAN_H

#include "framework/Tool.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ft::runtime {

/// Where misbehavior strikes one online session. Default-constructed, a
/// plan injects nothing.
struct FaultPlan {
  static constexpr uint64_t None = ~0ull;

  /// The sequencer busy-waits instead of consuming the event at this
  /// merge position (0 = the first event merged), until the supervisor
  /// abandons the thread. NOTE: with no supervisor
  /// (SupervisorOptions::Enabled = false) an armed stall wedges the
  /// session forever — exactly the failure the watchdog exists for.
  uint64_t StallAtEvent = None;

  /// How many times the stall re-arms: the restarted sequencer reaches
  /// the same un-merged position again, so 2 drives stall → restart →
  /// stall → restart.
  mutable std::atomic<unsigned> StallsArmed{0};

  /// Ring-full storm: each event *delivered* from a merge position in
  /// [DelayFromEvent, DelayToEvent) costs this many microseconds in the
  /// sequencer, simulating a slow consumer.
  uint64_t DelayFromEvent = None;
  uint64_t DelayToEvent = None;
  unsigned DelayPerDeliveryUs = 0;

  /// Forwarded to OnlineDriverOptions::ForceBudgetBreachAtRawOp: the
  /// first budget probe at or after this raw op reports a breach.
  uint64_t ForceBudgetBreachAtRawOp = None;

  /// Real allocation-failure injection inside the governed shadow table
  /// (forwarded to ShadowMemoryPolicy::FailPageAllocAt): the Nth shadow
  /// page allocation attempt is denied, exercising the zero-allocation
  /// summarized-page fallback. Setting either shadow fault forces
  /// OnlineOptions::Degrade.Memory.Enabled for the session.
  uint64_t FailShadowPageAllocAt = None;

  /// Same for fresh side-store growth (ShadowMemoryPolicy::FailInflateAt):
  /// the Nth new clock allocation is denied, exercising shed-and-recycle
  /// before the growth fallback.
  uint64_t FailSideStoreInflateAt = None;

  FaultPlan() = default;
  FaultPlan(const FaultPlan &) = delete;
  FaultPlan &operator=(const FaultPlan &) = delete;

  /// True when the sequencer should stall before consuming merge position
  /// \p Position. Consumes one armed stall.
  bool takeStall(uint64_t Position) const {
    if (Position != StallAtEvent)
      return false;
    unsigned Armed = StallsArmed.load(std::memory_order_relaxed);
    while (Armed != 0) {
      if (StallsArmed.compare_exchange_weak(Armed, Armed - 1,
                                            std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  /// True when a delivery from merge position \p Position falls inside
  /// the storm window.
  bool inStorm(uint64_t Position) const {
    return DelayPerDeliveryUs != 0 && Position >= DelayFromEvent &&
           Position < DelayToEvent;
  }

  // --- sharded-engine faults (OnlineOptions::Shards > 1) ---

  /// Shard whose worker stalls. Merge positions are invisible to shard
  /// workers (they drain raw-indexed routed events), so shard stalls are
  /// keyed on the raw op index instead: worker StallShard busy-waits
  /// before dispatching the first routed event with Seq >=
  /// StallShardAtRaw, until the supervisor restarts it. Sibling shards
  /// keep draining throughout — that isolation is the scenario under
  /// test.
  unsigned StallShard = 0;
  uint64_t StallShardAtRaw = None;

  /// How many times the shard stall re-arms (mirrors StallsArmed).
  mutable std::atomic<unsigned> ShardStallsArmed{0};

  /// True when shard \p Shard should stall before dispatching the routed
  /// event with raw index \p RawIndex — non-consuming, so a restarted
  /// worker re-checking the same wedged batch position stays wedged until
  /// takeShardStall() disarms it.
  bool shardStallHits(unsigned Shard, uint64_t RawIndex) const {
    return Shard == StallShard && StallShardAtRaw != None &&
           RawIndex >= StallShardAtRaw &&
           ShardStallsArmed.load(std::memory_order_relaxed) != 0;
  }

  /// Consumes one armed shard stall (the worker calls this as it enters
  /// the busy-wait; the supervisor's restart then finds the stall
  /// disarmed and the resumed worker proceeds).
  bool takeShardStall(unsigned Shard, uint64_t RawIndex) const {
    if (!shardStallHits(Shard, RawIndex))
      return false;
    unsigned Armed = ShardStallsArmed.load(std::memory_order_relaxed);
    while (Armed != 0) {
      if (ShardStallsArmed.compare_exchange_weak(Armed, Armed - 1,
                                                 std::memory_order_relaxed))
        return true;
    }
    return false;
  }
};

/// Tool decorator that forwards every event to \p Inner and throws from
/// the Nth access handler call — the misbehaving member of a composition.
/// Compose it into a ToolGroup to test quarantine, or hand it straight to
/// an Engine to test the driver's halt-with-ToolFault backstop.
class ThrowAfterTool : public Tool {
public:
  ThrowAfterTool(Tool &Inner, uint64_t ThrowAtAccess)
      : Inner(Inner), ThrowAt(ThrowAtAccess) {}

  const char *name() const override { return "ThrowAfter"; }
  void begin(const ToolContext &Context) override { Inner.begin(Context); }
  void end() override { Inner.end(); }

  bool onRead(ThreadId T, VarId X, size_t OpIndex) override {
    detonate();
    return Inner.onRead(T, X, OpIndex);
  }
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override {
    detonate();
    return Inner.onWrite(T, X, OpIndex);
  }
  void onAcquire(ThreadId T, LockId M, size_t OpIndex) override {
    Inner.onAcquire(T, M, OpIndex);
  }
  void onRelease(ThreadId T, LockId M, size_t OpIndex) override {
    Inner.onRelease(T, M, OpIndex);
  }
  void onFork(ThreadId T, ThreadId U, size_t OpIndex) override {
    Inner.onFork(T, U, OpIndex);
  }
  void onJoin(ThreadId T, ThreadId U, size_t OpIndex) override {
    Inner.onJoin(T, U, OpIndex);
  }
  void onVolatileRead(ThreadId T, VolatileId V, size_t OpIndex) override {
    Inner.onVolatileRead(T, V, OpIndex);
  }
  void onVolatileWrite(ThreadId T, VolatileId V, size_t OpIndex) override {
    Inner.onVolatileWrite(T, V, OpIndex);
  }
  size_t shadowBytes() const override { return Inner.shadowBytes(); }

  /// Accesses seen before the bang.
  uint64_t accessesSeen() const { return Seen; }

private:
  void detonate() {
    if (Seen++ == ThrowAt)
      throw std::runtime_error("injected tool fault at access " +
                               std::to_string(ThrowAt));
  }

  Tool &Inner;
  uint64_t ThrowAt;
  uint64_t Seen = 0;
};

} // namespace ft::runtime

#endif // FASTTRACK_RUNTIME_FAULTPLAN_H
