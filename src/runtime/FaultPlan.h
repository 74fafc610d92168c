//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the online runtime.
///
/// The resilience machinery of Engine.h — the emit drop, the coarsening
/// ladder, tool quarantine, crash-safe capture — only earns trust if
/// every transition is exercised by a reproducible test rather than by
/// luck. A FaultPlan describes *where* misbehavior strikes, keyed on raw
/// op indices and allocation ordinals:
///
///  - **Allocation failures.** A budget probe is forced to report a
///    shadow-memory breach at a chosen raw op (forwarded to
///    OnlineDriverOptions::ForceBudgetBreachAtRawOp), or the governed
///    shadow table denies a chosen page or side-store allocation.
///  - **Tool exceptions.** ThrowAfterTool wraps any Tool and throws from
///    a chosen access handler call — the quarantine scenario.
///
/// The ticket counter can also start at any value, so a short test
/// crosses the ring words' ticket-residue wrap.
///
/// A stall and a ring-full storm are injected as the real failures
/// instead: a tool handler that blocks until the test releases it, or
/// that sleeps in each of a window of calls (tests/BlockingTool.h). An
/// armed plan leaves the merge loop's batched admission in place.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_FAULTPLAN_H
#define FASTTRACK_RUNTIME_FAULTPLAN_H

#include "framework/Tool.h"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ft::runtime {

/// Where misbehavior strikes one online session. Default-constructed, a
/// plan injects nothing.
struct FaultPlan {
  static constexpr uint64_t None = ~0ull;

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

  /// The session's first sync ticket (0 in production). A value just
  /// below a multiple of EventWord::TicketWindow makes the ring words'
  /// ticket residues wrap within a short test.
  uint64_t FirstTicket = 0;

  FaultPlan() = default;
  FaultPlan(const FaultPlan &) = delete;
  FaultPlan &operator=(const FaultPlan &) = delete;
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
