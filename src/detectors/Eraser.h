//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ERASER: the classic LockSet race detector of Savage et al. (TOCS 1997),
/// extended to handle barrier synchronization as in the paper's evaluation
/// (Section 5.1 cites MultiRace's barrier extension [29]).
///
/// Eraser enforces a lock-based synchronization discipline: some lock must
/// be consistently held on every access to each shared location. It is
/// fast but imprecise in both directions:
///   - false alarms on fork/join, volatile, and other non-lock
///     synchronization idioms (e.g. the lufact/sor/series warnings in
///     Table 1);
///   - missed races due to the deliberately unsound Virgin/Exclusive/
///     Shared state machine (e.g. two of the hedc races, Section 5.1).
/// Both behaviours are reproduced faithfully here.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_DETECTORS_ERASER_H
#define FASTTRACK_DETECTORS_ERASER_H

#include "detectors/LockSet.h"
#include "framework/ShardableTool.h"
#include "framework/Tool.h"

namespace ft {

/// Per-variable state of Eraser's ownership state machine.
enum class EraserVarState : uint8_t {
  Virgin,         ///< Never accessed.
  Exclusive,      ///< Accessed by a single thread so far.
  Shared,         ///< Read-shared: multiple readers, no conflicting write.
  SharedModified, ///< Written while shared: candidate lockset enforced.
};

/// The Eraser analysis with barrier support. Per-variable state depends
/// only on that variable's accesses plus the locks-held sets and barrier
/// generation — all functions of the sync schedule — so Eraser shards by
/// variable with each worker replaying the (cheap) sync events itself.
class Eraser : public Tool, public ShardableTool {
public:
  /// When true (default), a barrier release resets the state machine of
  /// every variable, modelling the barrier-aware Eraser the paper
  /// benchmarks ("the total number of warnings is about three times
  /// higher if ERASER does not reason about barriers").
  explicit Eraser(bool BarrierAware = true) : BarrierAware(BarrierAware) {}

  const char *name() const override { return "Eraser"; }

  void begin(const ToolContext &Context) override;
  /// The handlers hold only the generation-current Virgin and owner-
  /// Exclusive transitions and are defined inline below, so the
  /// registered loops (Eraser.cpp) inline them; every other transition
  /// lives in the out-of-line readSlow/writeSlow.
  bool onRead(ThreadId T, VarId X, size_t OpIndex) override;
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override;
  void onAcquire(ThreadId T, LockId M, size_t OpIndex) override;
  void onRelease(ThreadId T, LockId M, size_t OpIndex) override;
  void onBarrier(const std::vector<ThreadId> &Threads,
                 size_t OpIndex) override;
  size_t shadowBytes() const override;

  /// Returns true when the lockset discipline has already failed for \p X
  /// (SharedModified with an empty candidate set). The Atomizer checker
  /// uses this to classify accesses as non-movers, mirroring how the
  /// original Atomizer embeds Eraser (Section 5.2, footnote 7).
  bool isUnprotected(VarId X) const {
    return X < Vars.size() &&
           Vars[X].State == EraserVarState::SharedModified &&
           Vars[X].Candidates.empty();
  }

  // ShardableTool.
  std::unique_ptr<Tool> cloneForShard() const override {
    return std::make_unique<Eraser>(BarrierAware);
  }
  void mergeShard(Tool &) override {}

private:
  struct VarShadow {
    EraserVarState State = EraserVarState::Virgin;
    ThreadId Owner = 0;
    /// Barrier generation at last access; stale shadow is reset lazily.
    uint32_t Generation = 0;
    /// Candidate lockset C(v); meaningful in Shared/SharedModified.
    LockSet Candidates;
  };

  /// True when \p Shadow is current and a read or write by \p T changes
  /// no lockset: a Virgin variable becomes T's Exclusive one, and T's own
  /// Exclusive variable stays so. Applies that transition.
  bool ownAccess(VarShadow &Shadow, ThreadId T) {
    if (Shadow.Generation != Generation)
      return false;
    if (Shadow.State == EraserVarState::Virgin) {
      Shadow.State = EraserVarState::Exclusive;
      Shadow.Owner = T;
      return true;
    }
    return Shadow.State == EraserVarState::Exclusive && Shadow.Owner == T;
  }
  /// The rest of the state machine for \p Shadow, X's shadow state.
  [[gnu::noinline]] bool readSlow(ThreadId T, VarId X, size_t OpIndex,
                                  VarShadow &Shadow);
  [[gnu::noinline]] bool writeSlow(ThreadId T, VarId X, size_t OpIndex,
                                   VarShadow &Shadow);

  /// Lazily resets \p Shadow if it predates the current barrier phase.
  void refresh(VarShadow &Shadow);
  void warnIfUnprotected(const VarShadow &Shadow, ThreadId T, VarId X,
                         size_t OpIndex, OpKind Kind);

  bool BarrierAware;
  uint32_t Generation = 0;
  HeldLocks Held;
  std::vector<VarShadow> Vars;
};

inline bool Eraser::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (ownAccess(Shadow, T))
    return false;
  return readSlow(T, X, OpIndex, Shadow);
}

inline bool Eraser::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (ownAccess(Shadow, T))
    return false;
  return writeSlow(T, X, OpIndex, Shadow);
}

} // namespace ft

#endif // FASTTRACK_DETECTORS_ERASER_H
