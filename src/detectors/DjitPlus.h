//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DJIT+: the high-performance vector-clock race detector of Pozniansky
/// and Schuster, as reviewed in Section 2.2 and the right column of
/// Figure 2 of the FastTrack paper:
///
///   [DJIT+ READ SAME EPOCH]   Rx(t) = Ct(t)                  -> no-op
///   [DJIT+ READ]              check Wx ⊑ Ct; Rx(t) := Ct(t)
///   [DJIT+ WRITE SAME EPOCH]  Wx(t) = Ct(t)                  -> no-op
///   [DJIT+ WRITE]             check Wx ⊑ Ct, Rx ⊑ Ct; Wx(t) := Ct(t)
///
/// Unlike BasicVC it skips redundant same-epoch accesses, but every
/// first-in-epoch access still costs an O(n) vector-clock comparison —
/// exactly the cost FastTrack's epochs eliminate.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_DETECTORS_DJITPLUS_H
#define FASTTRACK_DETECTORS_DJITPLUS_H

#include "framework/ShardableTool.h"
#include "framework/VectorClockToolBase.h"

namespace ft {

/// Per-rule firing counters for the DJIT+ analysis (experiment E1).
struct DjitRuleStats {
  uint64_t ReadSameEpoch = 0;
  uint64_t ReadGeneral = 0;
  uint64_t WriteSameEpoch = 0;
  uint64_t WriteGeneral = 0;

  uint64_t reads() const { return ReadSameEpoch + ReadGeneral; }
  uint64_t writes() const { return WriteSameEpoch + WriteGeneral; }

  /// Pointwise accumulation (sharded replay folds per-shard counters).
  DjitRuleStats &operator+=(const DjitRuleStats &Other) {
    ReadSameEpoch += Other.ReadSameEpoch;
    ReadGeneral += Other.ReadGeneral;
    WriteSameEpoch += Other.WriteSameEpoch;
    WriteGeneral += Other.WriteGeneral;
    return *this;
  }
};

/// The DJIT+ analysis. R and W vector clocks are allocated lazily per
/// variable on first use, which is what Table 2's allocation counts
/// measure. Sync behaviour is pure Figure 3, so DJIT+ shards by variable
/// under parallel replay.
class DjitPlus : public VectorClockToolBase, public ShardableTool {
public:
  const char *name() const override { return "DJIT+"; }

  void begin(const ToolContext &Context) override;
  /// The handlers hold only the same-epoch rules and are defined inline
  /// below, so the registered loops (DjitPlus.cpp) inline them; [DJIT+
  /// READ] and [DJIT+ WRITE] live in the out-of-line readSlow/writeSlow.
  bool onRead(ThreadId T, VarId X, size_t OpIndex) override;
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override;
  size_t shadowBytes() const override;

  const DjitRuleStats &ruleStats() const { return Rules; }

  // ShardableTool.
  std::unique_ptr<Tool> cloneForShard() const override {
    return std::make_unique<DjitPlus>();
  }
  void mergeShard(Tool &ShardTool) override {
    Rules += static_cast<DjitPlus &>(ShardTool).Rules;
  }

private:
  ThreadId conflictingThread(const VectorClock &Prior, ThreadId T) const;
  void reportAccessRace(ThreadId T, VarId X, size_t OpIndex, OpKind Kind,
                        const VectorClock &Prior, OpKind PriorKind);

  struct VarState {
    VectorClock R;
    VectorClock W;
  };
  /// [DJIT+ READ] / [DJIT+ WRITE] for \p State, X's shadow state.
  [[gnu::noinline]] bool readSlow(ThreadId T, VarId X, size_t OpIndex,
                                  VarState &State);
  [[gnu::noinline]] bool writeSlow(ThreadId T, VarId X, size_t OpIndex,
                                   VarState &State);

  std::vector<VarState> Vars;
  DjitRuleStats Rules;
};

inline bool DjitPlus::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  // [DJIT+ READ SAME EPOCH]: 78.0 % of reads in the paper's benchmarks.
  if (State.R.get(T) == currentClock(T)) {
    ++Rules.ReadSameEpoch;
    return false;
  }
  return readSlow(T, X, OpIndex, State);
}

inline bool DjitPlus::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  // [DJIT+ WRITE SAME EPOCH]: 71.0 % of writes.
  if (State.W.get(T) == currentClock(T)) {
    ++Rules.WriteSameEpoch;
    return false;
  }
  return writeSlow(T, X, OpIndex, State);
}

} // namespace ft

#endif // FASTTRACK_DETECTORS_DJITPLUS_H
