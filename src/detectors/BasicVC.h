//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BASICVC: the traditional vector-clock race detector of Section 5.1 —
/// "a simple VC-based race detector that maintains a read and a write VC
/// for each memory location and performs at least one VC comparison on
/// every memory access." It is the fully-general, fully-slow baseline
/// FastTrack is roughly 10x faster than.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_DETECTORS_BASICVC_H
#define FASTTRACK_DETECTORS_BASICVC_H

#include "framework/ShardableTool.h"
#include "framework/VectorClockToolBase.h"

namespace ft {

/// Read/write checks without any fast path:
///
///   read  rd(t,x):  check Wx ⊑ Ct;             Rx(t) := Ct(t)
///   write wr(t,x):  check Wx ⊑ Ct and Rx ⊑ Ct; Wx(t) := Ct(t)
///
/// Sync behaviour is pure Figure 3, so BasicVC shards by variable under
/// parallel replay (no counters to merge).
class BasicVC : public VectorClockToolBase, public ShardableTool {
public:
  const char *name() const override { return "BasicVC"; }

  void begin(const ToolContext &Context) override;
  /// The handlers are defined inline below, so the registered loops
  /// (BasicVC.cpp) inline the ⊑ checks and the update; only the warning
  /// construction is out of line.
  bool onRead(ThreadId T, VarId X, size_t OpIndex) override;
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override;
  size_t shadowBytes() const override;

  // ShardableTool.
  std::unique_ptr<Tool> cloneForShard() const override {
    return std::make_unique<BasicVC>();
  }
  void mergeShard(Tool &) override {}

private:
  /// Finds a thread whose entry of \p Prior exceeds Ct, i.e. a concurrent
  /// prior access, for error reporting.
  ThreadId conflictingThread(const VectorClock &Prior, ThreadId T) const;
  /// Builds and records the warning (out of line; see onRead).
  [[gnu::noinline]] void reportAccessRace(ThreadId T, VarId X, size_t OpIndex,
                                          OpKind Kind, const VectorClock &Prior,
                                          OpKind PriorKind,
                                          const char *Detail);

  struct VarState {
    VectorClock R;
    VectorClock W;
  };
  std::vector<VarState> Vars;
};

inline bool BasicVC::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  if (!State.W.leq(threadClock(T)))
    reportAccessRace(T, X, OpIndex, OpKind::Read, State.W, OpKind::Write,
                     "write-read race");
  State.R.set(T, currentClock(T));
  return true;
}

inline bool BasicVC::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  const VectorClock &Ct = threadClock(T);
  bool WriteRace = !State.W.leq(Ct);
  bool ReadRace = !State.R.leq(Ct);
  if (WriteRace)
    reportAccessRace(T, X, OpIndex, OpKind::Write, State.W, OpKind::Write,
                     "write-write race");
  else if (ReadRace)
    reportAccessRace(T, X, OpIndex, OpKind::Write, State.R, OpKind::Read,
                     "read-write race");
  State.W.set(T, currentClock(T));
  return true;
}

} // namespace ft

#endif // FASTTRACK_DETECTORS_BASICVC_H
