//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared base for vector-clock-based tools (BasicVC, DJIT+, MultiRace,
/// FastTrack). Implements the synchronization and threading rules of
/// Figure 3 — acquire, release, fork, join — plus the volatile and barrier
/// extensions of Section 4, which are identical across those analyses:
///
///   [FT ACQUIRE]          C't = Ct ⊔ Lm
///   [FT RELEASE]          L'm = Ct;  C't = inc_t(Ct)
///   [FT FORK]             C'u = Cu ⊔ Ct;  C't = inc_t(Ct)
///   [FT JOIN]             C't = Ct ⊔ Cu;  C'u = inc_u(Cu)
///   [FT READ VOLATILE]    C't = Ct ⊔ Lvx
///   [FT WRITE VOLATILE]   L'vx = Ct ⊔ Lvx;  C't = inc_t(Ct)
///   [FT BARRIER RELEASE]  C't = inc_t(⊔_{u∈T} Cu) for t ∈ T
///
/// These operations are rare (3.3 % of events), so the O(n) vector-clock
/// work here is "perfectly adequate" (Section 3, Other Operations).
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_VECTORCLOCKTOOLBASE_H
#define FASTTRACK_FRAMEWORK_VECTORCLOCKTOOLBASE_H

#include "clock/VectorClock.h"
#include "framework/Tool.h"

namespace ft {

class ByteReader;
class ByteWriter;

/// Maintains the C (per-thread) and L (per-lock, per-volatile) components
/// of the analysis state σ = (C, L, R, W); derived tools own R and W.
class VectorClockToolBase : public Tool {
public:
  void begin(const ToolContext &Context) override;
  void onAcquire(ThreadId T, LockId M, size_t OpIndex) override;
  void onRelease(ThreadId T, LockId M, size_t OpIndex) override;
  void onFork(ThreadId T, ThreadId U, size_t OpIndex) override;
  void onJoin(ThreadId T, ThreadId U, size_t OpIndex) override;
  void onVolatileRead(ThreadId T, VolatileId V, size_t OpIndex) override;
  void onVolatileWrite(ThreadId T, VolatileId V, size_t OpIndex) override;
  void onBarrier(const std::vector<ThreadId> &Threads,
                 size_t OpIndex) override;
  size_t shadowBytes() const override;

protected:
  /// Checkpoint support (framework/Checkpoint.h): serializes the C, L,
  /// and volatile-L clocks. Derived tools call this from their
  /// ShardableTool::snapshotShadow before writing their own R/W state.
  void snapshotClocks(ByteWriter &Writer) const;

  /// Restores what snapshotClocks wrote. begin() must already have run
  /// with the original ToolContext (it sizes the vectors); the clock
  /// cache is refreshed from the restored C. \returns false on a
  /// malformed image.
  bool restoreClocks(ByteReader &Reader);

  /// Codec for one vector clock (size-prefixed entries), shared with
  /// derived tools that checkpoint per-variable clocks (e.g. FastTrack's
  /// read VCs).
  static void writeClock(ByteWriter &Writer, const VectorClock &Clock);
  static bool readClock(ByteReader &Reader, VectorClock &Clock);

  /// Ct: the current vector clock of thread \p T.
  const VectorClock &threadClock(ThreadId T) const { return C[T]; }

  /// Ct(t): the current clock of thread \p T (cached, O(1)). Derived
  /// detectors pack this into their epoch representation — 32- or 64-bit
  /// — so the cache stores the unpacked clock value.
  ClockValue currentClock(ThreadId T) const { return ClockCache[T]; }

  unsigned numThreads() const { return C.size(); }

private:
  void refreshClock(ThreadId T) { ClockCache[T] = C[T].get(T); }

  std::vector<VectorClock> C;          ///< Per-thread clocks.
  std::vector<VectorClock> L;          ///< Per-lock clocks.
  std::vector<VectorClock> LVolatile;  ///< Per-volatile clocks (extended L).
  std::vector<ClockValue> ClockCache;  ///< Ct(t), kept in sync with Ct.
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_VECTORCLOCKTOOLBASE_H
