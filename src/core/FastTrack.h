//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FASTTRACK: the efficient and precise dynamic race detector of Flanagan
/// and Freund (PLDI 2009) — the primary contribution this repository
/// reproduces.
///
/// FastTrack replaces DJIT+'s per-variable read/write vector clocks with
/// an adaptive representation. All writes to a variable are totally
/// ordered (while no race has been detected), so the last write epoch
/// c@t suffices; reads are usually totally ordered too, so the read state
/// holds an epoch and inflates to a full vector clock only when reads are
/// genuinely concurrent (read-shared data), deflating back to an epoch at
/// the next write. The access rules of Figure 2, in the notation used
/// throughout this file:
///
///   [FT READ SAME EPOCH]   Rx = E(t)                        (63.4 % reads)
///   [FT READ SHARED]       Rx ∈ VC: Wx ≼ Ct; Rx(t) := Ct(t) (20.8 %)
///                          — including its same-epoch re-read,
///                          Rx(t) = Ct(t), the Section 3 extension
///                          (on by default, counted apart)
///   [FT READ EXCLUSIVE]    Rx ≼ Ct; Wx ≼ Ct; Rx := E(t)     (15.7 %)
///   [FT READ SHARE]        inflate Rx to a VC                ( 0.1 %)
///   [FT WRITE SAME EPOCH]  Wx = E(t)                        (71.0 % writes)
///   [FT WRITE EXCLUSIVE]   Rx ≼ Ct; Wx ≼ Ct; Wx := E(t)     (28.9 %)
///   [FT WRITE SHARED]      Rx ⊑ Ct (slow); Wx := E(t); Rx := ⊥e (0.1 %)
///
/// Every rule except the two "shared-write/share" slow paths is O(1),
/// and every O(1) read rule except [FT READ EXCLUSIVE] runs inline in
/// onRead. The synchronization rules (Figure 3) live in
/// VectorClockToolBase.
///
/// The detector is parameterized by the epoch representation (Section 4:
/// "switching to 64-bit epochs would enable FastTrack to handle large
/// thread identifiers or clock values"):
///   - FastTrack   — 32-bit epochs, up to 255 threads (the paper's
///                   default layout);
///   - FastTrack64 — 64-bit epochs, up to 65,535 threads.
/// The top tid of each layout is reserved as the shadow table's
/// READ_SHARED handle tag (shadow/ShadowTable.h), extending the paper's
/// all-ones sentinel into a whole tag space.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_CORE_FASTTRACK_H
#define FASTTRACK_CORE_FASTTRACK_H

#include "framework/ShardableTool.h"
#include "framework/VectorClockToolBase.h"
#include "shadow/ShadowTable.h"

namespace ft {

/// Firing counts for each FastTrack rule, reproducing the frequency
/// annotations of Figure 2 (experiment E1).
struct FastTrackRuleStats {
  uint64_t ReadSameEpoch = 0;
  /// Same-epoch re-reads of read-shared data (Rx ∈ VC, Rx(t) = Ct(t)):
  /// the Section 3 extension's share of [FT READ SHARED], kept apart so
  /// E1 can still print the paper's Figure 2 split.
  uint64_t ReadSharedSameEpoch = 0;
  uint64_t ReadShared = 0;
  uint64_t ReadExclusive = 0;
  uint64_t ReadShare = 0;
  uint64_t WriteSameEpoch = 0;
  uint64_t WriteExclusive = 0;
  uint64_t WriteShared = 0;

  uint64_t reads() const {
    return ReadSameEpoch + ReadSharedSameEpoch + ReadShared + ReadExclusive +
           ReadShare;
  }
  uint64_t writes() const {
    return WriteSameEpoch + WriteExclusive + WriteShared;
  }
  /// Operations handled by constant-time paths (everything except the
  /// Share allocation and the Shared write comparison).
  uint64_t fastPathOps() const {
    return reads() + writes() - ReadShare - WriteShared;
  }

  /// Pointwise accumulation (sharded replay folds per-shard counters).
  FastTrackRuleStats &operator+=(const FastTrackRuleStats &Other) {
    ReadSameEpoch += Other.ReadSameEpoch;
    ReadSharedSameEpoch += Other.ReadSharedSameEpoch;
    ReadShared += Other.ReadShared;
    ReadExclusive += Other.ReadExclusive;
    ReadShare += Other.ReadShare;
    WriteSameEpoch += Other.WriteSameEpoch;
    WriteExclusive += Other.WriteExclusive;
    WriteShared += Other.WriteShared;
    return *this;
  }
};

/// Configuration knobs. The defaults implement the published algorithm
/// plus the same-epoch extension Section 3 discusses for read-shared
/// data, which changes no warning; the flags exist for the ablation study
/// (experiment E8), whose `paper-default` column turns the extension off.
struct FastTrackOptions {
  /// Rule [FT READ/WRITE SAME EPOCH]. Disabling forces every access down
  /// the general path (the read-shared same-epoch extension included).
  bool SameEpochFastPath = true;

  /// Epoch representation for read histories. Disabling keeps every
  /// variable's read state as a full vector clock from the first read —
  /// i.e. DJIT+'s representation for reads.
  bool EpochReads = true;

  /// The extension mentioned in Section 3: treat a same-epoch read of
  /// read-shared data (Rx ∈ VC and Rx(t) = Ct(t)) as a same-epoch hit,
  /// covering 78 % of reads like DJIT+'s same-epoch rule. Counted in
  /// FastTrackRuleStats::ReadSharedSameEpoch. On by default: t's
  /// earlier read in the same epoch already made the checks, so the hit
  /// changes no warning, and turning it off (the paper's default) changes
  /// counters and speed only.
  bool ExtendedSharedSameEpoch = true;

  /// Shadow-memory governance (shadow/ShadowPolicy.h): page temperature
  /// tracking, lossless cold-page compression, and watermark-driven
  /// summarization, all keyed deterministically on dispatched accesses.
  /// Inert by default; the online driver installs the session policy via
  /// configureShadowPolicy before begin().
  ShadowMemoryPolicy Memory;
};

/// The FastTrack analysis over epoch representation \p EpochT. Accesses
/// touch only the accessed variable's VarState plus the thread clocks,
/// and the clocks evolve by the Figure 3 rules alone — so the detector
/// shards by variable under parallel replay.
template <typename EpochT>
class BasicFastTrack : public VectorClockToolBase, public ShardableTool {
public:
  explicit BasicFastTrack(FastTrackOptions Options = FastTrackOptions())
      : Options(Options) {}

  const char *name() const override {
    return sizeof(EpochT) == 8 ? "FastTrack64" : "FastTrack";
  }

  void begin(const ToolContext &Context) override;
  /// The access handlers hold the O(1) same-epoch rules and the
  /// [FT READ SHARED] update and are defined inline below, so the
  /// registered loops (FastTrack.cpp) inline them; every other rule lives
  /// in the out-of-line readSlow/writeSlow, and non-resident shadow
  /// regions go through the out-of-line readCold/writeCold.
  bool onRead(ThreadId T, VarId X, size_t OpIndex) override;
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override;
  size_t shadowBytes() const override;

  /// Adopts \p Policy for the shadow table (applied at the next begin(),
  /// and inherited by shard clones through Options).
  bool configureShadowPolicy(const ShadowMemoryPolicy &Policy) override {
    Options.Memory = Policy;
    return true;
  }
  ShadowGovernorStats shadowGovernorStats() const override {
    return Shadow.governorStats();
  }

  const FastTrackRuleStats &ruleStats() const { return Rules; }

  /// Number of read states currently inflated to vector clocks.
  uint64_t inflatedReadStates() const;

  // ShardableTool.
  std::unique_ptr<Tool> cloneForShard() const override {
    return std::make_unique<BasicFastTrack<EpochT>>(Options);
  }
  void mergeShard(Tool &ShardTool) override {
    Rules += static_cast<BasicFastTrack<EpochT> &>(ShardTool).Rules;
  }

  // Checkpoint hooks: the full analysis state σ = (C, L, R, W) plus the
  // Figure 2 rule counters, so a resumed replay continues bit-identically
  // (framework/Checkpoint.h).
  bool supportsCheckpoint() const override { return true; }
  void snapshotShadow(ByteWriter &Writer) const override;
  bool restoreShadow(ByteReader &Reader) override;

  /// Shadow pages currently faulted in (the table's memory footprint is
  /// proportional to these, not to NumVars — see shadow/ShadowTable.h).
  size_t residentShadowPages() const { return Shadow.residentPages(); }

private:
  /// Per-variable shadow state (Figure 5's VarState) lives in the paged
  /// two-level ShadowTable: the hot pair (write epoch W, read epoch R)
  /// packed side by side in on-demand pages, with read-shared vector
  /// clocks hoisted into the table's side store. When a variable is
  /// read-shared, R carries a tagged side-store handle in place of an
  /// epoch (Shadow.isInflated/clockFor); inflation moves a handle, not a
  /// clock, and the side store recycles both handles and clock buffers
  /// across inflate → deflate cycles.
  ///
  /// **Recycled thread slots.** The online engine reuses the dense id of
  /// a fully joined thread, so W, R, and side-store clock entries may
  /// name a tid whose thread is dead — a *stale epoch* c@t. No rule here
  /// changes: the fork that reincarnates tid t joins the slot's clock
  /// (which still dominates the dead lifetime's final clock f, own entry
  /// already at f+1 from the join) into the successor, so c ≼ C holds
  /// for every clock that synchronized with the dead thread, and the
  /// successor's fresh epochs start at (f+1)@t — never equal to a stale
  /// one. The same argument covers dead-slot entries inside read-shared
  /// side-store VCs. Proved against the exact HB oracle in FastTrackTest
  /// (RecycledSlot* cases) and ShadowTableTest.
  using Slot = typename ShadowTable<EpochT>::Slot;

  /// E(t) = Ct(t)@t, packed into this instantiation's epoch layout.
  EpochT epochOf(ThreadId T) const { return EpochT::make(T, currentClock(T)); }

  /// The inline rules on a slot of a resident page (onRead/onWrite's
  /// body once the slot is found); misses fall through to readSlow/
  /// writeSlow.
  bool readResident(ThreadId T, VarId X, size_t OpIndex, Slot &S);
  bool writeResident(ThreadId T, VarId X, size_t OpIndex, Slot &S);

  /// The access on a region with no resident page: faults or expands the
  /// page, then runs the inline rules. A summarized region takes
  /// readSummary/writeSummary instead: its slot folds the histories of
  /// every variable on the page, so R = E(t) or W = E(t) may come from
  /// another variable and no same-epoch rule may skip the check of the
  /// other history there.
  [[gnu::noinline]] bool readCold(ThreadId T, VarId X, size_t OpIndex);
  [[gnu::noinline]] bool writeCold(ThreadId T, VarId X, size_t OpIndex);

  /// The exclusive rules on a page summary, checked in full, inline in
  /// readCold/writeCold: nearly every access to a summary takes them, and
  /// a call to readSlow/writeSlow on each made those accesses a fifth
  /// slower. Everything else goes to readSlow/writeSlow.
  bool readSummary(ThreadId T, VarId X, size_t OpIndex, Slot &S);
  bool writeSummary(ThreadId T, VarId X, size_t OpIndex, Slot &S);

  /// The rest of Figure 2 once the inline rules have missed: \p S is X's
  /// slot and \p Et is E(t). Kept out of line so the handlers stay small
  /// enough to inline into the registered loops.
  [[gnu::noinline]] bool readSlow(ThreadId T, VarId X, size_t OpIndex,
                                  Slot &S, EpochT Et);
  [[gnu::noinline]] bool writeSlow(ThreadId T, VarId X, size_t OpIndex,
                                   Slot &S, EpochT Et);
  /// One governance maintenance tick; re-arms MaintainCountdown.
  [[gnu::noinline]] void maintenanceTick();

  void reportAccessRace(ThreadId T, VarId X, size_t OpIndex, OpKind Kind,
                        ThreadId PriorThread, OpKind PriorKind,
                        const char *Detail);
  /// Finds the reader recorded in Rvc that is concurrent with Ct.
  ThreadId concurrentReader(const VectorClock &Rvc, ThreadId T) const;

  /// Counts down dispatched accesses to the next governance maintenance
  /// tick (0 = governance off). Access-keyed — never wall clock — so a
  /// degraded capture replays through identical table transitions.
  uint64_t MaintainCountdown = 0;

  FastTrackOptions Options;
  ShadowTable<EpochT> Shadow;
  FastTrackRuleStats Rules;
};

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::onRead(ThreadId T, VarId X,
                                           size_t OpIndex) {
  // The governance tick runs before the slot reference is taken, so page
  // compression/shedding never runs under an in-flight rule.
  if (__builtin_expect(MaintainCountdown != 0, 0) && --MaintainCountdown == 0)
    maintenanceTick();
  Slot *S = Shadow.residentSlot(X);
  if (__builtin_expect(S == nullptr, 0))
    return readCold(T, X, OpIndex);
  return readResident(T, X, OpIndex, *S);
}

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::readResident(ThreadId T, VarId X,
                                                 size_t OpIndex, Slot &S) {
  EpochT Et = epochOf(T);

  // [FT READ SAME EPOCH]: single epoch comparison on the hot W/R pair,
  // 63.4 % of reads. A tagged handle never equals a real epoch (its tid
  // is the reserved tag), so no extra branch distinguishes them here.
  if (Options.SameEpochFastPath && S.R == Et) {
    ++Rules.ReadSameEpoch;
    return false;
  }

  // Read-shared data. Only summaries hold an inflated W, and summaries
  // are never resident (readCold serves them), so W is an epoch here.
  if (ShadowTable<EpochT>::isInflated(S.R)) {
    assert(!ShadowTable<EpochT>::isInflated(S.W));
    VectorClock &Rvc = Shadow.clockFor(S.R);
    // Both rules need t's entry in the clock already; growing it is the
    // slow path's job.
    if (T < Rvc.size()) {
      // The Section 3 extension: Rx(t) = Ct(t), a same-epoch re-read.
      if (Options.SameEpochFastPath && Options.ExtendedSharedSameEpoch &&
          Rvc.get(T) == Et.clock()) {
        ++Rules.ReadSharedSameEpoch;
        return false;
      }
      // [FT READ SHARED]: Wx ≼ Ct, then the O(1) update of Rx(t).
      if (threadClock(T).epochLeq(S.W)) {
        ++Rules.ReadShared;
        Rvc.set(T, currentClock(T));
        return true;
      }
    }
  }
  return readSlow(T, X, OpIndex, S, Et);
}

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::onWrite(ThreadId T, VarId X,
                                            size_t OpIndex) {
  if (__builtin_expect(MaintainCountdown != 0, 0) && --MaintainCountdown == 0)
    maintenanceTick();
  Slot *S = Shadow.residentSlot(X);
  if (__builtin_expect(S == nullptr, 0))
    return writeCold(T, X, OpIndex);
  return writeResident(T, X, OpIndex, *S);
}

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::writeResident(ThreadId T, VarId X,
                                                  size_t OpIndex, Slot &S) {
  EpochT Et = epochOf(T);

  // [FT WRITE SAME EPOCH]: 71.0 % of writes.
  if (Options.SameEpochFastPath && S.W == Et) {
    ++Rules.WriteSameEpoch;
    return false;
  }
  return writeSlow(T, X, OpIndex, S, Et);
}

/// The paper's default: packed 32-bit epochs (8-bit tid, 24-bit clock).
using FastTrack = BasicFastTrack<Epoch>;

/// The Section 4 extension: 64-bit epochs for programs with more than
/// 255 threads (16-bit tid, 48-bit clock).
using FastTrack64 = BasicFastTrack<Epoch64>;

extern template class BasicFastTrack<Epoch>;
extern template class BasicFastTrack<Epoch64>;

} // namespace ft

#endif // FASTTRACK_CORE_FASTTRACK_H
