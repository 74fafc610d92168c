#include "core/FastTrack.h"

#include "framework/FastPath.h"

#include "support/ByteStream.h"

using namespace ft;

namespace {

/// Checkpoint shadow-section format (see snapshotShadow below): a u32
/// tag kShadowFormatV3, then a u64 variable count (million-variable-plus
/// tables snapshot safely), then one record per *page* with a compact
/// kind byte, so image size is proportional to touched pages — and
/// within them to inflated state — not to NumVars, then the eight Figure
/// 2 rule counters. Any other tag is rejected: the pre-paged v1 format's
/// u32 variable count, and v2 (0xffffffff), whose counters lack
/// ReadSharedSameEpoch.
constexpr uint32_t kShadowFormatV3 = 0xfffffffeu;

/// Page kinds, chosen purely from logical content so a snapshot is a
/// function of shadow *state*, never of fault-in history — that is what
/// keeps resumed and uninterrupted runs byte-identical.
enum ShadowPageKind : uint8_t {
  kPageAbsent = 0,    ///< Every slot ⊥ (or the page was never faulted).
  kPageWriteOnly = 1, ///< Some W set, every R still ⊥: W array only.
  kPageDense = 2,     ///< Full W/R records (read VCs for inflated slots).
  kPageSummarized = 3, ///< Page folded to one page-granularity summary
                       ///< slot by governed pressure shedding: W then R,
                       ///< each either a raw epoch or the READ_SHARED
                       ///< sentinel followed by a clock payload (a
                       ///< summary's W may be a multi-writer join).
};

} // namespace

template <typename EpochT>
void BasicFastTrack<EpochT>::begin(const ToolContext &Context) {
  // The top tid is the shadow table's READ_SHARED handle tag, so the
  // usable range is one short of the raw epoch packing.
  assert(Context.NumThreads <= EpochT::MaxTid &&
         "thread count exceeds this epoch layout; use FastTrack64");
  VectorClockToolBase::begin(Context);
  Shadow.setPolicy(Options.Memory);
  Shadow.reset(Context.NumVars);
  // Governance ticks count dispatched accesses (never wall clock), so a
  // governed capture replays through identical table transitions.
  MaintainCountdown =
      Shadow.governed() ? Options.Memory.MaintainEveryAccesses : 0;
  Rules = FastTrackRuleStats();
}

template <typename EpochT>
void BasicFastTrack<EpochT>::reportAccessRace(ThreadId T, VarId X,
                                              size_t OpIndex, OpKind Kind,
                                              ThreadId PriorThread,
                                              OpKind PriorKind,
                                              const char *Detail) {
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.PriorThread = PriorThread;
  W.PriorKind = PriorKind;
  W.Detail = Detail;
  reportRace(std::move(W));
}

template <typename EpochT>
ThreadId BasicFastTrack<EpochT>::concurrentReader(const VectorClock &Rvc,
                                                  ThreadId T) const {
  const VectorClock &Ct = threadClock(T);
  for (ThreadId U = 0; U != Rvc.size(); ++U)
    if (Rvc.get(U) > Ct.get(U))
      return U;
  return UnknownThread;
}

template <typename EpochT>
void BasicFastTrack<EpochT>::maintenanceTick() {
  MaintainCountdown = Options.Memory.MaintainEveryAccesses;
  Shadow.maintain();
}

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::readSummary(ThreadId T, VarId X,
                                                size_t OpIndex, Slot &S) {
  // [FT READ EXCLUSIVE] when W and R are epochs that happen before this
  // read (the common case on a summary); races and read-sharing go to
  // readSlow.
  const VectorClock &Ct = threadClock(T);
  if (Options.EpochReads && !ShadowTable<EpochT>::isInflated(S.W) &&
      !ShadowTable<EpochT>::isInflated(S.R) && Ct.epochLeq(S.W) &&
      Ct.epochLeq(S.R)) {
    ++Rules.ReadExclusive;
    S.R = epochOf(T);
    return true;
  }
  return readSlow(T, X, OpIndex, S, epochOf(T));
}

template <typename EpochT>
inline bool BasicFastTrack<EpochT>::writeSummary(ThreadId T, VarId X,
                                                 size_t OpIndex, Slot &S) {
  // [FT WRITE EXCLUSIVE] when W and R are epochs that happen before this
  // write; races and an inflated history go to writeSlow.
  const VectorClock &Ct = threadClock(T);
  if (!ShadowTable<EpochT>::isInflated(S.W) &&
      !ShadowTable<EpochT>::isInflated(S.R) && Ct.epochLeq(S.W) &&
      Ct.epochLeq(S.R)) {
    ++Rules.WriteExclusive;
    S.W = epochOf(T);
    return true;
  }
  return writeSlow(T, X, OpIndex, S, epochOf(T));
}

template <typename EpochT>
bool BasicFastTrack<EpochT>::readCold(ThreadId T, VarId X, size_t OpIndex) {
  if (Slot *Summary = Shadow.summarySlot(X))
    return readSummary(T, X, OpIndex, *Summary);
  Slot &S = Shadow.slot(X);
  // An injected allocation failure summarizes the page in place of
  // faulting it in.
  if (Slot *Summary = Shadow.summarySlot(X))
    return readSummary(T, X, OpIndex, *Summary);
  return readResident(T, X, OpIndex, S);
}

template <typename EpochT>
bool BasicFastTrack<EpochT>::writeCold(ThreadId T, VarId X, size_t OpIndex) {
  if (Slot *Summary = Shadow.summarySlot(X))
    return writeSummary(T, X, OpIndex, *Summary);
  Slot &S = Shadow.slot(X);
  // An injected allocation failure summarizes the page in place of
  // faulting it in.
  if (Slot *Summary = Shadow.summarySlot(X))
    return writeSummary(T, X, OpIndex, *Summary);
  return writeResident(T, X, OpIndex, S);
}

template <typename EpochT>
bool BasicFastTrack<EpochT>::readSlow(ThreadId T, VarId X, size_t OpIndex,
                                      Slot &S, EpochT Et) {
  bool Shared = ShadowTable<EpochT>::isInflated(S.R);
  const VectorClock &Ct = threadClock(T);

  // Write-read race check: Wx ≼ Ct, O(1), same cache line as the R just
  // read. A summarized region's W may carry an inflated multi-writer
  // join ("governed tables may hand out an inflated W" —
  // shadow/ShadowTable.h); the check widens to a clock comparison there.
  if (__builtin_expect(ShadowTable<EpochT>::isInflated(S.W), 0)) {
    const VectorClock &Wvc = Shadow.clockFor(S.W);
    if (!Wvc.leq(Ct))
      reportAccessRace(T, X, OpIndex, OpKind::Read, concurrentReader(Wvc, T),
                       OpKind::Write, "write-read race");
  } else if (!Ct.epochLeq(S.W)) {
    reportAccessRace(T, X, OpIndex, OpKind::Read, S.W.tid(), OpKind::Write,
                     "write-read race");
  }

  if (Shared) {
    // [FT READ SHARED] in the cases the inline rule leaves: after a
    // race, when t has no entry yet (the update grows the clock), and on
    // a summary.
    ++Rules.ReadShared;
    Shadow.clockFor(S.R).set(T, Ct.get(T));
    return true;
  }

  if (Options.EpochReads && Ct.epochLeq(S.R)) {
    // [FT READ EXCLUSIVE]: the previous read happens-before this one, so
    // the epoch representation still suffices.
    ++Rules.ReadExclusive;
    S.R = Et;
    return true;
  }

  // [FT READ SHARE] (SLOW PATH): concurrent reads — inflate to a vector
  // clock holding both read epochs. inflate() recycles a deflated
  // handle's buffer when one is parked (zeroed: entries from an earlier
  // read-shared phase predate the write that deflated it and would cause
  // false alarms if kept); only the handle moves into R.
  ++Rules.ReadShare;
  EpochT Prior = S.R;
  EpochT Handle = Shadow.inflate();
  VectorClock &Rvc = Shadow.clockFor(Handle);
  Rvc.set(Prior.tid(), static_cast<ClockValue>(Prior.clock()));
  Rvc.set(T, Ct.get(T));
  S.R = Handle;
  return true;
}

template <typename EpochT>
bool BasicFastTrack<EpochT>::writeSlow(ThreadId T, VarId X, size_t OpIndex,
                                       Slot &S, EpochT Et) {
  const VectorClock &Ct = threadClock(T);

  // Write-write race check: Wx ≼ Ct, O(1). All prior writes are totally
  // ordered (absent detected races), so the last write epoch suffices —
  // except on a summarized region, whose W may be the inflated per-tid
  // join of several cold writers (full clock comparison).
  if (__builtin_expect(ShadowTable<EpochT>::isInflated(S.W), 0)) {
    const VectorClock &Wvc = Shadow.clockFor(S.W);
    if (!Wvc.leq(Ct))
      reportAccessRace(T, X, OpIndex, OpKind::Write, concurrentReader(Wvc, T),
                       OpKind::Write, "write-write race");
  } else if (!Ct.epochLeq(S.W)) {
    reportAccessRace(T, X, OpIndex, OpKind::Write, S.W.tid(), OpKind::Write,
                     "write-write race");
  }

  if (!ShadowTable<EpochT>::isInflated(S.R)) {
    // [FT WRITE EXCLUSIVE]: read-write check against the read epoch, O(1).
    ++Rules.WriteExclusive;
    if (!Ct.epochLeq(S.R))
      reportAccessRace(T, X, OpIndex, OpKind::Write, S.R.tid(), OpKind::Read,
                       "read-write race");
  } else {
    // [FT WRITE SHARED] (SLOW PATH): full Rvc ⊑ Ct comparison, then the
    // read state deflates back to an epoch — later accesses cannot race
    // with the discarded reads without also racing with this write. The
    // handle parks on the free list; its clock buffer is recycled by the
    // next inflation anywhere in the table.
    ++Rules.WriteShared;
    const VectorClock &Rvc = Shadow.clockFor(S.R);
    if (!Rvc.leq(Ct))
      reportAccessRace(T, X, OpIndex, OpKind::Write, concurrentReader(Rvc, T),
                       OpKind::Read, "read-write race");
    Shadow.deflate(S.R);
    S.R = EpochT();
  }
  // A summarized region's multi-writer W join is subsumed by this write
  // exactly like an exclusive epoch (the ≼ check above already compared
  // the full join); its side-store handle parks for reuse.
  if (__builtin_expect(ShadowTable<EpochT>::isInflated(S.W), 0))
    Shadow.deflate(S.W);
  S.W = Et;
  return true;
}

template <typename EpochT>
size_t BasicFastTrack<EpochT>::shadowBytes() const {
  // The table walks its side store, so heap-spilled read VCs (ClockArena
  // blocks behind wide clocks) are charged against memory budgets too.
  return VectorClockToolBase::shadowBytes() + Shadow.memoryBytes();
}

template <typename EpochT>
uint64_t BasicFastTrack<EpochT>::inflatedReadStates() const {
  return Shadow.inflatedStates();
}

template <typename EpochT>
void BasicFastTrack<EpochT>::snapshotShadow(ByteWriter &Writer) const {
  using Table = ShadowTable<EpochT>;
  snapshotClocks(Writer);
  Writer.u32(kShadowFormatV3);
  Writer.u64(Shadow.numVars());
  // Epochs-or-sentinel encoding shared by dense records and summary
  // slots: an inflated value serializes as the canonical READ_SHARED
  // sentinel plus its clock payload, so images never depend on
  // side-store numbering and restore may re-assign handles freely
  // without breaking byte-identical resume.
  auto writeEpochOrClock = [&](EpochT E) {
    if (Table::isInflated(E)) {
      Writer.u64(static_cast<uint64_t>(EpochT::readShared().raw()));
      writeClock(Writer, Shadow.clockFor(E));
    } else {
      Writer.u64(static_cast<uint64_t>(E.raw()));
    }
  };
  std::vector<typename Table::Slot> Buf(Table::PageSize);
  for (size_t PI = 0, E = Shadow.numPages(); PI != E; ++PI) {
    const uint32_t Used = Shadow.slotsInPage(PI);

    if (Shadow.pageStateAt(PI) == ShadowPageState::Summarized) {
      const typename Table::Slot &Sum = Shadow.summaryAt(PI);
      Writer.u8(kPageSummarized);
      writeEpochOrClock(Sum.W);
      writeEpochOrClock(Sum.R);
      continue;
    }

    // Classify from logical content only: a faulted page whose slots are
    // all still ⊥ serializes as absent, identically to one never touched,
    // and a compressed page expands into Buf so its record is
    // byte-identical to its resident twin's.
    uint8_t Kind = kPageAbsent;
    if (Shadow.readPageContent(PI, Buf.data())) {
      bool AnyW = false, AnyR = false;
      for (uint32_t I = 0; I != Used; ++I) {
        AnyW |= Buf[I].W.raw() != 0;
        AnyR |= Buf[I].R.raw() != 0;
      }
      if (AnyR)
        Kind = kPageDense;
      else if (AnyW)
        Kind = kPageWriteOnly;
    }
    Writer.u8(Kind);
    if (Kind == kPageAbsent)
      continue;
    if (Kind == kPageWriteOnly) {
      for (uint32_t I = 0; I != Used; ++I)
        Writer.u64(static_cast<uint64_t>(Buf[I].W.raw()));
      continue;
    }
    for (uint32_t I = 0; I != Used; ++I) {
      Writer.u64(static_cast<uint64_t>(Buf[I].W.raw()));
      writeEpochOrClock(Buf[I].R);
    }
  }
  Writer.u64(Rules.ReadSameEpoch);
  Writer.u64(Rules.ReadSharedSameEpoch);
  Writer.u64(Rules.ReadShared);
  Writer.u64(Rules.ReadExclusive);
  Writer.u64(Rules.ReadShare);
  Writer.u64(Rules.WriteSameEpoch);
  Writer.u64(Rules.WriteExclusive);
  Writer.u64(Rules.WriteShared);
}

template <typename EpochT>
bool BasicFastTrack<EpochT>::restoreShadow(ByteReader &Reader) {
  using Table = ShadowTable<EpochT>;
  using RawT = typename Table::RawT;
  if (!restoreClocks(Reader))
    return false;
  Shadow.reset(Shadow.numVars()); // drop any state from a partial restore

  if (Reader.u32() != kShadowFormatV3 || Reader.u64() != Shadow.numVars())
    return false;
  // Mirror of snapshotShadow's writeEpochOrClock: the READ_SHARED
  // sentinel re-inflates into a freshly assigned side-store handle
  // (the ungated internal path — restore must not consume injected
  // fault ordinals, hence no policy-gated inflate()).
  auto readEpochOrClock = [&](EpochT &Out) {
    EpochT E = EpochT::fromRaw(static_cast<RawT>(Reader.u64()));
    if (E == EpochT::readShared()) {
      Out = Shadow.inflateForRestore();
      return readClock(Reader, Shadow.clockFor(Out));
    }
    Out = E;
    return !Reader.failed();
  };
  for (size_t PI = 0, E = Shadow.numPages(); PI != E; ++PI) {
    const uint8_t Kind = Reader.u8();
    if (Reader.failed() || Kind > kPageSummarized)
      return false;
    if (Kind == kPageAbsent)
      continue;
    if (Kind == kPageSummarized) {
      if (!Shadow.paged())
        return false; // summaries cannot exist in an eager table
      typename Table::Slot Sum;
      if (!readEpochOrClock(Sum.W) || !readEpochOrClock(Sum.R))
        return false;
      Shadow.installSummary(PI, Sum);
      continue;
    }
    const uint32_t Used = Shadow.slotsInPage(PI);
    const VarId Base = static_cast<VarId>(PI << Table::PageShift);
    for (uint32_t I = 0; I != Used; ++I) {
      typename Table::Slot &S = Shadow.slot(Base + I);
      S.W = EpochT::fromRaw(static_cast<RawT>(Reader.u64()));
      if (Kind == kPageWriteOnly)
        continue;
      if (!readEpochOrClock(S.R))
        return false;
    }
    if (Reader.failed())
      return false;
  }
  Rules.ReadSameEpoch = Reader.u64();
  Rules.ReadSharedSameEpoch = Reader.u64();
  Rules.ReadShared = Reader.u64();
  Rules.ReadExclusive = Reader.u64();
  Rules.ReadShare = Reader.u64();
  Rules.WriteSameEpoch = Reader.u64();
  Rules.WriteExclusive = Reader.u64();
  Rules.WriteShared = Reader.u64();
  return !Reader.failed();
}

namespace ft {
template class BasicFastTrack<Epoch>;
template class BasicFastTrack<Epoch64>;
} // namespace ft

FT_REGISTER_FAST_PATH(::ft::FastTrack);
FT_REGISTER_FAST_PATH(::ft::FastTrack64);
