#include "shadow/ShadowTable.h"

#include <algorithm>

using namespace ft;

template <typename EpochT>
typename ShadowTable<EpochT>::Page *ShadowTable<EpochT>::faultIn(size_t PI) {
  // Value-initialization zeroes every slot: raw 0 is ⊥e for both fields,
  // so a fresh page is indistinguishable from never-accessed state.
  assert(!EagerBlock && "eager tables have every page resident");
  Page *P = new Page();
  Dir[PI] = P;
  ++Resident;
  return P;
}

/// The non-resident arm of slot(): decides how a region with a null
/// directory entry serves the access. Never-accessed regions fault a
/// fresh page in; compressed pages re-expand bit-identically; summarized
/// regions answer from their single page-granularity slot. The injected
/// allocation-failure gate sits in front of both page-allocating arms —
/// a denied allocation is served at page granularity instead of
/// crashing, which is the whole OOM-robustness contract.
template <typename EpochT>
typename ShadowTable<EpochT>::Slot &ShadowTable<EpochT>::coldSlot(VarId X,
                                                                  size_t PI) {
  PageMeta &M = Meta[PI];
  if (Governed)
    M.LastTouch = Gen;
  if (M.State == ShadowPageState::Summarized)
    return M.Summary;
  if (M.State == ShadowPageState::Compressed) {
    if (takePageAllocFault()) {
      summarizePage(PI); // folds the packed image; allocates no page
      return M.Summary;
    }
    return decompressPage(PI)->Slots[X & PageMask];
  }
  assert(M.State == ShadowPageState::Untouched);
  if (Governed && takePageAllocFault()) {
    M.State = ShadowPageState::Summarized;
    M.Summary = Slot{};
    ++Stats.PagesSummarized;
    return M.Summary;
  }
  Page *P = faultIn(PI);
  M.State = ShadowPageState::Resident;
  if (Governed) {
    Bytes += sizeof(Page);
    notePressure();
  }
  return P->Slots[X & PageMask];
}

template <typename EpochT>
void ShadowTable<EpochT>::materializeEagerly(size_t NumPages) {
  static_assert(sizeof(Page) == PageSize * sizeof(Slot),
                "pages must tile so the eager block's slots are flat");
  EagerBlock.reset(new Page[NumPages]()); // value-init: every slot ⊥
  for (size_t PI = 0; PI != NumPages; ++PI)
    Dir[PI] = &EagerBlock[PI];
  FlatSlots = EagerBlock[0].Slots;
  Resident = NumPages;
}

template <typename EpochT> void ShadowTable<EpochT>::releasePages() noexcept {
  if (EagerBlock) {
    EagerBlock.reset();
    FlatSlots = nullptr;
  } else {
    for (Page *P : Dir)
      delete P;
  }
  Dir.clear();
  Meta.clear();
  Resident = 0;
}

template <typename EpochT> bool ShadowTable<EpochT>::takePageAllocFault() {
  if (__builtin_expect(PageAllocs++ != Policy.FailPageAllocAt, 1))
    return false;
  ++Stats.AllocDenied;
  return true;
}

template <typename EpochT> void ShadowTable<EpochT>::takeInflateFault() {
  if (__builtin_expect(InflateAllocs++ != Policy.FailInflateAt, 1))
    return;
  ++Stats.AllocDenied;
  // Denied growth: shed cold pages until a deflated handle lands on the
  // free list (summaries join read histories, parking their handles), so
  // the caller's inflateRaw() recycles instead of growing. If nothing
  // cold holds a handle the fallback is growth — detection beats death.
  shedColdPages(/*StopAtFreeHandle=*/true);
}

/// Re-evaluates the watermarks against the running byte estimate. Armed
/// shedding sheds down to the low watermark and disarms only once under
/// it — the hysteresis band that keeps a footprint oscillating near the
/// budget from thrashing summarize/fault-in cycles.
template <typename EpochT> void ShadowTable<EpochT>::notePressure() {
  if (Bytes > Stats.ShadowBytesHighWater)
    Stats.ShadowBytesHighWater = Bytes;
  if (Policy.BudgetBytes == 0)
    return;
  if (!SheddingArmed && Bytes > highWaterBytes()) {
    SheddingArmed = true;
    ++Stats.BudgetTrips;
  }
  if (SheddingArmed && !ShedStalled)
    shedColdPages(/*StopAtFreeHandle=*/false);
  if (SheddingArmed && Bytes <= lowWaterBytes())
    SheddingArmed = false;
}

template <typename EpochT> void ShadowTable<EpochT>::maintain() {
  if (!Governed)
    return;
  ++Gen;
  ShedStalled = false; // a new generation creates new cold candidates
  const unsigned Age = std::max(1u, Policy.ColdAgeTicks);
  for (size_t PI = 0, E = Dir.size(); PI != E; ++PI) {
    PageMeta &M = Meta[PI];
    // Compress exactly when the page crosses the cold threshold: a page
    // that stays cold was already tried once at the boundary (and either
    // packed or proved incompressible), so the sweep never rescans the
    // long-cold tail.
    if (M.State == ShadowPageState::Resident && M.LastTouch + Age == Gen)
      compressPage(PI);
  }
  // Exact resync: container capacities and side-store churn drift the
  // running estimate between ticks; governance decisions re-anchor here.
  Bytes = memoryBytes();
  notePressure();
}

/// Tries to pack resident page \p PI. Only write-only pages qualify (any
/// read state means the page is warm in a way packing can't serve), and
/// the occupied write epochs must span at most MaxDelta raw units so one
/// byte per slot reconstructs them exactly. All-⊥ pages are released
/// outright — indistinguishable from never-accessed state.
template <typename EpochT> bool ShadowTable<EpochT>::compressPage(size_t PI) {
  Page *P = Dir[PI];
  assert(P && !EagerBlock);
  const uint32_t Used = slotsInPage(PI);
  RawT MinW = 0, MaxW = 0;
  bool Any = false;
  for (uint32_t I = 0; I != Used; ++I) {
    const Slot &S = P->Slots[I];
    if (S.R.raw() != 0)
      return false; // read state present: not a write-only page
    const RawT W = S.W.raw();
    if (W == 0)
      continue;
    if (!Any) {
      MinW = MaxW = W;
      Any = true;
    } else {
      MinW = std::min(MinW, W);
      MaxW = std::max(MaxW, W);
    }
  }
  PageMeta &M = Meta[PI];
  if (!Any) {
    delete P;
    Dir[PI] = nullptr;
    --Resident;
    Bytes -= sizeof(Page);
    M.State = ShadowPageState::Untouched;
    ++Stats.PagesFreed;
    return true;
  }
  if (MaxW - MinW > MaxDelta)
    return false; // epoch span too wide for byte deltas
  auto C = std::make_unique<CompressedPage>();
  C->BaseW = MinW;
  const bool Uniform = MinW == MaxW;
  if (!Uniform)
    C->Deltas.reset(new uint8_t[PageSize]());
  for (uint32_t I = 0; I != Used; ++I) {
    const RawT W = P->Slots[I].W.raw();
    if (W == 0)
      continue;
    C->Occupied[I >> 6] |= uint64_t(1) << (I & 63);
    if (!Uniform)
      C->Deltas[I] = static_cast<uint8_t>(W - MinW);
  }
  delete P;
  Dir[PI] = nullptr;
  --Resident;
  Bytes -= sizeof(Page);
  Bytes += compressedBytes(*C);
  M.Packed = std::move(C);
  M.State = ShadowPageState::Compressed;
  ++Stats.PagesCompressed;
  return true;
}

template <typename EpochT>
typename ShadowTable<EpochT>::Page *
ShadowTable<EpochT>::decompressPage(size_t PI) {
  PageMeta &M = Meta[PI];
  assert(M.State == ShadowPageState::Compressed);
  Page *P = faultIn(PI);
  const CompressedPage &C = *M.Packed;
  for (uint32_t I = 0; I != PageSize; ++I)
    if (C.Occupied[I >> 6] & (uint64_t(1) << (I & 63)))
      P->Slots[I].W = EpochT::fromRaw(
          C.Deltas ? static_cast<RawT>(C.BaseW + C.Deltas[I]) : C.BaseW);
  Bytes -= compressedBytes(C);
  Bytes += sizeof(Page);
  M.Packed.reset();
  M.State = ShadowPageState::Resident;
  ++Stats.PagesDecompressed;
  notePressure();
  return Dir[PI];
}

/// Reduces a joined per-tid history to the cheapest faithful epoch form:
/// ⊥ when empty, c@t when a single thread contributed, otherwise an
/// inflated side-store clock. Clock-0 entries never constrain a ≼ check
/// (every clock is ≥ 0), so they are dropped — which is what lets a
/// single-writer page keep an epoch W instead of inflating.
template <typename EpochT>
EpochT ShadowTable<EpochT>::foldClock(VectorClock &&VC) {
  ThreadId Tid = 0;
  unsigned NonZero = 0;
  for (ThreadId U = 0; U != VC.size(); ++U)
    if (VC.get(U) != 0) {
      ++NonZero;
      Tid = U;
    }
  if (NonZero == 0)
    return EpochT();
  if (NonZero == 1)
    return EpochT::make(Tid, static_cast<RawT>(VC.get(Tid)));
  EpochT H = inflateRaw();
  Clocks[handleOf(H)] = std::move(VC);
  return H;
}

/// Folds page \p PI (resident or compressed) into one page-granularity
/// summary slot: W and R become the per-tid joins of every slot's write
/// and read history — exactly the shadow-side image of the degradation
/// ladder's ShadowPageVars rung. Joining only grows the histories a
/// later access is checked against, so no race is missed; distinct
/// variables' histories may now alias, so warnings can coarsen to the
/// page region (and that is the documented, reported precision loss).
template <typename EpochT> void ShadowTable<EpochT>::summarizePage(size_t PI) {
  PageMeta &M = Meta[PI];
  std::vector<Slot> Buf;
  const Slot *Slots = nullptr;
  const uint32_t Used = slotsInPage(PI);
  const bool WasResident = M.State == ShadowPageState::Resident;
  if (WasResident) {
    assert(Dir[PI]);
    Slots = Dir[PI]->Slots;
  } else {
    assert(M.State == ShadowPageState::Compressed);
    Buf.resize(PageSize);
    const CompressedPage &C = *M.Packed;
    for (uint32_t I = 0; I != PageSize; ++I)
      if (C.Occupied[I >> 6] & (uint64_t(1) << (I & 63)))
        Buf[I].W = EpochT::fromRaw(
            C.Deltas ? static_cast<RawT>(C.BaseW + C.Deltas[I]) : C.BaseW);
    Slots = Buf.data();
    Bytes -= compressedBytes(C);
    M.Packed.reset();
  }

  VectorClock WJoin, RJoin;
  for (uint32_t I = 0; I != Used; ++I) {
    const Slot &S = Slots[I];
    if (S.W.raw() != 0) {
      assert(!isInflated(S.W) && "pages never hold inflated write state");
      if (WJoin.get(S.W.tid()) < static_cast<ClockValue>(S.W.clock()))
        WJoin.set(S.W.tid(), static_cast<ClockValue>(S.W.clock()));
    }
    if (S.R.raw() == 0)
      continue;
    if (isInflated(S.R)) {
      RJoin.joinWith(Clocks[handleOf(S.R)]);
      deflate(S.R); // handle parks on the free list for reuse
    } else if (RJoin.get(S.R.tid()) < static_cast<ClockValue>(S.R.clock())) {
      RJoin.set(S.R.tid(), static_cast<ClockValue>(S.R.clock()));
    }
  }

  Slot Sum;
  Sum.W = foldClock(std::move(WJoin));
  Sum.R = foldClock(std::move(RJoin));
  if (WasResident) {
    delete Dir[PI];
    Dir[PI] = nullptr;
    --Resident;
    Bytes -= sizeof(Page);
  }
  M.State = ShadowPageState::Summarized;
  M.Summary = Sum;
  ++Stats.PagesSummarized;
}

/// Summarizes cold pages oldest-first. Only pages untouched in the
/// current generation are candidates, so a slot reference held by the
/// in-flight access rule (its page was just stamped) can never dangle.
/// With \p StopAtFreeHandle the pass stops as soon as a deflated handle
/// is available (the inflate-denial path); otherwise it stops at the low
/// watermark, or stalls until the next generation if everything left is
/// hot.
template <typename EpochT>
void ShadowTable<EpochT>::shedColdPages(bool StopAtFreeHandle) {
  std::vector<std::pair<uint32_t, uint32_t>> Cold;
  for (size_t PI = 0, E = Dir.size(); PI != E; ++PI) {
    const PageMeta &M = Meta[PI];
    if ((M.State == ShadowPageState::Resident ||
         M.State == ShadowPageState::Compressed) &&
        M.LastTouch < Gen)
      Cold.push_back({M.LastTouch, static_cast<uint32_t>(PI)});
  }
  // Oldest first; the page index breaks ties, so the order — and with it
  // every downstream warning — is a deterministic function of the stream.
  std::sort(Cold.begin(), Cold.end());
  const uint64_t Low = lowWaterBytes();
  for (const auto &Cand : Cold) {
    if (StopAtFreeHandle && !FreeHandles.empty())
      return;
    if (!StopAtFreeHandle && Bytes <= Low)
      return;
    summarizePage(Cand.second);
  }
  if (!StopAtFreeHandle && Bytes > Low)
    ShedStalled = true;
}

template <typename EpochT>
bool ShadowTable<EpochT>::readPageContent(size_t PI, Slot *Out) const {
  const ShadowPageState St = pageStateAt(PI);
  if (St == ShadowPageState::Untouched || St == ShadowPageState::Summarized)
    return false;
  if (const Page *P = Dir[PI]) {
    std::copy(P->Slots, P->Slots + PageSize, Out);
    return true;
  }
  std::fill(Out, Out + PageSize, Slot{});
  const CompressedPage &C = *Meta[PI].Packed;
  for (uint32_t I = 0; I != PageSize; ++I)
    if (C.Occupied[I >> 6] & (uint64_t(1) << (I & 63)))
      Out[I].W = EpochT::fromRaw(
          C.Deltas ? static_cast<RawT>(C.BaseW + C.Deltas[I]) : C.BaseW);
  return true;
}

namespace ft {
template class ShadowTable<Epoch>;
template class ShadowTable<Epoch64>;
} // namespace ft
