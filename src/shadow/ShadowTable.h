//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compressed two-level shadow map backing FastTrack's per-variable
/// state (docs/ARCHITECTURE.md, "Shadow memory").
///
/// FastTrack's whole thesis is that the common-case access touches O(1)
/// shadow state, yet a naive per-variable record charges every variable
/// for the rare case: two epochs plus an inline read vector clock that
/// only the ~0.1 % read-shared variables ever materialize, laid out AoS
/// in a flat array pre-sized to the declared variable count. This file
/// applies the production shape used by Valgrind-family tools (two-level
/// shadow maps with compressed per-address states) and Helgrind+ (shadow
/// values packed into machine words):
///
///   - **Primary map, level 1**: a page directory indexed by
///     `VarId >> ShadowPageShift`. A null entry is the distinguished
///     compact state for a never-accessed region — it costs one pointer
///     regardless of how many variables the region declares.
///   - **Primary map, level 2**: fixed-size pages allocated on first
///     touch. A page holds the packed hot fields only — write epoch W
///     and read epoch R side by side, so the same-epoch fast paths and
///     the O(1) race checks read exactly one cache line (~8 variables
///     per line with 32-bit epochs). Spaces at or below
///     ShadowEagerVarLimit skip lazy faulting: one contiguous block
///     backs every page and accesses go through a flat pointer, so small
///     programs pay zero indirection over the dense layout.
///   - **Side store**: the rare read-shared vector clocks are hoisted
///     out of the per-variable record into a per-table array keyed by a
///     compact handle. The handle reuses R's tag bits: the top tid value
///     of the epoch layout is reserved as the READ_SHARED tag (it was
///     already burned by the all-ones sentinel) and the clock bits carry
///     the side-store index. Inflation and deflation therefore move a
///     4-byte handle instead of carrying 32+ inline bytes per variable
///     forever, and freed handles park on a free list so a
///     deflate → re-inflate cycle recycles both the handle and the
///     clock's heap buffer (the Figure 5 Rvc-recycling behaviour,
///     table-wide instead of per-variable).
///   - **Memory governance** (opt-in via ShadowMemoryPolicy): pages carry
///     a last-touch generation stamp; a periodic maintenance tick
///     (deterministically keyed on dispatched accesses, never wall clock)
///     compresses cold write-only pages into lossless same-epoch/
///     delta-packed encodings that decompress bit-identically on the next
///     touch, and releases cold all-bottom pages outright. Under a byte
///     budget, crossing the high watermark arms *pressure shedding*: cold
///     pages are summarized — oldest first — down to one page-granularity
///     slot holding the per-tid join of the page's write and read
///     histories. That is exactly the fold of the degradation ladder's
///     ShadowPageVars rung applied in place: warnings may coarsen to the
///     page region, but no race is missed (joins only grow the histories
///     a conflicting access is checked against). Shedding disarms at the
///     low watermark (hysteresis). Because every decision is a function
///     of the delivered access stream, a governed capture replays to
///     identical warnings.
///
/// Consequences the rest of the system relies on:
///   - shadow RSS is proportional to *touched pages*, not the declared
///     variable count — million-variable address spaces cost kilobytes
///     until touched — and under a governed budget it is *bounded*;
///   - the hot slot is 2×sizeof(EpochT) (8 bytes for the paper's 32-bit
///     layout, down from 48 with the inline-VC record), so dense scans
///     stream 6x less shadow memory;
///   - sharded clones fault in only the pages their shard's variables
///     live on, making per-shard shadow an LLC-friendly slice for free;
///   - the degradation ladder's final coarse-granularity rung folds
///     exactly one shadow page region onto one shadow slot
///     (ShadowPageVars fields per object, framework/Degrade.h), so both
///     the degraded shadow and a summarized page are one slot per page
///     of the fine-grained table.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_SHADOW_SHADOWTABLE_H
#define FASTTRACK_SHADOW_SHADOWTABLE_H

#include "clock/VectorClock.h"
#include "shadow/ShadowPolicy.h"
#include "trace/Ids.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ft {

/// Shadow page geometry, shared by both epoch layouts (and by the
/// degradation ladder, whose final rung maps one page region to one
/// shadow slot — see framework/Degrade.h). 512 slots keep a
/// 32-bit-epoch page at exactly one 4 KiB allocation.
inline constexpr uint32_t ShadowPageShift = 9;
inline constexpr uint32_t ShadowPageVars = 1u << ShadowPageShift;

/// Variable spaces up to this size are backed eagerly by one contiguous
/// page block and accessed flat, skipping the directory's dependent load
/// (measurably ~6 % of FastTrack's replay overhead on cache-resident
/// workloads). Compression has nothing to win below this: the whole
/// fine-grained shadow is at most a megabyte. Above it, pages fault in
/// on first touch and footprint follows touched pages.
inline constexpr size_t ShadowEagerVarLimit = 64 * 1024;

/// Lifecycle of one shadow page region under the paged layout. Eager
/// tables have no per-page lifecycle (every page is resident forever).
enum class ShadowPageState : uint8_t {
  Untouched,  ///< Null directory entry, no encoded state: all slots ⊥.
  Resident,   ///< Backed by a materialized Page.
  Compressed, ///< Cold write-only page, held as a lossless packed image.
  Summarized, ///< Folded to one page-granularity summary slot (pressure).
};

/// The two-level SoA shadow map over epoch representation \p EpochT.
///
/// The table owns storage and representation only; the FastTrack rules
/// that interpret W/R live in core/FastTrack.cpp. Thread-count contract:
/// the top tid of the epoch layout is the READ_SHARED handle tag, so
/// detectors using this table admit at most EpochT::MaxTid threads
/// (255 / 65535), one fewer than the raw epoch packing.
///
/// **Governed tables may hand out an inflated W.** A summarized page
/// whose cold writes came from multiple threads joins them into a
/// side-store vector clock, tagged into W exactly like a read-shared R.
/// Detectors must branch on isInflated(W) before epoch-comparing it. A
/// summary's W and R fold every variable of the page, so W = E(t) or
/// R = E(t) there may come from another variable: detectors must not
/// apply same-epoch rules to a summary. residentSlot() never returns one.
template <typename EpochT> class ShadowTable {
public:
  using RawT = decltype(EpochT().raw());

  static constexpr uint32_t PageShift = ShadowPageShift;
  static constexpr uint32_t PageSize = ShadowPageVars;
  static constexpr uint32_t PageMask = PageSize - 1;

  /// Widest raw-epoch span a delta-packed page can encode (u8 deltas).
  static constexpr RawT MaxDelta = 255;

  /// The packed hot pair. W and R are adjacent so every Figure 2 rule's
  /// O(1) checks (same-epoch, Wx ≼ Ct, epoch-Rx ≼ Ct) read one line.
  struct Slot {
    EpochT W;
    EpochT R;
  };

  /// A level-2 page: nothing but slots, zero-initialized to ⊥ on fault-in.
  struct Page {
    Slot Slots[PageSize];
  };

  /// Lossless packed image of a cold write-only page. Uniform pages
  /// (every occupied W identical) drop the delta array entirely; near-
  /// uniform pages (raw span ≤ MaxDelta) pack one byte per slot. Either
  /// way decompression is pure integer reconstruction — BaseW + delta —
  /// so the expanded page is bit-identical to the one compressed.
  struct CompressedPage {
    RawT BaseW = 0;                     ///< Smallest occupied raw W.
    uint64_t Occupied[PageSize / 64] = {}; ///< Bitmap of non-⊥ slots.
    std::unique_ptr<uint8_t[]> Deltas;  ///< Null = uniform page.
  };

  ShadowTable() = default;
  ShadowTable(const ShadowTable &) = delete;
  ShadowTable &operator=(const ShadowTable &) = delete;
  ~ShadowTable() { releasePages(); }

  /// Installs the governance policy. Takes effect at the next reset()
  /// (Tool::begin), so a running table's representation never changes
  /// under an in-flight rule.
  void setPolicy(const ShadowMemoryPolicy &P) { Policy = P; }
  const ShadowMemoryPolicy &policy() const { return Policy; }

  /// True when this table is actively governing (policy enabled and the
  /// space is paged — eager tables are at most a megabyte and exempt).
  bool governed() const { return Governed; }

  /// Telemetry accumulated since the last reset().
  const ShadowGovernorStats &governorStats() const { return Stats; }

  /// Re-sizes the directory for \p NumVars variables and drops all pages
  /// and side-store state (Tool::begin semantics). Spaces at or below
  /// ShadowEagerVarLimit are materialized as one contiguous block (the
  /// directory still points into it, so snapshot iteration is uniform);
  /// larger spaces start empty and fault pages in on first touch.
  void reset(size_t NumVars) {
    releasePages();
    const size_t NumPages = (NumVars + PageMask) >> PageShift;
    Dir.assign(NumPages, nullptr);
    Vars = NumVars;
    Resident = 0;
    Clocks.clear();
    FreeHandles.clear();
    Live = 0;
    Stats = ShadowGovernorStats();
    Gen = 1;
    PageAllocs = 0;
    InflateAllocs = 0;
    SheddingArmed = false;
    ShedStalled = false;
    Meta.clear();
    const bool Eager = NumVars != 0 && NumVars <= ShadowEagerVarLimit;
    if (Eager) {
      materializeEagerly(NumPages);
    } else {
      // Per-page lifecycle state exists for every paged table (a restored
      // checkpoint may install summarized pages even when ungoverned);
      // only the temperature stamping and maintenance are gated.
      Meta.resize(NumPages);
    }
    Governed = Policy.Enabled && !Eager;
    Bytes = Governed ? memoryBytes() : 0;
    if (Governed)
      Stats.ShadowBytesHighWater = Bytes;
  }

  /// The hot-path accessor: returns the slot for \p X, or null when X's
  /// region holds no resident page (never accessed, compressed or
  /// summarized). Small tables take the flat path — identical address
  /// arithmetic to the dense layout behind one always-predicted branch.
  /// Large tables pay one extra (cache-resident) directory load; the
  /// directory is 8 bytes per 512 variables. A non-null slot is never a
  /// page summary, so callers may apply per-variable rules to it.
  Slot *residentSlot(VarId X) {
    assert(X < Vars && "variable id outside the shadow table");
    if (__builtin_expect(FlatSlots != nullptr, 1))
      return &FlatSlots[X];
    const size_t PI = X >> PageShift;
    Page *P = Dir[PI];
    if (__builtin_expect(P == nullptr, 0))
      return nullptr;
    if (__builtin_expect(Governed, 0))
      Meta[PI].LastTouch = Gen;
    return &P->Slots[X & PageMask];
  }

  /// Returns the slot for \p X, faulting the page in on first touch.
  /// Compressed and summarized regions route through the cold path:
  /// compressed pages re-expand bit-identically, summarized regions serve
  /// their single page-granularity slot.
  Slot &slot(VarId X) {
    if (Slot *S = residentSlot(X); __builtin_expect(S != nullptr, 1))
      return *S;
    return coldSlot(X, X >> PageShift);
  }

  /// One governance maintenance tick. Call cadence defines the
  /// temperature clock (ShadowMemoryPolicy::MaintainEveryAccesses): the
  /// generation advances, pages that just crossed ColdAgeTicks without a
  /// touch are compressed (or released when all-⊥), the byte count is
  /// resynced exactly, and the watermarks are re-evaluated. No-op when
  /// not governed.
  void maintain();

  /// \name READ_SHARED handles (R's tag bits).
  /// @{

  /// True when \p R carries a side-store handle rather than a read epoch.
  static constexpr bool isInflated(EpochT R) {
    return (R.raw() >> EpochT::ClockBits) == EpochT::MaxTid;
  }

  /// The side-store index carried by an inflated \p R.
  static constexpr uint32_t handleOf(EpochT R) {
    return static_cast<uint32_t>(R.raw() & EpochT::MaxClock);
  }

  /// Packs side-store index \p H into the reserved-tid tag space.
  static EpochT handleEpoch(uint32_t H) {
    return EpochT::fromRaw((RawT(EpochT::MaxTid) << EpochT::ClockBits) |
                           RawT(H));
  }

  /// Allocates a side-store clock (recycling a freed handle and its
  /// buffer when one is parked) and returns the tagged R value for it.
  /// The clock is ⊥ — recycled buffers are zeroed here, because stale
  /// entries predate the write that deflated them and would raise false
  /// alarms if kept. Governed tables route fresh growth through the
  /// injected allocation-failure gate: a denied growth arms pressure
  /// shedding — which refills the free list by deflating summarized
  /// pages' handles — and retries recycling before falling back.
  EpochT inflate() {
    if (__builtin_expect(Governed, 0) && FreeHandles.empty())
      takeInflateFault();
    return inflateRaw();
  }

  /// Restore-path inflation: assigns a handle without consulting the
  /// policy's fault gate, so checkpoint restore never consumes injected
  /// fault ordinals (those belong to the replayed access stream).
  EpochT inflateForRestore() { return inflateRaw(); }

  /// Returns the inflated \p R's handle to the free list. The clock's
  /// buffer is kept for the next inflation.
  void deflate(EpochT R) {
    assert(isInflated(R));
    FreeHandles.push_back(handleOf(R));
    --Live;
  }

  /// The read vector clock behind an inflated \p R.
  VectorClock &clockFor(EpochT R) {
    assert(isInflated(R));
    return Clocks[handleOf(R)];
  }
  const VectorClock &clockFor(EpochT R) const {
    assert(isInflated(R));
    return Clocks[handleOf(R)];
  }

  /// Currently inflated (read-shared) variables.
  uint64_t inflatedStates() const { return Live; }

  /// Side-store slots ever materialized (high-water mark; freed handles
  /// stay allocated for reuse).
  size_t sideStoreSlots() const { return Clocks.size(); }

  /// @}

  /// \name Geometry and snapshot iteration (no faulting).
  /// @{

  size_t numVars() const { return Vars; }
  size_t numPages() const { return Dir.size(); }
  size_t residentPages() const { return Resident; }

  /// True for lazily-paged tables (per-page lifecycle states exist).
  bool paged() const { return !Meta.empty(); }

  /// The page for index \p PI, or null when the region holds no
  /// materialized page (never-accessed, compressed, or summarized —
  /// disambiguate with pageStateAt).
  const Page *pageAt(size_t PI) const { return Dir[PI]; }

  /// Lifecycle state of page \p PI (eager tables are always Resident).
  ShadowPageState pageStateAt(size_t PI) const {
    if (!Meta.empty())
      return Meta[PI].State;
    return Dir[PI] ? ShadowPageState::Resident : ShadowPageState::Untouched;
  }

  /// Materializes the logical slot contents of page \p PI into \p Out
  /// (PageSize entries, ⊥-filled first) without faulting or mutating —
  /// compressed pages are expanded into \p Out, so a snapshot of a
  /// compressed page is byte-identical to one of its resident twin.
  /// \returns false when the page has no per-slot content (Untouched or
  /// Summarized).
  bool readPageContent(size_t PI, Slot *Out) const;

  /// The summary slot serving \p X when X's page is Summarized, touched
  /// as slot() touches it; null otherwise. The detectors' cold path
  /// serves summaries through this without slot()'s call to coldSlot.
  Slot *summarySlot(VarId X) {
    const size_t PI = X >> PageShift;
    if (Meta.empty() || Meta[PI].State != ShadowPageState::Summarized)
      return nullptr;
    if (Governed)
      Meta[PI].LastTouch = Gen;
    return &Meta[PI].Summary;
  }

  /// The page-granularity summary slot of a Summarized page.
  const Slot &summaryAt(size_t PI) const {
    assert(pageStateAt(PI) == ShadowPageState::Summarized);
    return Meta[PI].Summary;
  }

  /// Installs \p S as page \p PI's summary slot (checkpoint restore of a
  /// kPageSummarized record). The page must hold no materialized state.
  void installSummary(size_t PI, const Slot &S) {
    assert(!Meta.empty() && "summarized pages require a paged table");
    assert(Dir[PI] == nullptr && "summary would shadow a materialized page");
    Meta[PI].State = ShadowPageState::Summarized;
    Meta[PI].Summary = S;
  }

  /// Slots of page \p PI that map to declared variables (the last page
  /// may be partial).
  uint32_t slotsInPage(size_t PI) const {
    size_t Base = PI << PageShift;
    size_t Left = Vars - Base;
    return Left < PageSize ? static_cast<uint32_t>(Left) : PageSize;
  }

  /// @}

  /// Bytes owned by the table: the directory, resident pages, page
  /// lifecycle metadata and compressed images, the side store's slot
  /// array and any heap-spilled (ClockArena) clock buffers, and the
  /// handle free list. Walking the side store is O(inflation
  /// high-water), matching the amortized contract of shadowBytes()
  /// probes.
  size_t memoryBytes() const {
    size_t Total = Dir.capacity() * sizeof(Page *) + Resident * sizeof(Page);
    Total += Meta.capacity() * sizeof(PageMeta);
    for (const PageMeta &M : Meta)
      if (M.Packed)
        Total += compressedBytes(*M.Packed);
    Total += Clocks.capacity() * sizeof(VectorClock);
    for (const VectorClock &Clock : Clocks)
      Total += Clock.memoryBytes();
    Total += FreeHandles.capacity() * sizeof(uint32_t);
    return Total;
  }

private:
  /// Per-page governance state, allocated for every paged table (24-32
  /// bytes per 512 variables; the stamping is what's gated on Governed).
  struct PageMeta {
    uint32_t LastTouch = 0; ///< Generation of the last slot() touch.
    ShadowPageState State = ShadowPageState::Untouched;
    std::unique_ptr<CompressedPage> Packed; ///< When State == Compressed.
    Slot Summary{};                         ///< When State == Summarized.
  };

  static size_t compressedBytes(const CompressedPage &C) {
    return sizeof(CompressedPage) + (C.Deltas ? PageSize : 0);
  }

  uint64_t highWaterBytes() const {
    return static_cast<uint64_t>(static_cast<double>(Policy.BudgetBytes) *
                                 Policy.HighWaterFrac);
  }
  uint64_t lowWaterBytes() const {
    return static_cast<uint64_t>(static_cast<double>(Policy.BudgetBytes) *
                                 Policy.LowWaterFrac);
  }

  Page *faultIn(size_t PI); // out of line: first touch is the cold path
  Slot &coldSlot(VarId X, size_t PI);
  void materializeEagerly(size_t NumPages);
  void releasePages() noexcept;

  /// The side-store allocation with no fault gate (internal joins and
  /// checkpoint restore must not consume injected-fault ordinals).
  EpochT inflateRaw() {
    uint32_t H;
    if (!FreeHandles.empty()) {
      H = FreeHandles.back();
      FreeHandles.pop_back();
      Clocks[H].resetToBottom();
    } else {
      H = static_cast<uint32_t>(Clocks.size());
      assert(RawT(H) < EpochT::MaxClock &&
             "side-store handle space exhausted for this epoch layout");
      Clocks.emplace_back();
    }
    ++Live;
    return handleEpoch(H);
  }

  bool takePageAllocFault();
  void takeInflateFault();
  void notePressure();
  bool compressPage(size_t PI);
  Page *decompressPage(size_t PI);
  void summarizePage(size_t PI);
  void shedColdPages(bool StopAtFreeHandle);
  EpochT foldClock(VectorClock &&VC);

  std::vector<Page *> Dir;        ///< Level 1: null = no materialized page.
  /// Flat view of the eager block for small tables (null when paging).
  /// Page holds nothing but its slot array, so the block's slots are
  /// contiguous and FlatSlots[X] is exactly Dir[X >> 9]->Slots[X & 511].
  Slot *FlatSlots = nullptr;
  std::unique_ptr<Page[]> EagerBlock; ///< Owns the contiguous small-table pages.
  size_t Vars = 0;                ///< Declared variable count.
  size_t Resident = 0;            ///< Pages faulted in (all, when eager).
  std::vector<PageMeta> Meta;     ///< Per-page lifecycle (paged mode only).
  std::vector<VectorClock> Clocks;///< Side store, indexed by handle.
  std::vector<uint32_t> FreeHandles; ///< Deflated handles awaiting reuse.
  uint64_t Live = 0;              ///< Handles currently in use.

  // --- governance state (see shadow/ShadowPolicy.h) ---
  ShadowMemoryPolicy Policy;
  ShadowGovernorStats Stats;
  bool Governed = false;
  bool SheddingArmed = false; ///< High watermark crossed, not yet back
                              ///< under the low one.
  bool ShedStalled = false;   ///< A shed pass could not reach the low
                              ///< watermark (everything left is hot);
                              ///< suppresses rescans until the next
                              ///< generation creates new cold candidates.
  uint32_t Gen = 1;           ///< Temperature generation (maintain ticks).
  /// Running byte estimate between maintenance ticks: page fault-ins,
  /// compressions, and releases update it immediately (the fault-in /
  /// inflation budget probes read it); side-store growth and container
  /// capacity drift are folded in by maintain()'s exact resync.
  uint64_t Bytes = 0;
  uint64_t PageAllocs = 0;    ///< Page allocations attempted (fault
                              ///< ordinal space for FailPageAllocAt).
  uint64_t InflateAllocs = 0; ///< Fresh side-store growths attempted
                              ///< (ordinal space for FailInflateAt).
};

extern template class ShadowTable<Epoch>;
extern template class ShadowTable<Epoch64>;

} // namespace ft

#endif // FASTTRACK_SHADOW_SHADOWTABLE_H
