//===--- ShadowTableTest.cpp - the paged SoA shadow subsystem -------------===//
//
// Exercises shadow/ShadowTable.h both directly (page lifecycle, handle
// recycling, memory accounting) and through FastTrack (checkpoint images
// over the paged layout, legacy dense-image back-compat, recycled thread
// slots inside side-store clocks, and warning-for-warning equivalence
// against an independent dense AoS implementation of the same rules).
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "framework/Checkpoint.h"
#include "framework/Replay.h"
#include "shadow/ShadowTable.h"
#include "support/ByteStream.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"

#include "DenseShadowReference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace ft;

namespace {

std::string shadowImage(const FastTrack &Tool) {
  ByteWriter Writer;
  Tool.snapshotShadow(Writer);
  return std::string(Writer.bytes());
}

/// Drives \p Checker over \p T exactly like the serial replay loop, but
/// in the open — so tests can probe or snapshot between operations.
/// \p From / \p To bound the dispatched range (checkpoint-resume style).
void drive(Tool &Checker, const Trace &T, size_t From, size_t To) {
  for (size_t I = From; I != To; ++I) {
    const Operation &Op = T[I];
    if (Op.Kind == OpKind::Read)
      Checker.onRead(Op.Thread, Op.Target, I);
    else if (Op.Kind == OpKind::Write)
      Checker.onWrite(Op.Thread, Op.Target, I);
    else
      dispatchSyncOp(Checker, T, Op, I);
  }
}

ToolContext contextFor(const Trace &T) {
  return makeToolContext(T, GranularityMap());
}

void expectSameWarnings(const std::vector<RaceWarning> &Expected,
                        const std::vector<RaceWarning> &Actual,
                        const char *Where) {
  ASSERT_EQ(Expected.size(), Actual.size()) << Where;
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(Expected[I].Var, Actual[I].Var) << Where << " #" << I;
    EXPECT_EQ(Expected[I].OpIndex, Actual[I].OpIndex) << Where << " #" << I;
    EXPECT_EQ(Expected[I].CurrentThread, Actual[I].CurrentThread)
        << Where << " #" << I;
    EXPECT_EQ(Expected[I].PriorThread, Actual[I].PriorThread)
        << Where << " #" << I;
    EXPECT_EQ(Expected[I].Detail, Actual[I].Detail) << Where << " #" << I;
  }
}

/// Exposes the clocks-section length of a serialized image (needed to
/// splice images byte-level).
class ClockCodec : public VectorClockToolBase {
public:
  const char *name() const override { return "ClockCodec"; }

  /// Length in bytes of the C/L clocks section at the head of a
  /// FastTrack shadow image for \p T.
  static size_t clocksSectionLength(const Trace &T, std::string_view Image) {
    ClockCodec Tool;
    Tool.begin(contextFor(T));
    ByteReader Reader(Image);
    EXPECT_TRUE(Tool.restoreClocks(Reader));
    return Image.size() - Reader.remaining();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Direct table tests
//===----------------------------------------------------------------------===//

TEST(ShadowTable, PagesFaultInOnFirstTouchOnly) {
  // Above the eager limit the table starts empty and pays per touch.
  constexpr size_t NumVars = 2 * ShadowEagerVarLimit;
  constexpr size_t NumPages = NumVars / ShadowPageVars;
  ShadowTable<Epoch> Table;
  Table.reset(NumVars);
  EXPECT_EQ(Table.numPages(), NumPages);
  EXPECT_EQ(Table.residentPages(), 0u);

  Table.slot(0).W = Epoch::make(1, 7);
  EXPECT_EQ(Table.residentPages(), 1u);
  Table.slot(ShadowPageVars - 1).R = Epoch::make(2, 3); // same page
  EXPECT_EQ(Table.residentPages(), 1u);
  Table.slot(NumVars - ShadowPageVars).W = Epoch::make(1, 9); // last page
  EXPECT_EQ(Table.residentPages(), 2u);

  // Slots persist across faults and unrelated touches.
  EXPECT_EQ(Table.slot(0).W, Epoch::make(1, 7));
  EXPECT_EQ(Table.slot(ShadowPageVars - 1).R, Epoch::make(2, 3));

  // reset() tears every page down.
  Table.reset(NumVars);
  EXPECT_EQ(Table.residentPages(), 0u);
  EXPECT_EQ(Table.slot(0).W.raw(), Epoch().raw());
}

TEST(ShadowTable, SmallTablesMaterializeEagerly) {
  // At or below the eager limit the whole space is resident from reset:
  // the flat fast path must behave exactly like the paged one, and the
  // footprint is still a fraction of the dense AoS layout's.
  ShadowTable<Epoch> Table;
  Table.reset(10 * ShadowPageVars);
  EXPECT_EQ(Table.numPages(), 10u);
  EXPECT_EQ(Table.residentPages(), 10u);

  Table.slot(7).W = Epoch::make(1, 7);
  Table.slot(9 * ShadowPageVars + 1).R = Epoch::make(2, 3);
  EXPECT_EQ(Table.slot(7).W, Epoch::make(1, 7));
  EXPECT_EQ(Table.pageAt(9)->Slots[1].R, Epoch::make(2, 3));
  EXPECT_EQ(Table.pageAt(0)->Slots[7].W, Epoch::make(1, 7));

  // reset() zeroes eager tables too.
  Table.reset(10 * ShadowPageVars);
  EXPECT_EQ(Table.slot(7).W.raw(), Epoch().raw());
}

TEST(ShadowTable, UntouchedMillionVarTableCostsOnlyTheDirectory) {
  ShadowTable<Epoch> Table;
  Table.reset(1u << 20);
  // 2048 directory pointers plus 2048 page-lifecycle records (the
  // governance metadata exists for every paged table so checkpoint
  // restore can install summarized pages); no pages, no side store.
  EXPECT_EQ(Table.residentPages(), 0u);
  EXPECT_LT(Table.memoryBytes(), 96u * 1024);
  // Dense AoS at 48 bytes/var (2 epochs + inline VC) would be ~48 MiB.
  EXPECT_LT(Table.memoryBytes() * 100, (1u << 20) * 48u);
}

TEST(ShadowTable, HandleRoundTripAndTagIsolation) {
  using Table = ShadowTable<Epoch>;
  // No real epoch — any tid the detector admits, any clock — ever looks
  // like a handle: the tag tid is reserved.
  for (ThreadId T = 0; T != Epoch::MaxTid; ++T) {
    EXPECT_FALSE(Table::isInflated(Epoch::make(T, 0)));
    EXPECT_FALSE(Table::isInflated(Epoch::make(T, Epoch::MaxClock)));
  }
  EXPECT_FALSE(Table::isInflated(Epoch()));
  EXPECT_TRUE(Table::isInflated(Epoch::readShared()));
  for (uint32_t H : {0u, 1u, 513u}) {
    Epoch E = Table::handleEpoch(H);
    EXPECT_TRUE(Table::isInflated(E));
    EXPECT_EQ(Table::handleOf(E), H);
  }
}

TEST(ShadowTable, InflateDeflateRecyclesHandleAndBuffer) {
  ShadowTable<Epoch> Table;
  Table.reset(ShadowPageVars);

  Epoch H1 = Table.inflate();
  Table.clockFor(H1).set(3, 17);
  EXPECT_EQ(Table.inflatedStates(), 1u);
  EXPECT_EQ(Table.sideStoreSlots(), 1u);

  Table.deflate(H1);
  EXPECT_EQ(Table.inflatedStates(), 0u);
  EXPECT_EQ(Table.sideStoreSlots(), 1u); // buffer parked, not freed

  // Re-inflation reuses the parked handle — and hands back a ⊥ clock:
  // the old entries predate the deflating write and must not leak.
  Epoch H2 = Table.inflate();
  EXPECT_EQ(ShadowTable<Epoch>::handleOf(H2),
            ShadowTable<Epoch>::handleOf(H1));
  EXPECT_EQ(Table.sideStoreSlots(), 1u);
  EXPECT_EQ(Table.clockFor(H2).get(3), 0u);

  // A second concurrent inflation grows the store.
  Epoch H3 = Table.inflate();
  EXPECT_NE(ShadowTable<Epoch>::handleOf(H3),
            ShadowTable<Epoch>::handleOf(H2));
  EXPECT_EQ(Table.sideStoreSlots(), 2u);
  EXPECT_EQ(Table.inflatedStates(), 2u);
}

TEST(ShadowTable, HeapSpilledSideStoreClocksAreAccounted) {
  // Regression: a read VC wider than VectorClock::InlineCapacity spills
  // to a heap (ClockArena) block; memoryBytes() must charge those bytes
  // or budget probes under-account read-shared-heavy workloads.
  ShadowTable<Epoch> Table;
  Table.reset(ShadowPageVars);
  Epoch H = Table.inflate();
  size_t Inline = Table.memoryBytes();

  Table.clockFor(H).set(VectorClock::InlineCapacity + 4, 9);
  size_t Spilled = Table.memoryBytes();
  EXPECT_EQ(Spilled - Inline, Table.clockFor(H).memoryBytes());
  EXPECT_GE(Spilled - Inline,
            (VectorClock::InlineCapacity + 5) * sizeof(ClockValue));
}

//===----------------------------------------------------------------------===//
// Detector-level tests
//===----------------------------------------------------------------------===//

TEST(ShadowTable, FastTrackResidencyTracksTouchedPagesNotNumVars) {
  // A million declared variables, a handful touched, spread across five
  // page regions: shadow cost must follow the touches.
  TraceBuilder B;
  B.fork(0, 1);
  for (VarId X : {0u, 5u, 600u, 601u, 300000u, 300100u, 999999u})
    B.wr(1, X).rd(1, X);
  B.join(0, 1);
  B.wr(0, 999999); // keep the last page's id the trace's max var
  Trace T = B.take();
  ASSERT_EQ(T.numVars(), 1000000u);

  FastTrack Tool;
  replay(T, Tool);
  EXPECT_TRUE(Tool.warnings().empty());
  // {0,5} and {600,601} share pages 0 and 1; 300000 and 300100 land on
  // pages 585 and 586; 999999 on page 1953.
  EXPECT_EQ(Tool.residentShadowPages(), 5u);
  // Dense AoS shadow was ~48 MiB here; the paged table stays well under
  // 1 MiB (directory + 5 pages).
  EXPECT_LT(Tool.shadowBytes(), 1u << 20);
}

TEST(ShadowTable, SpilledReadSharedClockMovesDetectorShadowBytes) {
  // Budget-probe view of the spill regression: once a variable is read
  // by more threads than fit inline, shadowBytes() must jump by at least
  // the spilled buffer. Twelve workers read x0 with no ordering between
  // their reads (each is forked and joined by thread 0 independently, so
  // reads stay concurrent and the state stays read-shared).
  constexpr unsigned Readers = 12;
  static_assert(Readers > VectorClock::InlineCapacity,
                "must exceed the inline clock to force an arena spill");
  TraceBuilder B;
  for (unsigned T = 1; T <= Readers; ++T)
    B.fork(0, T);
  for (unsigned T = 1; T <= Readers; ++T)
    B.rd(T, 0);
  for (unsigned T = 1; T <= Readers; ++T)
    B.join(0, T);
  Trace T = B.take();

  FastTrack Tool;
  Tool.begin(contextFor(T));
  size_t Before = Tool.shadowBytes();
  drive(Tool, T, 0, T.size());
  Tool.end();
  EXPECT_TRUE(Tool.warnings().empty());
  EXPECT_EQ(Tool.inflatedReadStates(), 1u);
  EXPECT_GE(Tool.shadowBytes(),
            Before + (Readers + 1) * sizeof(ClockValue));
}

TEST(ShadowTable, CheckpointRoundTripIsBitIdenticalAndResumable) {
  RandomTraceConfig Config;
  Config.Seed = 99;
  Config.NumThreads = 5;
  Config.NumVars = 3 * ShadowPageVars; // spans pages
  Config.OpsPerThread = 300;
  Config.ChaosProbability = 0.2;
  Trace T = generateRandomTrace(Config);

  FastTrack Reference;
  Reference.begin(contextFor(T));
  const size_t Cut = T.size() / 2;
  drive(Reference, T, 0, Cut);
  std::string Mid = shadowImage(Reference);
  const uint64_t MidInflated = Reference.inflatedReadStates();
  drive(Reference, T, Cut, T.size());
  Reference.end();
  std::string Final = shadowImage(Reference);

  // Restore the mid-trace image into a fresh tool and replay the rest:
  // the result must be byte-identical, warnings included.
  FastTrack Resumed;
  Resumed.begin(contextFor(T));
  ByteReader Reader(Mid);
  ASSERT_TRUE(Resumed.restoreShadow(Reader));
  EXPECT_EQ(shadowImage(Resumed), Mid); // restore → snapshot is identity
  EXPECT_EQ(Resumed.inflatedReadStates(), MidInflated);
  drive(Resumed, T, Cut, T.size());
  Resumed.end();
  EXPECT_EQ(shadowImage(Resumed), Final);

  std::vector<RaceWarning> Suffix(
      Reference.warnings().begin() +
          static_cast<ptrdiff_t>(Reference.warnings().size() -
                                 Resumed.warnings().size()),
      Reference.warnings().end());
  expectSameWarnings(Suffix, Resumed.warnings(), "resumed suffix");
}

TEST(ShadowTable, SnapshotIsCanonicalUnderHandlePermutation) {
  // Inflate x520 before x5, so the live tool's side store numbers them
  // handle 0 and 1 — the reverse of restore's var-order assignment. The
  // image must not care (handles never serialize), and a restored tool
  // running on permuted handle numbering must stay step-for-step
  // equivalent through further inflations and deflations.
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  B.rd(1, 520).rd(2, 520); // inflate x520 first → live handle 0
  B.rd(1, 5).rd(2, 5);     // then x5 → live handle 1
  const size_t Cut = 6;    // both inflated here
  B.volWr(2, 0).volRd(1, 0); // order 2's reads before 1's write
  B.wr(1, 520);              // deflate x520 (slow-path Rvc ⊑ C1 check)
  B.volWr(1, 1).volRd(2, 1); // order the write before 2's next read
  B.rd(2, 520).rd(1, 520);   // concurrent again: re-inflate, reusing the
                             // freed handle via the free list
  B.join(0, 1).join(0, 2);
  Trace T = B.take();

  FastTrack Live;
  Live.begin(contextFor(T));
  drive(Live, T, 0, Cut);
  ASSERT_EQ(Live.inflatedReadStates(), 2u);
  std::string Mid = shadowImage(Live);

  FastTrack Restored;
  Restored.begin(contextFor(T));
  ByteReader Reader(Mid);
  ASSERT_TRUE(Restored.restoreShadow(Reader));
  EXPECT_EQ(shadowImage(Restored), Mid);

  drive(Live, T, Cut, T.size());
  drive(Restored, T, Cut, T.size());
  EXPECT_TRUE(Live.warnings().empty());
  EXPECT_TRUE(Restored.warnings().empty());
  EXPECT_EQ(shadowImage(Restored), shadowImage(Live));
}

TEST(ShadowTable, MalformedImagesAreRejected) {
  TraceBuilder B;
  B.fork(0, 1).wr(1, 0).rd(1, 1).join(0, 1);
  Trace T = B.take();
  FastTrack Tool;
  replay(T, Tool);
  std::string Image = shadowImage(Tool);

  // Truncation anywhere must fail cleanly, never crash or mis-restore.
  for (size_t Len : {Image.size() - 1, Image.size() / 2, size_t(4)}) {
    FastTrack Fresh;
    Fresh.begin(contextFor(T));
    ByteReader Reader(std::string_view(Image).substr(0, Len));
    EXPECT_FALSE(Fresh.restoreShadow(Reader)) << "len " << Len;
  }

  // An image carrying a v1 (pre-paged) variable count is rejected.
  const size_t ClocksLen = ClockCodec::clocksSectionLength(T, Image);
  ByteWriter Wrong;
  Wrong.u32(T.numVars() + 1);
  std::string Bad = Image.substr(0, ClocksLen) + Wrong.bytes();
  FastTrack Fresh;
  Fresh.begin(contextFor(T));
  ByteReader Reader(Bad);
  EXPECT_FALSE(Fresh.restoreShadow(Reader));
}

TEST(ShadowTable, RecycledSlotStaleEpochsInsideSideStoreClocks) {
  // The online engine reuses dense thread slots; with the side store the
  // stale entries live behind a shared handle table. Reincarnate tid 1
  // several times around a read-shared variable and check the paged
  // detector against the independent dense implementation, warning for
  // warning (this trace has real races from the unsynchronized thread 3).
  TraceBuilder B;
  B.fork(0, 3);
  for (int I = 0; I != 20; ++I) {
    B.fork(0, 1).rd(1, 0).join(0, 1);  // reader lifetime of slot 1
    B.fork(0, 2).rd(2, 0).join(0, 2);  // keeps x0 read-shared
    if (I % 4 == 0)
      B.wr(3, 0);                       // concurrent writer: races
    B.fork(0, 1).wr(1, 0).join(0, 1);  // writer lifetime deflates x0
  }
  B.join(0, 3);
  Trace T = B.take();

  FastTrack Paged;
  DenseFastTrackReference Dense;
  replay(T, Paged);
  replay(T, Dense);
  EXPECT_FALSE(Paged.warnings().empty());
  expectSameWarnings(Dense.warnings(), Paged.warnings(), "recycled slots");
}

//===----------------------------------------------------------------------===//
// Memory governance: temperature, compression, watermarks, fault gates
//===----------------------------------------------------------------------===//

TEST(ShadowTable, ColdWriteOnlyPagesCompressAndDecompressBitIdentically) {
  constexpr size_t NumVars = 2 * ShadowEagerVarLimit; // paged: 256 pages
  ShadowMemoryPolicy P;
  P.Enabled = true; // defaults: ColdAgeTicks = 2, no budget
  ShadowTable<Epoch> Table;
  Table.setPolicy(P);
  Table.reset(NumVars);
  ASSERT_TRUE(Table.governed());

  // Page 0: uniform (every occupied W identical) — packs with no deltas.
  for (uint32_t I = 0; I != ShadowPageVars; ++I)
    Table.slot(I).W = Epoch::make(1, 7);
  // Page 1: near-uniform (span 199 ≤ MaxDelta) — packs one byte per slot,
  // with holes (⊥ slots) that must survive the round trip.
  for (uint32_t I = 0; I != ShadowPageVars; I += 2)
    Table.slot(ShadowPageVars + I).W = Epoch::make(1, 1 + (I % 200));
  // Page 2: raw span 399 > MaxDelta — incompressible, must stay resident.
  Table.slot(2 * ShadowPageVars).W = Epoch::make(1, 1);
  Table.slot(2 * ShadowPageVars + 1).W = Epoch::make(1, 400);
  // Page 3: touched but still all-⊥ — released outright when cold.
  (void)Table.slot(3 * ShadowPageVars);
  const size_t BytesHot = Table.memoryBytes();

  // One tick is not cold enough (ColdAgeTicks = 2): everything resident.
  Table.maintain();
  EXPECT_EQ(Table.governorStats().PagesCompressed, 0u);
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Resident);

  // The second tick crosses the cold threshold.
  Table.maintain();
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Compressed);
  EXPECT_EQ(Table.pageStateAt(1), ShadowPageState::Compressed);
  EXPECT_EQ(Table.pageStateAt(2), ShadowPageState::Resident);
  EXPECT_EQ(Table.pageStateAt(3), ShadowPageState::Untouched);
  EXPECT_EQ(Table.governorStats().PagesCompressed, 2u);
  EXPECT_EQ(Table.governorStats().PagesFreed, 1u);
  EXPECT_EQ(Table.residentPages(), 1u);
  EXPECT_LT(Table.memoryBytes(), BytesHot);

  // Touching a compressed slot re-expands the page bit-identically.
  for (uint32_t I = 0; I != ShadowPageVars; ++I) {
    EXPECT_EQ(Table.slot(I).W.raw(), Epoch::make(1, 7).raw()) << I;
    EXPECT_EQ(Table.slot(I).R.raw(), 0u) << I;
  }
  for (uint32_t I = 0; I != ShadowPageVars; ++I) {
    const uint64_t Want = I % 2 == 0 ? Epoch::make(1, 1 + (I % 200)).raw() : 0;
    EXPECT_EQ(Table.slot(ShadowPageVars + I).W.raw(), Want) << I;
    EXPECT_EQ(Table.slot(ShadowPageVars + I).R.raw(), 0u) << I;
  }
  EXPECT_EQ(Table.governorStats().PagesDecompressed, 2u);
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Resident);
  EXPECT_EQ(Table.slot(2 * ShadowPageVars + 1).W, Epoch::make(1, 400));
  EXPECT_EQ(Table.governorStats().PagesSummarized, 0u); // lossless only
}

TEST(ShadowTable, WatermarkTripShedsColdPagesOldestFirstWithHysteresis) {
  constexpr size_t NumVars = 2 * ShadowEagerVarLimit;
  ShadowMemoryPolicy P;
  P.Enabled = true;
  P.BudgetBytes = 64 * 1024; // low watermark at 48 KiB (default 0.75)
  ShadowTable<Epoch> Table;
  Table.setPolicy(P);
  Table.reset(NumVars);

  // Twenty resident pages ≈ 80 KiB of page storage: the high watermark
  // trips mid-streak, but nothing is cold in the current generation so
  // shedding stalls (and must not spin re-scanning, nor re-trip).
  for (uint32_t PI = 0; PI != 20; ++PI)
    Table.slot(PI * ShadowPageVars).W = Epoch::make(1, 10 + PI);
  EXPECT_EQ(Table.governorStats().BudgetTrips, 1u);
  EXPECT_EQ(Table.governorStats().PagesSummarized, 0u);
  EXPECT_GT(Table.memoryBytes(), P.BudgetBytes);
  EXPECT_GE(Table.governorStats().ShadowBytesHighWater, Table.memoryBytes());

  // The next generation makes the streak cold: shedding folds the oldest
  // pages (index-ordered among equals) down to the low watermark and
  // stops there — not at zero.
  Table.maintain();
  const ShadowGovernorStats &S = Table.governorStats();
  EXPECT_GT(S.PagesSummarized, 0u);
  EXPECT_LT(S.PagesSummarized, 20u);
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Summarized);
  EXPECT_EQ(Table.pageStateAt(19), ShadowPageState::Resident);
  EXPECT_LE(Table.memoryBytes(), 48u * 1024);
  EXPECT_EQ(S.BudgetTrips, 1u); // armed once, no thrash

  // The page summary is the sound fold: the single writer's epoch, no
  // read state, and every variable of the region aliases the one slot.
  EXPECT_EQ(Table.summaryAt(0).W, Epoch::make(1, 10));
  EXPECT_EQ(Table.summaryAt(0).R.raw(), 0u);
  EXPECT_EQ(&Table.slot(0), &Table.slot(5));

  // Under the low watermark the trip is disarmed: survivors compress on
  // their own cold schedule and new touches don't re-trip.
  Table.maintain();
  EXPECT_GT(Table.governorStats().PagesCompressed, 0u);
  Table.slot(30 * ShadowPageVars).W = Epoch::make(2, 1);
  EXPECT_EQ(Table.governorStats().BudgetTrips, 1u);
}

TEST(ShadowTable, DeniedPageFaultServesPageGranularitySummary) {
  ShadowMemoryPolicy P;
  P.Enabled = true;
  P.FailPageAllocAt = 0; // the very first page allocation is denied
  ShadowTable<Epoch> Table;
  Table.setPolicy(P);
  Table.reset(2 * ShadowEagerVarLimit);

  // The denied fault-in allocates nothing: the region degrades to one
  // page-granularity slot and the access is served from it.
  Epoch W = Epoch::make(2, 9);
  Table.slot(3 * ShadowPageVars + 100).W = W;
  EXPECT_EQ(Table.residentPages(), 0u);
  EXPECT_EQ(Table.pageStateAt(3), ShadowPageState::Summarized);
  EXPECT_EQ(Table.governorStats().AllocDenied, 1u);
  EXPECT_EQ(Table.governorStats().PagesSummarized, 1u);
  // Every variable of the denied region shares the slot.
  EXPECT_EQ(Table.slot(3 * ShadowPageVars).W, W);
  EXPECT_EQ(&Table.slot(3 * ShadowPageVars), &Table.slot(3 * ShadowPageVars + 511));

  // The fault is ordinal-keyed and single-shot: the next region faults in
  // normally and the denial is not re-taken.
  Table.slot(0).W = Epoch::make(1, 1);
  EXPECT_EQ(Table.residentPages(), 1u);
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Resident);
  EXPECT_EQ(Table.governorStats().AllocDenied, 1u);
}

TEST(ShadowTable, DeniedSideStoreGrowthRecyclesHandlesViaShedding) {
  ShadowMemoryPolicy P;
  P.Enabled = true;
  P.FailInflateAt = 2; // the third fresh growth is denied
  ShadowTable<Epoch> Table;
  Table.setPolicy(P);
  Table.reset(2 * ShadowEagerVarLimit);

  // Two read-shared variables on page 0, plus one write epoch — the cold
  // state a denied growth can shed for parts.
  Epoch H1 = Table.inflate();
  Table.clockFor(H1).set(1, 5);
  Table.clockFor(H1).set(2, 3);
  Epoch H2 = Table.inflate();
  Table.clockFor(H2).set(1, 7);
  Table.clockFor(H2).set(3, 2);
  Table.slot(10).R = H1;
  Table.slot(10).W = Epoch::make(1, 4);
  Table.slot(20).R = H2;
  Table.maintain(); // page 0 is now cold (untouched this generation)

  // Denied growth: shedding summarizes page 0, whose deflated handles
  // refill the free list, and the inflation recycles instead of growing.
  Epoch H3 = Table.inflate();
  EXPECT_EQ(Table.governorStats().AllocDenied, 1u);
  EXPECT_EQ(Table.governorStats().PagesSummarized, 1u);
  EXPECT_EQ(Table.sideStoreSlots(), 2u); // no growth happened
  ASSERT_TRUE(ShadowTable<Epoch>::isInflated(H3));
  EXPECT_EQ(Table.clockFor(H3).get(1), 0u); // recycled buffers are ⊥

  // The summary joined both read clocks (soundness: every prior reader
  // still constrains a later writer) and kept the lone write epoch.
  EXPECT_EQ(Table.pageStateAt(0), ShadowPageState::Summarized);
  const ShadowTable<Epoch>::Slot &Sum = Table.summaryAt(0);
  EXPECT_EQ(Sum.W, Epoch::make(1, 4));
  ASSERT_TRUE(ShadowTable<Epoch>::isInflated(Sum.R));
  const VectorClock &Joined = Table.clockFor(Sum.R);
  EXPECT_EQ(Joined.get(1), 7u);
  EXPECT_EQ(Joined.get(2), 3u);
  EXPECT_EQ(Joined.get(3), 2u);
}

TEST(ShadowTable, CheckpointCadenceLeavesShadowBytesAlone) {
  // Writing an image reads the table and changes nothing in it: whether a
  // run checkpoints after every op, every 37 ops or never, the detector
  // ends with replay()'s footprint, warnings and image. The chaotic trace
  // inflates read-shared states and deflates them again, so the side
  // store holds freed handles between checkpoints.
  RandomTraceConfig Config;
  Config.Seed = 29;
  Config.NumThreads = 4;
  Config.NumVars = 64;
  Config.OpsPerThread = 400;
  Config.ChaosProbability = 0.15;
  Trace T = generateRandomTrace(Config);

  FastTrack Reference;
  replay(T, Reference);
  ASSERT_GT(Reference.inflatedReadStates(), 0u);

  for (uint64_t EveryOps : {uint64_t(1), uint64_t(37), uint64_t(0)}) {
    const std::string Path = "shadow_cadence.ckpt";
    std::remove(Path.c_str());
    CheckpointOptions Ck;
    Ck.Path = Path;
    Ck.EveryOps = EveryOps;
    FastTrack Checkpointed;
    CheckpointedReplayResult Result =
        replayCheckpointed(T, Checkpointed, ReplayOptions(), Ck);
    ASSERT_TRUE(Result.St.ok()) << EveryOps;
    EXPECT_EQ(Result.CheckpointsWritten != 0, EveryOps != 0) << EveryOps;
    EXPECT_EQ(Checkpointed.shadowBytes(), Reference.shadowBytes()) << EveryOps;
    expectSameWarnings(Reference.warnings(), Checkpointed.warnings(),
                       "checkpointed");
    EXPECT_EQ(shadowImage(Checkpointed), shadowImage(Reference)) << EveryOps;
    std::remove(Path.c_str());
  }
}

TEST(ShadowTable, CompressedPagesSnapshotIdenticallyToResidentTwins) {
  // A streaming-write workload over ~100 page regions, with page-0 churn
  // afterwards to drive the access-keyed maintenance ticks while the
  // streamed pages cool, and one genuine race through a page that has
  // already been compressed (the decompress-on-touch path mid-analysis).
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  for (unsigned PI = 1; PI <= 100; ++PI)
    B.wr(1, PI * ShadowPageVars);
  B.wr(1, 140 * ShadowPageVars - 1); // max var 71679 → paged table
  for (int I = 0; I != 300; ++I)
    B.wr(1, 0).rd(1, 0);
  B.wr(2, ShadowPageVars); // unsynchronized: write-write race on page 1
  B.join(0, 1).join(0, 2);
  Trace T = B.take();
  ASSERT_GT(T.numVars(), ShadowEagerVarLimit);

  FastTrackOptions Gov;
  Gov.Memory.Enabled = true;
  Gov.Memory.MaintainEveryAccesses = 64;
  Gov.Memory.ColdAgeTicks = 1;
  FastTrack Governed(Gov);
  FastTrack Plain;
  replay(T, Governed);
  replay(T, Plain);

  // Compression-only governance (no budget) is lossless: warning for
  // warning and byte for byte against the ungoverned table, even though
  // most streamed pages sit compressed at snapshot time.
  EXPECT_GT(Governed.shadowGovernorStats().PagesCompressed, 0u);
  EXPECT_GT(Governed.shadowGovernorStats().PagesDecompressed, 0u);
  EXPECT_EQ(Governed.shadowGovernorStats().PagesSummarized, 0u);
  EXPECT_FALSE(Plain.warnings().empty());
  expectSameWarnings(Plain.warnings(), Governed.warnings(), "compressed");
  EXPECT_EQ(shadowImage(Governed), shadowImage(Plain));
}

TEST(ShadowTable, SummarizedPagesCheckpointAndRestore) {
  // Force real pressure shedding with a tiny budget, then demand the v2
  // kPageSummarized records restore to a byte-identical image — both into
  // a same-policy tool and into an ungoverned one (summaries are logical
  // state; restoring them must not require governance to be on).
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  B.rd(1, 5 * ShadowPageVars).rd(2, 5 * ShadowPageVars);     // inflated R
  B.rd(1, 5 * ShadowPageVars + 3).rd(2, 5 * ShadowPageVars + 3);
  B.join(0, 2);
  for (unsigned PI = 0; PI != 120; ++PI)
    B.wr(1, PI * ShadowPageVars + (PI % 7));
  B.wr(1, 140 * ShadowPageVars - 1);
  for (int I = 0; I != 400; ++I)
    B.rd(1, 3); // hot page 0 keeps the tick clock running
  B.join(0, 1);
  Trace T = B.take();

  FastTrackOptions Gov;
  Gov.Memory.Enabled = true;
  Gov.Memory.BudgetBytes = 24 * 1024;
  Gov.Memory.MaintainEveryAccesses = 32;
  Gov.Memory.ColdAgeTicks = 1;
  FastTrack Tool(Gov);
  replay(T, Tool);
  ASSERT_GT(Tool.shadowGovernorStats().BudgetTrips, 0u);
  ASSERT_GT(Tool.shadowGovernorStats().PagesSummarized, 0u);
  std::string Image = shadowImage(Tool);

  FastTrack SamePolicy(Gov);
  SamePolicy.begin(contextFor(T));
  ByteReader Reader(Image);
  ASSERT_TRUE(SamePolicy.restoreShadow(Reader));
  EXPECT_EQ(shadowImage(SamePolicy), Image);

  FastTrack Ungoverned;
  Ungoverned.begin(contextFor(T));
  ByteReader Reader2(Image);
  ASSERT_TRUE(Ungoverned.restoreShadow(Reader2));
  EXPECT_EQ(shadowImage(Ungoverned), Image);
}

TEST(ShadowTable, PagedMatchesDenseReferenceOnRandomTraces) {
  // The tentpole's equivalence guarantee, against an implementation that
  // shares no shadow code with the production detector. Variable counts
  // straddle several pages so faults, partial pages, and handle churn
  // all occur.
  for (uint64_t Seed = 1; Seed != 30; ++Seed) {
    RandomTraceConfig Config;
    Config.Seed = Seed;
    Config.NumThreads = 2 + Seed % 5;
    Config.NumVars = static_cast<unsigned>(ShadowPageVars - 2 + Seed * 97);
    Config.NumLocks = 1 + Seed % 3;
    Config.OpsPerThread = 150 + Seed % 100;
    Config.ChaosProbability = 0.05 * static_cast<double>(Seed % 8);
    Trace T = generateRandomTrace(Config);

    FastTrack Paged;
    DenseFastTrackReference Dense;
    replay(T, Paged);
    replay(T, Dense);
    expectSameWarnings(Dense.warnings(), Paged.warnings(), "random trace");
  }
}

TEST(ShadowTable, CheckpointCarriesReadSharedSameEpochCounter) {
  // Read-shared re-reads on both sides of the cut: the resumed run must
  // end with the same image, counters included.
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  B.rd(1, 7).rd(2, 7).rd(1, 7).rd(2, 7); // inflate, then two hits
  const size_t Cut = 6;
  B.rd(1, 7).acq(1, 0).rel(1, 0).rd(1, 7).rd(1, 7);
  B.join(0, 1).join(0, 2);
  Trace T = B.take();

  FastTrack Reference;
  Reference.begin(contextFor(T));
  drive(Reference, T, 0, Cut);
  ASSERT_EQ(Reference.ruleStats().ReadSharedSameEpoch, 2u);
  std::string Mid = shadowImage(Reference);
  drive(Reference, T, Cut, T.size());
  Reference.end();
  EXPECT_EQ(Reference.ruleStats().ReadSharedSameEpoch, 4u);

  FastTrack Resumed;
  Resumed.begin(contextFor(T));
  ByteReader Reader(Mid);
  ASSERT_TRUE(Resumed.restoreShadow(Reader));
  EXPECT_EQ(Resumed.ruleStats().ReadSharedSameEpoch, 2u);
  drive(Resumed, T, Cut, T.size());
  Resumed.end();
  EXPECT_EQ(shadowImage(Resumed), shadowImage(Reference));
  EXPECT_EQ(Resumed.ruleStats().ReadSharedSameEpoch, 4u);
  EXPECT_EQ(Resumed.ruleStats().ReadShared, Reference.ruleStats().ReadShared);
}

TEST(ShadowTable, PreCounterV2ImagesAreRejected) {
  // v2 images (tag 0xffffffff) end with seven rule counters, not eight;
  // the tag alone must turn them away.
  TraceBuilder B;
  B.fork(0, 1).wr(1, 0).rd(1, 1).join(0, 1);
  Trace T = B.take();
  FastTrack Tool;
  replay(T, Tool);
  std::string Image = shadowImage(Tool);

  const size_t ClocksLen = ClockCodec::clocksSectionLength(T, Image);
  ByteWriter V2Tag;
  V2Tag.u32(0xffffffffu);
  std::string V2 = Image;
  V2.replace(ClocksLen, V2Tag.bytes().size(), V2Tag.bytes());
  ASSERT_NE(V2, Image);
  FastTrack Fresh;
  Fresh.begin(contextFor(T));
  ByteReader Reader(V2);
  EXPECT_FALSE(Fresh.restoreShadow(Reader));
}

namespace {

/// Replays \p T through an ungoverned FastTrack and through one whose
/// tiny budget summarizes cold pages, and returns both warned-variable
/// sets (plain first).
std::pair<std::vector<VarId>, std::vector<VarId>>
plainAndSummarizedWarnedVars(const Trace &T) {
  FastTrackOptions Gov;
  Gov.Memory.Enabled = true;
  Gov.Memory.BudgetBytes = 24 * 1024;
  Gov.Memory.MaintainEveryAccesses = 32;
  Gov.Memory.ColdAgeTicks = 1;
  FastTrack Governed(Gov);
  FastTrack Plain;
  replay(T, Governed);
  replay(T, Plain);
  EXPECT_GT(Governed.shadowGovernorStats().PagesSummarized, 0u);
  auto vars = [](const FastTrack &Tool) {
    std::vector<VarId> Vars;
    for (const RaceWarning &W : Tool.warnings())
      Vars.push_back(W.Var);
    std::sort(Vars.begin(), Vars.end());
    return Vars;
  };
  return {vars(Plain), vars(Governed)};
}

/// Thread 1 writes one variable on each of 120 other pages, so the pages
/// touched before cool and get summarized under the budget, then hammers
/// page 0 to keep the maintenance ticks running.
void coolEarlierPages(TraceBuilder &B) {
  for (unsigned PI = 10; PI != 130; ++PI)
    B.wr(1, PI * ShadowPageVars + (PI % 7));
  B.wr(1, 140 * ShadowPageVars - 1);
  for (int I = 0; I != 200; ++I)
    B.wr(1, 3);
}

} // namespace

TEST(ShadowTable, SummarizedPagesNeverSkipChecksThroughSameEpochRules) {
  // A summary folds a page's W and R from different variables, so in
  // each case below the summary holds E(1) from thread 1's access to y,
  // and thread 1's access to x in that same epoch must still be checked
  // against thread 2's access to x. Coarsened, never missing: the
  // governed warnings cover every variable the ungoverned detector warns.
  constexpr VarId X = 5 * ShadowPageVars, Y = X + 3;
  struct Case {
    const char *Name;
    void (*Setup)(TraceBuilder &);
    void (*Access)(TraceBuilder &);
  };
  const Case Cases[] = {
      {"read: R = E(1)",
       [](TraceBuilder &B) { B.wr(2, X).rd(1, Y); },
       [](TraceBuilder &B) { B.rd(1, X); }},
      {"write: W = E(1)",
       [](TraceBuilder &B) { B.rd(2, X).wr(1, Y); },
       [](TraceBuilder &B) { B.wr(1, X); }},
      {"read-shared: R(1) = C1(1)",
       [](TraceBuilder &B) { B.wr(2, X).rd(1, Y).rd(3, Y); },
       [](TraceBuilder &B) { B.rd(1, X); }},
  };
  for (const Case &C : Cases) {
    TraceBuilder B;
    B.fork(0, 1).fork(0, 2).fork(0, 3);
    C.Setup(B);
    coolEarlierPages(B);
    C.Access(B);
    B.join(0, 1).join(0, 2).join(0, 3);
    Trace T = B.take();

    auto [Plain, Governed] = plainAndSummarizedWarnedVars(T);
    ASSERT_EQ(Plain, std::vector<VarId>{X}) << C.Name;
    EXPECT_TRUE(std::includes(Governed.begin(), Governed.end(), Plain.begin(),
                              Plain.end()))
        << C.Name << ": governed run misses a race";
  }
}
