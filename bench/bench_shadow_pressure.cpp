//===----------------------------------------------------------------------===//
//
// Experiment E16 — memory-governed detection: the budget-enforced shadow
// table (shadow/ShadowPolicy.h) versus the ungoverned paged table on a
// million-variable streaming workload.
//
// One trace, three configurations:
//   ungoverned   policy off: every touched page stays resident forever
//   compressed   governance on, no budget: cold write-only pages pack
//                losslessly; warnings must be identical to ungoverned
//   governed     1 MiB byte budget: watermark trips summarize cold pages
//                to one page-granularity slot; races must still surface
//                in the same page regions
//
// The workload streams writes over 2^20 variables (2048 shadow pages),
// re-reads every fourth page so a quarter of the space carries read
// state the lossless compressor refuses (write-only pages only), churns
// a small hot set to drive maintenance generations, then plants racing
// writes from an unordered thread across the swept space — every race
// lands on a page that is compressed or summarized by the time it fires.
//
// ns/event is the median (min-max) over FT_BENCH_REPS reps. Within a rep
// each config replays the trace once through a fresh detector, and the
// order rotates from rep to rep, so drift on a shared machine lands on
// every config alike.
//
// Acceptance: the ungoverned footprint exceeds the governed high water
// by >= 4x, compressed warnings match ungoverned warning-for-warning,
// and the governed run still reports every race's page region.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "shadow/ShadowTable.h"
#include "support/Table.h"
#include "trace/TraceBuilder.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

using namespace ft;
using namespace ft::bench;

namespace {

constexpr VarId Space = 1u << 20;            // 2048 shadow pages
constexpr uint64_t BudgetBytes = 1u << 20;   // 1 MiB governed budget
constexpr unsigned PlantedRaces = 8;

/// The shared E16 trace (see file header). Thread 1 streams the space;
/// thread 2 is forked before the sweep and never synchronizes with it,
/// so its late writes race with thread 1's accesses.
Trace streamingWorkload(unsigned ChurnPasses) {
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  for (VarId X = 0; X != Space; ++X)
    B.wr(1, X);
  // Read-mark every fourth page: per-var read epochs block lossless
  // compression there, so holding the budget requires summarization.
  for (VarId Page = 0; Page != (Space >> ShadowPageShift); Page += 4)
    for (VarId X = 0; X != ShadowPageVars; ++X)
      B.rd(1, (Page << ShadowPageShift) + X);
  // Hot-set churn keeps accesses flowing while the swept pages cool
  // through the maintenance generations.
  for (unsigned P = 0; P != ChurnPasses; ++P)
    B.wr(1, 7).rd(1, 7);
  // Planted races: pages 0, 256, 512, ... are all read-marked pages, so
  // under the budget each racing access lands on a summarized region.
  for (unsigned I = 0; I != PlantedRaces; ++I)
    B.wr(2, I * (Space / PlantedRaces) + 123);
  B.join(0, 1).join(0, 2);
  return B.take();
}

struct ConfigResult {
  const char *Name;
  const char *JsonPrefix;
  ShadowMemoryPolicy Policy;
  std::vector<double> NsPerEvent = {}; ///< One sample per rep.
  // Deterministic outcomes, identical in every rep.
  size_t ShadowBytes = 0;
  ShadowGovernorStats Gov = {};
  std::vector<RaceWarning> Warnings = {};
};

/// One rep of \p R's config, through a fresh detector.
void runOnce(ConfigResult &R, const Trace &T) {
  FastTrackOptions Options;
  Options.Memory = R.Policy;
  FastTrack Tool(Options);
  ReplayResult Replay = replay(T, Tool);
  R.NsPerEvent.push_back(Replay.Seconds * 1e9 /
                         static_cast<double>(Replay.Events));
  R.ShadowBytes = Tool.shadowBytes();
  R.Gov = Tool.shadowGovernorStats();
  R.Warnings = Tool.warnings();
}

/// "9.0 (8.8-9.3)": the median with its min and max.
std::string cell(const Spread &S) {
  return fixed(S.Median, 1) + " (" + fixed(S.Min, 1) + "-" + fixed(S.Max, 1) +
         ")";
}

bool sameWarnings(const std::vector<RaceWarning> &A,
                  const std::vector<RaceWarning> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Var != B[I].Var || A[I].OpIndex != B[I].OpIndex ||
        A[I].CurrentThread != B[I].CurrentThread ||
        A[I].Detail != B[I].Detail)
      return false;
  return true;
}

/// Page-granularity soundness: every ungoverned warning's page region is
/// warned somewhere in the governed run.
bool regionsCovered(const std::vector<RaceWarning> &Dense,
                    const std::vector<RaceWarning> &Governed) {
  std::vector<VarId> Regions;
  for (const RaceWarning &W : Governed)
    Regions.push_back(W.Var >> ShadowPageShift);
  std::sort(Regions.begin(), Regions.end());
  for (const RaceWarning &W : Dense)
    if (!std::binary_search(Regions.begin(), Regions.end(),
                            W.Var >> ShadowPageShift))
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_shadow_pressure", argc, argv);
  banner("E16: budget-enforced shadow memory vs ungoverned paged table");

  const unsigned Churn = static_cast<unsigned>(
      20000 * sizeFactor() < 1 ? 1 : 20000 * sizeFactor());
  const Trace T = streamingWorkload(Churn);

  ShadowMemoryPolicy Off;

  ShadowMemoryPolicy Compress;
  Compress.Enabled = true;

  ShadowMemoryPolicy Budget;
  Budget.Enabled = true;
  Budget.BudgetBytes = BudgetBytes;
  Budget.ColdAgeTicks = 1;

  ConfigResult Results[] = {
      {"ungoverned", "ungoverned", Off},
      {"compressed", "compressed", Compress},
      {"governed-1MiB", "governed", Budget},
  };
  constexpr size_t NumConfigs = std::size(Results);
  const unsigned Reps = repetitions();
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (size_t K = 0; K != NumConfigs; ++K)
      runOnce(Results[(K + Rep) % NumConfigs], T);
  const ConfigResult &Dense = Results[0];
  const ConfigResult &Packed = Results[1];
  const ConfigResult &Gov = Results[2];

  std::printf("ns/event: median (min-max) over %u interleaved reps\n\n",
              Reps);
  Table Out;
  Out.addHeader({"Config", "ns/event", "Shadow bytes", "High water",
                 "Compressed", "Summarized", "Trips", "Warnings"});
  for (const ConfigResult &R : Results) {
    const Spread NsPerEvent = spreadOf(R.NsPerEvent);
    uint64_t HighWater =
        R.Gov.ShadowBytesHighWater ? R.Gov.ShadowBytesHighWater
                                   : R.ShadowBytes;
    Out.addRow({R.Name, cell(NsPerEvent), withCommas(R.ShadowBytes),
                withCommas(HighWater), withCommas(R.Gov.PagesCompressed),
                withCommas(R.Gov.PagesSummarized),
                withCommas(R.Gov.BudgetTrips),
                withCommas(R.Warnings.size())});

    std::string Prefix = R.JsonPrefix;
    Report.spread(Prefix + "_ns_per_event", NsPerEvent, "ns");
    Report.metric(Prefix + "_shadow_bytes",
                  static_cast<double>(R.ShadowBytes), "bytes");
    Report.metric(Prefix + "_high_water", static_cast<double>(HighWater),
                  "bytes");
    Report.metric(Prefix + "_pages_compressed",
                  static_cast<double>(R.Gov.PagesCompressed));
    Report.metric(Prefix + "_pages_summarized",
                  static_cast<double>(R.Gov.PagesSummarized));
    Report.metric(Prefix + "_budget_trips",
                  static_cast<double>(R.Gov.BudgetTrips));
    Report.metric(Prefix + "_warnings",
                  static_cast<double>(R.Warnings.size()));
  }
  std::fputs(Out.render().c_str(), stdout);

  const bool LosslessEqual = sameWarnings(Dense.Warnings, Packed.Warnings);
  const bool Sound = regionsCovered(Dense.Warnings, Gov.Warnings);
  const uint64_t GovHighWater = Gov.Gov.ShadowBytesHighWater;
  const double Ratio = GovHighWater
                           ? static_cast<double>(Dense.ShadowBytes) /
                                 static_cast<double>(GovHighWater)
                           : 0;
  const bool UnderBudget =
      GovHighWater != 0 &&
      GovHighWater <= BudgetBytes + (64u << 10); // one maintenance overshoot

  Report.metric("budget_bytes", static_cast<double>(BudgetBytes), "bytes");
  Report.metric("footprint_ratio", Ratio, "x");
  Report.metric("budget_held", UnderBudget ? 1 : 0, "bool");
  Report.metric("lossless_warnings_equal", LosslessEqual ? 1 : 0, "bool");
  Report.metric("governed_regions_sound", Sound ? 1 : 0, "bool");

  std::printf("\nBudget %s: governed high water %s vs ungoverned %s bytes "
              "(%sx).\n",
              withCommas(BudgetBytes).c_str(),
              withCommas(GovHighWater).c_str(),
              withCommas(Dense.ShadowBytes).c_str(), fixed(Ratio, 1).c_str());
  std::printf("Lossless compression warning-for-warning equal: %s; "
              "governed run covers every raced page region: %s.\n",
              LosslessEqual ? "yes" : "NO", Sound ? "yes" : "NO");
  std::printf("Acceptance: ratio >= 4x with the budget held, warnings "
              "equal under compression, regions sound under the budget.\n");

  const bool Accept = Ratio >= 4.0 && UnderBudget && LosslessEqual && Sound;
  if (!Accept)
    std::fprintf(stderr, "error: E16 acceptance check failed\n");
  return (Report.write() && Accept) ? 0 : 1;
}
