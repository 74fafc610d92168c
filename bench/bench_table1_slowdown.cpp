//===----------------------------------------------------------------------===//
//
// Experiment E2 — Table 1 (left half): instrumented running time of every
// tool on the sixteen benchmarks, reported as slowdown relative to the
// EMPTY tool (the paper normalizes against the uninstrumented program and
// measures EMPTY's own overhead separately; with a trace-replay substrate
// EMPTY *is* the uninstrumented baseline).
//
// Each cell is the median (min-max) over FT_BENCH_REPS reps of the
// tool's replay time over EMPTY's in the same rep. Within a rep every
// tool replays the trace once, and the order rotates from rep to rep, so
// drift on a shared machine lands on every tool alike.
//
// Paper shape to reproduce (compute-bound averages, Table 1):
//   Eraser 8.6x/4.1x≈2.1 over EMPTY, MultiRace 21.7/4.1≈5.3,
//   Goldilocks 31.6/4.1≈7.7, BasicVC 89.8/4.1≈21.9, DJIT+ 20.2/4.1≈4.9,
//   FastTrack 8.5/4.1≈2.1 — i.e. FastTrack ≈ Eraser, ≈2.3x faster than
//   DJIT+, ≈10x faster than BasicVC.
//
// FastTrack runs with its defaults, the Section 3 same-epoch extension
// for read-shared data included; the "FastTrack (paper default)" column
// turns the extension off.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "core/ToolRegistry.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace ft;
using namespace ft::bench;

namespace {

/// "1.7x (1.6-1.9)": the median slowdown with its min and max.
std::string cell(const Spread &S) {
  return slowdown(S.Median) + " (" + fixed(S.Min, 1) + "-" + fixed(S.Max, 1) +
         ")";
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_table1_slowdown", argc, argv);
  banner("Table 1 (left): slowdown relative to the Empty tool");

  // Registry names, except "fasttrack_paper": FastTrack with the
  // extension off.
  const std::vector<std::string> Tools = {
      "empty",   "eraser", "multirace", "goldilocks",
      "basicvc", "djit+",  "fasttrack", "fasttrack_paper"};
  auto makeTool = [](const std::string &Name) -> std::unique_ptr<Tool> {
    if (Name != "fasttrack_paper")
      return createTool(Name);
    FastTrackOptions Paper;
    Paper.ExtendedSharedSameEpoch = false;
    return std::make_unique<FastTrack>(Paper);
  };
  const unsigned Reps = repetitions();
  std::printf("cells: median slowdown (min-max) over %u interleaved reps\n\n",
              Reps);
  Table Out;
  Out.addHeader({"Program", "Events", "Empty(ms)", "Eraser", "MultiRace",
                 "Goldilocks", "BasicVC", "DJIT+", "FastTrack",
                 "FastTrack (paper default)"});

  std::vector<double> GeoSum(Tools.size(), 0.0);
  unsigned GeoCount = 0;

  for (const Workload &W : benchmarkSuite()) {
    Trace T = W.Generate(/*Seed=*/1, sizeFactor());
    // Seconds[Tool][Rep]; a fresh tool per replay, so no state carries
    // over between reps.
    std::vector<std::vector<double>> Seconds(Tools.size());
    uint64_t Events = 0;
    for (unsigned Rep = 0; Rep != Reps; ++Rep)
      for (size_t K = 0; K != Tools.size(); ++K) {
        size_t I = (K + Rep) % Tools.size();
        ReplayResult Result = replay(T, *makeTool(Tools[I]));
        Seconds[I].push_back(Result.Seconds);
        Events = Result.Events;
      }

    Spread Empty = spreadOf(Seconds[0]);
    Report.spread(W.Name + "_empty_seconds", Empty, "s");
    std::vector<std::string> Row = {W.Name + (W.ComputeBound ? "" : "*"),
                                    withCommas(Events),
                                    fixed(Empty.Median * 1e3, 2)};
    for (size_t I = 1; I != Tools.size(); ++I) {
      // Each rep's time over the same rep's EMPTY time.
      std::vector<double> Ratios;
      for (unsigned Rep = 0; Rep != Reps; ++Rep)
        Ratios.push_back(Seconds[0][Rep] > 0
                             ? Seconds[I][Rep] / Seconds[0][Rep]
                             : 0.0);
      Spread S = spreadOf(Ratios);
      Row.push_back(cell(S));
      Report.spread(W.Name + "_" + Tools[I] + "_slowdown", S, "x");
      if (W.ComputeBound)
        GeoSum[I] += S.Median;
    }
    Out.addRow(Row);
    GeoCount += W.ComputeBound;
  }

  Out.addSeparator();
  std::vector<std::string> Avg = {"Average (compute-bound)", "", ""};
  for (size_t I = 1; I != Tools.size(); ++I) {
    Avg.push_back(slowdown(GeoSum[I] / GeoCount));
    Report.metric("avg_" + Tools[I] + "_slowdown", GeoSum[I] / GeoCount, "x");
  }
  Out.addRow(Avg);

  std::fputs(Out.render().c_str(), stdout);
  std::printf("\n('*' rows are not compute-bound and are excluded from the "
              "average, as in the paper;\nthe average is over the per-program "
              "medians.)\n");
  std::printf("Paper shape: FastTrack ~= Eraser, ~2.3x faster than DJIT+, "
              "~10x faster than BasicVC;\nMultiRace ~= DJIT+; Goldilocks "
              "slowest of the precise tools after BasicVC.\n");
  return Report.write() ? 0 : 1;
}
