//===----------------------------------------------------------------------===//
//
// Experiment E8 (ablation) — what each FastTrack design choice buys.
// Four configurations over the compute-bound benchmarks:
//   full            — the defaults: the published algorithm plus the
//                     same-epoch check for read-shared data (§3);
//   no-same-epoch   — disable [FT READ/WRITE SAME EPOCH] (and with it
//                     the read-shared same-epoch check);
//   no-epoch-reads  — read state is always a vector clock (DJIT+'s read
//                     representation, Section 3's "Detecting Read-Write
//                     Races" discussion);
//   paper-default   — the published algorithm alone: the read-shared
//                     same-epoch check off, so those re-reads take
//                     [FT READ SHARED] ("does not improve performance of
//                     our prototype perceptibly", §3).
// DJIT+ is included as the reference point.
//
// Reps are interleaved: in each of FT_BENCH_REPS reps every
// configuration replays every program once with a fresh tool, in an order
// that rotates from rep to rep, so drift on a shared machine lands on
// every configuration alike. A total is the sum over the programs within
// one rep; cells report the median (min-max) over the reps, and the
// change against `full` is taken within each rep.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "detectors/DjitPlus.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <memory>

using namespace ft;
using namespace ft::bench;

namespace {

/// "+34% (+30-+41%)": the median change against `full` with its range.
std::string change(const Spread &S) {
  auto pctOf = [](double Ratio) {
    double P = (Ratio - 1.0) * 100.0;
    return (P >= 0 ? "+" : "") + fixed(P, 0) + "%";
  };
  return pctOf(S.Median) + " (" + pctOf(S.Min) + " to " + pctOf(S.Max) + ")";
}

std::string millis(const Spread &S) {
  return fixed(S.Median * 1e3, 1) + " (" + fixed(S.Min * 1e3, 1) + "-" +
         fixed(S.Max * 1e3, 1) + ")";
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_ablation_fastpaths", argc, argv);
  banner("Ablation: FastTrack fast paths");

  struct Config {
    const char *Name;   ///< Column header.
    const char *Metric; ///< JSON metric stem.
    FastTrackOptions Options;
  };
  std::vector<Config> Configs = {
      {"full", "full", {}},
      {"no-same-epoch", "no_same_epoch", {}},
      {"no-epoch-reads", "no_epoch_reads", {}},
      {"paper-default", "paper_default", {}},
  };
  Configs[1].Options.SameEpochFastPath = false;
  Configs[2].Options.EpochReads = false;
  Configs[3].Options.ExtendedSharedSameEpoch = false;
  // Column K is Configs[K], and the last column is DJIT+.
  const size_t Columns = Configs.size() + 1;
  auto makeTool = [&](size_t K) -> std::unique_ptr<Tool> {
    if (K == Configs.size())
      return std::make_unique<DjitPlus>();
    return std::make_unique<FastTrack>(Configs[K].Options);
  };
  auto header = [&](size_t K) -> std::string {
    return K == Configs.size() ? "DJIT+" : Configs[K].Name;
  };

  const unsigned Reps = repetitions();
  std::printf("cells: median ms (min-max) over %u interleaved reps\n\n",
              Reps);
  Table Out;
  std::vector<std::string> Head = {"Program"};
  for (size_t K = 0; K != Columns; ++K)
    Head.push_back(header(K));
  Head.push_back("allocs full");
  Head.push_back("allocs no-epoch-reads");
  Out.addHeader(Head);

  // Totals[K][Rep]: column K's time summed over the programs in one rep.
  std::vector<std::vector<double>> Totals(Columns,
                                          std::vector<double>(Reps, 0.0));
  for (const Workload &W : benchmarkSuite()) {
    if (!W.ComputeBound)
      continue;
    Trace T = W.Generate(/*Seed=*/1, sizeFactor());

    std::vector<std::vector<double>> Seconds(Columns);
    for (unsigned Rep = 0; Rep != Reps; ++Rep)
      for (size_t J = 0; J != Columns; ++J) {
        size_t K = (J + Rep) % Columns;
        double S = replay(T, *makeTool(K)).Seconds;
        Seconds[K].push_back(S);
        Totals[K][Rep] += S;
      }

    std::vector<std::string> Row = {W.Name};
    for (size_t K = 0; K != Columns; ++K)
      Row.push_back(millis(spreadOf(Seconds[K])));
    // A fresh tool per count: repeated replays recycle the Rvc buffers
    // and would undercount.
    FastTrack Full(Configs[0].Options), NoEpochReads(Configs[2].Options);
    Row.push_back(withCommas(replay(T, Full).Clocks.Allocations));
    Row.push_back(withCommas(replay(T, NoEpochReads).Clocks.Allocations));
    Out.addRow(Row);
  }

  Out.addSeparator();
  std::vector<std::string> Total = {"Total"};
  std::vector<std::string> VsFull = {"vs full"};
  for (size_t K = 0; K != Columns; ++K) {
    Spread S = spreadOf(Totals[K]);
    Total.push_back(millis(S));
    std::string Stem = K == Configs.size() ? "djit" : Configs[K].Metric;
    Report.spread("total_" + Stem + "_seconds", S, "s");
    if (K == 0) {
      VsFull.push_back("");
      continue;
    }
    std::vector<double> Ratios;
    for (unsigned Rep = 0; Rep != Reps; ++Rep)
      Ratios.push_back(Totals[0][Rep] > 0 ? Totals[K][Rep] / Totals[0][Rep]
                                          : 0.0);
    Spread R = spreadOf(Ratios);
    VsFull.push_back(change(R));
    Report.spread(Stem + "_vs_full", R, "x");
  }
  Total.insert(Total.end(), {"", ""});
  VsFull.insert(VsFull.end(), {"", ""});
  Out.addRow(Total);
  Out.addRow(VsFull);
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nExpected: 'full' fastest; removing epoch reads inflates "
              "allocations toward DJIT+'s; turning the read-shared "
              "same-epoch check off (paper-default) costs the programs "
              "whose reads are mostly read-shared re-reads.\n");
  return Report.write() ? 0 : 1;
}
