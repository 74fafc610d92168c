//===----------------------------------------------------------------------===//
//
// Experiment E1 — Figure 2/3 annotations: the operation mix of the
// benchmark suite and the firing frequency of every FastTrack (and
// DJIT+) analysis rule, printed next to the paper's measured numbers.
//
// Paper: reads 82.3% / writes 14.5% / sync 3.3%;
//   FastTrack reads:  SAME EPOCH 63.4%, SHARED 20.8%, EXCLUSIVE 15.7%,
//                     SHARE 0.1%;
//   FastTrack writes: SAME EPOCH 71.0%, EXCLUSIVE 28.9%, SHARED 0.1%;
//   DJIT+: READ SAME EPOCH 78.0%, WRITE SAME EPOCH 71.0%.
// Constant-time fast paths handle upwards of 96% of all operations.
// The [FT READ SHARED] row counts the same-epoch re-reads of read-shared
// data too (the Section 3 extension, on by default), so it reads like
// the paper's split; the row under it shows the extension's share.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "detectors/DjitPlus.h"
#include "support/Table.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace ft;
using namespace ft::bench;

int main(int argc, char **argv) {
  BenchReport Report("bench_rule_frequency", argc, argv);
  banner("Figure 2/3: operation mix and analysis-rule frequencies");

  TraceStats Mix;
  FastTrackRuleStats Ft;
  DjitRuleStats Djit;

  auto addStats = [](TraceStats &Into, const TraceStats &From) {
    Into.Reads += From.Reads;
    Into.Writes += From.Writes;
    Into.Acquires += From.Acquires;
    Into.Releases += From.Releases;
    Into.Forks += From.Forks;
    Into.Joins += From.Joins;
    Into.VolatileReads += From.VolatileReads;
    Into.VolatileWrites += From.VolatileWrites;
    Into.Barriers += From.Barriers;
    Into.AtomicMarkers += From.AtomicMarkers;
  };

  for (const Workload &W : benchmarkSuite()) {
    Trace T = W.Generate(/*Seed=*/1, sizeFactor());
    addStats(Mix, computeStats(T));

    FastTrack FtTool;
    replay(T, FtTool);
    Ft += FtTool.ruleStats();

    DjitPlus DjitTool;
    replay(T, DjitTool);
    Djit.ReadSameEpoch += DjitTool.ruleStats().ReadSameEpoch;
    Djit.ReadGeneral += DjitTool.ruleStats().ReadGeneral;
    Djit.WriteSameEpoch += DjitTool.ruleStats().WriteSameEpoch;
    Djit.WriteGeneral += DjitTool.ruleStats().WriteGeneral;
  }

  auto pct = [](uint64_t Part, uint64_t Whole) {
    return Whole ? fixed(100.0 * Part / Whole, 1) + "%" : "-";
  };

  Table MixTable;
  MixTable.addHeader({"Operation class", "Measured", "Paper"});
  MixTable.addRow({"reads", pct(Mix.Reads, Mix.total()), "82.3%"});
  MixTable.addRow({"writes", pct(Mix.Writes, Mix.total()), "14.5%"});
  MixTable.addRow({"sync + threading", pct(Mix.syncOps(), Mix.total()),
                   "3.3%"});
  std::fputs(MixTable.render().c_str(), stdout);

  Table Rules;
  Rules.addHeader({"Rule", "Measured", "Paper"});
  Rules.addRow({"[FT READ SAME EPOCH]", pct(Ft.ReadSameEpoch, Ft.reads()),
                "63.4%"});
  Rules.addRow({"[FT READ SHARED]",
                pct(Ft.ReadShared + Ft.ReadSharedSameEpoch, Ft.reads()),
                "20.8%"});
  Rules.addRow({"  of which same-epoch (extension)",
                pct(Ft.ReadSharedSameEpoch, Ft.reads()), "-"});
  Rules.addRow({"[FT READ EXCLUSIVE]", pct(Ft.ReadExclusive, Ft.reads()),
                "15.7%"});
  Rules.addRow({"[FT READ SHARE]", pct(Ft.ReadShare, Ft.reads()), "0.1%"});
  Rules.addRow({"[FT WRITE SAME EPOCH]", pct(Ft.WriteSameEpoch, Ft.writes()),
                "71.0%"});
  Rules.addRow({"[FT WRITE EXCLUSIVE]", pct(Ft.WriteExclusive, Ft.writes()),
                "28.9%"});
  Rules.addRow({"[FT WRITE SHARED]", pct(Ft.WriteShared, Ft.writes()),
                "0.1%"});
  Rules.addSeparator();
  Rules.addRow({"[DJIT+ READ SAME EPOCH]",
                pct(Djit.ReadSameEpoch, Djit.reads()), "78.0%"});
  Rules.addRow({"[DJIT+ READ] (O(n))", pct(Djit.ReadGeneral, Djit.reads()),
                "22.0%"});
  Rules.addRow({"[DJIT+ WRITE SAME EPOCH]",
                pct(Djit.WriteSameEpoch, Djit.writes()), "71.0%"});
  Rules.addRow({"[DJIT+ WRITE] (O(n))", pct(Djit.WriteGeneral, Djit.writes()),
                "29.0%"});
  std::printf("\n");
  std::fputs(Rules.render().c_str(), stdout);

  uint64_t Accesses = Ft.reads() + Ft.writes();
  uint64_t FastPath = Ft.fastPathOps();
  std::printf("\nConstant-time fast paths handled %s of %s accesses "
              "(%.2f%%; paper: >99%% of reads+writes, >96%% of all ops).\n",
              withCommas(FastPath).c_str(), withCommas(Accesses).c_str(),
              Accesses ? 100.0 * FastPath / Accesses : 0.0);
  auto frac = [](uint64_t Part, uint64_t Whole) {
    return Whole ? 100.0 * double(Part) / double(Whole) : 0.0;
  };
  Report.metric("reads_pct", frac(Mix.Reads, Mix.total()), "%");
  Report.metric("writes_pct", frac(Mix.Writes, Mix.total()), "%");
  Report.metric("sync_pct", frac(Mix.syncOps(), Mix.total()), "%");
  Report.metric("ft_read_same_epoch_pct", frac(Ft.ReadSameEpoch, Ft.reads()),
                "%");
  Report.metric("ft_read_shared_same_epoch_pct",
                frac(Ft.ReadSharedSameEpoch, Ft.reads()), "%");
  Report.metric("ft_write_same_epoch_pct", frac(Ft.WriteSameEpoch, Ft.writes()),
                "%");
  Report.metric("fast_path_pct", frac(FastPath, Accesses), "%");
  return Report.write() ? 0 : 1;
}
