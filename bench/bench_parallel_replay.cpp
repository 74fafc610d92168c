//===----------------------------------------------------------------------===//
//
// Experiment E11 (extension) — parallel sharded replay scaling.
//
// FastTrack's access rules read thread clocks that change only at
// synchronization points, so offline replay can shard variables across
// worker threads (docs/ARCHITECTURE.md, "Sharded replay"). This harness
// measures the serial engine against 1/2/4/8-shard parallel replay on a
// compute-bound workload, for every sharding-capable detector. Each cell
// is the median wall time over FT_BENCH_REPS interleaved repetitions,
// with min and max: one repetition runs serial and every shard count
// back to back, so drift on a shared machine hits every column alike.
//
// Every worker scans the whole trace and dispatches every sync event, so
// the speedup is bounded by the sync and scan work all workers repeat,
// not only by min(shards, cores). 1 shard is the serial engine.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "core/ToolRegistry.h"
#include "detectors/BasicVC.h"
#include "detectors/DjitPlus.h"
#include "detectors/Eraser.h"
#include "framework/ParallelReplay.h"
#include "support/Table.h"
#include "trace/RandomTrace.h"

#include <cstdio>
#include <thread>

using namespace ft;
using namespace ft::bench;

namespace {

/// Wall time of one replay of \p T through a fresh instance of
/// \p ToolName (fresh per run so rule counters never mix); Shards == 0
/// runs the serial engine.
double timedRun(const Trace &T, const std::string &ToolName,
                unsigned Shards) {
  auto Checker = createTool(ToolName);
  if (Shards == 0)
    return replay(T, *Checker).Seconds;
  ParallelReplayOptions Options;
  Options.NumShards = Shards;
  return parallelReplay(T, *Checker, Options).Total.Seconds;
}

std::string cell(const Spread &S) {
  return fixed(S.Median * 1e3, 1) + " (" + fixed(S.Min * 1e3, 1) + "-" +
         fixed(S.Max * 1e3, 1) + ")";
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_parallel_replay", argc, argv);
  banner("Parallel sharded replay: 1/2/4/8 shards vs the serial engine");

  // Compute-bound regime (the paper's crypt/lufact/sor shape): access-
  // dominated, moderately contended, enough variables that every shard
  // stays busy.
  RandomTraceConfig Config;
  Config.Seed = 1234;
  Config.NumThreads = 16;
  Config.NumVars = 4096;
  Config.NumLocks = 16;
  Config.NumVolatiles = 4;
  Config.OpsPerThread =
      static_cast<unsigned>(120000.0 * sizeFactor() / Config.NumThreads);
  Config.ChaosProbability = 0.001;
  Config.BarrierProbability = 0.002;
  Config.MaxAccessBurst = 4;
  // Array-sweep kernels barely lock: mostly thread-local and read-shared
  // slices, with a thin lock-protected reduction. Keeping sync events
  // rare also keeps the sync work every worker repeats (the bound on any
  // multicore speedup) a small fraction of the work.
  Config.ThreadLocalShare = 0.55;
  Config.ReadSharedShare = 0.30;
  Trace T = generateRandomTrace(Config);

  std::printf("workload: %s events, %u threads, %u variables; "
              "hardware threads: %u\n\n",
              withCommas(T.size()).c_str(), T.numThreads(), T.numVars(),
              std::thread::hardware_concurrency());

  // Column 0 is the serial engine; the rest are shard counts.
  const unsigned Columns[] = {0, 1, 2, 4, 8};
  const char *Tools[] = {"eraser", "basicvc", "djit+", "fasttrack",
                         "fasttrack64"};

  std::printf("cells: median wall ms (min-max) over %u interleaved reps\n\n",
              repetitions());
  Table Out;
  Out.addHeader({"Tool", "Serial", "1 shard", "2 shards", "4 shards",
                 "8 shards", "Speedup@4"});
  for (const char *Name : Tools) {
    std::vector<std::vector<double>> Samples(std::size(Columns));
    for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep)
      for (size_t C = 0; C != std::size(Columns); ++C)
        Samples[C].push_back(timedRun(T, Name, Columns[C]));

    std::vector<std::string> Row = {createTool(Name)->name()};
    Spread Serial, At4;
    for (size_t C = 0; C != std::size(Columns); ++C) {
      Spread S = spreadOf(Samples[C]);
      Row.push_back(cell(S));
      std::string Column =
          Columns[C] == 0 ? "serial" : "shards" + std::to_string(Columns[C]);
      Report.spread(std::string(Name) + "_" + Column + "_seconds", S, "s");
      if (Columns[C] == 0)
        Serial = S;
      if (Columns[C] == 4)
        At4 = S;
    }
    double Speedup = At4.Median > 0 ? Serial.Median / At4.Median : 0;
    Row.push_back(slowdown(Speedup));
    Report.metric(std::string(Name) + "_speedup_at4", Speedup, "x");
    Out.addRow(Row);
  }
  std::fputs(Out.render().c_str(), stdout);
  std::printf("\nExpected shape: warnings and rule counters identical to "
              "serial replay in every\ncell (asserted by "
              "tests/ParallelReplayTest.cpp).\n");
  return Report.write() ? 0 : 1;
}
