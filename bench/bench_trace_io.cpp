//===----------------------------------------------------------------------===//
//
// Experiment E20 — trace file I/O: saveTraceFile and loadTraceFile over
// the sixteen Table 1 analogues, in ns per event.
//
// Each of FT_BENCH_REPS reps saves every trace of the suite to a scratch
// file and loads it back, the trace order rotating from rep to rep so
// drift on a shared machine lands on every trace alike. A rep's figure is
// the suite's total save (load) time over its total events; the tables
// give the median (min-max) over reps. Loads reuse one Trace per suite
// entry, as the end-to-end benchmark's offline_table1 set-up does, so
// after the first rep they measure parsing rather than vector growth.
//
// Every load must reproduce the saved trace exactly (operations, barrier
// sets and entity counts); the bench exits nonzero otherwise.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Stopwatch.h"
#include "support/Table.h"
#include "trace/TraceIO.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace ft;
using namespace ft::bench;

namespace {

/// "30.1 (28.7-33.0)": the median with its min and max.
std::string cell(const Spread &S) {
  return fixed(S.Median, 1) + " (" + fixed(S.Min, 1) + "-" + fixed(S.Max, 1) +
         ")";
}

bool sameTrace(const Trace &A, const Trace &B) {
  if (A.operations() != B.operations() ||
      A.numBarrierSets() != B.numBarrierSets() ||
      A.numThreads() != B.numThreads() || A.numVars() != B.numVars() ||
      A.numLocks() != B.numLocks() || A.numVolatiles() != B.numVolatiles())
    return false;
  for (uint32_t I = 0; I != A.numBarrierSets(); ++I)
    if (A.barrierSet(I) != B.barrierSet(I))
      return false;
  return true;
}

struct Entry {
  std::string Name;
  std::string Path;
  Trace T;
  Trace Loaded;
  std::vector<double> LoadNs; ///< Per rep, ns/event.
};

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_trace_io", argc, argv);
  banner("E20: trace file save and load, ns/event");

  const std::string Dir = std::filesystem::temp_directory_path().string() +
                          "/ft_trace_io_" + std::to_string(::getpid());
  std::filesystem::create_directories(Dir);

  std::vector<Entry> Suite;
  double Events = 0;
  for (const Workload &W : benchmarkSuite()) {
    Entry E;
    E.Name = W.Name;
    E.Path = Dir + "/" + W.Name + ".trc";
    E.T = W.Generate(1, sizeFactor());
    Events += double(E.T.size());
    Suite.push_back(std::move(E));
  }

  const unsigned Reps = repetitions();
  std::vector<double> SaveNs, LoadNs;
  bool Ok = true;
  double Bytes = 0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    double SaveS = 0, LoadS = 0;
    for (size_t K = 0; K != Suite.size(); ++K) {
      Entry &E = Suite[(K + Rep) % Suite.size()];
      Stopwatch Save;
      Ok &= saveTraceFile(E.Path, E.T).ok();
      SaveS += Save.seconds();
      Stopwatch Load;
      Ok &= loadTraceFile(E.Path, E.Loaded).ok();
      double Seconds = Load.seconds();
      LoadS += Seconds;
      E.LoadNs.push_back(1e9 * Seconds / double(E.T.size()));
      if (!sameTrace(E.T, E.Loaded)) {
        std::fprintf(stderr, "error: %s did not load back as saved\n",
                     E.Name.c_str());
        Ok = false;
      }
      if (Rep == 0)
        Bytes += double(std::filesystem::file_size(E.Path));
    }
    SaveNs.push_back(1e9 * SaveS / Events);
    LoadNs.push_back(1e9 * LoadS / Events);
  }
  std::filesystem::remove_all(Dir);

  std::printf("ns/event: median (min-max) over %u interleaved reps\n\n",
              Reps);
  Table PerTrace;
  PerTrace.addHeader({"benchmark", "events", "load"});
  for (const Entry &E : Suite)
    PerTrace.addRow({E.Name, withCommas(E.T.size()), cell(spreadOf(E.LoadNs))});
  std::printf("%s", PerTrace.render().c_str());

  const Spread Save = spreadOf(SaveNs), Load = spreadOf(LoadNs);
  std::printf("\nsuite: %s events, %.2f bytes/event\n\n",
              withCommas(uint64_t(Events)).c_str(), Bytes / Events);
  Table Totals;
  Totals.addHeader({"suite", "ns/event"});
  Totals.addRow({"saveTraceFile", cell(Save)});
  Totals.addRow({"loadTraceFile", cell(Load)});
  std::printf("%s", Totals.render().c_str());

  Report.metric("events", Events);
  Report.metric("bytes_per_event", Bytes / Events, "bytes");
  Report.spread("save_ns_per_event", Save, "ns");
  Report.spread("load_ns_per_event", Load, "ns");
  if (!Report.write())
    return 1;
  return Ok ? 0 : 1;
}
