//===----------------------------------------------------------------------===//
//
// Experiment E12 (extension) — per-event cost of the online runtime shim.
//
// The offline benchmarks (E2) measure detector cost per *recorded* event;
// this harness measures what the in-process runtime adds on top for real
// std::thread programs: interning, ticket draw, ring hand-off, and the
// sequencer round trip (docs/ARCHITECTURE.md, "Online runtime"). Four
// configurations over the same lock-plus-shared-counter workload:
//
//   native       plain std::mutex / int — no instrumentation at all
//   no engine    ft::runtime wrappers with no active session (the
//                pass-through cost a library pays for being *checkable*)
//   EMPTY        online session driving the EMPTY tool — pure runtime
//                overhead: rings + sequencer, no analysis
//   FASTTRACK    online session driving FastTrack — the full product
//
// In the paper's Table 1 terms, EMPTY/native is the instrumentation base
// overhead and FASTTRACK/EMPTY the analysis slowdown; online both shims
// ride the application's own threads instead of a trace file.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "detectors/EmptyTool.h"
#include "runtime/Instrument.h"
#include "support/Stopwatch.h"
#include "support/Table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

using namespace ft;
using namespace ft::bench;
namespace rt = ft::runtime;

namespace {

struct RunResult {
  double Seconds = 0;
  uint64_t Events = 0; // instrumentation events generated (0 for native)
  // Merge-loop polling counters of the kept session (E17).
  uint64_t MergeSweeps = 0, MergeEmptyPolls = 0, MergePacedWaits = 0;
};

/// The workload: \p NumThreads threads, each performing \p Iters rounds of
/// lock → read-modify-write → unlock on a striped counter array. Mutex /
/// Shared are template parameters so the identical loop runs with native
/// and instrumented primitives.
constexpr unsigned Stripes = 4;

template <typename MutexT, typename CellT, typename ThreadT>
double runWorkload(unsigned NumThreads, int Iters) {
  MutexT Locks[Stripes];
  CellT Cells[Stripes] = {};
  Stopwatch Watch;
  {
    std::vector<ThreadT> Threads;
    Threads.reserve(NumThreads);
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        for (int I = 0; I != Iters; ++I) {
          unsigned S = (T + static_cast<unsigned>(I)) % Stripes;
          Locks[S].lock();
          Cells[S].write(Cells[S].read() + 1);
          Locks[S].unlock();
        }
      });
    for (ThreadT &T : Threads)
      T.join();
  }
  return Watch.seconds();
}

/// Adapter giving a plain int the Shared<int> read/write spelling.
struct PlainCell {
  int V = 0;
  int read() const { return V; }
  void write(int X) { V = X; }
};

double best(double A, double B) { return A == 0 || B < A ? B : A; }

RunResult timeNative(unsigned NumThreads, int Iters) {
  RunResult R;
  for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep)
    R.Seconds = best(
        R.Seconds,
        runWorkload<std::mutex, PlainCell, std::thread>(NumThreads, Iters));
  return R;
}

RunResult timePassThrough(unsigned NumThreads, int Iters) {
  RunResult R;
  for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep)
    R.Seconds = best(R.Seconds,
                     runWorkload<rt::Mutex, rt::Shared<int>, rt::Thread>(
                         NumThreads, Iters));
  return R;
}

RunResult timeOnline(Tool &Detector, unsigned NumThreads, int Iters,
                     const rt::OnlineOptions &Base = rt::OnlineOptions()) {
  RunResult R;
  for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep) {
    Detector.clearWarnings();
    rt::OnlineOptions Options = Base;
    Options.KeepCapture = false; // measure the shim, not trace retention
    Options.ValidateCapture = false;
    // Fixed-fidelity measurement: the rung is whatever the caller pinned
    // (Full by default), and the supervisor must not shed accesses or
    // degrade further mid-run — that would quietly shrink the workload.
    Options.Supervise.Enabled = false;
    rt::Engine Engine(Detector, Options);
    double Seconds =
        runWorkload<rt::Mutex, rt::Shared<int>, rt::Thread>(NumThreads, Iters);
    rt::OnlineReport Report = Engine.finish();
    if (Report.Halted)
      std::fprintf(stderr, "warning: online session halted mid-bench\n");
    R.Events = Report.EventsDispatched; // capture is off; count delivered ops
    if (R.Seconds == 0 || Seconds < R.Seconds) {
      R.Seconds = Seconds;
      R.MergeSweeps = Report.MergeSweeps;
      R.MergeEmptyPolls = Report.MergeEmptyPolls;
      R.MergePacedWaits = Report.MergePacedWaits;
    }
  }
  return R;
}

std::string nsPerEvent(const RunResult &R) {
  if (R.Events == 0)
    return "-";
  return fixed(1e9 * R.Seconds / static_cast<double>(R.Events), 0);
}

/// Options pinning the session at full fidelity: no ladder at all.
rt::OnlineOptions fullFidelity() {
  rt::OnlineOptions Options;
  Options.Degrade.Enabled = false;
  return Options;
}

// --- cross-core round trip (E17) ----------------------------------------
//
// The hardware floor under every ring hand-off, and the scale of the merge
// loop's pace: two threads bounce a counter through one cache line, each
// waiting for the other's store. A waiter that spins too long yields, so a
// host that puts both threads on one CPU still finishes (and reads slow).

double roundTripNs() {
  constexpr int Trips = 20000;
  std::atomic<int> Ball{0};
  auto WaitFor = [&Ball](int V) {
    for (unsigned Spins = 0; Ball.load(std::memory_order_acquire) != V;)
      if (++Spins > 4096)
        std::this_thread::yield();
  };
  std::thread Partner([&] {
    for (int I = 0; I != Trips; ++I) {
      WaitFor(2 * I + 1);
      Ball.store(2 * I + 2, std::memory_order_release);
    }
  });
  Ball.store(1, std::memory_order_release); // untimed: the partner starts
  WaitFor(2);
  Stopwatch Watch;
  for (int I = 1; I != Trips; ++I) {
    Ball.store(2 * I + 1, std::memory_order_release);
    WaitFor(2 * I + 2);
  }
  const double Seconds = Watch.seconds();
  Partner.join();
  return 1e9 * Seconds / (Trips - 1);
}

// --- shard scaling (E12 extension) -------------------------------------
//
// Aggregate detection throughput at Shards ∈ {1, 2, 4}. The workload is
// deliberately shadow-bound rather than lock-bound: every thread reads a
// pseudo-random tour of the whole var space (read-shared — no warnings,
// so FastTrack stays on its read-epoch fast path and the bench measures
// pipeline + shadow cost, not report formatting). Uniform touches over
// the space mean the single sequencer walks the entire VarState array
// between revisits, while a shard worker revisits only the 1/N slice the
// block-cyclic map assigns it — the locality that pays even when the
// machine has fewer cores than shards. A shared mutex taken every
// SyncEvery events keeps the sync events every worker dispatches
// exercised without ordering the tours; it is sparse because this series
// measures access throughput (the sync-heavy regime is covered by the
// equivalence tests).

constexpr uint64_t SyncEvery = 65536;

/// Var-space size for the scaling series (env FT_SHARD_VARS overrides;
/// must be a power of two). The default (2^18 vars = 4 MiB of VarState)
/// is sized so the regimes actually differ on a small host: the single
/// sequencer's shadow exceeds L2 outright, a 2-shard slice just matches
/// it, and a 4-shard slice (1 MiB) fits alongside its ring.
unsigned shardSpaceVars() {
  if (const char *V = std::getenv("FT_SHARD_VARS"))
    return static_cast<unsigned>(std::atoi(V));
  return 1u << 18;
}

/// One timed sharded session. Reps live in the caller, which interleaves
/// them round-robin across shard counts: on a shared machine the noise
/// floor drifts on a seconds scale, so consecutive same-config reps
/// sample correlated noise while the quantity under test — the *ratio*
/// between shard counts — wants all configs sampled in the same window.
RunResult runShardedOnce(unsigned Shards, unsigned NumThreads,
                         uint64_t EventsPerThread) {
  const unsigned SpaceVars = shardSpaceVars();
  FastTrack Detector;
  RunResult R;
  {
    rt::OnlineOptions Options;
    Options.Shards = Shards;
    Options.MaxVars = SpaceVars;
    Options.RingCapacity = 1u << 16;
    Options.SequencerBatch = 4096;
    Options.KeepCapture = false;
    Options.ValidateCapture = false;
    Options.Degrade.Enabled = false;
    Options.Supervise.Enabled = false;

    // Construction is outside the timed region (matching timeOnline): it
    // is dominated by allocating and zeroing the clones' shadow spaces —
    // an O(Shards x Vars) one-time cost that would otherwise be billed
    // against a steady-state throughput number. The post-workload drain
    // stays inside: detection is only done when finish() returns.
    rt::Engine Engine(Detector, Options);
    Stopwatch Watch;
    rt::Mutex Spine;
    {
      std::vector<rt::Thread> Threads;
      Threads.reserve(NumThreads);
      for (unsigned T = 0; T != NumThreads; ++T)
        Threads.emplace_back([&, T] {
          rt::Engine *E = rt::Engine::current();
          uint64_t X = 0x9e3779b97f4a7c15ull * (T + 1);
          for (uint64_t I = 0; I != EventsPerThread; ++I) {
            X = X * 6364136223846793005ull + 1442695040888963407ull;
            E->emit(OpKind::Read,
                    static_cast<uint32_t>((X >> 33) & (SpaceVars - 1)));
            if ((I + 1) % SyncEvery == 0) {
              Spine.lock();
              Spine.unlock();
            }
          }
        });
      for (rt::Thread &T : Threads)
        T.join();
    }
    rt::OnlineReport Report = Engine.finish();
    // Throughput includes the post-workload drain: the detector is only
    // done when the last logged event has been dispatched.
    double Seconds = Watch.seconds();
    if (Report.Halted)
      std::fprintf(stderr, "warning: sharded session halted mid-bench\n");
    R.Events = Report.EventsDispatched;
    R.Seconds = Seconds;
  }
  return R;
}

/// Options pinning the session at one variable-id divisor (StartRung
/// skips the space trigger; the one-rung ladder is exhausted, so the
/// session runs the whole workload there).
rt::OnlineOptions pinnedRung(unsigned Divisor) {
  rt::OnlineOptions Options;
  Options.Degrade.Ladder = {Divisor};
  Options.Degrade.StartRung = 1;
  return Options;
}

// --- thread churn (E13) -------------------------------------------------
//
// Per-event throughput when the *threads* turn over instead of the data:
// a fixed task count run by ChurnLanes concurrent lanes, where each lane
// retires its worker thread and forks a fresh one every TasksPerThread
// tasks (0 = one long-lived worker per lane — the no-churn baseline).
// Every fork after the first reincarnates the joined predecessor's slot,
// so the series prices the recycling path (join → drain → reincarnate)
// and pins the lifecycle invariant the churn tests assert: peak slots
// track max-live threads (2 per lane + main), not total threads forked.

constexpr unsigned ChurnLanes = 4;
constexpr unsigned EventsPerTask = 16;

struct ChurnResult {
  RunResult Run;
  unsigned SlotsAllocated = 0;
  unsigned PeakLiveSlots = 0;
  uint64_t ThreadsRecycled = 0;
  uint64_t ThreadsForked = 0;
};

ChurnResult runChurnOnce(unsigned TasksPerThread, unsigned TasksPerLane) {
  FastTrack Detector;
  ChurnResult R;
  rt::OnlineOptions Options;
  Options.MaxThreads = 2 * ChurnLanes + 1; // lane + its live worker, + main
  Options.KeepCapture = false;
  Options.ValidateCapture = false;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;

  std::atomic<uint64_t> Forked{0};
  rt::Engine Engine(Detector, Options);
  Stopwatch Watch;
  {
    std::vector<rt::Shared<int>> Vars(ChurnLanes); // lane-private: race-free
    std::vector<rt::Thread> Lanes;
    Lanes.reserve(ChurnLanes);
    for (unsigned L = 0; L != ChurnLanes; ++L)
      Lanes.emplace_back([&, L] {
        auto RunTasks = [&](unsigned From, unsigned To) {
          rt::Thread Worker([&Vars, L, From, To] {
            for (unsigned T = From; T != To; ++T)
              for (unsigned E = 0; E != EventsPerTask; ++E)
                FT_WRITE(Vars[L], static_cast<int>(T + E));
          });
          Worker.join(); // join → next fork: the lane's writes all chain
          Forked.fetch_add(1, std::memory_order_relaxed);
        };
        if (TasksPerThread == 0) {
          RunTasks(0, TasksPerLane);
          return;
        }
        for (unsigned T = 0; T < TasksPerLane; T += TasksPerThread)
          RunTasks(T, std::min(T + TasksPerThread, TasksPerLane));
      });
    for (rt::Thread &T : Lanes)
      T.join();
  }
  rt::OnlineReport Report = Engine.finish();
  R.Run.Seconds = Watch.seconds(); // includes the post-workload drain
  if (Report.Halted)
    std::fprintf(stderr, "warning: churn session halted mid-bench\n");
  R.Run.Events = Report.EventsDispatched;
  R.SlotsAllocated = Report.SlotsAllocated;
  R.PeakLiveSlots = Report.PeakLiveSlots;
  R.ThreadsRecycled = Report.ThreadsRecycled;
  R.ThreadsForked = ChurnLanes + Forked.load(std::memory_order_relaxed);
  return R;
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("bench_online_overhead", argc, argv);
  banner("Online runtime overhead: per-event shim cost (extension E12)");

  const int Iters =
      static_cast<int>(50000 * sizeFactor()); // events/thread = 4 x Iters
  std::printf("workload: N threads x %d iterations of lock/incr/unlock on "
              "%u stripes\n(4 events per iteration: acq rd wr rel); "
              "best of %u reps\n\n",
              Iters, Stripes, repetitions());

  Table Out;
  Out.addHeader({"threads", "config", "seconds", "events", "ns/event",
                 "vs native", "vs EMPTY"});
  for (unsigned NumThreads : {1u, 2u, 4u}) {
    RunResult Native = timeNative(NumThreads, Iters);
    RunResult Pass = timePassThrough(NumThreads, Iters);
    EmptyTool Empty;
    RunResult EmptyRun = timeOnline(Empty, NumThreads, Iters, fullFidelity());
    FastTrack FT;
    RunResult FTRun = timeOnline(FT, NumThreads, Iters, fullFidelity());
    // The degraded-rung series: FastTrack pinned at coarse granularity
    // (divisor 64: every access still delivered, ids remapped) — what a
    // space-degraded session pays. A rung that rewrites accesses gives up
    // batched admission (OnlineDriver::admitAccessRun), so this buys no
    // time; the ladder answers space only.
    FastTrack FTCoarse;
    RunResult CoarseRun = timeOnline(
        FTCoarse, NumThreads, Iters,
        pinnedRung(64));

    auto Row = [&](const char *Name, const RunResult &R, double VsEmpty) {
      Out.addRow({std::to_string(NumThreads), Name, fixed(R.Seconds, 3),
                  R.Events ? withCommas(R.Events) : "-", nsPerEvent(R),
                  fixed(R.Seconds / Native.Seconds, 1) + "x",
                  VsEmpty > 0 ? fixed(VsEmpty, 1) + "x" : "-"});
    };
    Row("native", Native, 0);
    Row("no engine", Pass, 0);
    Row("EMPTY", EmptyRun, 0);
    Row("FASTTRACK", FTRun, FTRun.Seconds / EmptyRun.Seconds);
    Row("FT coarse64", CoarseRun, CoarseRun.Seconds / EmptyRun.Seconds);
    Out.addSeparator();

    // Normalize the degraded rung by the events the application *emitted*
    // (4 per iteration) — the per-op price the application pays.
    const double Emitted = 4.0 * double(Iters) * double(NumThreads);

    const std::string Prefix = "t" + std::to_string(NumThreads) + "_";
    Report.metric(Prefix + "native_seconds", Native.Seconds, "s");
    Report.metric(Prefix + "passthrough_seconds", Pass.Seconds, "s");
    Report.metric(Prefix + "empty_seconds", EmptyRun.Seconds, "s");
    Report.metric(Prefix + "fasttrack_seconds", FTRun.Seconds, "s");
    if (EmptyRun.Events)
      Report.metric(Prefix + "empty_ns_per_event",
                    1e9 * EmptyRun.Seconds / double(EmptyRun.Events), "ns");
    if (FTRun.Events) {
      Report.metric(Prefix + "fasttrack_ns_per_event",
                    1e9 * FTRun.Seconds / double(FTRun.Events), "ns");
      Report.metric(Prefix + "events", double(FTRun.Events));
      Report.metric(Prefix + "merge_sweeps", double(FTRun.MergeSweeps));
      Report.metric(Prefix + "merge_empty_polls",
                    double(FTRun.MergeEmptyPolls));
      Report.metric(Prefix + "merge_paced_waits",
                    double(FTRun.MergePacedWaits));
    }
    Report.metric(Prefix + "fasttrack_coarse64_ns_per_event",
                  1e9 * CoarseRun.Seconds / Emitted, "ns");
  }
  std::printf("%s", Out.render().c_str());

  std::vector<double> Trips;
  for (unsigned Rep = 0; Rep != 11; ++Rep)
    Trips.push_back(roundTripNs());
  const Spread RoundTrip = spreadOf(Trips);
  std::printf("\ncross-core round trip: %.0f ns median (%.0f-%.0f), 11 "
              "reps\n",
              RoundTrip.Median, RoundTrip.Min, RoundTrip.Max);
  Report.spread("xcore_round_trip_ns", RoundTrip, "ns");

  // The shard-scaling series: aggregate FastTrack throughput with the
  // detection state partitioned across per-shard sequencers.
  const unsigned ScaleThreads = 4;
  const uint64_t PerThread =
      static_cast<uint64_t>(400000 * sizeFactor());
  std::printf("\nshard scaling: %u app threads x %llu shadow-bound events "
              "over %u vars\n(throughput includes the post-workload "
              "drain); best of %u interleaved reps\n\n",
              ScaleThreads, static_cast<unsigned long long>(PerThread),
              shardSpaceVars(), repetitions());
  // Reps are interleaved round-robin across shard counts (see
  // runShardedOnce) so every config samples the same noise window.
  const unsigned ShardCounts[] = {1u, 2u, 4u};
  RunResult ScaleBest[3];
  for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep)
    for (size_t C = 0; C != 3; ++C) {
      RunResult One =
          runShardedOnce(ShardCounts[C], ScaleThreads, PerThread);
      ScaleBest[C].Events = One.Events;
      ScaleBest[C].Seconds = best(ScaleBest[C].Seconds, One.Seconds);
    }
  Table Scale;
  Scale.addHeader({"shards", "seconds", "events", "events/sec", "vs 1"});
  double Baseline = 0;
  for (size_t C = 0; C != 3; ++C) {
    const RunResult &R = ScaleBest[C];
    double PerSec = static_cast<double>(R.Events) / R.Seconds;
    if (ShardCounts[C] == 1)
      Baseline = PerSec;
    Scale.addRow({std::to_string(ShardCounts[C]), fixed(R.Seconds, 3),
                  withCommas(R.Events), withCommas(uint64_t(PerSec)),
                  fixed(PerSec / Baseline, 2) + "x"});
    const std::string Prefix =
        "shards" + std::to_string(ShardCounts[C]) + "_";
    Report.metric(Prefix + "seconds", R.Seconds, "s");
    Report.metric(Prefix + "events_per_sec", PerSec, "events/s");
  }
  std::printf("%s", Scale.render().c_str());

  // The thread-churn series (E13): fixed work, varying thread turnover.
  // "churn N%" forks a fresh worker every 100/N tasks; every such fork
  // reincarnates a joined slot, so slot counts stay at max-live whatever
  // the turnover.
  const unsigned TasksPerLane =
      static_cast<unsigned>(250 * sizeFactor());
  struct ChurnPoint {
    const char *Label;
    unsigned Percent;        // of tasks that start on a fresh thread
    unsigned TasksPerThread; // 0 = long-lived workers (no churn)
  };
  const ChurnPoint Points[] = {
      {"churn0", 0, 0}, {"churn10", 10, 10}, {"churn50", 50, 2}};
  std::printf("\nthread churn: %u lanes x %u tasks x %u events, a fresh "
              "worker thread every\n1/rate tasks through a %u-slot table; "
              "best of %u reps\n\n",
              ChurnLanes, TasksPerLane, EventsPerTask, 2 * ChurnLanes + 1,
              repetitions());
  Table ChurnOut;
  ChurnOut.addHeader({"churn", "threads", "slots", "peak live", "recycled",
                      "seconds", "events/sec"});
  for (const ChurnPoint &P : Points) {
    ChurnResult Best;
    for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep) {
      ChurnResult One = runChurnOnce(P.TasksPerThread, TasksPerLane);
      if (Best.Run.Seconds == 0 || One.Run.Seconds < Best.Run.Seconds)
        Best = One;
    }
    double PerSec =
        static_cast<double>(Best.Run.Events) / Best.Run.Seconds;
    ChurnOut.addRow({std::to_string(P.Percent) + "%",
                     withCommas(Best.ThreadsForked),
                     std::to_string(Best.SlotsAllocated),
                     std::to_string(Best.PeakLiveSlots),
                     withCommas(Best.ThreadsRecycled),
                     fixed(Best.Run.Seconds, 3), withCommas(uint64_t(PerSec))});
    const std::string Prefix = std::string(P.Label) + "_";
    Report.metric(Prefix + "events_per_sec", PerSec, "events/s");
    Report.metric(Prefix + "peak_slots", Best.SlotsAllocated);
    Report.metric(Prefix + "threads_recycled",
                  double(Best.ThreadsRecycled));
  }
  std::printf("%s", ChurnOut.render().c_str());

  std::printf("\nreading the table: 'no engine'/native is the dormant-shim "
              "tax, EMPTY/native\nthe full runtime pipeline (rings + "
              "sequencer) with zero analysis, and\nFASTTRACK/EMPTY the "
              "detector itself — the online analogue of Table 1's\n"
              "slowdown normalization.\n");
  return Report.write() ? 0 : 1;
}
