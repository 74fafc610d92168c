//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ft_bench: one process of the end-to-end benchmark. It runs one seeded
/// workload against the detector's public API only — replay(),
/// OnlineDriver::offer(), Engine, the Instrument.h shims, loadTraceFile()
/// — checks every result against the happens-before oracle (src/hb), and
/// prints one JSON object as the last line of stdout holding the raw
/// samples. run.py turns the samples into the metrics BENCHMARK.json
/// names; README.md defines each of them.
///
///   ft_bench --workload NAME --seed N (--seconds S | --samples K)
///            [--trace FILE] [--smoke] [--scratch DIR]
///
/// --seconds runs for about S seconds in all, set-up and checks included;
/// --samples takes a fixed count of samples, so two commits do the same
/// work. --trace (with --seconds) records spans and measures the per-layer
/// metrics; --smoke shrinks the inputs and adds the slow oracle
/// cross-check.
///
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/EmptyTool.h"
#include "framework/OnlineDriver.h"
#include "framework/Replay.h"
#include "hb/HappensBefore.h"
#include "hb/RaceOracle.h"
#include "runtime/Instrument.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "trace/TraceIO.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <sched.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ft;
namespace rt = ft::runtime;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile of \p V, interpolating between order statistics (0 for
/// an empty sample).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// The q-quantile of clock readings in whole nanoseconds, interpolating
/// the mid-point distribution function between distinct readings: a
/// plain quantile of such data is a whole number that many runs share.
double tickQuantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double PrevX = V.front(), PrevMid = 0;
  for (size_t I = 0; I != V.size();) {
    size_t J = I;
    while (J != V.size() && V[J] == V[I])
      ++J;
    double Mid = (double(I) + double(J - I) / 2) / double(V.size());
    if (Q <= Mid)
      return I == 0 ? V[I]
                    : PrevX + (Q - PrevMid) / (Mid - PrevMid) * (V[I] - PrevX);
    PrevX = V[I];
    PrevMid = Mid;
    I = J;
  }
  return V.back();
}

/// A size field of /proc/self/status ("VmHWM", "VmRSS"), in bytes.
uint64_t statusBytes(const std::string &Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Field + ":", 0) == 0)
      return std::strtoull(Line.c_str() + Field.size() + 1, nullptr, 10) *
             1024;
  return 0;
}

// --- thread placement -------------------------------------------------------
//
// Every busy thread of an online session runs on a CPU of its own, the
// same one in every session: producer P on the P-th CPU, the engine's
// threads on the CPUs after the producers (in the order the engine starts
// them), and the main thread, idle while the producers run, on the next
// one. Left to the scheduler, two lock-heavy producers were sometimes
// stacked on one CPU (~32 ns/event) and sometimes run in parallel (~150
// ns/event), and which of the two a session got decided the median. The
// layout is fixed because the cost of a cross-core hand-off depends on
// which two CPUs take part: reordering the CPUs before each session made
// the medians of lock-heavy runs spread twice as far. With more threads
// than CPUs the layout wraps around, and threads share CPUs.
//
// Offline work runs on the first CPU. Which CPU does not matter: the
// yardstick (below) runs next to each replay on the same CPU and takes
// the host's speed out of the result.

/// Pins thread \p Tid (0: the calling thread) to \p Cpu.
void pinThread(pid_t Tid, int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(Tid, sizeof(Set), &Set);
}

/// The ids of this process's threads, ascending.
std::vector<pid_t> threadIds() {
  std::vector<pid_t> Ids;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator("/proc/self/task", Ec))
    Ids.push_back(static_cast<pid_t>(
        std::strtol(Entry.path().filename().c_str(), nullptr, 10)));
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

/// The CPUs the calling thread may run on; called before any pinning, the
/// CPUs the process may use.
std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  if (Cpus.empty())
    Cpus.push_back(0);
  return Cpus;
}

struct Placement {
  std::vector<int> Cpus; ///< The CPUs of the process.
  bool Stacked = false;  ///< Every thread on the first CPU.

  /// The CPU of the I-th thread of the layout.
  int cpu(unsigned I) const {
    return Stacked ? Cpus.front() : Cpus[I % Cpus.size()];
  }
};

// --- tracing --------------------------------------------------------------
//
// Spans are recorded by this file around calls into the detector, kept in
// memory, and written as Chrome trace-event JSON at exit. Each span names
// its layer (the Chrome "cat" field), its parent, and optionally the span
// that caused it (a warning's racing write), so run.py can compute each
// layer's self time.

struct Span {
  std::string Name;
  const char *Layer;
  unsigned Tid;
  uint64_t Id, Parent, Cause, Start, End;
};

/// One thread's span buffer. A producer owns its lane for one session;
/// the main thread absorbs it after the join.
struct Lane {
  explicit Lane(unsigned Tid) : Tid(Tid) {}
  unsigned Tid;
  uint64_t Next = 0;
  std::vector<Span> Spans;
  std::vector<double> EmitNs; ///< Every sampled shim call, kept or not.
  size_t SpanCap = 0;         ///< Emit spans this lane may still keep.

  uint64_t nextId() { return (uint64_t(Tid) << 40) | ++Next; }
  void add(const char *Layer, std::string Name, uint64_t Start, uint64_t End,
           uint64_t Parent, uint64_t Cause = 0, uint64_t Id = 0) {
    Spans.push_back({std::move(Name), Layer, Tid, Id ? Id : nextId(), Parent,
                     Cause, Start, End});
  }
};

class Tracer {
public:
  Lane Main{0};
  std::vector<double> EmitNs;

  void absorb(Lane &L) {
    for (Span &S : L.Spans)
      Spans.push_back(std::move(S));
    EmitNs.insert(EmitNs.end(), L.EmitNs.begin(), L.EmitNs.end());
    L.Spans.clear();
    L.EmitNs.clear();
  }

  bool write(const std::string &Path, const std::string &Process) {
    absorb(Main);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F,
                 "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": "
                 "\"M\", \"pid\": 1, \"args\": {\"name\": \"%s\"}}",
                 Process.c_str());
    uint64_t Base = ~0ull;
    for (const Span &S : Spans)
      Base = std::min(Base, S.Start);
    for (const Span &S : Spans)
      std::fprintf(F,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, \"cause\": "
                   "%llu}}",
                   S.Name.c_str(), S.Layer, S.Tid, (S.Start - Base) / 1e3,
                   (S.End - S.Start) / 1e3, (unsigned long long)S.Id,
                   (unsigned long long)S.Parent, (unsigned long long)S.Cause);
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
};

/// Runs \p Body, recording it as one span on the main lane when tracing.
template <typename Fn>
void traced(Tracer *T, const char *Layer, const std::string &Name,
            Fn &&Body) {
  uint64_t Start = nowNs();
  Body();
  if (T)
    T->Main.add(Layer, Name, Start, nowNs(), 0);
}

/// Calls one instrumentation shim; under tracing, every 64th call of the
/// lane is timed (and kept as an `emit` span while the lane has room).
template <bool Traced, typename Fn>
inline void shim(Lane *L, uint64_t &Calls, uint64_t Parent, Fn &&Call) {
  if constexpr (Traced) {
    if ((Calls++ & 63) == 0) {
      uint64_t Start = nowNs();
      Call();
      uint64_t End = nowNs();
      L->EmitNs.push_back(double(End - Start));
      if (L->SpanCap) {
        --L->SpanCap;
        L->add("runtime", "emit", Start, End, Parent);
      }
      return;
    }
  }
  Call();
}

// --- results --------------------------------------------------------------

struct Result {
  std::vector<double> NsPerEvent; ///< One per pass or session.
  std::vector<double> SetupS;     ///< One per set-up.
  std::vector<double> LatencyUs;  ///< One per reported race.
  /// Offline: NsPerEvent and SetupS as measured, before the yardstick.
  std::vector<double> RawNsPerEvent, RawSetupS;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t Emitted = 0, Dispatched = 0;
  uint64_t WarningMismatch = 0;
  std::vector<std::string> Failures; ///< The first few, for the log.
  std::map<std::string, double> Layers;
  double UntracedP50 = 0, TracedP50 = 0;
  uint64_t PeakRss = 0; ///< Bytes resident at the detector's peak.

  void fail(const std::string &Why) {
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
};

// --- oracle ---------------------------------------------------------------

std::vector<VarId> warnedVars(const Tool &T) {
  std::vector<VarId> Vars;
  for (const RaceWarning &W : T.warnings())
    Vars.push_back(W.Var);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

size_t symmetricDifference(const std::vector<VarId> &A,
                           const std::vector<VarId> &B) {
  std::vector<VarId> D;
  std::set_symmetric_difference(A.begin(), A.end(), B.begin(), B.end(),
                                std::back_inserter(D));
  return D.size();
}

/// The variables of \p T with at least one racy pair: racyVars() in linear
/// time. The ordering is the oracle's own (HappensBefore); only the pair
/// search changes. An access is checked against its variable's last write
/// and each thread's last read since that write: any earlier conflicting
/// access is ordered before one of those by program order or by an
/// earlier race-free pair, so a variable is flagged iff racyVars() lists
/// it. racyVars() is quadratic per variable (minutes on the full Table 1
/// suite); --smoke checks that the two agree.
std::vector<VarId> hbRacyVars(const Trace &T) {
  HappensBefore Hb(T);
  constexpr size_t None = ~size_t(0);
  std::vector<size_t> LastWrite(T.numVars(), None);
  std::vector<std::vector<std::pair<ThreadId, size_t>>> Reads(T.numVars());
  std::vector<bool> Racy(T.numVars(), false);
  for (size_t I = 0, E = T.size(); I != E; ++I) {
    const Operation &Op = T[I];
    if (!isAccess(Op.Kind) || Racy[Op.Target])
      continue;
    const VarId X = Op.Target;
    bool Race = LastWrite[X] != None && !Hb.happensBefore(LastWrite[X], I);
    auto &R = Reads[X];
    if (Op.Kind == OpKind::Read) {
      auto It = std::find_if(R.begin(), R.end(),
                             [&](auto &P) { return P.first == Op.Thread; });
      if (It == R.end())
        R.push_back({Op.Thread, I});
      else
        It->second = I;
    } else {
      for (auto &P : R)
        Race = Race || !Hb.happensBefore(P.second, I);
      R.clear();
      LastWrite[X] = I;
    }
    Racy[X] = Race;
  }
  std::vector<VarId> Out;
  for (VarId X = 0; X != Racy.size(); ++X)
    if (Racy[X])
      Out.push_back(X);
  return Out;
}

// --- per-layer metrics from a workload's event streams ---------------------
//
// Every workload yields event streams: the Table 1 traces, or the capture
// of an online session. The traced run pushes those streams through each
// layer on its own, so every layer metric is measured on every workload.
// A layer a workload does not run reads 0 (the runtime on offline_table1,
// a Table 1 trace on an online workload, race latency without races).

constexpr unsigned StreamReps = 3;
constexpr uint64_t GovernedBudgetBytes = 2u << 20;

bool hasBarrier(const Trace &T) {
  return std::any_of(T.begin(), T.end(), [](const Operation &Op) {
    return Op.Kind == OpKind::Barrier;
  });
}

/// ns/event of replaying \p Streams into the EMPTY tool, median of
/// StreamReps repetitions.
double emptyReplayNsPerEvent(const std::vector<const Trace *> &Streams) {
  std::vector<double> Reps;
  for (unsigned Rep = 0; Rep != StreamReps; ++Rep) {
    double Seconds = 0, Events = 0;
    for (const Trace *T : Streams) {
      EmptyTool Checker;
      ReplayResult R = replay(*T, Checker);
      Seconds += R.Seconds;
      Events += double(R.Events);
    }
    Reps.push_back(1e9 * Seconds / Events);
  }
  return median(Reps);
}

/// ns/event of feeding \p Streams to OnlineDriver::offer(): admission and
/// dispatch without the runtime's threads. Barriers cannot be offered
/// online, so streams holding one are skipped.
template <typename ToolT>
double offerNsPerEvent(const std::vector<const Trace *> &Streams) {
  std::vector<double> Reps;
  for (unsigned Rep = 0; Rep != StreamReps; ++Rep) {
    double Seconds = 0, Events = 0;
    for (const Trace *T : Streams) {
      if (hasBarrier(*T))
        continue;
      ToolT Checker;
      ToolContext Capacity{T->numThreads(), T->numVars(), T->numLocks(),
                           T->numVolatiles()};
      OnlineDriverOptions Options;
      Options.Degrade.Enabled = false;
      Stopwatch Watch;
      OnlineDriver Driver(Checker, Capacity, Options);
      for (Operation Op : *T)
        Driver.offer(Op);
      Driver.finish();
      Seconds += Watch.seconds();
      Events += double(Driver.dispatched());
    }
    Reps.push_back(Events ? 1e9 * Seconds / Events : 0);
  }
  return median(Reps);
}

void streamLayers(const std::vector<const Trace *> &Streams,
                  const std::vector<std::string> &Names,
                  const std::string &Scratch, Tracer *Tr, Result &Out) {
  auto &L = Out.Layers;
  traced(Tr, "core", "ablate.fasttrack", [&] {
    std::vector<std::vector<double>> PerStream(Streams.size());
    std::vector<double> Total;
    FastTrackRuleStats Rules;
    ClockStats Clocks;
    for (unsigned Rep = 0; Rep != StreamReps; ++Rep) {
      double Seconds = 0, Events = 0;
      for (size_t I = 0; I != Streams.size(); ++I) {
        FastTrack Checker;
        ReplayResult R = replay(*Streams[I], Checker);
        PerStream[I].push_back(1e9 * R.Seconds / double(R.Events));
        Seconds += R.Seconds;
        Events += double(R.Events);
        if (Rep == 0) {
          Rules += Checker.ruleStats();
          Clocks += R.Clocks;
        }
      }
      Total.push_back(1e9 * Seconds / Events);
    }
    L["core.ns_per_event"] = median(Total);
    for (size_t I = 0; I != Names.size(); ++I)
      L["core.ns_per_event." + Names[I]] = median(PerStream[I]);
    double Accesses = double(Rules.reads() + Rules.writes());
    L["core.same_epoch_frac"] =
        (Rules.ReadSameEpoch + Rules.WriteSameEpoch) / Accesses;
    L["core.read_shared_frac"] = Rules.ReadShared / Accesses;
    L["core.slow_path_frac"] = (Rules.ReadShare + Rules.WriteShared) / Accesses;
    L["clock.vc_ops"] = double(Clocks.totalOps());
    L["clock.allocations"] = double(Clocks.Allocations);
  });
  traced(Tr, "framework", "ablate.replay_empty", [&] {
    L["framework.replay_empty_ns_per_event"] =
        emptyReplayNsPerEvent(Streams);
  });
  L["framework.fasttrack_vs_empty"] =
      L["core.ns_per_event"] / L["framework.replay_empty_ns_per_event"];
  traced(Tr, "framework", "ablate.offer", [&] {
    L["framework.offer_ns_per_event"] = offerNsPerEvent<FastTrack>(Streams);
  });
  traced(Tr, "framework", "ablate.offer_empty", [&] {
    L["framework.offer_empty_ns_per_event"] =
        offerNsPerEvent<EmptyTool>(Streams);
  });
  traced(Tr, "shadow", "ablate.shadow", [&] {
    // Peak shadow bytes, probed every 4096 ops, with the table governed at
    // a 2 MiB budget and without governance. Tables small enough to be
    // backed eagerly are never governed, so there the two agree.
    double Governed = 0, Ungoverned = 0, Compressed = 0, Summarized = 0,
           Trips = 0;
    for (const Trace *T : Streams)
      for (bool Govern : {true, false}) {
        FastTrack Checker;
        if (Govern) {
          ShadowMemoryPolicy Policy;
          Policy.Enabled = true;
          Policy.BudgetBytes = GovernedBudgetBytes;
          Checker.configureShadowPolicy(Policy);
        }
        MemoryTracker Peak;
        ReplayOptions Options;
        Options.BudgetTracker = &Peak;
        replay(*T, Checker, Options);
        double Bytes = double(
            std::max<uint64_t>(Peak.peakBytes(), Checker.shadowBytes()));
        if (!Govern) {
          Ungoverned = std::max(Ungoverned, Bytes);
          continue;
        }
        ShadowGovernorStats GS = Checker.shadowGovernorStats();
        Governed = std::max(Governed, Bytes);
        Compressed += double(GS.PagesCompressed);
        Summarized += double(GS.PagesSummarized);
        Trips += double(GS.BudgetTrips);
      }
    L["shadow.high_water_bytes"] = Governed;
    L["shadow.ungoverned_high_water_bytes"] = Ungoverned;
    L["shadow.pages_compressed"] = Compressed;
    L["shadow.pages_summarized"] = Summarized;
    L["shadow.budget_trips"] = Trips;
  });
  traced(Tr, "trace", "ablate.parse", [&] {
    double Bytes = 0, Seconds = 0, Events = 0;
    for (size_t I = 0; I != Streams.size(); ++I) {
      std::string Path = Scratch + "/stream" + std::to_string(I) + ".trc";
      if (!saveTraceFile(Path, *Streams[I]).ok()) {
        Out.fail("cannot write " + Path);
        continue;
      }
      std::vector<double> Reps;
      for (unsigned Rep = 0; Rep != StreamReps; ++Rep) {
        Trace Parsed;
        Stopwatch Watch;
        bool Ok = loadTraceFile(Path, Parsed).ok();
        Reps.push_back(Watch.seconds());
        if (!Ok || Parsed.size() != Streams[I]->size())
          Out.fail("parse mismatch on " + Path);
      }
      std::filesystem::remove(Path);
      Seconds += median(Reps);
      Events += double(Streams[I]->size());
      Bytes += double(Streams[I]->size() * sizeof(Operation));
    }
    L["trace.parse_ns_per_event"] = 1e9 * Seconds / Events;
    L["trace.capture_bytes"] = Bytes;
  });
}

/// Enters every metric a workload may not measure, so each workload
/// reports the full per-layer set.
void zeroFill(Result &Out) {
  static const char *Names[] = {
      "runtime.emit_ns_p50", "runtime.emit_ns_p99", "runtime.park_per_mevent",
      "runtime.max_backlog", "runtime.drain_s", "runtime.empty_ns_per_event",
      "runtime.shards1_ns_per_event", "runtime.one_cpu_ns_per_event",
      "runtime.capture_ns_per_event",
      "runtime.race_report_latency_us_p50",
      "runtime.race_report_latency_us_p99"};
  for (const char *N : Names)
    Out.Layers.emplace(N, 0.0);
  for (const Workload &W : benchmarkSuite())
    Out.Layers.emplace("core.ns_per_event." + W.Name, 0.0);
}

// --- run control ----------------------------------------------------------

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 0;
  unsigned Samples = 0;
  bool Smoke = false;
  std::string TracePath;
  std::string Scratch = ".";
  uint64_t StartNs = nowNs(); ///< When the process started.
  Placement Place{allowedCpus()};
};

/// When a loop stops: after a fixed sample count (--samples), or once the
/// process has run for the share \p Until of --seconds, so that set-up,
/// warm-up and checks are charged to the run too; then never before \p Min
/// samples.
class Budget {
public:
  Budget(const Config &C, double Until, size_t Min = 3)
      : Samples(C.Samples), Min(Min),
        DeadlineNs(C.StartNs + uint64_t(C.Seconds * Until * 1e9)) {}
  bool more(size_t Taken) const {
    if (Samples)
      return Taken < Samples;
    return Taken < Min || nowNs() < DeadlineNs;
  }

private:
  unsigned Samples;
  size_t Min;
  uint64_t DeadlineNs;
};

// --- the yardstick --------------------------------------------------------
//
// Offline replay runs at the speed of the core under it, and other
// tenants of the host slow every vCPU at once, by up to 2x, for seconds
// to minutes (README.md, Findings 4): the raw ns/event of a 20 s run
// measures the host as much as the detector. So each offline replay is
// followed by a replay of the same trace through the yardstick below, a
// fixed epoch-based detector of this file's own that no change to src/
// touches, and offline times are reported in yardstick units: the
// detector's time over the yardstick's, times YardstickQuietNs. Under
// contention both slow, and the ratio moves by a fraction of what either
// does. The yardstick and YardstickQuietNs are the benchmark's unit: a
// change to either moves every offline result, and is a change to the
// benchmark, with a new baseline.

/// The unit of offline times: the yardstick's ns/event over the Table 1
/// suite on a quiet host (4.8 measured; README.md, Metrics), rounded.
constexpr double YardstickQuietNs = 5.0;

/// FastTrack's fast paths without its slow ones: a write epoch per
/// variable, a read epoch inflated to a vector clock when reads are
/// concurrent, and vector clocks per thread, lock and volatile. It counts
/// conflicting accesses and is no race checker: it exists to do the same
/// amount of work on every run.
class Yardstick {
public:
  explicit Yardstick(const Trace &T)
      : N(T.numThreads()), Clocks(N * N, 0), Locks(T.numLocks() * N, 0),
        Volatiles(T.numVolatiles() * N, 0), W(T.numVars(), 0),
        R(T.numVars(), 0) {
    for (unsigned U = 0; U != N; ++U)
      Clocks[U * N + U] = 1;
  }

  /// Whether \p T fits the yardstick's 8-bit thread ids.
  static bool fits(const Trace &T) { return T.numThreads() <= 256; }

  uint64_t run(const Trace &T) {
    for (const Operation &Op : T) {
      const unsigned U = Op.Thread;
      switch (Op.Kind) {
      case OpKind::Read:
        read(U, Op.Target);
        break;
      case OpKind::Write:
        write(U, Op.Target);
        break;
      case OpKind::Acquire:
        join(vc(U), &Locks[Op.Target * N]);
        break;
      case OpKind::Release:
        std::copy(vc(U), vc(U) + N, &Locks[Op.Target * N]);
        ++vc(U)[U];
        break;
      case OpKind::VolatileRead:
        join(vc(U), &Volatiles[Op.Target * N]);
        break;
      case OpKind::VolatileWrite:
        join(&Volatiles[Op.Target * N], vc(U));
        ++vc(U)[U];
        break;
      case OpKind::Fork:
        join(vc(Op.Target), vc(U));
        ++vc(U)[U];
        break;
      case OpKind::Join:
        join(vc(U), vc(Op.Target));
        ++vc(Op.Target)[Op.Target];
        break;
      default:
        ++vc(U)[U];
      }
    }
    return Conflicts;
  }

private:
  static constexpr uint32_t SharedBit = 1u << 31;

  uint32_t *vc(unsigned U) { return &Clocks[U * N]; }
  uint32_t epoch(unsigned U) { return (vc(U)[U] << 8) | U; }
  bool before(uint32_t E, unsigned U) { return (E >> 8) <= vc(U)[E & 0xff]; }
  void join(uint32_t *To, const uint32_t *From) {
    for (unsigned I = 0; I != N; ++I)
      To[I] = std::max(To[I], From[I]);
  }

  void read(unsigned U, uint32_t X) {
    const uint32_t E = epoch(U), Last = R[X];
    if (Last == E)
      return;
    Conflicts += W[X] && !before(W[X], U);
    if (Last & SharedBit) {
      Shared[Last & ~SharedBit][U] = vc(U)[U];
      return;
    }
    if (!Last || before(Last, U)) {
      R[X] = E;
      return;
    }
    std::vector<uint32_t> Readers(N, 0);
    Readers[Last & 0xff] = Last >> 8;
    Readers[U] = vc(U)[U];
    Shared.push_back(std::move(Readers));
    R[X] = SharedBit | uint32_t(Shared.size() - 1);
  }

  void write(unsigned U, uint32_t X) {
    const uint32_t E = epoch(U), Last = R[X];
    if (W[X] == E)
      return;
    Conflicts += W[X] && !before(W[X], U);
    if (Last & SharedBit) {
      const std::vector<uint32_t> &Readers = Shared[Last & ~SharedBit];
      for (unsigned I = 0; I != N; ++I)
        if (Readers[I] > vc(U)[I]) {
          ++Conflicts;
          break;
        }
      R[X] = 0;
    } else {
      Conflicts += Last && !before(Last, U);
    }
    W[X] = E;
  }

  unsigned N;
  std::vector<uint32_t> Clocks, Locks, Volatiles, W, R;
  std::vector<std::vector<uint32_t>> Shared;
  uint64_t Conflicts = 0;
};

/// Where yardstickSeconds() stores its count, so the run is not optimized
/// away.
volatile uint64_t YardstickSink;

/// Seconds the yardstick takes over \p T.
double yardstickSeconds(const Trace &T) {
  Stopwatch Watch;
  Yardstick Y(T);
  YardstickSink = Y.run(T);
  return Watch.seconds();
}

// --- offline_table1 -------------------------------------------------------
//
// Replays all sixteen Table 1 analogues through FastTrack on one thread:
// the paper's Table 1 path through trace, framework, core, clock and the
// eager shadow table. It never touches the runtime, so a runtime change
// must read "no change" here. A sample is one pass over the whole suite;
// set-up is parsing the suite's .trc files. Both are reported in
// yardstick units.

struct SuiteEntry {
  std::string Name, Path;
  std::vector<VarId> Expected;
  Trace T;
};

void runOffline(const Config &C, Tracer *Tr, Result &Out) {
  pinThread(0, C.Place.Cpus.front());
  const double Size = C.Smoke ? 0.25 : 4.0;
  std::vector<SuiteEntry> Suite;
  for (const Workload &W : benchmarkSuite()) {
    SuiteEntry E;
    E.Name = W.Name;
    E.Path = C.Scratch + "/" + W.Name + ".trc";
    Trace T = W.Generate(C.Seed, Size);
    E.Expected = hbRacyVars(T);
    if (C.Smoke && E.Expected != racyVars(T))
      Out.fail("hbRacyVars() disagrees with racyVars() on " + W.Name);
    if (!Yardstick::fits(T))
      Out.fail("too many threads for the yardstick in " + W.Name);
    if (!saveTraceFile(E.Path, T).ok())
      Out.fail("cannot write " + E.Path);
    Suite.push_back(std::move(E));
  }
  for (unsigned I = 0, Loads = C.Smoke ? 1 : 5; I != Loads; ++I) {
    Stopwatch Watch;
    traced(Tr, "trace", "setup", [&] {
      for (SuiteEntry &E : Suite)
        if (!loadTraceFile(E.Path, E.T).ok())
          Out.fail("cannot parse " + E.Path);
    });
    double Seconds = Watch.seconds();
    double Yard = 0, Events = 0;
    for (const SuiteEntry &E : Suite) {
      Yard += yardstickSeconds(E.T);
      Events += double(E.T.size());
    }
    Out.SetupS.push_back(Seconds * YardstickQuietNs / (1e9 * Yard / Events));
    Out.RawSetupS.push_back(Seconds);
  }
  for (SuiteEntry &E : Suite)
    std::filesystem::remove(E.Path);

  // One pass: each trace replayed through FastTrack and then through the
  // yardstick. Returns FastTrack's ns/event in yardstick units, and keeps
  // the raw ns/event. The parsed suite stays resident and would dominate
  // VmHWM, so the first warm-up pass measures what each replay adds to
  // VmRSS instead, sampled while the replay's detector state is live.
  auto Pass = [&](Tracer *PassTr, bool SampleRss = false) {
    std::vector<std::vector<VarId>> Warned(Suite.size());
    double Events = 0, DetectorNs = 0, YardNs = 0;
    bool Complete = true;
    uint64_t PassId = PassTr ? PassTr->Main.nextId() : 0;
    uint64_t PassStart = nowNs();
    for (size_t I = 0; I != Suite.size(); ++I) {
      uint64_t RssBefore = 0;
      if (SampleRss) {
        malloc_trim(0);
        RssBefore = statusBytes("VmRSS");
      }
      uint64_t Start = nowNs();
      {
        FastTrack Checker;
        ReplayResult R = replay(Suite[I].T, Checker);
        Events += double(R.Events);
        Complete = Complete && R.StoppedAtOp == Suite[I].T.size();
        Warned[I] = warnedVars(Checker);
        if (SampleRss)
          Out.PeakRss =
              std::max(Out.PeakRss,
                       std::max(statusBytes("VmRSS"), RssBefore) - RssBefore);
      }
      uint64_t End = nowNs();
      DetectorNs += double(End - Start);
      YardNs += 1e9 * yardstickSeconds(Suite[I].T);
      if (PassTr) {
        PassTr->Main.add("core", "replay." + Suite[I].Name, Start, End,
                         PassId);
        PassTr->Main.add("benchmark", "yardstick", End, nowNs(), PassId);
      }
    }
    uint64_t PassEnd = nowNs();
    if (PassTr)
      PassTr->Main.add("framework", "session", PassStart, PassEnd, 0, 0,
                       PassId);
    Out.RawNsPerEvent.push_back(DetectorNs / Events);

    size_t Mismatch = 0;
    for (size_t I = 0; I != Suite.size(); ++I)
      Mismatch += symmetricDifference(Warned[I], Suite[I].Expected);
    ++Out.Attempted;
    Out.Emitted += uint64_t(Events);
    Out.Dispatched += Complete ? uint64_t(Events) : 0;
    Out.WarningMismatch += Mismatch;
    if (Mismatch || !Complete) {
      ++Out.Failed;
      Out.fail("pass: " + std::to_string(Mismatch) +
               " warning mismatches, complete=" + std::to_string(Complete));
    }
    return YardstickQuietNs * DetectorNs / YardNs;
  };

  // Warm-up: the first pass also measures memory, after which the heap is
  // trimmed, so a second one refills it.
  Pass(nullptr, /*SampleRss=*/true);
  Pass(nullptr);
  Out.RawNsPerEvent.clear();
  if (!Tr) {
    for (Budget B(C, 1.0); B.more(Out.NsPerEvent.size());)
      Out.NsPerEvent.push_back(Pass(nullptr));
    return;
  }
  // The per-layer replays after the passes take a fixed ~4 s.
  std::vector<double> TracedNs;
  for (Budget B(C, 0.4); B.more(Out.NsPerEvent.size());)
    Out.NsPerEvent.push_back(Pass(nullptr));
  for (Budget B(C, 0.7); B.more(TracedNs.size());)
    TracedNs.push_back(Pass(Tr));
  Out.UntracedP50 = median(Out.NsPerEvent);
  Out.TracedP50 = median(TracedNs);

  std::vector<const Trace *> Streams;
  std::vector<std::string> Names;
  for (const SuiteEntry &E : Suite) {
    Streams.push_back(&E.T);
    Names.push_back(E.Name);
  }
  streamLayers(Streams, Names, C.Scratch, Tr, Out);
}

// --- online workloads -----------------------------------------------------
//
// Closed loops: each application thread emits as fast as it can and is
// held back only by ring backpressure, as an instrumented program is. The
// supervisor is pinned off and the stream ladder is empty, so every
// session runs at full fidelity. A sample is one session, timed from the
// first fork until finish() returns (the drain included); set-up is
// Engine construction.

/// What one session needs besides the workload's own state.
struct SessionCtx {
  Placement Place;
  Tracer *Tr = nullptr;   ///< Null: untraced.
  uint64_t SpanId = 0;    ///< The session span (parent of emit spans).
  bool KeepSpans = false; ///< Keep emit spans (the first few sessions).
  std::deque<Lane> Lanes; ///< One per producer.
  std::vector<double> LatencyUs;
  std::vector<Span> WarningSpans; ///< Filled on the detector's thread.

  Lane *lane(unsigned P) { return Tr ? &Lanes[P] : nullptr; }
};

class OnlineWorkload {
public:
  virtual ~OnlineWorkload() = default;
  virtual rt::OnlineOptions options() const = 0;
  /// Events the program emits per session, fork and join included.
  virtual uint64_t emitted() const = 0;
  virtual unsigned producers() const = 0;
  virtual std::vector<VarId> expectedRacy() const { return {}; }
  /// Called on the detector's thread for each reported race.
  virtual void onWarning(const RaceWarning &, SessionCtx &) {}
  /// Runs the instrumented program inside the live session.
  virtual void program(SessionCtx &S) = 0;
};

/// Forks one rt::Thread per producer running \p Body(P) on its CPU and
/// joins them. The producers start their bodies together: a thread can
/// take milliseconds to start, and a producer that ran alone until the
/// other arrived would make the session cheaper by a varying amount.
template <typename Fn>
void forkJoin(const SessionCtx &S, unsigned N, Fn &&Body) {
  std::atomic<unsigned> Started{0};
  std::vector<rt::Thread> Threads;
  Threads.reserve(N);
  for (unsigned P = 0; P != N; ++P)
    Threads.emplace_back([&S, &Body, &Started, N, P] {
      pinThread(0, S.Place.cpu(P));
      Started.fetch_add(1);
      while (Started.load() != N)
        std::this_thread::yield();
      Body(P);
    });
  for (rt::Thread &T : Threads)
    T.join();
}

/// E12's loop: two producers lock, read, write and unlock one of four
/// striped counters (the stripe sequence is seeded), so half the events
/// are sync. Runtime-bound: the detector touches four variables while
/// tickets, rings and the sequencer do the work. Every call goes through
/// the Instrument.h shims.
class LockHeavy final : public OnlineWorkload {
public:
  static constexpr unsigned Producers = 2, Stripes = 4;

  LockHeavy(uint64_t Seed, bool Short) : Iters(Short ? 5000 : 25000) {
    for (unsigned P = 0; P != Producers; ++P) {
      Xoshiro256StarStar Rng(Seed * 0x9e3779b97f4a7c15ull + P);
      Order[P].resize(Iters);
      for (uint8_t &S : Order[P])
        S = static_cast<uint8_t>(Rng.nextBelow(Stripes));
    }
  }

  rt::OnlineOptions options() const override {
    rt::OnlineOptions O;
    O.KeepCapture = false;
    O.ValidateCapture = false;
    O.Degrade.Enabled = false;
    O.Supervise.Enabled = false;
    return O;
  }
  uint64_t emitted() const override {
    return uint64_t(Producers) * (4 * Iters + 2);
  }
  unsigned producers() const override { return Producers; }

  void program(SessionCtx &S) override {
    rt::Mutex Locks[Stripes];
    rt::Shared<int> Cells[Stripes];
    forkJoin(S, Producers, [&](unsigned P) {
      if (S.Tr)
        loop<true>(P, Locks, Cells, S);
      else
        loop<false>(P, Locks, Cells, S);
    });
  }

private:
  template <bool Traced>
  void loop(unsigned P, rt::Mutex *Locks, rt::Shared<int> *Cells,
            SessionCtx &S) {
    Lane *L = S.lane(P);
    uint64_t Calls = 0;
    for (uint8_t K : Order[P]) {
      int V = 0;
      shim<Traced>(L, Calls, S.SpanId, [&] { Locks[K].lock(); });
      shim<Traced>(L, Calls, S.SpanId, [&] { V = FT_READ(Cells[K]); });
      shim<Traced>(L, Calls, S.SpanId, [&] { FT_WRITE(Cells[K], V + 1); });
      shim<Traced>(L, Calls, S.SpanId, [&] { Locks[K].unlock(); });
    }
  }

  unsigned Iters;
  std::vector<uint8_t> Order[Producers];
};

/// One producer over a 2^20-variable space, Shards=2, memory governed at
/// a 2 MiB budget. 7/8 of accesses fall in a 2^15-variable hot window
/// that slides one page every 2^16 events and 1/8 are uniform (a uniform
/// tour alone would fault every page in before the first maintenance
/// tick); reads outnumber writes 3:1; a mutex is taken every 4096
/// accesses. Race-free. The only workload where shadow paging, governance
/// and shard routing do most of the work, with a working set beyond L2.
class BigHeap final : public OnlineWorkload {
public:
  static constexpr uint32_t Vars = 1u << 20, HotVars = 1u << 15,
                            SlideEvery = 1u << 16, SyncEvery = 4096,
                            WriteBit = 1u << 31;

  BigHeap(uint64_t Seed, bool Short) {
    const uint32_t N = Short ? 1u << 18 : 1u << 20;
    Xoshiro256StarStar Rng(Seed * 0xbf58476d1ce4e5b9ull + 7);
    Program.resize(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Base = (I / SlideEvery) * ShadowPageVars;
      uint32_t X = Rng.nextBelow(8) != 0
                       ? (Base + uint32_t(Rng.nextBelow(HotVars))) % Vars
                       : uint32_t(Rng.nextBelow(Vars));
      Program[I] = X | (Rng.nextBelow(4) == 0 ? WriteBit : 0);
    }
  }

  rt::OnlineOptions options() const override {
    rt::OnlineOptions O;
    O.Shards = 2;
    O.MaxVars = Vars;
    O.KeepCapture = false;
    O.ValidateCapture = false;
    O.Supervise.Enabled = false;
    // Governance needs the ladder enabled; emptying it keeps the stream
    // untransformed.
    O.Degrade.Ladder.clear();
    O.Degrade.Memory.Enabled = true;
    O.Degrade.Memory.BudgetBytes = GovernedBudgetBytes;
    return O;
  }
  uint64_t emitted() const override {
    return Program.size() + 2 * (Program.size() / SyncEvery) + 2;
  }
  unsigned producers() const override { return 1; }

  void program(SessionCtx &S) override {
    rt::Mutex Spine;
    forkJoin(S, 1, [&](unsigned) {
      if (S.Tr)
        loop<true>(Spine, S);
      else
        loop<false>(Spine, S);
    });
  }

private:
  template <bool Traced> void loop(rt::Mutex &Spine, SessionCtx &S) {
    rt::Engine *E = rt::Engine::current();
    Lane *L = S.lane(0);
    uint64_t Calls = 0;
    for (size_t I = 0, N = Program.size(); I != N; ++I) {
      uint32_t Code = Program[I];
      OpKind K = Code & WriteBit ? OpKind::Write : OpKind::Read;
      shim<Traced>(L, Calls, S.SpanId, [&] { E->emit(K, Code & ~WriteBit); });
      if ((I + 1) % SyncEvery == 0) {
        Spine.lock();
        Spine.unlock();
      }
    }
  }

  std::vector<uint32_t> Program;
};

/// Two producers, no locks. 70% of events read a 4096-variable table the
/// main thread wrote before the fork, so those reads are read-shared and
/// their clocks live in the side store; the rest write private blocks,
/// except that every 256th write (every 16th in the short program) goes to
/// a 256-variable pool both producers walk in order: exactly 256 races per
/// session. The producers share no sync, and this is the only workload
/// with warnings and side-store inflation. The in-memory capture is off in
/// the measured sessions: Trace::appendRun reserves exactly its run's
/// room, so the capture is copied whole on each of the sequencer's short
/// runs: a session then costs ~30x more and its length varies tenfold
/// (runtime.capture_ns_per_event measures it).
class RacyShared final : public OnlineWorkload {
public:
  static constexpr unsigned Producers = 2;
  static constexpr uint32_t TableVars = 4096, PrivateVars = 4096,
                            PoolVars = 256, WriteBit = 1u << 31;
  static constexpr uint32_t PoolBase = TableVars + Producers * PrivateVars;

  RacyShared(uint64_t Seed, bool Short) {
    const uint32_t PoolEvery = Short ? 16 : 256;
    const uint32_t Writes = PoolVars * PoolEvery, Reads = Writes * 7 / 3;
    for (unsigned P = 0; P != Producers; ++P) {
      Xoshiro256StarStar Rng(Seed * 0x94d049bb133111ebull + P);
      uint32_t R = Reads, W = 0;
      while (R + (Writes - W) != 0) {
        if (Rng.nextBelow(R + (Writes - W)) < R) {
          --R;
          Program[P].push_back(uint32_t(Rng.nextBelow(TableVars)));
          continue;
        }
        uint32_t X = W % PoolEvery == PoolEvery - 1
                         ? PoolBase + W / PoolEvery
                         : TableVars + P * PrivateVars +
                               uint32_t(Rng.nextBelow(PrivateVars));
        Program[P].push_back(X | WriteBit);
        ++W;
      }
    }
  }

  rt::OnlineOptions options() const override {
    rt::OnlineOptions O;
    O.MaxVars = PoolBase + PoolVars;
    O.KeepCapture = false;
    O.ValidateCapture = false;
    O.Degrade.Enabled = false;
    O.Supervise.Enabled = false;
    return O;
  }
  uint64_t emitted() const override {
    uint64_t N = TableVars + 2 * Producers;
    for (const std::vector<uint32_t> &Prog : Program)
      N += Prog.size();
    return N;
  }
  unsigned producers() const override { return Producers; }
  std::vector<VarId> expectedRacy() const override {
    std::vector<VarId> Pool(PoolVars);
    for (uint32_t I = 0; I != PoolVars; ++I)
      Pool[I] = PoolBase + I;
    return Pool;
  }

  void onWarning(const RaceWarning &W, SessionCtx &S) override {
    uint64_t Now = nowNs();
    // The producers are forked first and second: slots 1 and 2.
    unsigned P = W.CurrentThread - 1;
    if (P >= Producers || W.Var < PoolBase || W.Var >= PoolBase + PoolVars)
      return;
    const Stamp &St = Stamps[P][W.Var - PoolBase];
    uint64_t Start = St.Ns.load(std::memory_order_relaxed);
    S.LatencyUs.push_back((Now - Start) / 1e3);
    if (S.Tr && S.KeepSpans)
      S.WarningSpans.push_back({"warning", "runtime", 99, 0, S.SpanId,
                                St.SpanId.load(std::memory_order_relaxed),
                                Start, Now});
  }

  void program(SessionCtx &S) override {
    rt::Engine *E = rt::Engine::current();
    for (uint32_t X = 0; X != TableVars; ++X)
      E->emit(OpKind::Write, X);
    forkJoin(S, Producers, [&](unsigned P) {
      if (S.Tr)
        loop<true>(P, S);
      else
        loop<false>(P, S);
    });
  }

private:
  struct Stamp {
    std::atomic<uint64_t> Ns{0};     ///< Taken just before the racing write.
    std::atomic<uint64_t> SpanId{0}; ///< Its emit span, when traced.
  };

  template <bool Traced> void loop(unsigned P, SessionCtx &S) {
    rt::Engine *E = rt::Engine::current();
    Lane *L = S.lane(P);
    uint64_t Calls = 0;
    for (uint32_t Code : Program[P]) {
      uint32_t X = Code & ~WriteBit;
      OpKind K = Code & WriteBit ? OpKind::Write : OpKind::Read;
      if (X < PoolBase) {
        shim<Traced>(L, Calls, S.SpanId, [&] { E->emit(K, X); });
        continue;
      }
      // A racing write. The ring hand-off orders the stamp before the
      // detector's callback reads it. Where the session keeps spans, every
      // racing write gets one, so the warning span can name its cause.
      Stamp &St = Stamps[P][X - PoolBase];
      uint64_t Id = Traced ? L->nextId() : 0;
      uint64_t Start = nowNs();
      St.SpanId.store(Id, std::memory_order_relaxed);
      St.Ns.store(Start, std::memory_order_relaxed);
      E->emit(K, X);
      if constexpr (Traced) {
        if (S.KeepSpans)
          L->add("runtime", "emit", Start, nowNs(), S.SpanId, 0, Id);
      }
    }
  }

  std::vector<uint32_t> Program[Producers];
  Stamp Stamps[Producers][PoolVars];
};

/// The workload --workload names; \p Short selects its short program.
std::unique_ptr<OnlineWorkload> makeOnline(const Config &C, bool Short) {
  if (C.Workload == "online_lock_heavy")
    return std::make_unique<LockHeavy>(C.Seed, Short);
  if (C.Workload == "online_big_heap")
    return std::make_unique<BigHeap>(C.Seed, Short);
  if (C.Workload == "online_racy_shared")
    return std::make_unique<RacyShared>(C.Seed, Short);
  return nullptr;
}

struct SessionRun {
  double NsPerEvent = 0, SetupS = 0, DrainS = 0;
  std::vector<double> LatencyUs;
  rt::OnlineReport Report;
};

/// One online session of \p W through \p Checker, checked against the
/// expected races (when \p Check) and the emitted event count.
SessionRun runSession(OnlineWorkload &W, Tool &Checker,
                      rt::OnlineOptions Options, SessionCtx &S, Result &Out,
                      bool Check = true) {
  SessionRun Run;
  const std::vector<VarId> Expected = W.expectedRacy();
  if (!Expected.empty())
    Options.OnWarning = [&](const RaceWarning &Wn) { W.onWarning(Wn, S); };
  for (unsigned P = 0; P != W.producers(); ++P) {
    S.Lanes.emplace_back(P + 1);
    S.Lanes.back().SpanCap = S.KeepSpans ? 2048 : 0;
  }

  const std::vector<pid_t> Before = threadIds();
  uint64_t SetupStart = nowNs();
  auto Engine = std::make_unique<rt::Engine>(Checker, Options);
  uint64_t SetupEnd = nowNs();
  // The engine's threads take the CPUs after the producers', in the order
  // the engine started them; the main thread takes the next one.
  unsigned Next = W.producers();
  for (pid_t Tid : threadIds())
    if (!std::binary_search(Before.begin(), Before.end(), Tid))
      pinThread(Tid, S.Place.cpu(Next++));
  pinThread(0, S.Place.cpu(Next));
  uint64_t SessionStart = nowNs();
  if (S.Tr)
    S.SpanId = S.Tr->Main.nextId();
  W.program(S);
  uint64_t DrainStart = nowNs();
  Run.Report = Engine->finish();
  uint64_t End = nowNs();
  Engine.reset();

  const rt::OnlineReport &R = Run.Report;
  Run.SetupS = (SetupEnd - SetupStart) / 1e9;
  Run.DrainS = (End - DrainStart) / 1e9;
  Run.NsPerEvent = double(End - SessionStart) / double(R.EventsDispatched);
  if (S.Tr) {
    S.Tr->Main.add("runtime", "setup", SetupStart, SetupEnd, 0);
    S.Tr->Main.add("runtime", "session", SessionStart, End, 0, 0, S.SpanId);
    S.Tr->Main.add("runtime", "drain", DrainStart, End, S.SpanId);
    for (Lane &L : S.Lanes)
      S.Tr->absorb(L);
    for (Span &Sp : S.WarningSpans) {
      Sp.Id = S.Tr->Main.nextId();
      S.Tr->Main.Spans.push_back(Sp);
    }
  }

  const uint64_t Emitted = W.emitted();
  size_t Mismatch =
      Check ? symmetricDifference(warnedVars(Checker), Expected) : 0;
  bool Lost = R.Halted || R.EventsDispatched != Emitted || R.AccessesShed ||
              R.DroppedOverload || R.DroppedPostHalt || R.UntrackedEvents;
  bool LatencyMissing = Check && S.LatencyUs.size() != Expected.size();
  ++Out.Attempted;
  Out.Emitted += Emitted;
  Out.Dispatched += std::min<uint64_t>(R.EventsDispatched, Emitted);
  Out.WarningMismatch += Mismatch;
  if (Mismatch || Lost || LatencyMissing) {
    ++Out.Failed;
    Out.fail("session: " + std::to_string(Mismatch) +
             " warning mismatches, dispatched " +
             std::to_string(R.EventsDispatched) + " of " +
             std::to_string(Emitted) + " events, " +
             std::to_string(S.LatencyUs.size()) + " latencies");
  }
  Run.LatencyUs = std::move(S.LatencyUs);
  return Run;
}

/// Checks a capture's race set against the oracle and against an offline
/// replay of the same capture.
void checkCapture(const Trace &Capture, const std::vector<VarId> &Expected,
                  Result &Out) {
  FastTrack Offline;
  replay(Capture, Offline);
  size_t OracleDiff = symmetricDifference(hbRacyVars(Capture), Expected);
  size_t ReplayDiff = symmetricDifference(warnedVars(Offline), Expected);
  Out.WarningMismatch += OracleDiff + ReplayDiff;
  if (OracleDiff || ReplayDiff) {
    ++Out.Failed;
    Out.fail("capture: oracle differs by " + std::to_string(OracleDiff) +
             ", offline replay by " + std::to_string(ReplayDiff));
  }
}

/// Runs \p Body(R) in a child process and adds the checks it recorded in
/// R to \p Out. The child's memory does not count in this process's peak
/// RSS. Call it only while this process runs no other thread.
template <typename Fn> void inChild(Result &Out, Fn &&Body) {
  struct Counts {
    uint64_t Attempted, Failed, Emitted, Dispatched, Mismatch;
    char Why[240];
  } N{};
  int Fd[2];
  if (pipe(Fd) != 0) {
    ++Out.Attempted;
    ++Out.Failed;
    Out.fail("pipe() failed");
    return;
  }
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Fd[0]);
    Result R;
    Body(R);
    N = {R.Attempted, R.Failed, R.Emitted, R.Dispatched, R.WarningMismatch,
         {}};
    if (!R.Failures.empty())
      std::snprintf(N.Why, sizeof(N.Why), "%s", R.Failures.front().c_str());
    _exit(write(Fd[1], &N, sizeof(N)) == ssize_t(sizeof(N)) ? 0 : 1);
  }
  close(Fd[1]);
  bool Ok = Pid > 0 && read(Fd[0], &N, sizeof(N)) == ssize_t(sizeof(N));
  close(Fd[0]);
  int Status = 0;
  Ok = Pid > 0 && waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status) &&
       WEXITSTATUS(Status) == 0 && Ok;
  if (!Ok) {
    ++Out.Attempted;
    ++Out.Failed;
    Out.fail("the child process of a check failed");
    return;
  }
  Out.Attempted += N.Attempted;
  Out.Failed += N.Failed;
  Out.Emitted += N.Emitted;
  Out.Dispatched += N.Dispatched;
  Out.WarningMismatch += N.Mismatch;
  if (N.Why[0])
    Out.fail(N.Why);
}

constexpr size_t MaxLatencies = 1u << 16;

void runOnline(const Config &C, OnlineWorkload &W, Tracer *Tr, Result &Out) {
  const rt::OnlineOptions Base = W.options();
  const std::vector<VarId> Expected = W.expectedRacy();
  auto Session = [&](Tool &Checker, const rt::OnlineOptions &O, Result &R,
                     Tracer *SessTr = nullptr, bool KeepSpans = false) {
    SessionCtx S;
    S.Place = C.Place;
    S.Tr = SessTr;
    S.KeepSpans = KeepSpans;
    return runSession(W, Checker, O, S, R);
  };
  rt::OnlineOptions Captured = Base;
  Captured.KeepCapture = true;

  std::vector<double> TracedNs, Drain;
  std::vector<rt::OnlineReport> Reports;
  auto Measure = [&](Tracer *SessTr, double Until, std::vector<double> &Ns) {
    for (Budget B(C, Until); B.more(Ns.size());) {
      FastTrack Checker;
      SessionRun Run =
          Session(Checker, Base, Out, SessTr, SessTr && Ns.size() < 4);
      Ns.push_back(Run.NsPerEvent);
      Out.SetupS.push_back(Run.SetupS);
      // A fixed number of latencies, so that peak RSS does not grow with
      // the number of sessions that fit in the time budget.
      if (Out.LatencyUs.size() < MaxLatencies)
        Out.LatencyUs.insert(Out.LatencyUs.end(), Run.LatencyUs.begin(),
                             Run.LatencyUs.end());
      if (SessTr) {
        Drain.push_back(Run.DrainS);
        Reports.push_back(std::move(Run.Report));
      }
    }
  };
  {
    FastTrack Checker;
    Session(Checker, Base, Out); // warm-up
  }
  if (!Tr) {
    // One captured session, checked against the oracle and an offline
    // replay of its capture. The capture is quadratic (README.md,
    // Findings), so the session runs the workload's short program, and it
    // runs in a child process so that it does not count in the measured
    // sessions' peak RSS.
    inChild(Out, [&](Result &R) {
      std::unique_ptr<OnlineWorkload> Short = makeOnline(C, true);
      FastTrack Checker;
      SessionCtx S;
      S.Place = C.Place;
      checkCapture(runSession(*Short, Checker, Captured, S, R).Report.Captured,
                   Expected, R);
    });
    Measure(nullptr, 1.0, Out.NsPerEvent);
    Out.PeakRss = statusBytes("VmHWM");
    return;
  }

  // Traced run: untraced sessions first (the tracing-overhead baseline),
  // then traced ones, then the ablations, whose last session is captured
  // and takes 10-20 s on online_big_heap.
  Measure(nullptr, 0.25, Out.NsPerEvent);
  Out.LatencyUs.clear();
  Measure(Tr, 0.45, TracedNs);
  Out.UntracedP50 = median(Out.NsPerEvent);
  Out.TracedP50 = median(TracedNs);

  auto &L = Out.Layers;
  L["runtime.emit_ns_p50"] = tickQuantile(Tr->EmitNs, 0.5);
  L["runtime.emit_ns_p99"] = tickQuantile(Tr->EmitNs, 0.99);
  double Parks = 0, Events = 0;
  std::vector<double> Backlog;
  for (const rt::OnlineReport &R : Reports) {
    Parks += double(R.ParkEpisodes);
    Events += double(R.EventsDispatched);
    Backlog.push_back(double(R.MaxBacklog));
  }
  L["runtime.park_per_mevent"] = 1e6 * Parks / Events;
  L["runtime.max_backlog"] = median(Backlog);
  L["runtime.drain_s"] = median(Drain);
  L["runtime.race_report_latency_us_p50"] = quantile(Out.LatencyUs, 0.5);
  L["runtime.race_report_latency_us_p99"] = quantile(Out.LatencyUs, 0.99);

  // The same session with one thing changed, each until its share of the
  // budget is spent. EMPTY reports no races, so its sessions check only
  // the event count. The capture is slow, so it is measured on one
  // session, whose stream the other layers are then measured on.
  Trace Capture;
  auto Ablate = [&](const char *Name, double Until, bool Empty,
                    const rt::OnlineOptions &O, bool Stacked = false) {
    std::vector<double> Ns;
    traced(Tr, "runtime", Name, [&] {
      for (Budget B(C, Until, 1); B.more(Ns.size());) {
        std::unique_ptr<Tool> Checker;
        if (Empty)
          Checker = std::make_unique<EmptyTool>();
        else
          Checker = std::make_unique<FastTrack>();
        SessionCtx S;
        S.Place = C.Place;
        S.Place.Stacked = Stacked;
        SessionRun Run = runSession(W, *Checker, O, S, Out, !Empty);
        Ns.push_back(Run.NsPerEvent);
        if (O.KeepCapture)
          Capture = std::move(Run.Report.Captured);
      }
    });
    return median(Ns);
  };
  rt::OnlineOptions Shards1 = Base;
  Shards1.Shards = 1;
  L["runtime.shards1_ns_per_event"] =
      Ablate("ablate.shards1", 0.5, false, Shards1);
  L["runtime.empty_ns_per_event"] = Ablate("ablate.empty", 0.55, true, Base);
  L["runtime.one_cpu_ns_per_event"] =
      Ablate("ablate.one_cpu", 0.6, false, Base, /*Stacked=*/true);
  L["runtime.capture_ns_per_event"] =
      Ablate("ablate.capture", 0, false, Captured);
  checkCapture(Capture, Expected, Out);
  streamLayers({&Capture}, {}, C.Scratch, Tr, Out);
}

// --- output ---------------------------------------------------------------

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string S = "[";
  for (size_t I = 0; I != V.size(); ++I)
    S += (I ? ", " : "") + jsonNumber(V[I]);
  return S + "]";
}

std::string jsonString(const std::string &In) {
  std::string S = "\"";
  for (char Ch : In) {
    if (Ch == '"' || Ch == '\\')
      S += '\\';
    S += static_cast<unsigned char>(Ch) < 0x20 ? ' ' : Ch;
  }
  return S + "\"";
}

void printResult(const Config &C, const Result &R) {
  bool Correct = R.Failed == 0 && R.Failures.empty() && R.Attempted != 0;
  double Lost = R.Emitted ? double(R.Emitted - R.Dispatched) / R.Emitted : 0;
  std::string S = "{\"workload\": " + jsonString(C.Workload) +
                  ", \"seed\": " + std::to_string(C.Seed) +
                  ", \"correct\": " + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"failures\": [";
  for (size_t I = 0; I != R.Failures.size(); ++I)
    S += (I ? ", " : "") + jsonString(R.Failures[I]);
  S += "], \"events_lost_frac\": " + jsonNumber(Lost) +
       ", \"warning_mismatch\": " + std::to_string(R.WarningMismatch) +
       ", \"peak_rss_bytes\": " + std::to_string(R.PeakRss) +
       ", \"samples\": {\"ns_per_event\": " + jsonArray(R.NsPerEvent) +
       ", \"setup_s\": " + jsonArray(R.SetupS) +
       ", \"race_report_latency_us\": " + jsonArray(R.LatencyUs) +
       ", \"raw_ns_per_event\": " + jsonArray(R.RawNsPerEvent) +
       ", \"raw_setup_s\": " + jsonArray(R.RawSetupS) + "}";
  if (!C.TracePath.empty()) {
    S += ", \"tracing\": {\"untraced_ns_per_event_p50\": " +
         jsonNumber(R.UntracedP50) +
         ", \"traced_ns_per_event_p50\": " + jsonNumber(R.TracedP50) +
         ", \"spans\": " + jsonString(C.TracePath) + "}, \"layers\": {";
    const char *Sep = "";
    for (const auto &[Name, Value] : R.Layers) {
      S += Sep + jsonString(Name) + ": " + jsonNumber(Value);
      Sep = ", ";
    }
    S += "}";
  }
  std::printf("%s}\n", S.c_str());
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "ft_bench: %s\nusage: ft_bench --workload NAME --seed N "
               "(--seconds S | --samples K) [--trace FILE] [--smoke] "
               "[--scratch DIR]\n",
               Why.c_str());
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < argc ? argv[++I] : "";
    };
    if (A == "--workload")
      C.Workload = Value();
    else if (A == "--seed")
      C.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atof(Value().c_str());
    else if (A == "--samples")
      C.Samples = static_cast<unsigned>(std::atoi(Value().c_str()));
    else if (A == "--trace")
      C.TracePath = Value();
    else if (A == "--scratch")
      C.Scratch = Value();
    else if (A == "--smoke")
      C.Smoke = true;
    else
      return usage("unknown argument " + A);
  }
  if ((C.Seconds > 0) == (C.Samples != 0))
    return usage("exactly one of --seconds or --samples is required");
  if (C.Samples && !C.TracePath.empty())
    return usage("--trace takes --seconds");
  std::unique_ptr<OnlineWorkload> Online = makeOnline(C, C.Smoke);
  if (!Online && C.Workload != "offline_table1")
    return usage("unknown workload " + C.Workload);

  // Scratch files (.trc) go to a directory of this process's own.
  C.Scratch += "/ft_bench." + std::to_string(getpid());
  std::error_code Ec;
  std::filesystem::create_directories(C.Scratch, Ec);
  if (Ec)
    return usage("cannot create " + C.Scratch);

  std::unique_ptr<Tracer> Tr;
  Result R;
  if (!C.TracePath.empty()) {
    Tr = std::make_unique<Tracer>();
    zeroFill(R);
  }
  if (Online)
    runOnline(C, *Online, Tr.get(), R);
  else
    runOffline(C, Tr.get(), R);
  std::filesystem::remove_all(C.Scratch, Ec);
  if (Tr && !Tr->write(C.TracePath, C.Workload))
    R.fail("cannot write " + C.TracePath);
  printResult(C, R);
  return 0;
}
