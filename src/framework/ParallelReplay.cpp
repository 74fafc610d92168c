#include "framework/ParallelReplay.h"

#include "support/Stopwatch.h"
#include "trace/ReentrancyFilter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace ft;

namespace {

/// What one worker hands back to the engine. Workers touch only their
/// own slot, so no synchronization beyond thread join is needed (and the
/// whole engine is clean under -fsanitize=thread).
struct WorkerReport {
  double Seconds = 0;
  uint64_t SyncDispatched = 0; ///< Identical in every shard.
  uint64_t AccessesSeen = 0;
  uint64_t AccessesPassed = 0;
  ClockStats Clocks; ///< The worker thread's counter delta.
};

/// Shared watchdog state. Workers publish a progress counter with relaxed
/// stores (the monitor only needs to see *some* eventually-visible change,
/// not a happens-before edge) and poll the cancel flag on the same cadence.
struct WatchdogState {
  static constexpr uint64_t Done = ~uint64_t(0);
  std::atomic<bool> Cancel{false};
  std::vector<std::atomic<uint64_t>> Progress;
  explicit WatchdogState(unsigned Shards) : Progress(Shards) {}
};

/// How often (in trace positions) workers touch the watchdog counters.
constexpr uint32_t ProgressStride = 1024;

/// Returns true when the worker should abandon its scan.
inline bool heartbeat(WatchdogState *Dog, unsigned Shard, uint32_t I) {
  if (!Dog || (I & (ProgressStride - 1)) != 0)
    return false;
  Dog->Progress[Shard].store(I, std::memory_order_relaxed);
  return Dog->Cancel.load(std::memory_order_relaxed);
}

/// Workers scan the whole (immutable, shared) trace and filter their own
/// accesses with this pure membership test, so the filtering is parallel
/// work. Granularity-mapped ids keep whole objects in one shard.
inline bool ownsAccess(VarId Mapped, unsigned Shard, unsigned NumShards) {
  return Mapped % NumShards == Shard;
}

void runWorker(const Trace &T, const GranularityMap &Map,
               const ToolContext &Context, Tool &Clone, unsigned Shard,
               unsigned NumShards, bool FilterReentrantLocks,
               WatchdogState *Dog, WorkerReport &Report) {
  ClockStats Before = clockStats();
  Stopwatch Watch;
  Clone.begin(Context);

  // Every worker replays the full sync schedule through its own clone,
  // each running the same re-entrancy filter the serial engine runs, so
  // all clones see the identical dispatched lock events.
  ReentrancyFilter Reentrancy(T.numThreads(), T.numLocks());
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.size()); I != E; ++I) {
    if (heartbeat(Dog, Shard, I))
      break; // Cancelled; the engine discards this shard's results.
    const Operation &Op = T[I];
    switch (Op.Kind) {
    case OpKind::Read:
    case OpKind::Write: {
      VarId X = Map.map(Op.Target);
      if (!ownsAccess(X, Shard, NumShards))
        continue;
      ++Report.AccessesSeen;
      Report.AccessesPassed += Op.Kind == OpKind::Read
                                   ? Clone.onRead(Op.Thread, X, I)
                                   : Clone.onWrite(Op.Thread, X, I);
      continue;
    }
    case OpKind::Acquire:
      if (FilterReentrantLocks && !Reentrancy.onAcquire(Op.Thread, Op.Target))
        continue;
      break;
    case OpKind::Release:
      if (FilterReentrantLocks && !Reentrancy.onRelease(Op.Thread, Op.Target))
        continue;
      break;
    default:
      break;
    }
    ++Report.SyncDispatched;
    dispatchSyncOp(Clone, T, Op, I);
  }

  Clone.end();
  if (Dog)
    Dog->Progress[Shard].store(WatchdogState::Done, std::memory_order_relaxed);
  Report.Seconds = Watch.seconds();
  Report.Clocks = clockStats() - Before;
}

/// The injected stall: publish no progress until cancelled. Simulates a
/// worker wedged on its scan (the cooperative-cancellation analogue of a
/// hung thread — a truly deadlocked worker could never be joined).
void runStalledWorker(WatchdogState &Dog) {
  while (!Dog.Cancel.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

} // namespace

ParallelReplayResult ft::parallelReplay(const Trace &T, Tool &Primary,
                                        const ParallelReplayOptions &Options) {
  ParallelReplayResult Result;

  unsigned Shards = Options.NumShards;
  if (Shards == 0)
    Shards = std::max(1u, std::thread::hardware_concurrency());
  Shards = std::min(Shards, MaxShards);

  auto *Shardable = dynamic_cast<ShardableTool *>(&Primary);
  if (!Shardable || Shards <= 1 || T.empty()) {
    Result.Total = replay(T, Primary, Options.Replay);
    return Result;
  }

  Stopwatch TotalWatch;
  ClockStats Before = clockStats();
  GranularityMap Map = GranularityMap::make(Options.Replay);
  ToolContext Context = makeToolContext(T, Map);

  std::vector<std::unique_ptr<Tool>> Clones;
  Clones.reserve(Shards);
  for (unsigned K = 0; K != Shards; ++K)
    Clones.push_back(Shardable->cloneForShard());

  // --- 1. Sharded replay: every worker scans the whole trace. ---------
  bool Filter = Options.Replay.FilterReentrantLocks;
  std::vector<WorkerReport> Reports(Shards);
  std::vector<std::thread> Workers;
  Workers.reserve(Shards);

  WatchdogState Dog(Shards);
  WatchdogState *DogPtr = Options.WatchdogTimeoutMs != 0 ? &Dog : nullptr;
  unsigned StalledShard = 0;
  std::atomic<bool> WorkersDone{false};
  std::thread Monitor;
  if (DogPtr) {
    Monitor = std::thread([&, Timeout = Options.WatchdogTimeoutMs] {
      using Clock = std::chrono::steady_clock;
      // Short poll slices regardless of the timeout: the loop must also
      // notice WorkersDone promptly, or joining the monitor would stall
      // the engine for a poll period after a healthy run.
      unsigned PollMs = std::min(10u, std::max(1u, Timeout / 4));
      std::vector<uint64_t> Last(Shards, 0);
      std::vector<Clock::time_point> LastChange(Shards, Clock::now());
      while (!WorkersDone.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
        Clock::time_point Now = Clock::now();
        for (unsigned K = 0; K != Shards; ++K) {
          uint64_t P = Dog.Progress[K].load(std::memory_order_relaxed);
          if (P == WatchdogState::Done)
            continue;
          if (P != Last[K]) {
            Last[K] = P;
            LastChange[K] = Now;
            continue;
          }
          if (Now - LastChange[K] >= std::chrono::milliseconds(Timeout)) {
            StalledShard = K;
            Dog.Cancel.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }

  for (unsigned K = 0; K != Shards; ++K) {
    Tool &Clone = *Clones[K];
    WorkerReport &Report = Reports[K];
    if (DogPtr && Options.InjectStallShard == static_cast<int>(K))
      Workers.emplace_back([&] { runStalledWorker(Dog); });
    else
      Workers.emplace_back([&, K] {
        runWorker(T, Map, Context, Clone, K, Shards, Filter, DogPtr, Report);
      });
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  WorkersDone.store(true, std::memory_order_relaxed);
  if (Monitor.joinable())
    Monitor.join();

  if (Dog.Cancel.load(std::memory_order_relaxed)) {
    // A worker stalled. The clones hold partial, unusable state; the
    // primary tool was never touched, so the serial engine reruns the
    // trace from scratch — correct results at one-core speed.
    Result.WatchdogFired = true;
    Result.Diags.push_back(
        {StatusCode::Stalled, Severity::Warning, 0, NoOpIndex,
         "parallel replay worker " + std::to_string(StalledShard) +
             " made no progress for " +
             std::to_string(Options.WatchdogTimeoutMs) +
             " ms; cancelled the sharded attempt and fell back to serial "
             "replay"});
    Result.Total = replay(T, Primary, Options.Replay);
    Result.Total.Seconds = TotalWatch.seconds();
    return Result;
  }

  // --- 2. Deterministic merge. -----------------------------------------
  uint64_t Accesses = 0;
  std::vector<RaceWarning> Merged;
  for (unsigned K = 0; K != Shards; ++K) {
    const std::vector<RaceWarning> &Ws = Clones[K]->warnings();
    Merged.insert(Merged.end(), Ws.begin(), Ws.end());
    Accesses += Reports[K].AccessesSeen;
    Result.Total.AccessesPassed += Reports[K].AccessesPassed;
    Result.Total.ShadowBytes += Clones[K]->shadowBytes();
    Result.ShardSeconds.push_back(Reports[K].Seconds);
    clockStats() += Reports[K].Clocks;
  }
  // Each access reports at most one warning and every access lives in
  // exactly one shard, so op indices are unique: sorting by OpIndex
  // reconstructs the serial engine's warning order exactly.
  std::sort(Merged.begin(), Merged.end(),
            [](const RaceWarning &A, const RaceWarning &B) {
              return A.OpIndex < B.OpIndex;
            });
  Primary.adoptWarnings(Merged);
  for (unsigned K = 0; K != Shards; ++K)
    Shardable->mergeShard(*Clones[K]);

  Result.Sharded = true;
  Result.Shards = Shards;
  // Every shard dispatches the same sync events, so count them once.
  Result.Total.Events = Reports[0].SyncDispatched + Accesses;
  Result.Total.NumWarnings = Primary.warnings().size();
  Result.Total.Clocks = clockStats() - Before;
  Result.Total.Seconds = TotalWatch.seconds();
  return Result;
}
