#include "framework/ParallelReplay.h"

#include "support/Stopwatch.h"
#include "trace/ReentrancyFilter.h"

#include <algorithm>
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

/// Workers scan the whole (immutable, shared) trace and filter their own
/// accesses with this pure membership test, so the filtering is parallel
/// work. Granularity-mapped ids keep whole objects in one shard.
inline bool ownsAccess(VarId Mapped, unsigned Shard, unsigned NumShards) {
  return Mapped % NumShards == Shard;
}

void runWorker(const Trace &T, const GranularityMap &Map,
               const ToolContext &Context, Tool &Clone, unsigned Shard,
               unsigned NumShards, bool FilterReentrantLocks,
               WorkerReport &Report) {
  ClockStats Before = clockStats();
  Stopwatch Watch;
  Clone.begin(Context);

  // Every worker replays the full sync schedule through its own clone,
  // each running the same re-entrancy filter the serial engine runs, so
  // all clones see the identical dispatched lock events.
  ReentrancyFilter Reentrancy(T.numThreads(), T.numLocks());
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.size()); I != E; ++I) {
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
  Report.Seconds = Watch.seconds();
  Report.Clocks = clockStats() - Before;
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

  for (unsigned K = 0; K != Shards; ++K) {
    Tool &Clone = *Clones[K];
    WorkerReport &Report = Reports[K];
    Workers.emplace_back([&, K] {
      runWorker(T, Map, Context, Clone, K, Shards, Filter, Report);
    });
  }
  for (std::thread &Worker : Workers)
    Worker.join();

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
