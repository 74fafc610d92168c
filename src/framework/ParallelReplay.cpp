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
  uint64_t Events = 0; ///< Every sync event and every access: all shards.
  uint64_t AccessesPassed = 0; ///< Owned accesses only.
  ClockStats Clocks;           ///< The worker thread's counter delta.
};

/// One worker runs the serial engine's loop over the whole (immutable,
/// shared) trace, so every clone sees the identical filtered sync
/// schedule; its access closure declines the accesses another shard
/// owns. Granularity-mapped ids keep whole objects in one shard.
void runWorker(const Trace &T, const ReplayOptions &Options,
               const GranularityMap &Map, const ToolContext &Context,
               Tool &Clone, ShardMap Owners, unsigned Shard,
               WorkerReport &Report) {
  ClockStats Before = clockStats();
  Stopwatch Watch;
  Clone.begin(Context);
  ReentrancyFilter Reentrancy(T.numThreads(), T.numLocks());
  detail::replayLoop(
      T, Options, Map, Reentrancy, 0, T.size(),
      [&Clone, Owners, Shard](OpKind Kind, ThreadId Thread, VarId X,
                              size_t I) {
        if (Owners.indexOf(X) != Shard)
          return false;
        return Kind == OpKind::Read ? Clone.onRead(Thread, X, I)
                                    : Clone.onWrite(Thread, X, I);
      },
      [&](const Operation &Op, size_t I) { dispatchSyncOp(Clone, T, Op, I); },
      Report.Events, Report.AccessesPassed);
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
  // Block 1 makes the map the plain modulo: shard K owns X % Shards == K.
  const ShardMap Owners(1, Shards);
  std::vector<WorkerReport> Reports(Shards);
  std::vector<std::thread> Workers;
  Workers.reserve(Shards);

  for (unsigned K = 0; K != Shards; ++K) {
    Tool &Clone = *Clones[K];
    WorkerReport &Report = Reports[K];
    Workers.emplace_back([&, K] {
      runWorker(T, Options.Replay, Map, Context, Clone, Owners, K, Report);
    });
  }
  for (std::thread &Worker : Workers)
    Worker.join();

  // --- 2. Deterministic merge. -----------------------------------------
  std::vector<RaceWarning> Merged;
  for (unsigned K = 0; K != Shards; ++K) {
    const std::vector<RaceWarning> &Ws = Clones[K]->warnings();
    Merged.insert(Merged.end(), Ws.begin(), Ws.end());
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
  // Every worker counts every event, so worker 0's count is the total.
  Result.Total.Events = Reports[0].Events;
  Result.Total.NumWarnings = Primary.warnings().size();
  Result.Total.Clocks = clockStats() - Before;
  Result.Total.Seconds = TotalWatch.seconds();
  return Result;
}
