//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel sharded replay engine (docs/ARCHITECTURE.md, "Sharded
/// replay"). Offline replay admits a parallelism the online detectors of
/// the paper cannot exploit: per-variable shadow state depends on thread
/// clocks only at synchronization points, so a recorded trace can be
/// partitioned *by variable* and replayed on many cores.
///
/// Pipeline:
///   1. N workers, each owning a cloneForShard() of the tool, run the
///      serial engine's loop (detail::replayLoop) over the shared
///      immutable trace. Each dispatches every sync event through its
///      own clone, after the same re-entrant lock filtering, and the
///      accesses it owns — ShardMap(1, N), the pure test
///      mapped-var % N == shard — in trace order; its access closure
///      declines the rest. As in the online engine, every shard sees
///      every sync event.
///   2. Deterministic merge: warnings are sorted back into trace order
///      (op indices are unique, and the one-warning-per-variable dedup
///      is shard-local by construction), rule counters fold via
///      ShardableTool::mergeShard, and worker clock-op counts fold into
///      the calling thread's ClockStats block.
///
/// The result is bit-identical to serial replay() for every opted-in
/// tool: same warnings in the same order, same rule counters, same
/// pass/filter decisions. Tools that do not implement ShardableTool
/// (the order-sensitive transactional checkers) transparently fall back
/// to the serial engine.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_PARALLELREPLAY_H
#define FASTTRACK_FRAMEWORK_PARALLELREPLAY_H

#include "framework/Replay.h"
#include "framework/ShardableTool.h"

namespace ft {

/// Options controlling one sharded replay.
struct ParallelReplayOptions {
  /// Granularity / lock-filtering options, as for replay(). The workers
  /// never sample Replay.BudgetTracker: a MemoryTracker is not
  /// thread-safe. (The serial fallback does, as replay() does.)
  ReplayOptions Replay;

  /// Worker count. 0 picks std::thread::hardware_concurrency(); 1 (or a
  /// tool without ShardableTool) runs the serial engine. Clamped to
  /// MaxShards.
  unsigned NumShards = 0;
};

/// Measurements from one sharded replay.
struct ParallelReplayResult {
  /// Aggregated measurements, field-compatible with serial replay():
  /// Events and AccessesPassed match the serial run exactly; Seconds is
  /// the end-to-end wall time (clone setup + slowest worker + merge);
  /// Clocks sums all threads' vector-clock activity, so it exceeds the
  /// serial count by the sync work every extra worker repeats.
  ReplayResult Total;

  /// False when the engine fell back to serial replay (tool not
  /// shardable, or an effective shard count of 1).
  bool Sharded = false;

  /// Effective worker count (1 when not Sharded).
  unsigned Shards = 1;

  /// Per-worker replay-loop wall times (empty when not Sharded).
  std::vector<double> ShardSeconds;
};

/// Replays \p T through \p Primary using \p Options.NumShards workers.
/// On return \p Primary holds the merged warnings and rule counters, as
/// if it had replayed the trace serially; its per-variable shadow state,
/// however, lives in the discarded clones — callers needing shadow-state
/// queries afterwards (e.g. Eraser::isUnprotected) should use replay().
ParallelReplayResult parallelReplay(
    const Trace &T, Tool &Primary,
    const ParallelReplayOptions &Options = ParallelReplayOptions());

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_PARALLELREPLAY_H
