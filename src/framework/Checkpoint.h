//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint/resume for long replays. Dynamic race detectors routinely
/// process traces with hundreds of millions of events (Table 2); a replay
/// killed near the end would otherwise start over from event zero. This
/// driver periodically serializes the complete analysis state — the
/// tool's shadow memory (σ = (C, L, R, W) for the vector-clock tools),
/// its accumulated warnings, the re-entrant-lock filter depths, and the
/// replay cursor — so a subsequent run resumes mid-trace and finishes
/// bit-identically to an uninterrupted one. Dispatch is replay()'s own
/// loop (detail::replayLoop), run in segments that end where a
/// checkpoint is written, where the injected crash strikes, and where
/// replay() samples a BudgetTracker; the cursor and the lock filter carry
/// across segments.
///
/// Checkpoint image (little-endian, produced via support/ByteStream.h):
///
///   u32  magic 'FTCK'          u32  format version
///   u64  trace fingerprint     — FNV-1a over every operation, the
///                                barrier sets, the entity counts, and
///                                the replay configuration (granularity,
///                                field mapping, lock filtering); a
///                                checkpoint never resumes against a
///                                different trace or configuration
///   str  tool name
///   u64  next op index         u64 events dispatched
///   u64  accesses passed
///   ...  ReentrancyFilter snapshot
///   u64  warning count, then each warning's fields
///   str  tool shadow blob      — ShardableTool::snapshotShadow()
///   u64  FNV-1a checksum of all preceding bytes
///
/// Images are written to `<path>.tmp` and renamed into place, so a crash
/// mid-write leaves the previous checkpoint intact. A checkpoint that
/// fails any validation step (bad checksum, wrong fingerprint, wrong
/// tool, truncation) is ignored with a diagnostic and the replay starts
/// from scratch — a stale or corrupt checkpoint can cost time, never
/// correctness.
///
/// Tools opt in via ShardableTool::supportsCheckpoint(); for others the
/// driver degrades to a plain uncheckpointed replay and says so. The
/// global clock-operation counters (Table 2 instrumentation) are
/// measurement, not analysis state, and report this run's delta only.
/// A shadow budget is the tool's own ShadowMemoryPolicy
/// (Tool::configureShadowPolicy) and needs nothing from this driver.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_CHECKPOINT_H
#define FASTTRACK_FRAMEWORK_CHECKPOINT_H

#include "framework/Replay.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace ft {

/// Options controlling one checkpointed replay.
struct CheckpointOptions {
  /// Checkpoint file path. Empty disables checkpointing entirely (the
  /// replay still runs; nothing is written or read).
  std::string Path;

  /// Write a checkpoint every this many trace operations (measured in
  /// absolute trace position, so write points are deterministic and
  /// independent of where a run started). 0 disables periodic writes.
  uint64_t EveryOps = 1u << 20;

  /// Attempt to resume from an existing image at Path.
  bool Resume = true;

  /// Keep the final checkpoint after a completed replay (default: a
  /// completed run deletes it, so the next run starts fresh).
  bool KeepOnSuccess = false;

  /// Fault injection: abandon the replay — as a kill -9 would, without
  /// flushing state or calling Tool::end() — after this many operations
  /// have been processed by *this run*. 0 disables. Test-only.
  uint64_t InjectCrashAfterOps = 0;
};

/// Outcome of replayCheckpointed().
struct CheckpointedReplayResult {
  ReplayResult Result;
  Status St;                     ///< Ok, or Cancelled on an injected crash.
  std::vector<Diagnostic> Diags; ///< Resume/skip/degrade notices.
  bool Resumed = false;          ///< A valid checkpoint was restored.
  uint64_t ResumedAtOp = 0;      ///< Cursor the restored image held.
  uint64_t CheckpointsWritten = 0;
};

/// Replays \p T through \p Checker with periodic checkpoints per \p Ck,
/// resuming from an existing valid image first. Events dispatch through
/// replay()'s loop — same re-entrancy filtering, same granularity
/// remapping, same BudgetTracker samples — so a resumed run's warnings,
/// rule counters, and shadow state are bit-identical to an
/// uninterrupted run's. The tool's handlers are called virtually.
CheckpointedReplayResult
replayCheckpointed(const Trace &T, Tool &Checker,
                   const ReplayOptions &Replay = ReplayOptions(),
                   const CheckpointOptions &Ck = CheckpointOptions());

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_CHECKPOINT_H
