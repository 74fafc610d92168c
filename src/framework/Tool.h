//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Tool interface: the analogue of a RoadRunner back-end checker.
///
/// Every analysis in this repository (the six race detectors of the paper
/// plus the downstream atomicity/determinism checkers) implements Tool and
/// consumes one totally-ordered event stream produced by replay(). That
/// mirrors the paper's methodology: "all tools are implemented on top of
/// the same framework ... providing a true apples-to-apples comparison."
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_TOOL_H
#define FASTTRACK_FRAMEWORK_TOOL_H

#include "framework/Warning.h"
#include "shadow/ShadowPolicy.h"
#include "trace/Trace.h"

#include <vector>

namespace ft {

/// Static facts about the trace a tool is about to process, letting tools
/// pre-size their shadow state (the numbers already reflect any
/// granularity remapping applied by replay()).
struct ToolContext {
  unsigned NumThreads = 1;
  unsigned NumVars = 0;
  unsigned NumLocks = 0;
  unsigned NumVolatiles = 0;
};

/// Base class for all dynamic analyses.
///
/// Event handlers are virtual and default to no-ops. The read/write
/// handlers return a *pass* flag used when the tool acts as a prefilter in
/// a composed pipeline (Section 5.2): `true` means "this access is
/// interesting — forward it downstream"; `false` means the access was
/// proven boring/race-free by a fast path and can be filtered out. Tools
/// that are not filters simply return true.
class Tool {
public:
  virtual ~Tool();

  /// Stable tool name, e.g. "FastTrack".
  virtual const char *name() const = 0;

  /// Called once before the first event.
  virtual void begin(const ToolContext &Context);

  /// Called once after the last event.
  virtual void end();

  /// rd(t, x). \returns pass flag (see class comment). The access
  /// defaults are inline so that a registered loop of a tool keeping them
  /// (EMPTY) inlines them, as it does a detector's handlers, instead of
  /// calling out of line per access.
  virtual bool onRead(ThreadId, VarId, size_t) { return true; }

  /// wr(t, x). \returns pass flag.
  virtual bool onWrite(ThreadId, VarId, size_t) { return true; }

  virtual void onAcquire(ThreadId T, LockId M, size_t OpIndex);
  virtual void onRelease(ThreadId T, LockId M, size_t OpIndex);
  virtual void onFork(ThreadId T, ThreadId U, size_t OpIndex);
  virtual void onJoin(ThreadId T, ThreadId U, size_t OpIndex);
  virtual void onVolatileRead(ThreadId T, VolatileId V, size_t OpIndex);
  virtual void onVolatileWrite(ThreadId T, VolatileId V, size_t OpIndex);
  virtual void onBarrier(const std::vector<ThreadId> &Threads,
                         size_t OpIndex);
  virtual void onAtomicBegin(ThreadId T, size_t OpIndex);
  virtual void onAtomicEnd(ThreadId T, size_t OpIndex);

  /// Bytes of shadow state currently held, for Table 3's memory column.
  virtual size_t shadowBytes() const;

  /// Offers a shadow-memory governance policy (temperature tracking,
  /// cold-page compression, watermark shedding — shadow/ShadowPolicy.h)
  /// to the tool, before begin(). \returns true when the tool will
  /// govern its shadow state accordingly; the default declines, and the
  /// caller (framework/OnlineDriver.h) falls back to ladder-only
  /// budgeting.
  virtual bool configureShadowPolicy(const ShadowMemoryPolicy &Policy);

  /// Governance telemetry accumulated since begin(). Tools that decline
  /// configureShadowPolicy report zeros.
  virtual ShadowGovernorStats shadowGovernorStats() const;

  /// Warnings reported so far (deduplicated to one per variable).
  const std::vector<RaceWarning> &warnings() const { return Warnings; }

  /// Drops accumulated warnings and the per-variable dedup set.
  void clearWarnings();

  /// Merges externally collected warnings through the one-warning-per-
  /// variable policy, in the given order. ParallelReplay uses this to
  /// install the shard clones' warnings (sorted back into trace order)
  /// into the primary tool. \returns the number recorded.
  size_t adoptWarnings(const std::vector<RaceWarning> &Merged);

protected:
  /// Records \p W unless a warning for the same variable already exists.
  /// \returns true when the warning was recorded.
  bool reportRace(RaceWarning W);

  /// Returns true if a warning for \p X has already been recorded.
  bool alreadyWarned(VarId X) const;

private:
  std::vector<RaceWarning> Warnings;
  std::vector<bool> WarnedVars; // indexed by VarId, grown on demand
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_TOOL_H
