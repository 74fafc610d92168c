//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level accounting of shadow-state allocations.
///
/// The paper's Table 3 reports per-tool memory overheads. Rather than
/// inspecting the OS heap, every analysis-state allocation in this project
/// (vector clocks, VarState records, lock sets) is charged to a
/// MemoryTracker so the overhead can be regenerated deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_SUPPORT_MEMORYTRACKER_H
#define FASTTRACK_SUPPORT_MEMORYTRACKER_H

#include <cstddef>
#include <cstdint>

namespace ft {

/// Tracks live and peak bytes charged by an analysis tool. The replay
/// loop (ReplayOptions::BudgetTracker) and the online driver
/// (DegradePolicy::Tracker) sample a tool's shadowBytes() into a tracker
/// between events, so callers observe the live and peak footprint of a
/// run.
class MemoryTracker {
public:
  /// Charges \p Bytes to the tracker.
  void allocate(size_t Bytes) {
    Live += Bytes;
    Total += Bytes;
    if (Live > Peak)
      Peak = Live;
  }

  /// Releases \p Bytes previously charged.
  void release(size_t Bytes) { Live -= Bytes < Live ? Bytes : Live; }

  /// Replaces the live-byte reading with a fresh sample of externally
  /// owned state (e.g. a tool's shadowBytes()), updating the peak. Used
  /// by the periodic probes, where state is resampled whole rather than
  /// charged allocation by allocation.
  void sampleLive(uint64_t Bytes) {
    Live = Bytes;
    if (Live > Peak)
      Peak = Live;
  }

  /// Returns bytes currently charged.
  uint64_t liveBytes() const { return Live; }

  /// Returns the high-water mark of charged bytes.
  uint64_t peakBytes() const { return Peak; }

  /// Returns the cumulative bytes ever charged (ignores releases).
  uint64_t totalBytes() const { return Total; }

  /// Resets all counters to zero.
  void reset() { Live = Peak = Total = 0; }

private:
  uint64_t Live = 0;
  uint64_t Peak = 0;
  uint64_t Total = 0;
};

/// Returns the process-wide tracker used when no per-tool tracker is bound.
MemoryTracker &globalMemoryTracker();

} // namespace ft

#endif // FASTTRACK_SUPPORT_MEMORYTRACKER_H
