//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks per-(thread, lock) nesting depth to strip redundant re-entrant
/// acquire/release pairs, as RoadRunner does before events reach tools
/// (Section 4, "ROADRUNNER"). The one replay loop (framework/Replay.h)
/// filters through an instance its caller owns, and the online driver
/// through its own, so every engine dispatches exactly the same lock
/// events.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TRACE_REENTRANCYFILTER_H
#define FASTTRACK_TRACE_REENTRANCYFILTER_H

#include "support/ByteStream.h"
#include "trace/Ids.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace ft {

class ReentrancyFilter {
public:
  ReentrancyFilter() = default;

  /// Sized variant: when the thread × lock space is small (the common
  /// case — this is an O(1) array lookup per lock event instead of a
  /// hash probe), depths live in a dense table. Falls back to the hash
  /// map for huge id spaces.
  ReentrancyFilter(unsigned NumThreads, unsigned NumLocks) {
    if (static_cast<uint64_t>(NumThreads) * NumLocks <= DenseLimit) {
      Locks = NumLocks;
      Dense.assign(static_cast<size_t>(NumThreads) * NumLocks, 0);
    }
  }

  /// Returns true when this acquire is the outermost one (dispatch it).
  bool onAcquire(ThreadId T, LockId M) {
    if (!Dense.empty())
      return ++Dense[static_cast<size_t>(T) * Locks + M] == 1;
    return ++Depth[key(T, M)] == 1;
  }

  /// Returns true when this release exits the outermost level.
  bool onRelease(ThreadId T, LockId M) {
    if (!Dense.empty()) {
      unsigned &D = Dense[static_cast<size_t>(T) * Locks + M];
      if (D == 0)
        return true; // Infeasible trace; dispatch and let tools cope.
      return --D == 0;
    }
    auto It = Depth.find(key(T, M));
    if (It == Depth.end() || It->second == 0)
      return true; // Infeasible trace; dispatch and let tools cope.
    if (--It->second == 0) {
      Depth.erase(It);
      return true;
    }
    return false;
  }

  /// Checkpoint support: the filter's nesting depths are replay-cursor
  /// state — resuming a trace mid-stream must dispatch exactly the lock
  /// events the uninterrupted run would have. Sparse depths are written
  /// in sorted key order so images are deterministic.
  void snapshot(ByteWriter &Writer) const {
    Writer.u32(Locks);
    Writer.u64(Dense.size());
    for (unsigned D : Dense)
      Writer.u32(D);
    std::vector<std::pair<uint64_t, unsigned>> Sorted(Depth.begin(),
                                                      Depth.end());
    std::sort(Sorted.begin(), Sorted.end());
    Writer.u64(Sorted.size());
    for (const auto &[Key, D] : Sorted) {
      Writer.u64(Key);
      Writer.u32(D);
    }
  }

  /// Restores what snapshot() wrote. \returns false on a malformed image.
  bool restore(ByteReader &Reader) {
    Locks = Reader.u32();
    uint64_t DenseSize = Reader.u64();
    // Divide rather than multiply: a hostile length must not wrap around
    // and slip past the bound into a huge allocation.
    if (Reader.failed() || DenseSize > Reader.remaining() / 4)
      return false;
    Dense.assign(DenseSize, 0);
    for (unsigned &D : Dense)
      D = Reader.u32();
    Depth.clear();
    uint64_t SparseSize = Reader.u64();
    if (Reader.failed() || SparseSize > Reader.remaining() / 12)
      return false;
    for (uint64_t I = 0; I != SparseSize; ++I) {
      uint64_t Key = Reader.u64();
      Depth[Key] = Reader.u32();
    }
    return !Reader.failed();
  }

private:
  static constexpr uint64_t DenseLimit = 1u << 20;

  static uint64_t key(ThreadId T, LockId M) {
    return (static_cast<uint64_t>(T) << 32) | M;
  }
  unsigned Locks = 0;
  std::vector<unsigned> Dense;
  std::unordered_map<uint64_t, unsigned> Depth;
};

} // namespace ft

#endif // FASTTRACK_TRACE_REENTRANCYFILTER_H
