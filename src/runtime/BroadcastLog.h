//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded engine's one bounded broadcast log: the merge loop appends
/// each admitted event once, and every shard worker reads the whole
/// stream through its own cursor. FastTrack's state is per variable and
/// its happens-before comes from sync events alone, so a worker that reads
/// every sync event in order plus the accesses it owns reports exactly
/// what the serial analysis reports; nothing is copied per shard.
///
/// The producer reuses a slot only once the slowest reader has released
/// it, so a fast worker runs at most one capacity ahead of the slowest,
/// and a wedged worker fills the log and parks the producer.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_BROADCASTLOG_H
#define FASTTRACK_RUNTIME_BROADCASTLOG_H

#include "runtime/EventRing.h"

#include <algorithm>
#include <memory>

namespace ft::runtime {

/// Bounded single-producer, N-reader log of admitted events: Seq is the
/// raw op index and Thread the emitting thread. Capacity is rounded up to
/// a power of two; all hand-off is acquire/release on Tail and the
/// cursors.
class BroadcastLog {
public:
  BroadcastLog(size_t Capacity, unsigned NumReaders)
      : Readers(new Reader[NumReaders]), NumReaders(NumReaders) {
    size_t Pow2 = 1;
    while (Pow2 < Capacity)
      Pow2 <<= 1;
    Buffer.resize(Pow2);
    Mask = Pow2 - 1;
  }

  // --- producer side ---

  /// Writes \p E into the next slot without making it readable; false
  /// when the log is full (the slowest reader is a capacity behind).
  bool tryAppend(const OnlineEvent &E) {
    if (Pending - SlowestCache == Buffer.size()) {
      SlowestCache = slowest();
      if (Pending - SlowestCache == Buffer.size())
        return false;
    }
    Buffer[Pending++ & Mask] = E;
    return true;
  }

  /// Makes every appended event readable with one release store.
  void publish() { Tail.store(Pending, std::memory_order_release); }

  // --- reader \p R's side ---

  /// Exposes reader \p R's longest contiguous readable run in place,
  /// bounded by the buffer's wrap point; the slots stay valid until
  /// release()d. 0 when \p R has read everything published.
  size_t peekRun(unsigned R, const OnlineEvent *&Ptr) {
    Reader &Rd = Readers[R];
    const uint64_t C = Rd.Cursor.load(std::memory_order_relaxed);
    if (C == Rd.TailCache) {
      Rd.TailCache = Tail.load(std::memory_order_acquire);
      if (C == Rd.TailCache)
        return 0;
    }
    const size_t Idx = static_cast<size_t>(C & Mask);
    Ptr = &Buffer[Idx];
    return std::min(static_cast<size_t>(Rd.TailCache - C), Buffer.size() - Idx);
  }

  /// Hands the first \p N slots of reader \p R's run back to the producer.
  void release(unsigned R, size_t N) {
    std::atomic<uint64_t> &C = Readers[R].Cursor;
    C.store(C.load(std::memory_order_relaxed) + N, std::memory_order_release);
  }

  // --- any thread ---

  /// Events reader \p R has released: its drain watermark.
  uint64_t cursor(unsigned R) const {
    return Readers[R].Cursor.load(std::memory_order_acquire);
  }
  uint64_t tail() const { return Tail.load(std::memory_order_acquire); }
  uint64_t slowest() const {
    uint64_t Min = cursor(0);
    for (unsigned R = 1; R != NumReaders; ++R)
      Min = std::min(Min, cursor(R));
    return Min;
  }
  /// The slowest reader holds every published slot. The tail is read
  /// first, so a stale answer errs towards "not full".
  bool full() const {
    const uint64_t T = tail();
    return slowest() + Buffer.size() <= T;
  }

private:
  /// One reader's cursor and its cached copy of Tail, on a line of their
  /// own.
  struct alignas(64) Reader {
    std::atomic<uint64_t> Cursor{0};
    uint64_t TailCache = 0;
  };

  std::vector<OnlineEvent> Buffer;
  size_t Mask = 0;
  std::unique_ptr<Reader[]> Readers;
  unsigned NumReaders;

  /// Producer line: the published tail, the append position and the
  /// cached slowest cursor.
  alignas(64) std::atomic<uint64_t> Tail{0};
  uint64_t Pending = 0;
  uint64_t SlowestCache = 0;
};

} // namespace ft::runtime

#endif // FASTTRACK_RUNTIME_BROADCASTLOG_H
