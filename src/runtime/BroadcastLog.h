//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's one bounded event buffer: a single-producer log that N
/// readers each consume through their own cursor. Each slot is one 8-byte
/// EventWord (target, kind and a tag), and it carries events at two
/// points of the pipeline:
///
///  - **Per-thread channels** (one reader). Each application thread
///    appends its events to a private log, and the merge loop is that
///    log's reader 0. The bound is the backpressure mechanism: a thread
///    that outruns the detector parks in emit() until the merge drains,
///    so detection memory stays O(threads × capacity) however fast the
///    application generates events (the C11Tester/RoadRunner budgeting
///    discipline, not an unbounded log). A word's tag holds the sync
///    ticket's residue; the merge's ticket and join gate reads the words
///    in place (Engine::pullBatch).
///  - **The shard log** (N readers). The merge loop appends each admitted
///    event once, its tag the emitting thread and its position its raw op
///    index, and every shard worker reads the whole stream through its
///    own cursor. FastTrack's state is per variable and its
///    happens-before comes from sync events alone, so a worker that reads
///    every sync event in order plus the accesses it owns reports exactly
///    what the serial analysis reports; nothing is copied per shard.
///
/// The producer reuses a slot only once the slowest reader has released
/// it, so a fast reader runs at most one capacity ahead of the slowest,
/// and a wedged reader fills the log and parks the producer.
///
/// The producer's tail and each reader's cursor live on cache lines of
/// their own, and each side keeps a private cached copy of the other
/// side's index, re-reading the shared atomic only when the cache says
/// the log looks full (producer) or drained (reader). A steady-state
/// append/read pair is then one relaxed load and one release store per
/// side.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_BROADCASTLOG_H
#define FASTTRACK_RUNTIME_BROADCASTLOG_H

#include "trace/Operation.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace ft::runtime {

/// One event in flight, packed into one 64-bit word: the slot of every
/// BroadcastLog. Bits 0-31 hold the target id and bits 32-35 the kind in
/// both places the log serves; bits 36-63, the tag, depend on the place:
///
///  - **Per-thread ring.** The producing thread is implied by the ring.
///    A ticketed event (a sync event, or the first event after the thread
///    binds to its slot) sets bit 63 and keeps its ticket's low
///    TicketBits bits in bits 36-62; an unticketed access has tag 0. The
///    merge compares that residue with its next ticket modulo
///    2^TicketBits, which is exact because the tickets drawn and not yet
///    merged never number more than TicketWindow: each sits in a ring
///    slot or is being appended by its thread, at most MaxThreads ×
///    (RingCapacity + 1), and the Engine fits its options to that bound.
///  - **Shard log.** The tag is the emitting thread (below ThreadLimit),
///    and the event's raw op index is its position in the log. An
///    admitted event no worker may dispatch (a re-entrant lock event the
///    admission filter stripped) is appended as a skip word, so the
///    positions stay the raw indices.
struct EventWord {
  static constexpr unsigned KindShift = 32;
  static constexpr unsigned TagShift = 36;
  static constexpr unsigned TicketBits = 27;
  static constexpr uint64_t TicketWindow = 1ull << TicketBits;
  static constexpr uint64_t ThreadLimit = 1ull << (64 - TagShift);

  uint64_t Bits = 0;

  /// An unticketed ring word, or a log word with tag \p Tag (a thread).
  static EventWord of(OpKind Kind, uint32_t Target, uint64_t Tag = 0) {
    return {Target | uint64_t(Kind) << KindShift | Tag << TagShift};
  }
  /// A ring word carrying \p Ticket.
  static EventWord withTicket(OpKind Kind, uint32_t Target, uint64_t Ticket) {
    return of(Kind, Target, ticketTag(Ticket));
  }
  /// The log word of an admitted event no shard worker dispatches.
  static EventWord skip() { return {SkipKind << KindShift}; }
  /// The tag a ring word holding \p Ticket carries.
  static uint64_t ticketTag(uint64_t Ticket) {
    return TicketWindow | (Ticket & (TicketWindow - 1));
  }

  uint32_t target() const { return static_cast<uint32_t>(Bits); }
  OpKind kind() const { return static_cast<OpKind>(Bits >> KindShift & 0xF); }
  uint64_t tag() const { return Bits >> TagShift; }
  bool ticketed() const { return Bits >> 63 != 0; }
  bool isSkip() const { return (Bits >> KindShift & 0xF) == SkipKind; }
  ThreadId thread() const { return static_cast<ThreadId>(tag()); }
  /// This ring word's log word: same kind and target, tagged \p Thread.
  EventWord onThread(ThreadId Thread) const {
    return {(Bits & ((1ull << TagShift) - 1)) | uint64_t(Thread) << TagShift};
  }

  bool operator==(const EventWord &) const = default;

private:
  /// A kind field no OpKind uses.
  static constexpr uint64_t SkipKind = 0xF;
};

static_assert(sizeof(EventWord) == 8, "a log slot is one 8-byte word");
static_assert(uint64_t(OpKind::AtomicEnd) < 0xF, "OpKind fits the kind field");

/// Bounded single-producer, N-reader log of EventWords. Capacity is
/// rounded up to a power of two; all hand-off is acquire/release on Tail
/// and the cursors, so the log is data-race-free by construction
/// (certified by the CI TSan job, which runs real producer threads
/// against a real merge loop and real shard workers).
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

  BroadcastLog(const BroadcastLog &) = delete;
  BroadcastLog &operator=(const BroadcastLog &) = delete;

  size_t capacity() const { return Buffer.size(); }

  // --- producer side ---

  /// True when an append fits. The producer owns the append position, so
  /// a true answer cannot be invalidated by the readers (releasing only
  /// makes more room). Refreshes the cached slowest cursor only when the
  /// log looks full.
  bool hasSpace() {
    if (Pending - SlowestCache < Buffer.size())
      return true;
    SlowestCache = slowest();
    return Pending - SlowestCache < Buffer.size();
  }

  /// Writes \p E into the next slot without making it readable; false
  /// when the log is full (the slowest reader is a capacity behind).
  bool tryAppend(EventWord W) {
    if (!hasSpace())
      return false;
    Buffer[Pending++ & Mask] = W;
    return true;
  }

  /// Makes every appended event readable with one release store.
  void publish() { Tail.store(Pending, std::memory_order_release); }

  // --- reader \p R's side ---

  /// Exposes reader \p R's longest contiguous readable run in place,
  /// starting \p Skip events past its cursor (events it has read but not
  /// yet released) and bounded by the buffer's wrap point; the slots stay
  /// valid until release()d. 0 when \p R has read everything published.
  /// Only a call with nothing skipped re-reads the producer's tail, so a
  /// reader that continues a run past the wrap touches the producer's
  /// line once.
  size_t peekRun(unsigned R, const EventWord *&Ptr, size_t Skip = 0) {
    Reader &Rd = Readers[R];
    const uint64_t C = Rd.Cursor.load(std::memory_order_relaxed) + Skip;
    if (C == Rd.TailCache) {
      if (Skip != 0)
        return 0;
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
  /// Events ever published. Monotone for the log's lifetime.
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

  std::vector<EventWord> Buffer;
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
