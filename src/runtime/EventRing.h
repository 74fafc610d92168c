//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread event channel: a bounded single-producer single-consumer
/// ring buffer carrying instrumentation events from one application thread
/// to the sequencer.
///
/// One ring per instrumented thread keeps the hot emit path free of
/// cross-thread contention: the producer touches only its own tail (and
/// reads the consumer's head with acquire ordering), the sequencer only
/// its own heads. The bound is the backpressure mechanism — a thread that
/// outruns the detector parks in emit() until the sequencer drains, so
/// detection memory stays O(threads × capacity) no matter how fast the
/// application generates events (the C11Tester/RoadRunner budgeting
/// discipline, not an unbounded log).
///
/// Two standard SPSC optimizations keep the indices off each other's
/// cache lines:
///  - Head and Tail live on separate 64-byte-aligned lines, so a push
///    never invalidates the line a pop is spinning on (and vice versa).
///  - Each side keeps a private cached copy of the other side's index and
///    only re-reads the shared atomic when the cache says the ring looks
///    full (producer) or empty (consumer). A steady-state push/pop pair
///    is then one relaxed load + one release store per side.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_RUNTIME_EVENTRING_H
#define FASTTRACK_RUNTIME_EVENTRING_H

#include "trace/Operation.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <vector>

namespace ft::runtime {

/// Seq of an access that carries no ticket (see OnlineEvent).
constexpr uint64_t NoTicket = ~0ull;

/// One instrumentation event in flight. In a per-thread ring
/// (application thread → merge loop) the producing thread is implied by
/// the ring and Thread is unused. Seq is the global sync ticket for a sync
/// event — and for the first event after the thread binds to its slot —
/// and NoTicket for every other access: the merge orders sync events by
/// ticket and lets accesses flow between them in per-thread order.
/// (BroadcastLog.h gives the fields their meaning after admission.)
struct OnlineEvent {
  uint64_t Seq = 0;
  OpKind Kind = OpKind::Read;
  uint32_t Target = 0;
  ThreadId Thread = 0;
};

/// Bounded SPSC ring of OnlineEvents. Capacity is rounded up to a power
/// of two. All cross-thread hand-off is acquire/release on Head/Tail, so
/// the ring is data-race-free by construction (certified by the CI TSan
/// job, which runs real producer threads against a real sequencer).
class EventRing {
public:
  explicit EventRing(size_t Capacity) {
    size_t Pow2 = 1;
    while (Pow2 < Capacity)
      Pow2 <<= 1;
    Buffer.resize(Pow2);
    Mask = Pow2 - 1;
  }

  EventRing(const EventRing &) = delete;
  EventRing &operator=(const EventRing &) = delete;

  size_t capacity() const { return Buffer.size(); }

  // --- producer side ---

  /// True when push() may be called. The producer owns Tail, so a true
  /// result cannot be invalidated by the consumer (draining only makes
  /// more room). Non-const: refreshes the producer's cached head when the
  /// ring looks full.
  bool hasSpace() {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    if (T - HeadCache < Buffer.size())
      return true;
    HeadCache = Head.load(std::memory_order_acquire);
    return T - HeadCache < Buffer.size();
  }

  /// Appends \p E. Precondition: hasSpace().
  void push(const OnlineEvent &E) {
    uint64_t T = Tail.load(std::memory_order_relaxed);
    assert(T - Head.load(std::memory_order_acquire) < Buffer.size() &&
           "push on a full ring");
    Buffer[T & Mask] = E;
    Tail.store(T + 1, std::memory_order_release);
  }

  // --- consumer side ---

  /// Returns the oldest event without consuming it, or nullptr when the
  /// ring is empty. The slot stays valid until the matching pop().
  /// Non-const: refreshes the consumer's cached tail when the ring looks
  /// empty.
  const OnlineEvent *peek() {
    uint64_t H = Head.load(std::memory_order_relaxed);
    if (H == TailCache) {
      TailCache = Tail.load(std::memory_order_acquire);
      if (H == TailCache)
        return nullptr;
    }
    return &Buffer[H & Mask];
  }

  /// Consumes the event peek() returned.
  void pop() {
    uint64_t H = Head.load(std::memory_order_relaxed);
    assert(H != Tail.load(std::memory_order_acquire) && "pop on empty ring");
    Head.store(H + 1, std::memory_order_release);
  }

  /// Merge drain for the sequencer: copies out up to \p Max events
  /// in FIFO order and releases all consumed slots with a single Head
  /// store (so a parked producer sees the whole batch of space at once).
  /// Unticketed events (accesses) pass freely; a ticketed event passes
  /// only when its ticket is \p NextTicket, which it then advances. A
  /// join additionally needs \p JoinReady(joined thread) to hold — the
  /// joined thread's trailing unticketed accesses must merge first. The
  /// drain stops at the first event that may not pass yet; it stays in
  /// the ring for a later visit. Returns the number of events written to
  /// \p Out.
  template <typename JoinReadyFn>
  size_t popMergeable(uint64_t &NextTicket, OnlineEvent *Out, size_t Max,
                      JoinReadyFn &&JoinReady) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    if (H == TailCache) {
      TailCache = Tail.load(std::memory_order_acquire);
      if (H == TailCache)
        return 0;
    }
    size_t N = 0;
    while (N != Max && H != TailCache) {
      const OnlineEvent &E = Buffer[H & Mask];
      if (E.Seq != NoTicket) {
        if (E.Seq != NextTicket ||
            (E.Kind == OpKind::Join && !JoinReady(E.Target)))
          break;
        ++NextTicket;
      }
      Out[N++] = E;
      ++H;
    }
    if (N != 0)
      Head.store(H, std::memory_order_release);
    return N;
  }

  /// True when the oldest event is ticketed or the ring is empty: no
  /// unticketed access is waiting at the head. The join gate of
  /// popMergeable(); consumer side only.
  bool headTicketedOrEmpty() {
    const OnlineEvent *E = peek();
    return E == nullptr || E->Seq != NoTicket;
  }

  bool empty() const {
    return Head.load(std::memory_order_acquire) ==
           Tail.load(std::memory_order_acquire);
  }

  /// Events ever pushed (the producer's tail index). Monotone for the
  /// ring's lifetime, across slot incarnations.
  uint64_t pushed() const { return Tail.load(std::memory_order_acquire); }

  /// Events pushed but not yet consumed.
  size_t size() const {
    const uint64_t H = Head.load(std::memory_order_acquire);
    return static_cast<size_t>(Tail.load(std::memory_order_acquire) - H);
  }

private:
  std::vector<OnlineEvent> Buffer;
  size_t Mask = 0;

  /// Consumer cache line: the shared head index plus the consumer's
  /// private cached copy of Tail.
  alignas(64) std::atomic<uint64_t> Head{0}; ///< Next slot to consume.
  uint64_t TailCache = 0;

  /// Producer cache line: the shared tail index plus the producer's
  /// private cached copy of Head.
  alignas(64) std::atomic<uint64_t> Tail{0}; ///< Next slot to fill.
  uint64_t HeadCache = 0;
};

} // namespace ft::runtime

#endif // FASTTRACK_RUNTIME_EVENTRING_H
