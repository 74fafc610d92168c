//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks (Mattern 1988), the classical happens-before
/// representation reviewed in Section 2.2 of the paper:
///
///   V1 ⊑ V2   iff  ∀t. V1(t) ≤ V2(t)
///   V1 ⊔ V2   =    λt. max(V1(t), V2(t))
///   ⊥V        =    λt. 0
///   inc_t(V)  =    λu. if u = t then V(u) + 1 else V(u)
///
/// Every O(n)-time operation increments the global ClockStats counters so
/// Table 2 can be regenerated. Entries beyond the stored size are
/// implicitly zero, which keeps clocks for short-lived threads small.
///
/// Storage layout: the first InlineCapacity entries live inside the
/// object itself (no heap traffic for the thread counts that dominate
/// the bench suite); wider clocks move to a power-of-two heap block from
/// ClockArena. Whichever buffer is active, every entry in
/// [size(), capacity) is kept zero — the "zero tail" invariant. That is
/// what lets joinWith/leq/copyFrom run branch-free loops padded to a
/// multiple of 4 lanes with no scalar remainder: reading a neighbour's
/// tail yields zeros, and writing max(x, 0) into our own tail rewrites
/// zeros, so the padded lanes are semantically inert and the compiler
/// auto-vectorizes the whole loop (bench_clock_micro pins the resulting
/// throughput).
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_CLOCK_VECTORCLOCK_H
#define FASTTRACK_CLOCK_VECTORCLOCK_H

#include "clock/ClockArena.h"
#include "clock/ClockStats.h"
#include "clock/Epoch.h"
#include "trace/Ids.h"

#include <cstdint>
#include <cstring>
#include <string>

namespace ft {

/// The clock value type; 32 bits matches the paper's 24-bit packed clocks
/// with headroom (epoch packing asserts the 24-bit bound separately).
using ClockValue = uint32_t;

class VectorClock;
bool operator==(const VectorClock &A, const VectorClock &B);

/// A growable vector clock with implicit-zero semantics past its size.
class VectorClock {
public:
  /// Entries stored inline before the clock spills to a heap block.
  /// Eight covers every thread count the standard workloads use, and is
  /// a multiple of the 4-lane padding the vector loops rely on.
  static constexpr uint32_t InlineCapacity = 8;

  /// Builds ⊥V. No buffer is allocated until the clock becomes nonzero.
  VectorClock() = default;

  /// Builds ⊥V pre-sized for \p NumThreads threads (counted as one
  /// allocation when nonzero).
  explicit VectorClock(unsigned NumThreads) { growTo(NumThreads); }

  VectorClock(const VectorClock &Other) { assignFrom(Other); }

  VectorClock &operator=(const VectorClock &Other) {
    assignFrom(Other);
    return *this;
  }

  VectorClock(VectorClock &&Other) noexcept
      : Store(Other.Store), Count(Other.Count), Cap(Other.Cap) {
    Other.Store = Storage{};
    Other.Count = 0;
    Other.Cap = InlineCapacity;
  }

  VectorClock &operator=(VectorClock &&Other) noexcept {
    if (this == &Other)
      return *this;
    releaseBuffer();
    Store = Other.Store;
    Count = Other.Count;
    Cap = Other.Cap;
    Other.Store = Storage{};
    Other.Count = 0;
    Other.Cap = InlineCapacity;
    return *this;
  }

  ~VectorClock() { releaseBuffer(); }

  /// Returns V(t); zero for entries past the stored size.
  ClockValue get(ThreadId T) const { return T < Count ? data()[T] : 0; }

  /// Sets V(t) := Clock, growing as needed.
  void set(ThreadId T, ClockValue Clock) { growTo(T + 1)[T] = Clock; }

  /// inc_t: increments this clock's own entry for \p T.
  void inc(ThreadId T) { ++growTo(T + 1)[T]; }

  /// ⊔: joins \p Other into this clock in place. O(n); counted.
  void joinWith(const VectorClock &Other) {
    ++clockStats().JoinOps;
    const uint32_t N = Other.Count;
    if (N == 0)
      return;
    growTo(N);
    ClockValue *A = data();
    const ClockValue *B = Other.data();
    // Padded to 4 lanes: B's tail reads zeros, A's tail rewrites zeros.
    for (uint32_t I = 0, R = roundUp4(N); I != R; ++I)
      A[I] = A[I] < B[I] ? B[I] : A[I];
  }

  /// ⊑: pointwise ≤ against \p Other. O(n); counted.
  bool leq(const VectorClock &Other) const {
    ++clockStats().CompareOps;
    const ClockValue *A = data();
    const ClockValue *B = Other.data();
    const uint32_t R = roundUp4(Count < Other.Count ? Count : Other.Count);
    // Branch-free: accumulate violations instead of early-exiting, so
    // the loop has a constant trip count and vectorizes.
    ClockValue Gt = 0;
    for (uint32_t I = 0; I != R; ++I)
      Gt |= ClockValue(A[I] > B[I]);
    // Entries we store past Other's padded width face implicit zeros on
    // the right-hand side, so any nonzero one is a violation.
    ClockValue Tail = 0;
    for (uint32_t I = R, E = roundUp4(Count); I < E; ++I)
      Tail |= A[I];
    return (Gt | Tail) == 0;
  }

  /// Copies \p Other into this clock. O(n); counted. (operator= does the
  /// same; this spelling documents intent at call sites.)
  void copyFrom(const VectorClock &Other) { assignFrom(Other); }

  /// Zeroes every entry, keeping the buffer for reuse. Not counted: this
  /// models FastTrack recycling a read vector clock (Figure 5 reuses
  /// x.Rvc when a variable becomes read-shared again).
  void resetToBottom() {
    std::memset(data(), 0, size_t(Count) * sizeof(ClockValue));
  }

  /// ≼: epoch-to-vector-clock comparison, c@t ≼ V iff c ≤ V(t). O(1) and
  /// deliberately *not* counted — this is FastTrack's constant-time fast
  /// path.
  template <typename RawT, unsigned TidBits>
  bool epochLeq(BasicEpoch<RawT, TidBits> E) const {
    return E.clock() <= get(E.tid());
  }

  /// Returns the epoch E(t) = V(t)@t of this clock for thread \p T.
  Epoch epochOf(ThreadId T) const { return Epoch::make(T, get(T)); }

  /// Number of stored entries (trailing entries may still be zero).
  unsigned size() const { return Count; }

  /// True when every entry is zero.
  bool isBottom() const {
    ClockValue Any = 0;
    const ClockValue *A = data();
    for (uint32_t I = 0, E = roundUp4(Count); I != E; ++I)
      Any |= A[I];
    return Any == 0;
  }

  /// Heap bytes owned by this clock (for memory-overhead accounting).
  /// Inline storage is part of the object and reports zero.
  size_t memoryBytes() const {
    return Cap > InlineCapacity ? size_t(Cap) * sizeof(ClockValue) : 0;
  }

  /// Renders like "<4,8,0>" showing \p MinEntries entries at least.
  std::string str(unsigned MinEntries = 0) const;

private:
  union Storage {
    ClockValue Inline[InlineCapacity];
    ClockValue *Heap;
  };

  static constexpr uint32_t roundUp4(uint32_t N) { return (N + 3u) & ~3u; }

  ClockValue *data() { return Cap <= InlineCapacity ? Store.Inline : Store.Heap; }
  const ClockValue *data() const {
    return Cap <= InlineCapacity ? Store.Inline : Store.Heap;
  }

  void releaseBuffer() noexcept {
    if (Cap > InlineCapacity)
      ClockArena::release(Store.Heap, Cap);
  }

  /// Extends the stored size to \p Size (no-op when already that wide)
  /// and returns the active buffer. An empty clock becoming nonempty
  /// counts as the allocation; growing an already-materialized clock does
  /// not, since steady-state growth recycles arena blocks instead of
  /// hitting the global allocator. A spill returns the new heap block
  /// itself, so no caller indexes the inline array past its end on a
  /// path the compiler cannot rule out.
  ClockValue *growTo(uint32_t Size) {
    if (Size <= Count)
      return data();
    if (Count == 0)
      ++clockStats().Allocations;
    if (Size <= Cap) {
      Count = Size; // Zero-tail invariant: [old Count, Cap) already zero.
      return data();
    }
    return spillTo(Size);
  }

  /// Copy assignment shared by operator=, copyFrom and the copy
  /// constructor, so ClockStats sees exactly one CopyOp per nonempty
  /// copy no matter which spelling the caller used.
  void assignFrom(const VectorClock &Other) {
    if (this == &Other)
      return;
    const uint32_t N = Other.Count;
    if (N > Cap) {
      assignGrow(Other);
      return;
    }
    if (N != 0) {
      ++clockStats().CopyOps;
      if (Count == 0)
        ++clockStats().Allocations;
    }
    ClockValue *A = data();
    if (Count > N)
      std::memset(A + N, 0, size_t(Count - N) * sizeof(ClockValue));
    std::memcpy(A, Other.data(), size_t(N) * sizeof(ClockValue));
    Count = N;
  }

  ClockValue *spillTo(uint32_t Size);   // Re-buffer to hold Size entries.
  void assignGrow(const VectorClock &); // assignFrom when Other overflows Cap.

  Storage Store{};
  uint32_t Count = 0;
  uint32_t Cap = InlineCapacity;
};

} // namespace ft

#endif // FASTTRACK_CLOCK_VECTORCLOCK_H
