#include "framework/VectorClockToolBase.h"

#include "support/ByteStream.h"

using namespace ft;

void VectorClockToolBase::begin(const ToolContext &Context) {
  C.assign(Context.NumThreads, VectorClock());
  ClockCache.assign(Context.NumThreads, 0);
  // σ0: C = λt.inc_t(⊥V) — every thread starts at clock 1 in its own entry.
  for (ThreadId T = 0; T != Context.NumThreads; ++T) {
    C[T].inc(T);
    refreshClock(T);
  }
  L.assign(Context.NumLocks, VectorClock());
  LVolatile.assign(Context.NumVolatiles, VectorClock());
}

void VectorClockToolBase::onAcquire(ThreadId T, LockId M, size_t) {
  C[T].joinWith(L[M]);
}

void VectorClockToolBase::onRelease(ThreadId T, LockId M, size_t) {
  L[M].copyFrom(C[T]);
  C[T].inc(T);
  refreshClock(T);
}

void VectorClockToolBase::onFork(ThreadId T, ThreadId U, size_t) {
  // Slot reincarnation (the online engine recycles joined threads' ids):
  // begin() set every own-entry to 1 and only a join of U bumps Cu(U)
  // further, so an own-entry above 1 here means U's slot carries a dead
  // previous lifetime. No special handling is needed — Cu still holds the
  // dead thread's final clock f, the predecessor's join already moved
  // Cu(U) to f+1, and the join below layers the parent's clock on top.
  // The fork edge thus doubles as the implicit dead-U → new-U edge: every
  // stale epoch c@U (c ≤ f) left in write/read shadow state — including
  // entries inside read-shared VCs — tests happens-before the new
  // lifetime's work, and the new lifetime's own epochs start at f+1, so
  // they never collide with the dead one's. (Races *between* the dead
  // thread and its reincarnation are suppressed by construction, exactly
  // as the real fork/join ordering demands.)
  if (C[U].get(U) > 1)
    ++clockStats().Reincarnations;
  C[U].joinWith(C[T]);
  refreshClock(U);
  C[T].inc(T);
  refreshClock(T);
}

void VectorClockToolBase::onJoin(ThreadId T, ThreadId U, size_t) {
  C[T].joinWith(C[U]);
  refreshClock(T);
  C[U].inc(U);
  refreshClock(U);
}

void VectorClockToolBase::onVolatileRead(ThreadId T, VolatileId V, size_t) {
  C[T].joinWith(LVolatile[V]);
}

void VectorClockToolBase::onVolatileWrite(ThreadId T, VolatileId V, size_t) {
  LVolatile[V].joinWith(C[T]);
  C[T].inc(T);
  refreshClock(T);
}

void VectorClockToolBase::onBarrier(const std::vector<ThreadId> &Threads,
                                    size_t) {
  VectorClock Joined;
  for (ThreadId U : Threads)
    Joined.joinWith(C[U]);
  for (ThreadId U : Threads) {
    C[U].copyFrom(Joined);
    C[U].inc(U);
    refreshClock(U);
  }
}

void VectorClockToolBase::writeClock(ByteWriter &Writer,
                                     const VectorClock &Clock) {
  // Canonical form: trailing zeros are trimmed. Restore re-derives sizes
  // from the highest nonzero entry, so without trimming an uninterrupted
  // run and a resumed one could serialize semantically-equal clocks with
  // different stored sizes — breaking the bit-identical-image contract
  // the checkpoint tests verify against.
  uint32_t Size = Clock.size();
  while (Size != 0 && Clock.get(Size - 1) == 0)
    --Size;
  Writer.u32(Size);
  for (ThreadId T = 0; T != Size; ++T)
    Writer.u32(Clock.get(T));
}

bool VectorClockToolBase::readClock(ByteReader &Reader, VectorClock &Clock) {
  uint32_t Size = Reader.u32();
  // Bound the size by the bytes actually available so a corrupt length
  // cannot drive a multi-gigabyte allocation before reads start failing.
  if (Reader.failed() || static_cast<uint64_t>(Size) * 4 > Reader.remaining())
    return false;
  Clock = VectorClock();
  for (uint32_t T = 0; T != Size; ++T) {
    ClockValue V = Reader.u32();
    if (V != 0)
      Clock.set(T, V);
  }
  return !Reader.failed();
}

void VectorClockToolBase::snapshotClocks(ByteWriter &Writer) const {
  Writer.u32(C.size());
  for (const VectorClock &Clock : C)
    writeClock(Writer, Clock);
  Writer.u32(L.size());
  for (const VectorClock &Clock : L)
    writeClock(Writer, Clock);
  Writer.u32(LVolatile.size());
  for (const VectorClock &Clock : LVolatile)
    writeClock(Writer, Clock);
}

bool VectorClockToolBase::restoreClocks(ByteReader &Reader) {
  if (Reader.u32() != C.size())
    return false;
  for (ThreadId T = 0; T != C.size(); ++T) {
    if (!readClock(Reader, C[T]))
      return false;
    refreshClock(T);
  }
  if (Reader.u32() != L.size())
    return false;
  for (VectorClock &Clock : L)
    if (!readClock(Reader, Clock))
      return false;
  if (Reader.u32() != LVolatile.size())
    return false;
  for (VectorClock &Clock : LVolatile)
    if (!readClock(Reader, Clock))
      return false;
  return !Reader.failed();
}

size_t VectorClockToolBase::shadowBytes() const {
  size_t Bytes = 0;
  for (const VectorClock &Clock : C)
    Bytes += sizeof(VectorClock) + Clock.memoryBytes();
  for (const VectorClock &Clock : L)
    Bytes += sizeof(VectorClock) + Clock.memoryBytes();
  for (const VectorClock &Clock : LVolatile)
    Bytes += sizeof(VectorClock) + Clock.memoryBytes();
  Bytes += ClockCache.capacity() * sizeof(ClockValue);
  return Bytes;
}
