#include "trace/Trace.h"

#include <algorithm>

using namespace ft;

namespace {

void cover(unsigned &Count, uint32_t Id) {
  if (Id + 1 > Count)
    Count = Id + 1;
}

} // namespace

inline void Trace::EntityCounts::note(const Operation &Op) {
  assert(Op.Kind != OpKind::Barrier &&
         "use appendBarrier for barrier operations");
  cover(Threads, Op.Thread);
  switch (Op.Kind) {
  case OpKind::Read:
  case OpKind::Write:
    cover(Vars, Op.Target);
    break;
  case OpKind::Acquire:
  case OpKind::Release:
    cover(Locks, Op.Target);
    break;
  case OpKind::Fork:
  case OpKind::Join:
    cover(Threads, Op.Target);
    break;
  case OpKind::VolatileRead:
  case OpKind::VolatileWrite:
    cover(Volatiles, Op.Target);
    break;
  case OpKind::Barrier:
  case OpKind::AtomicBegin:
  case OpKind::AtomicEnd:
    break;
  }
}

void Trace::append(const Operation &Op) {
  Counts.note(Op);
  Ops.push_back(Op);
}

void Trace::appendRun(const Operation *Run, size_t N) {
  // Grow geometrically: an exact reserve would reallocate on every run,
  // making a capture of many short runs quadratic.
  if (Ops.capacity() - Ops.size() < N)
    Ops.reserve(std::max(Ops.size() + N, 2 * Ops.capacity()));
  EntityCounts C = Counts;
  for (size_t I = 0; I != N; ++I)
    C.note(Run[I]);
  Counts = C;
  Ops.insert(Ops.end(), Run, Run + N);
}

Operation Trace::appendBarrier(const std::vector<ThreadId> &Threads) {
  assert(!Threads.empty() && "barrier set must be nonempty");
  std::vector<ThreadId> Sorted = Threads;
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  for (ThreadId T : Sorted)
    cover(Counts.Threads, T);
  uint32_t SetIndex = BarrierSets.size();
  // Reuse an identical existing set if present (barriers repeat many times).
  for (uint32_t I = 0; I != BarrierSets.size(); ++I) {
    if (BarrierSets[I] == Sorted) {
      SetIndex = I;
      break;
    }
  }
  if (SetIndex == BarrierSets.size())
    BarrierSets.push_back(Sorted);
  Operation Op(OpKind::Barrier, Sorted.front(), SetIndex);
  Ops.push_back(Op);
  return Op;
}

void Trace::clear() {
  Ops.clear();
  BarrierSets.clear();
  Counts = EntityCounts();
}
