#include "trace/Trace.h"

#include <algorithm>

using namespace ft;

void Trace::noteEntities(const Operation &Op) {
  assert(Op.Kind != OpKind::Barrier &&
         "use appendBarrier for barrier operations");
  noteThread(Op.Thread);
  switch (Op.Kind) {
  case OpKind::Read:
  case OpKind::Write:
    if (Op.Target + 1 > NumVars)
      NumVars = Op.Target + 1;
    break;
  case OpKind::Acquire:
  case OpKind::Release:
    if (Op.Target + 1 > NumLocks)
      NumLocks = Op.Target + 1;
    break;
  case OpKind::Fork:
  case OpKind::Join:
    noteThread(Op.Target);
    break;
  case OpKind::VolatileRead:
  case OpKind::VolatileWrite:
    if (Op.Target + 1 > NumVolatiles)
      NumVolatiles = Op.Target + 1;
    break;
  case OpKind::Barrier:
  case OpKind::AtomicBegin:
  case OpKind::AtomicEnd:
    break;
  }
}

void Trace::append(const Operation &Op) {
  noteEntities(Op);
  Ops.push_back(Op);
}

void Trace::appendRun(const Operation *Run, size_t N) {
  // Grow geometrically: an exact reserve would reallocate on every run,
  // making a capture of many short runs quadratic.
  if (Ops.capacity() - Ops.size() < N)
    Ops.reserve(std::max(Ops.size() + N, 2 * Ops.capacity()));
  for (size_t I = 0; I != N; ++I)
    noteEntities(Run[I]);
  Ops.insert(Ops.end(), Run, Run + N);
}

Operation Trace::appendBarrier(const std::vector<ThreadId> &Threads) {
  assert(!Threads.empty() && "barrier set must be nonempty");
  std::vector<ThreadId> Sorted = Threads;
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  for (ThreadId T : Sorted)
    noteThread(T);
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
  NumThreads = 1;
  NumVars = 0;
  NumLocks = 0;
  NumVolatiles = 0;
}
