//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Trace type: a totally-ordered sequence of operations observed from
/// one execution of a multithreaded program (Section 2.1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TRACE_TRACE_H
#define FASTTRACK_TRACE_TRACE_H

#include "trace/Operation.h"

#include <cassert>
#include <vector>

namespace ft {

/// A trace α: the observed interleaving of a multithreaded execution.
///
/// Besides the operation sequence, a trace owns the side table of barrier
/// thread sets (Barrier operations store an index into it) and tracks the
/// number of distinct threads, variables, locks, and volatiles so analyses
/// can pre-size their shadow state.
class Trace {
public:
  /// Appends \p Op, updating entity counts.
  void append(const Operation &Op);

  /// Appends \p N operations in one call, updating entity counts once per
  /// op but growing storage at most once — geometrically, so a capture of
  /// many short runs stays linear overall. The online sequencer captures each
  /// drained batch through this, so the steady state has no per-event
  /// capture branch, and the trace parser appends its runs of records.
  /// Barriers are not allowed (use appendBarrier).
  void appendRun(const Operation *Ops, size_t N);

  /// Appends a barrier release of the thread set \p Threads and returns the
  /// stored operation. \p Threads must be nonempty.
  Operation appendBarrier(const std::vector<ThreadId> &Threads);

  /// Returns the barrier thread set with index \p SetIndex.
  const std::vector<ThreadId> &barrierSet(uint32_t SetIndex) const {
    assert(SetIndex < BarrierSets.size() && "barrier set index out of range");
    return BarrierSets[SetIndex];
  }

  const std::vector<Operation> &operations() const { return Ops; }
  size_t size() const { return Ops.size(); }
  bool empty() const { return Ops.empty(); }
  const Operation &operator[](size_t I) const {
    assert(I < Ops.size() && "operation index out of range");
    return Ops[I];
  }

  /// Upper bounds on entity ids seen so far (max id + 1). A trace always
  /// has at least one thread (the main thread, id 0).
  unsigned numThreads() const { return NumThreads; }
  unsigned numVars() const { return NumVars; }
  unsigned numLocks() const { return NumLocks; }
  unsigned numVolatiles() const { return NumVolatiles; }
  unsigned numBarrierSets() const { return BarrierSets.size(); }

  /// Reserves capacity for \p N operations.
  void reserve(size_t N) { Ops.reserve(N); }
  size_t capacity() const { return Ops.capacity(); }

  /// Removes all operations and side tables.
  void clear();

  using const_iterator = std::vector<Operation>::const_iterator;
  const_iterator begin() const { return Ops.begin(); }
  const_iterator end() const { return Ops.end(); }

private:
  /// Raises the entity counts to cover \p Op (not a barrier).
  void noteEntities(const Operation &Op);

  void noteThread(ThreadId T) {
    if (T + 1 > NumThreads)
      NumThreads = T + 1;
  }

  std::vector<Operation> Ops;
  std::vector<std::vector<ThreadId>> BarrierSets;
  unsigned NumThreads = 1;
  unsigned NumVars = 0;
  unsigned NumLocks = 0;
  unsigned NumVolatiles = 0;
};

} // namespace ft

#endif // FASTTRACK_TRACE_TRACE_H
