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

  /// Appends \p N operations in one call, raising the entity counts in a
  /// register copy that is stored once, and growing storage at most once
  /// — geometrically, so a capture of many short runs stays linear
  /// overall. The online sequencer captures each drained batch through
  /// this, so the steady state has no per-event capture branch, and the
  /// trace parser appends its runs of records.
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
  unsigned numThreads() const { return Counts.Threads; }
  unsigned numVars() const { return Counts.Vars; }
  unsigned numLocks() const { return Counts.Locks; }
  unsigned numVolatiles() const { return Counts.Volatiles; }
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
  /// The entity counts, a value so appendRun can raise a copy held in
  /// registers: raising the members op by op makes each op wait on the
  /// previous op's stores.
  struct EntityCounts {
    unsigned Threads = 1;
    unsigned Vars = 0;
    unsigned Locks = 0;
    unsigned Volatiles = 0;

    /// Raises the counts to cover \p Op (not a barrier).
    inline void note(const Operation &Op);
  };

  std::vector<Operation> Ops;
  std::vector<std::vector<ThreadId>> BarrierSets;
  EntityCounts Counts;
};

} // namespace ft

#endif // FASTTRACK_TRACE_TRACE_H
