//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground-truth race enumeration over the exact happens-before relation.
///
/// A trace has a race condition iff it contains two concurrent conflicting
/// accesses (Section 2.1). The oracle enumerates racy pairs by brute
/// force per variable; it exists to validate the fast detectors, not to be
/// fast itself.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_HB_RACEORACLE_H
#define FASTTRACK_HB_RACEORACLE_H

#include "hb/HappensBefore.h"

#include <vector>

namespace ft {

/// One racy pair of accesses.
struct RacePair {
  VarId Var;
  size_t FirstIndex;  ///< Earlier access (trace order).
  size_t SecondIndex; ///< Later access.
  OpKind FirstKind;
  OpKind SecondKind;
  ThreadId FirstThread;
  ThreadId SecondThread;
};

/// Options for race enumeration.
struct RaceOracleOptions {
  /// Stop after this many racy pairs (0 = unlimited).
  size_t MaxPairs = 0;
  /// Report only the first racy pair per variable, mirroring the paper's
  /// tools, which report at most one race per field.
  bool FirstPerVar = false;
};

/// Enumerates racy pairs of \p T in trace order of the second access.
std::vector<RacePair>
findRaces(const Trace &T, const RaceOracleOptions &Options = RaceOracleOptions());

/// Returns the set of variables with at least one race in \p T, sorted.
/// Quadratic per variable: fine for tests, minutes on a Table 1 suite.
std::vector<VarId> racyVars(const Trace &T);

/// racyVars() in one pass over \p T: the same ordering (HappensBefore),
/// a linear pair search. Each access is checked against its variable's
/// last write and — for a write — each thread's last read since that
/// write. Until a variable's first race, every earlier conflicting
/// access happens before one of those (by program order, or by an
/// earlier race-free check), so a variable is flagged iff racyVars()
/// lists it. Use it where the trace is too long for racyVars().
std::vector<VarId> racyVarsLinear(const Trace &T);

/// Returns true iff \p T is race-free.
bool isRaceFree(const Trace &T);

} // namespace ft

#endif // FASTTRACK_HB_RACEORACLE_H
