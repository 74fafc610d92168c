//===--- GovernanceTrace.h - seeded workload for shadow governance -------===//
//
// A seeded trace shaped for memory governance, shared by the property
// suite and the fault suite's governed-budget cases: a streaming-write
// sweep over dozens of page regions (the cold write-only state that
// compresses), a few read-shared variables, unsynchronized writes that
// race against the sweep, and enough trailing churn to drive the
// access-keyed maintenance clock. Random traces won't do here — their
// variable spaces are tiny and every page stays read-warm. The space is
// pinned above ShadowEagerVarLimit so the table is paged, and governable.
//
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TESTS_GOVERNANCETRACE_H
#define FASTTRACK_TESTS_GOVERNANCETRACE_H

#include "shadow/ShadowTable.h"
#include "trace/TraceBuilder.h"

#include <random>
#include <vector>

namespace ft {

inline Trace governanceTrace(uint64_t Seed) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 1);
  TraceBuilder B;
  B.fork(0, 1).fork(0, 2);
  const unsigned Sweep = 60 + Seed % 60;
  std::vector<VarId> Written;
  for (unsigned I = 0; I != Sweep; ++I) {
    const VarId X = static_cast<VarId>(
        (1 + Rng() % 138) * ShadowPageVars + Rng() % ShadowPageVars);
    B.wr(1, X);
    Written.push_back(X);
  }
  for (unsigned I = 0; I != 4; ++I) {
    const VarId X = static_cast<VarId>(Rng() % (8 * ShadowPageVars));
    B.rd(1, X).rd(2, X);
  }
  // Thread 2 never synchronizes with thread 1: these writes race with
  // the sweep (and sometimes with each other's pages).
  for (unsigned I = 0; I != 6; ++I)
    B.wr(2, Written[Rng() % Written.size()]);
  const int Churn = 200 + static_cast<int>(Seed % 200);
  for (int I = 0; I != Churn; ++I)
    B.wr(1, 3).rd(1, 3);
  B.wr(1, 140 * ShadowPageVars - 1); // pin NumVars = 71680 → paged table
  B.join(0, 1).join(0, 2);
  return B.take();
}

} // namespace ft

#endif // FASTTRACK_TESTS_GOVERNANCETRACE_H
