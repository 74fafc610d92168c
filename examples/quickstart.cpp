//===----------------------------------------------------------------------===//
//
// Quickstart: build a trace, run FastTrack, read the warnings.
//
// This walks the exact scenarios of the paper's Sections 2.2 and 3: a
// race-free lock hand-off, the Figure 4 adaptive read representation, and
// a genuine write-write race.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "framework/Replay.h"
#include "trace/TraceBuilder.h"

#include <cstdio>

using namespace ft;

static void check(const char *Title, const Trace &T) {
  FastTrack Detector;
  replay(T, Detector);

  std::printf("--- %s ---\n", Title);
  std::printf("%zu events, %zu warning(s)\n", T.size(),
              Detector.warnings().size());
  for (const RaceWarning &W : Detector.warnings())
    std::printf("  %s\n", toString(W).c_str());
  const FastTrackRuleStats &Rules = Detector.ruleStats();
  std::printf("  rule firings: rd same-epoch %llu, exclusive %llu, shared "
              "%llu (same-epoch %llu), share %llu | wr same-epoch %llu, "
              "exclusive %llu, shared %llu\n\n",
              (unsigned long long)Rules.ReadSameEpoch,
              (unsigned long long)Rules.ReadExclusive,
              (unsigned long long)Rules.ReadShared,
              (unsigned long long)Rules.ReadSharedSameEpoch,
              (unsigned long long)Rules.ReadShare,
              (unsigned long long)Rules.WriteSameEpoch,
              (unsigned long long)Rules.WriteExclusive,
              (unsigned long long)Rules.WriteShared);
}

int main() {
  std::printf("FastTrack quickstart\n====================\n\n");

  // 1. The Section 2.2 example: two writes to x ordered by a lock.
  //    wr(0,x) rel(0,m) acq(1,m) wr(1,x) — race-free.
  check("lock hand-off (Section 2.2) — race-free",
        TraceBuilder()
            .fork(0, 1)
            .acq(0, 0)
            .wr(0, 0)
            .rel(0, 0)
            .acq(1, 0)
            .wr(1, 0)
            .rel(1, 0)
            .take());

  // 2. The same writes without the lock: a write-write race.
  check("unsynchronized writes — write-write race",
        TraceBuilder().fork(0, 1).wr(0, 0).wr(1, 0).take());

  // 3. Figure 4: the read state inflates to a vector clock when two
  //    threads read concurrently, then deflates back to an epoch at the
  //    next ordered write. No race; note the one 'share' and one
  //    'write shared' firing.
  check("Figure 4 adaptive representation — race-free",
        TraceBuilder()
            .wr(0, 0)
            .fork(0, 1)
            .rd(1, 0)
            .rd(0, 0)
            .join(0, 1)
            .wr(0, 0)
            .rd(0, 0)
            .take());

  std::printf("Done. See examples/eraser_vs_fasttrack for the precision "
              "comparison and examples/miniconc_racecheck for checking "
              "real programs.\n");
  return 0;
}
