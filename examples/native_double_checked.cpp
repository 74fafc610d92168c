//===----------------------------------------------------------------------===//
//
// Native port of examples/programs/double_checked.mc: broken double-checked
// locking on real std::threads, race-checked online. The fast-path read of
// 'initialized' races with the initializing write on every schedule (one of
// the real warning classes FastTrack found in Eclipse, §5.3), so the online
// run must report races — and the fix, promoting the flag to a volatile
// (Section 4's vrd/vwr extension), must silence them. Both runs are
// re-checked offline from the flight-recorder capture.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "framework/Replay.h"
#include "runtime/Instrument.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace ft;
namespace rt = ft::runtime;

namespace {

/// The .mc program, verbatim: unprotected fast-path read, then the
/// lock-protected check and initialization, then an unprotected read of
/// the payload.
struct BrokenLazyInit {
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Shared<int> Initialized;

  int getInstance() {
    if (FT_READ(Initialized) == 0) { // unprotected fast-path read: RACE
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (FT_READ(Initialized) == 0) {
        FT_WRITE(Singleton, 42);
        FT_WRITE(Initialized, 1);
      }
    }
    return FT_READ(Singleton); // unprotected read of the payload: RACE
  }
};

/// The fix: 'initialized' becomes a volatile, so the fast-path read
/// acquires the initializing write's release edge and the payload read is
/// ordered after the payload write.
struct FixedLazyInit {
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Volatile<int> Initialized;

  int getInstance() {
    if (Initialized.read() == 0) {
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (Initialized.read() == 0) {
        FT_WRITE(Singleton, 42);
        Initialized.write(1);
      }
    }
    return FT_READ(Singleton);
  }
};

bool sameWarnings(const std::vector<RaceWarning> &A,
                  const std::vector<RaceWarning> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Var != B[I].Var || A[I].OpIndex != B[I].OpIndex ||
        A[I].CurrentThread != B[I].CurrentThread ||
        A[I].CurrentKind != B[I].CurrentKind ||
        A[I].PriorThread != B[I].PriorThread ||
        A[I].PriorKind != B[I].PriorKind || A[I].Detail != B[I].Detail)
      return false;
  return true;
}

/// Runs two user threads through \p Lazy.getInstance() under an online
/// FastTrack session; returns the report and checks online == offline.
template <typename LazyInit>
rt::OnlineReport check(const char *Title, const char *CapturePath,
                       bool &EquivalenceOk,
                       const rt::OnlineOptions &BaseOptions) {
  std::printf("--- %s ---\n", Title);
  FastTrack Detector;
  rt::OnlineOptions Options = BaseOptions;
  Options.CapturePath = CapturePath;
  Options.OnWarning = [](const RaceWarning &W) {
    std::printf("  ONLINE WARNING: %s\n", toString(W).c_str());
  };

  rt::Engine Engine(Detector, Options);
  LazyInit Lazy;
  rt::Thread A([&Lazy] { (void)Lazy.getInstance(); });
  rt::Thread B([&Lazy] { (void)Lazy.getInstance(); });
  A.join();
  B.join();
  int Value = Lazy.getInstance(); // main thread, after both joins
  rt::OnlineReport Report = Engine.finish();

  for (const Diagnostic &D : Report.Diags)
    std::printf("  %s\n", toString(D).c_str());

  FastTrack Offline;
  replay(Report.Captured, Offline);
  EquivalenceOk = sameWarnings(Detector.warnings(), Offline.warnings()) &&
                  !Report.Halted && Report.Diags.empty();

  std::printf("getInstance() = %d; %llu events, %zu warning(s) online, "
              "%s to the oracle, offline replay %s\n\n",
              Value, (unsigned long long)Report.EventsCaptured,
              Report.NumWarnings, toString(Report.relation()),
              EquivalenceOk ? "identical" : "MISMATCH");
  return Report;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("native double-checked locking — online race detection\n"
              "=====================================================\n\n");

  rt::OnlineOptions BaseOptions;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--degrade") == 0 && I + 1 < argc) {
      BaseOptions.Degrade.Enabled = std::strcmp(argv[++I], "off") != 0;
    } else if (std::strcmp(argv[I], "--capture-segment-bytes") == 0 &&
               I + 1 < argc) {
      // Nonzero switches both captures to crash-safe sealed segments.
      BaseOptions.CaptureSegmentBytes =
          static_cast<size_t>(std::strtoull(argv[++I], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--degrade on|off] "
                   "[--capture-segment-bytes N]\n",
                   argv[0]);
      return 2;
    }
  }

  bool BrokenEq = false, FixedEq = false;
  rt::OnlineReport Broken = check<BrokenLazyInit>(
      "broken: plain flag (RACY by design)", "native_double_checked.trc",
      BrokenEq, BaseOptions);
  rt::OnlineReport Fixed = check<FixedLazyInit>(
      "fixed: volatile flag (race-free)", "native_double_checked_fixed.trc",
      FixedEq, BaseOptions);

  bool Ok = BrokenEq && FixedEq && Broken.NumWarnings > 0 &&
            Fixed.NumWarnings == 0;
  std::printf("verdict: %s (broken variant %zu warning(s), fixed variant "
              "%zu)\n",
              Ok ? "PASS" : "FAIL", Broken.NumWarnings, Fixed.NumWarnings);
  return Ok ? 0 : 1;
}
