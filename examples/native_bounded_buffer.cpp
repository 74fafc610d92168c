//===----------------------------------------------------------------------===//
//
// Native port of examples/programs/bounded_buffer.mc: a one-slot bounded
// buffer built from a mutex and a condition variable, running on real
// std::threads and race-checked *online* — no trace file, no interpreter.
// Race-free on every schedule; the online run must report zero warnings,
// and the flight-recorder capture must agree with an offline replay.
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

struct BoundedBuffer {
  rt::Mutex M;
  rt::CondVar CV;
  rt::Shared<int> Slot;
  rt::Shared<int> Full;
  rt::Shared<int> Consumed;
  /// Producer-confined statistics: only the producer writes it and main
  /// reads it after join, so it is race-free by construction and uses
  /// the uninstrumented Unchecked<T> — zero events, zero overhead (see
  /// docs/TOOL_AUTHORING.md, "Eliding instrumentation by hand").
  rt::Unchecked<int> Produced;

  void producer(int Items) {
    for (int I = 1; I <= Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 0; });
      FT_WRITE(Slot, I * 10);
      FT_WRITE(Full, 1);
      Produced.write(Produced.read() + 1);
      CV.notifyAll();
    }
  }

  void consumer(int Items) {
    for (int I = 0; I < Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 1; });
      FT_WRITE(Consumed, FT_READ(Consumed) + FT_READ(Slot));
      FT_WRITE(Full, 0);
      CV.notifyAll();
    }
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

} // namespace

int main(int argc, char **argv) {
  std::printf("native bounded buffer — online race detection\n"
              "=============================================\n\n");

  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.CapturePath = "native_bounded_buffer.trc";
  Options.OnWarning = [](const RaceWarning &W) {
    std::printf("  ONLINE WARNING: %s\n", toString(W).c_str());
  };
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--degrade") == 0 && I + 1 < argc) {
      Options.Degrade.Enabled = std::strcmp(argv[++I], "off") != 0;
    } else if (std::strcmp(argv[I], "--capture-segment-bytes") == 0 &&
               I + 1 < argc) {
      // Nonzero switches the flight recorder to crash-safe sealed
      // segments (native_bounded_buffer.segNNNNNN.trc).
      Options.CaptureSegmentBytes =
          static_cast<size_t>(std::strtoull(argv[++I], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--degrade on|off] "
                   "[--capture-segment-bytes N]\n",
                   argv[0]);
      return 2;
    }
  }

  rt::Engine Engine(Detector, Options);
  BoundedBuffer Buffer;
  // The consumer-side total is lock-consistent (every access holds M) and
  // main reads it only after the joins, so its rd/wr events prove nothing
  // the lock discipline doesn't already guarantee: downgrade it. Unlike
  // Unchecked<T>, downgraded accesses stay audited (EventsElided below).
  Buffer.Consumed.downgrade();
  rt::Thread Producer([&Buffer] { Buffer.producer(5); });
  rt::Thread Consumer([&Buffer] { Buffer.consumer(5); });
  Producer.join();
  Consumer.join();
  int Consumed = Buffer.Consumed.read();
  rt::OnlineReport Report = Engine.finish();

  for (const Diagnostic &D : Report.Diags)
    std::printf("  %s\n", toString(D).c_str());
  std::printf("consumed = %d (expect 150), produced = %d items\n", Consumed,
              Buffer.Produced.read());
  std::printf("%llu events captured, %llu dispatched (%llu elided by "
              "annotation), %zu warning(s) online, %s to the oracle, "
              "%.3fs\n",
              (unsigned long long)Report.EventsCaptured,
              (unsigned long long)Report.EventsDispatched,
              (unsigned long long)Report.EventsElided, Report.NumWarnings,
              toString(Report.relation()), Report.Seconds);
  if (Options.CaptureSegmentBytes != 0)
    std::printf("flight recorder: %u sealed segment(s), "
                "native_bounded_buffer.segNNNNNN.trc (%zu ops)\n\n",
                Report.CaptureSegments, Report.Captured.size());
  else
    std::printf("flight recorder: native_bounded_buffer.trc (%zu ops)\n\n",
                Report.Captured.size());

  // Re-check the very same execution offline, as trace_file_tool would.
  FastTrack Offline;
  replay(Report.Captured, Offline);
  bool Match = sameWarnings(Detector.warnings(), Offline.warnings());
  std::printf("offline replay of the capture: %zu warning(s) — %s\n",
              Offline.warnings().size(),
              Match ? "identical to the online run" : "MISMATCH");

  bool Ok = Match && !Report.Halted && Report.NumWarnings == 0 &&
            Consumed == 150 && Report.Diags.empty();
  std::printf("\nverdict: %s (race-free program, %s)\n",
              Ok ? "PASS" : "FAIL",
              Report.NumWarnings == 0 ? "no races reported" : "races reported");
  return Ok ? 0 : 1;
}
