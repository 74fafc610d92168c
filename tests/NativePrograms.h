//===--- NativePrograms.h - generated native programs for online tests ----===//
//
// Seeded random programs run on real ft::runtime threads, shared by the
// online equivalence sweeps (RuntimeTest.cpp) and the tiny-shard-ring
// test (OnlineShardingTest.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TESTS_NATIVEPROGRAMS_H
#define FASTTRACK_TESTS_NATIVEPROGRAMS_H

#include "runtime/Instrument.h"
#include "support/Rng.h"

#include <mutex>
#include <vector>

namespace ft {

/// One step of a generated native program.
struct NativeStep {
  enum Kind : uint8_t { Read, Write, Locked, VolRead, VolWrite } K;
  unsigned Target;
  unsigned Lock;
};

/// A generated program: main touches every variable, forks the workers,
/// joins them, and touches every variable again. Each worker owns a block
/// of private variables and dips into a shared pool now and then.
/// Sync-free programs give the workers accesses only; mixed ones add
/// lock-protected updates (lock chosen per variable) and volatile
/// traffic.
struct NativeProgram {
  static constexpr unsigned MaxWorkers = 4, PrivatePerWorker = 3,
                            NumShared = 6, NumLocks = 2, NumVolatiles = 2;
  static constexpr unsigned NumVars =
      MaxWorkers * PrivatePerWorker + NumShared;
  std::vector<std::vector<NativeStep>> Workers;

  NativeProgram(uint64_t Seed, bool SyncFree) {
    Xoshiro256StarStar Rng(Seed);
    Workers.resize(2 + Rng.nextBelow(MaxWorkers - 1));
    for (unsigned W = 0; W != Workers.size(); ++W) {
      const size_t N = 50 + Rng.nextBelow(200);
      for (size_t I = 0; I != N; ++I) {
        NativeStep S{NativeStep::Read, 0, 0};
        S.Target = Rng.nextBelow(100) < 4
                       ? MaxWorkers * PrivatePerWorker +
                             static_cast<unsigned>(Rng.nextBelow(NumShared))
                       : W * PrivatePerWorker +
                             static_cast<unsigned>(
                                 Rng.nextBelow(PrivatePerWorker));
        S.Lock = S.Target % NumLocks;
        const uint64_t Roll = Rng.nextBelow(100);
        if (Roll < 40)
          S.K = NativeStep::Write;
        else if (!SyncFree && Roll < 70)
          S.K = NativeStep::Locked;
        else if (!SyncFree && Roll < 80)
          S.K = Roll % 2 ? NativeStep::VolRead : NativeStep::VolWrite;
        Workers[W].push_back(S);
      }
    }
  }

  /// The racy variables of a sync-free program, whatever the schedule:
  /// its workers share no edge, so a variable races iff one worker
  /// writes it and another accesses it.
  std::vector<VarId> syncFreeRaces() const {
    std::vector<VarId> Racy;
    for (unsigned X = 0; X != NumVars; ++X) {
      int Writers = 0, Accessors = 0;
      for (const std::vector<NativeStep> &Steps : Workers) {
        bool Writes = false, Touches = false;
        for (const NativeStep &S : Steps)
          if (S.Target == X) {
            Touches = true;
            Writes |= S.K == NativeStep::Write;
          }
        Writers += Writes;
        Accessors += Touches;
      }
      if (Writers >= 1 && Accessors >= 2)
        Racy.push_back(X);
    }
    return Racy;
  }

  void run() const {
    std::vector<runtime::Shared<int>> Vars(NumVars);
    std::vector<runtime::Mutex> Locks(NumLocks);
    std::vector<runtime::Volatile<int>> Volatiles(NumVolatiles);
    for (runtime::Shared<int> &V : Vars) // intern ids 0..NumVars-1 in order
      FT_WRITE(V, 0);
    std::vector<runtime::Thread> Threads;
    for (const std::vector<NativeStep> &Steps : Workers)
      Threads.emplace_back([&, &Steps = Steps] {
        for (const NativeStep &S : Steps) {
          runtime::Shared<int> &V = Vars[S.Target];
          switch (S.K) {
          case NativeStep::Read:
            (void)FT_READ(V);
            break;
          case NativeStep::Write:
            FT_WRITE(V, 1);
            break;
          case NativeStep::Locked: {
            std::lock_guard<runtime::Mutex> Guard(Locks[S.Lock]);
            FT_WRITE(V, FT_READ(V) + 1);
            break;
          }
          case NativeStep::VolRead:
            (void)Volatiles[S.Lock].read();
            break;
          case NativeStep::VolWrite:
            Volatiles[S.Lock].write(1);
            break;
          }
        }
      });
    for (runtime::Thread &T : Threads)
      T.join();
    for (runtime::Shared<int> &V : Vars)
      (void)FT_READ(V);
  }
};

} // namespace ft

#endif // FASTTRACK_TESTS_NATIVEPROGRAMS_H
