//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The devirtualization registry: one entry per concrete tool type, giving
/// both hot loops a non-virtual path to that tool's access handlers.
///
/// Dispatching every access through a virtual onRead/onWrite costs an
/// indirect call per event and hides the tool's same-epoch fast path from
/// the inliner. A tool's own translation unit therefore registers, with
/// one FT_REGISTER_FAST_PATH line, two loops instantiated against its
/// concrete type. The qualified calls pin the overrides; they inline only
/// when the handler is small, so a registered tool defines its handlers
/// `inline` with just the O(1) part (FastTrack's [FT READ/WRITE SAME
/// EPOCH]) and moves the rest into `[[gnu::noinline]]` members. CI checks
/// the loops of every E2 column, EMPTY's included, with
/// scripts/check_fast_path_inlining.py:
///
///  - Replay: replayWithTool<ToolT>, which replay() runs offline;
///  - DispatchRun: the online access-run loop. It feeds both driver roles
///    that call the tool: a Full driver's admitAccessRun (one thread's
///    stretch as the merge loop pulled it off its ring, at Shards=1) and a
///    DispatchOnly driver's dispatchRun (a shard worker's run of the
///    broadcast log, where the loop skips the accesses other shards own).
///
/// Lookup is by exact dynamic type. A subclass that overrides the handlers
/// again fails the typeid match and safely falls back to virtual dispatch;
/// results are identical either way.
///
/// Layering note: this framework header includes runtime/BroadcastLog.h
/// for the EventWord wire format. BroadcastLog.h is header-only and
/// depends only on trace/, so no link-time framework → runtime edge is
/// created; OnlineDriver.h itself only forward-declares EventWord.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_FASTPATH_H
#define FASTTRACK_FRAMEWORK_FASTPATH_H

#include "framework/Replay.h"
#include "framework/ShardableTool.h"
#include "runtime/BroadcastLog.h"

#include <type_traits>
#include <typeinfo>
#include <vector>

namespace ft {

/// One access run (Read/Write words only) handed to a DispatchRun loop,
/// and how far the loop got. Word I takes raw index FirstRaw + I. With
/// Thread == NoThread the run is a stretch of the shard log: each word's
/// tag is its thread, and the loop dispatches only the words Owners maps
/// to Shard. Otherwise it is one thread's stretch of ring words as the
/// merge loop pulled it (tags are tickets, ignored here): word I runs as
/// Thread, and the loop stops before the first word whose target is not
/// below MaxVars.
struct AccessRun {
  static constexpr ThreadId NoThread = ~0u;
  const runtime::EventWord *Events;
  size_t N;
  ThreadId Thread;
  uint64_t FirstRaw;
  uint32_t MaxVars;
  /// Out: events handled (skipped ones included); if a handler threw,
  /// the index of the thrower.
  size_t Done = 0;
  /// Out: handled accesses whose handler returned the pass flag.
  uint64_t Passed = 0;
  // Pre-admitted runs only, last so the one-thread loop's layout is
  // untouched by them.
  ShardMap Owners;
  unsigned Shard = 0;
  /// Out: events skipped because another shard owns them.
  uint64_t Skipped = 0;
};

/// The registered loops of one concrete tool type.
struct FastPathEntry {
  const std::type_info *Type;
  /// replayWithTool<ToolT> behind a type-erased signature.
  ReplayResult (*Replay)(const Trace &T, Tool &Checker,
                         const ReplayOptions &Options);
  /// fastDispatchRun<ToolT>: dispatches \p Run and fills in its Done and
  /// Passed, also when a handler throws (the exception propagates).
  void (*DispatchRun)(Tool &Checker, AccessRun &Run);
};

/// Every registered entry, in registration order. Filled by static
/// initializers in each tool's translation unit (so a linked-in tool is
/// automatically fast-pathed and an absent one costs nothing) and only
/// read afterwards.
std::vector<FastPathEntry> &fastPaths();

/// The entry for \p Checker's exact dynamic type, or nullptr when none is
/// registered (callers then dispatch virtually).
const FastPathEntry *findFastPath(const Tool &Checker);

template <typename ToolT>
ReplayResult fastReplay(const Trace &T, Tool &Checker,
                        const ReplayOptions &Options) {
  return replayWithTool(T, static_cast<ToolT &>(Checker), Options);
}

/// One access through \p ToolT's handlers: the qualified calls pin the
/// overrides so they inline. On Tool itself the calls stay virtual. A
/// macro, not a function: an inlined helper changes the one-thread loop's
/// register allocation.
#define FT_DISPATCH_ACCESS(E, T, Idx)                                          \
  if constexpr (std::is_same_v<ToolT, Tool>)                                   \
    Passed += (E).kind() == OpKind::Read                                       \
                  ? Checker.onRead(T, (E).target(), Idx)                       \
                  : Checker.onWrite(T, (E).target(), Idx);                     \
  else                                                                         \
    Passed += (E).kind() == OpKind::Read                                       \
                  ? Checker.ToolT::onRead(T, (E).target(), Idx)                \
                  : Checker.ToolT::onWrite(T, (E).target(), Idx)

/// The access-run loop against \p ToolT. Instantiated on Tool itself:
/// OnlineDriver's fallback for unregistered types. Out of line, one
/// symbol per instantiation, like replayLoop: with handlers as small as
/// EMPTY's the loop would otherwise inline into fastDispatchRun, where
/// scripts/check_fast_path_inlining.py would not find it.
template <typename ToolT, bool OneThread>
[[gnu::noinline]] void accessRunLoop(ToolT &Checker, AccessRun &R) {
  // A copy: the handlers write memory the compiler cannot prove disjoint
  // from R, so reading R's fields would reload them every event.
  const AccessRun In = R;
  uint64_t Passed = 0;
  size_t I = 0;
  // On a throw, exact progress for the caller's rollback, free until then.
  if constexpr (OneThread) {
    try {
      for (; I != In.N; ++I) {
        const runtime::EventWord E = In.Events[I];
        if (E.target() >= In.MaxVars)
          break;
        const ThreadId T = In.Thread;
        const size_t Idx = In.FirstRaw + I;
        FT_DISPATCH_ACCESS(E, T, Idx);
      }
    } catch (...) {
      R.Done = I;
      R.Passed = Passed;
      throw;
    }
  } else {
    // Ownership of neighboring events is close to a coin toss, so a test
    // in the dispatch loop would mispredict on every other event: each
    // chunk's owned positions are gathered without a branch first.
    constexpr size_t Chunk = 64;
    uint8_t Owned[Chunk];
    uint64_t Skipped = 0; // before chunk Base
    size_t Base = 0, Q = 0;
    try {
      while (Base != In.N) {
        const size_t End = std::min(In.N, Base + Chunk);
        size_t K = 0;
        for (size_t J = Base; J != End; ++J) {
          Owned[K] = static_cast<uint8_t>(J - Base);
          K += In.Owners.indexOf(In.Events[J].target()) == In.Shard;
        }
        for (Q = 0; Q != K; ++Q) {
          I = Base + Owned[Q];
          const runtime::EventWord E = In.Events[I];
          const size_t Idx = In.FirstRaw + I;
          FT_DISPATCH_ACCESS(E, E.thread(), Idx);
        }
        Skipped += End - Base - K;
        Base = End;
      }
    } catch (...) {
      // Before the thrower: Q owned events dispatched, the rest skipped.
      R.Done = I;
      R.Passed = Passed;
      R.Skipped = Skipped + (I - Base - Q);
      throw;
    }
    I = In.N;
    R.Skipped = Skipped;
  }
  R.Done = I;
  R.Passed = Passed;
}

#undef FT_DISPATCH_ACCESS

template <typename ToolT> void fastDispatchRun(Tool &Base, AccessRun &R) {
  if (R.Thread == AccessRun::NoThread)
    accessRunLoop<ToolT, false>(static_cast<ToolT &>(Base), R);
  else
    accessRunLoop<ToolT, true>(static_cast<ToolT &>(Base), R);
}

/// Registers \p ToolT's loops at static-initialization time.
template <typename ToolT> struct FastPathRegistrar {
  FastPathRegistrar() {
    fastPaths().push_back(
        {&typeid(ToolT), &fastReplay<ToolT>, &fastDispatchRun<ToolT>});
  }
};

#define FT_FAST_PATH_CONCAT2(A, B) A##B
#define FT_FAST_PATH_CONCAT(A, B) FT_FAST_PATH_CONCAT2(A, B)

/// Place in the tool's own .cpp, where the access handlers' bodies are
/// visible to the instantiations.
#define FT_REGISTER_FAST_PATH(ToolT)                                           \
  static ::ft::FastPathRegistrar<ToolT> FT_FAST_PATH_CONCAT(                   \
      FtFastPathRegistrar_, __LINE__)

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_FASTPATH_H
