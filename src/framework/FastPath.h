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
/// concrete type (the qualified calls pin the overrides, so FastTrack's
/// [FT READ/WRITE SAME EPOCH] paths inline straight into the loop):
///
///  - Replay: replayWithTool<ToolT>, which replay() runs offline;
///  - DispatchRun: the access-run loop OnlineDriver::dispatchRun feeds the
///    pre-admitted runs of the sharded online engine.
///
/// Lookup is by exact dynamic type. A subclass that overrides the handlers
/// again fails the typeid match and safely falls back to virtual dispatch;
/// results are identical either way.
///
/// Layering note: this framework header includes runtime/EventRing.h for
/// the OnlineEvent wire format. EventRing.h is header-only and depends
/// only on trace/, so no link-time framework → runtime edge is created;
/// OnlineDriver.h itself only forward-declares OnlineEvent.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_FASTPATH_H
#define FASTTRACK_FRAMEWORK_FASTPATH_H

#include "framework/Replay.h"
#include "runtime/EventRing.h"

#include <typeinfo>
#include <vector>

namespace ft {

/// The registered loops of one concrete tool type.
struct FastPathEntry {
  const std::type_info *Type;
  /// replayWithTool<ToolT> behind a type-erased signature.
  ReplayResult (*Replay)(const Trace &T, Tool &Checker,
                         const ReplayOptions &Options);
  /// Dispatches a run of admitted *access* events (Read/Write only); each
  /// event's Seq carries the raw op index assigned at admission. Returns
  /// the number of accesses whose handler returned the pass flag.
  uint64_t (*DispatchRun)(Tool &Checker, const runtime::OnlineEvent *Run,
                          size_t N);
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

template <typename ToolT>
uint64_t fastDispatchRun(Tool &Base, const runtime::OnlineEvent *Run,
                         size_t N) {
  ToolT &Checker = static_cast<ToolT &>(Base);
  uint64_t Passed = 0;
  for (size_t I = 0; I != N; ++I) {
    const runtime::OnlineEvent &E = Run[I];
    Passed += E.Kind == OpKind::Read
                  ? Checker.ToolT::onRead(E.Thread, E.Target,
                                          static_cast<size_t>(E.Seq))
                  : Checker.ToolT::onWrite(E.Thread, E.Target,
                                           static_cast<size_t>(E.Seq));
  }
  return Passed;
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
