#include "framework/Replay.h"

#include "framework/FastPath.h"

using namespace ft;

ToolContext ft::makeToolContext(const Trace &T, const GranularityMap &Map) {
  ToolContext Context;
  Context.NumThreads = T.numThreads();
  Context.NumLocks = T.numLocks();
  Context.NumVolatiles = T.numVolatiles();
  if (Map.identity()) {
    Context.NumVars = T.numVars();
  } else {
    unsigned MaxVar = 0;
    for (VarId X = 0; X != T.numVars(); ++X)
      MaxVar = std::max(MaxVar, Map.map(X) + 1);
    Context.NumVars = MaxVar;
  }
  return Context;
}

void ft::dispatchSyncOp(Tool &Checker, const Trace &T, const Operation &Op,
                        size_t I) {
  if (Op.Kind == OpKind::Barrier)
    Checker.onBarrier(T.barrierSet(Op.Target), I);
  else
    dispatchSync(Checker, Op.Kind, Op.Thread, Op.Target, I);
}

ReplayResult ft::replay(const Trace &T, Tool &Checker,
                        const ReplayOptions &Options) {
  if (const FastPathEntry *Fast = findFastPath(Checker))
    return Fast->Replay(T, Checker, Options);
  return replayWithTool<Tool>(T, Checker, Options);
}

PipelineResult ft::replayFiltered(const Trace &T, Tool &Filter,
                                  Tool &Downstream,
                                  const ReplayOptions &Options) {
  GranularityMap Map = GranularityMap::make(Options);
  PipelineResult Result;
  ClockStats Before = clockStats();
  ToolContext Context = makeToolContext(T, Map);

  Stopwatch Watch;
  Filter.begin(Context);
  Downstream.begin(Context);
  detail::replayAll(
      T, Options, Map,
      [&](OpKind Kind, ThreadId Thread, VarId X, size_t I) {
        ++Result.AccessesSeen;
        if (Kind == OpKind::Read) {
          if (!Filter.onRead(Thread, X, I))
            return false;
          Downstream.onRead(Thread, X, I);
        } else {
          if (!Filter.onWrite(Thread, X, I))
            return false;
          Downstream.onWrite(Thread, X, I);
        }
        return true;
      },
      [&](const Operation &Op, size_t I) {
        dispatchSyncOp(Filter, T, Op, I);
        dispatchSyncOp(Downstream, T, Op, I);
      },
      [&] { return Filter.shadowBytes() + Downstream.shadowBytes(); },
      Result.Total);
  Filter.end();
  Downstream.end();
  Result.Total.Seconds = Watch.seconds();

  Result.Total.Clocks = clockStats() - Before;
  Result.Total.ShadowBytes = Filter.shadowBytes() + Downstream.shadowBytes();
  Result.Total.NumWarnings =
      Filter.warnings().size() + Downstream.warnings().size();
  Result.AccessesForwarded = Result.Total.AccessesPassed;
  return Result;
}
