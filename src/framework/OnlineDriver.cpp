#include "framework/OnlineDriver.h"

#include "framework/FastPath.h"
#include "runtime/EventRing.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <exception>

using namespace ft;

OnlineDriver::OnlineDriver(Tool &Checker, const ToolContext &Capacity,
                           OnlineDriverOptions Opts)
    : Checker(Checker), Capacity(Capacity), Options(std::move(Opts)),
      Reentrancy(Capacity.NumThreads, Capacity.NumLocks) {
  if (Options.Role != DriverRole::AdmissionOnly)
    if (const FastPathEntry *Fast = findFastPath(Checker))
      FastRun = Fast->DispatchRun;
  DegradePolicy &D = Options.Degrade;
  if (D.Enabled && D.Memory.Enabled) {
    // Offer self-governance to the tool before begin() (the policy takes
    // effect at the table's next reset). One budget knob governs both
    // layers: an unset table budget inherits the ladder's.
    ShadowMemoryPolicy M = D.Memory;
    if (M.BudgetBytes == 0)
      M.BudgetBytes = D.ShadowBudgetBytes;
    MemoryGoverned = Checker.configureShadowPolicy(M);
    if (MemoryGoverned)
      // The first memory-pressure transition is the in-table fold, taken
      // before any stream transform (see DegradeStep::Kind::ShadowSummarize).
      D.Ladder.insert(D.Ladder.begin(),
                      {DegradeStep::Kind::ShadowSummarize, 0});
  }
  if (D.Enabled && D.StartRung != 0) {
    Rung = D.StartRung < D.Ladder.size() ? D.StartRung
                                         : static_cast<unsigned>(D.Ladder.size());
    applyRung();
  }
  if (D.Enabled &&
      (D.ShadowBudgetBytes != 0 || MemoryGoverned ||
       Options.ForceBudgetBreachAtRawOp != OnlineDriverOptions::NoFault))
    NextProbe = std::max<unsigned>(1, D.BudgetCheckEveryOps);
  Checker.begin(Capacity);
}

void OnlineDriver::halt(std::string Message) {
  halt(StatusCode::ResourceExhausted, std::move(Message));
}

void OnlineDriver::halt(StatusCode Code, std::string Message) {
  Diagnostic D;
  D.Code = Code;
  D.Sev = Severity::Error;
  D.OpIndex = Raw;
  D.Message = std::move(Message);
  Diags.push_back(std::move(D));
  Halted = true;
}

/// Recomputes the effective transform from ladder steps [0, Rung).
void OnlineDriver::applyRung() {
  Divisor = 1;
  SampleEvery = 1;
  SyncOnlyMode = false;
  const std::vector<DegradeStep> &Ladder = Options.Degrade.Ladder;
  for (unsigned I = 0; I != Rung && I < Ladder.size(); ++I) {
    const DegradeStep &S = Ladder[I];
    switch (S.K) {
    case DegradeStep::Kind::CoarseGranularity:
      Divisor = std::max(1u, S.Param);
      break;
    case DegradeStep::Kind::AccessSampling:
      SampleEvery = std::max(1u, S.Param);
      break;
    case DegradeStep::Kind::SyncOnly:
      SyncOnlyMode = true;
      break;
    case DegradeStep::Kind::ShadowSummarize:
      // No stream transform: the precision fold happened inside the
      // governed shadow table. Crossing the rung records the transition.
      break;
    }
  }
}

bool OnlineDriver::stepDown(StatusCode Code, const std::string &Reason) {
  const DegradePolicy &D = Options.Degrade;
  if (!D.Enabled || Rung >= D.Ladder.size())
    return false;
  const DegradeStep &S = D.Ladder[Rung];
  ++Rung;
  ++Degradations;
  applyRung();
  std::string What;
  switch (S.K) {
  case DegradeStep::Kind::CoarseGranularity:
    What = "coarse granularity (divisor " + std::to_string(Divisor) + ")";
    break;
  case DegradeStep::Kind::AccessSampling:
    What = "access sampling (1 in " + std::to_string(SampleEvery) + ")";
    break;
  case DegradeStep::Kind::SyncOnly:
    What = "sync-only (all accesses shed)";
    break;
  case DegradeStep::Kind::ShadowSummarize:
    What = "shadow summarization (page-granularity cold shadow)";
    break;
  }
  Diagnostic Diag;
  Diag.Code = Code;
  Diag.Sev = Severity::Warning;
  Diag.OpIndex = Raw;
  Diag.Message = "degraded to rung " + std::to_string(Rung) + "/" +
                 std::to_string(D.Ladder.size()) + ": " + What + " — " + Reason;
  Diags.push_back(std::move(Diag));
  return true;
}

bool OnlineDriver::requestStepDown(StatusCode Code, const std::string &Reason) {
  if (Halted)
    return false;
  return stepDown(Code, Reason);
}

void OnlineDriver::probeBudget() {
  const DegradePolicy &D = Options.Degrade;
  uint64_t Live =
      Options.ShadowBytes ? Options.ShadowBytes() : Checker.shadowBytes();
  if (D.Tracker)
    D.Tracker->sampleLive(Live);

  // Memory-governed tools shed for themselves (watermark summarization,
  // denied-allocation fallbacks); the probe's job is to surface the first
  // such transition as the ShadowSummarize rung and its diagnostic.
  if (MemoryGoverned && !MemoryRungNoted) {
    ShadowGovernorStats S = Options.GovernorStats
                                ? Options.GovernorStats()
                                : Checker.shadowGovernorStats();
    if (S.BudgetTrips != 0 || S.AllocDenied != 0) {
      MemoryRungNoted = true;
      const std::string Why =
          S.AllocDenied != 0
              ? "shadow allocation denied; cold pages summarized at page "
                "granularity"
              : "shadow memory high watermark tripped; cold pages summarized "
                "at page granularity";
      if (Rung < D.Ladder.size() &&
          D.Ladder[Rung].K == DegradeStep::Kind::ShadowSummarize)
        stepDown(StatusCode::ResourceExhausted, Why);
      else
        // A deeper rung is already active (or the ladder was customized
        // without the memory rung): record the event without stepping.
        Diags.push_back(
            {StatusCode::ResourceExhausted, Severity::Note, 0, Raw, Why});
    }
  }

  bool Breach = D.ShadowBudgetBytes != 0 && Live > D.ShadowBudgetBytes;
  if (Options.ForceBudgetBreachAtRawOp != OnlineDriverOptions::NoFault &&
      Raw >= Options.ForceBudgetBreachAtRawOp) {
    Breach = true;
    // One forced breach per configured index; later probes read reality.
    Options.ForceBudgetBreachAtRawOp = OnlineDriverOptions::NoFault;
  }
  if (Breach &&
      !stepDown(StatusCode::ResourceExhausted,
                "shadow memory " + std::to_string(Live) + " bytes over budget " +
                    std::to_string(D.ShadowBudgetBytes) + " bytes")) {
    // Ladder exhausted: keep running unbudgeted (the governor's final-rung
    // rule) and stop probing — detection beats death.
    Diags.push_back({StatusCode::ResourceExhausted, Severity::Note, 0, Raw,
                     "shadow budget still breached at final rung; continuing "
                     "unbudgeted"});
    NextProbe = ~0ull;
    return;
  }
  NextProbe = Raw + std::max<unsigned>(1, D.BudgetCheckEveryOps);
}

void OnlineDriver::drainWarnings() {
  const std::vector<RaceWarning> &Ws = Checker.warnings();
  while (SinkCursor < Ws.size()) {
    if (Options.WarningSink)
      Options.WarningSink(Ws[SinkCursor]);
    ++SinkCursor;
  }
}

OnlineDriver::DispatchOutcome OnlineDriver::offer(Operation &Op) {
  if (Halted)
    return DispatchOutcome::Rejected;
  if (Raw >= NextProbe)
    probeBudget();

  // Degraded transforms apply to accesses only — sync events are the HB
  // spine and pass through every rung untouched, keeping the ordering
  // relation exact however much access precision is shed.
  bool IsAccess = Op.Kind == OpKind::Read || Op.Kind == OpKind::Write;
  if (IsAccess && transformsAccesses()) {
    if (SyncOnlyMode) {
      ++AccessesDropped;
      return DispatchOutcome::Dropped;
    }
    if (SampleEvery != 1 && (AccessCounter++ % SampleEvery) != 0) {
      ++AccessesDropped;
      return DispatchOutcome::Dropped;
    }
    if (Divisor != 1)
      Op.Target /= Divisor;
  }

  // Capacity checks before the index is consumed: a rejected operation is
  // not part of the stream (the flight recorder must drop it too, so a
  // halted run's capture stays replayable up to the halt point).
  if (Op.Thread >= Capacity.NumThreads) {
    halt("thread id " + std::to_string(Op.Thread) +
         " exceeds declared capacity (" +
         std::to_string(Capacity.NumThreads) + " threads)");
    return DispatchOutcome::Rejected;
  }
  switch (Op.Kind) {
  case OpKind::Read:
  case OpKind::Write: {
    // An over-capacity variable is the one breach a coarse rung can
    // absorb: widen the divisor until the mapped id fits (or accesses are
    // shed entirely). Only when the ladder cannot help does it halt.
    const uint32_t Orig = Op.Target * Divisor; // lower bound of its bucket
    while (Op.Target >= Capacity.NumVars) {
      if (!stepDown(StatusCode::ResourceExhausted,
                    "variable id " + std::to_string(Orig) +
                        " exceeds declared capacity (" +
                        std::to_string(Capacity.NumVars) + " variables)")) {
        halt("variable id " + std::to_string(Orig) +
             " exceeds declared capacity (" +
             std::to_string(Capacity.NumVars) + " variables)");
        return DispatchOutcome::Rejected;
      }
      if (SyncOnlyMode) {
        ++AccessesDropped;
        return DispatchOutcome::Dropped;
      }
      Op.Target = Orig / Divisor;
    }
    break;
  }
  case OpKind::Acquire:
  case OpKind::Release:
    if (Op.Target >= Capacity.NumLocks) {
      halt("lock id " + std::to_string(Op.Target) +
           " exceeds declared capacity (" + std::to_string(Capacity.NumLocks) +
           " locks)");
      return DispatchOutcome::Rejected;
    }
    break;
  case OpKind::Fork:
  case OpKind::Join:
    if (Op.Target >= Capacity.NumThreads) {
      halt("thread id " + std::to_string(Op.Target) +
           " exceeds declared capacity (" +
           std::to_string(Capacity.NumThreads) + " threads)");
      return DispatchOutcome::Rejected;
    }
    break;
  case OpKind::VolatileRead:
  case OpKind::VolatileWrite:
    if (Op.Target >= Capacity.NumVolatiles) {
      halt("volatile id " + std::to_string(Op.Target) +
           " exceeds declared capacity (" +
           std::to_string(Capacity.NumVolatiles) + " volatiles)");
      return DispatchOutcome::Rejected;
    }
    break;
  case OpKind::Barrier:
    // Barrier thread sets live in a Trace side table; an online stream
    // has none. The in-process runtime never emits barriers.
    halt("barrier operations cannot be dispatched online");
    return DispatchOutcome::Rejected;
  case OpKind::AtomicBegin:
  case OpKind::AtomicEnd:
    break;
  }

  size_t I = Raw++;
  if (Options.Role == DriverRole::AdmissionOnly) {
    // Admission ends here: the event is part of the delivered stream (the
    // caller captures it and routes it to a shard driver), but the tool is
    // never called from this instance. The re-entrant lock filter still
    // runs so filtered events own a raw index — they belong in the capture
    // for offline-replay index fidelity — while lastAdmittedFiltered()
    // tells the router not to route them (shard drivers run with the
    // filter off; routing would double-apply the stripped semantics).
    LastFiltered =
        (Op.Kind == OpKind::Acquire && Options.FilterReentrantLocks &&
         !Reentrancy.onAcquire(Op.Thread, Op.Target)) ||
        (Op.Kind == OpKind::Release && Options.FilterReentrantLocks &&
         !Reentrancy.onRelease(Op.Thread, Op.Target));
    if (!LastFiltered)
      ++Dispatched;
    return DispatchOutcome::Delivered;
  }
  // A tool that throws must not unwind into the sequencer thread (that
  // would terminate the host process — the one outcome the online runtime
  // exists to avoid). The op is rolled back out of the stream: its shadow
  // effects may be torn, so the analysis halts with a ToolFault.
  try {
    switch (Op.Kind) {
    case OpKind::Read:
      ++Dispatched;
      AccessesPassed += Checker.onRead(Op.Thread, Op.Target, I);
      break;
    case OpKind::Write:
      ++Dispatched;
      AccessesPassed += Checker.onWrite(Op.Thread, Op.Target, I);
      break;
    case OpKind::Acquire:
      if (Options.FilterReentrantLocks &&
          !Reentrancy.onAcquire(Op.Thread, Op.Target))
        break;
      ++Dispatched;
      Checker.onAcquire(Op.Thread, Op.Target, I);
      break;
    case OpKind::Release:
      if (Options.FilterReentrantLocks &&
          !Reentrancy.onRelease(Op.Thread, Op.Target))
        break;
      ++Dispatched;
      Checker.onRelease(Op.Thread, Op.Target, I);
      break;
    case OpKind::Fork:
      ++Dispatched;
      Checker.onFork(Op.Thread, Op.Target, I);
      break;
    case OpKind::Join:
      ++Dispatched;
      Checker.onJoin(Op.Thread, Op.Target, I);
      break;
    case OpKind::VolatileRead:
      ++Dispatched;
      Checker.onVolatileRead(Op.Thread, Op.Target, I);
      break;
    case OpKind::VolatileWrite:
      ++Dispatched;
      Checker.onVolatileWrite(Op.Thread, Op.Target, I);
      break;
    case OpKind::AtomicBegin:
      ++Dispatched;
      Checker.onAtomicBegin(Op.Thread, I);
      break;
    case OpKind::AtomicEnd:
      ++Dispatched;
      Checker.onAtomicEnd(Op.Thread, I);
      break;
    case OpKind::Barrier:
      break; // unreachable: rejected above
    }
    drainWarnings();
  } catch (const std::exception &E) {
    --Raw;
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw during dispatch: " + E.what());
    return DispatchOutcome::Rejected;
  } catch (...) {
    --Raw;
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw a non-std exception during "
                                    "dispatch");
    return DispatchOutcome::Rejected;
  }
  return DispatchOutcome::Delivered;
}

bool OnlineDriver::admitAccessRun(ThreadId Thread,
                                  const runtime::OnlineEvent *Run, size_t N) {
  if (Options.Role != DriverRole::AdmissionOnly || Halted ||
      transformsAccesses() || Raw >= NextProbe || NextProbe - Raw < N ||
      Thread >= Capacity.NumThreads)
    return false;
  const uint32_t MaxVar = Capacity.NumVars;
  for (size_t I = 0; I != N; ++I) {
    assert((Run[I].Kind == OpKind::Read || Run[I].Kind == OpKind::Write) &&
           "admitAccessRun fed a non-access event");
    if (Run[I].Target >= MaxVar)
      return false;
  }
  Raw += N;
  Dispatched += N;
  LastFiltered = false;
  return true;
}

bool OnlineDriver::dispatchRun(const runtime::OnlineEvent *Run, size_t N) {
  if (Halted)
    return false;
  // Events arrive pre-admitted: capacity, rung transforms, and lock
  // filtering already ran on the admission side, so this loop pays none of
  // offer()'s per-event checks. Access stretches go through the
  // devirtualized run loop when one is registered for the tool's concrete
  // type; sync events dispatch virtually one at a time (they are rare and
  // their handlers do real vector-clock work anyway).
  size_t I = 0;
  try {
    while (I != N) {
      const runtime::OnlineEvent &E = Run[I];
      if (E.Kind == OpKind::Read || E.Kind == OpKind::Write) {
        size_t End = I + 1;
        while (End != N && (Run[End].Kind == OpKind::Read ||
                            Run[End].Kind == OpKind::Write))
          ++End;
        const size_t Len = End - I;
        if (FastRun) {
          AccessesPassed += FastRun(Checker, Run + I, Len);
        } else {
          for (size_t J = I; J != End; ++J) {
            const runtime::OnlineEvent &A = Run[J];
            AccessesPassed +=
                A.Kind == OpKind::Read
                    ? Checker.onRead(A.Thread, A.Target,
                                     static_cast<size_t>(A.Seq))
                    : Checker.onWrite(A.Thread, A.Target,
                                      static_cast<size_t>(A.Seq));
          }
        }
        Dispatched += Len;
        I = End;
        continue;
      }
      const size_t Idx = static_cast<size_t>(E.Seq);
      switch (E.Kind) {
      case OpKind::Acquire:
        Checker.onAcquire(E.Thread, E.Target, Idx);
        break;
      case OpKind::Release:
        Checker.onRelease(E.Thread, E.Target, Idx);
        break;
      case OpKind::Fork:
        Checker.onFork(E.Thread, E.Target, Idx);
        break;
      case OpKind::Join:
        Checker.onJoin(E.Thread, E.Target, Idx);
        break;
      case OpKind::VolatileRead:
        Checker.onVolatileRead(E.Thread, E.Target, Idx);
        break;
      case OpKind::VolatileWrite:
        Checker.onVolatileWrite(E.Thread, E.Target, Idx);
        break;
      case OpKind::AtomicBegin:
        Checker.onAtomicBegin(E.Thread, Idx);
        break;
      case OpKind::AtomicEnd:
        Checker.onAtomicEnd(E.Thread, Idx);
        break;
      case OpKind::Barrier:
      case OpKind::Read:
      case OpKind::Write:
        break; // unreachable: admission rejects barriers; accesses above
      }
      ++Dispatched;
      ++I;
    }
    drainWarnings();
  } catch (const std::exception &E) {
    // Anchor the fault at the raw index of the group that threw (for an
    // access run, its first event — the thrower's exact index is lost to
    // the batched loop).
    Raw = Run[I].Seq;
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw during dispatch: " + E.what());
    return false;
  } catch (...) {
    Raw = Run[I].Seq;
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw a non-std exception during "
                                    "dispatch");
    return false;
  }
  return true;
}

void OnlineDriver::finish() {
  if (Finished)
    return;
  Finished = true;
  try {
    Checker.end();
    drainWarnings();
  } catch (const std::exception &E) {
    halt(StatusCode::ToolFault,
         std::string("tool '") + Checker.name() + "' threw during end(): " +
             E.what());
  } catch (...) {
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw a non-std exception during "
                                    "end()");
  }
}
