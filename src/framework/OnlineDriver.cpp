#include "framework/OnlineDriver.h"

#include "framework/FastPath.h"
#include "runtime/BroadcastLog.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <exception>

using namespace ft;

OnlineDriver::OnlineDriver(Tool &Checker, const ToolContext &Capacity,
                           OnlineDriverOptions Opts)
    : Checker(Checker), Capacity(Capacity), Options(std::move(Opts)),
      Reentrancy(Capacity.NumThreads, Capacity.NumLocks) {
  const FastPathEntry *Fast = findFastPath(Checker);
  FastRun = Fast ? Fast->DispatchRun : &fastDispatchRun<Tool>;
  DegradePolicy &D = Options.Degrade;
  // Offer self-governance to the tool before begin() (the policy takes
  // effect at the table's next reset). A tool that accepts holds the
  // budget in-table and records its own folds; the probe below enforces
  // the budget only for decliners.
  MemoryGoverned =
      D.Enabled && D.Memory.Enabled && Checker.configureShadowPolicy(D.Memory);
  if (D.Enabled && D.StartRung != 0) {
    Rung = D.StartRung < D.Ladder.size() ? D.StartRung
                                         : static_cast<unsigned>(D.Ladder.size());
    applyRung();
  }
  if (D.Enabled &&
      ((D.Memory.BudgetBytes != 0 && !MemoryGoverned) || D.Tracker ||
       Options.ForceBudgetBreachAtRawOp != OnlineDriverOptions::NoFault))
    NextProbe = std::max<unsigned>(1, D.BudgetCheckEveryOps);
  Checker.begin(Capacity);
}

void OnlineDriver::halt(std::string Message) {
  halt(StatusCode::ResourceExhausted, std::move(Message));
}

void OnlineDriver::toolFault(uint64_t At, const char *During) {
  // Called from a catch block: the rethrow reads the exception in flight.
  Raw = At;
  try {
    throw;
  } catch (const std::exception &E) {
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw during " + During + ": " +
                                    E.what());
  } catch (...) {
    halt(StatusCode::ToolFault, std::string("tool '") + Checker.name() +
                                    "' threw a non-std exception during " +
                                    During);
  }
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

/// The divisor of ladder rung Rung (1 = Full).
void OnlineDriver::applyRung() {
  Divisor = Rung == 0 ? 1 : std::max(1u, Options.Degrade.Ladder[Rung - 1]);
}

uint32_t OnlineDriver::widestDivisor() const {
  uint32_t Widest = Divisor;
  const DegradePolicy &D = Options.Degrade;
  if (D.Enabled)
    for (size_t I = Rung; I < D.Ladder.size(); ++I)
      Widest = std::max(Widest, D.Ladder[I]);
  return Widest;
}

bool OnlineDriver::stepDown(StatusCode Code, const std::string &Reason) {
  const DegradePolicy &D = Options.Degrade;
  if (!D.Enabled || Rung >= D.Ladder.size())
    return false;
  ++Rung;
  ++Degradations;
  applyRung();
  Diagnostic Diag;
  Diag.Code = Code;
  Diag.Sev = Severity::Warning;
  Diag.OpIndex = Raw;
  Diag.Message = "degraded to rung " + std::to_string(Rung) + "/" +
                 std::to_string(D.Ladder.size()) +
                 ": coarse granularity (divisor " + std::to_string(Divisor) +
                 ") — " + Reason;
  Diags.push_back(std::move(Diag));
  return true;
}

void OnlineDriver::probeBudget() {
  const DegradePolicy &D = Options.Degrade;
  // The probe's byte budget: a governed tool holds Memory.BudgetBytes
  // in-table, so only a decliner is stepped down the ladder for it.
  const uint64_t Budget = MemoryGoverned ? 0 : D.Memory.BudgetBytes;
  // shadowBytes() walks the shadow state: read it only when it is used.
  uint64_t Live = 0;
  if (Budget != 0 || D.Tracker) {
    Live = Options.ShadowBytes ? Options.ShadowBytes() : Checker.shadowBytes();
    if (D.Tracker)
      D.Tracker->sampleLive(Live);
  }

  bool Breach = Budget != 0 && Live > Budget;
  if (Options.ForceBudgetBreachAtRawOp != OnlineDriverOptions::NoFault &&
      Raw >= Options.ForceBudgetBreachAtRawOp) {
    Breach = true;
    // One forced breach per configured index; later probes read reality.
    Options.ForceBudgetBreachAtRawOp = OnlineDriverOptions::NoFault;
  }
  if (Breach &&
      !stepDown(StatusCode::ResourceExhausted,
                "shadow memory " + std::to_string(Live) + " bytes over budget " +
                    std::to_string(Budget) + " bytes")) {
    // Ladder exhausted: keep running unbudgeted and stop probing —
    // detection beats death.
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

  // Coarse rungs remap accesses only — sync events are the HB spine and
  // pass through every rung untouched, keeping the ordering relation
  // exact however coarse the access ids become.
  if ((Op.Kind == OpKind::Read || Op.Kind == OpKind::Write) &&
      transformsAccesses())
    Op.Target /= Divisor;

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
    // absorb: widen the divisor until the mapped id fits. When no rung
    // left can fold it (the ladder pinned off, or the widest divisor still
    // too narrow) it halts at once, without logging steps that could not
    // help.
    if (Op.Target >= Capacity.NumVars) {
      const uint32_t Orig = Op.Target * Divisor; // lower bound of its bucket
      const std::string Why = "variable id " + std::to_string(Orig) +
                              " exceeds declared capacity (" +
                              std::to_string(Capacity.NumVars) + " variables)";
      if (Orig / widestDivisor() >= Capacity.NumVars) {
        halt(Why);
        return DispatchOutcome::Rejected;
      }
      do {
        stepDown(StatusCode::ResourceExhausted, Why);
        Op.Target = Orig / Divisor;
      } while (Op.Target >= Capacity.NumVars);
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
  // The re-entrant lock filter runs in both roles, so a filtered event
  // owns a raw index: it belongs in the capture for offline-replay index
  // fidelity. lastAdmittedFiltered() tells the sharded merge loop to keep
  // it out of the broadcast log (shard drivers run with the filter off;
  // dispatching it there would double-apply the stripped semantics).
  LastFiltered =
      Options.FilterReentrantLocks &&
      ((Op.Kind == OpKind::Acquire &&
        !Reentrancy.onAcquire(Op.Thread, Op.Target)) ||
       (Op.Kind == OpKind::Release &&
        !Reentrancy.onRelease(Op.Thread, Op.Target)));
  if (LastFiltered)
    return DispatchOutcome::Delivered;
  ++Dispatched;
  // Admission ends here: the caller captures the event and appends it to
  // the shard workers' log; the tool is never called from this instance.
  if (Options.Role == DriverRole::AdmissionOnly)
    return DispatchOutcome::Delivered;
  // A tool that throws must not unwind into the sequencer thread (that
  // would terminate the host process — the one outcome the online runtime
  // exists to avoid). The op is rolled back out of the stream: its shadow
  // effects may be torn, so the analysis halts with a ToolFault.
  try {
    if (Op.Kind == OpKind::Read)
      AccessesPassed += Checker.onRead(Op.Thread, Op.Target, I);
    else if (Op.Kind == OpKind::Write)
      AccessesPassed += Checker.onWrite(Op.Thread, Op.Target, I);
    else
      dispatchSync(Checker, Op.Kind, Op.Thread, Op.Target, I);
    drainWarnings();
  } catch (...) {
    --Dispatched;
    toolFault(I, "dispatch");
    return DispatchOutcome::Rejected;
  }
  return DispatchOutcome::Delivered;
}

size_t OnlineDriver::runAccesses(const runtime::EventWord *Run, size_t N,
                                 ThreadId Thread, uint64_t FirstRaw,
                                 const ShardMap &Owners, unsigned Shard) {
  AccessRun R{.Events = Run, .N = N, .Thread = Thread, .FirstRaw = FirstRaw,
              .MaxVars = Capacity.NumVars, .Owners = Owners, .Shard = Shard};
  try {
    FastRun(Checker, R);
  } catch (...) {
    // The events before the thrower stay dispatched, as they would one
    // offer() at a time; the fault is anchored at the thrower's raw index,
    // which rawOps() stops just before.
    Dispatched += R.Done - R.Skipped;
    AccessesPassed += R.Passed;
    toolFault(FirstRaw + R.Done, "dispatch");
    return R.Done;
  }
  Dispatched += R.Done - R.Skipped;
  AccessesPassed += R.Passed;
  if (Thread != AccessRun::NoThread)
    Raw += R.Done;
  return R.Done;
}

bool OnlineDriver::admitAccessRun(ThreadId Thread,
                                  const runtime::EventWord *Run, size_t N) {
  assert(std::all_of(Run, Run + N,
                     [](runtime::EventWord W) { return isAccess(W.kind()); }) &&
         "admitAccessRun fed a non-access event");
  if (Options.Role == DriverRole::DispatchOnly || Halted ||
      Thread >= Capacity.NumThreads)
    return false;
  // One window per budget probe: a probe due inside the run is taken where
  // per-event offer() would take it, before the event at NextProbe.
  size_t Done = 0;
  while (Done != N && !Halted) {
    if (Raw >= NextProbe)
      probeBudget();
    if (transformsAccesses())
      break;
    const size_t Len =
        static_cast<size_t>(std::min<uint64_t>(N - Done, NextProbe - Raw));
    size_t Got = 0;
    if (Options.Role == DriverRole::AdmissionOnly) {
      while (Got != Len && Run[Done + Got].target() < Capacity.NumVars)
        ++Got;
      Raw += Got;
      Dispatched += Got;
    } else {
      // One pass: the run loop checks capacity, stamps the thread and raw
      // index, and dispatches, stopping short at an over-capacity target.
      Got = runAccesses(Run + Done, Len, Thread, Raw);
    }
    Done += Got;
    if (Got != Len)
      break;
  }
  if (Options.Role == DriverRole::Full) {
    try {
      drainWarnings();
    } catch (...) {
      toolFault(Raw, "dispatch");
    }
  }
  return Done == N;
}

size_t OnlineDriver::dispatchRun(const runtime::EventWord *Run, size_t N,
                                 uint64_t FirstRaw, const ShardMap &Owners,
                                 unsigned Shard) {
  if (Halted)
    return 0;
  // Events arrive pre-admitted: capacity, rung transforms, and lock
  // filtering already ran on the admission side, so this loop pays none of
  // offer()'s per-event checks. Access stretches go through the run loop
  // (devirtualized when the tool's concrete type registered one); sync
  // events dispatch virtually one at a time (they are rare and their
  // handlers do real vector-clock work anyway).
  size_t I = 0;
  while (I != N) {
    const runtime::EventWord W = Run[I];
    if (isAccess(W.kind())) {
      size_t End = I + 1;
      while (End != N && isAccess(Run[End].kind()))
        ++End;
      I += runAccesses(Run + I, End - I, AccessRun::NoThread, FirstRaw + I,
                       Owners, Shard);
      if (Halted)
        return I;
      continue;
    }
    if (!W.isSkip()) {
      try {
        dispatchSync(Checker, W.kind(), W.thread(), W.target(),
                     static_cast<size_t>(FirstRaw + I));
      } catch (...) {
        toolFault(FirstRaw + I, "dispatch");
        return I;
      }
      ++Dispatched;
    }
    ++I;
  }
  try {
    drainWarnings();
  } catch (...) {
    toolFault(FirstRaw + N, "dispatch");
  }
  return N;
}

void OnlineDriver::finish() {
  if (Finished)
    return;
  Finished = true;
  try {
    Checker.end();
    drainWarnings();
  } catch (...) {
    toolFault(Raw, "end()");
  }
}
