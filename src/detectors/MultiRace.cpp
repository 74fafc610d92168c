#include "detectors/MultiRace.h"

#include "framework/FastPath.h"

using namespace ft;

void MultiRace::begin(const ToolContext &Context) {
  VectorClockToolBase::begin(Context);
  Held.reset(Context.NumThreads);
  Vars.assign(Context.NumVars, VarShadow());
  Stats = MultiRaceStats();
  Generation = 0;
}

void MultiRace::onAcquire(ThreadId T, LockId M, size_t OpIndex) {
  VectorClockToolBase::onAcquire(T, M, OpIndex);
  Held.acquire(T, M);
}

void MultiRace::onRelease(ThreadId T, LockId M, size_t OpIndex) {
  VectorClockToolBase::onRelease(T, M, OpIndex);
  Held.release(T, M);
}

void MultiRace::onBarrier(const std::vector<ThreadId> &Threads,
                          size_t OpIndex) {
  VectorClockToolBase::onBarrier(Threads, OpIndex);
  ++Generation;
}

void MultiRace::refresh(VarShadow &Shadow) {
  if (Shadow.Generation == Generation)
    return;
  Shadow.State = EraserVarState::Virgin;
  Shadow.Candidates.clear();
  Shadow.LockSetDead = false;
  Shadow.Generation = Generation;
}

bool MultiRace::updateDiscipline(VarShadow &Shadow, ThreadId T,
                                 bool IsWrite) {
  ++Stats.LockSetOps;
  if (Shadow.LockSetDead)
    return false;
  switch (Shadow.State) {
  case EraserVarState::Virgin:
    Shadow.State = EraserVarState::Exclusive;
    Shadow.Owner = T;
    return true;
  case EraserVarState::Exclusive:
    if (Shadow.Owner == T)
      return true;
    Shadow.State =
        IsWrite ? EraserVarState::SharedModified : EraserVarState::Shared;
    Shadow.Candidates = Held.held(T);
    break;
  case EraserVarState::Shared:
    if (IsWrite)
      Shadow.State = EraserVarState::SharedModified;
    Shadow.Candidates.intersectWith(Held.held(T));
    break;
  case EraserVarState::SharedModified:
    Shadow.Candidates.intersectWith(Held.held(T));
    break;
  }
  if (Shadow.State == EraserVarState::Shared)
    return true; // read-only sharing is always race-free
  if (!Shadow.Candidates.empty())
    return true;
  Shadow.LockSetDead = true;
  return false;
}

void MultiRace::reportAccessRace(ThreadId T, VarId X, size_t OpIndex,
                                 OpKind Kind, const VectorClock &Prior,
                                 OpKind PriorKind) {
  const VectorClock &Ct = threadClock(T);
  ThreadId Conflicting = UnknownThread;
  for (ThreadId U = 0; U != Prior.size(); ++U)
    if (Prior.get(U) > Ct.get(U)) {
      Conflicting = U;
      break;
    }
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.PriorThread = Conflicting;
  W.PriorKind = PriorKind;
  W.Detail = std::string(opKindName(PriorKind)) + "-" + opKindName(Kind) +
             " race";
  reportRace(std::move(W));
}

bool MultiRace::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (Shadow.R.get(T) == currentClock(T)) {
    ++Stats.SameEpochHits;
    return false;
  }
  refresh(Shadow);
  bool Protected = updateDiscipline(Shadow, T, /*IsWrite=*/false);
  if (!Protected) {
    ++Stats.VcComparisons;
    if (!Shadow.W.leq(threadClock(T)))
      reportAccessRace(T, X, OpIndex, OpKind::Read, Shadow.W, OpKind::Write);
  }
  Shadow.R.set(T, currentClock(T));
  return true;
}

bool MultiRace::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (Shadow.W.get(T) == currentClock(T)) {
    ++Stats.SameEpochHits;
    return false;
  }
  refresh(Shadow);
  bool Protected = updateDiscipline(Shadow, T, /*IsWrite=*/true);
  if (!Protected) {
    ++Stats.VcComparisons;
    const VectorClock &Ct = threadClock(T);
    if (!Shadow.W.leq(Ct))
      reportAccessRace(T, X, OpIndex, OpKind::Write, Shadow.W,
                       OpKind::Write);
    else if (!Shadow.R.leq(Ct))
      reportAccessRace(T, X, OpIndex, OpKind::Write, Shadow.R, OpKind::Read);
  }
  Shadow.W.set(T, currentClock(T));
  return true;
}

size_t MultiRace::shadowBytes() const {
  size_t Bytes = VectorClockToolBase::shadowBytes() + Held.memoryBytes();
  for (const VarShadow &Shadow : Vars)
    Bytes += sizeof(VarShadow) + Shadow.R.memoryBytes() +
             Shadow.W.memoryBytes() + Shadow.Candidates.memoryBytes();
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::MultiRace);
