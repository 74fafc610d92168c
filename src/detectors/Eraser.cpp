#include "detectors/Eraser.h"

#include "framework/FastPath.h"

using namespace ft;

void Eraser::begin(const ToolContext &Context) {
  Held.reset(Context.NumThreads);
  Vars.assign(Context.NumVars, VarShadow());
  Generation = 0;
}

void Eraser::onAcquire(ThreadId T, LockId M, size_t) { Held.acquire(T, M); }

void Eraser::onRelease(ThreadId T, LockId M, size_t) { Held.release(T, M); }

void Eraser::onBarrier(const std::vector<ThreadId> &, size_t) {
  // Barrier-aware extension: accesses in different barrier phases are
  // ordered, so every variable's discipline restarts. Implemented lazily
  // via a generation stamp to keep barriers O(1).
  if (BarrierAware)
    ++Generation;
}

void Eraser::refresh(VarShadow &Shadow) {
  if (Shadow.Generation == Generation)
    return;
  Shadow.State = EraserVarState::Virgin;
  Shadow.Candidates.clear();
  Shadow.Generation = Generation;
}

void Eraser::warnIfUnprotected(const VarShadow &Shadow, ThreadId T, VarId X,
                               size_t OpIndex, OpKind Kind) {
  if (!Shadow.Candidates.empty())
    return;
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.Detail = "empty lockset";
  reportRace(std::move(W));
}

bool Eraser::readSlow(ThreadId T, VarId X, size_t OpIndex,
                      VarShadow &Shadow) {
  refresh(Shadow);
  switch (Shadow.State) {
  case EraserVarState::Virgin:
    Shadow.State = EraserVarState::Exclusive;
    Shadow.Owner = T;
    return false;
  case EraserVarState::Exclusive:
    if (Shadow.Owner == T)
      return false;
    // Second thread reads: enter read-shared mode. Deliberately no warning
    // and the first thread's accesses are forgotten — the unsoundness that
    // makes Eraser miss some hedc races.
    Shadow.State = EraserVarState::Shared;
    Shadow.Candidates = Held.held(T);
    return false;
  case EraserVarState::Shared:
    // Reads of read-shared data refine C(v) but never warn; race-free,
    // so as a prefilter the access is dropped.
    Shadow.Candidates.intersectWith(Held.held(T));
    return false;
  case EraserVarState::SharedModified:
    Shadow.Candidates.intersectWith(Held.held(T));
    warnIfUnprotected(Shadow, T, X, OpIndex, OpKind::Read);
    // Forward only when the lockset discipline has failed.
    return Shadow.Candidates.empty();
  }
  return true;
}

bool Eraser::writeSlow(ThreadId T, VarId X, size_t OpIndex,
                       VarShadow &Shadow) {
  refresh(Shadow);
  switch (Shadow.State) {
  case EraserVarState::Virgin:
    Shadow.State = EraserVarState::Exclusive;
    Shadow.Owner = T;
    return false;
  case EraserVarState::Exclusive:
    if (Shadow.Owner == T)
      return false;
    Shadow.State = EraserVarState::SharedModified;
    Shadow.Candidates = Held.held(T);
    warnIfUnprotected(Shadow, T, X, OpIndex, OpKind::Write);
    return Shadow.Candidates.empty();
  case EraserVarState::Shared:
    Shadow.State = EraserVarState::SharedModified;
    Shadow.Candidates.intersectWith(Held.held(T));
    warnIfUnprotected(Shadow, T, X, OpIndex, OpKind::Write);
    return Shadow.Candidates.empty();
  case EraserVarState::SharedModified:
    Shadow.Candidates.intersectWith(Held.held(T));
    warnIfUnprotected(Shadow, T, X, OpIndex, OpKind::Write);
    return Shadow.Candidates.empty();
  }
  return true;
}

size_t Eraser::shadowBytes() const {
  size_t Bytes = Held.memoryBytes();
  for (const VarShadow &Shadow : Vars)
    Bytes += sizeof(VarShadow) + Shadow.Candidates.memoryBytes();
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::Eraser);
