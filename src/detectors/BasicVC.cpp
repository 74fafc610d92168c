#include "detectors/BasicVC.h"

#include "framework/FastPath.h"

using namespace ft;

void BasicVC::begin(const ToolContext &Context) {
  VectorClockToolBase::begin(Context);
  Vars.assign(Context.NumVars, VarState());
}

ThreadId BasicVC::conflictingThread(const VectorClock &Prior,
                                    ThreadId T) const {
  const VectorClock &Ct = threadClock(T);
  for (ThreadId U = 0; U != Prior.size(); ++U)
    if (Prior.get(U) > Ct.get(U))
      return U;
  return UnknownThread;
}

bool BasicVC::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  const VectorClock &Ct = threadClock(T);
  if (!State.W.leq(Ct)) {
    RaceWarning W;
    W.Var = X;
    W.OpIndex = OpIndex;
    W.CurrentThread = T;
    W.CurrentKind = OpKind::Read;
    W.PriorThread = conflictingThread(State.W, T);
    W.PriorKind = OpKind::Write;
    W.Detail = "write-read race";
    reportRace(std::move(W));
  }
  State.R.set(T, currentClock(T));
  return true;
}

bool BasicVC::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarState &State = Vars[X];
  const VectorClock &Ct = threadClock(T);
  bool WriteRace = !State.W.leq(Ct);
  bool ReadRace = !State.R.leq(Ct);
  if (WriteRace || ReadRace) {
    RaceWarning W;
    W.Var = X;
    W.OpIndex = OpIndex;
    W.CurrentThread = T;
    W.CurrentKind = OpKind::Write;
    W.PriorThread =
        conflictingThread(WriteRace ? State.W : State.R, T);
    W.PriorKind = WriteRace ? OpKind::Write : OpKind::Read;
    W.Detail = WriteRace ? "write-write race" : "read-write race";
    reportRace(std::move(W));
  }
  State.W.set(T, currentClock(T));
  return true;
}

size_t BasicVC::shadowBytes() const {
  size_t Bytes = VectorClockToolBase::shadowBytes();
  for (const VarState &State : Vars)
    Bytes += sizeof(VarState) + State.R.memoryBytes() + State.W.memoryBytes();
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::BasicVC);
