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

void BasicVC::reportAccessRace(ThreadId T, VarId X, size_t OpIndex,
                               OpKind Kind, const VectorClock &Prior,
                               OpKind PriorKind, const char *Detail) {
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.PriorThread = conflictingThread(Prior, T);
  W.PriorKind = PriorKind;
  W.Detail = Detail;
  reportRace(std::move(W));
}

size_t BasicVC::shadowBytes() const {
  size_t Bytes = VectorClockToolBase::shadowBytes();
  for (const VarState &State : Vars)
    Bytes += sizeof(VarState) + State.R.memoryBytes() + State.W.memoryBytes();
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::BasicVC);
