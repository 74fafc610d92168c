#include "detectors/DjitPlus.h"

#include "framework/FastPath.h"

using namespace ft;

void DjitPlus::begin(const ToolContext &Context) {
  VectorClockToolBase::begin(Context);
  Vars.assign(Context.NumVars, VarState());
  Rules = DjitRuleStats();
}

ThreadId DjitPlus::conflictingThread(const VectorClock &Prior,
                                     ThreadId T) const {
  const VectorClock &Ct = threadClock(T);
  for (ThreadId U = 0; U != Prior.size(); ++U)
    if (Prior.get(U) > Ct.get(U))
      return U;
  return UnknownThread;
}

void DjitPlus::reportAccessRace(ThreadId T, VarId X, size_t OpIndex,
                                OpKind Kind, const VectorClock &Prior,
                                OpKind PriorKind) {
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.PriorThread = conflictingThread(Prior, T);
  W.PriorKind = PriorKind;
  W.Detail = std::string(opKindName(PriorKind)) + "-" +
             opKindName(Kind) + " race";
  reportRace(std::move(W));
}

bool DjitPlus::readSlow(ThreadId T, VarId X, size_t OpIndex,
                        VarState &State) {
  // [DJIT+ READ]: O(n) comparison Wx ⊑ Ct.
  ++Rules.ReadGeneral;
  if (!State.W.leq(threadClock(T)))
    reportAccessRace(T, X, OpIndex, OpKind::Read, State.W, OpKind::Write);
  State.R.set(T, currentClock(T));
  return true;
}

bool DjitPlus::writeSlow(ThreadId T, VarId X, size_t OpIndex,
                         VarState &State) {
  // [DJIT+ WRITE]: two O(n) comparisons.
  ++Rules.WriteGeneral;
  const VectorClock &Ct = threadClock(T);
  bool WriteRace = !State.W.leq(Ct);
  bool ReadRace = !State.R.leq(Ct);
  if (WriteRace)
    reportAccessRace(T, X, OpIndex, OpKind::Write, State.W, OpKind::Write);
  else if (ReadRace)
    reportAccessRace(T, X, OpIndex, OpKind::Write, State.R, OpKind::Read);
  State.W.set(T, currentClock(T));
  return true;
}

size_t DjitPlus::shadowBytes() const {
  size_t Bytes = VectorClockToolBase::shadowBytes();
  for (const VarState &State : Vars)
    Bytes += sizeof(VarState) + State.R.memoryBytes() + State.W.memoryBytes();
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::DjitPlus);
