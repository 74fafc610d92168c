#include "framework/Tool.h"

using namespace ft;

Tool::~Tool() = default;

void Tool::begin(const ToolContext &) {}
void Tool::end() {}

void Tool::onAcquire(ThreadId, LockId, size_t) {}
void Tool::onRelease(ThreadId, LockId, size_t) {}
void Tool::onFork(ThreadId, ThreadId, size_t) {}
void Tool::onJoin(ThreadId, ThreadId, size_t) {}
void Tool::onVolatileRead(ThreadId, VolatileId, size_t) {}
void Tool::onVolatileWrite(ThreadId, VolatileId, size_t) {}
void Tool::onBarrier(const std::vector<ThreadId> &, size_t) {}
void Tool::onAtomicBegin(ThreadId, size_t) {}
void Tool::onAtomicEnd(ThreadId, size_t) {}

size_t Tool::shadowBytes() const { return 0; }

bool Tool::configureShadowPolicy(const ShadowMemoryPolicy &) { return false; }

ShadowGovernorStats Tool::shadowGovernorStats() const {
  return ShadowGovernorStats();
}

void Tool::clearWarnings() {
  Warnings.clear();
  WarnedVars.assign(WarnedVars.size(), false);
}

bool Tool::alreadyWarned(VarId X) const {
  return X < WarnedVars.size() && WarnedVars[X];
}

size_t Tool::adoptWarnings(const std::vector<RaceWarning> &Merged) {
  size_t Recorded = 0;
  for (const RaceWarning &W : Merged)
    Recorded += reportRace(W);
  return Recorded;
}

bool Tool::reportRace(RaceWarning W) {
  if (alreadyWarned(W.Var))
    return false;
  if (W.Var >= WarnedVars.size())
    WarnedVars.resize(W.Var + 1, false);
  WarnedVars[W.Var] = true;
  Warnings.push_back(std::move(W));
  return true;
}

std::string ft::toString(const RaceWarning &W) {
  std::string Out = "race on x" + std::to_string(W.Var) + " at op " +
                    std::to_string(W.OpIndex) + ": " +
                    opKindName(W.CurrentKind) + " by thread " +
                    std::to_string(W.CurrentThread);
  if (W.PriorThread != UnknownThread)
    Out += " conflicts with " + std::string(opKindName(W.PriorKind)) +
           " by thread " + std::to_string(W.PriorThread);
  if (!W.Detail.empty())
    Out += " (" + W.Detail + ")";
  return Out;
}
