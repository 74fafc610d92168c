#include "detectors/ThreadLocalFilter.h"

#include "framework/FastPath.h"

using namespace ft;

void ThreadLocalFilter::begin(const ToolContext &Context) {
  Owner.assign(Context.NumVars, NoOwner);
}

bool ThreadLocalFilter::access(ThreadId T, VarId X) {
  if (X >= Owner.size())
    Owner.resize(X + 1, NoOwner);
  uint32_t &State = Owner[X];
  if (State == Shared)
    return true;
  if (State == NoOwner) {
    State = T;
    return false;
  }
  if (State == T)
    return false;
  State = Shared;
  return true;
}

bool ThreadLocalFilter::onRead(ThreadId T, VarId X, size_t) {
  return access(T, X);
}

bool ThreadLocalFilter::onWrite(ThreadId T, VarId X, size_t) {
  return access(T, X);
}

size_t ThreadLocalFilter::shadowBytes() const {
  return Owner.capacity() * sizeof(uint32_t);
}

FT_REGISTER_FAST_PATH(::ft::ThreadLocalFilter);
