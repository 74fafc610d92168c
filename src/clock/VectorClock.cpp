#include "clock/VectorClock.h"

#include <algorithm>
#include <cassert>

using namespace ft;

ClockValue *VectorClock::spillTo(uint32_t Size) {
  assert(Size > Cap && "inline/in-place growth handled by growTo");
  uint32_t NewCap = 0;
  ClockValue *Block = ClockArena::acquire(Size, NewCap);
  std::memcpy(Block, data(), size_t(Count) * sizeof(ClockValue));
  releaseBuffer();
  Store.Heap = Block;
  Cap = NewCap;
  Count = Size; // Arena blocks come zeroed, so the tail invariant holds.
  return Block;
}

void VectorClock::assignGrow(const VectorClock &Other) {
  assert(Other.Count > Cap && "in-place assignment handled by assignFrom");
  ++clockStats().CopyOps;
  if (Count == 0)
    ++clockStats().Allocations;
  uint32_t NewCap = 0;
  ClockValue *Block = ClockArena::acquire(Other.Count, NewCap);
  std::memcpy(Block, Other.data(), size_t(Other.Count) * sizeof(ClockValue));
  releaseBuffer();
  Store.Heap = Block;
  Cap = NewCap;
  Count = Other.Count;
}

bool ft::operator==(const VectorClock &A, const VectorClock &B) {
  size_t Max = std::max<size_t>(A.size(), B.size());
  for (size_t I = 0; I != Max; ++I)
    if (A.get(static_cast<ThreadId>(I)) != B.get(static_cast<ThreadId>(I)))
      return false;
  return true;
}

std::string VectorClock::str(unsigned MinEntries) const {
  unsigned NumShown = std::max<unsigned>(size(), MinEntries);
  std::string Out = "<";
  for (unsigned I = 0; I != NumShown; ++I) {
    if (I != 0)
      Out += ',';
    Out += std::to_string(get(I));
  }
  Out += '>';
  return Out;
}
