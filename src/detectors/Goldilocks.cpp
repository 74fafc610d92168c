#include "detectors/Goldilocks.h"

#include "framework/FastPath.h"

#include <algorithm>

using namespace ft;

void DeviceSet::insert(uint64_t Device) {
  auto It = std::lower_bound(Devices.begin(), Devices.end(), Device);
  if (It == Devices.end() || *It != Device)
    Devices.insert(It, Device);
}

bool DeviceSet::contains(uint64_t Device) const {
  return std::binary_search(Devices.begin(), Devices.end(), Device);
}

void Goldilocks::begin(const ToolContext &Context) {
  Log.clear();
  BarrierSets.clear();
  Vars.assign(Context.NumVars, VarShadow());
}

void Goldilocks::onAcquire(ThreadId T, LockId M, size_t) {
  Log.push_back({SyncEvent::Acq, T, M});
}

void Goldilocks::onRelease(ThreadId T, LockId M, size_t) {
  Log.push_back({SyncEvent::Rel, T, M});
}

void Goldilocks::onFork(ThreadId T, ThreadId U, size_t) {
  Log.push_back({SyncEvent::Fork, T, U});
}

void Goldilocks::onJoin(ThreadId T, ThreadId U, size_t) {
  Log.push_back({SyncEvent::Join, T, U});
}

void Goldilocks::onVolatileRead(ThreadId T, VolatileId V, size_t) {
  Log.push_back({SyncEvent::VolRd, T, V});
}

void Goldilocks::onVolatileWrite(ThreadId T, VolatileId V, size_t) {
  Log.push_back({SyncEvent::VolWr, T, V});
}

void Goldilocks::onBarrier(const std::vector<ThreadId> &Threads, size_t) {
  uint32_t Index = BarrierSets.size();
  BarrierSets.push_back(Threads);
  Log.push_back({SyncEvent::Barrier, Threads.front(), Index});
}

void Goldilocks::catchUp(LazySet &LS) {
  for (size_t I = LS.LogPos, E = Log.size(); I != E; ++I) {
    const SyncEvent &Ev = Log[I];
    switch (Ev.K) {
    case SyncEvent::Rel:
      if (LS.Set.contains(DeviceSet::threadDevice(Ev.T)))
        LS.Set.insert(DeviceSet::lockDevice(Ev.Target));
      break;
    case SyncEvent::Acq:
      if (LS.Set.contains(DeviceSet::lockDevice(Ev.Target)))
        LS.Set.insert(DeviceSet::threadDevice(Ev.T));
      break;
    case SyncEvent::Fork:
      if (LS.Set.contains(DeviceSet::threadDevice(Ev.T)))
        LS.Set.insert(DeviceSet::threadDevice(Ev.Target));
      break;
    case SyncEvent::Join:
      if (LS.Set.contains(DeviceSet::threadDevice(Ev.Target)))
        LS.Set.insert(DeviceSet::threadDevice(Ev.T));
      break;
    case SyncEvent::VolWr:
      if (LS.Set.contains(DeviceSet::threadDevice(Ev.T)))
        LS.Set.insert(DeviceSet::volatileDevice(Ev.Target));
      break;
    case SyncEvent::VolRd:
      if (LS.Set.contains(DeviceSet::volatileDevice(Ev.Target)))
        LS.Set.insert(DeviceSet::threadDevice(Ev.T));
      break;
    case SyncEvent::Barrier: {
      const std::vector<ThreadId> &Set = BarrierSets[Ev.Target];
      bool Hit = false;
      for (ThreadId U : Set)
        if (LS.Set.contains(DeviceSet::threadDevice(U))) {
          Hit = true;
          break;
        }
      if (Hit)
        for (ThreadId U : Set)
          LS.Set.insert(DeviceSet::threadDevice(U));
      break;
    }
    }
  }
  LS.LogPos = Log.size();
}

void Goldilocks::resetTo(LazySet &LS, ThreadId T) {
  LS.Set.reset(DeviceSet::threadDevice(T));
  LS.LogPos = Log.size();
}

void Goldilocks::report(ThreadId T, VarId X, size_t OpIndex, OpKind Kind,
                        const char *Detail) {
  RaceWarning W;
  W.Var = X;
  W.OpIndex = OpIndex;
  W.CurrentThread = T;
  W.CurrentKind = Kind;
  W.Detail = Detail;
  reportRace(std::move(W));
}

bool Goldilocks::onRead(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (UnsoundThreadLocal && Shadow.ThreadLocal) {
    if (!Shadow.OwnerKnown) {
      Shadow.Owner = T;
      Shadow.OwnerKnown = true;
      return false;
    }
    if (Shadow.Owner == T)
      return false;
    // Leave thread-local mode, forgetting the owner's accesses (the
    // unsound hand-off that misses the hedc races).
    Shadow.ThreadLocal = false;
    Shadow.WriteSeen = false;
    Shadow.Readers.clear();
  }
  Shadow.ThreadLocal = false;

  if (Shadow.WriteSeen &&
      !Shadow.Write.Set.contains(DeviceSet::threadDevice(T))) {
    // Short-circuit: membership can only grow as events apply, so a hit
    // needs no catch-up. (The original's "cheap checks", PLDI 2007 §4.)
    catchUp(Shadow.Write);
    if (!Shadow.Write.Set.contains(DeviceSet::threadDevice(T)))
      report(T, X, OpIndex, OpKind::Read, "write-read race");
  }

  for (auto &[Reader, LS] : Shadow.Readers)
    if (Reader == T) {
      resetTo(LS, T);
      return true;
    }
  Shadow.Readers.emplace_back(T, LazySet());
  resetTo(Shadow.Readers.back().second, T);
  return true;
}

bool Goldilocks::onWrite(ThreadId T, VarId X, size_t OpIndex) {
  VarShadow &Shadow = Vars[X];
  if (UnsoundThreadLocal && Shadow.ThreadLocal) {
    if (!Shadow.OwnerKnown) {
      Shadow.Owner = T;
      Shadow.OwnerKnown = true;
      return false;
    }
    if (Shadow.Owner == T)
      return false;
    Shadow.ThreadLocal = false;
    Shadow.WriteSeen = false;
    Shadow.Readers.clear();
  }
  Shadow.ThreadLocal = false;

  if (Shadow.WriteSeen &&
      !Shadow.Write.Set.contains(DeviceSet::threadDevice(T))) {
    catchUp(Shadow.Write);
    if (!Shadow.Write.Set.contains(DeviceSet::threadDevice(T)))
      report(T, X, OpIndex, OpKind::Write, "write-write race");
  }
  for (auto &[Reader, LS] : Shadow.Readers) {
    if (Reader == T || LS.Set.contains(DeviceSet::threadDevice(T)))
      continue;
    catchUp(LS);
    if (!LS.Set.contains(DeviceSet::threadDevice(T)))
      report(T, X, OpIndex, OpKind::Write, "read-write race");
  }

  resetTo(Shadow.Write, T);
  Shadow.WriteSeen = true;
  Shadow.Readers.clear();
  return true;
}

size_t Goldilocks::shadowBytes() const {
  size_t Bytes = Log.capacity() * sizeof(SyncEvent);
  for (const auto &Set : BarrierSets)
    Bytes += Set.capacity() * sizeof(ThreadId);
  for (const VarShadow &Shadow : Vars) {
    Bytes += sizeof(VarShadow) + Shadow.Write.Set.memoryBytes();
    for (const auto &[Reader, LS] : Shadow.Readers) {
      (void)Reader;
      Bytes += sizeof(std::pair<ThreadId, LazySet>) + LS.Set.memoryBytes();
    }
  }
  return Bytes;
}

FT_REGISTER_FAST_PATH(::ft::Goldilocks);
