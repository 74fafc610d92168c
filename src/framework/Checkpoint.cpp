#include "framework/Checkpoint.h"

#include "framework/ShardableTool.h"
#include "support/ByteStream.h"
#include "support/Stopwatch.h"
#include "trace/ReentrancyFilter.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace ft;

namespace {

constexpr uint32_t CheckpointMagic = 0x4654434b; // 'FTCK'
constexpr uint32_t CheckpointVersion = 1;

void hashBytes(uint64_t &H, const void *Data, size_t Len) {
  H = fnv1a(std::string_view(static_cast<const char *>(Data), Len), H);
}

void hashU32(uint64_t &H, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  hashBytes(H, Buf, 4);
}

/// Fingerprints the trace *and* the replay configuration: a checkpoint is
/// only meaningful against the exact event stream it was cut from.
uint64_t traceFingerprint(const Trace &T, const ReplayOptions &Options) {
  uint64_t H = fnv1a("FTCK-fingerprint");
  hashU32(H, static_cast<uint32_t>(T.size()));
  hashU32(H, T.numThreads());
  hashU32(H, T.numVars());
  hashU32(H, T.numLocks());
  hashU32(H, T.numVolatiles());
  for (size_t I = 0, E = T.size(); I != E; ++I) {
    const Operation &Op = T[I];
    hashU32(H, static_cast<uint32_t>(Op.Kind));
    hashU32(H, Op.Thread);
    hashU32(H, Op.Target);
    if (Op.Kind == OpKind::Barrier)
      for (ThreadId U : T.barrierSet(Op.Target))
        hashU32(H, U);
  }
  hashU32(H, static_cast<uint32_t>(Options.Gran));
  hashU32(H, Options.DefaultFieldsPerObject);
  hashU32(H, Options.FilterReentrantLocks);
  if (Options.VarToObject) {
    hashU32(H, static_cast<uint32_t>(Options.VarToObject->size()));
    for (uint32_t V : *Options.VarToObject)
      hashU32(H, V);
  }
  return H;
}

/// The mutable replay cursor a checkpoint carries.
struct Cursor {
  uint64_t NextOp = 0;
  uint64_t Events = 0;
  uint64_t AccessesPassed = 0;
};

bool writeCheckpoint(const std::string &Path, uint64_t Fingerprint,
                     const Tool &Checker, const ShardableTool &Shadow,
                     const ReentrancyFilter &Reentrancy, const Cursor &Cur,
                     std::string &Error) {
  ByteWriter Writer;
  Writer.u32(CheckpointMagic);
  Writer.u32(CheckpointVersion);
  Writer.u64(Fingerprint);
  Writer.str(Checker.name());
  Writer.u64(Cur.NextOp);
  Writer.u64(Cur.Events);
  Writer.u64(Cur.AccessesPassed);
  Reentrancy.snapshot(Writer);
  const std::vector<RaceWarning> &Warnings = Checker.warnings();
  Writer.u64(Warnings.size());
  for (const RaceWarning &W : Warnings) {
    Writer.u32(W.Var);
    Writer.u64(W.OpIndex);
    Writer.u32(W.CurrentThread);
    Writer.u8(static_cast<uint8_t>(W.CurrentKind));
    Writer.u32(W.PriorThread);
    Writer.u8(static_cast<uint8_t>(W.PriorKind));
    Writer.str(W.Detail);
  }
  ByteWriter ShadowWriter;
  Shadow.snapshotShadow(ShadowWriter);
  Writer.str(ShadowWriter.bytes());
  Writer.u64(Writer.checksum());

  std::string Tmp = Path + ".tmp";
  std::FILE *File = std::fopen(Tmp.c_str(), "wb");
  if (!File) {
    Error = "cannot open '" + Tmp + "' for writing";
    return false;
  }
  std::string_view Bytes = Writer.bytes();
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), File) == Bytes.size();
  Ok = std::fclose(File) == 0 && Ok;
  if (!Ok) {
    Error = "short write to '" + Tmp + "'";
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "cannot rename '" + Tmp + "' into place";
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

/// Restores \p Checker / \p Reentrancy / \p Cur from the image at \p Path.
/// \returns false with \p Reason empty when no file exists (silent fresh
/// start) or with a non-empty \p Reason when the image is unusable.
bool tryRestore(const std::string &Path, uint64_t Fingerprint, const Trace &T,
                Tool &Checker, ShardableTool &Shadow,
                ReentrancyFilter &Reentrancy, Cursor &Cur,
                std::string &Reason) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false; // No checkpoint yet; not an error.
  std::string Data;
  char Buf[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Data.append(Buf, Got);
  bool ReadOk = std::ferror(File) == 0;
  std::fclose(File);
  if (!ReadOk) {
    Reason = "read error";
    return false;
  }
  if (Data.size() < 8) {
    Reason = "truncated image";
    return false;
  }

  uint64_t Stored = 0;
  std::memcpy(&Stored, Data.data() + Data.size() - 8, 8);
  if (fnv1a(std::string_view(Data.data(), Data.size() - 8)) != Stored) {
    Reason = "checksum mismatch (corrupt or truncated image)";
    return false;
  }

  ByteReader Reader(std::string_view(Data.data(), Data.size() - 8));
  if (Reader.u32() != CheckpointMagic) {
    Reason = "bad magic";
    return false;
  }
  if (uint32_t V = Reader.u32(); V != CheckpointVersion) {
    Reason = "unsupported format version " + std::to_string(V);
    return false;
  }
  if (Reader.u64() != Fingerprint) {
    Reason = "trace/configuration fingerprint mismatch";
    return false;
  }
  if (Reader.str() != Checker.name()) {
    Reason = "checkpoint was cut by a different tool";
    return false;
  }
  Cur.NextOp = Reader.u64();
  Cur.Events = Reader.u64();
  Cur.AccessesPassed = Reader.u64();
  if (Reader.failed() || Cur.NextOp > T.size()) {
    Reason = "cursor out of range";
    return false;
  }
  if (!Reentrancy.restore(Reader)) {
    Reason = "malformed lock-filter state";
    return false;
  }
  uint64_t NumWarnings = Reader.u64();
  if (Reader.failed() || NumWarnings > Reader.remaining()) {
    Reason = "malformed warning list";
    return false;
  }
  std::vector<RaceWarning> Warnings;
  Warnings.reserve(NumWarnings);
  for (uint64_t I = 0; I != NumWarnings; ++I) {
    RaceWarning W;
    W.Var = Reader.u32();
    W.OpIndex = Reader.u64();
    W.CurrentThread = Reader.u32();
    W.CurrentKind = static_cast<OpKind>(Reader.u8());
    W.PriorThread = Reader.u32();
    W.PriorKind = static_cast<OpKind>(Reader.u8());
    W.Detail = Reader.str();
    Warnings.push_back(std::move(W));
  }
  std::string ShadowBlob = Reader.str();
  if (Reader.failed()) {
    Reason = "malformed image";
    return false;
  }
  ByteReader ShadowReader{std::string_view(ShadowBlob)};
  if (!Shadow.restoreShadow(ShadowReader)) {
    Reason = "malformed shadow state";
    return false;
  }
  Checker.clearWarnings();
  Checker.adoptWarnings(Warnings);
  return true;
}

} // namespace

CheckpointedReplayResult ft::replayCheckpointed(const Trace &T, Tool &Checker,
                                                const ReplayOptions &Replay,
                                                const CheckpointOptions &Ck) {
  CheckpointedReplayResult Out;
  GranularityMap Map = GranularityMap::make(Replay);
  ToolContext Context = makeToolContext(T, Map);

  auto *Shadow = dynamic_cast<ShardableTool *>(&Checker);
  bool CanCheckpoint =
      !Ck.Path.empty() && Shadow && Shadow->supportsCheckpoint();
  if (!Ck.Path.empty() && !CanCheckpoint)
    Out.Diags.push_back({StatusCode::CheckpointError, Severity::Warning, 0,
                         NoOpIndex,
                         std::string(Checker.name()) +
                             " does not support checkpointing; replaying "
                             "without checkpoints"});

  uint64_t Fingerprint = CanCheckpoint ? traceFingerprint(T, Replay) : 0;

  ClockStats Before = clockStats();
  Stopwatch Watch;
  Checker.begin(Context);

  ReentrancyFilter Reentrancy(T.numThreads(), T.numLocks());
  Cursor Cur;

  if (CanCheckpoint && Ck.Resume) {
    std::string Reason;
    if (tryRestore(Ck.Path, Fingerprint, T, Checker, *Shadow, Reentrancy, Cur,
                   Reason)) {
      Out.Resumed = true;
      Out.ResumedAtOp = Cur.NextOp;
      Out.Diags.push_back({StatusCode::Ok, Severity::Note, 0,
                           static_cast<size_t>(Cur.NextOp),
                           "resumed from '" + Ck.Path + "' at operation " +
                               std::to_string(Cur.NextOp)});
    } else if (!Reason.empty()) {
      // A failed restore may have partially mutated the tool: reset it.
      Checker.begin(Context);
      Checker.clearWarnings();
      Reentrancy = ReentrancyFilter(T.numThreads(), T.numLocks());
      Cur = Cursor();
      Out.Diags.push_back({StatusCode::CheckpointError, Severity::Warning, 0,
                           NoOpIndex,
                           "ignoring checkpoint '" + Ck.Path +
                               "': " + Reason + "; starting from scratch"});
    }
  }

  // Segments end where the loop must stop to act: a checkpoint write at
  // each multiple of EveryOps, a tracker sample before each multiple of
  // BudgetCheckEveryOps (as replay() takes them), and the injected crash.
  const size_t E = T.size();
  const uint64_t WriteEvery = CanCheckpoint ? Ck.EveryOps : 0;
  MemoryTracker *const Tracker = Replay.BudgetTracker;
  const uint64_t ProbeEvery = std::max(1u, Replay.BudgetCheckEveryOps);
  const uint64_t OpsLeft = E - Cur.NextOp;
  const size_t CrashAt =
      Ck.InjectCrashAfterOps != 0 && Ck.InjectCrashAfterOps <= OpsLeft
          ? static_cast<size_t>(Cur.NextOp + Ck.InjectCrashAfterOps)
          : E + 1;
  bool Crashed = false;

  for (size_t I = Cur.NextOp; I != E && !Crashed;) {
    if (Tracker && I != 0 && I % ProbeEvery == 0)
      Tracker->sampleLive(Checker.shadowBytes());
    size_t To = std::min(E, CrashAt);
    if (Tracker)
      To = detail::segmentEnd(I, ProbeEvery, To);
    if (WriteEvery != 0)
      To = detail::segmentEnd(I, WriteEvery, To);
    detail::replayLoop(
        T, Replay, Map, Reentrancy, I, To,
        [&Checker](OpKind Kind, ThreadId Thread, VarId X, size_t At) {
          return Kind == OpKind::Read ? Checker.onRead(Thread, X, At)
                                      : Checker.onWrite(Thread, X, At);
        },
        [&](const Operation &Op, size_t At) {
          dispatchSyncOp(Checker, T, Op, At);
        },
        Cur.Events, Cur.AccessesPassed);
    I = To;
    Cur.NextOp = I;

    if (WriteEvery != 0 && I % WriteEvery == 0 && I != E) {
      std::string Error;
      if (writeCheckpoint(Ck.Path, Fingerprint, Checker, *Shadow, Reentrancy,
                          Cur, Error))
        ++Out.CheckpointsWritten;
      else
        Out.Diags.push_back({StatusCode::IoError, Severity::Warning, 0,
                             static_cast<size_t>(Cur.NextOp),
                             "checkpoint write failed: " + Error +
                                 "; replay continues"});
    }
    Crashed = I == CrashAt;
  }

  if (Crashed) {
    // Simulated kill: no end() hook, no final state flush. Whatever
    // checkpoint was last renamed into place is what a resume will see.
    Out.St = Status::error(StatusCode::Cancelled,
                           "injected crash after " +
                               std::to_string(Ck.InjectCrashAfterOps) +
                               " operations");
  } else {
    Checker.end();
    if (CanCheckpoint && !Ck.KeepOnSuccess)
      std::remove(Ck.Path.c_str());
  }

  Out.Result.Seconds = Watch.seconds();
  Out.Result.Events = Cur.Events;
  Out.Result.AccessesPassed = Cur.AccessesPassed;
  Out.Result.Clocks = clockStats() - Before;
  Out.Result.ShadowBytes = Checker.shadowBytes();
  Out.Result.NumWarnings = Checker.warnings().size();
  Out.Result.StoppedAtOp = static_cast<size_t>(Cur.NextOp);
  return Out;
}
