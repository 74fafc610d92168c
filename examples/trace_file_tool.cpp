//===----------------------------------------------------------------------===//
//
// racecheck: a small command-line front end over the trace text format —
// analyze recorded executions from any source with any of the detectors.
//
// Usage:
//   trace_file_tool                     # self-demo on a generated file
//   trace_file_tool FILE.trc [tool...]  # e.g. trace_file_tool t.trc
//                                       #      fasttrack eraser djit+
//   trace_file_tool --shards N FILE.trc [tool...]
//                                       # sharded parallel replay across
//                                       # N workers (0 = all cores; at
//                                       # most 64)
//   trace_file_tool --salvage FILE.trc  # skip malformed records instead
//                                       # of aborting on the first error
//   trace_file_tool --stats FILE.trc    # operation mix + instrumentation
//                                       # counters only; no detector runs
//   trace_file_tool --checkpoint-every N [--checkpoint-file P] FILE.trc
//                                       # checkpoint the analysis every N
//                                       # ops; a rerun resumes from the
//                                       # last checkpoint (default P:
//                                       # FILE.trc.ckpt)
//   trace_file_tool --mem-budget BYTES FILE.trc
//                                       # shadow-memory budget held by the
//                                       # tool's governed shadow table:
//                                       # cold pages are summarized to
//                                       # page granularity instead of
//                                       # dying (suffix K/M/G ok)
//
//===----------------------------------------------------------------------===//

#include "core/ToolRegistry.h"
#include "framework/Checkpoint.h"
#include "framework/ParallelReplay.h"
#include "shadow/ShadowTable.h"
#include "support/Format.h"
#include "support/MemoryTracker.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include "trace/TraceValidator.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ft;

namespace {

/// -1: serial replay(). Otherwise the NumShards passed to parallelReplay
/// (0 = one shard per hardware thread).
int ShardsFlag = -1;
bool SalvageFlag = false;
bool StatsFlag = false;
uint64_t CheckpointEvery = 0;   // 0 = checkpointing off
std::string CheckpointFile;     // empty = derive from the trace path
uint64_t MemBudget = 0;         // 0 = unlimited

void printDiags(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    std::fprintf(stderr, "%s\n", toString(D).c_str());
}

int analyze(const std::string &Path, const std::vector<std::string> &Tools) {
  Trace T;
  ParseOptions ParseOpts;
  ParseOpts.Salvage = SalvageFlag;
  ParseReport Report = loadTraceFile(Path, T, ParseOpts);
  printDiags(Report.Diags);
  if (!Report.ok()) {
    // Only print the flat status when no diagnostic already said it
    // (e.g. file-open failures produce a Status but no diag list).
    bool Rendered = false;
    for (const Diagnostic &D : Report.Diags)
      Rendered |= D.Sev == Severity::Error || D.Sev == Severity::Fatal;
    if (!Rendered)
      std::fprintf(stderr, "error: %s\n", Report.St.toString().c_str());
    return 1;
  }

  auto Violations = validateTrace(T);
  std::printf("%s: %zu events, %u threads, %u variables, %u locks\n",
              Path.c_str(), T.size(), T.numThreads(), T.numVars(),
              T.numLocks());
  if (!Violations.empty()) {
    std::printf("warning: trace is not feasible (%zu violations); first: "
                "op %zu: %s\n",
                Violations.size(), Violations[0].OpIndex,
                Violations[0].Message.c_str());
  }
  std::printf("%s", computeStats(T).summary().c_str());

  if (StatsFlag) {
    // Instrumentation accounting, no detector: what would actually reach
    // a tool after the re-entrancy filter, and who produced the events.
    uint64_t Stripped = countReentrantLockOps(T);
    std::printf("\nre-entrant lock ops  %s (filtered before dispatch)\n"
                "dispatched ops       %s\n",
                withCommas(Stripped).c_str(),
                withCommas(T.size() - Stripped).c_str());
    std::vector<uint64_t> PerThread = countOpsPerThread(T);
    std::printf("events per thread   ");
    for (size_t I = 0; I != PerThread.size(); ++I)
      std::printf(" t%zu:%s", I, withCommas(PerThread[I]).c_str());
    std::printf("\n");
    return 0;
  }

  for (const std::string &Name : Tools) {
    auto Detector = createTool(Name);
    if (!Detector) {
      std::fprintf(stderr, "error: unknown tool '%s' (known:", Name.c_str());
      for (const std::string &Known : registeredToolNames())
        std::fprintf(stderr, " %s", Known.c_str());
      std::fprintf(stderr, ")\n");
      return 1;
    }
    if (CheckpointEvery != 0) {
      if (ShardsFlag >= 0)
        std::fprintf(stderr, "warning: --shards is ignored under "
                             "--checkpoint-every (checkpointed replay is "
                             "serial)\n");
      CheckpointOptions Ck;
      Ck.Path = CheckpointFile.empty() ? Path + ".ckpt" : CheckpointFile;
      Ck.EveryOps = CheckpointEvery;
      CheckpointedReplayResult Result = replayCheckpointed(T, *Detector, {}, Ck);
      printDiags(Result.Diags);
      std::printf("\n[%s] %zu warning(s) in %.3fs (", Detector->name(),
                  Detector->warnings().size(), Result.Result.Seconds);
      if (Result.Resumed)
        std::printf("resumed at op %llu, ",
                    static_cast<unsigned long long>(Result.ResumedAtOp));
      std::printf("%llu checkpoint(s) written)\n",
                  static_cast<unsigned long long>(Result.CheckpointsWritten));
    } else if (MemBudget != 0) {
      if (ShardsFlag >= 0)
        std::fprintf(stderr, "warning: --shards is ignored under "
                             "--mem-budget (governed replay is serial)\n");
      // The budget is the tool's own governed shadow table. It has no
      // effect when the tool declines the policy, or when the variable
      // space is small enough for the eagerly backed (ungoverned) table:
      // say so, and report the peak a probe observed instead.
      ShadowMemoryPolicy Policy;
      Policy.Enabled = true;
      Policy.BudgetBytes = MemBudget;
      const bool Accepted = Detector->configureShadowPolicy(Policy);
      const bool Governed = Accepted && T.numVars() > ShadowEagerVarLimit;
      MemoryTracker Tracker;
      ReplayOptions Options;
      if (!Governed)
        Options.BudgetTracker = &Tracker;
      ReplayResult Result = replay(T, *Detector, Options);
      std::printf("\n[%s] %zu warning(s) in %.3fs ", Detector->name(),
                  Detector->warnings().size(), Result.Seconds);
      if (Governed) {
        const ShadowGovernorStats S = Detector->shadowGovernorStats();
        std::printf("(shadow governor: %llu budget trip(s), %llu page(s) "
                    "summarized, high water %llu bytes)\n",
                    static_cast<unsigned long long>(S.BudgetTrips),
                    static_cast<unsigned long long>(S.PagesSummarized),
                    static_cast<unsigned long long>(S.ShadowBytesHighWater));
        if (S.ShadowBytesHighWater > MemBudget)
          std::printf("note: --mem-budget not held: the table peaked at "
                      "%llu bytes, over the %llu-byte budget; it cannot "
                      "shed below its directory and page metadata, nor "
                      "pages touched since the last maintenance tick\n",
                      static_cast<unsigned long long>(S.ShadowBytesHighWater),
                      static_cast<unsigned long long>(MemBudget));
      } else {
        Tracker.sampleLive(Result.ShadowBytes); // the probes may miss the end
        std::printf("(peak shadow %llu bytes)\n",
                    static_cast<unsigned long long>(Tracker.peakBytes()));
        if (!Accepted)
          std::printf("note: --mem-budget not enforced: %s does not "
                      "govern its shadow memory\n",
                      Detector->name());
        else
          std::printf("note: --mem-budget not enforced: %u variables fit "
                      "the eagerly backed shadow table (at most %zu)\n",
                      T.numVars(), ShadowEagerVarLimit);
      }
    } else if (ShardsFlag < 0) {
      ReplayResult Result = replay(T, *Detector);
      std::printf("\n[%s] %zu warning(s) in %.3fs\n", Detector->name(),
                  Detector->warnings().size(), Result.Seconds);
    } else {
      ParallelReplayOptions Options;
      Options.NumShards = static_cast<unsigned>(ShardsFlag);
      ParallelReplayResult Result = parallelReplay(T, *Detector, Options);
      std::printf("\n[%s] %zu warning(s) in %.3fs ", Detector->name(),
                  Detector->warnings().size(), Result.Total.Seconds);
      if (Result.Sharded)
        std::printf("(%u shards)\n", Result.Shards);
      else
        std::printf("(serial)\n");
    }
    for (const RaceWarning &W : Detector->warnings())
      std::printf("  %s\n", toString(W).c_str());
  }
  return 0;
}

/// Parses "1048576", "64K", "16M", "2G" (case-insensitive suffixes).
bool parseBytes(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text)
    return false;
  uint64_t Mult = 1;
  if (*End == 'k' || *End == 'K')
    Mult = 1ull << 10, ++End;
  else if (*End == 'm' || *End == 'M')
    Mult = 1ull << 20, ++End;
  else if (*End == 'g' || *End == 'G')
    Mult = 1ull << 30, ++End;
  if (*End != '\0')
    return false;
  Out = V * Mult;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--shards") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --shards needs a count (0 = all "
                             "cores)\n");
        return 1;
      }
      ShardsFlag = std::atoi(Argv[++I]);
      if (ShardsFlag < 0) {
        std::fprintf(stderr, "error: invalid shard count '%s'\n", Argv[I]);
        return 1;
      }
      continue;
    }
    if (Arg == "--salvage") {
      SalvageFlag = true;
      continue;
    }
    if (Arg == "--stats") {
      StatsFlag = true;
      continue;
    }
    if (Arg == "--checkpoint-every") {
      if (I + 1 >= Argc || !parseBytes(Argv[I + 1], CheckpointEvery) ||
          CheckpointEvery == 0) {
        std::fprintf(stderr,
                     "error: --checkpoint-every needs an op count > 0\n");
        return 1;
      }
      ++I;
      continue;
    }
    if (Arg == "--checkpoint-file") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --checkpoint-file needs a path\n");
        return 1;
      }
      CheckpointFile = Argv[++I];
      continue;
    }
    if (Arg == "--mem-budget") {
      if (I + 1 >= Argc || !parseBytes(Argv[I + 1], MemBudget) ||
          MemBudget == 0) {
        std::fprintf(stderr, "error: --mem-budget needs a byte count > 0 "
                             "(suffix K/M/G ok)\n");
        return 1;
      }
      ++I;
      continue;
    }
    Args.push_back(std::move(Arg));
  }

  if (!Args.empty()) {
    std::vector<std::string> Tools(Args.begin() + 1, Args.end());
    if (Tools.empty())
      Tools.push_back("fasttrack");
    return analyze(Args[0], Tools);
  }

  // Self-demo: write a small racy trace to a file, then analyze it.
  std::printf("trace_file_tool self-demo (pass FILE.trc [tools...] to "
              "analyze your own traces;\n--shards N runs the parallel "
              "sharded engine, see docs/ARCHITECTURE.md)\n\n");
  Trace T = TraceBuilder()
                .fork(0, 1)
                .lockedWr(0, 0, 0)
                .lockedWr(1, 0, 0)
                .wr(0, 1)
                .rd(1, 1) // race on x1
                .join(0, 1)
                .take();
  std::string Path = "demo_trace.trc";
  if (Status St = saveTraceFile(Path, T); !St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 1;
  }
  std::printf("wrote %s:\n%s\n", Path.c_str(), serializeTrace(T).c_str());
  return analyze(Path, {"fasttrack", "djit+", "eraser"});
}
