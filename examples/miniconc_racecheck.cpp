//===----------------------------------------------------------------------===//
//
// End-to-end pipeline on real programs: compile a MiniConc source file,
// execute it under the deterministic scheduler (the repository's analogue
// of RoadRunner instrumenting a JVM), and run FastTrack on the emitted
// event stream — across several schedules.
//
// Usage:
//   miniconc_racecheck               # run the two built-in demo programs
//   miniconc_racecheck FILE.mc [N]   # check FILE across N seeds (def. 10)
//   miniconc_racecheck --shards S ...  # sharded parallel replay across S
//                                      # workers (0 = all cores; at
//                                      # most 64)
//   miniconc_racecheck --dump-analysis ...  # print the static elision
//                                      # classification per access site
//   miniconc_racecheck --no-elide ...  # keep every access instrumented
//                                      # (disable the static elision pass)
//
//===----------------------------------------------------------------------===//

#include "analysis/Elision.h"
#include "core/FastTrack.h"
#include "framework/ParallelReplay.h"
#include "lang/Interp.h"
#include "lang/Sema.h"
#include "trace/TraceStats.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ft;
using namespace ft::lang;

namespace {

/// -1: serial replay(). Otherwise parallelReplay with this NumShards
/// (0 = one shard per hardware thread).
int ShardsFlag = -1;

/// --no-elide: run every access instrumented (the pre-analysis event
/// stream). Elision never changes which variables are reported racy —
/// the flag exists to demonstrate that, and to measure the saving.
bool NoElide = false;

/// --dump-analysis: print the per-site classification table before
/// checking.
bool DumpAnalysis = false;

/// Replays through FastTrack with the engine selected by --shards.
void checkTrace(const Trace &T, FastTrack &Detector) {
  if (ShardsFlag < 0) {
    replay(T, Detector);
    return;
  }
  ParallelReplayOptions Options;
  Options.NumShards = static_cast<unsigned>(ShardsFlag);
  parallelReplay(T, Detector, Options);
}

const char *BuggyBank = R"(
// A bank with a deposit path that forgets the lock.
shared balance;
lock m;

fn teller(rounds) {
  local i = 0;
  while (i < rounds) {
    sync (m) { balance = balance + 10; }
    i = i + 1;
  }
}

fn hastyTeller(rounds) {
  local i = 0;
  while (i < rounds) {
    balance = balance + 10;   // RACE: no lock
    i = i + 1;
  }
}

fn main() {
  let a = spawn teller(25);
  let b = spawn hastyTeller(25);
  join a; join b;
  print balance;
}
)";

const char *SafePipeline = R"(
// A race-free pipeline: data handed through a volatile flag and a
// barrier-synchronized reduction.
shared data[8];
shared sum;
volatile ready;
lock m;
barrier phase(3);

fn producer() {
  local i = 0;
  while (i < 8) { data[i] = i * 3; i = i + 1; }
  ready = 1;
  await phase;
}

fn consumer() {
  while (ready == 0) { }      // spin on the volatile
  local i = 0;
  while (i < 8) {
    sync (m) { sum = sum + data[i]; }
    i = i + 1;
  }
  await phase;
}

fn main() {
  let p = spawn producer();
  let c = spawn consumer();
  await phase;
  join p; join c;
  print sum;
}
)";

/// Compiles and runs \p Source across \p Seeds schedules, checking each
/// emitted trace with FastTrack.
int checkProgram(const std::string &Title, const std::string &Source,
                 unsigned Seeds) {
  std::printf("=== %s ===\n", Title.c_str());

  // Compile once; the elision pass stamps the AST, so every seed below
  // replays the same plan.
  Program P;
  std::vector<Diag> Diags;
  if (!compileProgram(Source, P, Diags)) {
    for (const Diag &D : Diags)
      std::printf("compile error: %s\n", toString(D).c_str());
    return 1;
  }
  analysis::AnalysisResult Analysis = analysis::analyzeProgram(P);
  analysis::ElisionOptions ElideOpts;
  ElideOpts.Enabled = !NoElide;
  analysis::ElisionPlan Plan = analysis::planElision(P, Analysis, ElideOpts);
  if (DumpAnalysis)
    std::printf("%s", analysis::renderAnalysisTable(Analysis).c_str());
  std::printf("%s\n", analysis::toString(Plan).c_str());

  unsigned RacySchedules = 0;
  uint64_t Elided = 0, Emitted = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    InterpOptions Options;
    Options.Seed = Seed;
    InterpResult Run = interpret(P, Options);
    if (!Run.Ok) {
      std::printf("runtime error: %s\n", toString(Run.Error).c_str());
      return 1;
    }
    Elided += Run.EventsElided;
    Emitted += Run.EventTrace.size();

    FastTrack Detector;
    checkTrace(Run.EventTrace, Detector);
    if (Seed == 1) {
      TraceStats Stats = computeStats(Run.EventTrace);
      std::printf("schedule 1: %llu events (%.1f%% reads), program output: "
                  "%s",
                  (unsigned long long)Stats.total(), Stats.readPercent(),
                  Run.Output.empty() ? "(none)\n" : Run.Output.c_str());
    }
    if (!Detector.warnings().empty()) {
      ++RacySchedules;
      if (RacySchedules == 1)
        for (const RaceWarning &W : Detector.warnings())
          std::printf("seed %llu: %s\n", (unsigned long long)Seed,
                      toString(W).c_str());
    }
  }
  if (Elided != 0)
    std::printf("elision saved %llu of %llu access+sync events across %u "
                "schedules (%.1f%%).\n",
                (unsigned long long)Elided,
                (unsigned long long)(Elided + Emitted), Seeds,
                100.0 * (double)Elided / (double)(Elided + Emitted));
  std::printf("%u of %u schedules produced race warnings.\n\n",
              RacySchedules, Seeds);
  return 0;
}

std::string readFile(const char *Path, bool &Ok) {
  std::FILE *File = std::fopen(Path, "rb");
  if (!File) {
    Ok = false;
    return {};
  }
  std::string Text;
  char Buf[1 << 14];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Text.append(Buf, Got);
  std::fclose(File);
  Ok = true;
  return Text;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<const char *> Args;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--shards") {
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
    if (std::string(Argv[I]) == "--no-elide") {
      NoElide = true;
      continue;
    }
    if (std::string(Argv[I]) == "--dump-analysis") {
      DumpAnalysis = true;
      continue;
    }
    Args.push_back(Argv[I]);
  }

  if (!Args.empty()) {
    bool Ok = true;
    std::string Source = readFile(Args[0], Ok);
    if (!Ok) {
      std::fprintf(stderr, "error: cannot read '%s'\n", Args[0]);
      return 1;
    }
    unsigned Seeds = Args.size() > 1 ? std::atoi(Args[1]) : 10;
    return checkProgram(Args[0], Source, Seeds ? Seeds : 10);
  }

  std::printf("MiniConc race checking demo\n===========================\n\n");
  int Status = checkProgram("buggy bank (one teller forgets the lock)",
                            BuggyBank, 10);
  Status |= checkProgram("safe pipeline (volatile + lock + barrier)",
                         SafePipeline, 10);
  std::printf("Note how the racy program may still print the right total "
              "on lucky schedules\n— FastTrack flags it on every schedule "
              "that exhibits the unordered accesses.\n");
  return Status;
}
