//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table/figure harnesses: environment knobs,
/// repeated timed replays, and slowdown computation against the EMPTY
/// tool (the paper's normalization baseline).
///
/// Knobs:
///   FT_BENCH_SIZE  — workload size factor (default 1.0)
///   FT_BENCH_REPS  — timing repetitions (default 3); benches report the
///                    best of them, or the median with min and max
///                    (Spread) where they say so
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_BENCH_BENCHUTIL_H
#define FASTTRACK_BENCH_BENCHUTIL_H

#include "framework/Replay.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ft::bench {

inline double sizeFactor() {
  if (const char *Env = std::getenv("FT_BENCH_SIZE"))
    return std::atof(Env) > 0 ? std::atof(Env) : 4.0;
  // Default 4x the generators' base volume: large enough for stable
  // wall-clock measurements, small enough to finish in seconds.
  return 4.0;
}

inline unsigned repetitions() {
  if (const char *Env = std::getenv("FT_BENCH_REPS")) {
    int Reps = std::atoi(Env);
    if (Reps > 0)
      return static_cast<unsigned>(Reps);
  }
  return 3;
}

/// Replays \p T through \p Checker `repetitions()` times (clearing
/// warnings in between) and returns the result of the fastest run.
inline ReplayResult timedReplay(const Trace &T, Tool &Checker,
                                const ReplayOptions &Options = {}) {
  ReplayResult Best;
  for (unsigned Rep = 0, Reps = repetitions(); Rep != Reps; ++Rep) {
    Checker.clearWarnings();
    ReplayResult Result = replay(T, Checker, Options);
    if (Rep == 0 || Result.Seconds < Best.Seconds)
      Best = Result;
  }
  return Best;
}

/// Median, min and max of a set of timings.
struct Spread {
  double Median = 0;
  double Min = 0;
  double Max = 0;
};

inline Spread spreadOf(std::vector<double> Samples) {
  Spread Out;
  if (Samples.empty())
    return Out;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  Out.Median = Samples.size() % 2 ? Samples[Mid]
                                  : (Samples[Mid - 1] + Samples[Mid]) / 2;
  Out.Min = Samples.front();
  Out.Max = Samples.back();
  return Out;
}

/// Prints a section banner.
inline void banner(const std::string &Title) {
  std::printf("\n==== %s ====\n\n", Title.c_str());
}

/// The machine-readable side channel every bench binary offers: pass
/// `--json out.json` (or `--json=out.json`) and the headline metrics are
/// written as one JSON document next to the human-readable tables, so CI
/// and future PRs can diff perf without scraping stdout. Without the
/// flag, write() is a successful no-op.
class BenchReport {
public:
  BenchReport(std::string BenchName, int Argc, char **Argv)
      : Name(std::move(BenchName)) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--json" && I + 1 < Argc)
        Path = Argv[++I];
      else if (Arg.rfind("--json=", 0) == 0)
        Path = Arg.substr(7);
    }
  }

  /// Records one named measurement (e.g. "fasttrack_ns_per_event").
  void metric(const std::string &MetricName, double Value,
              const std::string &Unit = std::string()) {
    Metrics.push_back({MetricName, Value, Unit});
  }

  /// Records \p S as three metrics: \p MetricName (the median) plus
  /// MetricName_min and MetricName_max.
  void spread(const std::string &MetricName, const Spread &S,
              const std::string &Unit = std::string()) {
    metric(MetricName, S.Median, Unit);
    metric(MetricName + "_min", S.Min, Unit);
    metric(MetricName + "_max", S.Max, Unit);
  }

  /// Writes the document when --json was requested. Returns false on I/O
  /// failure so mains can surface it as a nonzero exit for CI.
  bool write() const {
    if (Path.empty())
      return true;
    std::string Out = "{\n  \"bench\": \"";
    appendEscaped(Out, Name);
    Out += "\",\n  \"size_factor\": " + number(sizeFactor()) +
           ",\n  \"reps\": " + std::to_string(repetitions()) +
           ",\n  \"metrics\": [";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      Out += I ? ",\n    {\"name\": \"" : "\n    {\"name\": \"";
      appendEscaped(Out, Metrics[I].Name);
      Out += "\", \"value\": " + number(Metrics[I].Value);
      if (!Metrics[I].Unit.empty()) {
        Out += ", \"unit\": \"";
        appendEscaped(Out, Metrics[I].Unit);
        Out += "\"";
      }
      Out += "}";
    }
    Out += "\n  ]\n}\n";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   Path.c_str());
      return false;
    }
    bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
    Ok = std::fclose(F) == 0 && Ok;
    if (!Ok)
      std::fprintf(stderr, "error: short write to %s\n", Path.c_str());
    return Ok;
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };

  static std::string number(double Value) {
    if (!std::isfinite(Value))
      return "null"; // JSON has no NaN/Inf
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    return Buffer;
  }

  static void appendEscaped(std::string &Out, const std::string &S) {
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
        Out += Buffer;
        continue;
      }
      Out += C;
    }
  }

  std::string Name;
  std::string Path;
  std::vector<Metric> Metrics;
};

} // namespace ft::bench

#endif // FASTTRACK_BENCH_BENCHUTIL_H
