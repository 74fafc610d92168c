#include "hb/RaceOracle.h"

#include <algorithm>

using namespace ft;

namespace {

/// An access record used for per-variable pair enumeration.
struct Access {
  size_t Index;
  ThreadId Thread;
  bool IsWrite;
};

} // namespace

std::vector<RacePair> ft::findRaces(const Trace &T,
                                    const RaceOracleOptions &Options) {
  HappensBefore Hb(T);

  // Bucket accesses by variable.
  std::vector<std::vector<Access>> ByVar(T.numVars());
  for (size_t I = 0, E = T.size(); I != E; ++I) {
    const Operation &Op = T[I];
    if (!isAccess(Op.Kind))
      continue;
    ByVar[Op.Target].push_back({I, Op.Thread, Op.Kind == OpKind::Write});
  }

  std::vector<RacePair> Races;
  auto atLimit = [&] {
    return Options.MaxPairs != 0 && Races.size() >= Options.MaxPairs;
  };

  for (VarId X = 0; X != ByVar.size() && !atLimit(); ++X) {
    const std::vector<Access> &Accesses = ByVar[X];
    bool Found = false;
    for (size_t J = 1; J < Accesses.size() && !Found && !atLimit(); ++J) {
      const Access &B = Accesses[J];
      for (size_t I = 0; I != J; ++I) {
        const Access &A = Accesses[I];
        if (!A.IsWrite && !B.IsWrite)
          continue; // read-read pairs never conflict
        if (Hb.happensBefore(A.Index, B.Index))
          continue;
        Races.push_back({X, A.Index, B.Index,
                         T[A.Index].Kind, T[B.Index].Kind, A.Thread,
                         B.Thread});
        if (Options.FirstPerVar) {
          Found = true;
          break;
        }
        if (atLimit())
          break;
      }
    }
  }

  // Order by the position of the later access, then the earlier one, to
  // give a deterministic, replay-ordered report.
  std::sort(Races.begin(), Races.end(),
            [](const RacePair &A, const RacePair &B) {
              if (A.SecondIndex != B.SecondIndex)
                return A.SecondIndex < B.SecondIndex;
              return A.FirstIndex < B.FirstIndex;
            });
  return Races;
}

std::vector<VarId> ft::racyVars(const Trace &T) {
  RaceOracleOptions Options;
  Options.FirstPerVar = true;
  std::vector<VarId> Vars;
  for (const RacePair &Race : findRaces(T, Options))
    Vars.push_back(Race.Var);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

std::vector<VarId> ft::racyVarsLinear(const Trace &T) {
  HappensBefore Hb(T);
  constexpr size_t None = ~size_t(0);
  std::vector<size_t> LastWrite(T.numVars(), None);
  /// Per variable: (thread, index of its last read since LastWrite).
  std::vector<std::vector<std::pair<ThreadId, size_t>>> Reads(T.numVars());
  std::vector<bool> Racy(T.numVars(), false);
  for (size_t I = 0, E = T.size(); I != E; ++I) {
    const Operation &Op = T[I];
    if (!isAccess(Op.Kind) || Racy[Op.Target])
      continue;
    const VarId X = Op.Target;
    bool Race = LastWrite[X] != None && !Hb.happensBefore(LastWrite[X], I);
    std::vector<std::pair<ThreadId, size_t>> &R = Reads[X];
    if (Op.Kind == OpKind::Read) {
      auto It = std::find_if(R.begin(), R.end(), [&](const auto &P) {
        return P.first == Op.Thread;
      });
      if (It == R.end())
        R.push_back({Op.Thread, I});
      else
        It->second = I;
    } else {
      for (const auto &P : R)
        Race = Race || !Hb.happensBefore(P.second, I);
      R.clear();
      LastWrite[X] = I;
    }
    Racy[X] = Race;
  }
  std::vector<VarId> Vars;
  for (VarId X = 0; X != Racy.size(); ++X)
    if (Racy[X])
      Vars.push_back(X);
  return Vars;
}

bool ft::isRaceFree(const Trace &T) {
  RaceOracleOptions Options;
  Options.MaxPairs = 1;
  return findRaces(T, Options).empty();
}
