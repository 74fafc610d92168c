//===--- TraceIOTest.cpp - trace text format round trips ------------------===//
//
// Round-trip, diagnostic, salvage-mode, and fuzz-robustness tests for the
// trace text format. The parser is the ingestion boundary of the whole
// pipeline, so besides the happy path this suite feeds it truncated,
// corrupt, and adversarial bytes and asserts it always answers with
// structured diagnostics — never a crash, never silent data loss.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ft;

namespace {

Trace sampleTrace() {
  TraceBuilder B;
  B.fork(0, 1).wr(0, 2).lockedRd(1, 0, 2).volWr(0, 1).volRd(1, 1);
  B.barrier({0, 1}).atomicBegin(1).rd(1, 2).atomicEnd(1).join(0, 1);
  return B.take();
}

/// True when \p Report has at least one diagnostic at \p Sev.
bool hasSeverity(const ParseReport &Report, Severity Sev) {
  for (const Diagnostic &D : Report.Diags)
    if (D.Sev == Sev)
      return true;
  return false;
}

} // namespace

TEST(TraceIO, SerializeProducesOneLinePerOp) {
  Trace T = sampleTrace();
  std::string Text = serializeTrace(T);
  size_t Lines = 0;
  for (char C : Text)
    Lines += C == '\n';
  EXPECT_EQ(Lines, T.size());
}

TEST(TraceIO, RoundTripPreservesOperations) {
  Trace T = sampleTrace();
  std::string Text = serializeTrace(T);
  Trace Parsed;
  ParseReport Report = parseTrace(Text, Parsed);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Report.Records, T.size());
  EXPECT_EQ(Report.Skipped, 0u);
  ASSERT_EQ(Parsed.size(), T.size());
  for (size_t I = 0; I != T.size(); ++I) {
    EXPECT_EQ(Parsed[I].Kind, T[I].Kind) << "op " << I;
    EXPECT_EQ(Parsed[I].Thread, T[I].Thread) << "op " << I;
    if (T[I].Kind == OpKind::Barrier)
      EXPECT_EQ(Parsed.barrierSet(Parsed[I].Target),
                T.barrierSet(T[I].Target));
    else
      EXPECT_EQ(Parsed[I].Target, T[I].Target) << "op " << I;
  }
  EXPECT_EQ(Parsed.numThreads(), T.numThreads());
  EXPECT_EQ(Parsed.numVars(), T.numVars());
}

TEST(TraceIO, ParsesCommentsAndBlankLines) {
  Trace Parsed;
  ParseReport Report = parseTrace("# header\n\n  rd 0 1  # trailing\n\n",
                                  Parsed);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0], rd(0, 1));
}

TEST(TraceIO, ParsesWindowsLineEndings) {
  Trace Parsed;
  EXPECT_TRUE(parseTrace("rd 0 1\r\nwr 1 2\r\n", Parsed).ok());
  EXPECT_EQ(Parsed.size(), 2u);
}

TEST(TraceIO, RejectsUnknownOperation) {
  Trace Parsed;
  ParseReport Report = parseTrace("read 0 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::ParseError);
  ASSERT_EQ(Report.Diags.size(), 1u);
  EXPECT_EQ(Report.Diags[0].Line, 1u);
  EXPECT_EQ(Report.Diags[0].Sev, Severity::Error);
  EXPECT_NE(Report.Diags[0].Message.find("unknown operation"),
            std::string::npos);
}

TEST(TraceIO, RejectsWrongArity) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("rd 0\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 1 2\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("abegin 0 1\n", Parsed).ok());
}

TEST(TraceIO, RejectsBadNumbers) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("rd zero 1\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 -1\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 99999999999\n", Parsed).ok());
}

TEST(TraceIO, RejectsOutOfRangeIds) {
  // Ids at or above MaxEntityId must be rejected: 2^32-1 would alias the
  // NoTarget sentinel, and Trace::numThreads (max id + 1) would wrap.
  Trace Parsed;
  std::string AtLimit = "rd 0 " + std::to_string(MaxEntityId) + "\n";
  ParseReport Report = parseTrace(AtLimit, Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_NE(Report.Diags[0].Message.find("out of range"), std::string::npos);

  EXPECT_FALSE(parseTrace("rd 4294967295 0\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("fork 0 4294967295\n", Parsed).ok());
  EXPECT_FALSE(
      parseTrace("barrier 0 " + std::to_string(MaxEntityId) + "\n", Parsed)
          .ok());

  // Just below the bound parses.
  std::string BelowLimit = "rd 0 " + std::to_string(MaxEntityId - 1) + "\n";
  EXPECT_TRUE(parseTrace(BelowLimit, Parsed).ok());
  EXPECT_EQ(Parsed.numVars(), MaxEntityId);

  // A tighter app-specific bound is honored.
  ParseOptions Tight;
  Tight.MaxId = 100;
  EXPECT_FALSE(parseTrace("rd 0 100\n", Parsed, Tight).ok());
  EXPECT_TRUE(parseTrace("rd 0 99\n", Parsed, Tight).ok());
}

TEST(TraceIO, RejectsDuplicateBarrierThreads) {
  Trace Parsed;
  ParseReport Report = parseTrace("barrier 0 1 2 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_NE(Report.Diags[0].Message.find("duplicate thread id"),
            std::string::npos);
  EXPECT_TRUE(parseTrace("barrier 0 1 2\n", Parsed).ok());
}

TEST(TraceIO, ReportsCorrectLineNumber) {
  Trace Parsed;
  ParseReport Report = parseTrace("rd 0 1\n# ok\nwr 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  ASSERT_EQ(Report.Diags.size(), 1u);
  EXPECT_EQ(Report.Diags[0].Line, 3u);
  EXPECT_NE(Report.St.message().find("line 3"), std::string::npos);
}

TEST(TraceIO, BarrierNeedsThreads) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("barrier\n", Parsed).ok());
}

TEST(TraceIO, SalvageSkipsMalformedRecords) {
  ParseOptions Options;
  Options.Salvage = true;
  Trace Parsed;
  ParseReport Report = parseTrace(
      "rd 0 1\nbogus line\nwr 0 2\nrd 0\nbarrier 1 1\nrd 0 3\n", Parsed,
      Options);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Report.Records, 3u);
  EXPECT_EQ(Report.Skipped, 3u);
  ASSERT_EQ(Parsed.size(), 3u);
  EXPECT_EQ(Parsed[0], rd(0, 1));
  EXPECT_EQ(Parsed[1], wr(0, 2));
  EXPECT_EQ(Parsed[2], rd(0, 3));
  // One Warning per skipped record, anchored to its line, plus a summary.
  unsigned Warnings = 0;
  for (const Diagnostic &D : Report.Diags)
    if (D.Sev == Severity::Warning) {
      ++Warnings;
      EXPECT_NE(D.Line, 0u);
      EXPECT_EQ(D.Code, StatusCode::ParseError);
    }
  EXPECT_EQ(Warnings, 3u);
  EXPECT_TRUE(hasSeverity(Report, Severity::Note));
}

TEST(TraceIO, SalvageErrorBudgetAborts) {
  ParseOptions Options;
  Options.Salvage = true;
  Options.ErrorBudget = 2;
  Trace Parsed;
  ParseReport Report =
      parseTrace("x\ny\nz\nrd 0 1\n", Parsed, Options);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::ParseError);
  EXPECT_NE(Report.St.message().find("budget"), std::string::npos);
  EXPECT_TRUE(hasSeverity(Report, Severity::Fatal));
  // The record after the abort point was never consumed.
  EXPECT_EQ(Report.Records, 0u);
}

TEST(TraceIO, SalvageFlagsTruncatedFinalRecord) {
  ParseOptions Options;
  Options.Salvage = true;
  Trace Parsed;
  // File cut off mid-record: last line lacks both its target and newline.
  ParseReport Report = parseTrace("rd 0 1\nwr 0", Parsed, Options);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report.Records, 1u);
  EXPECT_EQ(Report.Skipped, 1u);
  bool FlaggedTruncation = false;
  for (const Diagnostic &D : Report.Diags)
    FlaggedTruncation |= D.Message.find("truncated") != std::string::npos;
  EXPECT_TRUE(FlaggedTruncation);
}

TEST(TraceIO, FileRoundTrip) {
  Trace T = sampleTrace();
  std::string Path = ::testing::TempDir() + "/ft_trace_io_test.trc";
  Status St = saveTraceFile(Path, T);
  ASSERT_TRUE(St.ok()) << St.toString();
  Trace Loaded;
  ParseReport Report = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Loaded.size(), T.size());
  std::remove(Path.c_str());
}

TEST(TraceIO, LoadMissingFileFails) {
  Trace Loaded;
  ParseReport Report = loadTraceFile("/nonexistent/path.trc", Loaded);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::IoError);
}

TEST(TraceIO, StreamingLoadMatchesInMemoryParse) {
  // Large enough that the trace text spans several 64 KiB read chunks,
  // exercising the partial-line carry between chunks.
  RandomTraceConfig Config;
  Config.Seed = 7;
  Config.NumThreads = 8;
  Config.NumVars = 64;
  Config.OpsPerThread = 4000;
  Config.ChaosProbability = 0.1;
  Config.BarrierProbability = 0.02;
  Trace T = generateRandomTrace(Config);
  std::string Text = serializeTrace(T);
  ASSERT_GT(Text.size(), 3u << 16);

  std::string Path = ::testing::TempDir() + "/ft_trace_io_stream.trc";
  ASSERT_TRUE(saveTraceFile(Path, T).ok());
  Trace Loaded;
  ParseReport Report = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  ASSERT_EQ(Loaded.size(), T.size());
  EXPECT_EQ(serializeTrace(Loaded), Text);
  std::remove(Path.c_str());
}

TEST(TraceIO, FuzzRoundTripRandomTraces) {
  // Random feasible traces of every operation kind survive
  // serialize → parse → serialize bit-identically.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomTraceConfig Config;
    Config.Seed = Seed;
    Config.NumThreads = 2 + Seed % 5;
    Config.OpsPerThread = 150;
    Config.ChaosProbability = 0.2;
    Config.BarrierProbability = 0.05;
    Config.EmitAtomicBlocks = Seed % 2 == 0;
    Trace T = generateRandomTrace(Config);
    std::string Text = serializeTrace(T);
    Trace Parsed;
    ParseReport Report = parseTrace(Text, Parsed);
    ASSERT_TRUE(Report.ok()) << "seed " << Seed << ": "
                             << Report.St.toString();
    ASSERT_EQ(Parsed.size(), T.size()) << "seed " << Seed;
    EXPECT_EQ(serializeTrace(Parsed), Text) << "seed " << Seed;
  }
}

TEST(TraceIO, FuzzGarbageNeverCrashes) {
  // Pure random bytes — binary, not just text — in both strict and
  // salvage mode: the parser must return structured diagnostics, never
  // crash or hang.
  Xoshiro256StarStar Rng(0xfeedface);
  for (int Case = 0; Case != 200; ++Case) {
    size_t Len = Rng.nextBelow(512);
    std::string Garbage;
    Garbage.reserve(Len);
    for (size_t I = 0; I != Len; ++I)
      Garbage.push_back(static_cast<char>(Rng.nextBelow(256)));
    Trace Parsed;
    ParseOptions Salvage;
    Salvage.Salvage = true;
    parseTrace(Garbage, Parsed); // must not crash
    ParseReport Report = parseTrace(Garbage, Parsed, Salvage);
    if (!Report.ok()) {
      EXPECT_EQ(Report.St.code(), StatusCode::ParseError) << "case " << Case;
    }
  }
}

TEST(TraceIO, FuzzCorruptedTracesNeverCrash) {
  // Start from a valid serialized trace and flip random bytes; strict
  // mode fails cleanly or succeeds, salvage mode keeps whatever held.
  RandomTraceConfig Config;
  Config.Seed = 3;
  Config.OpsPerThread = 100;
  Config.BarrierProbability = 0.05;
  std::string Text = serializeTrace(generateRandomTrace(Config));
  Xoshiro256StarStar Rng(0xc0ffee);
  for (int Case = 0; Case != 100; ++Case) {
    std::string Mutated = Text;
    unsigned Flips = 1 + Rng.nextBelow(8);
    for (unsigned F = 0; F != Flips; ++F)
      Mutated[Rng.nextBelow(Mutated.size())] =
          static_cast<char>(Rng.nextBelow(256));
    Trace Parsed;
    parseTrace(Mutated, Parsed); // must not crash
    ParseOptions Salvage;
    Salvage.Salvage = true;
    Salvage.ErrorBudget = 1u << 20;
    ParseReport Report = parseTrace(Mutated, Parsed, Salvage);
    EXPECT_TRUE(Report.ok()) << "case " << Case;
  }
}

TEST(TraceIO, SavedFileHoldsSerializeTraceBytes) {
  // Every kind, barriers (one wider than a formatting piece), ids at the
  // bound, and enough records that the save drains its 64 KiB chunk
  // several times.
  const ThreadId Top = MaxEntityId - 1;
  TraceBuilder B;
  B.fork(0, 1).fork(0, Top);
  std::vector<ThreadId> Wide;
  for (ThreadId U = 0; U != 40; ++U)
    Wide.push_back(U * 1000003u % MaxEntityId);
  for (uint32_t I = 0; I != 6000; ++I) {
    B.rd(1, I).wr(Top, Top).acq(1, Top).rel(1, Top);
    B.volRd(Top, I).volWr(1, Top).atomicBegin(Top).atomicEnd(Top);
    if (I % 500 == 0)
      B.barrier({0, 1, Top}).barrier(Wide);
  }
  B.join(0, 1).join(0, Top);
  Trace T = B.take();
  std::string Text = serializeTrace(T);
  ASSERT_GT(Text.size(), 4u << 16);

  std::string Path = ::testing::TempDir() + "/ft_trace_io_save.trc";
  ASSERT_TRUE(saveTraceFile(Path, T).ok());
  std::string Saved;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Buf[4096];
  for (size_t Got; (Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0;)
    Saved.append(Buf, Got);
  std::fclose(File);
  EXPECT_TRUE(Saved == Text);

  Trace Loaded;
  ParseReport Report = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Loaded.operations(), T.operations());
  EXPECT_EQ(Loaded.numThreads(), MaxEntityId);
  EXPECT_EQ(Loaded.numVars(), MaxEntityId);
  EXPECT_EQ(Loaded.numLocks(), MaxEntityId);
  EXPECT_EQ(Loaded.numVolatiles(), MaxEntityId);
  std::remove(Path.c_str());
}

TEST(TraceIO, CanonicalPathAgreesWithGeneralGrammar) {
  // Differential fuzz over mutated records: whenever the canonical fast
  // path accepts a line, the general grammar must accept it as the same
  // Operation; and every line exactly as serializeOperation writes it
  // must take the fast path.
  const std::vector<std::string> Kinds = {
      "rd",   "wr",     "acq",  "rel",     "fork", "join", "vrd",
      "vwr",  "abegin", "aend", "barrier", "r",    "rdd",  "RD",
      "abeg", "forks",  "vr",   "x",       ""};
  const std::vector<std::string> Ids = {
      "0",          "7",          "42",
      "00",         "007",        "0000000001",
      "123456789",  "999999999",  "1234567890",
      "4294967295", "4294967296", "99999999999",
      "16777215",   "16777216",   "",
      "-1",         "1a",         "+3",
      "0x10",       "99",         "100"};
  const std::vector<std::string> Seps = {" ", " ", " ", " ", "  ", "\t",
                                         " \t", "\r", "", "\r "};
  const std::vector<std::string> Tails = {"",  "",   "",  "",    "",
                                          "\r", " ", "#", " # c", "\t",
                                          "x", " 5", "\r\r", "#rd 0 1"};
  const uint32_t MaxIds[] = {MaxEntityId, 100, 0xffffffffu};
  const std::string Mutants = "0123456789 \t\r#xrdw-\x01\x7f";

  Xoshiro256StarStar Rng(0x5eed5eed);
  auto Pick = [&](const std::vector<std::string> &From) -> const std::string & {
    return From[Rng.nextBelow(From.size())];
  };
  unsigned Accepted = 0, MustAccept = 0;
  for (unsigned Case = 0; Case != 100000; ++Case) {
    const uint32_t MaxId = MaxIds[Case % 3];
    std::string Line;
    if (Case % 2) {
      // A line from the token lists, in any arity.
      Line = Pick(Kinds);
      unsigned Operands = Rng.nextBelow(4);
      for (unsigned I = 0; I != Operands; ++I) {
        Line += Pick(Seps);
        Line += Rng.nextBelow(4) ? Pick(Ids)
                                 : std::to_string(Rng.nextBelow(1u << 30));
      }
      Line += Pick(Tails);
    } else {
      // A canonical line, then up to two edits: an id swapped for one of
      // the list, a separator or a tail.
      OpKind Kind = static_cast<OpKind>(Rng.nextBelow(11));
      if (Kind == OpKind::Barrier)
        Kind = OpKind::AtomicBegin;
      uint32_t Target = Kind == OpKind::AtomicBegin || Kind == OpKind::AtomicEnd
                            ? NoTarget
                            : Rng.nextBelow(200);
      serializeOperation(Line, Operation(Kind, Rng.nextBelow(200), Target));
      Line.pop_back();
      for (unsigned Edit = Rng.nextBelow(3); Edit != 0; --Edit) {
        size_t Space = Line.rfind(' ');
        switch (Space == std::string::npos ? 2 : Rng.nextBelow(3)) {
        case 0:
          Line = Line.substr(0, Space + 1) + Pick(Ids);
          break;
        case 1:
          Line.replace(Space, 1, Pick(Seps));
          break;
        default:
          Line += Pick(Tails);
          break;
        }
      }
    }
    Operation Fast, General;
    std::vector<ThreadId> Set;
    std::string Err;
    bool FastOk = detail::parseCanonicalRecord(Line, MaxId, Fast);
    detail::LineResult Result =
        detail::parseGeneralRecord(Line, MaxId, General, Set, Err);
    if (FastOk) {
      ++Accepted;
      ASSERT_EQ(Result, detail::LineResult::Operation) << '"' << Line << '"';
      ASSERT_EQ(Fast, General) << '"' << Line << '"';
      continue;
    }
    // Nine digits or fewer: longer ids are left to the general path.
    if (Result == detail::LineResult::Operation &&
        General.Thread < 1000000000u &&
        (General.Target == NoTarget || General.Target < 1000000000u)) {
      std::string Canonical;
      serializeOperation(Canonical, General);
      if (Canonical == Line + "\n") {
        ++MustAccept;
        ADD_FAILURE() << "canonical line took the general path: \"" << Line
                      << '"';
      }
    }
  }
  EXPECT_EQ(MustAccept, 0u);
  // The generator must reach the fast path often enough to matter.
  EXPECT_GT(Accepted, 5000u);
}

namespace {

/// Appends lines to \p Text until it is exactly \p Size bytes long (at
/// least two more than now): canonical records, then one comment line
/// of the exact remaining length.
void padTo(std::string &Text, size_t Size) {
  while (Size - Text.size() > 40)
    Text += "rd 1 " + std::to_string(Text.size() % 1000) + "\n";
  Text += '#';
  Text.append(Size - Text.size(), '-');
  Text.back() = '\n';
}

} // namespace

TEST(TraceIO, LoadHandlesRecordsSplitAtChunkBoundary) {
  // loadTraceFile reads 64 KiB chunks. Place each probe record so that
  // every byte of it in turn is the first byte of the second chunk, and
  // check the load against the in-memory parse of the same text. The
  // CRLF probe covers a '\r' that ends a chunk.
  constexpr size_t Chunk = 1 << 16;
  const std::pair<std::string, Operation> Probes[] = {
      {"wr 12 345\n", wr(12, 345)},
      {"wr 12 345\r\n", wr(12, 345)},
      {"barrier 1 2 3\n", Operation(OpKind::Barrier, 1, 0)},
      {"acq\t7 8 # c\n", acq(7, 8)},
      {"aend 9\n", atomicEnd(9)}};
  std::string Path = ::testing::TempDir() + "/ft_trace_io_chunk.trc";
  for (const auto &[Probe, Op] : Probes) {
    for (size_t Before = 0; Before <= Probe.size(); ++Before) {
      std::string Text = "fork 0 1\n";
      padTo(Text, Chunk - Before);
      Text += Probe;
      Text += "rd 1 2\nwr 1 3";
      ASSERT_EQ(Text.substr(Chunk - Before, Probe.size()), Probe);

      Trace Expected;
      ParseReport ExpectedReport = parseTrace(Text, Expected);
      ASSERT_TRUE(ExpectedReport.ok()) << ExpectedReport.St.toString();

      std::FILE *File = std::fopen(Path.c_str(), "wb");
      ASSERT_NE(File, nullptr);
      ASSERT_EQ(std::fwrite(Text.data(), 1, Text.size(), File), Text.size());
      std::fclose(File);
      Trace Loaded;
      ParseReport Report = loadTraceFile(Path, Loaded);
      ASSERT_TRUE(Report.ok()) << Report.St.toString();
      EXPECT_EQ(Report.Records, ExpectedReport.Records) << Before;
      EXPECT_TRUE(Report.Diags.empty()) << Before;
      ASSERT_EQ(Loaded.operations(), Expected.operations())
          << Probe << " split " << Before;
      ASSERT_GE(Loaded.size(), 3u);
      EXPECT_EQ(Loaded[Loaded.size() - 3], Op) << Probe << " split " << Before;
      EXPECT_EQ(Loaded[Loaded.size() - 1], wr(1, 3));
    }
  }
  std::remove(Path.c_str());
}
