#include "trace/TraceIO.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>

using namespace ft;

namespace {

/// Room for the longest non-barrier line: a 6-byte kind name, two
/// 10-digit ids, two spaces and the newline.
constexpr size_t MaxOpLineBytes = 32;

/// Formats \p Op's line, newline included, at \p P; returns its end.
char *formatOperation(char *P, const Operation &Op) {
  const char *Name = opKindName(Op.Kind);
  size_t Len = std::strlen(Name);
  std::memcpy(P, Name, Len);
  P += Len;
  *P++ = ' ';
  P = std::to_chars(P, P + 10, Op.Thread).ptr;
  if (Op.Target != NoTarget) {
    *P++ = ' ';
    P = std::to_chars(P, P + 10, Op.Target).ptr;
  }
  *P++ = '\n';
  return P;
}

/// Writes the text of \p T through \p Put(const char *, size_t), in
/// pieces of at most MaxOpLineBytes.
template <typename SinkT> void writeTrace(const Trace &T, SinkT &&Put) {
  char Line[MaxOpLineBytes];
  for (const Operation &Op : T) {
    if (Op.Kind != OpKind::Barrier) {
      Put(Line, formatOperation(Line, Op) - Line);
      continue;
    }
    const char *Name = opKindName(Op.Kind);
    Put(Name, std::strlen(Name));
    for (ThreadId U : T.barrierSet(Op.Target)) {
      Line[0] = ' ';
      Put(Line, std::to_chars(Line + 1, Line + 11, U).ptr - Line);
    }
    Put("\n", 1);
  }
}

} // namespace

void ft::serializeOperation(std::string &Out, const Operation &Op) {
  char Line[MaxOpLineBytes];
  Out.append(Line, formatOperation(Line, Op) - Line);
}

std::string ft::serializeTrace(const Trace &T) {
  std::string Out;
  Out.reserve(T.size() * 8);
  writeTrace(T, [&](const char *P, size_t N) { Out.append(P, N); });
  return Out;
}

namespace {

// --- The canonical fast path ----------------------------------------------

inline bool isDigit(char C) {
  return static_cast<unsigned char>(C - '0') < 10;
}

/// Decodes a canonical kind name and the one space after it at \p P;
/// returns the first byte after the space, or nullptr. Names hold no
/// space and are 2, 3, 4 or 6 bytes long, so only those positions, within
/// the bytes left, can hold the space; testing them costs less than a
/// search for it. Barriers are not canonical (their sets go through the
/// general path).
inline const char *scanKind(const char *P, const char *End, OpKind &Kind) {
  const size_t Room = End - P;
  auto Is = [P](const char *Name, size_t Len) {
    return std::memcmp(P, Name, Len) == 0;
  };
  if (Room > 2 && P[2] == ' ') {
    if (Is("rd", 2))
      Kind = OpKind::Read;
    else if (Is("wr", 2))
      Kind = OpKind::Write;
    else
      return nullptr;
    return P + 3;
  }
  if (Room > 3 && P[3] == ' ') {
    if (Is("acq", 3))
      Kind = OpKind::Acquire;
    else if (Is("rel", 3))
      Kind = OpKind::Release;
    else if (Is("vrd", 3))
      Kind = OpKind::VolatileRead;
    else if (Is("vwr", 3))
      Kind = OpKind::VolatileWrite;
    else
      return nullptr;
    return P + 4;
  }
  if (Room > 4 && P[4] == ' ') {
    if (Is("fork", 4))
      Kind = OpKind::Fork;
    else if (Is("join", 4))
      Kind = OpKind::Join;
    else if (Is("aend", 4))
      Kind = OpKind::AtomicEnd;
    else
      return nullptr;
    return P + 5;
  }
  if (Room > 6 && P[6] == ' ' && Is("abegin", 6)) {
    Kind = OpKind::AtomicBegin;
    return P + 7;
  }
  return nullptr;
}

/// Parses 1 to 9 decimal digits at \p P into \p Value, which must be
/// below \p MaxId; returns the first byte after them, or nullptr. Nine
/// digits cannot overflow; longer ids go to the general path.
inline const char *scanId(const char *P, const char *End, uint32_t MaxId,
                          uint32_t &Value) {
  const char *Start = P;
  const char *Limit = End - P > 9 ? P + 9 : End;
  uint32_t V = 0;
  for (; P != Limit && isDigit(*P); ++P)
    V = V * 10 + static_cast<uint32_t>(*P - '0');
  if (P == Start || (P != End && isDigit(*P)) || V >= MaxId)
    return nullptr;
  Value = V;
  return P;
}

/// The canonical record `kind tid[ target]` at \p P, ending at a newline
/// or at \p End. Returns that newline (or \p End) with \p Op set, or
/// nullptr when the record is not canonical.
inline const char *scanCanonical(const char *P, const char *End,
                                 uint32_t MaxId, Operation &Op) {
  OpKind Kind;
  if (P == End || !(P = scanKind(P, End, Kind)))
    return nullptr;
  uint32_t Thread, Target = NoTarget;
  if (!(P = scanId(P, End, MaxId, Thread)))
    return nullptr;
  if (Kind != OpKind::AtomicBegin && Kind != OpKind::AtomicEnd) {
    if (P == End || *P != ' ' || !(P = scanId(P + 1, End, MaxId, Target)))
      return nullptr;
  }
  if (P != End && *P != '\n')
    return nullptr;
  Op = Operation(Kind, Thread, Target);
  return P;
}

// --- The general grammar --------------------------------------------------

std::optional<uint32_t> parseU32(std::string_view Tok) {
  if (Tok.empty() || Tok.size() > 10)
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Tok) {
    if (C < '0' || C > '9')
      return std::nullopt;
    Value = Value * 10 + (C - '0');
  }
  if (Value > 0xffffffffULL)
    return std::nullopt;
  return static_cast<uint32_t>(Value);
}

std::optional<OpKind> kindFromName(std::string_view Name) {
  for (unsigned K = 0; K <= static_cast<unsigned>(OpKind::AtomicEnd); ++K)
    if (Name == opKindName(static_cast<OpKind>(K)))
      return static_cast<OpKind>(K);
  return std::nullopt;
}

/// Splits the next space-, tab- or CR-separated token off \p Rest; empty
/// once none is left.
std::string_view nextToken(std::string_view &Rest) {
  constexpr std::string_view Blanks = " \t\r";
  size_t Start = Rest.find_first_not_of(Blanks);
  if (Start == std::string_view::npos) {
    Rest = {};
    return {};
  }
  size_t Stop = std::min(Rest.find_first_of(Blanks, Start), Rest.size());
  std::string_view Tok = Rest.substr(Start, Stop - Start);
  Rest.remove_prefix(Stop);
  return Tok;
}

/// Parses an id token, enforcing the MaxId bound (ids that large would
/// collide with the NoTarget sentinel or wrap entity counts).
std::optional<uint32_t> parseId(std::string_view Tok, const char *What,
                                uint32_t MaxId, std::string &Err) {
  auto Value = parseU32(Tok);
  if (!Value) {
    Err = std::string("bad ") + What + " '" + std::string(Tok) + "'";
    return std::nullopt;
  }
  if (*Value >= MaxId) {
    Err = std::string(What) + " " + std::string(Tok) +
          " out of range (ids must be < " + std::to_string(MaxId) + ")";
    return std::nullopt;
  }
  return Value;
}

} // namespace

bool ft::detail::parseCanonicalRecord(std::string_view Line, uint32_t MaxId,
                                      Operation &Op) {
  const char *End = Line.data() + Line.size();
  const char *Eol = scanCanonical(Line.data(), End, MaxId, Op);
  return Eol && Eol == End;
}

detail::LineResult ft::detail::parseGeneralRecord(
    std::string_view Line, uint32_t MaxId, Operation &Op,
    std::vector<ThreadId> &BarrierSet, std::string &Err) {
  std::string_view Rest = Line.substr(0, Line.find('#'));
  std::string_view Name = nextToken(Rest);
  if (Name.empty())
    return LineResult::Blank;
  auto Kind = kindFromName(Name);
  if (!Kind) {
    Err = "unknown operation '" + std::string(Name) + "'";
    return LineResult::Malformed;
  }

  if (*Kind == OpKind::Barrier) {
    BarrierSet.clear();
    for (std::string_view Tok = nextToken(Rest); !Tok.empty();
         Tok = nextToken(Rest)) {
      auto Tid = parseId(Tok, "thread id", MaxId, Err);
      if (!Tid)
        return LineResult::Malformed;
      if (std::find(BarrierSet.begin(), BarrierSet.end(), *Tid) !=
          BarrierSet.end()) {
        Err = "duplicate thread id " + std::string(Tok) + " in barrier";
        return LineResult::Malformed;
      }
      BarrierSet.push_back(*Tid);
    }
    if (BarrierSet.empty()) {
      Err = "barrier needs at least one thread id";
      return LineResult::Malformed;
    }
    return LineResult::Barrier;
  }

  // Count up to one operand past the most any kind takes, so arity
  // errors come before id errors.
  bool HasTarget = *Kind != OpKind::AtomicBegin && *Kind != OpKind::AtomicEnd;
  size_t Expected = HasTarget ? 2 : 1;
  std::string_view Operands[3];
  size_t N = 0;
  while (N != 3 && !(Operands[N] = nextToken(Rest)).empty())
    ++N;
  if (N != Expected) {
    Err = "expected " + std::to_string(Expected) + " operand(s) for '" +
          std::string(Name) + "'";
    return LineResult::Malformed;
  }

  auto Tid = parseId(Operands[0], "thread id", MaxId, Err);
  if (!Tid)
    return LineResult::Malformed;
  uint32_t Target = NoTarget;
  if (HasTarget) {
    auto Parsed = parseId(Operands[1], "target id", MaxId, Err);
    if (!Parsed)
      return LineResult::Malformed;
    Target = *Parsed;
  }
  Op = Operation(*Kind, *Tid, Target);
  return LineResult::Operation;
}

namespace {

/// One record at a time: canonical records take the fast path, every
/// other line the general grammar, and malformed ones go through the
/// strict/salvage policy. Shared by the in-memory parser and the
/// streaming file loader, so both enforce identical record grammar and
/// diagnostics. Operations reach the trace in runs of up to RunCap.
class LineParser {
public:
  LineParser(Trace &Out, const ParseOptions &Options, ParseReport &Report)
      : Out(Out), Options(Options), Report(Report) {}

  /// Parses every newline-terminated line of \p Text and returns the
  /// unterminated rest, for the caller to carry into the next chunk or
  /// pass to consumeLine as the final line. Stops early once aborted.
  std::string_view consumeLines(std::string_view Text) {
    const char *P = Text.data();
    const char *End = P + Text.size();
    while (P != End && !Aborted) {
      P = consumeCanonical(P, End);
      const char *Eol =
          static_cast<const char *>(std::memchr(P, '\n', End - P));
      if (!Eol)
        break;
      consumeLine(std::string_view(P, Eol - P));
      P = Eol + 1;
    }
    return std::string_view(P, End - P);
  }

  /// Parses one raw input line by the general grammar (comments and
  /// blanks allowed). \p MaybeTruncated marks a final line with no
  /// trailing newline, where a malformed record usually means the file
  /// was cut off mid-write.
  void consumeLine(std::string_view Raw, bool MaybeTruncated = false) {
    if (Aborted)
      return;
    ++LineNo;
    Operation Op;
    std::string Err;
    switch (detail::parseGeneralRecord(Raw, Options.MaxId, Op, BarrierSet,
                                       Err)) {
    case detail::LineResult::Blank:
      return;
    case detail::LineResult::Operation:
      push(Op);
      return;
    case detail::LineResult::Barrier:
      flush();
      Out.appendBarrier(BarrierSet);
      ++Report.Records;
      return;
    case detail::LineResult::Malformed:
      if (MaybeTruncated)
        Err += " (truncated final record?)";
      recordError(std::move(Err));
      return;
    }
  }

  /// Hands the pending run to the trace.
  void flush() {
    Out.appendRun(Run, RunSize);
    RunSize = 0;
  }

  /// Flushes and emits the salvage summary note. Call once after the
  /// last line.
  void finish() {
    flush();
    if (Options.Salvage && Report.Skipped != 0 && !Aborted)
      Report.Diags.push_back(
          {StatusCode::ParseError, Severity::Note, 0, NoOpIndex,
           "salvage: skipped " + std::to_string(Report.Skipped) +
               " malformed record(s), kept " +
               std::to_string(Report.Records)});
  }

  /// True once the parse failed hard; remaining input is not consumed.
  bool aborted() const { return Aborted; }

private:
  static constexpr size_t RunCap = 256;

  void push(const Operation &Op) {
    ++Report.Records;
    Run[RunSize++] = Op;
    if (RunSize == RunCap)
      flush();
  }

  /// Parses the newline-terminated canonical records from \p P on and
  /// returns the first line that is not one (or \p End). The run size
  /// and the line and record counts stay in registers over the stretch
  /// and reach memory once, before the general grammar can read them:
  /// kept in members, each record would wait on the previous one's
  /// stores. The loop starts on a cache line of its own, so its
  /// alignment does not move with the size of unrelated code.
  [[gnu::noinline, gnu::aligned(64)]] const char *
  consumeCanonical(const char *P, const char *End) {
    const uint32_t MaxId = Options.MaxId;
    size_t Size = RunSize;
    uint64_t Lines = 0;
    Operation Op;
    const char *Eol;
    while ((Eol = scanCanonical(P, End, MaxId, Op)) && Eol != End) {
      Run[Size++] = Op;
      ++Lines;
      P = Eol + 1;
      if (Size == RunCap) {
        Out.appendRun(Run, Size);
        Size = 0;
      }
    }
    RunSize = Size;
    LineNo += Lines;
    Report.Records += Lines;
    return P;
  }

  void recordError(std::string Message) {
    if (Options.Salvage) {
      ++Report.Skipped;
      Report.Diags.push_back({StatusCode::ParseError, Severity::Warning,
                              LineNo, NoOpIndex, std::move(Message)});
      if (Report.Skipped > Options.ErrorBudget) {
        // The Diagnostic's Line field already carries the position; only the
        // flat Status message needs it spelled out.
        std::string Brief = "salvage error budget (" +
                            std::to_string(Options.ErrorBudget) + ") exhausted";
        Report.St = Status::error(StatusCode::ParseError,
                                  Brief + " at line " + std::to_string(LineNo));
        Report.Diags.push_back({StatusCode::ParseError, Severity::Fatal,
                                LineNo, NoOpIndex, std::move(Brief)});
        Aborted = true;
      }
      return;
    }
    Report.St = Status::error(StatusCode::ParseError,
                              "line " + std::to_string(LineNo) + ": " + Message);
    Report.Diags.push_back({StatusCode::ParseError, Severity::Error, LineNo,
                            NoOpIndex, std::move(Message)});
    Aborted = true;
  }

  Trace &Out;
  const ParseOptions &Options;
  ParseReport &Report;
  std::vector<ThreadId> BarrierSet;
  Operation Run[RunCap];
  size_t RunSize = 0;
  unsigned LineNo = 0;
  bool Aborted = false;
};

} // namespace

ParseReport ft::parseTrace(std::string_view Text, Trace &Out,
                           const ParseOptions &Options) {
  Out.clear();
  ParseReport Report;
  LineParser Parser(Out, Options, Report);
  std::string_view Last = Parser.consumeLines(Text);
  if (!Last.empty())
    Parser.consumeLine(Last, /*MaybeTruncated=*/true);
  Parser.finish();
  return Report;
}

Status ft::saveTraceFile(const std::string &Path, const Trace &T) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return Status::error(StatusCode::IoError,
                         "cannot open '" + Path + "' for writing");
  // Format into one fixed chunk and write it whenever the next piece
  // would not fit, so a save never holds the whole text either.
  char Buf[1 << 16];
  size_t Used = 0;
  bool Short = false;
  auto Drain = [&] {
    Short |= std::fwrite(Buf, 1, Used, File) != Used;
    Used = 0;
  };
  writeTrace(T, [&](const char *P, size_t N) {
    if (sizeof(Buf) - Used < N)
      Drain();
    std::memcpy(Buf + Used, P, N);
    Used += N;
  });
  Drain();
  Short |= std::fclose(File) != 0;
  if (Short)
    return Status::error(StatusCode::IoError, "short write to '" + Path + "'");
  return Status::okStatus();
}

ParseReport ft::loadTraceFile(const std::string &Path, Trace &Out,
                              const ParseOptions &Options) {
  Out.clear();
  ParseReport Report;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Report.St = Status::error(StatusCode::IoError,
                              "cannot open '" + Path + "' for reading");
    Report.Diags.push_back({StatusCode::IoError, Severity::Error, 0,
                            NoOpIndex, Report.St.message()});
    return Report;
  }

  // Stream in fixed-size chunks; only a partial trailing line is ever
  // carried between chunks, so peak memory stays one chunk + the trace.
  LineParser Parser(Out, Options, Report);
  std::string Carry;
  char Buf[1 << 16];
  size_t Got;
  while (!Parser.aborted() &&
         (Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0) {
    std::string_view Chunk(Buf, Got);
    if (!Carry.empty()) {
      size_t Eol = Chunk.find('\n');
      if (Eol == std::string_view::npos) {
        Carry.append(Chunk);
        continue;
      }
      Carry.append(Chunk.substr(0, Eol));
      Parser.consumeLine(Carry);
      Carry.clear();
      Chunk.remove_prefix(Eol + 1);
    }
    std::string_view Rest = Parser.consumeLines(Chunk);
    if (!Parser.aborted())
      Carry.assign(Rest);
  }
  bool ReadError = std::ferror(File) != 0;
  std::fclose(File);

  if (ReadError && !Parser.aborted()) {
    Parser.flush();
    Report.St = Status::error(StatusCode::IoError,
                              "read error on '" + Path + "'");
    Report.Diags.push_back({StatusCode::IoError, Severity::Error, 0,
                            NoOpIndex, Report.St.message()});
    return Report;
  }
  // A final line with no newline: parse it, flagging that a malformed
  // record here usually means the file was truncated mid-write.
  if (!Parser.aborted() && !Carry.empty())
    Parser.consumeLine(Carry, /*MaybeTruncated=*/true);
  Parser.finish();
  return Report;
}
