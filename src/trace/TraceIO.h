//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of traces, one operation per line:
///
/// \code
///   # comment
///   rd 0 3          # rd(t=0, x=3)
///   wr 1 3
///   acq 0 2
///   rel 0 2
///   fork 0 1
///   join 0 1
///   vrd 0 1         # volatile read
///   vwr 0 1         # volatile write
///   barrier 0 1 2   # barrier release of threads {0,1,2}
///   abegin 0        # atomic-block begin
///   aend 0
/// \endcode
///
/// The format lets examples and external fuzzers feed traces to the
/// detectors without linking against the generators — which means the
/// parser is an ingestion boundary: inputs arrive truncated, corrupt, or
/// adversarial. Parsing therefore reports through the structured
/// diagnostic model (support/Status.h) and offers a *salvage mode* that
/// skips malformed records under a configurable error budget instead of
/// aborting at the first bad byte. File loading streams in 64 KiB chunks,
/// and saving formats into one, so multi-gigabyte traces never hold a
/// second whole-file copy in memory.
///
/// Parsing has a fast path for the canonical record serializeTrace
/// writes: `kind tid[ target]` with single spaces, no comment, and
/// decimal ids of at most nine digits below ParseOptions::MaxId, ended by
/// a newline. It decodes such a record in the same pass that finds its
/// end. Every other line (comments, blanks, tabs, CR, barriers, extra
/// tokens, bad or out-of-range ids, a final line with no newline, a
/// record split across two read chunks) goes to the general grammar. Invariant: the fast path accepts a subset of what
/// the general grammar accepts, with the identical Operation, so the
/// parsed trace, the Records/Skipped counts and every diagnostic are what
/// the general grammar alone would give (tests/TraceIOTest.cpp checks
/// this differentially).
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TRACE_TRACEIO_H
#define FASTTRACK_TRACE_TRACEIO_H

#include "support/Status.h"
#include "trace/Trace.h"

#include <string>
#include <string_view>
#include <vector>

namespace ft {

/// Upper bound (exclusive) on thread/variable/lock/volatile ids accepted
/// by the parser. Ids at or above this are rejected: unchecked 32-bit
/// ids would collide with the NoTarget sentinel and silently wrap the
/// entity counts tools use to pre-size shadow state (Trace::numThreads
/// computes max id + 1).
inline constexpr uint32_t MaxEntityId = 1u << 24;

/// Options controlling one parse.
struct ParseOptions {
  /// Salvage mode: skip malformed records, reporting one Warning
  /// diagnostic each, instead of failing at the first error. The trace
  /// that results holds every record that parsed.
  bool Salvage = false;

  /// Salvage error budget: after this many skipped records the parse
  /// aborts with ParseError (an input that is mostly garbage is more
  /// likely the wrong file than a damaged trace).
  size_t ErrorBudget = 100;

  /// Ids at or above this bound are rejected (see MaxEntityId).
  uint32_t MaxId = MaxEntityId;
};

/// The outcome of one parse: an overall status plus per-line diagnostics
/// and salvage accounting.
struct ParseReport {
  /// Ok, or the first/fatal failure. In salvage mode the parse is Ok as
  /// long as the error budget held, even when records were skipped.
  Status St;

  /// Per-line diagnostics: one Warning per salvaged record, one Error
  /// when the parse failed, Notes for salvage summaries.
  std::vector<Diagnostic> Diags;

  uint64_t Records = 0; ///< Operations appended to the output trace.
  uint64_t Skipped = 0; ///< Malformed records skipped (salvage mode).

  bool ok() const { return St.ok(); }
};

/// Renders \p T in the text format described above.
std::string serializeTrace(const Trace &T);

/// Appends one non-barrier operation's line (with trailing newline) to
/// \p Out. Barriers need the owning trace's side table; serializeTrace
/// handles them. Shared with the segmented flight recorder, which
/// serializes operations as they drain rather than from a whole Trace.
void serializeOperation(std::string &Out, const Operation &Op);

/// Parses the text format into \p Out (cleared first).
ParseReport parseTrace(std::string_view Text, Trace &Out,
                       const ParseOptions &Options = ParseOptions());

/// Writes \p T to \p Path.
Status saveTraceFile(const std::string &Path, const Trace &T);

/// Reads a trace from \p Path into \p Out, streaming the file in 64 KiB
/// chunks (peak memory is one I/O chunk plus the trace itself, never a
/// second whole-file string).
ParseReport loadTraceFile(const std::string &Path, Trace &Out,
                          const ParseOptions &Options = ParseOptions());

namespace detail {

/// The two single-record parsers behind parseTrace and loadTraceFile,
/// exposed so tests can hold one against the other. Not a runtime switch:
/// every parse tries the canonical path first.

/// The canonical fast path: true, with \p Op set, when \p Line (one line
/// without its newline) is exactly `kind tid[ target]` as serializeTrace
/// writes it, with ids below \p MaxId.
bool parseCanonicalRecord(std::string_view Line, uint32_t MaxId,
                          Operation &Op);

/// What one line holds by the general grammar.
enum class LineResult { Blank, Operation, Barrier, Malformed };

/// The general grammar for one line without its newline: `#` comments,
/// blank lines, space/tab/CR separators and barriers. Sets \p Op for an
/// Operation, \p BarrierSet (in input order) for a Barrier, and \p Err
/// for a Malformed line.
LineResult parseGeneralRecord(std::string_view Line, uint32_t MaxId,
                              Operation &Op, std::vector<ThreadId> &BarrierSet,
                              std::string &Err);

} // namespace detail

} // namespace ft

#endif // FASTTRACK_TRACE_TRACEIO_H
