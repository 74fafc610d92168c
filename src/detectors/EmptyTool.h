//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EMPTY: the do-nothing tool of Section 5.1, used to measure the cost of
/// the framework itself. Every slowdown in the reproduced Table 1 is
/// normalised against EMPTY's running time, matching the paper's
/// methodology. As a prefilter it passes every access (the "NONE" column
/// of the Section 5.2 composition table).
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_DETECTORS_EMPTYTOOL_H
#define FASTTRACK_DETECTORS_EMPTYTOOL_H

#include "framework/Tool.h"

namespace ft {

/// Performs no analysis; exists to price the event-dispatch overhead.
class EmptyTool : public Tool {
public:
  /// Out of line on purpose: the key function puts the vtable in
  /// EmptyTool.cpp, so every binary that constructs an EmptyTool links
  /// that file and its FT_REGISTER_FAST_PATH line.
  const char *name() const override;
};

} // namespace ft

#endif // FASTTRACK_DETECTORS_EMPTYTOOL_H
