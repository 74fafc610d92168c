//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ShardableTool mixin: how a Tool opts in to variable-sharded
/// parallel replay (docs/ARCHITECTURE.md, "Sharded replay";
/// docs/TOOL_AUTHORING.md, step 6).
///
/// A tool may opt in when its access handlers touch only (a) the shadow
/// state of the accessed variable and (b) per-thread synchronization
/// state that evolves independently of data accesses. All pure race
/// detectors in this repository satisfy that; the transactional checkers
/// (Atomizer, Velodrome, SingleTrack), whose per-thread clocks join along
/// *data communication* edges, do not — they simply never implement this
/// interface and ParallelReplay falls back to serial replay for them.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_SHARDABLETOOL_H
#define FASTTRACK_FRAMEWORK_SHARDABLETOOL_H

#include <cstdint>
#include <memory>

namespace ft {

class ByteReader;
class ByteWriter;
class Tool;

/// The most shards either engine runs (offline parallelReplay and the
/// online Engine). Each shard is one worker thread with its own tool
/// clone, so a larger request is clamped rather than honored.
constexpr unsigned MaxShards = 64;

/// Which shard owns a variable in a sharded online session: the
/// block-cyclic map (X / BlockVars) % Shards, which keeps neighboring ids
/// (fields of one object, elements of one array) in one shard's shadow
/// arrays; a shift and a mask when both are powers of two. It maps the
/// id admission produced, so on a coarse rung too every access to one
/// VarState lands in one shard. BlockVars 0 counts as 1; the default map
/// puts every variable in shard 0.
struct ShardMap {
  ShardMap() = default;
  ShardMap(uint32_t Block, unsigned Shards)
      : BlockVars(Block == 0 ? 1 : Block), Shards(Shards), Shift(~0u) {
    if ((BlockVars & (BlockVars - 1)) == 0 && (Shards & (Shards - 1)) == 0) {
      Shift = static_cast<unsigned>(__builtin_ctz(BlockVars));
      Mask = Shards - 1;
    }
  }
  unsigned indexOf(uint32_t X) const {
    return Shift != ~0u ? (X >> Shift) & Mask : X / BlockVars % Shards;
  }

private:
  uint32_t BlockVars = 1;
  unsigned Shards = 1;
  unsigned Shift = 0; ///< ~0u: no shift-and-mask form.
  uint32_t Mask = 0;
};

/// Interface a Tool additionally implements (multiple inheritance) to
/// participate in ParallelReplay.
class ShardableTool {
public:
  virtual ~ShardableTool();

  /// Returns a fresh, un-begun instance configured identically to this
  /// tool (same options/flags). One clone is created per shard.
  virtual std::unique_ptr<Tool> cloneForShard() const = 0;

  /// Folds \p ShardTool's instrumentation counters (rule statistics and
  /// the like) into this — the primary — instance. Called once per clone
  /// after all workers join; \p ShardTool is always an object returned by
  /// this tool's cloneForShard(). Warnings are merged separately by the
  /// engine (Tool::adoptWarnings), so implementations only fold counters.
  virtual void mergeShard(Tool &ShardTool) = 0;

  /// \name Checkpoint hooks (framework/Checkpoint.h)
  /// A tool additionally opts in to checkpoint/resume of long replays by
  /// serializing its complete analysis state — everything its handlers
  /// read or write, including instrumentation counters — such that a
  /// restored instance continues bit-identically. Warnings and the
  /// replay cursor are saved by the checkpoint driver; these hooks cover
  /// only tool-owned shadow state. VectorClockToolBase provides
  /// snapshotClocks/restoreClocks for the C/L components.
  /// @{

  /// True when snapshotShadow/restoreShadow are implemented.
  virtual bool supportsCheckpoint() const { return false; }

  /// Serializes all tool-owned analysis state into \p Writer.
  virtual void snapshotShadow(ByteWriter &Writer) const { (void)Writer; }

  /// Restores state serialized by snapshotShadow. begin() has already
  /// been called with the same ToolContext the snapshotting instance
  /// saw. \returns false when the image is malformed (the driver then
  /// reports a structured CheckpointError instead of crashing).
  virtual bool restoreShadow(ByteReader &Reader) {
    (void)Reader;
    return false;
  }

  /// @}
};

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_SHARDABLETOOL_H
