//===--- BlockingTool.h - a tool handler that blocks until released -------===//
//
// The stall an online detector really meets: a tool handler that does
// not return. BlockingTool wraps any Tool and blocks inside its Nth
// handler call until the test opens the gate. Wrapping a ShardableTool,
// it shards too, and only the clone for one chosen shard blocks. It can
// also sleep in each of a window of calls: the ring-full storm, a
// consumer too slow for its producers. Shared by the online runtime,
// resilience and sharding tests.
//
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TESTS_BLOCKINGTOOL_H
#define FASTTRACK_TESTS_BLOCKINGTOOL_H

#include "framework/ShardableTool.h"
#include "framework/Tool.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

namespace ft {

/// Where a blocked handler waits. The handler calls block(); the test
/// learns that it is blocked from waitBlocked() and lets it return with
/// release(). A release before the block lets the handler pass.
class HandlerGate {
public:
  void block() {
    std::unique_lock<std::mutex> Lock(Mu);
    Blocked = true;
    Changed.notify_all();
    Changed.wait(Lock, [this] { return Released; });
  }

  /// True once a handler has blocked; false if none did within 30 s.
  bool waitBlocked() {
    std::unique_lock<std::mutex> Lock(Mu);
    return Changed.wait_for(Lock, std::chrono::seconds(30),
                            [this] { return Blocked; });
  }

  void release() {
    std::lock_guard<std::mutex> Guard(Mu);
    Released = true;
    Changed.notify_all();
  }

private:
  std::mutex Mu;
  std::condition_variable Changed;
  bool Blocked = false;
  bool Released = false;
};

/// Tool decorator that forwards every event to its inner tool and blocks
/// in \p Gate at handler call number \p AtCall (0-based, every handler
/// counted, sync events included). At one shard the engine dispatches one
/// handler call per merged event, so call N is merge position N. With
/// shards, the primary sees no handler call; the clone for shard
/// \p InShard blocks at its own call \p AtCall instead. Warnings are the
/// inner tool's, adopted at end().
class BlockingTool : public Tool, public ShardableTool {
public:
  static constexpr uint64_t Never = ~0ull;

  BlockingTool(Tool &Inner, HandlerGate &Gate, uint64_t AtCall,
               unsigned InShard = 0)
      : Inner(Inner), Gate(&Gate), AtCall(AtCall), InShard(InShard) {}

  /// A handler that never blocks but is slow: each handler call numbered
  /// in [\p From, \p To) (counted as for AtCall) sleeps \p PerCall first.
  /// Shard clones are not slowed.
  BlockingTool(Tool &Inner, uint64_t From, uint64_t To,
               std::chrono::microseconds PerCall)
      : Inner(Inner), Gate(nullptr), AtCall(Never), InShard(0),
        DelayFrom(From), DelayTo(To), Delay(PerCall) {}

  const char *name() const override { return "Blocking"; }
  void begin(const ToolContext &Context) override { Inner.begin(Context); }
  void end() override {
    Inner.end();
    adoptWarnings(Inner.warnings());
  }

  bool onRead(ThreadId T, VarId X, size_t OpIndex) override {
    tick();
    return Inner.onRead(T, X, OpIndex);
  }
  bool onWrite(ThreadId T, VarId X, size_t OpIndex) override {
    tick();
    return Inner.onWrite(T, X, OpIndex);
  }
  void onAcquire(ThreadId T, LockId M, size_t OpIndex) override {
    tick();
    Inner.onAcquire(T, M, OpIndex);
  }
  void onRelease(ThreadId T, LockId M, size_t OpIndex) override {
    tick();
    Inner.onRelease(T, M, OpIndex);
  }
  void onFork(ThreadId T, ThreadId U, size_t OpIndex) override {
    tick();
    Inner.onFork(T, U, OpIndex);
  }
  void onJoin(ThreadId T, ThreadId U, size_t OpIndex) override {
    tick();
    Inner.onJoin(T, U, OpIndex);
  }
  void onVolatileRead(ThreadId T, VolatileId V, size_t OpIndex) override {
    tick();
    Inner.onVolatileRead(T, V, OpIndex);
  }
  void onVolatileWrite(ThreadId T, VolatileId V, size_t OpIndex) override {
    tick();
    Inner.onVolatileWrite(T, V, OpIndex);
  }
  size_t shadowBytes() const override { return Inner.shadowBytes(); }

  // ShardableTool: clones wrap clones of the inner tool, which must be a
  // ShardableTool itself. The engine clones in shard order.
  std::unique_ptr<Tool> cloneForShard() const override {
    const unsigned Shard = ClonesMade++;
    return std::unique_ptr<Tool>(new BlockingTool(
        dynamic_cast<const ShardableTool &>(Inner).cloneForShard(), Gate,
        Shard == InShard ? AtCall : Never));
  }
  void mergeShard(Tool &ShardTool) override {
    dynamic_cast<ShardableTool &>(Inner).mergeShard(
        *static_cast<BlockingTool &>(ShardTool).Owned);
  }

private:
  BlockingTool(std::unique_ptr<Tool> Clone, HandlerGate *Gate,
               uint64_t AtCall)
      : Owned(std::move(Clone)), Inner(*Owned), Gate(Gate), AtCall(AtCall),
        InShard(0) {}

  void tick() {
    const uint64_t Call = Calls++;
    if (Call == AtCall)
      Gate->block();
    if (Call >= DelayFrom && Call < DelayTo)
      std::this_thread::sleep_for(Delay);
  }

  std::unique_ptr<Tool> Owned; ///< A shard clone's inner tool.
  Tool &Inner;
  HandlerGate *Gate; ///< Null only when AtCall is Never.
  uint64_t AtCall;
  unsigned InShard;
  uint64_t DelayFrom = Never;
  uint64_t DelayTo = Never;
  std::chrono::microseconds Delay{0};
  uint64_t Calls = 0;
  mutable unsigned ClonesMade = 0;
};

} // namespace ft

#endif // FASTTRACK_TESTS_BLOCKINGTOOL_H
