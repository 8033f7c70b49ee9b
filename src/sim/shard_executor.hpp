/// \file shard_executor.hpp
/// Sharded conservative parallel discrete-event engine (DESIGN.md §12).
///
/// Runs one Simulator (calendar queue) per shard plus the caller-owned
/// "control" Simulator that carries run-orchestration events (phase
/// transitions, churn, audits, probes, fault scripts). Execution
/// alternates between two regimes:
///
///  - **Windows** (parallel): when every calendar's next event is a data
///    event, the engine computes the conservative safe horizon
///    H = min(T_min + L, T_ctrl, T_end+1) — T_min the global minimum
///    next-event time, L the minimum cross-shard link latency (the
///    lookahead), T_ctrl the control calendar's next event — and every
///    shard drains its own calendar up to H-1 concurrently. Cross-shard
///    interactions ride mailboxes and, by the lookahead bound, land at or
///    after H: no shard can affect another inside a window.
///
///  - **Serial instants**: when the control calendar is due (T_ctrl <=
///    T_min), the engine executes *every* calendar's events at exactly
///    that instant on one thread, interleaved in global (time, seq) order
///    — control events may touch any shard's state, so the engine simply
///    degenerates to the serial execution for that instant.
///
/// Bit-identical output: during windows shards assign provisional keys;
/// at each window barrier the coordinator k-way-merges the shards' fire
/// logs in global (time, key) order and replays the serial kernel's
/// sequence assignment (see shard_link.hpp), emits the fire-hook stream,
/// applies deferred side effects in merged order, stamps and delivers
/// mailbox messages, and invokes a reconciliation hook for sender-owned
/// accounting. The result of a run is byte-identical to the serial
/// engine's at any shard count.
///
/// Threading: shard 0 is drained by the coordinating (calling) thread;
/// shards 1..N-1 each get a persistent worker synchronized by an
/// epoch/arrival spin barrier (exponential backoff, then yield — the
/// engine stays live-lock-free even when oversubscribed). `use_threads =
/// false` drains all shards sequentially on the caller thread with the
/// identical window/merge machinery — same output, no thread overhead;
/// useful on single-core machines and for debugging.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/shard_link.hpp"
#include "sim/simulator.hpp"
#include "util/callback.hpp"

namespace dqos {

class ShardExecutor {
 public:
  /// `lookahead_ps` must be positive: it is the conservative bound under
  /// which windows make progress (the minimum cross-shard wire latency).
  ShardExecutor(Simulator& control, std::uint32_t num_shards,
                std::int64_t lookahead_ps, bool use_threads);
  ~ShardExecutor();
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(sims_.size());
  }
  [[nodiscard]] Simulator& shard_sim(std::uint32_t s) { return *sims_[s]; }
  [[nodiscard]] Simulator& control() { return control_; }
  [[nodiscard]] ShardWindowLog& log(std::uint32_t s) { return logs_[s]; }
  [[nodiscard]] std::vector<CrossArrivalNote>& arrival_notes(std::uint32_t s) {
    return notes_[s];
  }

  /// True while a parallel window is in flight. Cross-shard components
  /// (Channel, metrics relays) branch on this to pick the mailbox/deferral
  /// path; outside windows they behave exactly serially. Written only by
  /// the coordinator while workers are parked at the barrier.
  [[nodiscard]] const bool* window_active_flag() const {
    return &window_active_;
  }
  /// Monotone window counter — lets receiver-side per-window caches
  /// (credit folding) invalidate without being cleared at every barrier.
  [[nodiscard]] std::uint64_t window_id() const { return window_id_; }

  /// Golden fire-order hook: receives exactly the serial engine's
  /// (seq, time) stream — emitted live at serial instants, replayed at the
  /// barrier merge for window events.
  void set_fire_hook(Callback<void(std::uint64_t, TimePoint)> hook);
  /// Applies one deferred side effect (metrics record, flow abort) during
  /// the merge replay. Installed by the network layer.
  void set_effect_sink(Callback<void(const DeferredEffect&)> sink) {
    effect_sink_ = sink;
  }
  /// Runs after every barrier's merge + mailbox delivery, while all
  /// workers are parked: the network layer reconciles sender-owned wire
  /// accounting and drains cross-shard pool-free lanes here.
  void set_barrier_hook(Callback<void()> hook) { barrier_hook_ = hook; }

  /// Runs all calendars (control + shards) up to and including `t`, then
  /// aligns every clock to exactly `t` — the sharded equivalent of
  /// Simulator::run_until.
  void run_until(TimePoint t);

  [[nodiscard]] std::uint64_t events_processed() const;
  /// Live (scheduled, uncancelled) events across all calendars — the
  /// whole-engine analogue of Simulator::events_pending.
  [[nodiscard]] std::size_t events_pending() const;
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  [[nodiscard]] std::uint64_t instants_run() const { return instants_; }
  [[nodiscard]] std::uint64_t cross_messages() const { return cross_msgs_; }
  [[nodiscard]] std::int64_t lookahead_ps() const { return lookahead_ps_; }
  [[nodiscard]] bool threaded() const { return !workers_.empty(); }

  /// The engine-global serial sequence counter. The network layer points
  /// every Simulator (control + shards) at this source so construction,
  /// workload setup and serial instants consume exactly the serial run's
  /// sequence numbers; the barrier merge draws kids' final numbers from the
  /// same counter.
  [[nodiscard]] std::uint64_t* global_seq_source() { return &global_seq_; }

 private:
  static std::int64_t peek_time(Simulator& sim);
  /// Advances every clock (control + shards) still before `t` to `t`.
  void align_clocks(TimePoint t);
  void run_window(std::int64_t limit_ps);
  void run_instant(std::int64_t t_ps);
  void merge_and_transfer();
  void drain_shard(std::uint32_t s);
  void worker_main(std::uint32_t s);

  Simulator& control_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<ShardWindowLog> logs_;
  std::vector<std::vector<CrossArrivalNote>> notes_;
  std::vector<std::uint32_t> cursor_;  ///< merge cursors (scratch)
  std::int64_t lookahead_ps_;
  std::uint64_t global_seq_ = 1;

  Callback<void(std::uint64_t, TimePoint)> hook_;
  Callback<void(const DeferredEffect&)> effect_sink_;
  Callback<void()> barrier_hook_;

  bool window_active_ = false;
  std::uint64_t window_id_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t instants_ = 0;
  std::uint64_t cross_msgs_ = 0;
  std::int64_t window_limit_ps_ = 0;

  // Epoch/arrival barrier. The coordinator publishes window parameters,
  // then bumps epoch_ (release); workers spin on epoch_ (acquire), drain,
  // and bump arrived_ (release); the coordinator spins on arrived_
  // (acquire). Each handoff is a full happens-before edge, so the logs and
  // calendars need no further synchronization.
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace dqos
