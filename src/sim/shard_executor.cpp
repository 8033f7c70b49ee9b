#include "sim/shard_executor.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace dqos {

namespace {

/// Bounded spin with escalating politeness: brief busy loop for the common
/// sub-microsecond barrier, then yield so an oversubscribed (or
/// single-core) machine makes progress instead of burning a quantum.
struct Backoff {
  std::uint32_t spins = 0;
  void pause() {
    if (++spins < 64) return;
    std::this_thread::yield();
  }
};

}  // namespace

ShardExecutor::ShardExecutor(Simulator& control, std::uint32_t num_shards,
                             std::int64_t lookahead_ps, bool use_threads)
    : control_(control), lookahead_ps_(lookahead_ps) {
  DQOS_EXPECTS(num_shards >= 2);
  DQOS_EXPECTS(lookahead_ps > 0);
  sims_.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  logs_.resize(num_shards);
  for (ShardWindowLog& log : logs_) {
    log.outboxes.resize(num_shards);
    log.reset(Simulator::kProvSeqBase);
  }
  notes_.resize(num_shards);
  cursor_.assign(num_shards, 0);
  control_.set_seq_source(&global_seq_);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    sim->set_seq_source(&global_seq_);
  }
  if (use_threads) {
    workers_.reserve(num_shards - 1);
    for (std::uint32_t s = 1; s < num_shards; ++s) {
      workers_.emplace_back([this, s] { worker_main(s); });
    }
  }
}

ShardExecutor::~ShardExecutor() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& w : workers_) w.join();
  }
}

void ShardExecutor::set_fire_hook(Callback<void(std::uint64_t, TimePoint)> hook) {
  hook_ = hook;
  // Serial instants run through Simulator::step_due, which emits the hook
  // itself — in true global order, since instants are single-threaded.
  // Window drains bypass the hook (the merge replays it), so installing it
  // on every calendar is safe.
  control_.set_fire_hook(hook);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    sim->set_fire_hook(hook);
  }
}

void ShardExecutor::align_clocks(TimePoint t) {
  if (control_.now() < t) control_.advance_to(t);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    if (sim->now() < t) sim->advance_to(t);
  }
}

std::int64_t ShardExecutor::peek_time(Simulator& sim) {
  std::int64_t tps = 0;
  std::uint64_t seq = 0;
  if (!sim.peek_next(tps, seq)) return std::numeric_limits<std::int64_t>::max();
  return tps;
}

std::uint64_t ShardExecutor::events_processed() const {
  std::uint64_t n = control_.events_processed();
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    n += sim->events_processed();
  }
  return n;
}

std::size_t ShardExecutor::events_pending() const {
  std::size_t n = control_.events_pending();
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    n += sim->events_pending();
  }
  return n;
}

void ShardExecutor::drain_shard(std::uint32_t s) {
  const TimePoint limit = TimePoint::from_ps(window_limit_ps_);
  Simulator& sim = *sims_[s];
  ShardWindowLog& log = logs_[s];
  PacketPool::set_current_shard(static_cast<std::int32_t>(s));
  while (sim.drain_window(limit, log)) {
  }
  PacketPool::set_current_shard(-1);
}

void ShardExecutor::worker_main(std::uint32_t s) {
  std::uint64_t seen = 0;
  for (;;) {
    Backoff bo;
    std::uint64_t e;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) bo.pause();
    seen = e;
    if (stop_.load(std::memory_order_relaxed)) return;
    drain_shard(s);
    arrived_.fetch_add(1, std::memory_order_release);
  }
}

void ShardExecutor::run_window(std::int64_t limit_ps) {
  ++windows_;
  ++window_id_;
  window_limit_ps_ = limit_ps;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    sims_[s]->set_window_log(&logs_[s]);
  }
  window_active_ = true;
  if (workers_.empty()) {
    for (std::uint32_t s = 0; s < num_shards(); ++s) drain_shard(s);
  } else {
    epoch_.fetch_add(1, std::memory_order_release);
    drain_shard(0);
    Backoff bo;
    const std::uint32_t n = static_cast<std::uint32_t>(workers_.size());
    while (arrived_.load(std::memory_order_acquire) != n) bo.pause();
    arrived_.store(0, std::memory_order_relaxed);
  }
  window_active_ = false;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    sims_[s]->set_window_log(nullptr);
  }
  merge_and_transfer();
}

void ShardExecutor::merge_and_transfer() {
  const std::uint32_t n = num_shards();
  std::fill(cursor_.begin(), cursor_.end(), 0u);
  // K-way merge of the shards' fire logs by (time, key). Every record's key
  // is final by the time it reaches the merge front: a provisionally-keyed
  // record's parent fired earlier on the same shard (and thus merges
  // first), and patching assigns its final key then.
  for (;;) {
    std::uint32_t best = n;
    std::int64_t best_t = 0;
    std::uint64_t best_k = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (cursor_[s] >= logs_[s].fires.size()) continue;
      const ShardWindowLog::FireRec& r = logs_[s].fires[cursor_[s]];
      if (best == n || r.time_ps < best_t ||
          (r.time_ps == best_t && r.key < best_k)) {
        best = s;
        best_t = r.time_ps;
        best_k = r.key;
      }
    }
    if (best == n) break;
    ShardWindowLog& log = logs_[best];
    const ShardWindowLog::FireRec& r = log.fires[cursor_[best]++];
    DQOS_ASSERT(r.key < Simulator::kProvSeqBase);
    if (hook_) hook_(r.key, TimePoint::from_ps(r.time_ps));
    for (std::uint32_t i = r.fx_begin; i < r.fx_end; ++i) {
      effect_sink_(log.effects[i]);
    }
    for (std::uint32_t i = r.kid_begin; i < r.kid_end; ++i) {
      const std::uint64_t kid = log.kids[i];
      const std::uint64_t fin = global_seq_++;
      if ((kid & ShardWindowLog::kMailboxBit) != 0) {
        const auto dst = static_cast<std::uint32_t>((kid >> 32) & 0xffffu);
        const auto idx = static_cast<std::uint32_t>(kid & 0xffffffffu);
        log.outboxes[dst][idx].seq = fin;
      } else {
        DQOS_ASSERT(kid >= Simulator::kProvSeqBase);
        const std::size_t pi =
            static_cast<std::size_t>(kid - Simulator::kProvSeqBase);
        const std::uint32_t fi = log.prov_fired[pi];
        if (fi != 0) {
          log.fires[fi - 1].key = fin;
        } else {
          // Still pending: patch the calendar entry in place. A stale
          // handle means the event was cancelled inside the window — the
          // serial run consumed the sequence number all the same.
          static_cast<void>(sims_[best]->rekey(log.prov_ids[pi], fin));
        }
      }
    }
  }
  // Deliver mailboxes in deterministic (source, destination, index) order.
  // The lookahead guarantee: nothing lands at or before the window edge.
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      for (CrossMsg& m : logs_[src].outboxes[dst]) {
        DQOS_ASSERT(m.at_ps > window_limit_ps_);
        DQOS_ASSERT(m.seq != 0);
        ++cross_msgs_;
        m.deliver(std::move(m));
      }
    }
  }
  if (barrier_hook_) barrier_hook_();
  for (std::uint32_t s = 0; s < n; ++s) {
    logs_[s].reset(Simulator::kProvSeqBase);
  }
}

void ShardExecutor::run_instant(std::int64_t t_ps) {
  ++instants_;
  const TimePoint limit = TimePoint::from_ps(t_ps);
  // Align every clock first: a control event may synchronously touch a
  // shard's components (retarget a source, open a flow), and those read
  // their own calendar's now() — which must equal the instant, exactly as
  // in the serial run, even on shards with no event due here.
  align_clocks(limit);
  // Interleave every calendar's events at this instant in global
  // (time, seq) order — all keys are final outside windows, so the
  // comparison is exact. New events scheduled at the same instant join the
  // interleave via the re-peek.
  for (;;) {
    Simulator* pick = nullptr;
    std::uint64_t pick_seq = 0;
    const auto consider = [&](Simulator& sim) {
      std::int64_t tps = 0;
      std::uint64_t seq = 0;
      if (!sim.peek_next(tps, seq) || tps != t_ps) return;
      if (pick == nullptr || seq < pick_seq) {
        pick = &sim;
        pick_seq = seq;
      }
    };
    consider(control_);
    for (const std::unique_ptr<Simulator>& sim : sims_) consider(*sim);
    if (pick == nullptr) break;
    const bool fired = pick->step_due(limit);
    DQOS_ASSERT(fired);
    static_cast<void>(fired);
  }
}

void ShardExecutor::run_until(TimePoint t) {
  const std::int64_t target_ps = t.ps();
  for (;;) {
    std::int64_t t_ctrl = peek_time(control_);
    std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
    for (const std::unique_ptr<Simulator>& sim : sims_) {
      t_min = std::min(t_min, peek_time(*sim));
    }
    const std::int64_t next = std::min(t_ctrl, t_min);
    if (next > target_ps) break;
    if (t_ctrl <= t_min) {
      run_instant(t_ctrl);
      continue;
    }
    // Conservative window over [t_min, H): no calendar can produce a
    // cross-shard effect before t_min + lookahead, and the control
    // calendar (whose events may touch any shard) is not due before H.
    std::int64_t horizon = t_min + lookahead_ps_;
    horizon = std::min(horizon, t_ctrl);
    horizon = std::min(horizon, target_ps + 1);
    DQOS_ASSERT(horizon > t_min);
    run_window(horizon - 1);
  }
  align_clocks(t);
}

}  // namespace dqos
