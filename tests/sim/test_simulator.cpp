#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "sim/shard_link.hpp"
#include "util/rng.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace dqos {
namespace {

using namespace dqos::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::zero());
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ps(300), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_ps(100), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_ps(200), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ps(), 300);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SimultaneousEventsFifo) {
  // Events at the same instant fire in scheduling order — the determinism
  // guarantee the whole simulator's reproducibility rests on.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(TimePoint::from_ps(1000), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_after(5_us, [&] {
    fired = sim.now();
  });
  sim.run();
  EXPECT_EQ(fired.ps(), 5'000'000);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_after(1_us, tick);
  };
  sim.schedule_after(1_us, tick);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now().ps(), 10 * 1'000'000);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(1_us, [&] { fired = true; });
  sim.schedule_after(2_us, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now().ps(), 2'000'000);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(0);
  sim.cancel(999);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_until(TimePoint::from_ps(7777));
  EXPECT_EQ(sim.now().ps(), 7777);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_ps(100), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_ps(200), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_ps(300), [&] { ++fired; });
  sim.run_until(TimePoint::from_ps(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ps(), 200);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(TimePoint::from_ps(50), [&] { fired = true; });
  sim.cancel(id);
  sim.run_until(TimePoint::from_ps(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now().ps(), 100);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(3_us);
  sim.run_for(2_us);
  EXPECT_EQ(sim.now().ps(), 5'000'000);
}

TEST(SimulatorDeathTest, SchedulingInPastAborts) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_ps(100), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(TimePoint::from_ps(50), [] {}), "precondition");
}

TEST(Simulator, EventCascadeAtSameInstant) {
  // An event scheduling another event at the *same* time must fire it in
  // this step loop (time does not advance).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ps(10), [&] {
    order.push_back(1);
    sim.schedule_at(TimePoint::from_ps(10), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().ps(), 10);
}

TEST(Simulator, RandomScheduleCancelStress) {
  // Property: every scheduled-and-not-cancelled event fires exactly once,
  // in non-decreasing time order, regardless of interleaving.
  Simulator sim;
  Rng rng(7);
  std::vector<EventId> pending;
  std::uint64_t fired = 0, scheduled = 0, cancelled = 0;
  TimePoint last_fire;
  for (int i = 0; i < 5000; ++i) {
    if (pending.empty() || rng.chance(0.7)) {
      const auto delay =
          Duration::picoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 100000)));
      pending.push_back(sim.schedule_after(delay, [&] {
        EXPECT_GE(sim.now(), last_fire);
        last_fire = sim.now();
        ++fired;
      }));
      ++scheduled;
    } else {
      const auto j = rng.uniform_int(0, pending.size() - 1);
      sim.cancel(pending[j]);
      pending[j] = pending.back();
      pending.pop_back();
      ++cancelled;
    }
    if (rng.chance(0.1)) sim.step();  // interleave execution
  }
  sim.run();
  // Some cancels may have targeted already-fired events; the invariant is
  // fired + (effective cancels) == scheduled, bounded by attempted cancels.
  EXPECT_LE(fired, scheduled);
  EXPECT_GE(fired, scheduled - cancelled);
}

TEST(Simulator, CancelBookkeepingStaysBounded) {
  // Regression: cancel() used to park every cancelled id in a tombstone set
  // forever. The set must shrink as the heap pops (or skips) entries, so a
  // long-running schedule/cancel churn cannot grow memory without bound.
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    ids.reserve(100);
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.schedule_after(Duration::nanoseconds(i + 1), [] {}));
    }
    for (const EventId id : ids) sim.cancel(id);
    sim.run();
    EXPECT_EQ(sim.events_pending(), 0u);
    EXPECT_EQ(sim.cancelled_pending(), 0u);  // tombstones fully reclaimed
  }
}

TEST(Simulator, CancelAfterFireIsNoopAndLeavesNoTombstone) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.cancel(id);  // already fired: must not register a tombstone
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DoubleCancelRegistersOneTombstone) {
  Simulator sim;
  const EventId id = sim.schedule_after(Duration::nanoseconds(5), [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, CancelThenRescheduleStorm) {
  // The host retry-timer pattern, at storm intensity: one logical timer is
  // cancelled and re-armed thousands of times; only the last arming may
  // fire, and the indexed heap must not leak slots or tombstones.
  Simulator sim;
  int fired = 0;
  EventId timer = 0;
  for (int i = 0; i < 10000; ++i) {
    if (i > 0) sim.cancel(timer);
    timer = sim.schedule_after(Duration::nanoseconds(100 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoop) {
  // Generation tags: once an event fires, its id must never alias a newer
  // event that recycled the same heap slot.
  Simulator sim;
  int first = 0, second = 0;
  const EventId old_id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  // The freed slot is recycled by the next schedule; the stale id differs
  // only in generation.
  const EventId new_id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++second; });
  EXPECT_NE(old_id, new_id);
  sim.cancel(old_id);  // stale: must NOT cancel the new occupant
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, CancelInsideCallback) {
  // A firing event cancels a later one and a simultaneous one — both from
  // inside the kernel's dispatch loop.
  Simulator sim;
  bool later_fired = false, peer_fired = false;
  const EventId later =
      sim.schedule_at(TimePoint::from_ps(200), [&] { later_fired = true; });
  EventId peer = 0;
  sim.schedule_at(TimePoint::from_ps(100), [&] {
    sim.cancel(later);
    sim.cancel(peer);
  });
  peer = sim.schedule_at(TimePoint::from_ps(100), [&] { peer_fired = true; });
  sim.run();
  EXPECT_FALSE(later_fired);
  EXPECT_FALSE(peer_fired);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.now().ps(), 100);
}

TEST(Simulator, CancelOwnEventInsideItsCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  EventId self = 0;
  self = sim.schedule_after(Duration::nanoseconds(1), [&] {
    ++fired;
    sim.cancel(self);  // already popped: must be a no-op, not a tombstone
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, MoveOnlyClosure) {
  // The kernel accepts move-only callables directly (the zero-copy packet
  // hand-off relies on this — no shared_ptr shim).
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sim.schedule_after(Duration::nanoseconds(1),
                     [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, CancelDestroysClosureEagerly) {
  // cancel() releases the closure's resources immediately, not at pop time
  // — a cancelled retry timer must not pin its captures for the remaining
  // heap lifetime of the tombstone.
  Simulator sim;
  auto tracked = std::make_shared<int>(7);
  std::weak_ptr<int> watch = tracked;
  const EventId id = sim.schedule_after(Duration::nanoseconds(1000),
                                        [p = std::move(tracked)] { (void)*p; });
  EXPECT_FALSE(watch.expired());
  sim.cancel(id);
  EXPECT_TRUE(watch.expired());
  sim.run();
}

TEST(Simulator, DrainDueFiresExactlyTheDueBatch) {
  // The public batch API (DESIGN.md §11): drain whole due batches until
  // nothing at or before the limit remains, leaving later events pending.
  Simulator sim;
  std::vector<int> fired;
  for (const int t : {1, 5, 9, 9, 12}) {
    sim.schedule_at(TimePoint::from_ps(t * 1000), [&fired, t] { fired.push_back(t); });
  }
  while (sim.drain_due(TimePoint::from_ps(9000))) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 5, 9, 9}));
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.now().ps(), 9000);  // clock follows the last firing
  sim.run();
  EXPECT_EQ(fired.back(), 12);
  EXPECT_EQ(sim.now().ps(), 12000);
}

TEST(Simulator, CancelStormMidBatchSkipsTombstonedRungEntries) {
  // drain_due() fires a whole due batch per loop iteration; the trigger
  // (lowest seq at the instant) cancels events *later in the same sorted
  // rung*, which the eager cancel path tombstones in place. The drain
  // must skip those sentinels without firing or reordering anything.
  Simulator sim;
  std::vector<EventId> victims;
  int fired_victims = 0;
  int fired_keepers = 0;
  sim.schedule_after(Duration::nanoseconds(10), [&] {
    for (const EventId id : victims) sim.cancel(id);
  });
  for (int i = 0; i < 64; ++i) {
    victims.push_back(
        sim.schedule_after(Duration::nanoseconds(10), [&] { ++fired_victims; }));
    sim.schedule_after(Duration::nanoseconds(10), [&] { ++fired_keepers; });
  }
  sim.run();
  EXPECT_EQ(fired_victims, 0);
  EXPECT_EQ(fired_keepers, 64);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, TombstoneHeavyBatchDrainKeepsSurvivorOrder) {
  // 90% of a 10k-event band is cancelled up front — a mix of in-rung
  // sentinels and bucket tombstones. The batch drain must bulk-skip all
  // of them, fire the survivors in exact (time, seq) order, and reclaim
  // every tombstone by the end of the run.
  Simulator sim;
  std::vector<EventId> ids;
  std::vector<int> order;
  ids.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sim.schedule_after(Duration::nanoseconds(1 + (i % 97)),
                                     [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  const auto t_of = [](int tag) { return 1 + (tag % 97); };
  for (std::size_t k = 1; k < order.size(); ++k) {
    const bool ordered =
        t_of(order[k - 1]) < t_of(order[k]) ||
        (t_of(order[k - 1]) == t_of(order[k]) && order[k - 1] < order[k]);
    EXPECT_TRUE(ordered) << order[k - 1] << " fired before " << order[k];
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, ScheduleInsideDrainBatchHonorsTheLimit) {
  // A callback firing mid-batch inserts a new event inside the same due
  // window (must fire in this drain) and one past the limit (must stay
  // pending) — the reentrancy case the batch loop's re-read guards.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_ps(1000), [&] {
    fired.push_back(1);
    sim.schedule_at(TimePoint::from_ps(1500), [&] { fired.push_back(15); });
    sim.schedule_at(TimePoint::from_ps(9000), [&] { fired.push_back(90); });
  });
  sim.schedule_at(TimePoint::from_ps(2000), [&] { fired.push_back(2); });
  sim.run_until(TimePoint::from_ps(3000));
  EXPECT_EQ(fired, (std::vector<int>{1, 15, 2}));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired.back(), 90);
}

TEST(Simulator, InterleavedCancelRescheduleKeepsFifoOrder) {
  // Cancelling and rescheduling at one instant must not perturb the FIFO
  // order of the surviving same-time events (the determinism contract).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        sim.schedule_at(TimePoint::from_ps(500), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 20; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  std::vector<int> expect;
  for (int i = 0; i < 20; i += 2) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

// --- stepping, peeking, keyed scheduling and window drains ------------------

/// Records the fire-hook stream: one (seq, time) pair per fired event.
struct HookLog {
  std::vector<std::pair<std::uint64_t, std::int64_t>> fires;
  static void record(void* ctx, std::uint64_t seq, TimePoint t) {
    static_cast<HookLog*>(ctx)->fires.emplace_back(seq, t.ps());
  }
  void attach(Simulator& sim) {
    sim.set_fire_hook(
        Callback<void(std::uint64_t, TimePoint)>(&HookLog::record, this));
  }
};

TEST(Simulator, StepDueStopsAtTheLimitAndMatchesStep) {
  // Twin calendars get the same schedule calls, interleaved with firing:
  // one fires through step(), the other through step_due(limit) batches.
  // step_due never fires past its limit, and both hook streams agree.
  Simulator a, b;
  HookLog ha, hb;
  ha.attach(a);
  hb.attach(b);
  Rng rng(7);
  std::int64_t limit_ps = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      const auto dt = static_cast<std::int64_t>(rng.uniform_int(0, 3000));
      a.schedule_at(a.now() + Duration::picoseconds(dt), [] {});
      b.schedule_at(b.now() + Duration::picoseconds(dt), [] {});
    }
    limit_ps += 1500;
    const TimePoint limit = TimePoint::from_ps(limit_ps);
    while (b.step_due(limit)) {
      EXPECT_LE(b.now().ps(), limit_ps);
    }
    const std::size_t fired_b = hb.fires.size();
    while (ha.fires.size() < fired_b) ASSERT_TRUE(a.step());
    ASSERT_EQ(ha.fires, hb.fires);
    EXPECT_EQ(a.events_pending(), b.events_pending());
    if (b.events_pending() != 0) {
      std::int64_t t = 0;
      std::uint64_t seq = 0;
      ASSERT_TRUE(b.peek_next(t, seq));
      EXPECT_GT(t, limit_ps);  // the limit left this one queued
    }
  }
  while (a.step()) {
  }
  while (b.step_due(TimePoint::max())) {
  }
  EXPECT_EQ(ha.fires, hb.fires);
  EXPECT_FALSE(b.step_due(TimePoint::max()));
}

TEST(Simulator, PeekSkipsACancelledRungHead) {
  Simulator sim;
  HookLog hook;
  hook.attach(sim);
  const EventId first = sim.schedule_at(TimePoint::from_ps(100), [] {});
  sim.schedule_at(TimePoint::from_ps(100), [] {});
  sim.schedule_at(TimePoint::from_ps(150), [] {});
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(sim.peek_next(t, seq));  // harvests all three into the rung
  EXPECT_EQ(t, 100);
  EXPECT_EQ(seq, 1u);
  sim.cancel(first);  // an in-rung tombstone at the head
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  ASSERT_TRUE(sim.peek_next(t, seq));
  EXPECT_EQ(t, 100);
  EXPECT_EQ(seq, 2u);
  ASSERT_TRUE(sim.step());
  ASSERT_EQ(hook.fires.size(), 1u);
  EXPECT_EQ(hook.fires[0], std::make_pair(seq, t));
  ASSERT_TRUE(sim.peek_next(t, seq));
  EXPECT_EQ(t, 150);
  EXPECT_EQ(seq, 3u);
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.peek_next(t, seq));
}

TEST(Simulator, ScheduleKeyedOrdersSameInstantBySeq) {
  Simulator sim;
  HookLog hook;
  hook.attach(sim);
  std::vector<int> order;
  sim.schedule_keyed(TimePoint::from_ps(500), 30, [&] { order.push_back(30); });
  sim.schedule_keyed(TimePoint::from_ps(500), 10, [&] { order.push_back(10); });
  sim.schedule_keyed(TimePoint::from_ps(500), 20, [&] { order.push_back(20); });
  sim.schedule_keyed(TimePoint::from_ps(400), 40, [&] { order.push_back(40); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{40, 10, 20, 30}));
  const std::vector<std::pair<std::uint64_t, std::int64_t>> expect = {
      {40, 400}, {10, 500}, {20, 500}, {30, 500}};
  EXPECT_EQ(hook.fires, expect);
}

TEST(Simulator, RekeyReordersRungAndBucketEntries) {
  Simulator sim;
  std::vector<int> order;
  // Rung entry: harvested by the peek, then rekeyed 10 -> 40. A later
  // keyed insert at seq 20 must now fire before it.
  const TimePoint t0 = TimePoint::from_ps(100);
  const EventId a = sim.schedule_keyed(t0, 10, [&] { order.push_back(1); });
  sim.schedule_keyed(t0, 50, [&] { order.push_back(2); });
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(sim.peek_next(t, seq));
  EXPECT_EQ(seq, 10u);
  EXPECT_TRUE(sim.rekey(a, 40));
  sim.schedule_keyed(t0, 20, [&] { order.push_back(3); });
  ASSERT_TRUE(sim.peek_next(t, seq));
  EXPECT_EQ(seq, 20u);
  // Bucketed entries (far past the harvested window): an unsorted bucket
  // may be rekeyed into any order.
  const TimePoint t1 = TimePoint::from_ps(1'000'000);
  const EventId x = sim.schedule_keyed(t1, 60, [&] { order.push_back(4); });
  sim.schedule_keyed(t1, 70, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.rekey(x, 80));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 5, 4}));
  // Stale handles: fired, and cancelled.
  EXPECT_FALSE(sim.rekey(a, 90));
  const EventId c = sim.schedule_after(Duration::nanoseconds(1), [] {});
  sim.cancel(c);
  EXPECT_FALSE(sim.rekey(c, 91));
  sim.run();
}

/// Fires a tagged event: logs the tag, and a root (tag < 100) schedules
/// two kids — one at the same instant, one 700 ps later.
void fire_tagged(Simulator& sim, std::vector<int>& order, int tag) {
  order.push_back(tag);
  if (tag >= 100) return;
  sim.schedule_after(Duration::zero(), [&sim, &order, tag] {
    fire_tagged(sim, order, tag * 100 + 1);
  });
  sim.schedule_after(Duration::picoseconds(700), [&sim, &order, tag] {
    fire_tagged(sim, order, tag * 100 + 2);
  });
}

void schedule_roots(Simulator& sim, std::vector<int>& order) {
  for (int r = 1; r < 40; ++r) {
    sim.schedule_at(TimePoint::from_ps((r * 379) % 5000), [&sim, &order, r] {
      fire_tagged(sim, order, r);
    });
  }
}

TEST(Simulator, DrainWindowLogsTheSerialFireOrder) {
  // A window-mode calendar and a serial twin get the same schedule. The
  // window drain must fire in the serial drain's order, log one FireRec
  // per event with that event's kid range, and leave the hook silent.
  Simulator serial, windowed;
  HookLog hs, hw;
  hs.attach(serial);
  hw.attach(windowed);
  std::vector<int> order_s, order_w;
  schedule_roots(serial, order_s);
  schedule_roots(windowed, order_w);
  const TimePoint limit = TimePoint::from_ps(3000);
  while (serial.drain_due(limit)) {
  }
  ShardWindowLog log;
  log.reset(Simulator::kProvSeqBase);
  windowed.set_window_log(&log);
  while (windowed.drain_window(limit, log)) {
  }
  windowed.set_window_log(nullptr);

  EXPECT_TRUE(hw.fires.empty());
  ASSERT_FALSE(order_s.empty());
  EXPECT_EQ(order_w, order_s);
  ASSERT_EQ(log.fires.size(), hs.fires.size());
  std::uint32_t next_kid = 0;
  for (std::size_t i = 0; i < log.fires.size(); ++i) {
    const ShardWindowLog::FireRec& rec = log.fires[i];
    EXPECT_EQ(rec.time_ps, hs.fires[i].second);
    // Pre-window events keep their final seq; window kids carry
    // provisional keys that the engine's merge would replace.
    if (rec.key < Simulator::kProvSeqBase) {
      EXPECT_EQ(rec.key, hs.fires[i].first);
    }
    EXPECT_EQ(rec.kid_begin, next_kid);
    EXPECT_EQ(rec.kid_end - rec.kid_begin, order_w[i] < 100 ? 2u : 0u);
    EXPECT_EQ(rec.fx_begin, rec.fx_end);
    next_kid = rec.kid_end;
  }
  EXPECT_EQ(next_kid, log.kids.size());
  EXPECT_EQ(windowed.events_pending(), serial.events_pending());
  EXPECT_EQ(windowed.now(), serial.now());
}

}  // namespace
}  // namespace dqos
