// The calendar is the event store: slot, FIFO, and tier growth in this
// file is amortized doubling over arrays the steady state never shrinks,
// reviewed as a whole. The hot drain roots and the fire/drain bodies they
// share (dqos-lint: hot below) still keep their own code allocation-free.
// dqos-lint: allow-file(hot-path-transitive)
#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/shard_link.hpp"

namespace dqos {

namespace {

/// Serial fire observer: feeds the (seq, time) fire hook, when installed.
struct HookObserver {
  const Callback<void(std::uint64_t, TimePoint)>& hook;
  void pre_fire(std::uint64_t seq, TimePoint t) const {
    if (hook) hook(seq, t);
  }
  void post_fire() const {}
};

/// Window fire observer: no hook — the engine replays the hook stream at
/// the barrier merge, in global order, once every key is final. Instead it
/// logs one FireRec per event, whose kid/effect ranges close once the
/// closure has run.
struct WindowObserver {
  ShardWindowLog& log;

  void pre_fire(std::uint64_t seq, TimePoint t) {
    if (seq >= Simulator::kProvSeqBase) {
      log.prov_fired[seq - Simulator::kProvSeqBase] =
          static_cast<std::uint32_t>(log.fires.size()) + 1;
    }
    const auto kids = static_cast<std::uint32_t>(log.kids.size());
    const auto fx = static_cast<std::uint32_t>(log.effects.size());
    const ShardWindowLog::FireRec rec{t.ps(), seq, kids, kids, fx, fx};
    // Log capacity is retained across windows (reset() clears, never
    // shrinks), so steady-state appends are allocation-free.
    log.fires.push_back(rec);  // dqos-lint: allow(hot-path-transitive)
  }
  void post_fire() {
    // Nothing else appends to `fires` while the closure runs, so this
    // event's record is still the last one (the vector may have grown).
    ShardWindowLog::FireRec& rec = log.fires.back();
    rec.kid_end = static_cast<std::uint32_t>(log.kids.size());
    rec.fx_end = static_cast<std::uint32_t>(log.effects.size());
  }
};

/// Smallest bucket-width shift whose width 2^shift covers `target` ps
/// (capped at 2^40).
unsigned shift_covering(std::int64_t target) {
  unsigned shift = 0;
  while ((std::int64_t{1} << shift) < target && shift < 40) ++shift;
  return shift;
}

}  // namespace

EventId Simulator::insert_event(TimePoint t, std::uint64_t seq,
                                InlineTask&& fn) {
  DQOS_EXPECTS(t >= now_);
  DQOS_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  s.time_ps = t.ps();
  s.seq = seq;
  push_entry(CalEntry{t, seq, slot});
  ++live_;
  return make_id(s.gen, slot);
}

EventId Simulator::schedule_at(TimePoint t, InlineTask&& fn) {
  const std::uint64_t seq = (*seq_src_)++;
  const EventId id = insert_event(t, seq, std::move(fn));
  if (wlog_ != nullptr) {
    // Window mode: this schedule is a kid of the currently-firing event.
    // The provisional key doubles as the registry index.
    DQOS_ASSERT(seq >= kProvSeqBase);
    wlog_->kids.push_back(seq);
    wlog_->prov_ids.push_back(id);
    wlog_->prov_fired.push_back(0);
  }
  return id;
}

EventId Simulator::schedule_keyed(TimePoint t, std::uint64_t seq,
                                  InlineTask&& fn) {
  return insert_event(t, seq, std::move(fn));
}

void Simulator::set_seq_source(std::uint64_t* src) {
  ext_seq_ = src;
  if (wlog_ == nullptr) seq_src_ = src != nullptr ? src : &next_seq_;
}

void Simulator::set_window_log(ShardWindowLog* log) {
  wlog_ = log;
  if (log != nullptr) {
    seq_src_ = &log->window_seq;
  } else {
    seq_src_ = ext_seq_ != nullptr ? ext_seq_ : &next_seq_;
  }
}

Simulator::Slot* Simulator::live_slot(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  // Fired/cancelled/reused slots fail the live || generation check: no
  // residue, so schedule/fire/cancel cycles cannot grow memory unboundedly.
  return s.live && s.gen == gen ? &s : nullptr;
}

bool Simulator::rekey(EventId id, std::uint64_t new_seq) {
  Slot* const s = live_slot(id);
  if (s == nullptr) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  if (s->time_ps < bottom_end_ps_) {
    // Harvested into the sorted bottom rung: locate by the old key and
    // update in place. Order is preserved — the merge assigns final keys in
    // the rung's own (time, provisional) order, and every final assigned
    // this window exceeds every pre-window final still pending.
    const auto it = rung_find(slot);
    it->seq = new_seq;
    DQOS_ASSERT(it == bottom_.begin() +
                          static_cast<std::ptrdiff_t>(bottom_idx_) ||
                Earlier{}(*(it - 1), *it));
    DQOS_ASSERT(it + 1 == bottom_.end() || Earlier{}(*it, *(it + 1)));
  } else {
    // Still in an (unsorted) bucket: a live slot has exactly one entry, so
    // matching the slot index suffices. Buckets hold roughly a bucket-year
    // of events by design, so the scan is short.
    std::vector<CalEntry>& vec = bucket_of(s->time_ps);
    const auto it =
        std::find_if(vec.begin(), vec.end(),
                     [slot](const CalEntry& e) { return e.slot == slot; });
    DQOS_ASSERT(it != vec.end() && it->seq == s->seq);
    it->seq = new_seq;
  }
  s->seq = new_seq;
  return true;
}

void Simulator::cancel(EventId id) {
  Slot* const s = live_slot(id);
  if (s == nullptr) return;
  const auto slot = static_cast<std::uint32_t>(id);
  s->live = false;
  s->fn.reset();  // release captures now
  --live_;
  if (s->time_ps < bottom_end_ps_) {
    // Already harvested into the bottom rung: binary-search the exact
    // entry and blank its slot index in place — no linear scan, and the
    // slot recycles immediately. The blank entry keeps its key so the rung
    // stays sorted; the head accessor skips it without a slot-table load.
    rung_find(slot)->slot = kTombstoneSlot;
    free_slot(slot);
    return;
  }
  s->cancelled = true;  // the bucket entry dies lazily at harvest/rebuild
  ++tombstones_;
}

std::vector<Simulator::CalEntry>::iterator Simulator::rung_find(
    std::uint32_t slot) {
  // Every pending entry with time < bottom_end_ps_ lives in
  // bottom_[bottom_idx_..), sorted by (time, seq).
  const Slot& s = slots_[slot];
  const auto it =
      rung_bound(CalEntry{TimePoint::from_ps(s.time_ps), s.seq, slot});
  DQOS_ASSERT(it != bottom_.end() && it->seq == s.seq && it->slot == slot);
  return it;
}

void Simulator::push_entry(const CalEntry e) {
  if (e.time.ps() < bottom_end_ps_) {
    // Due inside the already-harvested window: keep the bottom rung
    // exhaustive and sorted. The insert position is at or after the
    // consumption index (e.time >= now_ >= last popped entry).
    bottom_.insert(rung_bound(e), e);
  } else {
    bucket_of(e.time.ps()).push_back(e);
  }
  ++entries_;
  if (entries_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    rebuild();
  }
}

bool Simulator::refill_bottom() {
  bottom_.clear();
  bottom_idx_ = 0;
  // Harvests one bucket's current-year entries into bottom_, reclaiming
  // lazily-cancelled ones on the way: tombstones die here in bulk, before
  // the sort, so the drain never sees them. Moves the window past the
  // bucket-year and returns whether anything live was harvested.
  const auto harvest = [this](std::int64_t abs) {
    std::vector<CalEntry>& vec =
        buckets_[static_cast<std::size_t>(abs) & bucket_mask_];
    const std::int64_t limit = (abs + 1) << width_shift_;
    // A tombstone-free calendar (the steady-state datapath) skips the
    // per-entry slot-table load — a random-access cache miss per event —
    // and just splits the bucket into due and future-year entries.
    const bool any_tombstones = tombstones_ != 0;
    for (std::size_t i = 0; i < vec.size();) {
      if (vec[i].time.ps() >= limit) {
        ++i;
        continue;
      }
      const CalEntry e = vec[i];
      vec[i] = vec.back();
      vec.pop_back();
      if (!any_tombstones || !reclaimed(e)) bottom_.push_back(e);
    }
    bottom_end_ps_ = limit;
    if (bottom_.empty()) return false;
    std::sort(bottom_.begin(), bottom_.end(), Earlier{});
    return true;
  };
  while (entries_ != 0) {
    const std::size_t nbuckets = bucket_mask_ + 1;
    std::int64_t abs = bottom_end_ps_ >> width_shift_;
    for (std::size_t step = 0; step < nbuckets; ++step, ++abs) {
      if (buckets_[static_cast<std::size_t>(abs) & bucket_mask_].empty()) {
        continue;
      }
      // Harvest this bucket's current-year entries. A skipped (future-year)
      // entry is at least a full ring revolution away, so it cannot beat
      // anything harvested further ahead in this sweep.
      if (harvest(abs)) return true;
      // The year held only tombstones (all just reclaimed): the window has
      // moved past it; keep sweeping.
      if (entries_ == 0) return false;
    }
    // A full revolution found nothing due: the pending set is sparse and
    // far ahead (a drained network waiting on ms-scale timers). Direct scan
    // for the earliest entry, then harvest its bucket-year.
    std::int64_t min_ps = 0;
    bool have = false;
    for (const std::vector<CalEntry>& vec : buckets_) {
      for (const CalEntry& e : vec) {
        if (!have || e.time.ps() < min_ps) {
          min_ps = e.time.ps();
          have = true;
        }
      }
    }
    DQOS_ASSERT(have);
    if (harvest(min_ps >> width_shift_)) return true;
    // That year, too, was all tombstones; loop (entries_ re-checked above).
  }
  return false;
}

unsigned Simulator::estimate_width_shift() {
  // The cursor bucket accumulates every event due inside its window, and
  // each harvest rescans it — so occupancy there is governed by the *fire*
  // rate, not by gaps in a pending-set snapshot (a snapshot mixes the
  // dense near-now working set with sparse far-out timers and lands on a
  // width orders of magnitude too wide). Width ≈ 4 mean inter-fire gaps
  // keeps the rescan a handful of entries; wider years were measured
  // slower — they push short serialization delays onto the sorted-rung
  // insert path (DESIGN.md §11).
  if (pops_since_rebuild_ >= 64) {
    const std::int64_t advance = now_.ps() - last_rebuild_now_ps_;
    return shift_covering(advance * 4 / pops_since_rebuild_);
  }
  // No fire history yet (count-triggered rebuild during a scheduling
  // burst): fall back to the median positive gap between pending entries.
  if (scratch_.size() < 8) return width_shift_;
  times_.clear();
  const std::size_t stride = scratch_.size() / 4096 + 1;
  for (std::size_t i = 0; i < scratch_.size(); i += stride) {
    times_.push_back(scratch_[i].time.ps());
  }
  std::sort(times_.begin(), times_.end());
  std::size_t ngaps = 0;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const std::int64_t gap = times_[i] - times_[i - 1];
    if (gap > 0) times_[ngaps++] = gap;
  }
  if (ngaps == 0) return width_shift_;
  std::nth_element(times_.begin(),
                   times_.begin() + static_cast<std::ptrdiff_t>(ngaps / 2),
                   times_.begin() + static_cast<std::ptrdiff_t>(ngaps));
  return shift_covering(times_[ngaps / 2] * 4);
}

void Simulator::rebuild() {
  scratch_.clear();
  for (std::size_t i = bottom_idx_; i < bottom_.size(); ++i) {
    if (bottom_[i].slot == kTombstoneSlot) {
      --entries_;  // cancelled in place; drop the blank entry
    } else {
      scratch_.push_back(bottom_[i]);
    }
  }
  bottom_.clear();
  bottom_idx_ = 0;
  for (std::vector<CalEntry>& vec : buckets_) {
    for (const CalEntry& e : vec) {
      // Reclaim lazily-tombstoned bucket entries while we hold them all
      // anyway — rebuild is the other bulk-reclamation point besides the
      // harvest sweep.
      if (!reclaimed(e)) scratch_.push_back(e);
    }
    vec.clear();
  }
  std::size_t m = kMinBuckets;
  while (m < entries_ * 2 && m < kMaxBuckets) m <<= 1;
  if (m != buckets_.size()) {
    buckets_.assign(m, {});
  }
  bucket_mask_ = m - 1;
  width_shift_ = estimate_width_shift();
  last_rebuild_now_ps_ = now_.ps();
  pops_since_rebuild_ = 0;
  // All entries are >= now_, so an empty bottom window ending at now_ is
  // exhaustive; the next pop harvests afresh at the new width.
  bottom_end_ps_ = now_.ps();
  for (const CalEntry& e : scratch_) bucket_of(e.time.ps()).push_back(e);
}

bool Simulator::reclaimed(const CalEntry& e) {
  if (!slots_[e.slot].cancelled) return false;
  free_slot(e.slot);
  --tombstones_;
  --entries_;
  return true;
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cancelled = false;
  if (++s.gen == 0) s.gen = 1;  // ids are never zero
  free_slots_.push_back(slot);
}

void Simulator::maintain() {
  if (pops_since_rebuild_ >= kRebuildPeriod ||
      (buckets_.size() > kMinBuckets && entries_ < buckets_.size() / 8)) {
    rebuild();
  }
}

bool Simulator::live_head(bool refill) {
  while (true) {
    if (bottom_idx_ >= bottom_.size() && (!refill || !refill_bottom())) {
      return false;
    }
    if (bottom_[bottom_idx_].slot != kTombstoneSlot) return true;
    ++bottom_idx_;  // cancelled in place — skip
    --entries_;
  }
}

bool Simulator::peek_next(std::int64_t& time_ps, std::uint64_t& seq) {
  if (!live_head(true)) return false;
  time_ps = bottom_[bottom_idx_].time.ps();
  seq = bottom_[bottom_idx_].seq;
  return true;
}

// dqos-lint: hot
template <class Observer>
void Simulator::fire(const CalEntry head, Observer&& obs) {
  ++bottom_idx_;
  --entries_;
  ++pops_since_rebuild_;
  Slot& s = slots_[head.slot];
  DQOS_ASSERT(s.live);
  InlineTask fn = std::move(s.fn);
  free_slot(head.slot);
  --live_;
  DQOS_ASSERT(head.time >= now_);
  now_ = head.time;
  ++fired_;
  obs.pre_fire(head.seq, head.time);
  fn();
  obs.post_fire();
}

// dqos-lint: hot
template <class Observer>
bool Simulator::drain(TimePoint limit, Observer&& obs) {
  if (!live_head(true)) return false;
  // When the whole harvested window is due, the per-event limit compare
  // drops out of the loop: anything a closure splices into the rung
  // mid-batch has time < bottom_end_ps_ <= limit and is due as well.
  const bool whole_window_due = bottom_end_ps_ <= limit.ps();
  // The loop re-reads bottom_ every iteration on purpose: a fired closure
  // may schedule into the rung (relocating it) or trigger a count-driven
  // rebuild (clearing it). fire() takes the head by value for the same
  // reason. The batch ends with the rung; the next call refills it.
  do {
    const CalEntry head = bottom_[bottom_idx_];
    if (!whole_window_due && head.time > limit) return false;
    fire(head, obs);
  } while (live_head(false));
  // Batch-boundary maintenance: step_due runs this check per event;
  // batching amortizes it. Rebuild timing only affects bucket geometry,
  // never the (time, seq) fire order.
  maintain();
  return entries_ != 0;
}

bool Simulator::step_due(TimePoint limit) {
  if (!live_head(true) || bottom_[bottom_idx_].time > limit) return false;
  fire(bottom_[bottom_idx_], HookObserver{fire_hook_});
  maintain();
  return true;
}

// dqos-lint: hot
bool Simulator::drain_due(TimePoint limit) {
  return drain(limit, HookObserver{fire_hook_});
}

// dqos-lint: hot
bool Simulator::drain_window(TimePoint limit, ShardWindowLog& log) {
  DQOS_ASSERT(wlog_ == &log);
  return drain(limit, WindowObserver{log});
}

void Simulator::run_until(TimePoint t) {
  DQOS_EXPECTS(t >= now_);
  while (drain_due(t)) {
  }
  now_ = t;
}

void Simulator::run() {
  while (drain_due(TimePoint::max())) {
  }
}

}  // namespace dqos
