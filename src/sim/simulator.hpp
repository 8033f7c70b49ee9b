/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// A single-threaded event calendar: components schedule closures at
/// absolute instants; the kernel fires them in (time, insertion-sequence)
/// order. The sequence tie-break makes runs bit-for-bit deterministic —
/// two events at the same instant always fire in the order they were
/// scheduled, independent of heap internals.
///
/// The kernel is deliberately minimal (Core Guidelines P.11: encapsulate
/// the messy construct once): no process abstraction, no channels — the
/// network components in src/switchfab and src/host are plain objects that
/// schedule their own wake-ups.
///
/// Hot-path design (see DESIGN.md §7): closures are stored as InlineTask
/// (48-byte small-buffer, move-only — steady-state scheduling performs no
/// heap allocation), and the calendar is a calendar queue (Brown, CACM
/// '88) with a ladder-queue-style bottom rung: a power-of-two ring of
/// unsorted buckets, each covering a power-of-two time width, over a slot
/// table indexed by the event handle. Insertion is O(1) — shift, mask,
/// append — with no comparisons at all; the pop side harvests one
/// bucket-year at a time into a sorted "bottom" vector consumed by index,
/// so the per-event fast path is a plain array read (one amortized sort
/// replaces the per-pop bucket rescans of a textbook calendar queue, and
/// same-instant bursts cost one sort instead of a quadratic rescan).
/// Against the previous d-ary heap this removes the ~20 data-dependent
/// (≈unpredictable) sift branches per event that dominated the kernel
/// profile. The ring rebuilds itself — count-driven resize plus a periodic
/// width re-estimate from the observed *fire* rate (mean sim-time advance
/// per pop): the pending set mixes a dense near-now working set with
/// sparse ms-scale timers, so widths derived from pending-gap statistics
/// come out orders of magnitude too wide and cram the whole working set
/// into one bucket. Cancellation is O(1): the slot is tombstoned (closure
/// destroyed immediately) while the bucket entry dies lazily when the
/// harvest reaches it. Handles are generation-tagged slot indices; stale
/// handles from fired or cancelled events miss the generation check and
/// are no-ops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/inline_task.hpp"
#include "util/callback.hpp"
#include "util/contracts.hpp"
#include "util/time.hpp"

namespace dqos {

/// Opaque handle to a scheduled event, usable for cancellation. Zero is
/// never a valid handle (components use 0 as "no event armed").
using EventId = std::uint64_t;

struct ShardWindowLog;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated instant (global clock).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. `t` must not be in the past.
  /// Rvalue-reference (not by-value) on purpose: the closure is built once
  /// at the call site and relocated exactly once, into the slot table.
  EventId schedule_at(TimePoint t, InlineTask&& fn);

  /// Schedules `fn` after a non-negative delay from now.
  EventId schedule_after(Duration d, InlineTask&& fn) {
    DQOS_EXPECTS(d >= Duration::zero());
    return schedule_at(now_ + d, std::move(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (the generation tag in the handle goes stale when the slot is
  /// reused). The closure is destroyed immediately. An entry still in a
  /// bucket is reclaimed lazily — in bulk, when the harvest sweep or a ring
  /// rebuild reaches it; an entry already harvested into the sorted bottom
  /// rung is located by (time, seq) binary search and blanked in place (no
  /// linear scan), recycling its slot immediately. Either way, repeated
  /// cancellation in a long run cannot grow memory without bound.
  void cancel(EventId id);

  /// Fires the next event. Returns false when the calendar is empty.
  bool step() { return step_due(TimePoint::max()); }

  /// Runs events with time <= `t`, then advances the clock to exactly `t`
  /// (even if the calendar empties earlier). Implemented as repeated
  /// drain_due() batches.
  void run_until(TimePoint t);

  /// Batch drain (DESIGN.md §11): fires every event due at or before
  /// `limit` out of the current bottom-rung window in one pass, skipping
  /// in-place tombstones in bulk and deferring the ring-maintenance check
  /// to the batch boundary. Exactly the (time, seq) order of repeated
  /// step() calls — the rung is sorted, closures scheduled from inside the
  /// batch splice into it at their sorted position, and rebuild timing
  /// never affects fire order. Returns false when nothing at or before
  /// `limit` remains; run()/run_until() are loops over this. step_due,
  /// drain_due and drain_window share one per-event fire body (§7).
  bool drain_due(TimePoint limit);

  /// Convenience: run_until(now + d).
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the calendar completely.
  void run();

  /// Test/diagnostic instrumentation: called after the clock advances and
  /// before each event's closure runs, with the event's scheduling sequence
  /// number (FIFO tie-break key; assigned 1, 2, 3, … in schedule order) and
  /// fire time. The golden-determinism test hashes this stream; keep the
  /// (seq, time) contract stable across kernel implementations. The hook is
  /// a raw Callback (fn-pointer + context) so instrumented builds stay
  /// type-erasure-free on the hot path; the context must outlive the run.
  void set_fire_hook(Callback<void(std::uint64_t, TimePoint)> hook) {
    fire_hook_ = hook;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return fired_; }
  /// Live (scheduled, not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t events_pending() const { return live_; }
  /// Cancelled entries still awaiting lazy bucket removal (bounded by the
  /// pending-entry count; exposed for the reclamation regression test).
  [[nodiscard]] std::size_t cancelled_pending() const { return tombstones_; }

  // --- Sharded-execution support (DESIGN.md §12) -------------------------
  //
  // The sharded conservative engine (shard_executor.hpp) runs one Simulator
  // per shard and reconstructs the serial engine's global sequence numbers
  // at window barriers. These hooks exist for that engine; a stand-alone
  // Simulator never needs them and pays one predictable branch plus one
  // pointer indirection on the schedule path for their existence.

  /// Provisional sequence numbers assigned during a shard window start
  /// here: above every final sequence a run can produce, so provisional
  /// keys order after finals at the same instant and encode their own
  /// registry index (seq - kProvSeqBase).
  static constexpr std::uint64_t kProvSeqBase = 1ULL << 62;

  /// Redirects sequence assignment to an external counter (the engine's
  /// shared global counter during serially-executed stretches), or back to
  /// the internal one (nullptr). A window log, when set, takes precedence.
  void set_seq_source(std::uint64_t* src);

  /// Enters (non-null) or leaves (null) window mode: sequence numbers come
  /// from the log's provisional counter and every schedule call is recorded
  /// as a kid of the currently-firing event. Only the sharded engine calls
  /// this.
  void set_window_log(ShardWindowLog* log);

  /// Schedules with a caller-chosen sequence number (a cross-shard arrival
  /// carrying its merge-assigned final seq). Bypasses kid logging.
  EventId schedule_keyed(TimePoint t, std::uint64_t seq, InlineTask&& fn);

  /// Replaces a pending event's sequence number in place (provisional ->
  /// final, at the barrier merge). The handle, slot and closure are
  /// untouched, so component-held EventIds stay valid. Returns false for a
  /// stale handle (the event fired or was cancelled meanwhile) — a no-op,
  /// matching the serial run where the sequence was consumed regardless.
  /// Precondition (asserted): the new key preserves calendar order, which
  /// the merge guarantees by assigning finals in fire order.
  bool rekey(EventId id, std::uint64_t new_seq);

  /// Peeks the earliest pending event's (time, seq) without extracting it.
  /// Returns false when the calendar is empty. May harvest buckets into the
  /// bottom rung (amortized; identical to what the next pop would do).
  bool peek_next(std::int64_t& time_ps, std::uint64_t& seq);

  /// Fires the next event only if it is due at or before `limit`, then
  /// runs the ring-maintenance check. The engine uses this to interleave
  /// several calendars at one instant in global (time, seq) order; step()
  /// is step_due without a limit.
  bool step_due(TimePoint limit);

  /// Window-mode batch drain: drain_due's body with a different observer —
  /// it records a FireRec (fire key + kid/effect ranges) per event into
  /// `log` and does NOT invoke the fire hook (the engine emits the hook
  /// stream at the barrier merge, once keys are final). Requires
  /// set_window_log(&log) to be in effect.
  bool drain_window(TimePoint limit, ShardWindowLog& log);

  /// Advances the clock without firing anything (the engine aligns every
  /// shard's clock to the run horizon once all calendars are past it).
  void advance_to(TimePoint t) {
    DQOS_EXPECTS(t >= now_);
    now_ = t;
  }

 private:
  /// One calendar entry's storage. The closure lives here; the bucket ring
  /// refers to slots by index. A slot is freed (generation bumped, index
  /// pushed on the free list) exactly once — when its entry is extracted.
  struct Slot {
    InlineTask fn;
    /// Copy of the entry's ordering key, written at schedule time: cancel()
    /// and rekey() use `time_ps < bottom_end_ps_` to decide whether the
    /// entry already sits in the (sorted) bottom rung and, if so, find it
    /// by (time, seq) binary search (rung_find) instead of scanning.
    std::int64_t time_ps = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    bool live = false;       ///< scheduled, not fired, not cancelled
    bool cancelled = false;  ///< tombstoned, awaiting lazy bucket removal
  };

  /// A bucket entry: 24 bytes, trivially movable, holds the full
  /// (time, seq) ordering key so bucket scans never touch the slot table.
  struct CalEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Bottom-rung tombstone sentinel: cancel() of an already-harvested
  /// entry blanks the entry's slot index in place (the (time, seq) key is
  /// kept so the rung stays sorted); the drain skips such entries without
  /// loading the slot table, and the slot itself recycles immediately.
  static constexpr std::uint32_t kTombstoneSlot = 0xffffffffu;

  static constexpr std::size_t kMinBuckets = 256;      // power of two
  static constexpr std::size_t kMaxBuckets = 1u << 20;
  static constexpr unsigned kDefaultWidthShift = 10;   // 1024 ps buckets
  /// Pops between unconditional rebuilds: re-estimates the bucket width so
  /// the ring tracks workload phase changes (warmup → measure → drain)
  /// even when the pending count, which drives resize, stays flat.
  static constexpr std::uint32_t kRebuildPeriod = 1u << 16;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  /// The live slot `id` names; nullptr for a stale or unknown handle.
  Slot* live_slot(EventId id);
  /// The ring bucket an entry due at `time_ps` belongs in.
  std::vector<CalEntry>& bucket_of(std::int64_t time_ps) {
    return buckets_[static_cast<std::size_t>(time_ps >> width_shift_) &
                    bucket_mask_];
  }

  /// Strict total order of the calendar: earliest time first, FIFO among
  /// simultaneous events. Implementation-independent — any structure that
  /// pops in this order reproduces the golden fire sequence bit-for-bit.
  /// A stateless functor, not a function: at the sort/lower_bound call
  /// sites it inlines per comparison where a function pointer compiles to
  /// an indirect call — measurable on the refill path, which sorts ~a
  /// handful of entries a million times per second.
  struct Earlier {
    bool operator()(const CalEntry& a, const CalEntry& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// The one insert body behind schedule_at and schedule_keyed.
  EventId insert_event(TimePoint t, std::uint64_t seq, InlineTask&& fn);
  void push_entry(CalEntry e);
  /// Refills the sorted bottom rung with the next non-empty bucket-year's
  /// due entries: sweeps forward from the bucket containing bottom_end_,
  /// falling back to a direct scan when a full revolution finds nothing
  /// due. Lazily-cancelled bucket entries are reclaimed here, in bulk,
  /// before the sort — tombstones are never sorted or drained. Returns
  /// false only when the calendar is empty.
  bool refill_bottom();
  /// Gathers every entry, re-estimates the bucket width from the observed
  /// fire rate (mean sim-time advance per pop since the last rebuild),
  /// resizes the ring to ~2 buckets per entry, and redistributes.
  /// O(entries + buckets); triggered by count thresholds and every
  /// kRebuildPeriod pops.
  void rebuild();
  [[nodiscard]] unsigned estimate_width_shift();
  /// Rebuilds every kRebuildPeriod pops or when the ring is 8x under-full.
  void maintain();
  /// Frees a lazily-cancelled bucket entry's slot; false for a live entry.
  bool reclaimed(const CalEntry& e);
  void free_slot(std::uint32_t slot);
  /// First unconsumed rung entry not earlier than `key` (binary search).
  std::vector<CalEntry>::iterator rung_bound(const CalEntry& key) {
    return std::lower_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_idx_),
        bottom_.end(), key, Earlier{});
  }
  /// The rung entry of a harvested live slot (cancel and rekey's locate).
  std::vector<CalEntry>::iterator rung_find(std::uint32_t slot);
  /// The one head accessor: skips in-place tombstones and, if `refill`,
  /// harvests the next bucket-year once the rung runs dry. True: the rung
  /// head is live. False: the calendar (without `refill`: the rung) is empty.
  bool live_head(bool refill);
  /// The one per-event fire body: extracts the rung head, frees its slot,
  /// advances the clock, counts the fire, then runs obs.pre_fire(seq, t),
  /// the closure and obs.post_fire(). The observer is a compile-time
  /// parameter, so neither drain pays a per-event mode branch.
  template <class Observer>
  void fire(CalEntry head, Observer&& obs);
  /// The one drain body behind drain_due and drain_window.
  template <class Observer>
  bool drain(TimePoint limit, Observer&& obs);

  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 1;
  /// Where schedule_at draws sequence numbers from: the internal counter,
  /// an engine-shared global counter, or the window log's provisional
  /// counter. Self-reference is safe — Simulator is neither copyable nor
  /// movable.
  std::uint64_t* seq_src_ = &next_seq_;
  std::uint64_t* ext_seq_ = nullptr;
  ShardWindowLog* wlog_ = nullptr;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<std::vector<CalEntry>> buckets_{kMinBuckets};
  std::size_t bucket_mask_ = kMinBuckets - 1;
  unsigned width_shift_ = kDefaultWidthShift;
  std::size_t entries_ = 0;  ///< live + tombstoned entries (buckets + bottom)
  /// Bottom rung (ladder-queue style): the already-harvested due window,
  /// sorted ascending by (time, seq) and consumed by index. Every pending
  /// entry with time < bottom_end_ps_ lives here — the pop fast path is an
  /// array read, and short-delay inserts binary-search into the tail.
  std::vector<CalEntry> bottom_;
  std::size_t bottom_idx_ = 0;
  std::int64_t bottom_end_ps_ = 0;  ///< exclusive upper edge of the window
  std::uint32_t pops_since_rebuild_ = 0;
  std::int64_t last_rebuild_now_ps_ = 0;  ///< fire-rate window anchor
  std::vector<CalEntry> scratch_;     ///< rebuild staging (retains capacity)
  std::vector<std::int64_t> times_;   ///< width-estimation staging
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Callback<void(std::uint64_t, TimePoint)> fire_hook_;
};

}  // namespace dqos
