/// \file metrics.hpp
/// Network-wide performance metrics, collected with the global observer
/// clock (never visible to any scheduling decision).
///
/// The paper's §5 indices per traffic class:
///   - throughput        — delivered bytes / measurement window,
///   - latency           — end-to-end per packet (creation -> delivery),
///                         and per *message* for multimedia (whole video
///                         frames) and best-effort transfers,
///   - jitter            — standard deviation of latency,
///   - CDF of latency    — P[latency <= x] curves,
/// plus maximum latency ("the closing vertical line in the CDF figure").
///
/// Only traffic *created inside* the measurement window is counted, so
/// warm-up transients and drain-phase tails don't bias the numbers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "proto/packet.hpp"
#include "proto/types.hpp"
#include "sim/shard_link.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace dqos {

/// Aggregated per-class results, in convenient printable units.
struct ClassReport {
  TrafficClass tclass = TrafficClass::kControl;
  std::uint64_t packets = 0;
  std::uint64_t messages = 0;
  double throughput_bytes_per_sec = 0.0;
  double offered_bytes_per_sec = 0.0;  ///< injected into NIC queues
  double avg_packet_latency_us = 0.0;
  double max_packet_latency_us = 0.0;
  double jitter_us = 0.0;  ///< stddev of packet latency
  double p99_packet_latency_us = 0.0;
  double p999_packet_latency_us = 0.0;
  double avg_message_latency_us = 0.0;
  double max_message_latency_us = 0.0;
  double p99_message_latency_us = 0.0;
  /// EDF view: fraction of packets delivered past their deadline tag, and
  /// the mean remaining budget (us; negative = late on average).
  double deadline_miss_fraction = 0.0;
  double avg_slack_us = 0.0;
  /// Packets shed inside the fabric (failed-link drops; whole run, since
  /// faults strike outside the measurement window too). Zero without fault
  /// injection: credit flow control never drops.
  std::uint64_t dropped_packets = 0;
  // --- overload SLO view (EXPERIMENTS.md O1) ------------------------------
  /// Packets dropped already-late at the source NIC (Host expiry_drop).
  std::uint64_t expired_packets = 0;
  std::uint64_t expired_bytes = 0;
  /// Delivered bytes that arrived *before* their deadline (slack >= 0) over
  /// the window: throughput that was actually worth delivering.
  double goodput_bytes_per_sec = 0.0;
  /// The SLO miss rate: packets that failed their deadline either way —
  /// delivered late or expired unsent — over all deadline decisions.
  double deadline_miss_rate = 0.0;
};

/// One collector per run. Every sample lands in one per-class store for the
/// whole measurement window; when a scenario arms more than one phase, it
/// also lands in the store of the phase that created it. The whole-window
/// store is kept in its own right, never merged from the phases: past the
/// reservoir cap SampleSet quantiles come from P² estimators, which do not
/// merge, and a Welford merge is not bit-identical to in-order adds.
class MetricsCollector {
 public:
  /// Only samples with creation time in [start, end) are recorded.
  void set_window(TimePoint start, TimePoint end);

  /// Pre-sizes the per-class latency sample stores from config-derived
  /// traffic estimates so the measurement phase never reallocates a
  /// multi-megabyte vector mid-run (the growth copy used to show up as a
  /// periodic latency spike in event-rate profiles). Over-estimates cost
  /// only address space: SampleSet clamps at its reservoir cap.
  void reserve_samples(std::size_t packets_per_class,
                       std::size_t messages_per_class);

  /// Arms per-phase sub-windows (scenario engine): `starts` are absolute
  /// phase boundaries, sorted ascending; the first must equal the window
  /// start and the last must precede the window end (phase i spans
  /// [starts[i], starts[i+1]), the final phase runs to the window end).
  /// Call after set_window and before traffic flows. A single start arms
  /// nothing: the one phase is the whole window.
  void set_phase_starts(std::vector<TimePoint> starts);
  /// report() over one phase's sub-window. Unarmed, phase 0 is the whole
  /// window and this is report(). Armed, dropped_packets stays 0: the drop
  /// hook carries no creation time to attribute a drop to a phase.
  [[nodiscard]] ClassReport phase_report(std::size_t phase, TrafficClass c) const;

  /// Hooks — wire these to the Hosts' callbacks. `slack` is the remaining
  /// time-to-deadline at delivery (negative = missed).
  void on_packet_delivered(const Packet& p, TimePoint now,
                           Duration slack = Duration::zero());
  void on_message_delivered(TrafficClass tclass, TimePoint created,
                            std::uint64_t bytes, TimePoint completed);
  /// Offered load accounting (called at submission).
  void on_message_offered(TrafficClass tclass, std::uint64_t bytes, TimePoint now);
  /// A switch shed a packet (failed link). Counted over the whole run.
  void on_packet_dropped(TrafficClass tclass);
  /// A source NIC dropped a packet already past its deadline (expiry_drop).
  /// Unlike fabric drops the packet is at hand, so expiry is attributed to
  /// the phase that created it.
  void on_packet_expired(const Packet& p);

  // --- sharded execution relay (DESIGN.md §12) ---------------------------
  /// Turns this instance into a per-shard relay for `primary`: while
  /// `*window_active` the hooks append DeferredEffect records to `log`
  /// instead of touching any accumulator (the engine replays them on the
  /// primary, in merged global fire order, at the window barrier); outside
  /// windows they forward to the primary directly. The relay itself holds
  /// no samples. Window filtering happens at replay/forward time on the
  /// primary — every record carries its own timestamps, so the outcome is
  /// bit-identical to the serial call sequence.
  void set_relay(MetricsCollector* primary, ShardWindowLog* log,
                 const bool* window_active);
  /// Records one sample on this (primary) collector: the single
  /// accumulator entry for hooks, forwards and replayed records alike.
  void apply(const DeferredEffect& e);

  [[nodiscard]] ClassReport report(TrafficClass c) const;

  /// Raw sample access for CDF curves.
  [[nodiscard]] const SampleSet& packet_latency(TrafficClass c) const {
    return whole_[static_cast<std::size_t>(c)].pkt_latency;
  }
  [[nodiscard]] const SampleSet& message_latency(TrafficClass c) const {
    return whole_[static_cast<std::size_t>(c)].msg_latency;
  }
  [[nodiscard]] std::uint64_t delivered_bytes(TrafficClass c) const {
    return whole_[static_cast<std::size_t>(c)].bytes_delivered;
  }

 private:
  /// One traffic class's accumulators over one (sub-)window.
  struct ClassStore {
    SampleSet pkt_latency;  ///< microseconds
    SampleSet msg_latency;  ///< microseconds
    std::uint64_t bytes_delivered = 0;
    std::uint64_t bytes_offered = 0;
    std::uint64_t messages = 0;
    StreamingStats slack_us;
    std::uint64_t deadline_misses = 0;
    std::uint64_t goodput_bytes = 0;
    std::uint64_t expired_packets = 0;
    std::uint64_t expired_bytes = 0;
    std::uint64_t dropped = 0;  ///< whole-window store only

    /// One body per sample kind; the caller has already filtered and
    /// picked the store.
    void add(const DeferredEffect& e);
    [[nodiscard]] ClassReport report(TrafficClass tc, double window_sec) const;
  };
  using Store = std::array<ClassStore, kNumTrafficClasses>;

  /// The relay decision: defer while the shard window is open, forward to
  /// the primary outside it, or record here when this is the primary.
  void post(const DeferredEffect& e);

  [[nodiscard]] bool in_window(TimePoint created) const {
    return created >= start_ && created < end_;
  }

  TimePoint start_ = TimePoint::zero();
  TimePoint end_ = TimePoint::max();
  // relay wiring (null for a normal collector)
  MetricsCollector* relay_primary_ = nullptr;
  ShardWindowLog* relay_log_ = nullptr;
  const bool* relay_window_ = nullptr;
  Store whole_;
  /// Armed phases (empty unless set_phase_starts got two or more starts).
  std::vector<TimePoint> phase_starts_;
  std::vector<Store> phases_;  ///< parallel to phase_starts_
};

}  // namespace dqos
