#include "stats/metrics.hpp"

#include <gtest/gtest.h>

namespace dqos {
namespace {

using namespace dqos::literals;

Packet mk_packet(TrafficClass tc, TimePoint created, std::uint32_t bytes) {
  Packet p;
  p.hdr.tclass = tc;
  p.hdr.wire_bytes = bytes;
  p.t_created = created;
  return p;
}

TEST(MetricsCollector, RecordsLatencyAndThroughput) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 10_ms);
  const Packet p = mk_packet(TrafficClass::kControl, TimePoint::zero() + 1_ms, 1000);
  m.on_packet_delivered(p, TimePoint::zero() + 1_ms + 50_us);
  const ClassReport r = m.report(TrafficClass::kControl);
  EXPECT_EQ(r.packets, 1u);
  EXPECT_DOUBLE_EQ(r.avg_packet_latency_us, 50.0);
  EXPECT_DOUBLE_EQ(r.max_packet_latency_us, 50.0);
  EXPECT_DOUBLE_EQ(r.throughput_bytes_per_sec, 1000.0 / 0.01);
}

TEST(MetricsCollector, WindowFiltersByCreationTime) {
  MetricsCollector m;
  m.set_window(TimePoint::zero() + 5_ms, TimePoint::zero() + 10_ms);
  // Created before the window: ignored even though delivered inside it.
  m.on_packet_delivered(mk_packet(TrafficClass::kControl, TimePoint::zero() + 1_ms, 100),
                        TimePoint::zero() + 6_ms);
  // Created inside: counted, even if delivered after the window.
  m.on_packet_delivered(mk_packet(TrafficClass::kControl, TimePoint::zero() + 7_ms, 100),
                        TimePoint::zero() + 12_ms);
  // Created at the end boundary: excluded (half-open interval).
  m.on_packet_delivered(mk_packet(TrafficClass::kControl, TimePoint::zero() + 10_ms, 100),
                        TimePoint::zero() + 11_ms);
  EXPECT_EQ(m.report(TrafficClass::kControl).packets, 1u);
}

TEST(MetricsCollector, JitterIsLatencyStddev) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  for (const int us : {10, 20, 30}) {
    m.on_packet_delivered(mk_packet(TrafficClass::kMultimedia, TimePoint::zero() + 1_ms, 100),
                          TimePoint::zero() + 1_ms + Duration::microseconds(us));
  }
  const ClassReport r = m.report(TrafficClass::kMultimedia);
  EXPECT_DOUBLE_EQ(r.avg_packet_latency_us, 20.0);
  EXPECT_NEAR(r.jitter_us, 8.1649, 1e-3);  // population stddev of {10,20,30}
}

TEST(MetricsCollector, MessageLatencySeparateFromPacketLatency) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  m.on_message_delivered(TrafficClass::kMultimedia, TimePoint::zero() + 1_ms, 80000,
                         TimePoint::zero() + 11_ms);
  const ClassReport r = m.report(TrafficClass::kMultimedia);
  EXPECT_EQ(r.messages, 1u);
  EXPECT_DOUBLE_EQ(r.avg_message_latency_us, 10000.0);
  EXPECT_EQ(r.packets, 0u);
}

TEST(MetricsCollector, PerClassSeparation) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  m.on_packet_delivered(mk_packet(TrafficClass::kBestEffort, TimePoint::zero(), 500),
                        TimePoint::zero() + 1_us);
  m.on_packet_delivered(mk_packet(TrafficClass::kBackground, TimePoint::zero(), 700),
                        TimePoint::zero() + 2_us);
  EXPECT_EQ(m.delivered_bytes(TrafficClass::kBestEffort), 500u);
  EXPECT_EQ(m.delivered_bytes(TrafficClass::kBackground), 700u);
  EXPECT_EQ(m.report(TrafficClass::kControl).packets, 0u);
}

TEST(MetricsCollector, OfferedBytesTracked) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 10_ms);
  m.on_message_offered(TrafficClass::kBestEffort, 4096, TimePoint::zero() + 1_ms);
  m.on_message_offered(TrafficClass::kBestEffort, 4096, TimePoint::zero() + 20_ms);  // late
  EXPECT_DOUBLE_EQ(m.report(TrafficClass::kBestEffort).offered_bytes_per_sec,
                   4096.0 / 0.01);
}

TEST(MetricsCollector, CdfAccess) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  for (int i = 1; i <= 100; ++i) {
    m.on_packet_delivered(mk_packet(TrafficClass::kControl, TimePoint::zero(), 64),
                          TimePoint::zero() + Duration::microseconds(i));
  }
  const SampleSet& lat = m.packet_latency(TrafficClass::kControl);
  EXPECT_EQ(lat.count(), 100u);
  EXPECT_NEAR(lat.cdf_at(50.0), 0.5, 0.01);
}

TEST(MetricsCollector, DeadlineSlackAndMisses) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  const Packet p = mk_packet(TrafficClass::kControl, TimePoint::zero(), 100);
  m.on_packet_delivered(p, TimePoint::zero() + 10_us, /*slack=*/5_us);
  m.on_packet_delivered(p, TimePoint::zero() + 20_us, /*slack=*/-3_us);
  m.on_packet_delivered(p, TimePoint::zero() + 30_us, /*slack=*/1_us);
  const ClassReport r = m.report(TrafficClass::kControl);
  EXPECT_DOUBLE_EQ(r.avg_slack_us, 1.0);
  EXPECT_DOUBLE_EQ(r.deadline_miss_fraction, 1.0 / 3.0);
}

TEST(MetricsCollector, ZeroSlackIsNotAMiss) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::zero() + 1_s);
  const Packet p = mk_packet(TrafficClass::kControl, TimePoint::zero(), 100);
  m.on_packet_delivered(p, TimePoint::zero() + 10_us, Duration::zero());
  EXPECT_DOUBLE_EQ(m.report(TrafficClass::kControl).deadline_miss_fraction, 0.0);
}

// --- phases and relays ------------------------------------------------------

TimePoint at(Duration d) { return TimePoint::zero() + d; }

/// Every ClassReport field, compared exactly: the relay contract is
/// bit-identity, not closeness.
void expect_same(const ClassReport& a, const ClassReport& b) {
  EXPECT_EQ(a.tclass, b.tclass);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.throughput_bytes_per_sec, b.throughput_bytes_per_sec);
  EXPECT_EQ(a.offered_bytes_per_sec, b.offered_bytes_per_sec);
  EXPECT_EQ(a.avg_packet_latency_us, b.avg_packet_latency_us);
  EXPECT_EQ(a.max_packet_latency_us, b.max_packet_latency_us);
  EXPECT_EQ(a.jitter_us, b.jitter_us);
  EXPECT_EQ(a.p99_packet_latency_us, b.p99_packet_latency_us);
  EXPECT_EQ(a.p999_packet_latency_us, b.p999_packet_latency_us);
  EXPECT_EQ(a.avg_message_latency_us, b.avg_message_latency_us);
  EXPECT_EQ(a.max_message_latency_us, b.max_message_latency_us);
  EXPECT_EQ(a.p99_message_latency_us, b.p99_message_latency_us);
  EXPECT_EQ(a.deadline_miss_fraction, b.deadline_miss_fraction);
  EXPECT_EQ(a.avg_slack_us, b.avg_slack_us);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.expired_packets, b.expired_packets);
  EXPECT_EQ(a.expired_bytes, b.expired_bytes);
  EXPECT_EQ(a.goodput_bytes_per_sec, b.goodput_bytes_per_sec);
  EXPECT_EQ(a.deadline_miss_rate, b.deadline_miss_rate);
}

/// Window [0, 10 ms) split into phases at 0, 4 ms and 7 ms.
void arm_three_phases(MetricsCollector& m) {
  m.set_window(TimePoint::zero(), at(10_ms));
  m.set_phase_starts({TimePoint::zero(), at(4_ms), at(7_ms)});
}

/// One of every sample kind, spread over all three phases (and outside the
/// window), with mixed slack signs.
void feed_mixed_workload(MetricsCollector& m) {
  const Duration one_ps = Duration::picoseconds(1);
  for (const TrafficClass c : all_traffic_classes()) {
    for (const Duration created : {1_ms, 4_ms - one_ps, 4_ms, 8_ms, 12_ms}) {
      const Packet p = mk_packet(c, at(created), 512);
      m.on_packet_delivered(p, at(created + 37_us), 3_us);
      m.on_packet_delivered(p, at(created + 91_us), -2_us);
      m.on_packet_expired(p);
      m.on_message_offered(c, 4096, at(created));
      m.on_message_delivered(c, at(created), 4096, at(created + 250_us));
    }
    m.on_packet_dropped(c);
  }
}

TEST(MetricsCollectorPhases, SampleAttributedByCreationTimeAtBoundaries) {
  MetricsCollector m;
  arm_three_phases(m);
  const Duration one_ps = Duration::picoseconds(1);
  const TrafficClass c = TrafficClass::kControl;
  // Each sample is delivered well after its phase ends: creation time, not
  // delivery time, picks the phase.
  for (const Duration created :
       {Duration::zero(), 4_ms - one_ps,       // phase 0
        4_ms, 7_ms - one_ps,                   // phase 1
        7_ms, 10_ms - one_ps,                  // phase 2
        10_ms}) {                              // past the window: dropped
    m.on_packet_delivered(mk_packet(c, at(created), 100), at(created + 2_ms));
    m.on_message_offered(c, 100, at(created));
    m.on_message_delivered(c, at(created), 100, at(created + 2_ms));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const ClassReport r = m.phase_report(i, c);
    EXPECT_EQ(r.packets, 2u) << "phase " << i;
    EXPECT_EQ(r.messages, 2u) << "phase " << i;
  }
  EXPECT_DOUBLE_EQ(m.phase_report(0, c).throughput_bytes_per_sec, 200.0 / 0.004);
  EXPECT_DOUBLE_EQ(m.phase_report(1, c).offered_bytes_per_sec, 200.0 / 0.003);
  EXPECT_EQ(m.report(c).packets, 6u);
  EXPECT_EQ(m.report(c).messages, 6u);
}

TEST(MetricsCollectorPhases, ExpiryCountsInCreatingPhaseDropsOnlyInWholeWindow) {
  MetricsCollector m;
  arm_three_phases(m);
  const TrafficClass c = TrafficClass::kBestEffort;
  m.on_packet_expired(mk_packet(c, at(5_ms), 700));  // phase 1
  m.on_packet_dropped(c);  // no creation time: whole window only
  EXPECT_EQ(m.phase_report(0, c).expired_packets, 0u);
  EXPECT_EQ(m.phase_report(1, c).expired_packets, 1u);
  EXPECT_EQ(m.phase_report(1, c).expired_bytes, 700u);
  EXPECT_EQ(m.phase_report(2, c).expired_packets, 0u);
  EXPECT_EQ(m.report(c).expired_packets, 1u);
  EXPECT_DOUBLE_EQ(m.phase_report(1, c).deadline_miss_rate, 1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.phase_report(i, c).dropped_packets, 0u) << "phase " << i;
  }
  EXPECT_EQ(m.report(c).dropped_packets, 1u);
}

TEST(MetricsCollectorPhases, UnarmedPhaseZeroIsTheWholeWindow) {
  // Never armed, and armed with the window start alone: both are one phase.
  for (const bool arm_one : {false, true}) {
    MetricsCollector m;
    m.set_window(TimePoint::zero(), at(10_ms));
    if (arm_one) m.set_phase_starts({TimePoint::zero()});
    feed_mixed_workload(m);
    for (const TrafficClass c : all_traffic_classes()) {
      EXPECT_EQ(m.report(c).dropped_packets, 1u);
      expect_same(m.phase_report(0, c), m.report(c));
    }
  }
}

TEST(MetricsCollectorRelay, WindowDefersAndReplayMatchesDirectCalls) {
  MetricsCollector direct;
  arm_three_phases(direct);
  feed_mixed_workload(direct);

  MetricsCollector primary;
  arm_three_phases(primary);
  ShardWindowLog log;
  bool window_active = true;
  MetricsCollector relay;
  relay.set_relay(&primary, &log, &window_active);
  feed_mixed_workload(relay);
  // Deferred: nothing reached the primary yet.
  for (const TrafficClass c : all_traffic_classes()) {
    EXPECT_EQ(primary.report(c).packets, 0u);
    EXPECT_EQ(primary.report(c).dropped_packets, 0u);
  }
  ASSERT_FALSE(log.effects.empty());
  for (const DeferredEffect& e : log.effects) primary.apply(e);
  for (const TrafficClass c : all_traffic_classes()) {
    expect_same(primary.report(c), direct.report(c));
    for (std::size_t i = 0; i < 3; ++i) {
      expect_same(primary.phase_report(i, c), direct.phase_report(i, c));
    }
  }
}

TEST(MetricsCollectorRelay, OutsideTheWindowForwardsToPrimary) {
  MetricsCollector primary;
  primary.set_window(TimePoint::zero(), at(10_ms));
  ShardWindowLog log;
  bool window_active = false;
  MetricsCollector relay;
  relay.set_relay(&primary, &log, &window_active);
  relay.on_packet_delivered(mk_packet(TrafficClass::kControl, at(1_ms), 100),
                            at(2_ms));
  relay.on_packet_dropped(TrafficClass::kControl);
  EXPECT_TRUE(log.effects.empty());
  EXPECT_EQ(primary.report(TrafficClass::kControl).packets, 1u);
  EXPECT_EQ(primary.report(TrafficClass::kControl).dropped_packets, 1u);
}

TEST(MetricsCollectorDeathTest, BadWindow) {
  MetricsCollector m;
  EXPECT_DEATH(m.set_window(TimePoint::zero() + 1_ms, TimePoint::zero()), "precondition");
}

}  // namespace
}  // namespace dqos
