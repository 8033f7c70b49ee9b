#include "stats/metrics.hpp"

#include "util/contracts.hpp"

namespace dqos {

using Kind = DeferredEffect::Kind;

void MetricsCollector::set_window(TimePoint start, TimePoint end) {
  DQOS_EXPECTS(start < end);
  start_ = start;
  end_ = end;
}

void MetricsCollector::reserve_samples(std::size_t packets_per_class,
                                       std::size_t messages_per_class) {
  for (ClassStore& cs : whole_) {
    cs.pkt_latency.reserve(packets_per_class);
    cs.msg_latency.reserve(messages_per_class);
  }
}

void MetricsCollector::set_phase_starts(std::vector<TimePoint> starts) {
  DQOS_EXPECTS(!starts.empty());
  DQOS_EXPECTS(starts.front() == start_);
  DQOS_EXPECTS(starts.back() < end_);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    DQOS_EXPECTS(starts[i] > starts[i - 1]);
  }
  if (starts.size() == 1) starts.clear();  // one phase = the whole window
  phases_.clear();
  phases_.resize(starts.size());
  phase_starts_ = std::move(starts);
}

// --- hooks: build the record, let post() decide where it goes -------------

void MetricsCollector::on_packet_delivered(const Packet& p, TimePoint now,
                                           Duration slack) {
  post({Kind::kPacketDelivered, static_cast<std::uint8_t>(p.hdr.tclass),
        static_cast<std::uint32_t>(p.size()), p.t_created.ps(), now.ps(),
        slack.ps(), 0});
}

void MetricsCollector::on_packet_expired(const Packet& p) {
  post({Kind::kPacketExpired, static_cast<std::uint8_t>(p.hdr.tclass),
        static_cast<std::uint32_t>(p.size()), p.t_created.ps(), 0, 0, 0});
}

void MetricsCollector::on_packet_dropped(TrafficClass tclass) {
  post({Kind::kPacketDropped, static_cast<std::uint8_t>(tclass), 0, 0, 0, 0,
        0});
}

void MetricsCollector::on_message_delivered(TrafficClass tclass,
                                            TimePoint created,
                                            std::uint64_t bytes,
                                            TimePoint completed) {
  post({Kind::kMessageDelivered, static_cast<std::uint8_t>(tclass), 0,
        created.ps(), completed.ps(), 0, bytes});
}

void MetricsCollector::on_message_offered(TrafficClass tclass,
                                          std::uint64_t bytes, TimePoint now) {
  post({Kind::kMessageOffered, static_cast<std::uint8_t>(tclass), 0, 0,
        now.ps(), 0, bytes});
}

void MetricsCollector::set_relay(MetricsCollector* primary, ShardWindowLog* log,
                                 const bool* window_active) {
  DQOS_EXPECTS(primary != nullptr && log != nullptr && window_active != nullptr);
  DQOS_EXPECTS(primary != this);
  relay_primary_ = primary;
  relay_log_ = log;
  relay_window_ = window_active;
}

void MetricsCollector::post(const DeferredEffect& e) {
  if (relay_primary_ == nullptr) {
    apply(e);
  } else if (*relay_window_) {
    relay_log_->effects.push_back(e);
  } else {
    relay_primary_->apply(e);
  }
}

void MetricsCollector::apply(const DeferredEffect& e) {
  DQOS_ASSERT(relay_primary_ == nullptr);
  ClassStore& whole = whole_[e.tclass];
  if (e.kind == Kind::kPacketDropped) {
    // No creation time to filter or attribute by: whole run, whole store.
    whole.add(e);
    return;
  }
  // Offered load is stamped at submission, every other sample at creation.
  const TimePoint t = TimePoint::from_ps(
      e.kind == Kind::kMessageOffered ? e.t_now_ps : e.t_created_ps);
  if (!in_window(t)) return;
  whole.add(e);
  if (!phases_.empty()) {
    std::size_t i = phases_.size() - 1;
    while (i > 0 && t < phase_starts_[i]) --i;
    phases_[i][e.tclass].add(e);
  }
}

// --- the per-class store --------------------------------------------------

void MetricsCollector::ClassStore::add(const DeferredEffect& e) {
  const Duration latency = Duration::picoseconds(e.t_now_ps - e.t_created_ps);
  switch (e.kind) {
    case Kind::kPacketDelivered:
      pkt_latency.add(latency.us());
      bytes_delivered += e.size;
      slack_us.add(Duration::picoseconds(e.slack_ps).us());
      if (e.slack_ps < 0) {
        ++deadline_misses;
      } else {
        goodput_bytes += e.size;
      }
      break;
    case Kind::kPacketExpired:
      ++expired_packets;
      expired_bytes += e.size;
      break;
    case Kind::kPacketDropped:
      ++dropped;
      break;
    case Kind::kMessageDelivered:
      msg_latency.add(latency.us());
      ++messages;
      break;
    case Kind::kMessageOffered:
      bytes_offered += e.id;
      break;
    case Kind::kFlowAborted:
      // Routed by the engine's effect sink to the network layer, never here.
      DQOS_ASSERT(false);
      break;
  }
}

ClassReport MetricsCollector::ClassStore::report(TrafficClass tc,
                                                 double window_sec) const {
  DQOS_ASSERT(window_sec > 0.0);
  ClassReport r;
  r.tclass = tc;
  r.packets = pkt_latency.count();
  r.messages = messages;
  r.throughput_bytes_per_sec = static_cast<double>(bytes_delivered) / window_sec;
  r.offered_bytes_per_sec = static_cast<double>(bytes_offered) / window_sec;
  r.avg_packet_latency_us = pkt_latency.mean();
  r.max_packet_latency_us = pkt_latency.max();
  r.jitter_us = pkt_latency.stddev();
  r.p99_packet_latency_us = pkt_latency.p99();
  r.p999_packet_latency_us = pkt_latency.p999();
  r.avg_message_latency_us = msg_latency.mean();
  r.max_message_latency_us = msg_latency.max();
  r.p99_message_latency_us = msg_latency.p99();
  r.avg_slack_us = slack_us.mean();
  r.dropped_packets = dropped;
  r.deadline_miss_fraction =
      r.packets ? static_cast<double>(deadline_misses) /
                      static_cast<double>(r.packets)
                : 0.0;
  r.expired_packets = expired_packets;
  r.expired_bytes = expired_bytes;
  r.goodput_bytes_per_sec = static_cast<double>(goodput_bytes) / window_sec;
  const std::uint64_t decided = r.packets + r.expired_packets;
  r.deadline_miss_rate =
      decided ? static_cast<double>(deadline_misses + r.expired_packets) /
                    static_cast<double>(decided)
              : 0.0;
  return r;
}

// --- reports --------------------------------------------------------------

ClassReport MetricsCollector::report(TrafficClass c) const {
  return whole_[static_cast<std::size_t>(c)].report(c, (end_ - start_).sec());
}

ClassReport MetricsCollector::phase_report(std::size_t phase,
                                           TrafficClass c) const {
  if (phases_.empty()) {
    DQOS_EXPECTS(phase == 0);
    return report(c);
  }
  DQOS_EXPECTS(phase < phases_.size());
  const TimePoint end =
      phase + 1 < phase_starts_.size() ? phase_starts_[phase + 1] : end_;
  return phases_[phase][static_cast<std::size_t>(c)].report(
      c, (end - phase_starts_[phase]).sec());
}

}  // namespace dqos
