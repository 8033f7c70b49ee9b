#include "core/config.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace dqos {

std::uint32_t SimConfig::num_hosts() const {
  switch (topology) {
    case TopologyKind::kFoldedClos: return num_leaves * hosts_per_leaf;
    case TopologyKind::kKaryNTree: {
      std::uint32_t n = 1;
      for (std::uint32_t i = 0; i < kary_n; ++i) n *= kary_k;
      return n;
    }
    case TopologyKind::kSingleSwitch: return single_switch_hosts;
    case TopologyKind::kMesh2D: return mesh_width * mesh_height * mesh_concentration;
  }
  DQOS_ASSERT(false);
  return 0;
}

std::string SimConfig::check() const {
  if (num_hosts() < 2) return "topology must provide at least 2 hosts";
  if (!(load > 0.0 && load <= 2.0)) return "load must be in (0, 2]";
  if (!(num_vcs >= 1 && num_vcs <= 8)) return "vcs must be in [1, 8]";
  if (!vc_weights.empty() && vc_weights.size() != num_vcs) {
    return "vc-weights must list exactly one weight per VC";
  }
  if (!link_bw.valid()) return "link-gbps must be positive";
  if (link_latency < Duration::zero()) {
    return "link-latency-ns must be non-negative";
  }
  if (mtu_bytes <= kHeaderBytes) return "mtu must exceed the packet header";
  if (buffer_bytes_per_vc < mtu_bytes + kHeaderBytes) {
    return "buffer-bytes must hold at least one MTU packet plus header";
  }
  if (warmup < Duration::zero()) return "warmup-ms must be non-negative";
  if (measure <= Duration::zero()) return "measure-ms must be positive";
  if (!(video.mean_bytes_per_sec > 0.0)) {
    return "video-rate-mbs must be positive";
  }
  if (video_frame_budget <= Duration::zero()) {
    return "frame-budget-ms must be positive";
  }
  double share_sum = 0.0;
  for (const double s : class_share) {
    if (s < 0.0) return "class shares must be non-negative";
    share_sum += s;
  }
  // > 1.0 deliberately oversubscribes (Fig. 4 stresses the unregulated
  // classes); cap at 2x to catch unit mistakes.
  if (share_sum > 2.0 + 1e-9) return "class shares must sum to at most 2.0";
  if (!(best_effort_weight > 0.0 && background_weight > 0.0)) {
    return "class weights must be positive";
  }
  if (!(reservable_fraction > 0.0 && reservable_fraction <= 1.0)) {
    return "reservable-fraction must be in (0, 1]";
  }
  if (fault.link_down_per_sec < 0.0 || fault.credit_loss_per_sec < 0.0 ||
      fault.ttd_corrupt_per_sec < 0.0 || fault.clock_drift_per_sec < 0.0) {
    return "fault rates must be non-negative";
  }
  if (fault.link_permanent_fraction < 0.0 || fault.link_permanent_fraction > 1.0) {
    return "fault-permanent-fraction must be in [0, 1]";
  }
  if (fault.link_outage_mean <= Duration::zero()) {
    return "fault-link-outage-ms must be positive";
  }
  if (fault.credit_loss_bytes == 0 && fault.credit_loss_per_sec > 0.0) {
    return "fault-credit-loss-bytes must be positive when losses are enabled";
  }
  if (fault.credit_resync_window < Duration::zero()) {
    return "credit-resync-us must be non-negative (0 = off)";
  }
  if (fault.control_retry && fault.retry_timeout <= Duration::zero()) {
    return "retry-timeout-us must be positive";
  }
  if (fault.watchdog_interval < Duration::zero()) {
    return "watchdog-ms must be non-negative (0 = off)";
  }
  if (fault.watchdog_interval > Duration::zero() && fault.watchdog_rounds == 0) {
    return "watchdog-rounds must be positive";
  }
  if (fault.audit_epoch < Duration::zero()) {
    return "audit-epoch-us must be non-negative (0 = off)";
  }
  if (expiry_abort_ratio < 0.0 || expiry_abort_ratio > 1.0) {
    return "expiry-abort-ratio must be in [0, 1]";
  }
  if (expiry_abort_ratio > 0.0 && !expiry_drop) {
    return "expiry-abort-ratio requires expiry-drop";
  }
  if (admit_retry_max > 0 && admit_retry_backoff <= Duration::zero()) {
    return "admit-retry-backoff-us must be positive when retries are enabled";
  }
  if (shed_highwater < 0.0 || shed_highwater > 1.0) {
    return "shed-highwater must be in [0, 1] (0 = off)";
  }
  if (shards == 0) return "shards must be at least 1";
  if (shards > 1) {
    if (link_latency <= Duration::zero()) {
      return "shards > 1 requires a positive link-latency-ns (the lookahead)";
    }
    if ((fault.enabled || fault.any_faults()) && fault.control_retry) {
      return "shards > 1 requires no-control-retry (zero-latency ack path)";
    }
  }
  if (shard_threads < -1 || shard_threads > 1) {
    return "shard-threads must be -1 (auto), 0 (inline) or 1 (threads)";
  }
  return "";
}

void SimConfig::validate() const {
  const std::string msg = check();
  if (!msg.empty()) {
    DQOS_EXPECTS(msg.empty() && "invalid SimConfig");
  }
}

SimConfig SimConfig::paper(SwitchArch arch, double load) {
  SimConfig cfg;
  cfg.arch = arch;
  cfg.load = load;
  return cfg;
}

SimConfig SimConfig::small(SwitchArch arch, double load) {
  SimConfig cfg;
  cfg.arch = arch;
  cfg.load = load;
  cfg.num_leaves = 4;
  cfg.hosts_per_leaf = 8;
  cfg.num_spines = 8;
  cfg.warmup = Duration::milliseconds(1);
  cfg.measure = Duration::milliseconds(10);
  cfg.drain = Duration::milliseconds(2);
  return cfg;
}

}  // namespace dqos
