#include "core/config_io.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace dqos {
namespace {

/// Builds the ConfigError for a bad value of `key`, citing its origin.
[[noreturn]] void fail_key(const ArgParser& args, const std::string& key,
                           const std::string& why) {
  std::string msg = "config error: --" + key + ": " + why;
  const std::string origin = args.origin(key);
  if (!origin.empty()) msg += " (from " + origin + ")";
  throw ConfigError(msg);
}

/// Strict full-string numeric parsing: "1x", "", "--" are errors, not
/// silent fallbacks.
double num_double(const ArgParser& args, const std::string& key, double cur) {
  const auto v = args.get(key);
  if (!v) return cur;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    fail_key(args, key, "'" + *v + "' is not a number");
  }
  return d;
}

std::int64_t num_int(const ArgParser& args, const std::string& key,
                     std::int64_t cur) {
  const auto v = args.get(key);
  if (!v) return cur;
  char* end = nullptr;
  const long long n = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    fail_key(args, key, "'" + *v + "' is not an integer");
  }
  return n;
}

std::uint32_t num_u32(const ArgParser& args, const std::string& key,
                      std::uint32_t cur) {
  const std::int64_t n = num_int(args, key, cur);
  if (n < 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    fail_key(args, key, "value " + std::to_string(n) + " is out of range");
  }
  return static_cast<std::uint32_t>(n);
}

bool flag(const ArgParser& args, const std::string& key, bool cur) {
  const auto v = args.get(key);
  if (!v) return cur;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  fail_key(args, key, "'" + *v + "' is not a boolean");
}

std::vector<std::uint32_t> parse_weight_list(const ArgParser& args,
                                             const std::string& key,
                                             const std::string& csv) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const unsigned long w = std::strtoul(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' ||
        w > std::numeric_limits<std::uint32_t>::max()) {
      fail_key(args, key, "'" + item + "' is not a valid weight");
    }
    out.push_back(static_cast<std::uint32_t>(w));
  }
  return out;
}

std::string arch_key(SwitchArch a) {
  switch (a) {
    case SwitchArch::kTraditional2Vc: return "traditional";
    case SwitchArch::kIdeal: return "ideal";
    case SwitchArch::kSimple2Vc: return "simple";
    case SwitchArch::kAdvanced2Vc: return "advanced";
  }
  return "?";
}

std::string topology_key(TopologyKind t) {
  switch (t) {
    case TopologyKind::kFoldedClos: return "clos";
    case TopologyKind::kKaryNTree: return "kary";
    case TopologyKind::kSingleSwitch: return "single";
    case TopologyKind::kMesh2D: return "mesh";
  }
  return "?";
}

PatternKind parse_pattern_or_fail(const ArgParser& args, const std::string& key,
                                  const std::string& name) {
  if (name == "uniform") return PatternKind::kUniform;
  if (name == "hotspot") return PatternKind::kHotSpot;
  if (name == "bit-complement") return PatternKind::kBitComplement;
  if (name == "transpose") return PatternKind::kTranspose;
  if (name == "tornado") return PatternKind::kTornado;
  if (name == "permutation") return PatternKind::kPermutation;
  fail_key(args, key, "unknown traffic pattern '" + name + "'");
}

}  // namespace

std::optional<SwitchArch> parse_arch(const std::string& name) {
  if (name == "traditional" || name == "trad") return SwitchArch::kTraditional2Vc;
  if (name == "ideal") return SwitchArch::kIdeal;
  if (name == "simple") return SwitchArch::kSimple2Vc;
  if (name == "advanced" || name == "takeover") return SwitchArch::kAdvanced2Vc;
  return std::nullopt;
}

std::optional<TopologyKind> parse_topology(const std::string& name) {
  if (name == "clos" || name == "min" || name == "butterfly") {
    return TopologyKind::kFoldedClos;
  }
  if (name == "kary" || name == "tree") return TopologyKind::kKaryNTree;
  if (name == "single") return TopologyKind::kSingleSwitch;
  if (name == "mesh") return TopologyKind::kMesh2D;
  return std::nullopt;
}

SimConfig config_from_args(const ArgParser& args, SimConfig cfg) {
  if (const auto a = args.get("arch")) {
    const auto parsed = parse_arch(*a);
    if (!parsed) {
      fail_key(args, "arch",
               "unknown architecture '" + *a +
                   "' (expected traditional|ideal|simple|advanced)");
    }
    cfg.arch = *parsed;
  }
  if (const auto t = args.get("topology")) {
    const auto parsed = parse_topology(*t);
    if (!parsed) {
      fail_key(args, "topology",
               "unknown topology '" + *t + "' (expected clos|kary|single|mesh)");
    }
    cfg.topology = *parsed;
  }
  auto u32 = [&](const char* key, std::uint32_t cur) {
    return num_u32(args, key, cur);
  };
  cfg.num_leaves = u32("leaves", cfg.num_leaves);
  cfg.hosts_per_leaf = u32("hosts-per-leaf", cfg.hosts_per_leaf);
  cfg.num_spines = u32("spines", cfg.num_spines);
  cfg.kary_k = u32("kary-k", cfg.kary_k);
  cfg.kary_n = u32("kary-n", cfg.kary_n);
  cfg.single_switch_hosts = u32("hosts", cfg.single_switch_hosts);
  cfg.mesh_width = u32("mesh-width", cfg.mesh_width);
  cfg.mesh_height = u32("mesh-height", cfg.mesh_height);
  cfg.mesh_concentration = u32("mesh-concentration", cfg.mesh_concentration);

  cfg.load = num_double(args, "load", cfg.load);
  cfg.seed = static_cast<std::uint64_t>(
      num_int(args, "seed", static_cast<std::int64_t>(cfg.seed)));
  const std::uint32_t vcs = u32("vcs", cfg.num_vcs);
  if (vcs > 255) fail_key(args, "vcs", "value is out of range");
  cfg.num_vcs = static_cast<std::uint8_t>(vcs);
  if (const auto w = args.get("vc-weights")) {
    cfg.vc_weights = parse_weight_list(args, "vc-weights", *w);
  }
  cfg.buffer_bytes_per_vc = u32("buffer", cfg.buffer_bytes_per_vc);
  cfg.mtu_bytes = u32("mtu", cfg.mtu_bytes);
  if (args.has("link-gbps")) {
    const double gbps = num_double(args, "link-gbps", cfg.link_bw.gbps());
    if (gbps <= 0.0) fail_key(args, "link-gbps", "bandwidth must be positive");
    cfg.link_bw = Bandwidth::from_gbps(gbps);
  }
  if (args.has("heap-op-ns")) {
    cfg.heap_op_latency = Duration::nanoseconds(num_int(args, "heap-op-ns", 0));
  }
  if (args.has("link-latency-ns")) {
    cfg.link_latency = Duration::nanoseconds(
        num_int(args, "link-latency-ns", cfg.link_latency.ps() / 1000));
  }

  cfg.shards = u32("shards", cfg.shards);
  if (args.has("shard-threads")) {
    const std::int64_t st = num_int(args, "shard-threads", cfg.shard_threads);
    if (st < -1 || st > 1) {
      fail_key(args, "shard-threads", "must be -1 (auto), 0 (inline) or 1");
    }
    cfg.shard_threads = static_cast<std::int32_t>(st);
  }

  cfg.warmup = Duration::from_seconds_double(
      num_double(args, "warmup-ms", cfg.warmup.ms()) / 1e3);
  cfg.measure = Duration::from_seconds_double(
      num_double(args, "measure-ms", cfg.measure.ms()) / 1e3);
  cfg.drain = Duration::from_seconds_double(
      num_double(args, "drain-ms", cfg.drain.ms()) / 1e3);

  cfg.enable_control = !flag(args, "no-control", !cfg.enable_control);
  cfg.enable_video = !flag(args, "no-video", !cfg.enable_video);
  cfg.enable_best_effort = !flag(args, "no-besteffort", !cfg.enable_best_effort);
  cfg.enable_background = !flag(args, "no-background", !cfg.enable_background);

  if (const auto trace = args.get("video-trace")) cfg.video_trace_path = *trace;
  if (args.has("video-rate-mbs")) {
    cfg.video.mean_bytes_per_sec = num_double(args, "video-rate-mbs", 3.0) * 1e6;
  }
  if (args.has("frame-period-ms")) {
    const double ms = num_double(args, "frame-period-ms", cfg.video.frame_period.ms());
    if (ms <= 0.0) fail_key(args, "frame-period-ms", "period must be positive");
    cfg.video.frame_period = Duration::from_seconds_double(ms / 1e3);
  }
  cfg.video_frame_budget = Duration::from_seconds_double(
      num_double(args, "frame-budget-ms", cfg.video_frame_budget.ms()) / 1e3);
  cfg.video_eligible_time = !flag(args, "no-eligible", !cfg.video_eligible_time);
  cfg.eligible_lead = Duration::from_seconds_double(
      num_double(args, "eligible-lead-us", cfg.eligible_lead.us()) / 1e6);
  cfg.best_effort_weight = num_double(args, "be-weight", cfg.best_effort_weight);
  cfg.background_weight = num_double(args, "bg-weight", cfg.background_weight);
  cfg.reservable_fraction =
      num_double(args, "reservable-fraction", cfg.reservable_fraction);
  cfg.fanout = u32("fanout", cfg.fanout);
  cfg.hier_admission = flag(args, "hier-admission", cfg.hier_admission);
  cfg.max_clock_skew = Duration::from_seconds_double(
      num_double(args, "skew-us", cfg.max_clock_skew.us()) / 1e6);

  if (const auto p = args.get("pattern")) {
    cfg.pattern.kind = parse_pattern_or_fail(args, "pattern", *p);
  }
  cfg.pattern.hotspot_fraction =
      num_double(args, "hotspot-fraction", cfg.pattern.hotspot_fraction);
  cfg.pattern.hotspot_node =
      static_cast<NodeId>(num_u32(args, "hotspot-node", cfg.pattern.hotspot_node));

  // --- fault injection ------------------------------------------------------
  cfg.fault.enabled = flag(args, "fault-inject", cfg.fault.enabled);
  cfg.fault.seed = static_cast<std::uint64_t>(
      num_int(args, "fault-seed", static_cast<std::int64_t>(cfg.fault.seed)));
  cfg.fault.link_down_per_sec =
      num_double(args, "fault-link-down-per-sec", cfg.fault.link_down_per_sec);
  cfg.fault.link_outage_mean = Duration::from_seconds_double(
      num_double(args, "fault-link-outage-ms", cfg.fault.link_outage_mean.ms()) /
      1e3);
  cfg.fault.link_permanent_fraction = num_double(
      args, "fault-permanent-fraction", cfg.fault.link_permanent_fraction);
  cfg.fault.credit_loss_per_sec =
      num_double(args, "fault-credit-loss-per-sec", cfg.fault.credit_loss_per_sec);
  cfg.fault.credit_loss_bytes =
      u32("fault-credit-loss-bytes", cfg.fault.credit_loss_bytes);
  cfg.fault.ttd_corrupt_per_sec =
      num_double(args, "fault-ttd-corrupt-per-sec", cfg.fault.ttd_corrupt_per_sec);
  cfg.fault.ttd_corrupt_max = Duration::from_seconds_double(
      num_double(args, "fault-ttd-corrupt-max-us", cfg.fault.ttd_corrupt_max.us()) /
      1e6);
  cfg.fault.clock_drift_per_sec =
      num_double(args, "fault-clock-drift-per-sec", cfg.fault.clock_drift_per_sec);
  cfg.fault.clock_drift_max = Duration::from_seconds_double(
      num_double(args, "fault-clock-drift-max-us", cfg.fault.clock_drift_max.us()) /
      1e6);
  cfg.fault.credit_resync_window = Duration::from_seconds_double(
      num_double(args, "credit-resync-us", cfg.fault.credit_resync_window.us()) /
      1e6);
  cfg.fault.control_retry = !flag(args, "no-control-retry", !cfg.fault.control_retry);
  cfg.fault.retry_timeout = Duration::from_seconds_double(
      num_double(args, "retry-timeout-us", cfg.fault.retry_timeout.us()) / 1e6);
  cfg.fault.max_retries = u32("retry-max", cfg.fault.max_retries);
  cfg.fault.watchdog_interval = Duration::from_seconds_double(
      num_double(args, "watchdog-ms", cfg.fault.watchdog_interval.ms()) / 1e3);
  cfg.fault.watchdog_rounds = u32("watchdog-rounds", cfg.fault.watchdog_rounds);
  cfg.fault.audit_epoch = Duration::from_seconds_double(
      num_double(args, "audit-epoch-us", cfg.fault.audit_epoch.us()) / 1e6);

  // --- overload degradation -------------------------------------------------
  cfg.expiry_drop = flag(args, "expiry-drop", cfg.expiry_drop);
  cfg.expiry_abort_ratio =
      num_double(args, "expiry-abort-ratio", cfg.expiry_abort_ratio);
  cfg.admit_retry_max = u32("admit-retry-max", cfg.admit_retry_max);
  cfg.admit_retry_backoff = Duration::from_seconds_double(
      num_double(args, "admit-retry-backoff-us", cfg.admit_retry_backoff.us()) /
      1e6);
  cfg.shed_highwater = num_double(args, "shed-highwater", cfg.shed_highwater);

  const std::string problem = cfg.check();
  if (!problem.empty()) throw ConfigError("config error: " + problem);
  return cfg;
}

namespace {

constexpr std::array kKnownKeys = {
    "arch", "topology", "leaves", "hosts-per-leaf", "spines", "kary-k",
    "kary-n", "hosts", "mesh-width", "mesh-height", "mesh-concentration",
    "load", "seed", "vcs", "vc-weights", "buffer", "mtu", "link-gbps",
    "heap-op-ns", "link-latency-ns", "shards", "shard-threads", "warmup-ms",
    "measure-ms", "drain-ms",
    "no-control", "no-video", "no-besteffort", "no-background", "video-trace",
    "video-rate-mbs", "frame-period-ms", "frame-budget-ms", "no-eligible",
    "eligible-lead-us",
    "be-weight", "bg-weight", "reservable-fraction", "fanout",
    "hier-admission", "skew-us", "pattern",
    "hotspot-fraction",
    "hotspot-node", "fault-inject", "fault-seed", "fault-link-down-per-sec",
    "fault-link-outage-ms", "fault-permanent-fraction",
    "fault-credit-loss-per-sec", "fault-credit-loss-bytes",
    "fault-ttd-corrupt-per-sec", "fault-ttd-corrupt-max-us",
    "fault-clock-drift-per-sec", "fault-clock-drift-max-us", "credit-resync-us",
    "no-control-retry", "retry-timeout-us", "retry-max", "watchdog-ms",
    "watchdog-rounds", "audit-epoch-us", "expiry-drop", "expiry-abort-ratio",
    "admit-retry-max", "admit-retry-backoff-us", "shed-highwater",
};

constexpr std::array kKnownPhaseSubkeys = {
    "start-ms",      "load",
    "share",         "pattern",
    "hotspot-fraction", "hotspot-node",
    "flow-arrivals-per-sec", "flow-departures-per-sec",
};

/// `phase.<index>.<subkey>` -> index; nullopt when `key` is not a phase key
/// at all; ConfigError when it is one but malformed (bad index, unknown
/// subkey).
std::optional<std::size_t> phase_index(const ArgParser& args,
                                       const std::string& key) {
  if (key.rfind("phase.", 0) != 0) return std::nullopt;
  const auto dot = key.find('.', 6);
  if (dot == std::string::npos || dot == 6) {
    fail_key(args, key, "expected phase.<index>.<key>");
  }
  const std::string idx = key.substr(6, dot - 6);
  const std::string sub = key.substr(dot + 1);
  bool digits = true;
  for (const char ch : idx) digits = digits && ch >= '0' && ch <= '9';
  if (!digits) fail_key(args, key, "'" + idx + "' is not a phase index");
  if (std::strtoul(idx.c_str(), nullptr, 10) > 4095) {
    fail_key(args, key, "phase index " + idx + " is out of range (max 4095)");
  }
  for (const char* k : kKnownPhaseSubkeys) {
    if (sub == k) return std::strtoul(idx.c_str(), nullptr, 10);
  }
  fail_key(args, key, "unknown phase key '" + sub + "'");
}

}  // namespace

void require_known_keys(const ArgParser& args,
                        std::initializer_list<std::string_view> extra) {
  for (const std::string& key : args.keys()) {
    bool known = phase_index(args, key).has_value();
    for (const char* k : kKnownKeys) {
      if (key == k) {
        known = true;
        break;
      }
    }
    for (const std::string_view k : extra) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string msg = "config error: unknown key '--" + key + "'";
      const std::string origin = args.origin(key);
      if (!origin.empty()) msg += " (from " + origin + ")";
      throw ConfigError(msg);
    }
  }
}

std::string config_to_string(const SimConfig& cfg) {
  std::ostringstream out;
  out << "# dqos simulation configuration\n";
  out << "arch=" << arch_key(cfg.arch) << "\n";
  out << "topology=" << topology_key(cfg.topology) << "\n";
  out << "leaves=" << cfg.num_leaves << "\n";
  out << "hosts-per-leaf=" << cfg.hosts_per_leaf << "\n";
  out << "spines=" << cfg.num_spines << "\n";
  out << "kary-k=" << cfg.kary_k << "\n";
  out << "kary-n=" << cfg.kary_n << "\n";
  out << "hosts=" << cfg.single_switch_hosts << "\n";
  out << "mesh-width=" << cfg.mesh_width << "\n";
  out << "mesh-height=" << cfg.mesh_height << "\n";
  out << "mesh-concentration=" << cfg.mesh_concentration << "\n";
  out << "load=" << cfg.load << "\n";
  out << "seed=" << cfg.seed << "\n";
  out << "vcs=" << static_cast<int>(cfg.num_vcs) << "\n";
  if (!cfg.vc_weights.empty()) {
    out << "vc-weights=";
    for (std::size_t i = 0; i < cfg.vc_weights.size(); ++i) {
      out << (i ? "," : "") << cfg.vc_weights[i];
    }
    out << "\n";
  }
  out << "buffer=" << cfg.buffer_bytes_per_vc << "\n";
  out << "mtu=" << cfg.mtu_bytes << "\n";
  out << "link-gbps=" << cfg.link_bw.gbps() << "\n";
  out << "link-latency-ns=" << cfg.link_latency.ps() / 1000 << "\n";
  if (cfg.heap_op_latency != Duration::zero()) {  // gated: legacy dump bytes
    out << "heap-op-ns=" << cfg.heap_op_latency.ps() / 1000 << "\n";
  }
  if (cfg.shards != 1) out << "shards=" << cfg.shards << "\n";
  if (cfg.shard_threads != -1) out << "shard-threads=" << cfg.shard_threads << "\n";
  out << "warmup-ms=" << cfg.warmup.ms() << "\n";
  out << "measure-ms=" << cfg.measure.ms() << "\n";
  out << "drain-ms=" << cfg.drain.ms() << "\n";
  if (!cfg.enable_control) out << "no-control=true\n";
  if (!cfg.enable_video) out << "no-video=true\n";
  if (!cfg.enable_best_effort) out << "no-besteffort=true\n";
  if (!cfg.enable_background) out << "no-background=true\n";
  if (!cfg.video_trace_path.empty()) {
    out << "video-trace=" << cfg.video_trace_path << "\n";
  }
  out << "video-rate-mbs=" << cfg.video.mean_bytes_per_sec / 1e6 << "\n";
  if (cfg.video.frame_period != Duration::milliseconds(40)) {
    out << "frame-period-ms=" << cfg.video.frame_period.ms() << "\n";
  }
  out << "frame-budget-ms=" << cfg.video_frame_budget.ms() << "\n";
  if (!cfg.video_eligible_time) out << "no-eligible=true\n";
  out << "eligible-lead-us=" << cfg.eligible_lead.us() << "\n";
  out << "be-weight=" << cfg.best_effort_weight << "\n";
  out << "bg-weight=" << cfg.background_weight << "\n";
  if (cfg.reservable_fraction != 1.0) {  // emission gated: legacy dump bytes
    out << "reservable-fraction=" << cfg.reservable_fraction << "\n";
  }
  if (cfg.fanout != 0) out << "fanout=" << cfg.fanout << "\n";
  if (cfg.hier_admission) out << "hier-admission=true\n";
  out << "skew-us=" << cfg.max_clock_skew.us() << "\n";
  out << "pattern=" << to_string(cfg.pattern.kind) << "\n";
  out << "hotspot-fraction=" << cfg.pattern.hotspot_fraction << "\n";
  out << "hotspot-node=" << cfg.pattern.hotspot_node << "\n";
  if (cfg.fault.enabled || cfg.fault.any_faults() ||
      cfg.fault.audit_epoch > Duration::zero()) {
    if (cfg.fault.enabled || cfg.fault.any_faults()) out << "fault-inject=true\n";
    out << "fault-seed=" << cfg.fault.seed << "\n";
    out << "fault-link-down-per-sec=" << cfg.fault.link_down_per_sec << "\n";
    out << "fault-link-outage-ms=" << cfg.fault.link_outage_mean.ms() << "\n";
    out << "fault-permanent-fraction=" << cfg.fault.link_permanent_fraction << "\n";
    out << "fault-credit-loss-per-sec=" << cfg.fault.credit_loss_per_sec << "\n";
    out << "fault-credit-loss-bytes=" << cfg.fault.credit_loss_bytes << "\n";
    out << "fault-ttd-corrupt-per-sec=" << cfg.fault.ttd_corrupt_per_sec << "\n";
    out << "fault-ttd-corrupt-max-us=" << cfg.fault.ttd_corrupt_max.us() << "\n";
    out << "fault-clock-drift-per-sec=" << cfg.fault.clock_drift_per_sec << "\n";
    out << "fault-clock-drift-max-us=" << cfg.fault.clock_drift_max.us() << "\n";
    out << "credit-resync-us=" << cfg.fault.credit_resync_window.us() << "\n";
    if (!cfg.fault.control_retry) out << "no-control-retry=true\n";
    out << "retry-timeout-us=" << cfg.fault.retry_timeout.us() << "\n";
    out << "retry-max=" << cfg.fault.max_retries << "\n";
    out << "watchdog-ms=" << cfg.fault.watchdog_interval.ms() << "\n";
    out << "watchdog-rounds=" << cfg.fault.watchdog_rounds << "\n";
    if (cfg.fault.audit_epoch > Duration::zero()) {
      out << "audit-epoch-us=" << cfg.fault.audit_epoch.us() << "\n";
    }
  }
  // Degradation knobs print only when on, keeping legacy dump bytes intact.
  if (cfg.expiry_drop) {
    out << "expiry-drop=true\n";
    if (cfg.expiry_abort_ratio > 0.0) {
      out << "expiry-abort-ratio=" << cfg.expiry_abort_ratio << "\n";
    }
  }
  if (cfg.admit_retry_max > 0) {
    out << "admit-retry-max=" << cfg.admit_retry_max << "\n";
    out << "admit-retry-backoff-us=" << cfg.admit_retry_backoff.us() << "\n";
  }
  if (cfg.shed_highwater > 0.0) {
    out << "shed-highwater=" << cfg.shed_highwater << "\n";
  }
  return out.str();
}

std::optional<Scenario> scenario_from_args(const ArgParser& args,
                                           const SimConfig& base) {
  std::size_t max_index = 0;
  bool any = false;
  for (const std::string& key : args.keys()) {
    if (const auto idx = phase_index(args, key)) {
      any = true;
      max_index = std::max(max_index, *idx);
    }
  }
  if (!any) return std::nullopt;

  std::vector<bool> present(max_index + 1, false);
  for (const std::string& key : args.keys()) {
    if (const auto idx = phase_index(args, key)) present[*idx] = true;
  }
  for (std::size_t i = 0; i <= max_index; ++i) {
    if (!present[i]) {
      throw ConfigError(
          "config error: phase indices must be contiguous from 0; [phase." +
          std::to_string(i) + "] is missing");
    }
  }

  Scenario scn;
  scn.phases.resize(max_index + 1);
  for (std::size_t i = 0; i < scn.phases.size(); ++i) {
    PhaseSpec& ph = scn.phases[i];
    const std::string p = "phase." + std::to_string(i) + ".";
    // Omitted subkeys inherit the base single-phase run: each phase is a
    // delta against the flat config.
    ph.load = base.load;
    ph.class_share = base.class_share;
    ph.pattern = base.pattern;

    const std::string start_key = p + "start-ms";
    if (i == 0) {
      if (num_double(args, start_key, 0.0) != 0.0) {
        fail_key(args, start_key,
                 "phase 0 always starts at offset 0 (the measurement-window "
                 "start)");
      }
    } else {
      if (!args.has(start_key)) {
        throw ConfigError("config error: --" + start_key +
                          " is required: the start offset of phase " +
                          std::to_string(i) +
                          " in ms from the measurement-window start");
      }
      ph.start =
          Duration::from_seconds_double(num_double(args, start_key, 0.0) / 1e3);
      if (ph.start <= scn.phases[i - 1].start) {
        fail_key(args, start_key,
                 "phase starts must be strictly increasing (phase " +
                     std::to_string(i - 1) + " starts at " +
                     std::to_string(scn.phases[i - 1].start.ms()) + " ms)");
      }
    }

    ph.load = num_double(args, p + "load", ph.load);
    if (const auto csv = args.get(p + "share")) {
      // Control, Multimedia, BestEffort, Background.
      std::stringstream ss(*csv);
      std::string item;
      std::size_t c = 0;
      while (std::getline(ss, item, ',')) {
        char* end = nullptr;
        const double s = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || c >= kNumTrafficClasses) {
          fail_key(args, p + "share",
                   "expected 4 comma-separated class shares");
        }
        ph.class_share[c++] = s;
      }
      if (c != kNumTrafficClasses) {
        fail_key(args, p + "share", "expected 4 comma-separated class shares");
      }
    }
    if (const auto pat = args.get(p + "pattern")) {
      ph.pattern.kind = parse_pattern_or_fail(args, p + "pattern", *pat);
    }
    ph.pattern.hotspot_fraction =
        num_double(args, p + "hotspot-fraction", ph.pattern.hotspot_fraction);
    ph.pattern.hotspot_node = static_cast<NodeId>(
        num_u32(args, p + "hotspot-node", ph.pattern.hotspot_node));
    ph.flow_arrivals_per_sec =
        num_double(args, p + "flow-arrivals-per-sec", ph.flow_arrivals_per_sec);
    ph.flow_departures_per_sec = num_double(args, p + "flow-departures-per-sec",
                                            ph.flow_departures_per_sec);
  }

  const std::string problem = scn.check(base);
  if (!problem.empty()) throw ConfigError("config error: " + problem);
  return scn;
}

std::string scenario_to_string(const Scenario& scn) {
  std::ostringstream out;
  out << "# dqos run scenario (starts are offsets from the measurement "
         "window)\n";
  for (std::size_t i = 0; i < scn.phases.size(); ++i) {
    const PhaseSpec& ph = scn.phases[i];
    out << "[phase." << i << "]\n";
    if (i > 0) out << "start-ms=" << ph.start.ms() << "\n";
    out << "load=" << ph.load << "\n";
    out << "share=" << ph.class_share[0] << "," << ph.class_share[1] << ","
        << ph.class_share[2] << "," << ph.class_share[3] << "\n";
    out << "pattern=" << to_string(ph.pattern.kind) << "\n";
    out << "hotspot-fraction=" << ph.pattern.hotspot_fraction << "\n";
    out << "hotspot-node=" << ph.pattern.hotspot_node << "\n";
    out << "flow-arrivals-per-sec=" << ph.flow_arrivals_per_sec << "\n";
    out << "flow-departures-per-sec=" << ph.flow_departures_per_sec << "\n";
  }
  return out.str();
}

}  // namespace dqos
