/// \file config_io.hpp
/// SimConfig <-> command line / config file mapping, so every bench,
/// example and the dqos_sim tool accept one uniform set of switches:
///
///   --arch=traditional|ideal|simple|advanced   --load=0.8
///   --topology=clos|kary|single|mesh
///   --leaves=16 --hosts-per-leaf=8 --spines=8  --kary-k=4 --kary-n=2
///   --hosts=16  --mesh-width=4 --mesh-height=4 --mesh-concentration=2
///   --vcs=2 --vc-weights=8,4,2,1 --buffer=8192
///   --link-gbps=8 --link-latency-ns=100 --mtu=2048
///   --measure-ms=20 --warmup-ms=2 --drain-ms=3 --seed=1
///   --no-video --no-control --no-besteffort --no-background
///   --video-rate-mbs=3 --frame-budget-ms=10 --no-eligible
///   --eligible-lead-us=20 --be-weight=2 --bg-weight=1 --skew-us=0
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/scenario.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace dqos {

/// A malformed, unknown, or out-of-range configuration value. The message
/// names the offending key, the rejected value, and where it came from
/// (config-file line or command line) — tools print it and exit instead of
/// tripping a contract abort on user input.
class ConfigError : public DqosError {
 public:
  explicit ConfigError(const std::string& what) : DqosError(what) {}
};

[[nodiscard]] std::optional<SwitchArch> parse_arch(const std::string& name);
[[nodiscard]] std::optional<TopologyKind> parse_topology(const std::string& name);

/// Overlays recognized keys from `args` onto `base` and validates.
/// Throws ConfigError on malformed or out-of-range values (unrecognized
/// keys are still ignored here — callers may use extra keys themselves;
/// see require_known_keys for strict checking).
[[nodiscard]] SimConfig config_from_args(const ArgParser& args,
                                         SimConfig base = SimConfig{});

/// Throws ConfigError if `args` holds a key that is neither a SimConfig key
/// nor listed in `extra` (tool-specific switches). Catches typos like
/// --laod=0.9 that would otherwise be silently ignored.
void require_known_keys(const ArgParser& args,
                        std::initializer_list<std::string_view> extra = {});

/// Serializes a SimConfig to `key=value` lines accepted back by
/// ArgParser::load_file + config_from_args (round-trippable).
[[nodiscard]] std::string config_to_string(const SimConfig& cfg);

/// Builds a Scenario from `[phase.N]` sections (keys `phase.N.<subkey>`
/// after ArgParser::load_file prefixing). Returns nullopt when `args`
/// carries no phase keys at all. Phases must be numbered contiguously
/// from 0; phase 0 starts at the measurement window's origin, later
/// phases need `start-ms` (offset from that origin, strictly
/// increasing). Subkeys: start-ms, load, share (4-value csv summing like
/// SimConfig::class_share), pattern, hotspot-fraction, hotspot-node,
/// flow-arrivals-per-sec, flow-departures-per-sec; omitted subkeys
/// inherit from `base` (phase 0) — i.e. each phase is a delta on the
/// base single-phase run. Throws ConfigError (with the file:line origin)
/// on malformed values, overlapping/unsorted starts, or index gaps.
[[nodiscard]] std::optional<Scenario> scenario_from_args(const ArgParser& args,
                                                         const SimConfig& base);

/// Serializes a Scenario to `[phase.N]` sections accepted back by
/// ArgParser::load_file + scenario_from_args (round-trippable).
[[nodiscard]] std::string scenario_to_string(const Scenario& scn);

}  // namespace dqos
