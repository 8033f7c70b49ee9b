#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace dqos {
namespace {

ArgParser parse(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail);
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArch, AllSpellings) {
  EXPECT_EQ(parse_arch("traditional"), SwitchArch::kTraditional2Vc);
  EXPECT_EQ(parse_arch("trad"), SwitchArch::kTraditional2Vc);
  EXPECT_EQ(parse_arch("ideal"), SwitchArch::kIdeal);
  EXPECT_EQ(parse_arch("simple"), SwitchArch::kSimple2Vc);
  EXPECT_EQ(parse_arch("advanced"), SwitchArch::kAdvanced2Vc);
  EXPECT_EQ(parse_arch("takeover"), SwitchArch::kAdvanced2Vc);
  EXPECT_FALSE(parse_arch("bogus").has_value());
}

TEST(ParseTopology, AllSpellings) {
  EXPECT_EQ(parse_topology("clos"), TopologyKind::kFoldedClos);
  EXPECT_EQ(parse_topology("min"), TopologyKind::kFoldedClos);
  EXPECT_EQ(parse_topology("kary"), TopologyKind::kKaryNTree);
  EXPECT_EQ(parse_topology("single"), TopologyKind::kSingleSwitch);
  EXPECT_FALSE(parse_topology("torus??").has_value());
}

TEST(ConfigFromArgs, DefaultsUntouched) {
  const SimConfig cfg = config_from_args(parse({}));
  const SimConfig ref;
  EXPECT_EQ(cfg.arch, ref.arch);
  EXPECT_EQ(cfg.num_hosts(), ref.num_hosts());
  EXPECT_DOUBLE_EQ(cfg.load, ref.load);
}

TEST(ConfigFromArgs, OverridesPlatform) {
  const SimConfig cfg = config_from_args(parse(
      {"--arch=simple", "--leaves=4", "--hosts-per-leaf=2", "--spines=3",
       "--load=0.6", "--seed=77", "--vcs=4", "--vc-weights=8,4,2,1",
       "--buffer=16384", "--mtu=1024", "--link-gbps=16",
       "--link-latency-ns=250"}));
  EXPECT_EQ(cfg.arch, SwitchArch::kSimple2Vc);
  EXPECT_EQ(cfg.num_hosts(), 8u);
  EXPECT_EQ(cfg.num_spines, 3u);
  EXPECT_DOUBLE_EQ(cfg.load, 0.6);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.num_vcs, 4);
  EXPECT_EQ(cfg.vc_weights, (std::vector<std::uint32_t>{8, 4, 2, 1}));
  EXPECT_EQ(cfg.buffer_bytes_per_vc, 16384u);
  EXPECT_EQ(cfg.mtu_bytes, 1024u);
  EXPECT_DOUBLE_EQ(cfg.link_bw.gbps(), 16.0);
  EXPECT_EQ(cfg.link_latency, Duration::nanoseconds(250));
}

TEST(ConfigFromArgs, WorkloadToggles) {
  const SimConfig cfg = config_from_args(
      parse({"--no-video", "--no-background", "--be-weight=5",
             "--frame-budget-ms=20", "--no-eligible", "--skew-us=100"}));
  EXPECT_FALSE(cfg.enable_video);
  EXPECT_TRUE(cfg.enable_control);
  EXPECT_FALSE(cfg.enable_background);
  EXPECT_DOUBLE_EQ(cfg.best_effort_weight, 5.0);
  EXPECT_EQ(cfg.video_frame_budget, Duration::milliseconds(20));
  EXPECT_FALSE(cfg.video_eligible_time);
  EXPECT_EQ(cfg.max_clock_skew, Duration::microseconds(100));
}

TEST(ConfigFromArgs, Pattern) {
  const SimConfig cfg = config_from_args(
      parse({"--pattern=hotspot", "--hotspot-fraction=0.5", "--hotspot-node=3"}));
  EXPECT_EQ(cfg.pattern.kind, PatternKind::kHotSpot);
  EXPECT_DOUBLE_EQ(cfg.pattern.hotspot_fraction, 0.5);
  EXPECT_EQ(cfg.pattern.hotspot_node, 3u);
}

TEST(ConfigFromArgs, TimeWindows) {
  const SimConfig cfg = config_from_args(
      parse({"--warmup-ms=5", "--measure-ms=50", "--drain-ms=7"}));
  EXPECT_EQ(cfg.warmup, Duration::milliseconds(5));
  EXPECT_EQ(cfg.measure, Duration::milliseconds(50));
  EXPECT_EQ(cfg.drain, Duration::milliseconds(7));
}

TEST(ConfigFromArgs, KaryAndSingleTopologies) {
  const SimConfig kary = config_from_args(
      parse({"--topology=kary", "--kary-k=2", "--kary-n=4"}));
  EXPECT_EQ(kary.topology, TopologyKind::kKaryNTree);
  EXPECT_EQ(kary.num_hosts(), 16u);
  const SimConfig single =
      config_from_args(parse({"--topology=single", "--hosts=6"}));
  EXPECT_EQ(single.num_hosts(), 6u);
}

TEST(ConfigFromArgs, MeshKeys) {
  const SimConfig cfg = config_from_args(parse(
      {"--topology=mesh", "--mesh-width=5", "--mesh-height=3",
       "--mesh-concentration=2"}));
  EXPECT_EQ(cfg.topology, TopologyKind::kMesh2D);
  EXPECT_EQ(cfg.num_hosts(), 30u);
}

TEST(ConfigFromArgs, HeapOpLatency) {
  const SimConfig cfg = config_from_args(parse({"--heap-op-ns=150"}));
  EXPECT_EQ(cfg.heap_op_latency, Duration::nanoseconds(150));
  EXPECT_EQ(config_from_args(parse({})).heap_op_latency, Duration::zero());
}

TEST(ConfigFromArgs, VideoTracePath) {
  const SimConfig cfg = config_from_args(parse({"--video-trace=/tmp/x.trace"}));
  EXPECT_EQ(cfg.video_trace_path, "/tmp/x.trace");
}

TEST(ConfigRoundTrip, MeshToStringAndBack) {
  SimConfig original;
  original.topology = TopologyKind::kMesh2D;
  original.mesh_width = 6;
  original.mesh_height = 2;
  original.mesh_concentration = 3;
  const std::string path = testing::TempDir() + "/dqos_mesh_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << config_to_string(original);
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  const SimConfig loaded = config_from_args(args);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.topology, TopologyKind::kMesh2D);
  EXPECT_EQ(loaded.num_hosts(), 36u);
}

TEST(ConfigRoundTrip, ToStringAndBack) {
  SimConfig original;
  original.arch = SwitchArch::kSimple2Vc;
  original.topology = TopologyKind::kKaryNTree;
  original.kary_k = 2;
  original.kary_n = 3;
  original.load = 0.65;
  original.seed = 123;
  original.num_vcs = 4;
  original.vc_weights = {4, 3, 2, 1};
  original.buffer_bytes_per_vc = 4096;
  original.enable_video = false;
  original.video_eligible_time = false;
  original.best_effort_weight = 3.5;
  original.pattern.kind = PatternKind::kTornado;
  original.max_clock_skew = Duration::microseconds(42);
  original.heap_op_latency = Duration::nanoseconds(150);

  const std::string path = testing::TempDir() + "/dqos_cfg_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << config_to_string(original);
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  const SimConfig loaded = config_from_args(args);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.arch, original.arch);
  EXPECT_EQ(loaded.topology, original.topology);
  EXPECT_EQ(loaded.num_hosts(), original.num_hosts());
  EXPECT_DOUBLE_EQ(loaded.load, original.load);
  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.num_vcs, original.num_vcs);
  EXPECT_EQ(loaded.vc_weights, original.vc_weights);
  EXPECT_EQ(loaded.buffer_bytes_per_vc, original.buffer_bytes_per_vc);
  EXPECT_EQ(loaded.enable_video, original.enable_video);
  EXPECT_EQ(loaded.video_eligible_time, original.video_eligible_time);
  EXPECT_DOUBLE_EQ(loaded.best_effort_weight, original.best_effort_weight);
  EXPECT_EQ(loaded.pattern.kind, original.pattern.kind);
  EXPECT_EQ(loaded.max_clock_skew, original.max_clock_skew);
  EXPECT_EQ(loaded.heap_op_latency, original.heap_op_latency);
}

TEST(ConfigRoundTrip, ScaleKeysSurviveAndStayOffLegacyDumps) {
  // The DESIGN.md §13 scale knobs round-trip through dump/parse…
  SimConfig original;
  original.topology = TopologyKind::kKaryNTree;
  original.kary_k = 4;
  original.kary_n = 3;
  original.fanout = 8;
  original.hier_admission = true;
  const std::string dumped = config_to_string(original);
  EXPECT_NE(dumped.find("fanout=8"), std::string::npos);
  EXPECT_NE(dumped.find("hier-admission=true"), std::string::npos);
  const std::string path = testing::TempDir() + "/dqos_scale_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << dumped;
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  const SimConfig loaded = config_from_args(args);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.fanout, 8u);
  EXPECT_TRUE(loaded.hier_admission);
  // …and default (off) values are not emitted at all, so legacy config
  // dumps — and the golden byte-identity that rides on them — are
  // untouched by the new keys.
  const std::string legacy = config_to_string(SimConfig{});
  EXPECT_EQ(legacy.find("fanout"), std::string::npos);
  EXPECT_EQ(legacy.find("hier-admission"), std::string::npos);
}

// --- negative paths: user input must raise ConfigError, never abort --------

/// Runs config_from_args and returns the ConfigError message ("" = accepted).
std::string error_of(std::initializer_list<const char*> argv_tail) {
  try {
    (void)config_from_args(parse(argv_tail));
    return "";
  } catch (const ConfigError& e) {
    return e.what();
  }
}

TEST(ConfigFromArgsErrors, MalformedNumberNamesKeyAndValue) {
  const std::string msg = error_of({"--load=fast"});
  EXPECT_NE(msg.find("--load"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
  EXPECT_NE(msg.find("command line"), std::string::npos) << msg;
}

TEST(ConfigFromArgsErrors, TrailingGarbageIsMalformed) {
  EXPECT_NE(error_of({"--load=0.9x"}), "");
  EXPECT_NE(error_of({"--seed=12abc"}), "");
  EXPECT_NE(error_of({"--leaves=4.5"}), "");  // integer key rejects fractions
}

TEST(ConfigFromArgsErrors, OutOfRangeValues) {
  EXPECT_NE(error_of({"--load=0"}), "");      // load must be in (0, 2]
  EXPECT_NE(error_of({"--load=2.5"}), "");
  EXPECT_NE(error_of({"--load=-1"}), "");
  EXPECT_NE(error_of({"--vcs=256"}), "");     // VcId is 8-bit
  EXPECT_NE(error_of({"--vcs=0"}), "");
  EXPECT_NE(error_of({"--link-gbps=0"}), "");
  EXPECT_NE(error_of({"--leaves=0"}), "");
}

TEST(ConfigFromArgsErrors, ValuesThatWouldTripComponentContracts) {
  // Each of these used to pass config_from_args and then abort inside a
  // component constructor (Channel, Host, DeadlineStamper, LogNormal).
  EXPECT_NE(error_of({"--link-latency-ns=-5"}).find("link-latency-ns"),
            std::string::npos);
  EXPECT_NE(error_of({"--mtu=0"}).find("mtu"), std::string::npos);
  EXPECT_NE(error_of({"--frame-budget-ms=-1"}).find("frame-budget-ms"),
            std::string::npos);
  EXPECT_NE(error_of({"--frame-budget-ms=0"}), "");
  EXPECT_NE(error_of({"--video-rate-mbs=0"}).find("video-rate-mbs"),
            std::string::npos);
  EXPECT_EQ(error_of({"--link-latency-ns=0"}), "");  // zero-latency wires
}

TEST(ConfigFromArgsErrors, UnknownEnumerations) {
  const std::string arch = error_of({"--arch=quantum"});
  EXPECT_NE(arch.find("traditional|ideal|simple|advanced"), std::string::npos)
      << arch;
  const std::string topo = error_of({"--topology=torus"});
  EXPECT_NE(topo.find("clos|kary|single|mesh"), std::string::npos) << topo;
  EXPECT_NE(error_of({"--pattern=zigzag"}), "");
}

TEST(ConfigFromArgsErrors, MalformedBooleanAndWeightList) {
  EXPECT_NE(error_of({"--no-video=perhaps"}), "");
  EXPECT_NE(error_of({"--vc-weights=8,x,2"}), "");
  EXPECT_EQ(error_of({"--no-video=yes"}), "");
}

TEST(ConfigFromArgsErrors, InconsistentCombinationIsAnError) {
  // Buffer too small for one MTU packet: a cross-field rule, still a clean
  // ConfigError (this used to trip a contract abort).
  const std::string msg = error_of({"--buffer=64", "--mtu=2048"});
  EXPECT_NE(msg, "");
  EXPECT_NE(msg.find("buffer"), std::string::npos) << msg;
}

TEST(ConfigFromArgsErrors, FaultKeysValidated) {
  EXPECT_EQ(error_of({"--fault-inject", "--fault-link-down-per-sec=100"}), "");
  EXPECT_NE(error_of({"--fault-link-down-per-sec=-5"}), "");
  EXPECT_NE(error_of({"--fault-permanent-fraction=1.5"}), "");
  EXPECT_NE(error_of({"--fault-credit-loss-per-sec=10",
                      "--fault-credit-loss-bytes=0"}), "");
  EXPECT_NE(error_of({"--retry-timeout-us=0"}), "");
  EXPECT_NE(error_of({"--watchdog-ms=1", "--watchdog-rounds=0"}), "");
}

TEST(ConfigFileErrors, MessageCarriesFileAndLine) {
  const std::string path = testing::TempDir() + "/dqos_bad.cfg";
  {
    std::ofstream out(path);
    out << "# comment\n"
           "load=0.8\n"
           "buffer=banana\n";
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  std::string msg;
  try {
    (void)config_from_args(args);
  } catch (const ConfigError& e) {
    msg = e.what();
  }
  std::remove(path.c_str());
  EXPECT_NE(msg.find("--buffer"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path + ":3"), std::string::npos) << msg;
}

TEST(RequireKnownKeys, CatchesTypos) {
  const ArgParser args = parse({"--laod=0.9"});
  try {
    require_known_keys(args);
    FAIL() << "typo accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("laod"), std::string::npos);
  }
}

TEST(RequireKnownKeys, AcceptsConfigKeysAndExtras) {
  EXPECT_NO_THROW(require_known_keys(
      parse({"--arch=ideal", "--load=0.9", "--fault-inject", "--csv=x.csv"}),
      {"csv"}));
}

// --- scenario ([phase.N]) parsing -------------------------------------------

TEST(ScenarioFromArgs, NoPhaseKeysMeansNoScenario) {
  EXPECT_FALSE(scenario_from_args(parse({"--load=0.8"}), SimConfig{})
                   .has_value());
}

TEST(ScenarioFromArgs, PhasesInheritBaseAndOverride) {
  SimConfig base;
  base.load = 0.4;
  base.measure = Duration::milliseconds(10);
  const auto scn = scenario_from_args(
      parse({"--phase.0.load=0.3", "--phase.1.start-ms=4",
             "--phase.1.flow-arrivals-per-sec=2000",
             "--phase.1.flow-departures-per-sec=500",
             "--phase.2.start-ms=8", "--phase.2.share=0.4,0.1,0.25,0.25"}),
      base);
  ASSERT_TRUE(scn.has_value());
  ASSERT_EQ(scn->phases.size(), 3u);
  EXPECT_DOUBLE_EQ(scn->phases[0].load, 0.3);
  EXPECT_DOUBLE_EQ(scn->phases[1].load, 0.4);  // inherited from base
  EXPECT_EQ(scn->phases[1].start, Duration::milliseconds(4));
  EXPECT_DOUBLE_EQ(scn->phases[1].flow_arrivals_per_sec, 2000.0);
  EXPECT_DOUBLE_EQ(scn->phases[1].flow_departures_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(scn->phases[2].class_share[0], 0.4);
  EXPECT_DOUBLE_EQ(scn->phases[2].class_share[1], 0.1);
  EXPECT_TRUE(scn->multi_phase());
  EXPECT_TRUE(scn->has_churn());
}

TEST(ScenarioRoundTrip, ToStringAndBack) {
  SimConfig base;
  base.measure = Duration::milliseconds(20);
  Scenario original;
  original.phases.resize(3);
  original.phases[0].load = 0.3;
  original.phases[1].start = Duration::milliseconds(5);
  original.phases[1].load = 0.9;
  original.phases[1].flow_arrivals_per_sec = 1500.0;
  original.phases[1].flow_departures_per_sec = 250.0;
  original.phases[1].pattern.kind = PatternKind::kHotSpot;
  original.phases[1].pattern.hotspot_fraction = 0.5;
  original.phases[1].pattern.hotspot_node = 3;
  original.phases[2].start = Duration::milliseconds(12);
  original.phases[2].class_share = {0.4, 0.1, 0.25, 0.25};
  ASSERT_EQ(original.check(base), "");

  const std::string path = testing::TempDir() + "/dqos_scn_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << scenario_to_string(original);
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  EXPECT_NO_THROW(require_known_keys(args));
  const auto loaded = scenario_from_args(args, base);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->phases.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const PhaseSpec& a = original.phases[i];
    const PhaseSpec& b = loaded->phases[i];
    EXPECT_EQ(b.start, a.start) << "phase " << i;
    EXPECT_DOUBLE_EQ(b.load, a.load) << "phase " << i;
    EXPECT_EQ(b.class_share, a.class_share) << "phase " << i;
    EXPECT_EQ(b.pattern.kind, a.pattern.kind) << "phase " << i;
    EXPECT_DOUBLE_EQ(b.pattern.hotspot_fraction, a.pattern.hotspot_fraction);
    EXPECT_EQ(b.pattern.hotspot_node, a.pattern.hotspot_node);
    EXPECT_DOUBLE_EQ(b.flow_arrivals_per_sec, a.flow_arrivals_per_sec);
    EXPECT_DOUBLE_EQ(b.flow_departures_per_sec, a.flow_departures_per_sec);
  }
}

/// Runs scenario_from_args and returns the ConfigError message.
std::string scenario_error_of(std::initializer_list<const char*> argv_tail,
                              const SimConfig& base = SimConfig{}) {
  try {
    (void)scenario_from_args(parse(argv_tail), base);
    return "";
  } catch (const ConfigError& e) {
    return e.what();
  }
}

TEST(ScenarioFromArgsErrors, UnsortedOrDuplicateStarts) {
  EXPECT_NE(scenario_error_of({"--phase.0.load=0.5", "--phase.1.start-ms=8",
                               "--phase.2.start-ms=4"}),
            "");
  const std::string dup = scenario_error_of(
      {"--phase.0.load=0.5", "--phase.1.start-ms=4", "--phase.2.start-ms=4"});
  EXPECT_NE(dup.find("strictly increasing"), std::string::npos) << dup;
}

TEST(ScenarioFromArgsErrors, PhaseZeroMustStartAtZero) {
  const std::string msg = scenario_error_of({"--phase.0.start-ms=2"});
  EXPECT_NE(msg.find("phase 0"), std::string::npos) << msg;
}

TEST(ScenarioFromArgsErrors, IndexGapAndMissingStart) {
  EXPECT_NE(scenario_error_of({"--phase.0.load=0.5", "--phase.2.start-ms=4"}),
            "");
  const std::string msg =
      scenario_error_of({"--phase.0.load=0.5", "--phase.1.load=0.9"});
  EXPECT_NE(msg.find("start-ms"), std::string::npos) << msg;
}

TEST(ScenarioFromArgsErrors, UnknownSubkeyAndBadIndex) {
  EXPECT_NE(scenario_error_of({"--phase.0.laod=0.5"}), "");
  EXPECT_NE(scenario_error_of({"--phase.x.load=0.5"}), "");
  EXPECT_NE(scenario_error_of({"--phase.9999.load=0.5"}), "");
}

TEST(ScenarioFromArgsErrors, ChurnNeedsVideoEnabled) {
  SimConfig base;
  base.enable_video = false;
  EXPECT_NE(
      scenario_error_of({"--phase.0.flow-arrivals-per-sec=100"}, base), "");
}

TEST(ScenarioFileErrors, MessageCarriesFileAndLine) {
  // `[phase.N]` sections in a file: a bad start ordering must cite the
  // offending file:line, like every other config error.
  const std::string path = testing::TempDir() + "/dqos_bad_scn.cfg";
  {
    std::ofstream out(path);
    out << "[phase.0]\n"
           "load=0.5\n"
           "[phase.1]\n"
           "start-ms=8\n"
           "[phase.2]\n"
           "start-ms=4\n";
  }
  ArgParser args;
  ASSERT_TRUE(args.load_file(path));
  std::string msg;
  try {
    (void)scenario_from_args(args, SimConfig{});
  } catch (const ConfigError& e) {
    msg = e.what();
  }
  std::remove(path.c_str());
  EXPECT_NE(msg.find("--phase.2.start-ms"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path + ":6"), std::string::npos) << msg;
}

TEST(SimConfigCheck, ProgrammaticUseStillAborts) {
  // Library users bypass config_io; a bad SimConfig there is a programming
  // error and keeps the contract abort.
  SimConfig cfg;
  cfg.load = 0.0;
  EXPECT_DEATH(cfg.validate(), "precondition");
}

}  // namespace
}  // namespace dqos
