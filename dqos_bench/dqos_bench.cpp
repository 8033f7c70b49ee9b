/// \file dqos_bench.cpp
/// One repetition of one benchmark workload, driven through the public
/// NetworkSimulator / RunController API exactly as a user runs it. run.py
/// starts a fresh process per repetition, so peak RSS and allocator state
/// belong to that repetition alone.
///
/// Every repetition times the three calls a user makes — construction
/// (`setup.build`), prepare_workload (`setup.admit`) and RunController::run
/// (`run`) — in host wall and CPU seconds, and fingerprints the simulated
/// output: event count plus a hash of the per-class report rows. A timed
/// repetition also reports the wall time of every 65536-event slice, and
/// probes the host core's speed before and after the simulator exists.
///
/// `--trace` adds the per-layer view, all of it from outside the program:
///   - the public fire hook hashes the (seq, time) fire stream; on serial
///     runs it also samples events_pending and the wall clock every 4096
///     fires, which gives the calendar population and per-phase child
///     spans of `run`;
///   - exact counters are read through the public accessors afterwards;
///   - a bare Simulator replays Brown's hold model at the measured pending
///     population and inter-fire gap, giving the calendar's cost per event;
///   - sharded workloads also run their serial twin once, for the speedup
///     and the fire-hash equality check.
/// Spans stay in memory and go to --trace-out=FILE at exit.
///
///   dqos_bench --workload=NAME [--seed=N] [--trace] [--trace-out=FILE]
///              [--smoke]
///
/// `--smoke` shrinks every workload to 0.1 ms of simulated time. The last
/// stdout line is one JSON object; a thrown error exits 1.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_controller.hpp"
#include "harness.hpp"

namespace {

using namespace dqos;
using namespace dqos::literals;
using dqos::bench::Clock;
using dqos::bench::JsonWriter;

const Clock::time_point g_process_start = Clock::now();

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double since_start(Clock::time_point t) { return seconds(t - g_process_start); }

/// FNV-1a over 64-bit words: the golden-determinism tests' stream hash.
class StreamHash {
 public:
  void mix(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Hash of the per-class report rows, formatted exactly as the golden
/// determinism test formats them (tests/core/test_determinism.cpp).
std::uint64_t report_hash(const SimReport& rep) {
  StreamHash h;
  for (const TrafficClass c : all_traffic_classes()) {
    const ClassReport& r = rep.of(c);
    char row[256];
    std::snprintf(row, sizeof row, "%s,%llu,%llu,%.3f,%.3f,%.1f,%.1f\n",
                  std::string(to_string(c)).c_str(),
                  static_cast<unsigned long long>(r.packets),
                  static_cast<unsigned long long>(r.messages),
                  r.avg_packet_latency_us, r.p99_packet_latency_us,
                  r.throughput_bytes_per_sec, r.offered_bytes_per_sec);
    for (const char* p = row; *p != '\0'; ++p) {
      h.mix(static_cast<unsigned char>(*p));
    }
  }
  return h.value();
}

// --- workloads -----------------------------------------------------------

struct Workload {
  SimConfig cfg;
  Scenario scn;
};

SimConfig mesh(std::uint32_t side, SwitchArch arch) {
  SimConfig c;
  c.topology = TopologyKind::kMesh2D;
  c.mesh_width = side;
  c.mesh_height = side;
  c.mesh_concentration = 1;
  c.arch = arch;
  c.load = 1.0;
  return c;
}

/// The four benchmark inputs (dqos_bench/README.md says why each exists).
/// Sizes are simulated time; `smoke` shrinks each to 0.1 ms.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  SimConfig& c = w.cfg;
  bool churn = false;
  if (name == "mesh16_sat") {
    c = mesh(4, SwitchArch::kAdvanced2Vc);
    c.warmup = 1_ms;
    c.measure = 4_ms;
    c.drain = 1_ms;
  } else if (name == "paper128_mix") {
    c = SimConfig::paper(SwitchArch::kAdvanced2Vc, 0.5);
    c.warmup = 500_us;
    c.measure = 1_ms;
    c.drain = 500_us;
  } else if (name == "mesh64_shard4") {
    c = mesh(8, SwitchArch::kSimple2Vc);
    c.warmup = 250_us;
    c.measure = 1_ms;
    c.drain = 250_us;
    c.shards = 4;
    c.shard_threads = -1;
  } else if (name == "fattree1024_churn") {
    c.topology = TopologyKind::kKaryNTree;
    c.kary_k = 4;
    c.kary_n = 5;
    c.arch = SwitchArch::kSimple2Vc;
    c.load = 0.2;
    c.fanout = 8;
    c.hier_admission = true;
    c.warmup = 50_us;
    c.measure = 100_us;
    c.drain = 50_us;
    churn = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    c.warmup = 25_us;
    c.measure = 50_us;
    c.drain = 25_us;
  }
  c.seed = seed;
  if (!churn) {
    w.scn = Scenario::single_phase(c);
    return w;
  }
  // Calm, then churn over the middle 40% of the window, then calm again.
  // Rates give ~40 arrivals whatever the window length, and each churn
  // flow lives a tenth of the window on average, so most depart in it.
  const double arrivals_per_sec = 40.0 / (0.4 * c.measure.sec());
  w.scn.phases.resize(3);
  for (PhaseSpec& ph : w.scn.phases) ph.load = c.load;
  w.scn.phases[1].start = c.measure * 3 / 10;
  w.scn.phases[1].flow_arrivals_per_sec = arrivals_per_sec;
  w.scn.phases[1].flow_departures_per_sec = arrivals_per_sec / 10.0;
  w.scn.phases[2].start = c.measure * 7 / 10;
  return w;
}

// --- one repetition ------------------------------------------------------

struct Span {
  std::string name;
  std::string parent;
  double start_s = 0.0;  ///< seconds since process start
  double end_s = 0.0;
};

/// Fire-hook context. `serial` is set on serial runs only: the sharded
/// engine replays window fires at its barrier merge, where the wall clock
/// and the pending count no longer match the fire.
struct FireTrace {
  struct Sample {
    Clock::time_point wall;
    std::int64_t sim_ps;
    std::size_t pending;
  };
  StreamHash hash;
  const Simulator* serial = nullptr;
  std::uint64_t fires = 0;
  std::vector<Sample> samples;

  static void on_fire(void* ctx, std::uint64_t seq, TimePoint t) {
    auto* tr = static_cast<FireTrace*>(ctx);
    tr->hash.mix(seq);
    tr->hash.mix(static_cast<std::uint64_t>(t.ps()));
    if (tr->serial != nullptr && (++tr->fires & 4095) == 0) {
      tr->samples.push_back({Clock::now(), t.ps(), tr->serial->events_pending()});
    }
  }
};

/// Timed-run fire hook: a wall-clock mark every kSliceEvents fires. The
/// simulation is deterministic, so slice i is the same work in every
/// repetition of a seed, and run.py can take each slice's fastest time
/// across repetitions. Costs one decrement per event.
struct SliceClock {
  static constexpr std::uint32_t kSliceEvents = 1u << 16;
  std::uint32_t left = kSliceEvents;
  std::vector<Clock::time_point> marks;

  static void on_fire(void* ctx, std::uint64_t /*seq*/, TimePoint /*t*/) {
    auto* s = static_cast<SliceClock*>(ctx);
    if (--s->left != 0) return;
    s->left = kSliceEvents;
    s->marks.push_back(Clock::now());
  }
};

/// Exact work counters, read through public accessors after the run.
struct Counters {
  std::uint64_t pkts_forwarded = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t order_errors = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t pkts_injected = 0;
  std::uint64_t pkts_delivered = 0;
  std::uint64_t windows = 0;
  std::uint64_t instants = 0;
  std::uint64_t cross_msgs = 0;
};

struct Repetition {
  double build_s = 0.0;
  double admit_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t static_admitted = 0;
  std::uint64_t static_rejected = 0;
  std::uint64_t allocs = 0;       ///< heap allocations inside run()
  std::int64_t live_bytes = 0;    ///< live heap after run(), platform alive
  std::uint32_t hosts = 0;
  ScenarioReport rep;
  Counters ctr;
  FireTrace trace;
  std::vector<double> slice_s;  ///< timed runs: wall seconds per slice
  std::vector<Span> spans;

  [[nodiscard]] double events_per_s() const {
    return static_cast<double>(rep.total.events_processed) / run_s;
  }
};

void execute(const Workload& w, bool traced, Repetition& r) {
  const Clock::time_point t0 = Clock::now();
  NetworkSimulator net(w.cfg);
  const Clock::time_point t1 = Clock::now();
  // What RunController::run() would do first (begin_run); timed on its own
  // because it is where static admission happens.
  net.prepare_workload();
  const Clock::time_point t2 = Clock::now();
  r.build_s = seconds(t1 - t0);
  r.admit_s = seconds(t2 - t1);
  r.static_admitted = net.admission().admitted_flows();
  r.static_rejected = net.admission().rejected_flows();
  r.hosts = net.num_hosts();

  ShardExecutor* engine = net.shard_engine();
  SliceClock slices;
  Callback<void(std::uint64_t, TimePoint)> hook{&SliceClock::on_fire, &slices};
  if (traced) {
    hook = {&FireTrace::on_fire, &r.trace};
    if (engine == nullptr) {
      r.trace.serial = &net.sim();
      r.trace.samples.reserve(1u << 16);
    }
  } else {
    slices.marks.reserve(1u << 12);
  }
  if (engine != nullptr) {
    engine->set_fire_hook(hook);
  } else {
    net.sim().set_fire_hook(hook);
  }

  RunController rc(net, w.scn);
  const std::uint64_t allocs0 = bench::g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = bench::process_cpu_s();
  const Clock::time_point t3 = Clock::now();
  r.rep = rc.run();
  const Clock::time_point t4 = Clock::now();
  r.cpu_s = bench::process_cpu_s() - cpu0;
  r.run_s = seconds(t4 - t3);
  r.allocs = bench::g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.live_bytes = bench::g_live_bytes.load(std::memory_order_relaxed);
  if (!traced) {
    slices.marks.push_back(t4);
    Clock::time_point prev = t3;
    for (const Clock::time_point m : slices.marks) {
      r.slice_s.push_back(seconds(m - prev));
      prev = m;
    }
  }

  r.spans = {{"setup", "", since_start(t0), since_start(t2)},
             {"setup.build", "setup", since_start(t0), since_start(t1)},
             {"setup.admit", "setup", since_start(t1), since_start(t2)},
             {"run", "", since_start(t3), since_start(t4)}};

  Counters& k = r.ctr;
  for (std::uint32_t i = 0; i < net.num_switches(); ++i) {
    const Switch& sw_i = net.fabric_switch(i);
    for (const std::uint64_t n : sw_i.counters().packets_forwarded) {
      k.pkts_forwarded += n;
    }
    k.credit_stalls += sw_i.counters().credit_stalls;
    k.order_errors += sw_i.order_errors();
    k.takeovers += sw_i.takeovers();
  }
  for (std::uint32_t i = 0; i < net.num_hosts(); ++i) {
    k.pkts_injected += net.host(i).packets_injected();
    k.pkts_delivered += net.host(i).packets_received();
  }
  if (engine != nullptr) {
    k.windows = engine->windows_run();
    k.instants = engine->instants_run();
    k.cross_msgs = engine->cross_messages();
  }
}

/// Child spans of `run` (warmup, each scenario phase, drain), located by
/// the first fire sample at or past each simulated boundary.
void add_phase_spans(const Workload& w, Repetition& r) {
  const auto& samples = r.trace.samples;
  if (samples.empty()) return;
  const Span run = r.spans.back();
  const std::int64_t window = w.cfg.warmup.ps();
  std::vector<std::pair<std::string, std::int64_t>> starts = {{"run.warmup", 0}};
  for (std::size_t i = 0; i < w.scn.phases.size(); ++i) {
    starts.emplace_back("run.phase" + std::to_string(i),
                        window + w.scn.phases[i].start.ps());
  }
  starts.emplace_back("run.drain", window + w.cfg.measure.ps());
  auto wall_at = [&](std::int64_t sim_ps) {
    for (const FireTrace::Sample& s : samples) {
      if (s.sim_ps >= sim_ps) return since_start(s.wall);
    }
    return run.end_s;
  };
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const double begin = i == 0 ? run.start_s : wall_at(starts[i].second);
    const double end =
        i + 1 < starts.size() ? wall_at(starts[i + 1].second) : run.end_s;
    r.spans.push_back({starts[i].first, "run", begin, end});
  }
}

/// Runs that violate the model's invariants; empty when the run is sound.
std::vector<std::string> failures(const Workload& w, const Repetition& r) {
  std::vector<std::string> out;
  if (r.rep.total.out_of_order > 0) out.emplace_back("out_of_order");
  if (r.rep.total.fault.watchdog_fired) out.emplace_back("watchdog");
  if ((w.scn.multi_phase() || w.scn.has_churn()) &&
      r.rep.reserved_bps_after_teardown != 0.0) {
    out.emplace_back("reserved_after_teardown");
  }
  if (r.rep.total.events_processed == 0 || r.ctr.pkts_delivered == 0) {
    out.emplace_back("no_work");
  }
  return out;
}

// --- host speed ------------------------------------------------------------

/// The loop's fastest slice on an idle core of the baseline machine
/// (README.md, Baseline).
constexpr double kNominalSliceS = 0.947e-3;
volatile std::uint64_t g_speed_sink = 0;

/// How much of a core this process gets right now, relative to the
/// baseline machine idle: a dependent xorshift chain with a data-dependent
/// branch, register-resident so it sees clock rate and core sharing but no
/// simulator code and no memory. Best of 16 slices of ~1 ms.
double core_speed() {
  std::uint64_t x = 12345;
  std::uint64_t acc = 0;
  double best = 1.0;
  for (int slice = 0; slice < 16; ++slice) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < 400000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = (x & 1) != 0 ? acc + (x >> 3) : acc ^ x;
    }
    best = std::min(best, seconds(Clock::now() - t0));
  }
  g_speed_sink = acc;
  return kNominalSliceS / best;
}

// --- calendar replay -------------------------------------------------------

/// Brown's hold model on a bare Simulator: a constant population of
/// `pending` trivial events, each rescheduling itself at now + Exp(mean =
/// pending * gap), so the calendar sees the workload's population and
/// fire rate with no model work attached. Returns host ns per fired event
/// (median of three timed passes).
double calendar_ns_per_event(std::size_t pending, double gap_ps,
                             std::uint64_t seed) {
  struct Hold {
    Simulator sim;
    std::vector<std::int64_t> incr;
    std::size_t next = 0;

    void schedule() {
      const std::int64_t d = incr[next++ & (incr.size() - 1)];
      sim.schedule_at(sim.now() + Duration::picoseconds(d),
                      [this] { schedule(); });
    }
  };
  constexpr std::uint64_t kTimedFires = 1u << 20;
  Hold h;
  h.incr.resize(1u << 16);
  Rng rng(seed);
  const double mean_ps = static_cast<double>(pending) * gap_ps;
  for (std::int64_t& d : h.incr) {
    d = static_cast<std::int64_t>(-std::log(rng.uniform_pos()) * mean_ps);
  }
  for (std::size_t i = 0; i < pending; ++i) h.schedule();
  auto run_fires = [&](std::uint64_t n) {
    const TimePoint limit =
        h.sim.now() + Duration::picoseconds(static_cast<std::int64_t>(
                          static_cast<double>(n) * gap_ps));
    const std::uint64_t f0 = h.sim.events_processed();
    const Clock::time_point t0 = Clock::now();
    while (h.sim.drain_due(limit)) {
    }
    const double s = seconds(Clock::now() - t0);
    return s * 1e9 / static_cast<double>(h.sim.events_processed() - f0);
  };
  run_fires(kTimedFires / 4);  // warm: ring sized, width estimated
  double ns[3];
  for (double& v : ns) v = run_fires(kTimedFires);
  std::sort(std::begin(ns), std::end(ns));
  return ns[1];
}

// --- output ----------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string layers_json(const Workload& w, const Repetition& r,
                        const Repetition* twin, std::uint64_t seed) {
  // The calendar population comes from a serial run: this one, or the
  // sharded workload's serial twin.
  const Repetition& serial = twin != nullptr ? *twin : r;
  double pending_sum = 0.0;
  std::size_t pending_max = 0;
  for (const FireTrace::Sample& s : serial.trace.samples) {
    pending_sum += static_cast<double>(s.pending);
    pending_max = std::max(pending_max, s.pending);
  }
  const std::size_t n = serial.trace.samples.size();
  const double pending_mean = n > 0 ? pending_sum / static_cast<double>(n) : 0.0;
  const auto events = static_cast<double>(r.rep.total.events_processed);
  const double sim_ps =
      static_cast<double>((w.cfg.warmup + w.cfg.measure + w.cfg.drain).ps());
  const double cal_ns = calendar_ns_per_event(
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(pending_mean))),
      sim_ps / events, seed);

  std::uint64_t churn_in = 0;
  std::uint64_t churn_rej = 0;
  std::uint64_t churn_out = 0;
  for (const PhaseReport& ph : r.rep.phases) {
    churn_in += ph.churn_arrivals;
    churn_rej += ph.churn_rejected;
    churn_out += ph.churn_departures;
  }
  const Counters& k = r.ctr;
  const auto delivered = static_cast<double>(k.pkts_delivered);
  JsonWriter j;
  j.num("core.build_s", r.build_s)
      .num("qos.admit_s", r.admit_s)
      .count("qos.flows_admitted", r.static_admitted)
      .count("qos.flows_rejected", r.static_rejected)
      .num("qos.admit_us_per_flow",
           ratio(r.admit_s * 1e6, static_cast<double>(r.static_admitted)))
      .count("qos.churn_admitted", churn_in)
      .count("qos.churn_rejected", churn_rej)
      .count("qos.churn_departed", churn_out)
      .count("sim.events", r.rep.total.events_processed)
      .num("sim.events_per_pkt", ratio(events, delivered))
      .num("sim.pending_mean", pending_mean)
      .count("sim.pending_max", pending_max)
      .num("sim.calendar_ns_per_event", cal_ns)
      .num("sim.calendar_share", cal_ns * 1e-9 * r.events_per_s())
      .count("engine.windows", k.windows)
      .count("engine.instants", k.instants)
      .count("engine.cross_msgs", k.cross_msgs)
      .num("engine.events_per_window",
           ratio(events, static_cast<double>(k.windows)))
      .num("engine.speedup",
           twin != nullptr ? ratio(r.events_per_s(), twin->events_per_s()) : 1.0)
      .num("engine.cpu_per_wall", ratio(r.cpu_s, r.run_s))
      .count("switch.pkts_forwarded", k.pkts_forwarded)
      .num("switch.hops_per_pkt",
           ratio(static_cast<double>(k.pkts_forwarded), delivered))
      .count("switch.credit_stalls", k.credit_stalls)
      .count("switch.order_errors", k.order_errors)
      .count("switch.takeovers", k.takeovers)
      .num("link.fabric_util", r.rep.total.util_fabric.mean)
      .count("host.pkts_injected", k.pkts_injected)
      .count("host.pkts_delivered", k.pkts_delivered)
      .num("host.flows_per_host",
           ratio(static_cast<double>(r.static_admitted), r.hosts))
      .num("mem.allocs_per_event", ratio(static_cast<double>(r.allocs), events))
      .num("mem.live_bytes_per_host",
           ratio(static_cast<double>(r.live_bytes), r.hosts));
  return j.done();
}

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  return out + "]";
}

/// Writes the spans with their self time: duration minus what their
/// direct children cover.
void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans) {
  std::vector<std::string> items;
  for (const Span& s : spans) {
    double self = s.end_s - s.start_s;
    for (const Span& c : spans) {
      if (c.parent == s.name) self -= c.end_s - c.start_s;
    }
    items.push_back(JsonWriter()
                        .str("name", s.name)
                        .str("parent", s.parent)
                        .num("start_s", s.start_s)
                        .num("end_s", s.end_s)
                        .num("self_s", self)
                        .done());
  }
  const std::string out = JsonWriter()
                              .str("workload", workload)
                              .count("seed", seed)
                              .raw("spans", json_strings(items))
                              .done();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  const bool ok = std::fputs(out.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("write to " + path + " failed");
  }
}

int run_main(int argc, char** argv) {
  const std::string name = bench::arg_value(argc, argv, "workload", "");
  const std::uint64_t seed =
      std::stoull(bench::arg_value(argc, argv, "seed", "1"));
  const bool traced = has_flag(argc, argv, "--trace");
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string trace_out = bench::arg_value(argc, argv, "trace-out", "");
  const Workload w = make_workload(name, seed, smoke);

  // Host speed is probed on either side of the repetition, never while the
  // simulator (or its worker threads) exists.
  const double speed_before = core_speed();
  Repetition r;
  execute(w, traced, r);
  const double speed = std::max(speed_before, core_speed());
  std::vector<std::string> fails = failures(w, r);

  JsonWriter j;
  j.str("workload", name)
      .count("seed", seed)
      .boolean("traced", traced)
      .boolean("smoke", smoke)
      .count("events", r.rep.total.events_processed)
      .str("report_hash", hex(report_hash(r.rep.total)))
      .num("build_s", r.build_s)
      .num("admit_s", r.admit_s)
      .num("setup_s", r.build_s + r.admit_s)
      .num("run_s", r.run_s)
      .num("cpu_s", r.cpu_s)
      .num("events_per_s", r.events_per_s())
      .num("peak_rss_mb", bench::peak_rss_mb())
      .num("core_speed", speed);
  if (!traced) {
    std::vector<std::string> slices;
    for (const double d : r.slice_s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9g", d);
      slices.emplace_back(buf);
    }
    j.raw("slice_s", json_strings(slices));
  } else {
    j.str("fire_hash", hex(r.trace.hash.value()));
    add_phase_spans(w, r);
    std::vector<Span> spans = r.spans;
    Repetition twin;
    const bool sharded = r.ctr.windows + r.ctr.instants > 0;
    if (sharded) {
      Workload serial = w;
      serial.cfg.shards = 1;
      execute(serial, true, twin);
      add_phase_spans(serial, twin);
      j.str("twin_fire_hash", hex(twin.trace.hash.value()));
      if (twin.trace.hash.value() != r.trace.hash.value() ||
          report_hash(twin.rep.total) != report_hash(r.rep.total)) {
        fails.emplace_back("twin_mismatch");
      }
      for (Span s : twin.spans) {
        s.name = "twin." + s.name;
        s.parent = s.parent.empty() ? "" : "twin." + s.parent;
        spans.push_back(std::move(s));
      }
    }
    j.raw("layers", layers_json(w, r, sharded ? &twin : nullptr, seed));
    if (!trace_out.empty()) write_trace(trace_out, name, seed, spans);
  }
  for (std::string& f : fails) f = "\"" + f + "\"";
  j.raw("failures", json_strings(fails));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dqos_bench: %s\n", e.what());
    return 1;
  }
}
