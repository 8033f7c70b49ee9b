/// \file bench_perf.cpp
/// Perf trajectories **K1**, **D1**, **P1** and **SC1** (EXPERIMENTS.md):
/// one table of points, one runner, one JSON section schema.
///
///   point                 | what it measures
///   ----------------------|-------------------------------------------------
///   kernel_storm          | K1: the event kernel alone — a raw Simulator
///                         | with 512 self-rescheduling timers and a 25%
///                         | cancel/re-arm churn, no network
///   mesh16_simple         | D1: saturated 4x4 mesh, FIFO + EDF arbitration
///   mesh16_advanced       | D1: same, take-over L/U queues (also K1's
///                         | full-platform point)
///   mesh16_heap           | D1: same, ideal heap buffers
///   shards_{1,2,4,8}      | P1: saturated 8x8 mesh at 1/2/4/8 event
///                         | calendars, worker threads on auto
///   hosts_{128,512,1024}  | SC1: three-phase churn on the k-ary n-tree
///                         | with that many hosts, hierarchical admission,
///                         | fanout 8, 4 shards
///
/// A network point is built and prepared (prepare_workload: sources and
/// static admission) untimed, reported as `setup_s`; then
/// RunController::run is timed. Points run in interleaved rounds — every
/// round runs every selected point in table order, and each section keeps
/// its best-events/s round — so a frequency ramp or a noisy neighbour
/// lands on the whole set, not on one point. Three rounds, one with
/// --quick.
///
/// Every section has the same keys: events, wall_s, setup_s,
/// events_per_sec, allocs, allocs_per_event, live_bytes, hosts,
/// bytes_per_host. `allocs` counts heap allocations inside the timed call;
/// `live_bytes` is the heap the point holds at the end of its run, with
/// the simulation still constructed.
///
/// SC1 acceptance gate: whenever hosts_128 and hosts_1024 both run,
/// bytes/host at 1024 hosts must be at most 2x bytes/host at 128, and both
/// must report live bytes (zero means the allocator hook measured
/// nothing); otherwise the program exits 1.
///
///   bench_perf [--sections=a,b,c] [--quick] [--json=PATH]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_controller.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace {

using namespace dqos;
using namespace dqos::literals;
using dqos::bench::Clock;

struct Point {
  std::string name;
  SimConfig cfg;
  Scenario scn;
  std::uint64_t storm_fires = 0;  ///< nonzero only for the raw-kernel point
};

struct Measurement {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t live_bytes = 0;
  std::uint32_t hosts = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
  [[nodiscard]] double bytes_per_host() const {
    return hosts > 0 ? static_cast<double>(live_bytes) / hosts : 0.0;
  }
};

SimConfig saturated_mesh(std::uint32_t side, SwitchArch arch) {
  SimConfig c;
  c.topology = TopologyKind::kMesh2D;
  c.mesh_width = side;
  c.mesh_height = side;
  c.mesh_concentration = 1;
  c.arch = arch;
  c.load = 1.0;  // the datapath or engine, not the sources, is the limit
  c.seed = 1;
  return c;
}

std::vector<Point> point_table(bool quick) {
  std::vector<Point> pts;
  pts.push_back({"kernel_storm", {}, {}, quick ? 500'000u : 5'000'000u});

  const std::pair<const char*, SwitchArch> schemes[] = {
      {"mesh16_simple", SwitchArch::kSimple2Vc},
      {"mesh16_advanced", SwitchArch::kAdvanced2Vc},
      {"mesh16_heap", SwitchArch::kIdeal}};
  for (const auto& [name, arch] : schemes) {
    SimConfig c = saturated_mesh(4, arch);
    c.warmup = 1_ms;
    c.measure = quick ? 2_ms : 10_ms;
    c.drain = 2_ms;
    pts.push_back({name, c, Scenario::single_phase(c)});
  }

  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SimConfig c = saturated_mesh(8, SwitchArch::kSimple2Vc);  // mesh64.cfg
    c.warmup = 1_ms;
    c.measure = quick ? 1_ms : 5_ms;
    c.drain = 1_ms;
    c.shards = shards;
    c.shard_threads = -1;  // auto: workers on multi-core, inline on one core
    pts.push_back({"shards_" + std::to_string(shards), c,
                   Scenario::single_phase(c)});
  }

  // The k-ary n-trees that hit each host count exactly.
  struct Tree {
    std::uint32_t hosts, k, n;
  };
  for (const Tree t : {Tree{128, 2, 7}, Tree{512, 8, 3}, Tree{1024, 4, 5}}) {
    SimConfig c;
    c.topology = TopologyKind::kKaryNTree;
    c.kary_k = t.k;
    c.kary_n = t.n;
    c.arch = SwitchArch::kSimple2Vc;
    c.load = 0.2;  // a memory curve, not saturation: keep runtimes sane
    c.fanout = 8;
    c.hier_admission = true;
    c.shards = 4;
    c.shard_threads = -1;
    c.warmup = 200_us;
    c.measure = quick ? 1_ms : 2_ms;
    c.drain = 500_us;
    c.seed = 1;
    // Calm, then an arrival/departure burst (~tens of churn flows), calm.
    Scenario s;
    s.phases.resize(3);
    for (PhaseSpec& ph : s.phases) ph.load = c.load;
    s.phases[1].start = quick ? 300_us : 500_us;
    s.phases[1].flow_arrivals_per_sec = 40000.0;
    s.phases[1].flow_departures_per_sec = 4000.0;
    s.phases[2].start = quick ? 700_us : 1500_us;
    pts.push_back({"hosts_" + std::to_string(t.hosts), c, s});
  }
  return pts;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t allocs_now() {
  return bench::g_allocs.load(std::memory_order_relaxed);
}

std::int64_t live_now() {
  return bench::g_live_bytes.load(std::memory_order_relaxed);
}

/// Live heap gained since `live0`.
std::uint64_t live_since(std::int64_t live0) {
  const std::int64_t d = live_now() - live0;
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

// --- kernel_storm ------------------------------------------------------------

/// Shared mutable state of the storm (kept outside the closures so each
/// closure is a small trivially-movable object, like the real hot-path
/// lambdas `[this, vc, bytes]`).
struct StormState {
  Simulator* sim = nullptr;
  Rng rng{42};
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
  std::vector<EventId> timers;  ///< one pending wake-up per storm slot
};

/// A self-rescheduling timer: fires, re-arms itself, and occasionally
/// cancels + re-arms a random other slot (the Host::schedule_eligible_wakeup
/// pattern). 24 bytes of captures: heap-allocated by std::function's 16-byte
/// SBO, inline in a >=48-byte small-buffer task.
struct Tick {
  StormState* st;
  std::uint32_t slot;
  void operator()() const {
    StormState& s = *st;
    ++s.fired;
    if (s.fired >= s.budget) return;  // let the calendar drain
    const auto delay = Duration::picoseconds(
        static_cast<std::int64_t>(s.rng.uniform_int(1, 5000)));
    s.timers[slot] = s.sim->schedule_after(delay, Tick{st, slot});
    if (s.rng.chance(0.25)) {
      const auto victim =
          static_cast<std::uint32_t>(s.rng.uniform_int(0, s.timers.size() - 1));
      s.sim->cancel(s.timers[victim]);
      const auto redelay = Duration::picoseconds(
          static_cast<std::int64_t>(s.rng.uniform_int(1, 5000)));
      s.timers[victim] = s.sim->schedule_after(redelay, Tick{st, victim});
    }
  }
};

/// Setup is the timer population plus a warm-up tenth of the budget, which
/// sizes the allocator and calendar before the timed drain.
Measurement run_storm(std::uint64_t budget) {
  const std::int64_t live0 = live_now();
  const Clock::time_point t0 = Clock::now();
  Simulator sim;
  StormState st;
  st.sim = &sim;
  st.budget = budget;
  const std::uint32_t kSlots = 512;
  st.timers.resize(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    st.timers[i] = sim.schedule_after(
        Duration::picoseconds(static_cast<std::int64_t>(i) + 1), Tick{&st, i});
  }
  while (st.fired < budget / 10 && sim.step()) {
  }
  Measurement m;
  m.setup_s = seconds_since(t0);
  const std::uint64_t allocs0 = allocs_now();
  const std::uint64_t fired0 = sim.events_processed();
  const Clock::time_point t1 = Clock::now();
  sim.run();
  m.wall_s = seconds_since(t1);
  m.events = sim.events_processed() - fired0;
  m.allocs = allocs_now() - allocs0;
  m.live_bytes = live_since(live0);
  return m;
}

// --- the runner --------------------------------------------------------------

Measurement measure(const Point& p) {
  if (p.storm_fires > 0) return run_storm(p.storm_fires);
  const std::int64_t live0 = live_now();
  const Clock::time_point t0 = Clock::now();
  NetworkSimulator net(p.cfg);
  net.prepare_workload();  // what RunController::run would do first
  Measurement m;
  m.setup_s = seconds_since(t0);
  m.hosts = net.num_hosts();
  RunController controller(net, p.scn);
  const std::uint64_t allocs0 = allocs_now();
  const Clock::time_point t1 = Clock::now();
  const ScenarioReport rep = controller.run();
  m.wall_s = seconds_since(t1);
  m.events = rep.total.events_processed;
  m.allocs = allocs_now() - allocs0;
  m.live_bytes = live_since(live0);
  return m;
}

std::string section_json(const Measurement& m) {
  return bench::JsonWriter()
      .count("events", m.events)
      .num("wall_s", m.wall_s)
      .num("setup_s", m.setup_s)
      .num("events_per_sec", m.events_per_sec())
      .count("allocs", m.allocs)
      .num("allocs_per_event", m.allocs_per_event())
      .count("live_bytes", m.live_bytes)
      .count("hosts", m.hosts)
      .num("bytes_per_host", m.bytes_per_host())
      .done();
}

std::size_t index_of(const std::vector<Point>& pts, const std::string& name) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].name == name) return i;
  }
  return pts.size();
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = has_flag(argc, argv, "--quick");
  const std::string json_path = bench::arg_value(argc, argv, "json", "");
  const std::string sections = bench::arg_value(argc, argv, "sections", "");
  const std::vector<Point> pts = point_table(quick);

  std::vector<bool> chosen(pts.size(), sections.empty());
  for (std::size_t b = 0; b <= sections.size();) {
    const std::size_t e = std::min(sections.find(',', b), sections.size());
    const std::string name = sections.substr(b, e - b);
    b = e + 1;
    if (name.empty()) continue;
    const std::size_t i = index_of(pts, name);
    if (i == pts.size()) {
      std::string known;
      for (const Point& p : pts) known += " " + p.name;
      std::fprintf(stderr, "bench_perf: unknown section '%s' (known:%s)\n",
                   name.c_str(), known.c_str());
      return 2;
    }
    chosen[i] = true;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("=== bench_perf: K1/D1/P1/SC1 perf trajectories%s, %u hardware "
              "threads ===\n",
              quick ? " (quick)" : "", cores);
  const int rounds = quick ? 1 : 3;
  std::vector<Measurement> best(pts.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (!chosen[i]) continue;
      const Measurement m = measure(pts[i]);
      if (m.events_per_sec() > best[i].events_per_sec()) best[i] = m;
    }
  }

  bench::JsonWriter doc;
  doc.str("bench", "bench_perf")
      .boolean("quick", quick)
      .count("hardware_threads", cores);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!chosen[i]) continue;
    const Measurement& m = best[i];
    std::printf("  %-16s %10llu events  %7.3f s  %6.3f s setup  %11.0f events/s"
                "  %7.4f allocs/event  %9.0f bytes/host\n",
                pts[i].name.c_str(), static_cast<unsigned long long>(m.events),
                m.wall_s, m.setup_s, m.events_per_sec(), m.allocs_per_event(),
                m.bytes_per_host());
    doc.raw(pts[i].name.c_str(), section_json(m));
  }

  int status = 0;
  const std::size_t lo = index_of(pts, "hosts_128");
  const std::size_t hi = index_of(pts, "hosts_1024");
  if (chosen[lo] && chosen[hi]) {
    if (best[lo].live_bytes == 0 || best[hi].live_bytes == 0) {
      std::fprintf(stderr,
                   "bench_perf: FAIL — an SC1 gate endpoint reports 0 live"
                   " bytes, so the bytes/host gate measured nothing\n");
      status = 1;
    } else {
      const double ratio =
          best[hi].bytes_per_host() / best[lo].bytes_per_host();
      std::printf("  bytes/host 1024 vs 128: %.3fx (gate: <= 2.0x)\n", ratio);
      doc.num("bytes_per_host_ratio_1024_vs_128", ratio);
      if (ratio > 2.0) {
        std::fprintf(stderr, "bench_perf: FAIL — bytes/host grew %.3fx from 128"
                             " to 1024 hosts (acceptance gate: <= 2x)\n",
                     ratio);
        status = 1;
      }
    }
  }

  if (!json_path.empty()) {
    if (!write_file(json_path, doc.done() + "\n")) {
      std::fprintf(stderr, "bench_perf: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json: %s\n", json_path.c_str());
  }
  return status;
}
