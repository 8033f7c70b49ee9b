#include "core/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "core/run_controller.hpp"
#include "core/sweep_runner.hpp"
#include "util/contracts.hpp"

namespace dqos {

namespace {

/// How many OS threads one replica of `cfg` occupies: a sharded simulator
/// with worker threads is `shards` wide, everything else is 1.
unsigned replica_width(const SimConfig& cfg) {
  if (cfg.shards <= 1 || cfg.shard_threads == 0) return 1;
  if (cfg.shard_threads == -1 && std::thread::hardware_concurrency() <= 1) {
    return 1;  // auto mode picks the inline drain on a single-core box
  }
  return cfg.shards;
}

}  // namespace

std::vector<SweepPoint> run_sweep(const SimConfig& base,
                                  std::span<const SwitchArch> archs,
                                  std::span<const double> loads,
                                  const std::function<void(SimConfig&)>& tweak,
                                  const Scenario* scenario, unsigned threads) {
  // Build every point's config on this thread, in serial-loop order; the
  // tweak callback therefore never runs concurrently and per-point seeds
  // are fixed before any replica starts.
  std::vector<SimConfig> cfgs;
  std::vector<Scenario> scns;
  cfgs.reserve(archs.size() * loads.size());
  scns.reserve(archs.size() * loads.size());
  for (const SwitchArch arch : archs) {
    for (const double load : loads) {
      SimConfig cfg = base;
      cfg.arch = arch;
      cfg.load = load;
      if (tweak) tweak(cfg);
      if (scenario) {
        // Validate every scaled scenario serially so a bad phase load
        // surfaces as one RunError here, not a race of worker failures.
        Scenario scn = scenario->scaled(load);
        const std::string problem = scn.check(cfg);
        if (!problem.empty()) throw RunError("scenario error: " + problem);
        scns.push_back(std::move(scn));
      } else {
        scns.push_back(Scenario::single_phase(cfg));
      }
      cfgs.push_back(std::move(cfg));
    }
  }

  // Fan out: one independent single-threaded replica per point, collected
  // by index so the result order (and every downstream table/CSV byte)
  // matches the serial loop exactly.
  std::vector<SweepPoint> points(cfgs.size());
  unsigned width = 1;
  for (const SimConfig& cfg : cfgs) width = std::max(width, replica_width(cfg));
  SweepRunner runner(threads, width);
  runner.run(cfgs.size(), [&](std::size_t i) {
    NetworkSimulator net(cfgs[i]);
    SimReport rep = RunController(net, scns[i]).run().total;
    char line[160];
    std::snprintf(line, sizeof line, "  [run] %-17s load=%.2f done (%llu pkts, %llu events)",
                  std::string(to_string(cfgs[i].arch)).c_str(), cfgs[i].load,
                  static_cast<unsigned long long>(rep.packets_delivered),
                  static_cast<unsigned long long>(rep.events_processed));
    runner.log(line);
    points[i] = SweepPoint{cfgs[i].arch, cfgs[i].load, std::move(rep)};
  });
  return points;
}

void print_series(std::FILE* out, const std::vector<SweepPoint>& points,
                  const std::string& title, const std::string& unit,
                  const MetricFn& metric, int precision,
                  const std::string& csv_path) {
  DQOS_EXPECTS(!points.empty());
  // Distinct architectures / loads, in first-seen order.
  std::vector<SwitchArch> archs;
  std::vector<double> loads;
  for (const auto& p : points) {
    if (std::find(archs.begin(), archs.end(), p.arch) == archs.end()) {
      archs.push_back(p.arch);
    }
    if (std::find(loads.begin(), loads.end(), p.load) == loads.end()) {
      loads.push_back(p.load);
    }
  }
  std::vector<std::string> header{"load"};
  for (const SwitchArch a : archs) header.emplace_back(to_string(a));
  TableWriter table(header);
  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty()) csv.row(header);

  auto value_at = [&](SwitchArch a, double l) -> double {
    for (const auto& p : points) {
      if (p.arch == a && p.load == l) return metric(p.report);
    }
    return 0.0;
  };
  for (const double l : loads) {
    std::vector<std::string> row{TableWriter::num(l, 2)};
    for (const SwitchArch a : archs) {
      row.push_back(TableWriter::num(value_at(a, l), precision));
    }
    if (!csv_path.empty()) csv.row(row);
    table.row(std::move(row));
  }
  std::fprintf(out, "\n%s [%s]\n", title.c_str(), unit.c_str());
  table.print(out);
}

void print_cdf(std::FILE* out, const SampleSet& samples, const std::string& title,
               std::size_t points, const std::string& csv_path) {
  std::fprintf(out, "\n%s (n=%llu, mean=%.1f, max=%.1f)\n", title.c_str(),
               static_cast<unsigned long long>(samples.count()), samples.mean(),
               samples.max());
  if (samples.count() == 0) return;
  TableWriter table({"latency", "P[X<=x]"});
  CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path);
  if (!csv_path.empty()) csv.row({"latency", "cdf"});
  for (const auto& [x, p] : samples.cdf_curve(points)) {
    table.row({TableWriter::num(x, 1), TableWriter::num(p, 4)});
    if (!csv_path.empty()) csv.row({TableWriter::num(x, 4), TableWriter::num(p, 6)});
  }
  table.print(out);
}

double control_latency_us(const SimReport& r) {
  return r.of(TrafficClass::kControl).avg_packet_latency_us;
}

double control_throughput_frac(const SimReport& r) {
  const auto& c = r.of(TrafficClass::kControl);
  return c.offered_bytes_per_sec > 0.0
             ? c.throughput_bytes_per_sec / c.offered_bytes_per_sec
             : 0.0;
}

double video_frame_latency_ms(const SimReport& r) {
  return r.of(TrafficClass::kMultimedia).avg_message_latency_us / 1000.0;
}

double best_effort_throughput_frac(const SimReport& r) {
  const auto& c = r.of(TrafficClass::kBestEffort);
  return c.offered_bytes_per_sec > 0.0
             ? c.throughput_bytes_per_sec / c.offered_bytes_per_sec
             : 0.0;
}

double background_throughput_frac(const SimReport& r) {
  const auto& c = r.of(TrafficClass::kBackground);
  return c.offered_bytes_per_sec > 0.0
             ? c.throughput_bytes_per_sec / c.offered_bytes_per_sec
             : 0.0;
}

bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace dqos
