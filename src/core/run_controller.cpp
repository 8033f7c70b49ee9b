#include "core/run_controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"

namespace dqos {

RunController::RunController(NetworkSimulator& net, Scenario scenario)
    : net_(net),
      scn_(std::move(scenario)),
      churn_rng_(Rng(net.config().seed).split(0x5ce7a810)),
      backoff_rng_(Rng(net.config().seed).split(0xbacc0ff5)) {
  const std::string problem = scn_.check(net_.config());
  if (!problem.empty()) throw RunError("scenario error: " + problem);
}

ScenarioReport RunController::run() {
  net_.begin_run();
  Simulator& sim = net_.sim();
  const SimConfig& cfg = net_.config();
  MetricsCollector& metrics = net_.metrics();

  t0_ = sim.now();
  window_start_ = t0_ + cfg.warmup;
  window_end_ = window_start_ + cfg.measure;
  const TimePoint horizon = window_end_ + cfg.drain;
  metrics.set_window(window_start_, window_end_);
  // Pre-size latency sample stores from the offered load so the
  // measurement phase never reallocates mid-run. Worst case each class
  // carries the whole offered load at the heaviest phase; SampleSet
  // clamps at its cap, so an over-estimate only wastes address space,
  // never memory commit. (For a one-phase scenario the peak is the
  // config load and this reproduces the legacy arithmetic bit-for-bit.)
  double peak_load = 0.0;
  double max_share = 0.0;
  std::vector<TimePoint> starts;
  for (const PhaseSpec& ph : scn_.phases) {
    peak_load = std::max(peak_load, ph.load);
    for (const double s : ph.class_share) max_share = std::max(max_share, s);
    starts.push_back(window_start_ + ph.start);
  }
  const double offered_bytes = static_cast<double>(cfg.num_hosts()) *
                               peak_load * cfg.link_bw.bytes_per_sec() *
                               cfg.measure.sec();
  const auto pkts = static_cast<std::size_t>(
      offered_bytes * max_share / static_cast<double>(cfg.mtu_bytes)) + 64;
  metrics.reserve_samples(pkts, pkts / 8 + 64);
  metrics.set_phase_starts(std::move(starts));

  net_.prepare_workload(scn_);
  net_.start_sources(window_end_);
  net_.arm_run_services(horizon);

  // Phase transitions ride the ordinary event calendar. A one-phase
  // scenario schedules none of these (and no churn below) — zero extra
  // events, which is what keeps the golden fire-order hashes intact.
  for (std::size_t i = 1; i < scn_.phases.size(); ++i) {
    transition_events_.push_back(sim.schedule_at(
        window_start_ + scn_.phases[i].start, [this, i] { enter_phase(i); }));
  }
  arrivals_.assign(scn_.phases.size(), 0);
  rejected_.assign(scn_.phases.size(), 0);
  departed_.assign(scn_.phases.size(), 0);
  arm_churn();
  if (cfg.admit_retry_max > 0) {
    // Flows the fault path sheds (no surviving feasible route) re-enter
    // through the same backoff queue as rejected churn arrivals.
    net_.fault_injector().set_flow_displaced(
        [this](const AdmissionController::Reroute& r) {
          if (r.rerouted) return;  // moved, not shed: nothing to re-admit
          schedule_retry(r.src, backoff_rng_.split(0xd15b00d5 + retry_seq_),
                         1);
        });
  }

  net_.run_calendar_until(horizon);

  ScenarioReport out;
  out.total = net_.collect_report(t0_);
  // The facade filled the host/source-derived degradation fields; the
  // backpressure counters live here.
  out.total.degradation.admit_retries = retries_;
  out.total.degradation.admit_retries_exhausted = retries_exhausted_;
  out.total.degradation.flows_readmitted = readmitted_;
  out.total.degradation.flows_shed_highwater = shed_flows_;
  out.phases.resize(scn_.phases.size());
  for (std::size_t i = 0; i < scn_.phases.size(); ++i) {
    PhaseReport& pr = out.phases[i];
    pr.index = i;
    pr.start = window_start_ + scn_.phases[i].start;
    pr.end = i + 1 < scn_.phases.size()
                 ? window_start_ + scn_.phases[i + 1].start
                 : window_end_;
    pr.load = scn_.phases[i].load;
    for (const TrafficClass c : all_traffic_classes()) {
      pr.classes[static_cast<std::size_t>(c)] = metrics.phase_report(i, c);
    }
    pr.churn_arrivals = arrivals_[i];
    pr.churn_rejected = rejected_[i];
    pr.churn_departures = departed_[i];
  }
  teardown();
  out.reserved_bps_after_teardown =
      net_.admission().total_reserved_bytes_per_sec();
  out.flows_released = flows_released_;
  return out;
}

void RunController::enter_phase(std::size_t idx) {
  DQOS_ASSERT(idx < scn_.phases.size());
  // Phase boundaries are natural audit points: the workload is about to
  // shift, so any conservation drift the old phase caused is pinned to it.
  if (InvariantAuditor* aud = net_.auditor()) {
    aud->audit_now("enter phase " + std::to_string(idx));
  }
  active_phase_ = idx;
  net_.apply_phase(scn_.phases[idx]);
  // Re-draw the churn clock at the new phase's arrival rate.
  if (churn_event_ != 0) {
    net_.sim().cancel(churn_event_);
    churn_event_ = 0;
  }
  arm_churn();
}

void RunController::arm_churn() {
  const double lambda = scn_.phases[active_phase_].flow_arrivals_per_sec;
  if (lambda <= 0.0) return;
  const double wait = -std::log(churn_rng_.uniform_pos()) / lambda;
  const TimePoint at = net_.sim().now() + Duration::from_seconds_double(wait);
  if (at >= window_end_) return;  // no churn into the drain
  churn_event_ = net_.sim().schedule_at(at, [this] {
    churn_event_ = 0;
    churn_arrival();
  });
}

void RunController::churn_arrival() {
  const auto src = static_cast<NodeId>(
      churn_rng_.uniform_int(0, net_.num_hosts() - 1));
  // Per-arrival stream: the flow's own draws (GOP phase, frame sizes) come
  // from a split, so the arrival process stays independent of flow internals.
  const Rng flow_rng = churn_rng_.split(0xc0ffee00ULL + arrival_seq_++);
  const auto flow = net_.open_video_flow(src, flow_rng, window_end_);
  if (flow.has_value()) {
    ++arrivals_[active_phase_];
    arm_departure(*flow, churn_rng_);
    shed_check();
  } else {
    ++rejected_[active_phase_];
    if (net_.config().admit_retry_max > 0) schedule_retry(src, flow_rng, 1);
  }
  arm_churn();
}

void RunController::arm_departure(FlowId id, Rng& stream) {
  const double mu = scn_.phases[active_phase_].flow_departures_per_sec;
  if (mu <= 0.0) return;
  const double life = -std::log(stream.uniform_pos()) / mu;
  const TimePoint at = net_.sim().now() + Duration::from_seconds_double(life);
  if (at >= window_end_) return;
  departure_events_.get_or_insert(id) = net_.sim().schedule_at(at, [this, id] {
    departure_events_.erase(id);
    ++departed_[active_phase_];
    net_.close_video_flow(id);
  });
}

void RunController::schedule_retry(NodeId src, Rng flow_rng,
                                   std::uint32_t attempt) {
  const SimConfig& cfg = net_.config();
  if (attempt > cfg.admit_retry_max) {
    ++retries_exhausted_;
    return;
  }
  // Exponential backoff with jitter in [0.5, 1.5): doubling spreads a
  // rejection storm out in time, the jitter keeps retriers that collided
  // once from re-colliding on the same calendar instant forever.
  const double scale = static_cast<double>(1ULL << (attempt - 1));
  const double jitter = 0.5 + backoff_rng_.uniform();
  const TimePoint at =
      net_.sim().now() + Duration::from_seconds_double(
                             cfg.admit_retry_backoff.sec() * scale * jitter);
  if (at >= window_end_) {  // never retry into the drain: give up instead
    ++retries_exhausted_;
    return;
  }
  const std::uint64_t token = retry_seq_++;
  retry_events_[token] =
      net_.sim().schedule_at(at, [this, token, src, flow_rng, attempt] {
        retry_events_.erase(token);
        retry_admission(src, flow_rng, attempt);
      });
}

void RunController::retry_admission(NodeId src, Rng flow_rng,
                                    std::uint32_t attempt) {
  ++retries_;
  const auto flow = net_.open_video_flow(src, flow_rng, window_end_);
  if (!flow.has_value()) {
    schedule_retry(src, flow_rng, attempt + 1);
    return;
  }
  ++readmitted_;
  ++arrivals_[active_phase_];
  // Lifetime from the backoff stream: a retry storm must not advance the
  // churn stream, or retry-free replays of the same seed would diverge.
  arm_departure(*flow, backoff_rng_);
  shed_check();
}

void RunController::shed_check() {
  const double highwater = net_.config().shed_highwater;
  if (highwater <= 0.0) return;
  for (const auto& r : net_.admission().shed_to_highwater(highwater)) {
    ++shed_flows_;
    if (const EventId* ev = departure_events_.find(r.flow)) {
      net_.sim().cancel(*ev);
      departure_events_.erase(r.flow);
    }
    net_.retire_shed_flow(r.flow, r.src);
    if (net_.config().admit_retry_max > 0) {
      // The shed flow queues for re-admission once load subsides.
      schedule_retry(r.src, backoff_rng_.split(0x5eed0000 + retry_seq_), 1);
    }
  }
}

void RunController::teardown() {
  // Belt and braces: every churn/transition event fires before window_end_
  // (< horizon), so these cancels are no-ops on a completed run — but they
  // make partial teardown safe if a future caller stops the clock early.
  Simulator& sim = net_.sim();
  if (churn_event_ != 0) {
    sim.cancel(churn_event_);
    churn_event_ = 0;
  }
  for (const EventId id : transition_events_) sim.cancel(id);
  transition_events_.clear();
  // Cancel in ascending FlowId order: cancellation mutates kernel state —
  // keep teardown replayable no matter what insertion order did.
  for (const FlowId flow : departure_events_.ids_ascending()) {
    sim.cancel(departure_events_.at(flow));
  }
  departure_events_.clear();
  // Copy-harvest then sort: cancellation order is insertion-independent.
  std::vector<std::pair<std::uint64_t, EventId>> retries(retry_events_.begin(),
                                                         retry_events_.end());
  std::sort(retries.begin(), retries.end());
  for (const auto& [token, ev] : retries) sim.cancel(ev);
  retry_events_.clear();

  flows_released_ += net_.close_remaining_churn_flows();
  if (scn_.multi_phase() || scn_.has_churn()) {
    // Scenario runs hand every remaining reservation back so the ledger
    // provably returns to zero. The legacy one-phase path skips this and
    // leaves admission state inspectable after run(), as it always was.
    for (const FlowId id : net_.admission().admitted_ids()) {
      net_.admission().release(id);
      ++flows_released_;
    }
  }
}

}  // namespace dqos
