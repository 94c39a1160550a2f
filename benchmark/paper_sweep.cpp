// paper_sweep: what regenerating the paper's figures costs a researcher.
//
// The ExperimentConfig points of fig05-fig10 and table1, built as those
// benches build them (but writing no files), run through run_experiment on
// a 4-thread runtime::ParallelRunner, round after round for the measurement
// budget. Four-node rigs make this dominated by per-run set-up and per-step
// fixed cost: a "fleet of one" collapse or a per-step overhead change shows
// here and nowhere else, while vectorized fleet kernels barely touch it.
//
// A serial warm-up round fixes every point's sim_digest; a measured point
// whose digest differs from it is a failure.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "digest.hpp"
#include "host.hpp"
#include "runtime/parallel_runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace thermbench {

namespace core = thermctl::core;
using thermctl::SimTime;

namespace {

constexpr std::size_t kThreads = 4;
constexpr int kRssRounds = 11;

std::vector<core::ExperimentConfig> paper_points(std::uint64_t seed) {
  using core::DvfsPolicyKind;
  using core::FanPolicyKind;
  using core::PolicyParam;
  using core::WorkloadKind;
  using thermctl::DutyCycle;
  using thermctl::Seconds;
  std::vector<core::ExperimentConfig> points;
  auto base = [seed](const std::string& name) {
    core::ExperimentConfig cfg = core::paper_platform();
    cfg.name = name;
    cfg.seed = seed;
    return cfg;
  };
  // Figure 5: dynamic fan under three cpu-burn instances, Pp 25/50/75, traced.
  for (int pp : {25, 50, 75}) {
    core::ExperimentConfig cfg = base("fig05_pp" + std::to_string(pp));
    cfg.nodes = 1;
    cfg.workload = WorkloadKind::kCpuBurnCycles;
    cfg.cpu_burn_duration = Seconds{300.0};
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.pp = PolicyParam{pp};
    cfg.telemetry.trace = true;
    cfg.telemetry.metrics = true;
    points.push_back(cfg);
  }
  // Figure 6: static curve vs dynamic vs constant 75 % on BT.B.4.
  for (FanPolicyKind fan :
       {FanPolicyKind::kStaticCurve, FanPolicyKind::kDynamic, FanPolicyKind::kConstantDuty}) {
    core::ExperimentConfig cfg = base("fig06");
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = fan;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{75.0};
    cfg.constant_duty = DutyCycle{75.0};
    points.push_back(cfg);
  }
  // Figure 7: fan ceiling sweep.
  for (int cap : {25, 50, 75, 100}) {
    core::ExperimentConfig cfg = base("fig07_cap" + std::to_string(cap));
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{static_cast<double>(cap)};
    points.push_back(cfg);
  }
  // Figure 8: tDVFS under the static fan curve, LU.B.4, with cool-down.
  {
    core::ExperimentConfig cfg = base("fig08");
    cfg.workload = WorkloadKind::kNpbLu;
    cfg.fan = FanPolicyKind::kStaticCurve;
    cfg.dvfs = DvfsPolicyKind::kTdvfs;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{25.0};
    cfg.engine.cooldown = Seconds{60.0};
    points.push_back(cfg);
  }
  // Figure 9: CPUSPEED vs tDVFS under the dynamic fan capped at 25 %.
  for (DvfsPolicyKind dvfs : {DvfsPolicyKind::kCpuspeed, DvfsPolicyKind::kTdvfs}) {
    core::ExperimentConfig cfg = base("fig09");
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.dvfs = dvfs;
    cfg.pp = PolicyParam{50};
    cfg.max_duty = DutyCycle{25.0};
    points.push_back(cfg);
  }
  // Figure 10: unified fan + tDVFS, shared Pp 25/50/75, traced.
  for (int pp : {25, 50, 75}) {
    core::ExperimentConfig cfg = base("fig10_pp" + std::to_string(pp));
    cfg.workload = WorkloadKind::kNpbBt;
    cfg.fan = FanPolicyKind::kDynamic;
    cfg.dvfs = DvfsPolicyKind::kTdvfs;
    cfg.pp = PolicyParam{pp};
    cfg.max_duty = DutyCycle{50.0};
    cfg.telemetry.trace = true;
    cfg.telemetry.metrics = true;
    points.push_back(cfg);
  }
  // Table 1: CPUSPEED and tDVFS at fan caps 75/50/25 %.
  for (int cap : {75, 50, 25}) {
    for (DvfsPolicyKind dvfs : {DvfsPolicyKind::kCpuspeed, DvfsPolicyKind::kTdvfs}) {
      core::ExperimentConfig cfg = base("table1");
      cfg.workload = WorkloadKind::kNpbBt;
      cfg.fan = FanPolicyKind::kDynamic;
      cfg.dvfs = dvfs;
      cfg.pp = PolicyParam{50};
      cfg.max_duty = DutyCycle{static_cast<double>(cap)};
      points.push_back(cfg);
    }
  }
  return points;
}

/// Host timestamps of one point's run, written only by the worker running
/// it (the on_rig_built hook and its step observer run on that thread).
struct PointProbe {
  Clock::time_point start;
  Clock::time_point built;
  Clock::time_point end;
  Clock::time_point last_step;
  std::vector<std::uint32_t> step_ns;
};

std::uint64_t point_digest(const core::ExperimentResult& r) {
  std::vector<std::uint64_t> events;
  for (const auto& e : r.fan_events) {
    events.push_back(e.size());
  }
  for (const auto& e : r.tdvfs_events) {
    events.push_back(e.size());
  }
  return sim_digest(r.run, events);
}

}  // namespace

Outcome run_paper_sweep(const Options& options, Report& report) {
  std::vector<core::ExperimentConfig> points = paper_points(options.seed);
  std::vector<PointProbe> probes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointProbe* probe = &probes[i];
    points[i].on_rig_built = [probe](const core::RigView& rig) {
      probe->built = Clock::now();
      probe->last_step = probe->built;
      rig.engine->add_periodic(rig.config->engine.physics_dt, [probe](SimTime) {
        const auto now = Clock::now();
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - probe->last_step).count();
        probe->step_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
        probe->last_step = now;
      });
    };
  }
  // The worker digests its point's result and frees it before taking the
  // next point, as a figure bench drops a result once written. Holding every
  // result until the round ends would make each worker's heap high-water
  // mark, and so peak_rss_mb, depend on which points the scheduler gave it.
  auto run_point = [&](std::size_t i) {
    PointProbe& probe = probes[i];
    probe.step_ns.clear();
    probe.start = Clock::now();
    const core::ExperimentResult r = core::run_experiment(points[i]);
    probe.end = Clock::now();
    return point_digest(r);
  };

  const std::function<std::uint64_t(std::size_t)> job = run_point;

  // Peak RSS of one 4-thread round, each in a fresh forked child, median over
  // the children. The process peak over a whole run is the largest overlap
  // of big points that the scheduler happened to produce across hundreds of
  // rounds; on a loaded host it read 27.3-31.3 MB over four runs. The
  // children fork first, while this process still has a single thread.
  std::vector<double> round_rss_mb;
  for (int k = 0; k < (options.smoke ? 1 : kRssRounds); ++k) {
    double rss_mb = -1.0;
    const bool ok = run_in_child<double>(rss_mb, [&points, &job] {
      thermctl::runtime::ParallelRunner round_runner{kThreads};
      (void)round_runner.map<std::uint64_t>(points.size(), job);
      return static_cast<double>(peak_rss_bytes()) / 1e6;
    });
    if (!ok || rss_mb <= 0.0) {
      throw std::runtime_error("paper_sweep: memory round child failed");
    }
    round_rss_mb.push_back(rss_mb);
  }

  std::vector<std::uint64_t> reference(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    reference[i] = run_point(i);
  }

  thermctl::runtime::ParallelRunner runner{kThreads};
  std::vector<double> round_ms, build_ms, run_ms, wait_ms;
  // Tens of millions of 4-node steps per run: a histogram, not a vector.
  NsHistogram steps;
  double measured_s = 0.0;
  double node_steps = 0.0;
  double busy_s = 0.0;
  Outcome outcome;
  const auto budget_start = Clock::now();
  do {
    const auto round_start = Clock::now();
    const std::vector<std::uint64_t> digests = runner.map<std::uint64_t>(points.size(), job);
    const double round_s = seconds_since(round_start);
    measured_s += round_s;
    round_ms.push_back(round_s * 1e3);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointProbe& p = probes[i];
      build_ms.push_back(seconds_between(p.start, p.built) * 1e3);
      run_ms.push_back(seconds_between(p.start, p.end) * 1e3);
      wait_ms.push_back(seconds_between(round_start, p.start) * 1e3);
      busy_s += seconds_between(p.start, p.end);
      node_steps += static_cast<double>(p.step_ns.size()) * static_cast<double>(points[i].nodes);
      for (std::uint32_t ns : p.step_ns) {
        steps.add(ns);
      }
      ++outcome.attempted;
      if (digests[i] != reference[i]) {
        ++outcome.failed;
        std::fprintf(stderr, "thermbench: point %zu (%s) digest %s != warm-up %s\n", i,
                     points[i].name.c_str(), hex(digests[i]).c_str(), hex(reference[i]).c_str());
      }
    }
  } while (!options.smoke && seconds_since(budget_start) < options.seconds);

  Fnv1a all;
  for (std::uint64_t d : reference) {
    all.u64(d);
  }
  std::printf("paper_sweep: %zu points x %zu rounds on %zu threads\n", points.size(),
              round_ms.size(), kThreads);
  std::printf("sim_digest=%s\n", hex(all.value()).c_str());

  const double points_run = static_cast<double>(outcome.attempted);
  report.set("node_steps_per_s", node_steps / measured_s, "1/s");
  report.set("setup_s", median(build_ms) / 1e3, "s");
  report.annotate("setup_s", "median point set-up, run_experiment entry to on_rig_built");
  const Tail step_tail = steps.tail_us();
  report.set("step_p50_us", steps.median_us(), "us");
  report.set("step_p99_us", step_tail.value, "us");
  report.annotate("step_p99_us", tail_note(step_tail, "steps"));
  report.set("peak_rss_mb", median(round_rss_mb), "MB");
  report.annotate("peak_rss_mb", "median of " + std::to_string(round_rss_mb.size()) +
                                     " one-round peaks, each in a fresh process");
  report.set("sweep_wall_ms", median(round_ms), "ms");
  report.annotate("sweep_wall_ms", "median of " + std::to_string(round_ms.size()) + " rounds");
  const Tail points_tail = tail(run_ms);
  report.set("req_p50_us", median(run_ms) * 1e3, "us");
  report.set("req_p99_us", points_tail.value * 1e3, "us");
  report.annotate("req_p99_us", tail_note(points_tail, "points"));
  report.set("req_per_s", points_run / measured_s, "1/s");
  report.annotate("req_per_s", "one request = one experiment point");

  report.set("runtime.point_build_ms_p50", median(build_ms), "ms");
  report.set("runtime.point_run_ms_p50", median(run_ms), "ms");
  report.set("runtime.point_run_ms_max", *std::max_element(run_ms.begin(), run_ms.end()), "ms");
  report.set("runtime.queue_wait_ms_p50", median(wait_ms), "ms");
  report.set("runtime.parallel_eff", busy_s / (static_cast<double>(kThreads) * measured_s),
             "ratio");
  report.annotate("runtime.parallel_eff", "summed point time / (threads x round time)");
  report.set("runtime.points", points_run, "count");

  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace thermbench
