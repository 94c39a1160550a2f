#include "digest.hpp"

#include <bit>
#include <cstdio>

namespace thermbench {

void Fnv1a::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t sim_digest(const thermctl::cluster::RunResult& run,
                         const std::vector<std::uint64_t>& controller_events) {
  Fnv1a h;
  auto series = [&h](const std::vector<double>& xs) {
    h.u64(xs.size());
    for (double x : xs) {
      h.f64(x);
    }
  };
  series(run.times);
  h.u64(run.nodes.size());
  for (const thermctl::cluster::NodeSeries& n : run.nodes) {
    series(n.die_temp);
    series(n.sensor_temp);
    series(n.duty);
    series(n.rpm);
    series(n.freq_ghz);
    series(n.power_w);
    series(n.util);
    series(n.activity);
  }
  h.u64(run.summaries.size());
  for (const thermctl::cluster::NodeSummary& s : run.summaries) {
    h.f64(s.avg_die_temp);
    h.f64(s.max_die_temp);
    h.f64(s.avg_duty);
    h.f64(s.avg_power_w);
    h.f64(s.energy_j);
    h.u64(s.freq_transitions);
    h.u64(static_cast<std::uint64_t>(s.prochot_events));
    h.f64(s.prochot_seconds);
    h.f64(s.seconds_above_threshold);
    h.u64(s.i2c_retries);
    h.u64(s.i2c_naks);
    h.u64(s.i2c_bus_faults);
    h.u64(s.i2c_exhausted);
  }
  h.u64(run.app_completed ? 1 : 0);
  h.f64(run.exec_time_s);
  h.u64(controller_events.size());
  for (std::uint64_t count : controller_events) {
    h.u64(count);
  }
  return h.value();
}

std::string hex(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace thermbench
