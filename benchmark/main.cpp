// thermbench — one workload per process:
//
//   thermbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scratch <dir>]
//   thermbench --smoke [--scratch <dir>]
//
// --workers <n> overrides the fleet workloads' engine shard count, for
// scaling experiments (README.md); the benchmark's own runs never pass it.
//
// Workloads: fleet_100k, fleet_16k_dc, paper_sweep, daemon_scrape (see
// README.md). Prints every metric the run measured by name with its unit,
// then, as the last stdout line, {"correct", "attempted", "failed",
// "metrics"}; run.py keeps the metrics of the run's mode. Exits 1 when a
// correctness check fails, 2 on bad usage.
// --smoke runs every workload untraced and traced at tiny sizes and fails
// unless all of them are correct and every traced fleet run reproduces its
// untraced sim_digest.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using namespace thermbench;

constexpr const char* kWorkloads[] = {"fleet_100k", "fleet_16k_dc", "paper_sweep",
                                      "daemon_scrape"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <fleet_100k|fleet_16k_dc|paper_sweep|daemon_scrape> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] [--workers <n>]\n"
               "       %s --smoke [--scratch <dir>]\n",
               argv0, argv0);
  return 2;
}

/// Runs one workload and prints its result; true when it was correct.
bool run_one(const Options& options, Report& report) {
  std::printf("thermbench workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Outcome outcome;
  if (options.workload == "fleet_100k" || options.workload == "fleet_16k_dc") {
    outcome = run_fleet(options, options.workload == "fleet_16k_dc", report);
  } else if (options.workload == "paper_sweep") {
    outcome = run_paper_sweep(options, report);
  } else {
    outcome = run_daemon_scrape(options, report);
  }
  // failed / attempted as a metric that is never 0: any failure lowers it.
  report.set("ok_frac",
             outcome.attempted == 0 ? 0.0
                                    : 1.0 - static_cast<double>(outcome.failed) /
                                                static_cast<double>(outcome.attempted),
             "ratio");
  report.annotate("ok_frac", std::to_string(outcome.failed) + " failed of " +
                                 std::to_string(outcome.attempted));
  return report.emit(outcome.correct, outcome.attempted, outcome.failed);
}

bool smoke(const Options& base) {
  bool ok = true;
  for (const char* workload : kWorkloads) {
    for (bool trace : {false, true}) {
      Options options = base;
      options.workload = workload;
      options.trace = trace;
      options.smoke = true;
      Report report;
      bool pass = run_one(options, report);
      if (trace && std::strncmp(workload, "fleet", 5) == 0 &&
          report.get("trace.digest_match") != 1.0) {
        std::fprintf(stderr, "smoke: %s traced digest differs from the untraced run\n",
                     workload);
        pass = false;
      }
      std::printf("smoke: %s trace=%d %s\n", workload, trace ? 1 : 0, pass ? "PASS" : "FAIL");
      ok = ok && pass;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool smoke_mode = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(argv[0]);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = false;
      for (const char* w : kWorkloads) {
        have_workload = have_workload || value == w;
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return usage(argv[0]);
      }
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return usage(argv[0]);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return usage(argv[0]);
      }
      options.trace = value == "1";
    } else if (arg == "--scratch") {
      options.scratch = value;
    } else if (arg == "--workers") {
      const long workers = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || workers < 1 || workers > 64) {
        return usage(argv[0]);
      }
      options.workers = static_cast<int>(workers);
    } else {
      return usage(argv[0]);
    }
  }
  try {
    if (smoke_mode) {
      return smoke(options) ? 0 : 1;
    }
    if (!have_workload) {
      return usage(argv[0]);
    }
    Report report;
    return run_one(options, report) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "thermbench: %s\n", e.what());
    return 1;
  }
}
