// Golden digests: the simulator's bits, pinned in a checked-in file.
//
// The oracle pairings prove two configurations agree with each other; they
// cannot prove either still produces what it produced last week. This test
// runs the oracle corpus plus a fault-campaign variant and compares each
// result's verify::digest_result with tests/golden/oracle_corpus.digests.
// On a mismatch it names every changed config and prints the complete
// replacement file. That printout is the regen path: paste it over the
// checked-in file only for a deliberate trajectory change, in one commit
// that says why (docs/verification.md).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/sweep.hpp"
#include "verify/differential.hpp"

namespace thermctl::verify {
namespace {

constexpr std::uint64_t kCorpusSeed = 20100913;
constexpr std::size_t kCorpusSize = 24;

/// make_oracle_corpus(kCorpusSeed, kCorpusSize), then its odd-index configs
/// again under a live fault campaign (fault-aware gates, two sensor-stuck or
/// bus-fault episodes per node), named "<name>+faults".
std::vector<core::ExperimentConfig> golden_corpus() {
  std::vector<core::ExperimentConfig> corpus = make_oracle_corpus(kCorpusSeed, kCorpusSize);
  for (std::size_t i = 1; i < kCorpusSize; i += 2) {
    core::ExperimentConfig cfg = corpus[i];
    cfg.name += "+faults";
    cfg.fault_aware = true;
    cfg.faults.enabled = true;
    cfg.faults.episodes_per_node = 2;
    cfg.faults.start_after = Seconds{2.0};
    cfg.faults.min_duration = Seconds{1.0};
    cfg.faults.max_duration = Seconds{6.0};
    corpus.push_back(std::move(cfg));
  }
  return corpus;
}

/// name → digest, from the checked-in file ('#' lines are comments).
std::map<std::string, std::uint64_t> read_golden() {
  std::map<std::string, std::uint64_t> golden;
  std::ifstream in{THERMCTL_GOLDEN_FILE};
  EXPECT_TRUE(in.good()) << "cannot open " << THERMCTL_GOLDEN_FILE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields{line};
    std::string name;
    std::string hex;
    fields >> name >> hex;
    golden[name] = std::stoull(hex, nullptr, 16);
  }
  return golden;
}

std::string render_golden(const std::vector<core::ExperimentConfig>& corpus,
                          const std::vector<core::ExperimentResult>& results) {
  std::string out =
      "# verify::digest_result per config: make_oracle_corpus(20100913, 24), then\n"
      "# its odd-index configs under a fault campaign (\"+faults\"). Regenerate\n"
      "# only for a deliberate trajectory change; see docs/verification.md.\n";
  char line[160];
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::snprintf(line, sizeof line, "%s %016" PRIx64 "\n", corpus[i].name.c_str(),
                  digest_result(results[i]));
    out += line;
  }
  return out;
}

void expect_matches_golden(const std::vector<core::ExperimentConfig>& corpus) {
  const std::vector<core::ExperimentResult> results = runtime::run_sweep(corpus);
  const std::map<std::string, std::uint64_t> golden = read_golden();
  EXPECT_EQ(golden.size(), corpus.size()) << "golden file lists a different corpus";
  bool changed = false;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto it = golden.find(corpus[i].name);
    const std::uint64_t digest = digest_result(results[i]);
    if (it == golden.end() || it->second != digest) {
      ADD_FAILURE() << "digest changed: " << corpus[i].name;
      changed = true;
    }
  }
  if (changed) {
    std::printf("---- replacement %s ----\n%s---- end ----\n", THERMCTL_GOLDEN_FILE,
                render_golden(corpus, results).c_str());
  }
}

TEST(GoldenDigests, OracleCorpusMatchesCheckedInDigests) {
  expect_matches_golden(golden_corpus());
}

TEST(GoldenDigests, DigestCoversEveryDiffedField) {
  // One ULP in a series and one extra event both move the digest: the digest
  // walks the same fields diff_results does.
  core::ExperimentResult a;
  a.run.times = {0.0, 0.25};
  a.fan_events = {{core::FanEvent{1.0, 10.0, 20.0, false}}};
  core::ExperimentResult b = a;
  EXPECT_EQ(digest_result(a), digest_result(b));
  b.run.times[1] = std::nextafter(0.25, 1.0);
  EXPECT_NE(digest_result(a), digest_result(b));
  b = a;
  b.fan_events[0].push_back(core::FanEvent{2.0, 20.0, 30.0, true});
  EXPECT_NE(digest_result(a), digest_result(b));
}

}  // namespace
}  // namespace thermctl::verify
