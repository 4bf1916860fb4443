// Campaign harness throughput: serial vs parallel speedup, per family.
//
// For every campaign family (network, resource, environment, mode, diag;
// bench::campaign_families()) it runs the same randomized campaign of
// --runs runs, the family's classes round-robin, once per point of a
// worker sweep (1, 2, ..., --jobs) and reports wall clock, throughput and
// speedup over that family's serial point. Because per-run seeds derive
// from (campaign seed, run index), every sweep point computes the *same*
// runs — the sweep measures pure harness scaling, not workload variance;
// the bench cross-checks that by comparing each point's merged coverage
// CSV against the family's serial one.
//
// Speedup is bounded by the machine: on a single-core CI shell this
// measures the harness overhead (expect ~1x); on the 4-core CI runner the
// 4-worker point is the ≥2.5x acceptance measurement. Each JSON point
// therefore carries the host's CPU count and the build type, so snapshots
// from different hosts or builds are not compared as like with like.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign_family.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "util/argparse.hpp"
#include "util/csv.hpp"

using namespace easis;

int main(int argc, char** argv) {
  unsigned max_jobs = 4;
  std::uint64_t seed = 0xC0FFEE;
  std::uint64_t runs = 60;
  std::string csv_path = "campaign_throughput.csv";
  std::string json_path = "BENCH_campaign_throughput.json";

  util::ArgParser parser(
      "bench_campaign_throughput",
      "serial-vs-parallel campaign speedup on every campaign family");
  parser.add("jobs", &max_jobs, "largest worker count in the sweep");
  parser.add("seed", &seed, "campaign seed");
  parser.add("runs", &runs, "randomized injections per sweep point");
  parser.add("csv", &csv_path, "output CSV path");
  parser.add("json", &json_path,
             "machine-readable sweep summary (empty disables)");
  if (!parser.parse(argc, argv, std::cerr)) return parser.exited() ? 0 : 2;
  if (max_jobs == 0) max_jobs = 1;

  const auto total = static_cast<std::size_t>(runs);
  std::cout << "=== Campaign throughput: " << total
            << " runs per family and sweep point ===\n"
            << "family       jobs  wall_s     runs_per_s  speedup  "
               "deterministic\n";

  std::ofstream csv_file(csv_path);
  util::CsvWriter csv(csv_file, {"family", "jobs", "runs", "wall_s",
                                 "runs_per_s", "speedup", "deterministic"});

  // Worker sweep: 1, 2, 4, 8, ... up to --jobs (always including --jobs).
  std::vector<unsigned> sweep;
  for (unsigned j = 1; j < max_jobs; j *= 2) sweep.push_back(j);
  sweep.push_back(max_jobs);

  struct SweepPoint {
    std::string family;
    unsigned jobs;
    double wall_s;
    double runs_per_s;
    double speedup;
    bool deterministic;
  };
  std::vector<SweepPoint> points;

  bool all_deterministic = true;
  double best_speedup = 0.0;
  for (const bench::CampaignFamily* family : bench::campaign_families()) {
    // The family's name is the program's middle word: exp_<name>_<what>.
    const std::string& program = family->program;
    const std::size_t from = program.find('_') + 1;
    const std::string label =
        program.substr(from, program.find('_', from) - from);
    std::vector<harness::RunSpec> specs =
        harness::CampaignRunner::make_specs(total, seed);
    for (std::size_t i = 0; i < total; ++i) {
      specs[i].label = family->classes[i % family->classes.size()];
    }

    double serial_wall = 0.0;
    std::string serial_csv;
    for (const unsigned jobs : sweep) {
      harness::CampaignConfig config;
      config.jobs = jobs;
      config.seed = seed;
      harness::CampaignRunner runner(config, family->run);
      const harness::CampaignOutcome outcome = runner.run(specs);
      const harness::CampaignReport report(specs, outcome);

      std::ostringstream merged_csv;
      report.write_coverage_csv(merged_csv);
      if (jobs == 1) {
        serial_wall = outcome.wall_seconds;
        serial_csv = merged_csv.str();
      }
      const bool deterministic = merged_csv.str() == serial_csv;
      all_deterministic = all_deterministic && deterministic;
      const double speedup = outcome.wall_seconds > 0.0
                                 ? serial_wall / outcome.wall_seconds
                                 : 0.0;
      best_speedup = std::max(best_speedup, speedup);

      std::printf("%-11s  %4u  %8.3f  %10.1f  %7.2fx  %s\n", label.c_str(),
                  jobs, outcome.wall_seconds, outcome.runs_per_second(),
                  speedup, deterministic ? "yes" : "NO");

      std::ostringstream wall, rps, sp;
      wall << outcome.wall_seconds;
      rps << outcome.runs_per_second();
      sp << speedup;
      csv.row({label, std::to_string(jobs), std::to_string(total),
               wall.str(), rps.str(), sp.str(), deterministic ? "1" : "0"});
      points.push_back({label, jobs, outcome.wall_seconds,
                        outcome.runs_per_second(), speedup, deterministic});
    }
  }

  // Machine-readable sweep summary: one data point per family and worker
  // count, the format the trend tooling tracks across commits (results/
  // keeps the committed reference points).
  if (!json_path.empty()) {
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"campaign_throughput\",\n"
         << "  \"workload\": \"every campaign family\",\n"
         << "  \"runs_per_point\": " << total << ",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      json << "    {\"family\": \"" << p.family << "\", \"jobs\": " << p.jobs
           << ", \"wall_s\": " << p.wall_s
           << ", \"runs_per_s\": " << p.runs_per_s
           << ", \"speedup\": " << p.speedup << ", \"deterministic\": "
           << (p.deterministic ? "true" : "false")
           << ", \"host_cpus\": " << host_cpus << ", \"build_type\": \""
           << EASIS_BUILD_TYPE << "\"}"
           << (i + 1 < points.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "sweep summary written to " << json_path << '\n';
  }

  std::cout << "\nraw results written to " << csv_path << '\n'
            << "best speedup over serial: " << best_speedup << "x\n"
            << "merged coverage identical across all sweep points: "
            << (all_deterministic ? "PASS" : "FAIL") << '\n';
  // Determinism is the hard gate; the speedup figure depends on how many
  // cores the host exposes, so it is reported, not asserted.
  return all_deterministic ? 0 : 1;
}
