#include "campaign_family.hpp"

#include <fstream>
#include <iostream>

#include "harness/campaign_cli.hpp"

namespace easis::bench {

int run_family(const CampaignFamily& family, int argc,
               const char* const* argv) {
  harness::CampaignCli cli(family.program, family.description,
                           family.default_seed, family.default_runs,
                           "randomized injections per fault class",
                           family.default_csv());
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const auto runs_per_class = static_cast<std::size_t>(cli.runs);
  const std::size_t total = family.classes.size() * runs_per_class;
  std::vector<harness::RunSpec> specs =
      harness::CampaignRunner::make_specs(total, cli.seed);
  for (std::size_t i = 0; i < total; ++i) {
    specs[i].label = family.classes[i / runs_per_class];
  }

  harness::CampaignRunner runner(cli.config(), family.run);
  const harness::CampaignOutcome outcome = runner.run(specs);
  const harness::CampaignReport report(specs, outcome);

  std::cout << "=== " << family.title << " ===\n"
            << report.completed_runs() << " randomized injections ("
            << cli.jobs << " worker(s), seed 0x" << std::hex << cli.seed
            << std::dec << "), " << family.per_run << "\n\n";
  report.coverage().print(std::cout);
  if (!report.quarantined().empty()) {
    std::cout << '\n' << report.quarantine_summary();
  }
  if (outcome.skipped > 0) {
    std::cout << '\n' << outcome.skipped << " run(s) skipped by --fail-fast\n";
  }

  {
    std::ofstream csv(cli.csv);
    if (family.rows_are_result) {
      report.write_rows_csv(csv, family.rows_header);
    } else {
      report.write_coverage_csv(csv);
    }
  }
  std::cout << '\n'
            << (family.rows_are_result ? "per-run rows" : "per-class coverage")
            << " written to " << cli.csv << '\n';
  if (!family.rows_header.empty() && !family.rows_are_result) {
    cli.write_runs_csv(report, family.rows_header, std::cout);
  }
  cli.finish(report, runner.config(), outcome, std::cout);

  // A --fail-fast sweep is partial by design, so its coverage says nothing
  // about the family's shape.
  if (outcome.skipped > 0) {
    std::cout << "shape check skipped (--fail-fast partial sweep)\n";
    return 0;
  }
  std::cout << "--- expected vs measured ---\n"
            << "expected shape: " << family.expected_shape << '\n';
  const bool shape_ok =
      family.shape(report, std::cout) && report.quarantined().empty();
  std::cout << "shape check: " << (shape_ok ? "PASS" : "FAIL") << "\n";
  return shape_ok ? 0 : 1;
}

bool every_class_detected(const harness::CampaignReport& report,
                          const std::vector<std::string>& classes,
                          std::initializer_list<const char*> detectors) {
  bool ok = true;
  for (const auto& fault_class : classes) {
    for (const char* detector : detectors) {
      ok &= report.coverage().coverage(fault_class, detector) > 0.99;
    }
  }
  return ok;
}

std::vector<const CampaignFamily*> campaign_families() {
  return {&network_family(), &resource_family(), &environment_family(),
          &mode_family(), &diag_family()};
}

}  // namespace easis::bench
