// One table-driven campaign family per fault family.
//
// Every fault-family coverage campaign (network, resource, environment,
// mode, diag readout) is the same program: sweep each fault class --runs
// times over the campaign harness, reduce, print the coverage table, write
// the result CSV (plus the per-run rows sidecar), the timing CSV and the
// telemetry artifacts, and judge the expected shape. A CampaignFamily
// holds only what differs between them; run_family() is that program.
// Adding a family is one descriptor next to its *_fault_classes() list
// plus a main that calls run_family().
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"

namespace easis::bench {

struct CampaignFamily {
  /// Binary name; the default --csv is `<program>.csv`.
  std::string program;
  /// Banner of the printed table.
  std::string title;
  /// --help description.
  std::string description;
  std::uint64_t default_seed = 0;
  /// Default --runs: randomized injections per fault class.
  std::uint64_t default_runs = 0;
  /// What one run contributes, printed in the banner ("4 detectors each").
  std::string per_run;
  /// Fault classes in campaign order; run i executes class i / --runs.
  std::vector<std::string> classes;
  /// One run: the spec's label is the fault class, its seed the run seed.
  harness::CampaignRunner::RunFn run;
  /// Header of the per-run rows the run function emits; empty when it
  /// emits none. The rows go to the `<csv stem>.runs.csv` sidecar, or to
  /// --csv itself when `rows_are_result`.
  std::string rows_header = {};
  bool rows_are_result = false;
  /// Expected-shape sentence printed above the verdict.
  std::string expected_shape;
  /// The family's own shape predicate over a complete sweep. It may print
  /// supporting notes to `out`; run_family() adds the quarantine check.
  std::function<bool(const harness::CampaignReport&, std::ostream& out)>
      shape;

  [[nodiscard]] std::string default_csv() const { return program + ".csv"; }
};

/// Runs `family` as a command-line campaign (the shared --jobs/--seed/
/// --runs/--csv/telemetry flags) and returns the process exit code: 0 on
/// `shape check: PASS` or a --fail-fast partial sweep (shape check
/// skipped), 1 on FAIL, 2 on a command-line error.
[[nodiscard]] int run_family(const CampaignFamily& family, int argc,
                             const char* const* argv);

/// The shared shape rule: every class in `classes` is caught by every one
/// of `detectors` in more than 99% of its runs.
[[nodiscard]] bool every_class_detected(
    const harness::CampaignReport& report,
    const std::vector<std::string>& classes,
    std::initializer_list<const char*> detectors);

/// The five fault-family descriptors, each defined next to its
/// *_fault_classes() list.
[[nodiscard]] const CampaignFamily& network_family();
[[nodiscard]] const CampaignFamily& resource_family();
[[nodiscard]] const CampaignFamily& environment_family();
[[nodiscard]] const CampaignFamily& mode_family();
[[nodiscard]] const CampaignFamily& diag_family();

/// All five descriptors, in the order above.
[[nodiscard]] std::vector<const CampaignFamily*> campaign_families();

}  // namespace easis::bench
