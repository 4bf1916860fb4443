// Campaign execution engine: shards independent simulation runs across a
// std::thread worker pool with deterministic results and hang quarantine.
//
// Three properties make large campaigns practical (the scale the paper's
// outlook defers, and Fantechi et al. argue complex fault-tolerance
// policies require):
//
//  * determinism  — per-run seeds are derive_seed(campaign_seed, run_index)
//    and results are collected into a vector indexed by run_index, so the
//    reduced output is bit-identical for any --jobs value;
//  * isolation    — each run builds its own sim::Engine world; workers
//    share nothing but the work queue and the results vector;
//  * supervision  — a supervisor thread enforces a per-run wall-clock
//    deadline: a hung or wedged run is settled as kRunTimeout, its worker
//    abandoned and replaced, and the campaign keeps draining. This is the
//    meta-level twin of the software watchdog the repo reproduces: the
//    harness supervises its own workers the way the watchdog supervises
//    runnables.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness/run_spec.hpp"

namespace easis::harness {

struct CampaignConfig {
  /// Worker threads; clamped to >= 1. jobs=1 reproduces the serial bench.
  unsigned jobs = 1;
  /// Campaign seed; per-run seeds derive from it (never used directly).
  std::uint64_t seed = 0;
  /// Per-run wall-clock deadline; zero disables the supervisor.
  std::chrono::milliseconds run_deadline{0};
  /// Supervisor poll period (only meaningful with a deadline).
  std::chrono::milliseconds supervisor_poll{2};
  /// When true, workers abandoned after a timeout are detached instead of
  /// joined at campaign end. Needed only for run functions that can hang
  /// forever *without* polling RunContext::cancelled(); keeping it off
  /// keeps shutdown TSan-clean. Detached workers co-own the campaign
  /// state, so a straggler settling after run() returns is harmless.
  bool detach_abandoned_workers = false;
  /// Stop dispatching new runs after the first failed verdict (non-ok
  /// status or a misdetect flag): runs not yet claimed settle as
  /// kRunSkipped. Completed runs still reduce deterministically; which
  /// runs completed depends on scheduling, so fail-fast output is NOT
  /// byte-identical across --jobs values (it is a debugging mode).
  bool fail_fast = false;
  /// Install a hot-path profiler around every run and harvest its profile
  /// into RunResult::profile. Off by default: unprofiled campaigns pay
  /// only the per-site thread-local null check.
  bool profile = false;
  /// Ring capacity of each worker's profiler (raw span records per run);
  /// only meaningful with `profile`. Zero, the default, keeps no records:
  /// only the trace export reads them (CampaignCli sizes the ring when
  /// --trace-out is given).
  std::size_t profile_ring_capacity = 0;
};

struct CampaignOutcome {
  /// One result per spec, indexed by run_index regardless of worker count
  /// or completion order — the determinism anchor of the whole harness.
  std::vector<RunResult> results;
  std::size_t timeouts = 0;
  std::size_t errors = 0;
  /// Runs never executed because --fail-fast stopped the dispatch.
  std::size_t skipped = 0;
  double wall_seconds = 0.0;
  /// Campaign start in steady_clock nanoseconds — the epoch trace export
  /// rebases span timestamps onto. Wall-clock, artifact-only.
  std::int64_t start_ns = 0;

  [[nodiscard]] double runs_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.size()) / wall_seconds
               : 0.0;
  }
};

class CampaignRunner {
 public:
  using RunFn = std::function<RunResult(const RunContext&)>;

  CampaignRunner(CampaignConfig config, RunFn fn);

  /// Builds the spec list for `count` runs: run_index i gets seed
  /// util::derive_seed(campaign_seed, i) and an empty label.
  [[nodiscard]] static std::vector<RunSpec> make_specs(
      std::size_t count, std::uint64_t campaign_seed);

  /// Executes all specs and blocks until every run has settled (completed,
  /// errored, or been quarantined by the supervisor). The specs are copied
  /// into state co-owned by the workers, so the caller's vector stays
  /// usable (CampaignReport wants it for labels).
  [[nodiscard]] CampaignOutcome run(const std::vector<RunSpec>& specs);

  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
  RunFn fn_;
};

}  // namespace easis::harness
