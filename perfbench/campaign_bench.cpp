// Campaign benchmark: times the repository's fault campaigns end to
// end and layer by layer (see README.md next to this file).
//
// One invocation runs one workload. A workload is a fixed campaign derived
// from --seed: its scenario classes round-robin over `per_class` runs each.
// The campaign executes in slices of `slice_per_class` runs per class, each
// slice a campaign of its own through harness::CampaignRunner, reduced
// through harness::CampaignReport exactly as the exp_* campaign binaries do.
// A pass runs the slices in order, starting over after the last one, until
// its time budget is used up. Its timings count every slice and every run
// once, with the median over the times it was executed, so a seed-dependent
// expensive slice weighs the same however often it ran.
//
//   --trace 0  untraced pass (profiler compiled in, not installed) over the
//              whole campaign, for --seconds; prints the end-to-end metrics.
//   --trace 1  an untraced pass, then a traced pass (CampaignConfig::profile)
//              whose span trees and counters roll up by module prefix, each
//              for half of --seconds over the first `trace_slices` slices;
//              prints the per-layer metrics.
//
// Correctness: a slice that runs again must reproduce its digest, a hash of
// its coverage CSV and per-run rows, and the traced pass must reproduce the
// untraced pass's result digest; no run may fail or flag a misdetection.
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_scenarios.hpp"
#include "harness/campaign_report.hpp"
#include "harness/campaign_runner.hpp"
#include "policy/compiler.hpp"
#include "policy/policy.hpp"
#include "profile/profiler.hpp"
#include "util/argparse.hpp"
#include "util/logging.hpp"

using namespace easis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads --------------------------------------------------------------

using ScenarioFn = std::function<harness::RunResult(
    const std::string&, std::uint64_t, const harness::RunContext&)>;

/// One scenario class of a workload: the public scenario function and the
/// fault class it is called with.
struct Entry {
  ScenarioFn fn;
  std::string fault_class;
};

struct Workload {
  std::string name;
  unsigned jobs = 1;
  /// Runs of each class in the campaign, and in one slice of it. Each slice
  /// is timed on its own, so a slice executed three times or more skips a
  /// short burst of host noise, while the campaign stays large enough that
  /// the seed does not decide the figures.
  std::size_t per_class = 1;
  std::size_t slice_per_class = 1;
  /// The --trace 1 passes run over this many leading slices, so that an
  /// untraced and a traced pass together fit into --seconds.
  std::size_t trace_slices = 1;
  std::vector<Entry> entries;
};

void add_family(Workload& w, const std::vector<std::string>& classes,
                const ScenarioFn& fn) {
  for (const auto& c : classes) w.entries.push_back({fn, c});
}

bool make_workload(const std::string& name, Workload& w) {
  w.name = name;
  if (name == "network") {
    // CAN/FlexRay backbone under the five network fault classes, 8 s each.
    // One babbling_idiot run costs 40-600 ms depending on its seed, so the
    // campaign needs ~250 of them for the seed not to decide the figures;
    // two workers fit that into a run.
    w.jobs = 2;
    w.per_class = 250;
    w.slice_per_class = 25;
    w.trace_slices = 4;
    add_family(w, bench::network_fault_classes(),
               [](const std::string& c, std::uint64_t seed,
                  const harness::RunContext&) {
                 return bench::run_network_fault(c, seed);
               });
  } else if (name == "ecu") {
    // The central-node path: OSEK, RTE, supervision units, FMF/NVM, UDS.
    w.jobs = 1;
    w.per_class = 120;
    w.slice_per_class = 5;
    w.trace_slices = 12;
    add_family(w, bench::resource_fault_classes(),
               [](const std::string& c, std::uint64_t seed,
                  const harness::RunContext& ctx) {
                 return bench::run_resource_fault(c, seed, &ctx);
               });
    add_family(w, bench::environment_fault_classes(),
               [](const std::string& c, std::uint64_t seed,
                  const harness::RunContext& ctx) {
                 return bench::run_environment_fault(c, seed, &ctx);
               });
    add_family(w, bench::diag_fault_classes(),
               [](const std::string& c, std::uint64_t seed,
                  const harness::RunContext&) {
                 return bench::run_diag_readout(c, seed);
               });
  } else {
    return false;
  }
  return true;
}

/// Round-robin campaign: run i executes entry i % entries.
std::vector<harness::RunSpec> make_campaign(const Workload& w,
                                            std::size_t per_class,
                                            std::uint64_t seed) {
  const std::size_t total = per_class * w.entries.size();
  std::vector<harness::RunSpec> specs =
      harness::CampaignRunner::make_specs(total, seed);
  for (std::size_t i = 0; i < total; ++i) {
    specs[i].label = w.entries[i % w.entries.size()].fault_class;
  }
  return specs;
}

/// Consecutive slices of `slice_size` runs.
std::vector<std::vector<harness::RunSpec>> make_slices(
    const std::vector<harness::RunSpec>& specs, std::size_t slice_size) {
  std::vector<std::vector<harness::RunSpec>> slices;
  for (std::size_t b = 0; b < specs.size(); b += slice_size) {
    const std::size_t e = std::min(b + slice_size, specs.size());
    slices.emplace_back(specs.begin() + static_cast<std::ptrdiff_t>(b),
                        specs.begin() + static_cast<std::ptrdiff_t>(e));
  }
  return slices;
}

// --- per-layer roll-up ------------------------------------------------------

/// Sums of one pass's span trees and counters. Self times roll up by module
/// prefix (the text before the first '.' of a span name) over the subtree of
/// every outermost sim.run_until span, whether that span is a root (most
/// families) or nested under run.simulate (the network family). Spans
/// outside it belong to run.setup, which is measured as the scenario-call
/// wall time minus sim_total_ns.
struct LayerTotals {
  std::map<std::string, std::int64_t> self_ns;
  std::int64_t sim_total_ns = 0;
  std::map<std::string, std::uint64_t> counters;

  void add(const profile::RunProfile& p) {
    std::vector<bool> under_sim(p.nodes.size(), false);
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
      const auto& node = p.nodes[i];
      const bool parent_under_sim =
          node.parent >= 0 && under_sim[static_cast<std::size_t>(node.parent)];
      const bool is_sim = node.name == "sim.run_until";
      if (is_sim && !parent_under_sim) sim_total_ns += node.total_ns;
      under_sim[i] = parent_under_sim || is_sim;
      if (under_sim[i]) {
        self_ns[node.name.substr(0, node.name.find('.'))] += node.self_ns;
      }
    }
    for (const auto& c : p.counters) counters[c.name] += c.value;
  }
};

// --- slices and passes ------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

/// Every execution of one slice of the campaign.
struct SliceTimes {
  std::size_t runs = 0;
  std::vector<double> wall_s;     // CampaignRunner::run plus the reduction
  std::vector<double> cpu_s;      // process user+sys CPU over the same span
};

struct PassStats {
  std::size_t slices_run = 0;
  std::size_t runs = 0;           // scenario calls, repeated slices included
  std::size_t failed = 0;
  std::string first_failure;
  std::vector<SliceTimes> slices;  // by slice index
  // By run index: host wall time of every execution of the scenario call.
  std::vector<std::vector<double>> run_ms;
  double run_wall_s = 0.0;        // sum over every scenario call, in seconds
  // jobs x CampaignRunner::run wall, less the workers' wait at each slice's
  // join (see join_idle_s), summed.
  double capacity_s = 0.0;
  double reduce_s = 0.0;          // CampaignReport + CSV writers, summed
  double wall_s = 0.0;            // whole pass
  std::uint64_t events = 0;
  std::string digest;             // over the first run of every slice
  bool digest_stable = true;
  LayerTotals layers;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Worker time spent waiting at a slice's join: each worker's gap between
/// the end of its own last run and the end of the slice's last run. A
/// user's campaign waits like this once, a sliced one once per slice, so it
/// is not counted as harness overhead.
double join_idle_s(const std::vector<Clock::time_point>& run_end,
                   const std::vector<std::thread::id>& run_worker) {
  std::map<std::thread::id, Clock::time_point> last_end;
  for (std::size_t i = 0; i < run_end.size(); ++i) {
    Clock::time_point& t = last_end[run_worker[i]];
    t = std::max(t, run_end[i]);
  }
  Clock::time_point latest{};
  for (const auto& [worker, t] : last_end) latest = std::max(latest, t);
  double idle_s = 0.0;
  for (const auto& [worker, t] : last_end) {
    idle_s += std::chrono::duration<double>(latest - t).count();
  }
  return idle_s;
}

/// Executes slice `index` of the campaign as a campaign of its own through
/// the public harness API, folds its outcome into `stats` and returns the
/// digest of its coverage CSV and per-run rows.
std::uint64_t run_slice(const Workload& w,
                        const std::vector<harness::RunSpec>& slice,
                        std::size_t index, unsigned jobs, bool traced,
                        PassStats& stats) {
  const auto start = Clock::now();
  const double cpu_start = cpu_seconds();
  const std::size_t first = slice.front().run_index;
  std::vector<double> run_ms(slice.size(), 0.0);
  std::vector<Clock::time_point> run_end(slice.size());
  std::vector<std::thread::id> run_worker(slice.size());
  harness::CampaignConfig config;
  config.jobs = jobs;
  config.profile = traced;
  // Each run writes only its own slots; run() joins the workers before the
  // vectors are read.
  harness::CampaignRunner runner(
      config, [&](const harness::RunContext& ctx) {
        const harness::RunSpec& spec = ctx.spec();
        const Entry& entry = w.entries[spec.run_index % w.entries.size()];
        const std::size_t slot = spec.run_index - first;
        const auto run_start = Clock::now();
        harness::RunResult result = entry.fn(spec.label, spec.seed, ctx);
        run_end[slot] = Clock::now();
        run_ms[slot] =
            1e3 * std::chrono::duration<double>(run_end[slot] - run_start)
                      .count();
        run_worker[slot] = std::this_thread::get_id();
        return result;
      });

  const auto campaign_start = Clock::now();
  const harness::CampaignOutcome outcome = runner.run(slice);
  const double campaign_wall_s = seconds_since(campaign_start);
  stats.capacity_s +=
      jobs * campaign_wall_s - join_idle_s(run_end, run_worker);

  const auto reduce_start = Clock::now();
  const harness::CampaignReport report(slice, outcome);
  std::ostringstream coverage_csv;
  report.write_coverage_csv(coverage_csv);
  std::ostringstream rows_csv;
  report.write_rows_csv(rows_csv, "");
  stats.reduce_s += seconds_since(reduce_start);

  if (stats.slices.size() <= index) stats.slices.resize(index + 1);
  SliceTimes& times = stats.slices[index];
  times.runs = slice.size();
  times.wall_s.push_back(seconds_since(start));
  times.cpu_s.push_back(cpu_seconds() - cpu_start);

  for (const harness::RunResult& r : outcome.results) {
    if (r.status != harness::RunStatus::kRunOk || !r.misdetect.empty()) {
      ++stats.failed;
      if (stats.first_failure.empty()) {
        stats.first_failure = std::string(harness::to_string(r.status)) +
                              ": " + r.error + r.misdetect;
      }
    }
    stats.events += r.events.size();
    if (traced) stats.layers.add(r.profile);
  }
  if (stats.run_ms.size() < first + slice.size()) {
    stats.run_ms.resize(first + slice.size());
  }
  for (std::size_t i = 0; i < slice.size(); ++i) {
    stats.run_wall_s += run_ms[i] / 1e3;
    stats.run_ms[first + i].push_back(run_ms[i]);
  }
  stats.runs += slice.size();
  return fnv1a(fnv1a(kFnvOffset, coverage_csv.str()), rows_csv.str());
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples strictly beyond the nearest-rank p90.
std::size_t beyond_p90(std::size_t n) {
  return n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
}

/// Median; the mean of the middle two for an even count, so that a slice
/// executed twice does not read as its faster execution.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Runs the slices in order, starting over after the last one, until every
/// slice has run and one more slice of average length would end the pass
/// after `budget_s`. A slice that runs again must reproduce its first
/// digest; the pass's result digest hashes the first digest of every slice.
PassStats run_pass(const Workload& w,
                   const std::vector<std::vector<harness::RunSpec>>& slices,
                   unsigned jobs, bool traced, double budget_s) {
  PassStats stats;
  std::vector<std::uint64_t> first_digest;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= slices.size() &&
        seconds_since(start) * static_cast<double>(k + 1) /
                static_cast<double>(k) > budget_s) {
      break;
    }
    const std::size_t index = k % slices.size();
    const std::uint64_t digest =
        run_slice(w, slices[index], index, jobs, traced, stats);
    if (k < slices.size()) {
      first_digest.push_back(digest);
    } else if (digest != first_digest[k % slices.size()]) {
      stats.digest_stable = false;
    }
    ++stats.slices_run;
  }
  stats.wall_s = seconds_since(start);
  std::uint64_t digest = kFnvOffset;
  for (const std::uint64_t d : first_digest) digest = fnv1a(digest, hex16(d));
  stats.digest = hex16(digest);
  return stats;
}

/// Campaign runs per host second: every slice counts once, with the median
/// wall time of its executions (the join at its end and its reduction
/// included).
double runs_per_s(const PassStats& s) {
  double runs = 0.0;
  double wall_s = 0.0;
  for (const SliceTimes& t : s.slices) {
    runs += static_cast<double>(t.runs);
    wall_s += median(t.wall_s);
  }
  return runs / wall_s;
}

/// Process user+sys CPU per campaign run, counted like runs_per_s.
double cpu_ms_per_run(const PassStats& s) {
  double runs = 0.0;
  double cpu_s = 0.0;
  for (const SliceTimes& t : s.slices) {
    runs += static_cast<double>(t.runs);
    cpu_s += median(t.cpu_s);
  }
  return 1e3 * cpu_s / runs;
}

/// Host wall time of each campaign run: the median over its executions.
std::vector<double> run_ms_per_run(const PassStats& s) {
  std::vector<double> ms;
  for (const std::vector<double>& v : s.run_ms) ms.push_back(median(v));
  return ms;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 30.0;
  unsigned trace = 0;
  std::uint64_t per_class = 0;
  unsigned jobs = 0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";

  util::ArgParser parser(
      "campaign_bench",
      "fault-campaign benchmark: end-to-end or per-layer metrics of one "
      "workload (network, ecu)");
  parser.add("workload", &workload_name, "network | ecu");
  parser.add("seed", &seed, "campaign seed (per-run seeds derive from it)");
  parser.add("seconds", &seconds, "time budget of the measured passes");
  parser.add("trace", &trace, "0 = end-to-end metrics, 1 = per-layer metrics");
  parser.add("per-class", &per_class,
             "runs per scenario class in the campaign (0 = workload "
             "default; smaller values shrink the benchmark for its tests)");
  parser.add("jobs", &jobs, "worker threads (0 = workload default)");
  parser.add("commit", &commit, "source commit, recorded with the result");
  parser.add("source-digest", &source_digest,
             "digest of the source tree, recorded with the result");
  if (!parser.parse(argc, argv, std::cerr)) return parser.exited() ? 0 : 2;

  Workload w;
  if (!make_workload(workload_name, w)) {
    std::cerr << "campaign_bench: unknown --workload '" << workload_name
              << "' (network, ecu)\n";
    return 2;
  }
  if (trace > 1) {
    std::cerr << "campaign_bench: --trace must be 0 or 1\n";
    return 2;
  }
  if (per_class > 0) {
    w.per_class = static_cast<std::size_t>(per_class);
    w.slice_per_class = std::min(w.slice_per_class, w.per_class);
  }
  if (jobs > 0) w.jobs = jobs;
  const std::size_t slice_size = w.slice_per_class * w.entries.size();
  const std::size_t campaign_runs = w.per_class * w.entries.size();
  // The end-to-end p90 must have at least ten run times beyond it.
  if (trace == 0 && beyond_p90(campaign_runs) < 10) {
    std::cerr << "campaign_bench: a campaign of " << campaign_runs
              << " runs puts fewer than 10 beyond p90; raise --per-class\n";
    return 2;
  }
  const std::size_t campaign_slices =
      (w.per_class + w.slice_per_class - 1) / w.slice_per_class;
  w.trace_slices = std::min(w.trace_slices, campaign_slices);

  // Snapshots compare like with like only between optimised, assert-free,
  // unsanitised builds.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "campaign_bench: refusing to time a non-optimised build ("
            << EASIS_BENCH_BUILD_TYPE
            << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif

  // Boot-time configuration warnings are identical in every run; keep
  // stderr I/O out of the timings.
  util::Logger::instance().set_level(util::LogLevel::kError);

  std::cout << "# campaign_bench workload=" << w.name << " seed=" << seed
            << " trace=" << trace << " jobs=" << w.jobs
            << " runs=" << campaign_runs << " slice=" << slice_size
            << " trace_runs=" << std::min(w.trace_slices * slice_size,
                                          campaign_runs)
            << '\n'
            << "# host nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << EASIS_BENCH_BUILD_TYPE
            << " compiler=\"" << EASIS_BENCH_COMPILER << "\""
            << " EASIS_PROFILING=" << (EASIS_PROFILING_ENABLED ? "ON" : "OFF")
            << " commit=" << commit << " source_digest=" << source_digest
            << '\n';

  // Set-up: spec generation, worker start and a warm-up campaign of one run
  // per class (fixed seed, so set-up does the same work for every --seed).
  // Repeated; the median is reported.
  constexpr std::uint64_t kWarmupSeed = 0x5E7;
  constexpr int kSetupReps = 7;
  std::vector<double> setup_s;
  std::vector<std::vector<harness::RunSpec>> slices;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    slices = make_slices(make_campaign(w, w.per_class, seed), slice_size);
    PassStats warmup;
    static_cast<void>(run_slice(w, make_campaign(w, 1, kWarmupSeed), 0,
                                w.jobs, false, warmup));
    setup_s.push_back(seconds_since(start));
  }

  std::vector<Metric> metrics;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const PassStats& s, const char* pass) {
    attempted += s.runs;
    failed += s.failed;
    std::cout << "# " << pass << " pass: " << s.slices_run << " slices, "
              << s.runs << " runs, " << s.wall_s << " s, result_digest="
              << s.digest << (s.digest_stable ? "" : " (UNSTABLE)") << '\n';
    if (!s.digest_stable) {
      correct = false;
      std::cout << "# FAIL: a slice's result digest differs between runs of "
                   "the same slice\n";
    }
    if (s.failed > 0) {
      correct = false;
      std::cout << "# FAIL: " << s.failed << " run(s) failed; first: "
                << s.first_failure << '\n';
    }
  };

  if (trace == 0) {
    const PassStats s = run_pass(w, slices, w.jobs, false, seconds);
    check(s, "untraced");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto n = static_cast<double>(s.runs);
    const std::vector<double> run_ms = run_ms_per_run(s);
    metrics = {
        {"runs_per_s", runs_per_s(s), "1/s"},
        {"cpu_ms_per_run", cpu_ms_per_run(s), "ms"},
        {"run_ms_p50", percentile(run_ms, 0.5), "ms"},
        {"run_ms_p90", percentile(run_ms, 0.9), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"ok_pct", 100.0 * (n - static_cast<double>(s.failed)) / n, "%"},
    };
    std::cout << "# " << s.slices.size() << " slices, each executed "
              << s.slices_run / s.slices.size() << " or "
              << (s.slices_run + s.slices.size() - 1) / s.slices.size()
              << " times; pass mean " << n / s.wall_s << " runs/s\n";
    std::cout << "# setup_s over " << setup_s.size() << " rounds:";
    for (const double t : setup_s) std::cout << ' ' << t;
    std::cout << '\n';
    std::cout << "# run time samples: n=" << run_ms.size()
              << ", beyond p90=" << beyond_p90(run_ms.size())
              << "; failed_pct=" << 100.0 * static_cast<double>(s.failed) / n
              << '\n';
  } else {
    const std::vector<std::vector<harness::RunSpec>> leading(
        slices.begin(),
        slices.begin() + static_cast<std::ptrdiff_t>(w.trace_slices));
    const PassStats plain = run_pass(w, leading, w.jobs, false, seconds / 2);
    const PassStats traced = run_pass(w, leading, w.jobs, true, seconds / 2);
    check(plain, "untraced");
    check(traced, "traced");
    if (plain.digest != traced.digest) {
      correct = false;
      std::cout << "# FAIL: traced and untraced passes disagree on the "
                   "result digest\n";
    }

    // The exact policy each run of the mode-fault family compiles first.
    std::vector<double> compile_us;
    for (int i = 0; i < 32; ++i) {
      const auto start = Clock::now();
      const policy::CompileResult compiled = policy::compile_policy(
          policy::to_text(bench::railmon_duty_policy()));
      compile_us.push_back(1e6 * seconds_since(start));
      if (!compiled.ok()) {
        correct = false;
        std::cout << "# FAIL: railmon_duty policy does not compile:\n"
                  << compiled.format() << '\n';
        break;
      }
    }

    const LayerTotals& l = traced.layers;
    const auto n = static_cast<double>(traced.runs);
    const auto self_ms = [&](const char* module) {
      const auto it = l.self_ns.find(module);
      return it == l.self_ns.end() ? 0.0
                                   : static_cast<double>(it->second) / 1e6 / n;
    };
    const auto count = [&](const char* counter) {
      const auto it = l.counters.find(counter);
      return it == l.counters.end() ? 0.0
                                    : static_cast<double>(it->second) / n;
    };
    const double run_ms = 1e3 * traced.run_wall_s / n;
    const double sim_total_ms = static_cast<double>(l.sim_total_ns) / 1e6 / n;
    const double events = count("sim.events_fired");
    const auto pn = static_cast<double>(plain.runs);
    metrics = {
        {"sim.self_ms", self_ms("sim"), "ms"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event", events > 0 ? 1e6 * sim_total_ms / events : 0.0,
         "ns"},
        {"os.self_ms", self_ms("os"), "ms"},
        {"os.segments", count("os.segments_completed"), "count"},
        {"rte.self_ms", self_ms("rte"), "ms"},
        {"rte.signals", count("rte.signals_published"), "count"},
        {"rte.heartbeats", count("rte.heartbeats"), "count"},
        {"wdg.self_ms", self_ms("wdg"), "ms"},
        {"telemetry.self_ms", self_ms("telemetry"), "ms"},
        {"telemetry.events", count("telemetry.events_published"), "count"},
        {"run.setup_ms", run_ms - sim_total_ms, "ms"},
        {"policy.compile_us", median(compile_us), "us"},
        {"harness.overhead_pct",
         100.0 * (1.0 - plain.run_wall_s / plain.capacity_s),
         "%"},
        {"harness.reduce_ms", 1e3 * plain.reduce_s / pn, "ms"},
        {"harness.events_per_run", static_cast<double>(plain.events) / pn,
         "count"},
        {"profile.unattributed_pct", 100.0 * self_ms("sim") / run_ms, "%"},
        {"profile.overhead_pct",
         100.0 * (1.0 - runs_per_s(traced) / runs_per_s(plain)), "%"},
        {"run.wall_ms", run_ms, "ms"},
    };

    // Layer table: self time of every module inside sim.run_until plus the
    // scenario-call time outside it; the rows sum to the run wall time.
    std::cout << "# per-layer self time, traced pass, mean of " << traced.runs
              << " runs (module ms share)\n";
    const auto row = [run_ms](const std::string& module, double ms) {
      std::printf("# layer %-10s %10.4f %6.2f%%\n", module.c_str(), ms,
                  100.0 * ms / run_ms);
    };
    for (const auto& [module, ns] : l.self_ns) {
      row(module, static_cast<double>(ns) / 1e6 / n);
    }
    row("run.setup", run_ms - sim_total_ms);
    std::printf("# run wall %.4f ms\n", run_ms);
  }

  for (const Metric& m : metrics) {
    std::cout << m.name << ' ' << json_number(m.value) << ' ' << m.unit
              << '\n';
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
