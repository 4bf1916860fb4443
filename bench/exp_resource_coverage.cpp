// Resource-exhaustion detection coverage campaign (tentpole of the
// resource-supervision unit family).
//
// The watchdog units of the paper supervise computation timing; the
// Resource Supervision Unit supervises the *creeping* failure class real
// ECUs die from long before a heartbeat is missed: heap leaks, descriptor
// exhaustion, queue floods and CPU overload. Every run injects one of six
// resource fault classes into a budgeted central node and watches the
// full treatment chain in parallel:
//
//   rsu_report   - the RSU's error report into the watchdog (watermark,
//                  exhaustion or leak-rate rule)
//   task_state   - the TSI rolling the bound task to faulty once the
//                  per-type threshold is crossed
//   treatment    - the FMF's reaction: application restart with resource
//                  pool reclaim, or — for the CPU classes — degradation
//                  into load shedding of the QM light-control application
//   diag_readout - the resource DTC (with its freeze-framed resource
//                  snapshot) read back over UDS-lite at t=6s
//
// Expected shape: every class is caught by the RSU and flows end-to-end
// into a readable DTC; the memory/handle/queue classes end in a restart,
// the CPU classes in load shedding.
//
// Harness-ported: runs shard across --jobs workers, per-run seed is
// derive_seed(--seed, run_index), and both CSVs are byte-identical for
// any --jobs value (the resource_jobs_determinism_* ctest gates).
//
// The program is the shared bench::run_family() driver over
// resource_family(), the descriptor defined in resource_scenarios.cpp.
#include "campaign_scenarios.hpp"

int main(int argc, char** argv) {
  return easis::bench::run_family(easis::bench::resource_family(), argc, argv);
}
