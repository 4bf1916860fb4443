// Environmental detection coverage campaign (tentpole of the environment
// supervision family).
//
// The watchdog units supervise computation timing, the RSU supervises
// resource budgets; the Environment Supervision Unit covers the physical
// substrate those budgets live on: die temperature and flash wear. Every
// run injects one of eight environmental fault classes into a central
// node whose thermal model, NVM journal and one instrumented process
// section are supervised, and watches the full chain in parallel:
//
//   env_report   - the ESU's thermal/filesystem report (ladder stage,
//                  plausibility, watermark, write-error or wear rule) or
//                  the PSU's deadline-transgression report
//   fault_memory - the DTC landing in the fault memory store
//   treatment    - the class's treatment: derate parking of the QM
//                  applications, the latched persistent safe state,
//                  evict-by-priority journal degradation, commit
//                  recovery, degradation into load shedding, or an
//                  application restart
//   diag_readout - the DTC read back over UDS-lite at t=6s (the class's
//                  environment identifier is read alongside)
//
// Expected shape: every class is caught end-to-end, and the runaway class
// walks the whole ladder observably (normal>warn>derate>shutdown).
//
// Harness-ported: runs shard across --jobs workers, per-run seed is
// derive_seed(--seed, run_index), and both CSVs are byte-identical for
// any --jobs value (the environment_jobs_determinism_* ctest gates).
//
// The program is the shared bench::run_family() driver over
// environment_family(), the descriptor defined in environment_scenarios.cpp.
#include "campaign_scenarios.hpp"

int main(int argc, char** argv) {
  return easis::bench::run_family(easis::bench::environment_family(), argc, argv);
}
