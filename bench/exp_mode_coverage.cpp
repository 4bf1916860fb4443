// Mode-coverage campaign (tentpole of the power-mode subsystem).
//
// The paper's watchdog assumes continuously alive supervised entities; a
// duty-cycled sensor node is silent *by contract* for most of its life.
// Every run builds a fresh RailMon node whose duty cycle (Run ->
// FlashWrite -> Sleep -> WakeBurst -> Run) is supervised through the
// railmon_duty policy's per-mode overlays, injects one of six mode-aware
// fault classes, and watches the full chain in parallel:
//
//   mode_report  - the ModeSupervisionUnit's kPowerMode error report
//                  (dwell overstay, hung transition, repeated refusals,
//                  or a heartbeat violating the sleep silence contract)
//   fault_memory - the DTC the FMF stores for the RailMon application
//   treatment    - the FMF's reaction (restart / reset / safe state)
//   diag_readout - the kPowerMode DTC plus the power-mode identifiers
//                  (DID 0x010F / 0x0110) read back over UDS-lite at t=6s
//
// Expected shape: every class is caught by the mode unit and flows
// end-to-end into a readable DTC — with ZERO false alarms during the
// pre-injection window, which covers a full duty cycle including a
// legitimate deep-sleep silence, a flash window and a wake storm.
//
// Harness-ported: runs shard across --jobs workers, per-run seed is
// derive_seed(--seed, run_index), and both CSVs are byte-identical for
// any --jobs value (the mode_jobs_determinism_* ctest gates).
//
// The program is the shared bench::run_family() driver over
// mode_family(), the descriptor defined in mode_scenarios.cpp.
#include "campaign_scenarios.hpp"

int main(int argc, char** argv) {
  return easis::bench::run_family(easis::bench::mode_family(), argc, argv);
}
