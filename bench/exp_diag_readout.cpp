// Diagnostic readout accuracy campaign (tentpole of the diag subsystem).
//
// Every run injects one fault class into a central node with reset-safe
// fault memory and then performs a full UDS-lite workshop readout at t=3s
// (TesterPresent, reportDtcCount, reportDtcs, freeze frame of the expected
// DTC). The run's verdict cross-checks the read-out fault memory against
// the injected class:
//
//   correct_dtc              - the expected DTC (application + error type)
//                              is present in the readout
//   missing_dtc / wrong_dtc  - fault memory disagrees with the injection
//   flagged_negative_response- the server refused broken request content
//                              with an explicit NRC (never silence)
//   readout_timeout          - the tester's supervision caught a dead
//                              response path
//
// Three computation classes (aliveness, arrival rate, program flow) must
// land on correct_dtc: the diagnosis-accuracy figure of the campaign.
// Three diag-layer classes attack the readout chain itself (corrupted SID,
// response drop, reset blackout) and must degrade into their explicit
// flag — a wrong-but-plausible readout is the failure mode a dependable
// diagnostic stack exists to exclude.
//
// Harness-ported: runs shard across --jobs workers, per-run seed is
// derive_seed(--seed, run_index), and the per-run verdict CSV is
// byte-identical for any --jobs value (a ctest gate enforces this).
//
// The program is the shared bench::run_family() driver over
// diag_family(), the descriptor defined in campaign_scenarios.cpp.
#include "campaign_scenarios.hpp"

int main(int argc, char** argv) {
  return easis::bench::run_family(easis::bench::diag_family(), argc, argv);
}
