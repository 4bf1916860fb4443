// Tentpole experiment: network fault detection coverage.
//
// The paper's coverage outlook (exp_coverage) attacks *computation*; this
// campaign attacks *communication*: randomized injections of the five
// network fault classes (frame corruption, correlated loss bursts, a
// babbling-idiot node, network partition, gateway stall) against the
// E2E-protected vehicle network, detected in parallel by the four layers
// of the protected communication chain:
//
//   e2e_check        - the receiver's per-frame E2E verdict (CRC/sequence)
//   cmu_report       - the Communication Monitoring Unit's error reports
//                      into the watchdog (E2E failures + silence timeouts)
//   signal_qualifier - SafeSpeed's reception-deadline qualifier leaving
//                      kValid (the application-visible degradation)
//   node_supervisor  - heartbeat supervision of a remote node on the same
//                      CAN (detects bus-level faults, blind to gateway ones)
//
// Expected shape: corruption is caught frame-by-frame by the E2E check;
// starvation and partition are invisible to the CRC but caught by the
// timeout layers; a gateway stall is invisible to the bus-level node
// supervisor (heartbeats do not cross the gateway) yet still degrades the
// application's signal qualifier.
//
// Ported onto the campaign harness: runs shard across --jobs workers, the
// per-run seed is derive_seed(--seed, run_index), and the result CSV is
// byte-identical for any --jobs value.
//
// The program is the shared bench::run_family() driver over
// network_family(), the descriptor defined in campaign_scenarios.cpp.
#include "campaign_scenarios.hpp"

int main(int argc, char** argv) {
  return easis::bench::run_family(easis::bench::network_family(), argc, argv);
}
