#!/bin/bash
# Single source of truth for the bench binary manifest. CI jobs and
# run_experiments.sh source this file instead of hard-coding bin lists;
# crates/bench/tests/manifest.rs asserts every src/bin target is listed
# in exactly one group, so adding a bench binary without classifying it
# here fails the build.
#
#   SIM_BINS     — simulated-GPU experiments (deterministic, thread-count
#                  invariant; the parallel-equivalence and bench-smoke
#                  matrices iterate these)
#   NATIVE_BINS  — native host-threaded backend benches (real throughput,
#                  machine-dependent; gated with thresholds, not equality)
#   SERVICE_BINS — network-facing tools driving a live csmv-service
#                  (the service-smoke job runs these against localhost)
#   TOOL_BINS    — non-experiment utilities (never run as benches)

SIM_BINS="fig2 fig3 fig4 table1 table2 table3 table4 table5 bank_suite mc_suite multiserver"
NATIVE_BINS="native_suite native_equiv"
SERVICE_BINS="loadgen"
TOOL_BINS="bench-gate"
