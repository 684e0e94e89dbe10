#!/bin/bash
# Single source of truth for the bench binary manifest. CI jobs and
# run_experiments.sh source this file instead of hard-coding bin lists;
# crates/bench/tests/manifest.rs asserts every src/bin target is listed
# in exactly one group and that results/baselines/ holds exactly one
# baseline per SIM_BINS entry (plus service/<SERVICE_BINS name>*.json), so
# adding a bench binary without classifying it here, or leaving a baseline
# behind, fails the build.
#
#   SIM_BINS     — simulated-GPU experiments (deterministic, thread-count
#                  invariant; the bench-smoke matrix runs each at
#                  --threads 1, 2 and 8 and demands equivalent reports)
#   SERVICE_BINS — network-facing tools driving a live csmv-service
#                  (the service-smoke job runs these against localhost)
#   TOOL_BINS    — non-experiment utilities (never run as benches)

SIM_BINS="table5 bank_suite mc_suite multiserver"
SERVICE_BINS="loadgen"
TOOL_BINS="bench-gate"
