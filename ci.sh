#!/bin/sh
# CI entry point: build everything, run the test suite, then check the
# full experiment tables under --no-timing against
# bench/golden_experiments.txt byte for byte, once on 4 worker domains
# (the parallel engine's output must not depend on the job count) and
# once at the default job count, then smoke-test the
# artifact cache by running E5 cold/warm in a temporary store
# (byte-identical output, at least one recorded hit), the kernel
# micro-benchmarks by validating their JSON schema, the tracing
# subsystem by recording a kernel trace at two job counts (identical
# event sequences) and running the `sso trace` analyzers over it, and
# the fault-injection subsystem via `sso faults` (jobs-invariant sweeps,
# a dropped-free mid-flight SRLG failover, cached warm sweeps), the
# arena path storage at scale (--scale on a 50k-switch fat-tree,
# warm-cache byte-identical to cold, bytes/pair reduction gate), the
# routing service via `sso serve` (a 10k-update churn stream replayed
# byte-identically at --jobs 1 and 4, stream exit codes 10/11 honored),
# the telemetry layer (a --metrics-out Prometheus exposition scrape
# validated line by line, the --slo-p99-ms burn exit, and jobs-invariant
# `sso trace flame` folded stacks), and the crash-safety layer via the
# chaos harness (kill-and-resume digest-identical, bit-flipped
# checkpoints and streams always exit 11, faulted replays
# jobs-invariant), and the end-to-end benchmark's self-test (its
# correctness checks still trip on known-bad inputs).
#
# Fails fast: the first failing step stops the run, and the last stderr
# line names the step that broke.
set -eu

run_step() {
  echo "+ $*" >&2
  "$@" || {
    rc=$?
    echo "ci.sh: FAILED in $* (exit $rc)" >&2
    exit "$rc"
  }
}

run_step dune build
run_step dune runtest
run_step sh -c 'dune exec bench/main.exe -- --no-timing --jobs 4 | diff -u bench/golden_experiments.txt -'
run_step sh -c 'dune exec bench/main.exe -- --no-timing | diff -u bench/golden_experiments.txt -'
run_step ./cache_smoke.sh
run_step ./kernels_smoke.sh
run_step ./trace_smoke.sh
run_step ./faults_smoke.sh
run_step ./scale_smoke.sh
run_step ./serve_smoke.sh
run_step ./obs_smoke.sh
run_step ./chaos_smoke.sh
run_step python3 perfbench/run.py --self-test
