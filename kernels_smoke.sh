#!/bin/sh
# Kernel micro-benchmark smoke test: run `--kernels --json` and validate
# the emitted JSON against the schema BENCH_kernels.json commits to —
# every kernels.<name>.seconds scalar must be present with a positive
# finite value.  Timings themselves are machine noise and not checked;
# this guards the metric names and the JSON plumbing, so regressions in
# either fail CI instead of silently producing an unreadable baseline.
. "$(dirname "$0")/smoke_lib.sh"

"$BENCH" --kernels --json "$dir/kernels.json" > "$dir/kernels.txt"

for key in \
  kernels.sssp_all_sources.seconds \
  kernels.mwu_unrestricted_shared.seconds \
  kernels.mwu_hop_limited_shared.seconds \
  kernels.mwu_candidates.seconds \
  kernels.mwu_candidates_sparse.seconds \
  kernels.gk_candidates.seconds \
  kernels.frt_build_grid.seconds \
  kernels.racke_forest_grid.seconds
do
  grep -q "\"$key\": [0-9]" "$dir/kernels.json" || {
    echo "kernels_smoke: missing or non-numeric metric $key" >&2
    exit 1
  }
done

echo "kernels_smoke: ok"
