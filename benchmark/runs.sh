#!/usr/bin/env bash
# Runs every workload <count> times untraced, with seeds first..first+count-1,
# and once traced with seed first, from the checkout root. Each run's
# standard output goes to <outdir>/<workload>/seed<N>.json (traced:
# trace-seed<N>.json), the layout --compare reads:
#
#   bash benchmark/runs.sh .bench_build/runs/parent 10
#   bash benchmark/runs.sh .bench_build/runs/change 10
#   bash benchmark/run.sh --compare .bench_build/runs/parent .bench_build/runs/change
#
# Seeds run in the outer loop, so machine drift spreads over all workloads.
set -euo pipefail
out=$1
count=${2:-5}
first=${3:-1}
cd "$(dirname "$0")/.."
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads="hot-cache cold-search live-mixed cold-start"
for seed in $(seq "$first" $((first + count - 1))); do
	for w in $workloads; do
		mkdir -p "$out/$w"
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w/seed$seed.json"
	done
done
for w in $workloads; do
	bash benchmark/run.sh --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 >"$out/$w/trace-seed$first.json"
done
