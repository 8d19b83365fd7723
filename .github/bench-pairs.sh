#!/usr/bin/env bash
# Compares the benchmark at a base commit with the checkout's HEAD, on one
# machine, in alternated pairs:
#
#   bash .github/bench-pairs.sh <base-commit>
#
# Both sides are built once with benchmark/run.sh (the base in a git
# worktree under .bench_build/) and run from this checkout's root, so they
# share .bench_build/. Every workload in BENCHMARK.json runs 5 times a side
# at --seed 1, the side that goes first alternating: each is the only speed
# gate on some code (train_conv the GEMM and conv kernels, train_attn
# attention, round_scale and split_async the coordinator, serve_tcp
# serving). The script exits non-zero if any end-to-end metric's median is
# worse than the base's by more than that metric's bound in BENCHMARK.json,
# or if the change fails more operations than the base. Needs git, go and
# jq.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

(($# == 1)) || { echo "usage: bench-pairs.sh <base-commit>" >&2; exit 2; }
base=$1
pairs=5

out=.bench_build/pairs
tree=$out/base
rm -rf "$out"
mkdir -p "$out"
git worktree prune
git worktree add --detach -q "$tree" "$base"
trap 'git worktree remove --force "$tree"' EXIT

# The workloads both sides' BENCHMARK.json declare; one the base lacks is
# only named.
known() {
	jq -rn --slurpfile h BENCHMARK.json --slurpfile b "$tree/BENCHMARK.json" --argjson in "$1" '
		$h[0].workloads[].name | select(IN($b[0].workloads[].name) == $in)'
}
mapfile -t workloads < <(known true)
known false | sed 's/$/\tnew workload, not compared/'

# --smoke builds each side's end-to-end binary and runs it for a second.
(cd "$tree" && bash benchmark/run.sh --workload round_scale --smoke >/dev/null)
bash benchmark/run.sh --workload round_scale --smoke >/dev/null
declare -A bin=([base]="$tree/.bench_build/benchmark" [head]=.bench_build/benchmark)

for w in "${workloads[@]}"; do
	for i in $(seq "$pairs"); do
		order=(base head)
		((i % 2)) || order=(head base)
		for side in "${order[@]}"; do
			"${bin[$side]}" --workload "$w" --seed 1 | tail -1 >>"$out/$w.$side"
		done
	done
done

# One line per (workload, metric): base and head medians, the change in
# per cent (positive is worse), the bound, and a verdict; then the failed
# operations of each side. A rise from a base median of 0 is infinitely
# worse; a metric the base does not emit is reported "new" and not judged,
# one the change stops emitting is WORSE.
status=0
for w in "${workloads[@]}"; do
	jq -nr --arg w "$w" --slurpfile spec BENCHMARK.json \
		--slurpfile base "$out/$w.base" --slurpfile head "$out/$w.head" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def med($name): map(.metrics[$name].value) | if any(. == null) then null else median end;
		def fmt: if . == null then "" else . * 1000 | round / 1000 end;
		def pct: if . == infinite then "+inf" elif . == -infinite then "-inf"
			else 100 * . | fmt + 0 | tostring end + "%";
		($spec[0].end_to_end[] as $m
			| ($base | med($m.name)) as $b
			| ($head | med($m.name)) as $h
			| (if $m.better == "lower" then 1 else -1 end) as $sign
			| [$w, $m.name, ($b | fmt), ($h | fmt)] + (
				if $h == null and $b != null then ["missing", "", "WORSE"]
				elif $b == null then ["new", "", "ok"]
				else (if $b != 0 then ($h / $b - 1) * $sign
					elif $h == 0 then 0
					elif $h * $sign > 0 then infinite
					else -infinite end) as $worse
					| [($worse | pct), "bound " + (100 * $m.bound | tostring) + "%",
						if $worse > $m.bound then "WORSE" else "ok" end]
				end)),
		([$base, $head] | map(map(.failed) | add) as [$fb, $fh]
			| [$w, "failed", $fb, $fh, "", "", if $fh > $fb then "WORSE" else "ok" end])
		| @tsv' >"$out/$w.report"
	cat "$out/$w.report"
	if grep -q 'WORSE$' "$out/$w.report"; then status=1; fi
done
exit "$status"
