#!/usr/bin/env bash
# The performance gate: bash scripts/perfgate.sh BASE
#
# Runs perfbench for every workload in BENCHMARK.json, in 3 pairs at the
# commit BASE and at the working tree, alternating which tree runs first,
# and fails when `reportcheck -compare` finds an end-to-end metric worse
# than its bound, a run with correct: false, or a larger failed share. The
# failing workloads are then re-run with --trace 1 on both trees, and
# reportcheck names the per-layer metric that moved most. BASE is extracted
# with git archive (nothing is fetched), and its BENCHMARK.json sets the
# workloads, the run length and the bounds, so a change cannot loosen its
# own gate. Needs git, go and jq.
set -euo pipefail
readonly pairs=3 seed=1
[ $# -eq 1 ] || { echo "usage: bash scripts/perfgate.sh BASE" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$1" | tar -x -C "$work/base"
bench="$work/base/BENCHMARK.json"
seconds=$(jq .run_seconds "$bench")
(cd "$root" && go build -o "$work/reportcheck" ./cmd/reportcheck)

# run SIDE DIR TRACE WORKLOAD appends a perfbench result line to $work/SIDE-TRACE.jsonl.
run() {
	echo "perfgate: $4 --trace $3 at $1" >&2
	# A failed output check prints a correct: false line, then exits 1.
	line=$(cd "$2" && bash perfbench/run.sh --workload "$4" --seed $seed --seconds "$seconds" \
		--trace "$3" | grep '^{' | tail -n 1) || true
	[ -n "$line" ] || { echo "perfgate: perfbench printed no result for $4 at $1" >&2; exit 1; }
	echo "{\"workload\": \"$4\", \"run\": $line}" >>"$work/$1-$3.jsonl"
}

# gate TRACE WORKLOAD... runs the pairs, the base first in even ones, and compares.
gate() {
	local trace=$1 w i
	shift
	for w in "$@"; do
		for ((i = 0; i < pairs; i++)); do
			if ((i % 2 == 0)); then
				run base "$work/base" "$trace" "$w"; run change "$root" "$trace" "$w"
			else
				run change "$root" "$trace" "$w"; run base "$work/base" "$trace" "$w"
			fi
		done
	done
	"$work/reportcheck" -compare "$bench" "$work/base-$trace.jsonl" "$work/change-$trace.jsonl" |
		tee "$work/compare-$trace.txt"
}

mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
gate 0 "${workloads[@]}" && exit 0
mapfile -t failing < <(awk '$1 == "FAIL" && !seen[$2]++ { print $2 }' "$work/compare-0.txt")
[ ${#failing[@]} -eq 0 ] || gate 1 "${failing[@]}" || true
exit 1
