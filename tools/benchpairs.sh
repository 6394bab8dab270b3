#!/usr/bin/env bash
# Compares the working tree against a revision on alternating pairs of
# repo-benchmark runs (benchmark/run.sh), the only evidence a performance
# claim rests on: the machine's speed drifts by phases, so each pair runs
# both sides back to back and the side that goes first alternates.
#
#	tools/benchpairs.sh [--short] REV WORKLOAD PAIRS SEED
#	make pairs REV=HEAD~1 W=hot_range N=10 SEED=3
#
# Both sides are exported (git archive; the working tree's side includes
# uncommitted and untracked, not ignored, files) into .bench_pairs/<tree>/
# at the root of the checkout, which is reused while the tree is the same,
# and each builds its own benchmark there. Every run's gated metrics
# (BENCHMARK.json's end_to_end) and failed operations are printed, then
# per metric both sides' medians and quartiles and the pairs the working
# tree won. --short passes benchmark/run.sh's smoke sizes.
set -euo pipefail

short=()
if [ "${1:-}" = --short ]; then
	short=(--short)
	shift
fi
if [ $# -ne 4 ]; then
	echo "usage: $0 [--short] REV WORKLOAD PAIRS SEED" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=$4

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/.bench_pairs
mkdir -p "$out"

# export TREE into .bench_pairs/TREE unless it is there; print the path
export_tree() {
	local dir=$out/$1
	if [ ! -d "$dir" ]; then
		mkdir -p "$dir.tmp"
		git archive "$1" | tar -x -C "$dir.tmp"
		mv "$dir.tmp" "$dir"
	fi
	echo "$dir"
}

index=$out/index
rm -f "$index"
GIT_INDEX_FILE=$index git add -A
work_tree=$(GIT_INDEX_FILE=$index git write-tree)
rm -f "$index"
rev_tree=$(git rev-parse "$rev^{tree}")
base_dir=$(export_tree "$rev_tree")
work_dir=$(export_tree "$work_tree")
echo "pairs: $rev ($rev_tree) -> working tree ($work_tree), $workload, seed $seed, $pairs pairs ${short[*]}"

runs=$out/runs
rm -rf "$runs"
mkdir -p "$runs"
run_side() { # side pair
	local dir=$base_dir
	[ "$1" = change ] && dir=$work_dir
	(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" "${short[@]}") \
		>"$runs/$1-$2.out" 2>&1 || true
	if ! tail -n 1 "$runs/$1-$2.out" | grep -q '^{'; then
		echo "pairs: $1 run $2 printed no result:" >&2
		tail -n 20 "$runs/$1-$2.out" >&2
		exit 1
	fi
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run_side base "$i"
		run_side change "$i"
	else
		run_side change "$i"
		run_side base "$i"
	fi
	echo "pair $i done"
done

python3 - "$runs" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]

def result(side, i):
    with open(f"{runs}/{side}-{i}.out") as f:
        return json.loads(f.read().strip().splitlines()[-1])

res = {s: [result(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}
names = [m[0] for m in metrics]
print("side    pair  failed/attempted  " + "  ".join(f"{n:>22}" for n in names))
for i in range(pairs):
    for s in ("base", "change"):
        r = res[s][i]
        vals = "  ".join(f"{r['metrics'][n]['value']:22.4f}" for n in names)
        print(f"{s:<7} {i + 1:>4}  {r['failed']:>8}/{r['attempted']:<8} {vals}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print()
print(f"{'metric':<22} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} {'change':>8} {'wins':>6} {'beyond base IQR':>16} {'bound':>6}")
for name, better, bound in metrics:
    b = [r["metrics"][name]["value"] for r in res["base"]]
    c = [r["metrics"][name]["value"] for r in res["change"]]
    bq, cq = quartiles(b), quartiles(c)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    beyond = abs(cq[1] - bq[1]) > bq[2] - bq[0]
    print(f"{name:<22} {bq[1]:12.2f} [{bq[0]:9.2f}, {bq[2]:9.2f}] {cq[1]:12.2f} [{cq[0]:9.2f}, {cq[2]:9.2f}] "
          f"{rel:+8.1%} {wins:>3}/{pairs:<2} {'yes' if beyond else 'no':>16} {bound:>6}")
failed = {s: sum(r["failed"] for r in res[s]) for s in res}
print(f"\nfailed operations: base {failed['base']}, change {failed['change']}")
EOF
