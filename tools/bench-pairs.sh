#!/bin/sh
# The "did a change gain?" half of perf/README.md's noise protocol as one
# command: alternating pairs of parent and change on one or more workloads.
#
#   tools/bench-pairs.sh <parent-tree> <change-tree> <workloads> [pairs=10] [seed=101] [dir]
#
# <workloads> is a comma-separated list of workload names, or `all` for
# every workload the change tree's BENCHMARK.json names. Builds both trees'
# perf/ packages, then runs the command BENCHMARK.json pins from inside each
# tree with `--seconds 30 --trace 0 --out`, every listed workload per pair,
# parent first in even pairs and change first in odd ones, into the result
# sets <dir>/parent.json and <dir>/change.json. It then prints, per workload
# and end-to-end metric, who won each pair and each side's median and
# quartiles, and last the exit status of `perf repeat parent.json
# change.json`.
#
# `perf repeat` compares all four workloads and fails on a set that lacks
# one, so `all` is what fills both sets in one invocation (about 45 minutes
# at ten pairs). <dir> defaults to a fresh temporary directory, which is
# printed; pass the directory of an earlier invocation to append to its
# sets. The trees must build offline (a checkout, or a copy made by
# offline-workspace.sh). Run nothing else on the machine meanwhile.
set -eu

if [ "$#" -lt 3 ] || [ "$#" -gt 6 ]; then
    echo "usage: $0 <parent-tree> <change-tree> <workload[,workload...]|all> [pairs=10] [seed=101] [dir]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${4:-10}
seed=${5:-101}
if [ "$3" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$change/BENCHMARK.json")
else
    workloads=$(echo "$3" | tr ',' ' ')
fi

# One target directory per tree, or each run would rebuild the other's.
unset CARGO_TARGET_DIR
perf() {
    (cd "$1" && shift && cargo run --release --quiet --manifest-path perf/Cargo.toml -- "$@")
}
for tree in "$parent" "$change"; do
    [ -f "$tree/perf/Cargo.toml" ] || { echo "$0: $tree has no perf/Cargo.toml" >&2; exit 2; }
    cargo build --release --quiet --manifest-path "$tree/perf/Cargo.toml"
done

if [ "$#" -eq 6 ]; then
    mkdir -p "$6"
    dir=$(cd "$6" && pwd)
else
    dir=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
fi
echo "result sets: $dir/parent.json $dir/change.json"
run() {
    perf "$1" --workload "$3" --seed "$seed" --seconds 30 --trace 0 \
        --out "$dir/$2.json" >>"$dir/$2.log"
}
pair=0
while [ "$pair" -lt "$pairs" ]; do
    for workload in $workloads; do
        if [ $((pair % 2)) -eq 0 ]; then
            run "$parent" parent "$workload"
            run "$change" change "$workload"
        else
            run "$change" change "$workload"
            run "$parent" parent "$workload"
        fi
    done
    pair=$((pair + 1))
    echo "pair $pair/$pairs done"
done

# shellcheck disable=SC2086 # one argument per workload
python3 - "$dir" $workloads <<'PY'
import json
import statistics
import sys

directory, *workloads = sys.argv[1:]
sets = {
    side: json.load(open(f"{directory}/{side}.json"))["end_to_end"]
    for side in ("parent", "change")
}
for workload in workloads:
    print(f"== {workload}")
    runs = {side: sets[side][workload] for side in sets}
    for side, rs in runs.items():
        digests = sorted({r["digest"][:8] for r in rs})
        failed = sum(r["failed"] for r in rs)
        print(f"{side}: {len(rs)} runs, digests {digests}, checks failed {failed}")
    for metric, higher_is_better in (("rtf", True), ("peak_rss_mib", False), ("setup_s", False)):
        p, c = ([r["metrics"][metric]["value"] for r in runs[side]] for side in ("parent", "change"))
        better = (lambda a, b: a > b) if higher_is_better else (lambda a, b: a < b)
        winners = "".join("c" if better(y, x) else "p" if better(x, y) else "=" for x, y in zip(p, c))
        print(f"{metric}: pairs {winners} (change wins {winners.count('c')}, parent {winners.count('p')})")
        for side, values in (("parent", p), ("change", c)):
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = median = q3 = values[0]
            print(f"  {side}: median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}  ({(q3 - q1) / median:.1%})")
        print(f"  change / parent (medians): {statistics.median(c) / statistics.median(p):.3f}")
PY

status=0
perf "$change" repeat "$dir/parent.json" "$dir/change.json" || status=$?
echo "perf repeat exit status: $status"
