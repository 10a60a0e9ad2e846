#!/bin/sh
# benchpairs.sh — the end-to-end benchmark of the working tree against a base
# revision, in alternating pairs:
#
#   tools/benchpairs.sh <base-rev> [pairs]     # or: make bench-pairs BASE=<rev> PAIRS=10
#
# Builds the bench binary once at <base-rev>, from a temporary checkout made
# with `git archive`, and once from the working tree. Then runs <pairs> pairs
# of `bench -workload all`, pair i with seed i, the base side first in odd
# pairs and the working tree first in even ones; each side runs in its own
# tree and appends to its own -out file, .bench_pairs/parent.json and
# .bench_pairs/change.json (both emptied first). Ends with
# `bench -compare parent.json change.json` and exits with its status.
# Slow (two `-workload all` runs per pair), so not part of `make ci`.
set -eu

base=${1:?usage: tools/benchpairs.sh <base-rev> [pairs]}
pairs=${2:-10}
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_pairs"
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git archive --format=tar "$base" | tar -xf - -C "$tmp"
(cd "$tmp" && go build -o "$out/bench-parent" ./bench)
go build -o "$out/bench-change" ./bench
rm -f "$out/parent.json" "$out/change.json"

# side <parent|change> <seed>: one `-workload all` run in that side's tree.
side() {
    dir=$root
    [ "$1" = parent ] && dir=$tmp
    echo "benchpairs: seed $2, $1" >&2
    (cd "$dir" && "$out/bench-$1" -workload all -seed "$2" -out "$out/$1.json" >/dev/null)
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        side parent "$i"
        side change "$i"
    else
        side change "$i"
        side parent "$i"
    fi
    i=$((i + 1))
done

"$out/bench-change" -compare "$out/parent.json" "$out/change.json"
