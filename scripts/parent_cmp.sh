#!/usr/bin/env bash
# Byte-identity check of the working tree against an earlier revision.
#
#   scripts/parent_cmp.sh <rev>        # e.g. scripts/parent_cmp.sh HEAD~1
#
# Extracts <rev> with `git archive` into a temporary directory (the
# repository itself is left untouched), builds it offline with its own
# target dir, builds the working tree, then runs both builds on
# scripts/check.sh's flag sets for every binary that drives a memory
# manager, each with --obs-out, and `cmp`s stdout and the JSONL stream.
# Exits 1 naming the first run that differs, 2 on a usage error.
# Uncommitted changes in the working tree are part of the comparison.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/parent_cmp.sh <rev>" >&2
  exit 2
fi
rev="$1"
if ! git rev-parse --verify -q "$rev^{commit}" > /dev/null; then
  echo "error: $rev is not a revision of this repository" >&2
  exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/src" "$WORK/out"

echo "==> building $rev ($(git rev-parse --short "$rev")) in $WORK"
git archive "$rev" | tar -x -C "$WORK/src"
(cd "$WORK/src" && CARGO_TARGET_DIR="$WORK/target" \
  cargo build --release --offline -q -p mosaic-bench)
echo "==> building the working tree"
cargo build --release --offline -q -p mosaic-bench

TEN=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,110)
ISO=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,105
     --hostile thrasher --quota-frac 125 --priority-spread 2 --fault-ppm 200)
CON=("${TEN[@]}" --shared-traces --concurrent-alloc)
RUNS=(
  "table3 --jobs 2"
  "table4 --buckets 16 --jobs 2 --obs-interval 50000"
  "table4 --buckets 16 --fault-ppm 200 --jobs 2 --obs-interval 50000"
  "tenants ${TEN[*]} --jobs 2 --obs-interval 20000"
  "tenants ${TEN[*]} --fault-ppm 200 --jobs 2 --obs-interval 20000"
  "tenants ${ISO[*]} --jobs 2 --obs-interval 20000"
  "tenants ${CON[*]} --jobs 2 --obs-interval 20000"
  "attrib --jobs 2 --obs-interval 20000"
  "attrib --fault-ppm 20000 --jobs 2 --obs-interval 20000"
  "ablation --buckets 48 --jobs 2 --obs-interval 50000"
  "fig6 gups --scale 0 --jobs 2"
  "fig6 all --scale 0 --attrib --obs-interval 5000 --jobs 2"
)

n=0
for run in "${RUNS[@]}"; do
  n=$((n + 1))
  read -r -a argv <<< "$run"
  bin="${argv[0]}"
  args=("${argv[@]:1}")
  for side in old new; do
    if [[ "$side" == old ]]; then exe="$WORK/target/release/$bin"; else exe="target/release/$bin"; fi
    if ! "$exe" "${args[@]}" --obs-out "$WORK/out/$side-$n.jsonl" \
        > "$WORK/out/$side-$n.txt" 2> /dev/null; then
      echo "FAIL: $side build exited nonzero on: $run" >&2
      exit 1
    fi
  done
  for stream in txt jsonl; do
    if ! cmp -s "$WORK/out/old-$n.$stream" "$WORK/out/new-$n.$stream"; then
      what=stdout
      [[ "$stream" == jsonl ]] && what="--obs-out JSONL"
      echo "DIFFERS ($what): $run" >&2
      cmp "$WORK/out/old-$n.$stream" "$WORK/out/new-$n.$stream" >&2 || true
      exit 1
    fi
  done
  echo "same: $run"
done
echo "All ${#RUNS[@]} runs byte-identical to $rev."
