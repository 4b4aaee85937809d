#!/usr/bin/env bash
# Runs the full-step criterion benches (crates/bench/benches/step.rs)
# and writes BENCH_step.json: ns/access per benchmark label (min over
# $RUNS repeats, default 3 — the shared hosts are noisy) for the batched
# step engine on the Figure 6 grid and per TLB design.
#
# ns/access figures are host-dependent; the bench-delta check against
# this baseline is warn-only. What must NOT drift (byte-identical
# goldens at every --batch and --jobs value) is gated hard in
# scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-3}"
# Stretch each measurement well past the host's scheduler-noise floor:
# 100 iterations x ~10-25 ms per 8192-access trace = 1-2.5 s per label.
export CRITERION_ITERS="${CRITERION_ITERS:-100}"
HOST_CORES=$(nproc)
# The measured source: the commit, marked -dirty when the tree has edits.
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for i in $(seq "$RUNS"); do
    echo "[bench_step] cargo bench --bench step (run ${i}/${RUNS}) ..." >&2
    cargo bench -q --offline -p mosaic-bench --bench step >> "$TMP/raw.txt"
done

# Shim lines look like:
#   bench dual_sim_batch/batched/no_kernel    1.23ms/iter (10 iters)
# Durations use Rust's Duration debug format (ns/µs/ms/s). Both groups
# replay an 8192-access trace per iteration.
awk '
/^bench / {
    label = $2
    dur = $3
    sub(/\/iter$/, "", dur)
    match(dur, /^[0-9.]+/)
    num = substr(dur, 1, RLENGTH) + 0
    unit = substr(dur, RLENGTH + 1)
    mult = 1
    if (unit == "\302\265s" || unit == "us") mult = 1000
    else if (unit == "ms") mult = 1000000
    else if (unit == "s") mult = 1000000000
    ns = num * mult / 8192
    if (!(label in best) || ns < best[label]) best[label] = ns
    if (!(label in idx)) { idx[label] = ++n; names[n] = label }
}
END {
    for (i = 1; i <= n; i++)
        printf "%s %.2f\n", names[i], best[names[i]]
}
' "$TMP/raw.txt" > "$TMP/best.txt"

entries=""
while read -r label ns; do
    entries+="    \"${label}\": ${ns},"$'\n'
done < "$TMP/best.txt"

cat > BENCH_step.json <<EOF
{
  "benchmark": "full-step ns/access budget (benches/step.rs, min of ${RUNS} runs)",
  "recorded": "$(date -u +%F)",
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "accesses_per_iter": {"dual_sim_batch": 8192, "design_step": 8192},
  "ns_per_access": {
$(printf '%s' "${entries%,$'\n'}")
  },
  "note": "dual_sim_batch drives the full Figure 6 grid (5 associativities x [vanilla + 5 mosaic arities] = 30 instances) at the paper's 1024-entry TLB over a 16384-page pool with obs counters bound and published at every batch end, so ns/access here is per workload access across all 30 instances. design_step is one associativity with the vanilla instance plus at most one mosaic instance, obs unbound."
}
EOF
echo "[bench_step] wrote BENCH_step.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
