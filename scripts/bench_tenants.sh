#!/usr/bin/env bash
# Measures the multi-tenant sweep: wall time and per-tenant p99 fault
# rates at three load points, written to BENCH_tenants.json.
#
# The sweep's *output* is a pure function of the flags (byte-identical
# at any --jobs; gated in scripts/check.sh); only the wall times here
# depend on the host. host_cores and git_rev in the JSON say where a
# record came from.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p mosaic-bench
BIN=target/release
HOST_CORES=$(nproc)
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
LOADS=(90 105 120)
TEN_FLAGS=(--tenants 64 --buckets 64 --steps 400000 --churn 20000)

# Wall time of one invocation, in milliseconds.
time_ms() {
    local start end
    start=$(date +%s%N)
    "$@" >/dev/null 2>&1
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

OUT_TMP="$(mktemp -d)"
trap 'rm -rf "$OUT_TMP"' EXIT

# One timed run per load point (serial), plus the full sweep at the
# host's core count for the parallel wall time.
declare -a LOAD_MS MOSAIC_P99 LINUX_P99
for i in "${!LOADS[@]}"; do
    pct="${LOADS[$i]}"
    echo "[bench_tenants] load ${pct}% ..." >&2
    LOAD_MS[i]="$(time_ms "$BIN/tenants" "${TEN_FLAGS[@]}" --loads "$pct" --jobs 1)"
    "$BIN/tenants" "${TEN_FLAGS[@]}" --loads "$pct" --jobs 1 \
        > "$OUT_TMP/load$pct.txt" 2>/dev/null
    # The percentile line: "... mosaic p50 A / p99 B / max C | linux p50 D / p99 E / max F"
    MOSAIC_P99[i]="$(awk '/per-tenant fault ppm/ { print $9; exit }' "$OUT_TMP/load$pct.txt")"
    LINUX_P99[i]="$(awk '/per-tenant fault ppm/ { print $19; exit }' "$OUT_TMP/load$pct.txt")"
done

echo "[bench_tenants] full sweep --jobs ${HOST_CORES} ..." >&2
SWEEP_MS="$(time_ms "$BIN/tenants" "${TEN_FLAGS[@]}" --loads "$(IFS=,; echo "${LOADS[*]}")" --jobs "$HOST_CORES")"

records() {
    local out="" i
    for i in "${!LOADS[@]}"; do
        out+="    {\"load_pct\": ${LOADS[$i]}, \"wall_ms\": ${LOAD_MS[$i]}, \"mosaic_p99_fault_ppm\": ${MOSAIC_P99[$i]}, \"linux_p99_fault_ppm\": ${LINUX_P99[$i]}},"$'\n'
    done
    printf '%s' "${out%,$'\n'}"
}

cat > BENCH_tenants.json <<EOF
{
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "config": "tenants 64, buckets 64, Zipf theta 0.99, steps 400000, churn 20000",
  "load_points": [
$(records)
  ],
  "full_sweep_wall_ms_at_host_cores": ${SWEEP_MS},
  "note": "Per-tenant p99 fault rates (ppm) from the fairness percentile line of each load point; byte-identical at any --jobs (gated in scripts/check.sh). Wall times are host-dependent; on a single-core container the parallel sweep records engine overhead, not speedup."
}
EOF
echo "[bench_tenants] wrote BENCH_tenants.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
