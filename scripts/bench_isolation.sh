#!/usr/bin/env bash
# Measures the adversarial-isolation study: wall time per load point and
# the victim-inflation medians with quotas on vs off, written to
# BENCH_isolation.json.
#
# The study's *output* is a pure function of the flags (byte-identical
# at any --jobs; gated in scripts/check.sh); only the wall times here
# depend on the host. host_cores and git_rev in the JSON say where a
# record came from.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p mosaic-bench
BIN=target/release
HOST_CORES=$(nproc)
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
LOADS=(105 120)
ISO_FLAGS=(--tenants 16 --buckets 64 --steps 800000 --churn 20000
           --hostile thrasher --quota-frac 125 --priority-spread 2)

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

# One timed run per load point (serial); the table rows give the
# quotas-on and quotas-off mosaic inflation p50 (x100 hundredths).
declare -a LOAD_MS ON_P50 OFF_P50 SELF_EVICT
for i in "${!LOADS[@]}"; do
    pct="${LOADS[$i]}"
    echo "[bench_isolation] load ${pct}% ..." >&2
    LOAD_MS[i]="$(time_ms "$BIN/tenants" "${ISO_FLAGS[@]}" --loads "$pct" --jobs 1)"
    "$BIN/tenants" "${ISO_FLAGS[@]}" --loads "$pct" --jobs 1 \
        > "$OUT_TMP/load$pct.txt" 2>/dev/null
    # Rows: "<load> on <p50>x <max>x ..." / "<load> off ..." — strip the
    # "N.NNx" multiplier back to hundredths for the JSON.
    ON_P50[i]="$(awk -v p="$pct" '$1 == p && $2 == "on"  { gsub(/[x.]/, "", $3); print $3+0; exit }' "$OUT_TMP/load$pct.txt")"
    OFF_P50[i]="$(awk -v p="$pct" '$1 == p && $2 == "off" { gsub(/[x.]/, "", $3); print $3+0; exit }' "$OUT_TMP/load$pct.txt")"
    SELF_EVICT[i]="$(awk -v p="$pct" '$1 == p && $2 == "on" { split($8, a, "/"); print a[1]; exit }' "$OUT_TMP/load$pct.txt")"
done

echo "[bench_isolation] full study --jobs ${HOST_CORES} ..." >&2
STUDY_MS="$(time_ms "$BIN/tenants" "${ISO_FLAGS[@]}" --loads "$(IFS=,; echo "${LOADS[*]}")" --jobs "$HOST_CORES")"

records() {
    local out="" i
    for i in "${!LOADS[@]}"; do
        out+="    {\"load_pct\": ${LOADS[$i]}, \"wall_ms\": ${LOAD_MS[$i]}, \"quotas_on_infl_p50_x100\": ${ON_P50[$i]}, \"quotas_off_infl_p50_x100\": ${OFF_P50[$i]}, \"mosaic_self_evictions\": ${SELF_EVICT[$i]}},"$'\n'
    done
    printf '%s' "${out%,$'\n'}"
}

cat > BENCH_isolation.json <<EOF
{
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "config": "tenants 16, buckets 64, thrasher attacker (4x share), quota 125% of fair share, priority spread 2, steps 800000, churn 20000",
  "load_points": [
$(records)
  ],
  "full_study_wall_ms_at_host_cores": ${STUDY_MS},
  "note": "Victim inflation is the per-slot mixed/solo fault-rate ratio in hundredths (100 = no inflation). Each load point replays one schedule with quotas on and off against per-slot solo baselines; byte-identical at any --jobs (gated in scripts/check.sh). Wall times are host-dependent."
}
EOF
echo "[bench_isolation] wrote BENCH_isolation.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
