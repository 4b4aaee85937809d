#!/usr/bin/env bash
# Measures observability and attribution overhead and writes
# BENCH_obs.json.
#
# fig6 rows (default scale, 1024 entries, kernel on — the paper
# geometry, about ten seconds a run on one core): wall time with obs
# off, with the JSONL stream on (--obs-out + --obs-interval 5000), and
# with attribution on top (--attrib, which adds the 3C/blame tables to
# the stream). The attrib row times the attribution experiment itself
# at --buckets 64 (about 1.5 s), whose 3C pass always runs: obs off,
# and with its JSONL stream on (--obs-interval 20000).
#
# Every time is the minimum of RUNS runs per mode, the modes of one run
# interleaved so a swing in host speed does not land on one mode only.
# With PARENT_TREE=<git checkout of the parent commit>, the script
# builds that tree's release binaries, times them in every run as
# well, alternating which side goes first, and records them under
# "parent" with the checkout's revision.
#
# The miss-reduction headline (fig6) and the whole report (attrib) are
# pure functions of the flags and must be identical in every mode —
# collection and classification are observational. Wall times are
# host-dependent (host_cores records the regime), so the bench-delta
# check against this baseline is warn-only.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=5
ATTRIB_BOUND_PCT=15
cargo build --release -q --offline -p mosaic-bench
declare -A BINS=([change]=target/release)
SIDES=(change)
if [[ -n "${PARENT_TREE:-}" ]]; then
    PARENT_REV=$(git -C "$PARENT_TREE" describe --always --dirty --abbrev=12)
    cargo build --release -q --offline -p mosaic-bench --manifest-path "$PARENT_TREE/Cargo.toml"
    BINS[parent]="$PARENT_TREE/target/release"
    SIDES=(change parent)
fi
HOST_CORES=$(nproc)
# The measured source: the commit, marked -dirty when the tree has edits.
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
WORKLOADS=(graph500 btree gups xsbench)
ATTRIB_FLAGS=(--buckets 64)

OUT_TMP="$(mktemp -d)"
trap 'rm -rf "$OUT_TMP"' EXIT

# Runs one invocation with stdout to $1, printing its wall time in ms.
time_ms() {
    local out="$1" start end
    shift
    start=$(date +%s%N)
    "$@" >"$out" 2>/dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

# "Mosaic-4 vs vanilla at 8-way: +31.1% miss reduction" -> 31.1
headline() {
    awk '/Mosaic-4 vs vanilla at 8-way/ { v = $(NF - 2); sub(/^\+/, "", v); sub(/%$/, "", v); print v; exit }' "$1"
}

declare -A MIN HEAD RECORDS
# Keeps the minimum wall time of side/workload/mode.
keep_min() {
    local key="$1" ms="$2"
    if [[ -z "${MIN[$key]:-}" || "$ms" -lt "${MIN[$key]}" ]]; then MIN[$key]="$ms"; fi
}

# Times one side's fig6 modes for one workload, checking the headline.
fig6_run() {
    local side="$1" wl="$2" bin="${BINS[$1]}" mode ms pct
    local -a flags
    for mode in obs_off obs_on attrib_on; do
        flags=("$wl")
        case "$mode" in
            obs_on) flags+=(--obs-out "$OUT_TMP/$side.$wl.jsonl" --obs-interval 5000) ;;
            attrib_on) flags+=(--attrib --obs-out "$OUT_TMP/$side.$wl.at.jsonl" --obs-interval 5000) ;;
        esac
        ms="$(time_ms "$OUT_TMP/$side.$wl.$mode.txt" "$bin/fig6" "${flags[@]}")"
        keep_min "$side/$wl/$mode" "$ms"
        pct="$(headline "$OUT_TMP/$side.$wl.$mode.txt")"
        if [[ -z "${HEAD[$side/$wl]:-}" ]]; then HEAD[$side/$wl]="$pct"; fi
        if [[ "$pct" != "${HEAD[$side/$wl]}" ]]; then
            echo "[bench_obs] ERROR: ${side} ${wl} headline ${pct} in ${mode}, ${HEAD[$side/$wl]} before" >&2
            exit 1
        fi
    done
    RECORDS[$side/$wl/obs_on]="$(wc -l < "$OUT_TMP/$side.$wl.jsonl")"
    RECORDS[$side/$wl/attrib_on]="$(wc -l < "$OUT_TMP/$side.$wl.at.jsonl")"
}

# Times one side's attrib modes, checking the report is unchanged.
attrib_run() {
    local side="$1" bin="${BINS[$1]}" ms
    ms="$(time_ms "$OUT_TMP/$side.attrib.off.txt" "$bin/attrib" "${ATTRIB_FLAGS[@]}")"
    keep_min "$side/attrib/obs_off" "$ms"
    ms="$(time_ms "$OUT_TMP/$side.attrib.on.txt" "$bin/attrib" "${ATTRIB_FLAGS[@]}" \
        --obs-out "$OUT_TMP/$side.attrib.jsonl" --obs-interval 20000)"
    keep_min "$side/attrib/obs_on" "$ms"
    if ! cmp -s "$OUT_TMP/$side.attrib.off.txt" "$OUT_TMP/$side.attrib.on.txt"; then
        echo "[bench_obs] ERROR: ${side} attrib report changed with collection on" >&2
        exit 1
    fi
    RECORDS[$side/attrib/obs_on]="$(wc -l < "$OUT_TMP/$side.attrib.jsonl")"
}

for run in $(seq 1 "$RUNS"); do
    order=("${SIDES[@]}")
    if (( run % 2 == 0 && ${#SIDES[@]} == 2 )); then order=(parent change); fi
    for side in "${order[@]}"; do
        echo "[bench_obs] run ${run}/${RUNS} ${side} ..." >&2
        for wl in "${WORKLOADS[@]}"; do fig6_run "$side" "$wl"; done
        attrib_run "$side"
    done
done

secs() { awk -v m="$1" 'BEGIN { printf "%.3f", m / 1000 }'; }
pct() { awk -v a="$1" -v b="$2" 'BEGIN { d = 0; if (a > 0) d = (b - a) * 100.0 / a; printf "%.1f", d }'; }

# The "workloads" object and the attrib-bound verdict of one side.
side_json() {
    local side="$1" indent="$2" wl off on at body="" worst=""
    for wl in "${WORKLOADS[@]}"; do
        off="${MIN[$side/$wl/obs_off]}"; on="${MIN[$side/$wl/obs_on]}"; at="${MIN[$side/$wl/attrib_on]}"
        body+="${indent}  \"${wl}\": {
${indent}    \"obs_off\": {\"wall_time_s\": $(secs "$off"), \"mosaic4_8way_miss_reduction_pct\": ${HEAD[$side/$wl]}},
${indent}    \"obs_on\": {\"wall_time_s\": $(secs "$on"), \"jsonl_records\": ${RECORDS[$side/$wl/obs_on]}},
${indent}    \"attrib_on\": {\"wall_time_s\": $(secs "$at"), \"jsonl_records\": ${RECORDS[$side/$wl/attrib_on]}},
${indent}    \"obs_overhead_pct\": $(pct "$off" "$on"),
${indent}    \"attrib_overhead_pct\": $(pct "$off" "$at")
${indent}  },"$'\n'
        worst="$(awk -v w="${worst:--1000}" -v p="$(pct "$off" "$at")" 'BEGIN { print (p > w ? p : w) }')"
    done
    off="${MIN[$side/attrib/obs_off]}"; on="${MIN[$side/attrib/obs_on]}"
    body+="${indent}  \"attrib\": {
${indent}    \"obs_off\": {\"wall_time_s\": $(secs "$off")},
${indent}    \"obs_on\": {\"wall_time_s\": $(secs "$on"), \"jsonl_records\": ${RECORDS[$side/attrib/obs_on]}},
${indent}    \"obs_overhead_pct\": $(pct "$off" "$on")
${indent}  }"
    printf '%s"workloads": {\n%s\n%s},\n' "$indent" "$body" "$indent"
    printf '%s"fig6_attrib_overhead_pct_max": %s,\n' "$indent" "$worst"
    printf '%s"attrib_bound_holds": %s' "$indent" \
        "$(awk -v w="$worst" -v b="$ATTRIB_BOUND_PCT" 'BEGIN { print (w <= b ? "true" : "false") }')"
}

{
    echo "{"
    echo "  \"benchmark\": \"obs and attribution overhead (fig6 default scale, 1024 entries, kernel on; attrib ${ATTRIB_FLAGS[*]}), min of ${RUNS} runs per mode\","
    echo "  \"recorded\": \"$(date -u +%F)\","
    echo "  \"host_cores\": ${HOST_CORES},"
    echo "  \"git_rev\": \"${GIT_REV}\","
    echo "  \"runs\": ${RUNS},"
    echo "  \"attrib_bound_pct\": ${ATTRIB_BOUND_PCT},"
    echo "  \"note\": \"wall_time_s is end-to-end binary wall time, the minimum of the runs; fig6 obs_on adds --obs-out + --obs-interval 5000, attrib_on adds --attrib on top (3C + blame tables in the stream). attrib always classifies; its obs_on adds --obs-out + --obs-interval 20000. attrib_bound_holds: every fig6 attrib_overhead_pct is at most attrib_bound_pct. Headlines (fig6) and reports (attrib) are identical in every mode (enforced by this script).\","
    side_json change "  "
    if [[ -n "${BINS[parent]:-}" ]]; then
        printf ',\n  "parent": {\n    "git_rev": "%s",\n' "$PARENT_REV"
        side_json parent "    "
        printf '\n  }'
    fi
    printf '\n}\n'
} > BENCH_obs.json
jq . BENCH_obs.json > /dev/null
echo "[bench_obs] wrote BENCH_obs.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV}, runs=${RUNS})" >&2
