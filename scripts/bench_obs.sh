#!/usr/bin/env bash
# Measures observability overhead on the fig6 sweep and writes
# BENCH_obs.json: per workload, wall time with obs off, with the JSONL
# stream on (--obs-out + --obs-interval 5000), and with attribution on
# top (--attrib, which adds the 3C/blame tables to the stream).
#
# The miss-reduction headline is a pure function of the flags and must
# be identical in all three modes — collection and classification are
# observational. Wall times are host-dependent (host_cores records the
# regime), so the bench-delta check against this baseline is warn-only.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p mosaic-bench
BIN=target/release
HOST_CORES=$(nproc)
# The measured source: the commit, marked -dirty when the tree has edits.
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
WORKLOADS=(graph500 btree gups xsbench)
FIG6_FLAGS=(--scale 0 --entries 64)

OUT_TMP="$(mktemp -d)"
trap 'rm -rf "$OUT_TMP"' EXIT

# Wall time of one invocation, in milliseconds.
time_ms() {
    local start end
    start=$(date +%s%N)
    "$@" >/dev/null 2>&1
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

# "Mosaic-4 vs vanilla at 8-way: +31.1% miss reduction" -> 31.1
headline() {
    awk -F'[+%]' '/Mosaic-4 vs vanilla at 8-way/ { print $2; exit }' "$1"
}

entries=""
for wl in "${WORKLOADS[@]}"; do
    echo "[bench_obs] ${wl}: obs off / on / attrib ..." >&2
    off_ms="$(time_ms "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}")"
    "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}" > "$OUT_TMP/$wl.off.txt" 2>/dev/null
    off_pct="$(headline "$OUT_TMP/$wl.off.txt")"

    on_ms="$(time_ms "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}" \
        --obs-out "$OUT_TMP/$wl.jsonl" --obs-interval 5000)"
    "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}" \
        --obs-out "$OUT_TMP/$wl.jsonl" --obs-interval 5000 \
        > "$OUT_TMP/$wl.on.txt" 2>/dev/null
    on_pct="$(headline "$OUT_TMP/$wl.on.txt")"
    on_records="$(wc -l < "$OUT_TMP/$wl.jsonl")"

    at_ms="$(time_ms "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}" --attrib \
        --obs-out "$OUT_TMP/$wl.at.jsonl" --obs-interval 5000)"
    "$BIN/fig6" "$wl" "${FIG6_FLAGS[@]}" --attrib \
        --obs-out "$OUT_TMP/$wl.at.jsonl" --obs-interval 5000 \
        > "$OUT_TMP/$wl.at.txt" 2>/dev/null
    at_pct="$(headline "$OUT_TMP/$wl.at.txt")"
    at_records="$(wc -l < "$OUT_TMP/$wl.at.jsonl")"

    if [[ "$off_pct" != "$on_pct" || "$off_pct" != "$at_pct" ]]; then
        echo "[bench_obs] ERROR: ${wl} headline changed with collection on" >&2
        echo "  off=${off_pct} on=${on_pct} attrib=${at_pct}" >&2
        exit 1
    fi

    obs_overhead="$(awk -v a="$off_ms" -v b="$on_ms" \
        'BEGIN { d = 0; if (a > 0) d = (b - a) * 100.0 / a; printf "%.1f", d }')"
    attrib_overhead="$(awk -v a="$off_ms" -v b="$at_ms" \
        'BEGIN { d = 0; if (a > 0) d = (b - a) * 100.0 / a; printf "%.1f", d }')"

    entries+="    \"${wl}\": {
      \"obs_off\": {\"wall_time_s\": $(awk -v m="$off_ms" 'BEGIN{printf "%.3f", m/1000}'), \"mosaic4_8way_miss_reduction_pct\": ${off_pct}},
      \"obs_on\": {\"wall_time_s\": $(awk -v m="$on_ms" 'BEGIN{printf "%.3f", m/1000}'), \"mosaic4_8way_miss_reduction_pct\": ${on_pct}, \"jsonl_records\": ${on_records}},
      \"attrib_on\": {\"wall_time_s\": $(awk -v m="$at_ms" 'BEGIN{printf "%.3f", m/1000}'), \"mosaic4_8way_miss_reduction_pct\": ${at_pct}, \"jsonl_records\": ${at_records}},
      \"obs_overhead_pct\": ${obs_overhead},
      \"attrib_overhead_pct\": ${attrib_overhead}
    },"$'\n'
done

cat > BENCH_obs.json <<EOF
{
  "benchmark": "obs overhead and miss-rate baseline (fig6, --scale 0, --entries 64, seed 0xF166)",
  "recorded": "$(date -u +%F)",
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "note": "wall_time_s is end-to-end binary wall time; obs_on adds --obs-out + --obs-interval 5000, attrib_on adds --attrib on top (3C + blame tables in the stream). The Mosaic-4 vs vanilla 8-way miss-reduction headline must be identical in all three modes (enforced by this script).",
  "workloads": {
$(printf '%s' "${entries%,$'\n'}")
  }
}
EOF
echo "[bench_obs] wrote BENCH_obs.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
