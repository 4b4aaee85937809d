#!/usr/bin/env bash
# Measures serial-vs-parallel wall times for the sweep drivers and
# writes BENCH_parallel.json.
#
# The drivers' contract is byte-identical output at any --jobs value;
# the speedup is whatever the host's cores allow (host_cores and git_rev
# in the JSON say where a record came from).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p mosaic-bench
BIN=target/release
HOST_CORES=$(nproc)
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
JOBS_SWEEP=(1 2 4 8)

# Wall time of one invocation in milliseconds, plus the ns/access figure
# the binary reports on stderr (0 if it printed none). Echoes "ms ns".
time_ms_ns() {
    local start end err ns
    err=$(mktemp)
    start=$(date +%s%N)
    "$@" >/dev/null 2>"$err"
    end=$(date +%s%N)
    ns=$(grep -oE '[0-9]+(\.[0-9]+)? ns/access' "$err" | tail -1 | awk '{print $1}')
    rm -f "$err"
    echo "$(( (end - start) / 1000000 )) ${ns:-0}"
}

fig6_times=()
fig6_ns=()
table4_times=()
table4_ns=()
for jobs in "${JOBS_SWEEP[@]}"; do
    echo "[bench_parallel] fig6 gups --scale 1 --jobs ${jobs}" >&2
    read -r ms ns <<< "$(time_ms_ns "$BIN/fig6" gups --scale 1 --jobs "$jobs")"
    fig6_times+=("$ms"); fig6_ns+=("$ns")
    echo "[bench_parallel] table4 --jobs ${jobs}" >&2
    read -r ms ns <<< "$(time_ms_ns "$BIN/table4" --jobs "$jobs")"
    table4_times+=("$ms"); table4_ns+=("$ns")
done

join_records() {
    local -n times=$1
    local -n nss=$2
    local out="" i
    for i in "${!JOBS_SWEEP[@]}"; do
        out+="      {\"jobs\": ${JOBS_SWEEP[$i]}, \"wall_ms\": ${times[$i]}, \"ns_per_access\": ${nss[$i]}},"$'\n'
    done
    printf '%s' "${out%,$'\n'}"
}

speedup() {
    local -n times=$1
    awk -v s="${times[0]}" -v p="${times[${#times[@]}-1]}" \
        'BEGIN { printf (p > 0 ? "%.2f" : "0"), s / p }'
}

cat > BENCH_parallel.json <<EOF
{
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "jobs_sweep": [$(IFS=,; echo "${JOBS_SWEEP[*]}")],
  "benchmarks": [
    {
      "name": "fig6_gups_scale1",
      "command": "fig6 gups --scale 1 --jobs N",
      "cells": 30,
      "runs": [
$(join_records fig6_times fig6_ns)
      ],
      "speedup_at_max_jobs": $(speedup fig6_times)
    },
    {
      "name": "table4_default",
      "command": "table4 --jobs N",
      "cells": 30,
      "runs": [
$(join_records table4_times table4_ns)
      ],
      "speedup_at_max_jobs": $(speedup table4_times)
    }
  ],
  "note": "Wall-clock times from scripts/bench_parallel.sh. Output is byte-identical at every jobs value (gated in scripts/check.sh and crates/sim/tests/parallel_determinism.rs); speedup is bounded by host_cores."
}
EOF
echo "[bench_parallel] wrote BENCH_parallel.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
