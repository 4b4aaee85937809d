#!/usr/bin/env bash
# Measures the concurrent Iceberg allocator: insert/remove throughput at
# 1/2/4/8 threads (85 % load) and the probe-length distribution vs the
# serial table at 85/95 % load, written to BENCH_iceberg.json.
#
# Throughput is host-dependent; host_cores and git_rev in the JSON say
# where a record came from. On a single-core container the multi-thread
# rows measure contention overhead, not speedup — that is an honest
# number, not a bug. The probe
# summaries are deterministic and must be identical serial vs concurrent
# (the single-thread placement-identity claim, also proptested).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p mosaic-bench --benches
HOST_CORES=$(nproc)
GIT_REV=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)

OUT_TMP="$(mktemp)"
trap 'rm -f "$OUT_TMP"' EXIT
echo "[bench_iceberg] running iceberg_concurrent ..." >&2
cargo bench -q --offline -p mosaic-bench --bench iceberg_concurrent 2>/dev/null \
    | grep '^iceberg_concurrent ' > "$OUT_TMP"

field() { # line-pattern key
    awk -v pat="$1" -v key="$2" '
        $0 ~ pat {
            for (i = 1; i <= NF; i++) {
                split($i, kv, "=");
                if (kv[1] == key) { print kv[2]; exit }
            }
        }' "$OUT_TMP"
}

thread_records() {
    local out="" t
    for t in 1 2 4 8; do
        out+="    {\"threads\": $t, \
\"insert_mops\": $(field "threads=$t phase=insert" mops), \
\"remove_mops\": $(field "threads=$t phase=remove" mops), \
\"insert_wall_ns\": $(field "threads=$t phase=insert" wall_ns), \
\"remove_wall_ns\": $(field "threads=$t phase=remove" wall_ns), \
\"ops\": $(field "threads=$t phase=insert" ops)},"$'\n'
    done
    printf '%s' "${out%,$'\n'}"
}

probe_records() {
    local out="" pct tbl
    for pct in 85 95; do
        for tbl in serial concurrent; do
            out+="    {\"load_pct\": $pct, \"table\": \"$tbl\", \
\"mean_candidate_index\": $(field "probe load_pct=$pct table=$tbl" mean_cand_idx), \
\"front_yard_pct\": $(field "probe load_pct=$pct table=$tbl" front_pct)},"$'\n'
        done
    done
    printf '%s' "${out%,$'\n'}"
}

cat > BENCH_iceberg.json <<EOF
{
  "host_cores": ${HOST_CORES},
  "git_rev": "${GIT_REV}",
  "config": "paper_default(256) = 16384 slots, fill to 85% load, disjoint per-thread keys",
  "throughput": [
$(thread_records)
  ],
  "probe_distribution": [
$(probe_records)
  ],
  "note": "Throughput in million ops/s is host-dependent; with host_cores=1 the multi-thread rows measure contention overhead on one core, not parallel speedup. Probe rows are deterministic: serial and concurrent must match exactly at every load (single-thread placement identity, proptested in crates/iceberg/tests/concurrent_oracle.rs)."
}
EOF
echo "[bench_iceberg] wrote BENCH_iceberg.json (host_cores=${HOST_CORES}, git_rev=${GIT_REV})" >&2
