#!/usr/bin/env bash
# Full offline quality gate: release build, test suite, and clippy with
# warnings denied (including the per-crate `clippy::unwrap_used` gates).
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline)"
cargo test -q --offline --workspace

echo "==> cargo clippy -D warnings (offline)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> unwrap gate (hash crate production code must stay unwrap-free)"
cargo clippy -q --offline -p mosaic-hash -- -D warnings -D clippy::unwrap_used

echo "==> obs access-path microbench (noop handle must stay ~free)"
cargo bench -q --offline -p mosaic-bench --bench obs

echo "==> obs golden determinism gate (fixed-seed GUPS JSONL, two runs)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
for run in 1 2; do
  ./target/release/fig6 gups --scale 0 --entries 64 --no-kernel \
    --obs-out "$OBS_TMP/run$run.jsonl" --obs-interval 5000 \
    > "$OBS_TMP/stdout$run.txt" 2>/dev/null
done
cmp "$OBS_TMP/run1.jsonl" "$OBS_TMP/run2.jsonl"
cmp "$OBS_TMP/stdout1.txt" "$OBS_TMP/stdout2.txt"
./target/release/obs_report "$OBS_TMP/run1.jsonl" > "$OBS_TMP/report.txt"
grep -q "interval curve" "$OBS_TMP/report.txt"

echo "==> parallel determinism gate (fig6 --jobs 1 vs --jobs 4, stdout + JSONL)"
for jobs in 1 4; do
  ./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs "$jobs" \
    --obs-out "$OBS_TMP/par$jobs.jsonl" --obs-interval 5000 \
    > "$OBS_TMP/parout$jobs.txt" 2>/dev/null
done
diff "$OBS_TMP/parout1.txt" "$OBS_TMP/parout4.txt"
# The parallel export is self-deterministic: a second --jobs 4 run must
# reproduce the first byte-for-byte.
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs 4 \
  --obs-out "$OBS_TMP/par4b.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/parout4b.txt" 2>/dev/null
cmp "$OBS_TMP/par4.jsonl" "$OBS_TMP/par4b.jsonl"
cmp "$OBS_TMP/parout4.txt" "$OBS_TMP/parout4b.txt"
./target/release/obs_report "$OBS_TMP/par4.jsonl" > "$OBS_TMP/parreport.txt"
grep -q "interval curve" "$OBS_TMP/parreport.txt"

echo "==> batch-size gate (fig6: batches of one vs the default batch, --jobs 8)"
# The one step engine's contract: stdout and the JSONL export are
# byte-identical whether it is fed batches of one access or the default
# batch, and at every --jobs value. par1.* above were produced with the
# default batch at --jobs 1.
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --batch 1 \
  --obs-out "$OBS_TMP/scalar.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/scalarout.txt" 2>/dev/null
cmp "$OBS_TMP/scalarout.txt" "$OBS_TMP/parout1.txt"
cmp "$OBS_TMP/scalar.jsonl" "$OBS_TMP/par1.jsonl"
# Across jobs values the contract is stdout byte-identity (the JSONL
# stream layout depends on how many parts --jobs splits the grid into;
# its self-determinism is gated above).
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs 8 \
  --obs-out "$OBS_TMP/par8.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/parout8.txt" 2>/dev/null
cmp "$OBS_TMP/parout8.txt" "$OBS_TMP/parout1.txt"

echo "==> attribution batch-size gate (fig6 --attrib: batches of one vs the default batch, with and without kernel)"
# The shared 3C pass classifies each position once per batch; every
# instance's attribution table must reach each interval snapshot with the
# same cells at any batch size. Kernel injection is the case where an
# instance skips classes (huge-page first touches hit).
for kernel in no-kernel kernel; do
  KERNEL_FLAGS=(--attrib --obs-interval 5000)
  if [[ "$kernel" == no-kernel ]]; then KERNEL_FLAGS+=(--no-kernel); fi
  ./target/release/fig6 gups --scale 0 --entries 64 "${KERNEL_FLAGS[@]}" --batch 1 \
    --obs-out "$OBS_TMP/at-$kernel-scalar.jsonl" > "$OBS_TMP/at-$kernel-scalar.txt" 2>/dev/null
  ./target/release/fig6 gups --scale 0 --entries 64 "${KERNEL_FLAGS[@]}" \
    --obs-out "$OBS_TMP/at-$kernel-batch.jsonl" > "$OBS_TMP/at-$kernel-batch.txt" 2>/dev/null
  cmp "$OBS_TMP/at-$kernel-scalar.jsonl" "$OBS_TMP/at-$kernel-batch.jsonl"
  cmp "$OBS_TMP/at-$kernel-scalar.txt" "$OBS_TMP/at-$kernel-batch.txt"
  grep -q '"t":"attrib"' "$OBS_TMP/at-$kernel-batch.jsonl"
done

echo "==> paper-geometry batch-size gate (fig6 gups at 1024 entries, kernel on, five arities: --batch 1 vs 33 vs default)"
# The gates above run a 64-entry, kernel-off grid; this one replays the
# Figure 6 geometry itself, where every mosaic instance rewinds its own
# arity's page table and fills its TLB's inline ToC arena.
for batch in 1 33 default; do
  BATCH_FLAGS=()
  if [[ "$batch" != default ]]; then BATCH_FLAGS=(--batch "$batch"); fi
  ./target/release/fig6 gups --scale 0 "${BATCH_FLAGS[@]}" \
    --obs-out "$OBS_TMP/geo-$batch.jsonl" > "$OBS_TMP/geo-$batch.txt" 2>/dev/null
done
for batch in 33 default; do
  cmp "$OBS_TMP/geo-1.txt" "$OBS_TMP/geo-$batch.txt"
  cmp "$OBS_TMP/geo-1.jsonl" "$OBS_TMP/geo-$batch.jsonl"
done

echo "==> same-page-run gate (fig6 all --attrib at 1024 entries: --batch 1 vs default)"
# The step engine replays one lookup per same-page run of a batch and
# counts the run's repeats as hits. At --batch 1 no batch holds a run,
# so every reference is looked up; the default batch skips most of
# BTree's (86 % of its references repeat the previous page) and half of
# GUPS's and XSBench's. Stdout and the JSONL export, 3C tables
# included, must not tell the two apart.
for batch in 1 default; do
  BATCH_FLAGS=()
  if [[ "$batch" != default ]]; then BATCH_FLAGS=(--batch "$batch"); fi
  ./target/release/fig6 all --scale 0 --attrib --obs-interval 5000 "${BATCH_FLAGS[@]}" \
    --obs-out "$OBS_TMP/runs-$batch.jsonl" > "$OBS_TMP/runs-$batch.txt" 2>/dev/null
done
cmp "$OBS_TMP/runs-1.txt" "$OBS_TMP/runs-default.txt"
cmp "$OBS_TMP/runs-1.jsonl" "$OBS_TMP/runs-default.jsonl"
grep -q '"t":"attrib"' "$OBS_TMP/runs-default.jsonl"

echo "==> batch-size gate (table4: batches of one vs the default batch across --jobs 1/4/8)"
./target/release/table4 --buckets 16 --batch 1 --jobs 1 \
  > "$OBS_TMP/t4scalar.txt" 2>/dev/null
for jobs in 1 4 8; do
  ./target/release/table4 --buckets 16 --jobs "$jobs" \
    > "$OBS_TMP/t4j$jobs.txt" 2>/dev/null
  cmp "$OBS_TMP/t4j$jobs.txt" "$OBS_TMP/t4scalar.txt"
done

echo "==> fig6 golden gate (fig6 --jobs 2 must reproduce results_fig6.txt)"
./target/release/fig6 --jobs 2 > "$OBS_TMP/f6gold.txt" 2>/dev/null
cmp "$OBS_TMP/f6gold.txt" results_fig6.txt

echo "==> table4 golden gate (batched default must reproduce results_table4.txt)"
./target/release/table4 --jobs 4 > "$OBS_TMP/t4gold.txt" 2>/dev/null
cmp "$OBS_TMP/t4gold.txt" results_table4.txt

echo "==> table4 obs determinism gate (JSONL --jobs 1 vs --jobs 4, clean + faults)"
# run_cells owns the obs fan-out: every grid cell exports into its own
# child registry at every --jobs value, so the stream is jobs-invariant.
for fault_ppm in 0 200; do
  for jobs in 1 4; do
    ./target/release/table4 --buckets 16 --fault-ppm "$fault_ppm" --jobs "$jobs" \
      --obs-out "$OBS_TMP/t4obs-$fault_ppm-$jobs.jsonl" --obs-interval 50000 \
      > /dev/null 2>&1
  done
  cmp "$OBS_TMP/t4obs-$fault_ppm-1.jsonl" "$OBS_TMP/t4obs-$fault_ppm-4.jsonl"
done

echo "==> table3 / walkcost / ablation golden gates (must reproduce results_*.txt)"
./target/release/table3 --jobs 4 > "$OBS_TMP/t3gold.txt" 2>/dev/null
cmp "$OBS_TMP/t3gold.txt" results_table3.txt
./target/release/walkcost > "$OBS_TMP/wcgold.txt" 2>/dev/null
cmp "$OBS_TMP/wcgold.txt" results_walkcost.txt
./target/release/ablation --buckets 48 > "$OBS_TMP/ablgold.txt" 2>/dev/null
cmp "$OBS_TMP/ablgold.txt" results_ablation.txt

echo "==> ablation obs determinism gate (JSONL --jobs 1 vs --jobs 4)"
for jobs in 1 4; do
  ./target/release/ablation --buckets 48 --jobs "$jobs" \
    --obs-out "$OBS_TMP/ablobs-$jobs.jsonl" --obs-interval 50000 > /dev/null 2>&1
done
cmp "$OBS_TMP/ablobs-1.jsonl" "$OBS_TMP/ablobs-4.jsonl"

echo "==> tenant determinism gate (tenants --jobs 1 vs --jobs 4, clean + faults)"
TEN_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,110)
for jobs in 1 4; do
  ./target/release/tenants "${TEN_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/ten$jobs.txt" 2>/dev/null
  ./target/release/tenants "${TEN_FLAGS[@]}" --fault-ppm 200 --jobs "$jobs" \
    > "$OBS_TMP/tenf$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/ten1.txt" "$OBS_TMP/ten4.txt"
cmp "$OBS_TMP/tenf1.txt" "$OBS_TMP/tenf4.txt"
grep -q "per-tenant fault ppm" "$OBS_TMP/ten1.txt"

echo "==> tenant obs determinism gate (JSONL --jobs 1 vs --jobs 4, clean + faults)"
for fault_ppm in 0 200; do
  for jobs in 1 4; do
    ./target/release/tenants "${TEN_FLAGS[@]}" --fault-ppm "$fault_ppm" --jobs "$jobs" \
      --obs-out "$OBS_TMP/tenobs-$fault_ppm-$jobs.jsonl" --obs-interval 20000 \
      > /dev/null 2>&1
  done
  cmp "$OBS_TMP/tenobs-$fault_ppm-1.jsonl" "$OBS_TMP/tenobs-$fault_ppm-4.jsonl"
done

echo "==> tenants golden gate (default sweep must reproduce results_tenants.txt)"
./target/release/tenants --jobs 4 > "$OBS_TMP/tengold.txt" 2>/dev/null
cmp "$OBS_TMP/tengold.txt" results_tenants.txt

echo "==> concurrent-determinism gate (--concurrent-alloc must not change stdout)"
# The lock-free mirror is observational: the golden sweep with the
# shadow on (cross-checked at every verify) must stay byte-identical,
# and so must a jobs-1-vs-8 pair with sharing and the shadow both on.
./target/release/tenants --jobs 4 --concurrent-alloc > "$OBS_TMP/tenshadow.txt" 2>/dev/null
cmp "$OBS_TMP/tenshadow.txt" results_tenants.txt
CON_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,110
           --shared-traces --concurrent-alloc)
for jobs in 1 8; do
  ./target/release/tenants "${CON_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/con$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/con1.txt" "$OBS_TMP/con8.txt"

echo "==> seeded-interleaving stress gate (concurrent table vs serial oracle)"
cargo test -q --offline -p mosaic-iceberg --test concurrent_oracle

echo "==> Figure 3 oracle (MosaicMemory vs a naive Figure 3 / Horizon LRU model)"
cargo test -q --offline -p mosaic-mem --test figure3_oracle

echo "==> hostile-tenant determinism gate (thrasher + faults, --jobs 1 vs 8)"
ISO_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,105
           --hostile thrasher --quota-frac 125 --priority-spread 2 --fault-ppm 200)
for jobs in 1 8; do
  ./target/release/tenants "${ISO_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/iso$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/iso1.txt" "$OBS_TMP/iso8.txt"
grep -q "Victim inflation" "$OBS_TMP/iso1.txt"

echo "==> isolation golden gate (must reproduce results_isolation.txt)"
./target/release/tenants --tenants 16 --buckets 64 --steps 800000 --churn 20000 \
  --loads 105,120 --hostile thrasher --quota-frac 125 --priority-spread 2 \
  --jobs 4 > "$OBS_TMP/isogold.txt" 2>/dev/null
cmp "$OBS_TMP/isogold.txt" results_isolation.txt

echo "==> attribution determinism gate (attrib --jobs 1 vs 8, fault-injected JSONL)"
for jobs in 1 8; do
  ./target/release/attrib --fault-ppm 20000 --jobs "$jobs" \
    --obs-out "$OBS_TMP/at$jobs.jsonl" --obs-interval 20000 \
    > "$OBS_TMP/atout$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/at1.jsonl" "$OBS_TMP/at8.jsonl"
cmp "$OBS_TMP/atout1.txt" "$OBS_TMP/atout8.txt"
grep -q '"t":"attrib"' "$OBS_TMP/at1.jsonl"
./target/release/obs_report "$OBS_TMP/at1.jsonl" > "$OBS_TMP/atreport.txt"
grep -q "conflict removed by" "$OBS_TMP/atreport.txt"
grep -q "per-tenant blame" "$OBS_TMP/atreport.txt"

echo "==> memory counter publication gate (attrib JSONL: <mgr>.accesses == ref inside each stream, == ref + 1 at its end)"
# Managers count accesses locally and publish before every snapshot, so
# an interval snapshot inside a workload's stream (each workload's
# records run from its drive.begin event to the next; its stream length
# is its last snapshot's ref) reads exactly `ref` accesses. A snapshot
# taken without a publish reads less. A memory cell's end-of-stream
# snapshot follows the epilogue's probe access and reads `ref + 1`; the
# workload-end snapshot after it is taken on the merged registry, which
# keeps counting across workloads, so it reads the running total of
# those `ref + 1`s (69876 after GUPS, 1152932 after Graph500 at the
# default config). Only the memory cells export `<mgr>.*`: a TLB grid's
# OS model bound under the same prefix would add its own touches there.
check_published_accesses() {
  awk '
    function flush(   i, want) {
      split("", last)
      for (i = 1; i <= n; i++) if (refs[i] == len) last[names[i]] = i
      for (i = 1; i <= n; i++) {
        if (refs[i] < len) want = refs[i]
        else if (i == last[names[i]]) want = total[names[i]] + len + 1
        else want = len + 1
        checked++
        if (vals[i] != want) { print "want " want ": " lines[i]; bad = 1 }
      }
      for (name in last) total[name] += len + 1
      n = 0; len = 0
    }
    /"name":"drive\.begin"/ { flush(); next }
    /"name":"(mosaic|linux)\.accesses"/ {
      match($0, /"ref":[0-9]+/); r = substr($0, RSTART + 6, RLENGTH - 6) + 0
      match($0, /"value":[0-9]+/); v = substr($0, RSTART + 8, RLENGTH - 8) + 0
      match($0, /"name":"[a-z]+/); name = substr($0, RSTART + 8, RLENGTH - 8)
      n++; refs[n] = r; vals[n] = v; names[n] = name; lines[n] = $0
      if (r > len) len = r
    }
    END {
      flush()
      if (checked == 0) { print "no accesses records in " FILENAME; bad = 1 }
      exit bad
    }
  ' "$1"
}
./target/release/attrib --obs-out "$OBS_TMP/atpub.jsonl" --obs-interval 20000 > /dev/null 2>&1
check_published_accesses "$OBS_TMP/atpub.jsonl"
check_published_accesses "$OBS_TMP/at1.jsonl"

echo "==> attribution golden gate (must reproduce results_attrib.txt)"
./target/release/attrib --jobs 4 > "$OBS_TMP/atgold.txt" 2>/dev/null
cmp "$OBS_TMP/atgold.txt" results_attrib.txt

echo "==> unread-flag gate (every binary: an unread flag is a usage error, exit 2, no output, no file)"
# Each binary checks its whole command line before any work: a flag it
# does not read exits 2 before stdout and before --obs-out is created.
for bin in fig6 attrib table2 table3 table4 table5 tenants ablation walkcost \
           fragmentation coloring locality obs_report; do
  code=0
  ./target/release/$bin --obs-out "$OBS_TMP/unread-$bin.jsonl" --bogus-flag 1 \
    > "$OBS_TMP/unread-$bin.txt" 2>/dev/null || code=$?
  [[ "$code" == 2 ]]
  [[ ! -s "$OBS_TMP/unread-$bin.txt" ]]
  [[ ! -e "$OBS_TMP/unread-$bin.jsonl" ]]
done

echo "==> bench-delta (warn-only) vs BENCH_*.json baselines committed at HEAD"
for s in obs parallel tenants isolation step iceberg; do
  if git show "HEAD:BENCH_${s}.json" > "$OBS_TMP/BENCH_${s}.base.json" 2>/dev/null; then
    scripts/bench_delta.sh "$OBS_TMP/BENCH_${s}.base.json" "BENCH_${s}.json" || true
  fi
done

echo "All checks passed."
