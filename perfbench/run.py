#!/usr/bin/env python3
"""Runs the repository benchmark: one workload, one seed, one report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (cargo, offline, release) and
runs it as PROCESSES separate processes, PARALLEL at a time, each pinned
to its own core. Host time differs between processes of the same code
(per-process hash keys and memory layout) and drifts with the load other
tenants put on the machine, so every time is a median over all calls of
all processes, normalised by a fixed calibration loop timed in the same
processes (see end_to_end). With `--trace 0` it prints the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it runs one traced process and prints
the per-layer metrics (that process is not pinned, so its 2-thread
probes can use two cores). The last line of stdout is the result object; a
line before it carries noise diagnostics (revision, host cores, wall and
CPU seconds, calibration-loop times, every raw call time).

Correctness: every process digests all simulated statistics it got
back. For a seed listed in perfbench/digests.json the digest must match
the recorded one; for any other seed the run's invariants decide. A
mismatch or a broken invariant counts every reference of the run as
failed.

`--record-digests <first>-<last>` re-records digests.json for a seed
range instead of benchmarking.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("fig6-gups", "attrib", "table4-pressure", "tenants-churn")
# Separate processes per end-to-end run, run PARALLEL at a time: host
# speed swings independently on each core, and sampling both cores at
# once gives each run twice the samples of either core's swings.
PROCESSES = 8
PARALLEL = 2
# End-to-end times are reported for a host on which one calibration loop
# (perfbench's `calib_ms`) takes this long; see end_to_end().
CALIB_REF_MS = 20.0
# table4-pressure's XSBench stream length depends on the seed (3.1-4.4 M
# references), and set-up records that stream. Its set-up time is
# reported for a stream of this many references, so that, like
# ns_per_ref, it follows the cost per unit of work rather than the seed.
SETUP_REFS = {"table4-pressure": 4_000_000}
# A child must finish well inside the run's 180 s limit.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's progress goes to stderr; keep stdout for the result.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=False)
    if proc.returncode != 0:
        raise BenchError(f"build failed with code {proc.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        raise BenchError(f"built binary not found at {exe}")
    return exe


def child(exe, args):
    """Runs one benchmark process, free to use every core (the traced
    run measures 2-thread scaling); returns its parsed report."""
    return children(exe, args, 1)[0]


def children(exe, args, count):
    """Runs `count` benchmark processes at once; when there are several
    and enough cores, each is pinned to its own core. Returns their
    parsed reports."""
    cores = sorted(os.sched_getaffinity(0))
    procs = []
    try:
        for i in range(count):
            pin = {cores[i]} if 1 < count <= len(cores) else None
            procs.append(subprocess.Popen(
                [exe, *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=(lambda pin=pin: os.sched_setaffinity(0, pin)) if pin else None,
            ))
        outputs = [p.communicate(timeout=CHILD_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    reports = []
    for p, (out, err) in zip(procs, outputs):
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise BenchError(f"perfbench {' '.join(args)} exited with {p.returncode}")
        reports.append(json.loads(lines[-1]))
    return reports


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def declared_metrics():
    """(end_to_end, per_layer) as name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        skip = {"target", "traces", "__pycache__"}
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, dirs, fs in os.walk(path) for f in fs
            if not skip & set(os.path.relpath(d, ROOT).split(os.sep))
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def check_digests(workload, seed, reports, digests):
    """Problems with the reports' simulated results (empty when correct)."""
    problems = [v for r in reports for v in r["violations"]]
    seen = {r["digest"] for r in reports}
    if len(seen) != 1:
        problems.append(f"digests differ between processes: {sorted(seen)}")
    expected = digests.get(workload, {}).get(str(seed))
    if expected is not None and seen != {expected}:
        problems.append(f"digest {sorted(seen)} != recorded {expected}")
    return problems


def end_to_end(workload, reports, units):
    """Reduces per-process reports to the end-to-end metrics.

    Times are medians over every call (and every set-up) of every
    process, normalised to host speed: multiplied by CALIB_REF_MS over
    the median of every calibration-loop sample the run took.
    """
    scale = CALIB_REF_MS / statistics.median(c for r in reports for c in r["calib_ms"])
    run_s = statistics.median(t for r in reports for t in r["run_s"]) * scale
    first = reports[0]
    setup_scale = scale * SETUP_REFS.get(workload, first["refs"]) / first["refs"]
    values = {
        "setup_s": statistics.median(t for r in reports for t in r["setup_s"]) * setup_scale,
        "ns_per_ref": run_s * 1e9 / (first["refs"] * first["structures"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
        "mosaic_ratio": first["mosaic_ratio"],
    }
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_e2e(exe, workload, seed, seconds, digests, units, size="full"):
    parallel = min(PARALLEL, len(os.sched_getaffinity(0)))
    waves = -(-PROCESSES // parallel)
    budget_ms = int(seconds * 1000 / waves)
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--budget-ms", str(budget_ms)]
    reports = []
    for _ in range(waves):
        reports += children(exe, args, parallel)
    attempted = sum(r["attempted"] for r in reports)
    problems = check_digests(workload, seed, reports, digests)
    failed = attempted if problems else sum(r["failed"] for r in reports)
    for p in problems:
        print(f"perfbench: {workload} seed {seed}: {p}", file=sys.stderr)
    diag = {
        "processes": len(reports),
        "calib_ms": [statistics.median(r["calib_ms"]) for r in reports],
        "run_s": [r["run_s"] for r in reports],
        "setup_s": [r["setup_s"] for r in reports],
        "digest": reports[0]["digest"],
    }
    out = result(failed == 0, attempted, failed, end_to_end(workload, reports, units))
    return out, diag


def run_traced(exe, workload, seed, digests, units, size="full"):
    args = ["--workload", workload, "--seed", str(seed), "--size", size, "--mode", "trace"]
    report = child(exe, args)
    problems = check_digests(workload, seed, [report], digests)
    for p in problems:
        print(f"perfbench: {workload} seed {seed}: {p}", file=sys.stderr)
    metrics = report["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"{workload}: traced run gave no value for {sorted(missing)}")
    failed = report["attempted"] if problems else report["failed"]
    out = result(
        failed == 0,
        report["attempted"],
        failed,
        {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    diag = {"calib_ms": [metrics.get("host.calib_ms")], "digest": report["digest"]}
    return out, diag


def record_digests(exe, seeds):
    digests = load_json(DIGESTS, {})
    for workload in WORKLOADS:
        for seed in seeds:
            r = child(exe, ["--workload", workload, "--seed", str(seed)])
            if r["violations"] or r["failed"]:
                raise BenchError(f"{workload} seed {seed}: {r['violations']}")
            digests.setdefault(workload, {})[str(seed)] = r["digest"]
            print(f"{workload} seed {seed}: {r['digest']}", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--record-digests", metavar="FIRST-LAST")
    a = p.parse_args()
    try:
        exe = build()
        if a.record_digests:
            first, last = (int(x) for x in a.record_digests.split("-"))
            record_digests(exe, range(first, last + 1))
            return 0
        if a.workload is None or a.seed is None:
            p.error("--workload and --seed are required")
        e2e_units, layer_units = declared_metrics()
        # Digests are recorded at the full size only.
        digests = load_json(DIGESTS, {}) if a.size == "full" else {}
        wall0 = time.monotonic()
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if a.trace:
            out, diag = run_traced(exe, a.workload, a.seed, digests, layer_units, a.size)
        else:
            out, diag = run_e2e(exe, a.workload, a.seed, a.seconds, digests, e2e_units, a.size)
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        diag.update({
            "workload": a.workload,
            "seed": a.seed,
            "trace": a.trace,
            "revision": revision(),
            "host_cores": os.cpu_count(),
            "wall_s": time.monotonic() - wall0,
            "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
            "digest_recorded": str(a.seed) in digests.get(a.workload, {}),
        })
        print(json.dumps({"diagnostics": diag}))
        print(json.dumps(out))
        return 0
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
