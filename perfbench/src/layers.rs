//! The traced run: per-layer costs measured from outside the program.
//!
//! Every span is recorded here, around calls into a layer's public
//! functions; nothing inside the program is instrumented. Calls are
//! timed in chunks of [`CHUNK`] references (or singly when a call is
//! itself coarse) so clock reads stay a small share of what they time.
//!
//! A traced run does three things:
//!
//! 1. one untraced call of the named workload, as in the end-to-end run;
//! 2. a *replica* of each workload's entry point, rebuilt from public
//!    calls with a span around each layer call. The named workload's
//!    replica gives `trace.layers_s` (Σ self time of its layer spans),
//!    `trace.residual_s` (untraced time − that sum) and
//!    `trace.overhead_pct` (replica wall ÷ untraced, as a percentage
//!    over 100);
//! 3. layer probes on the same seeded inputs: TLB steps against a
//!    frozen OS model, page walks, the 3C classifier, obs overheads,
//!    Iceberg per-op costs and 2-thread scaling, and `run_cells`
//!    scaling.
//!
//! Replicas and probes run for every workload, so every traced run
//! prints every per-layer metric; only the `trace.*` rows depend on the
//! workload named.

use crate::digest::Digest;
use crate::json::Obj;
use crate::trace::Tracer;
use crate::workloads::{self, Name, Outcome, Size};
use mosaic_hash::XxFamily;
use mosaic_iceberg::{ConcurrentIcebergTable, IcebergConfig, IcebergTable};
use mosaic_mem::stats::PagingStats;
use mosaic_mem::{
    AccessKind, Asid, LinuxMemory, MemoryLayout, MemoryManager, MosaicMemory, PageKey, Pfn,
    TenantQuota, Vpn, PAGE_SIZE,
};
use mosaic_mmu::tlb::MissClassifier;
use mosaic_mmu::{Arity, Associativity, MosaicLookup, MosaicTlb, TlbConfig, Toc, VanillaTlb};
use mosaic_obs::{AttribCategory, ObsHandle};
use mosaic_sim::fig6::{self, Fig6Config, DEFAULT_BATCH};
use mosaic_sim::os::{frames_for_footprint, OsModel, VanillaTranslation};
use mosaic_sim::pressure::{PressureRow, PressureWorkload, ResilienceReport};
use mosaic_sim::{AttribConfig, DualSim, Fig6Row, TlbKind, TraceBuffer, TraceBufferBuilder};
use mosaic_tenants::{build_schedule, Schedule, TenantOp, TenantsConfig};
use mosaic_workloads::{Access, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// References per timed chunk.
const CHUNK: usize = 4096;

/// Runs of each side of a probe that compares two timings.
const REPEATS: usize = 3;

/// Per-layer metric values, by name.
type Metrics = BTreeMap<&'static str, f64>;

/// Nearest-rank percentile of `ns` samples, in µs.
fn pct_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    let mut v = ns.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1] as f64 / 1e3
}

fn total_ns(t: &Tracer, name: &str) -> f64 {
    t.durations(name).iter().sum::<u64>() as f64
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn record(w: &mut dyn Workload) -> TraceBuffer {
    TraceBuffer::record(w).expect("an in-memory trace records without spilling")
}

/// Runs the traced measurement of `name` and returns its report line.
pub fn traced(name: Name, seed: u64, size: Size) -> String {
    let mut m = Metrics::new();
    let mut violations = Vec::new();
    let mut calib = [crate::calib_ms(), crate::calib_ms(), crate::calib_ms()];
    calib.sort_by(f64::total_cmp);
    m.insert("host.calib_ms", calib[1]);

    // RSS growth is read first, before freed memory can be reused.
    let pcfg = workloads::pressure_config(seed, size);
    let rss0 = crate::rss_bytes();
    let ptrace = record(workloads::pressure_stream(&pcfg).as_mut());
    let rss1 = crate::rss_bytes();
    m.insert(
        "sim.trace_buffer.rss_bytes_per_ref",
        (rss1 - rss0) / ptrace.len() as f64,
    );

    // The untraced reference: the mean of two calls, as the end-to-end
    // run times every call it makes.
    let input = workloads::setup(name, seed, size);
    let (outcome, first_s) = secs(|| workloads::run(&input));
    let (_, second_s) = secs(|| workloads::run(&input));
    let untraced_s = (first_s + second_s) / 2.0;
    drop(input);
    violations.extend(outcome.violations.iter().cloned());

    // Inputs the end-to-end runs build in set-up are built here too,
    // outside the replicas' root spans.
    let ftrace = record(&mut workloads::fig6_gups(seed, size));
    let tcfg = workloads::tenants_config(seed, size);
    let (schedule, build_s) = secs(|| build_schedule(&tcfg));
    m.insert("tenants.build_schedule_s", build_s);
    let mut t = Tracer::default();
    let mut root = 0;
    for w in Name::ALL {
        if w == name {
            root = t.spans().len();
        }
        let digest = t.span(w.as_str(), |t| match w {
            Name::Fig6Gups => fig6_replica(t, seed, &ftrace, &mut m),
            Name::Attrib => attrib_replica(t, seed, size, &mut m, &mut violations),
            Name::Table4Pressure => pressure_replica(t, &pcfg, &mut m, &mut violations),
            Name::TenantsChurn => tenants_replica(t, &tcfg, &schedule, &mut m, &mut violations),
        });
        match digest {
            Some(d) if w == name && d != outcome.digest => violations.push(format!(
                "traced replica digest {d} != untraced {}",
                outcome.digest
            )),
            _ => {}
        }
    }
    let replica_s = t.spans()[root].ns() as f64 / 1e9;
    let self_ns = t.self_ns_under(root);
    let layers_s = self_ns.values().sum::<u64>() as f64 / 1e9;
    m.insert("trace.layers_s", layers_s);
    m.insert("trace.residual_s", untraced_s - layers_s);
    m.insert("trace.overhead_pct", (replica_s / untraced_s - 1.0) * 100.0);

    fig6_probes(seed, size, &mut m, &mut violations);
    attrib_probes(seed, size, &mut m);
    iceberg_probes(&pcfg, &ptrace, size, &mut m);
    replay_probe(&ptrace, &mut m);

    write_spans(name, seed, untraced_s, &t, &self_ns);
    let failed = if violations.is_empty() {
        outcome.failed
    } else {
        outcome.refs * outcome.structures
    };
    report(name, seed, &outcome, failed, &violations, &m)
}

/// Where [`write_spans`] puts a traced run's spans.
pub const TRACE_DIR: &str = "perfbench/traces";

/// Writes every span, plus the named workload's self time per layer
/// beside its untraced time, to `TRACE_DIR/<workload>-<seed>.json`. A
/// failure to write only warns: the metrics are already measured.
fn write_spans(
    name: Name,
    seed: u64,
    untraced_s: f64,
    t: &Tracer,
    self_ns: &BTreeMap<&'static str, u64>,
) {
    let layers = self_ns
        .iter()
        .fold(Obj::default(), |o, (k, ns)| o.num(k, *ns as f64 / 1e9));
    let spans: Vec<String> = t
        .spans()
        .iter()
        .map(|s| {
            let o = Obj::default()
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o,
            }
            .finish()
        })
        .collect();
    let text = Obj::default()
        .str("workload", name.as_str())
        .int("seed", seed)
        .num("untraced_s", untraced_s)
        .obj("self_s", layers)
        .raw("spans", &format!("[{}]", spans.join(",")))
        .finish();
    let path = format!("{TRACE_DIR}/{}-{seed}.json", name.as_str());
    if let Err(e) = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

fn report(
    name: Name,
    seed: u64,
    o: &Outcome,
    failed: u64,
    violations: &[String],
    m: &Metrics,
) -> String {
    let metrics = m.iter().fold(Obj::default(), |obj, (k, v)| obj.num(k, *v));
    Obj::default()
        .str("workload", name.as_str())
        .int("seed", seed)
        .int("attempted", o.refs * o.structures)
        .int("failed", failed)
        .str("digest", &o.digest)
        .strs("violations", violations)
        .obj("metrics", metrics)
        .finish()
}

/// `fig6::run_workload`'s serial engine rebuilt from `DualSim` calls:
/// the same 4096-reference batches, each batch one span.
fn fig6_replica(t: &mut Tracer, seed: u64, trace: &TraceBuffer, m: &mut Metrics) -> Option<String> {
    let cfg = workloads::fig6_config(seed);
    let (rows, walks) = dual_pass(t, &cfg, trace, None);
    let batches = t.durations("sim.dual.access_batch");
    m.insert("sim.dual.batch_us.p50", pct_us(&batches, 50.0));
    m.insert("sim.dual.batch_us.p99", pct_us(&batches, 99.0));
    m.insert("sim.dual.batches", batches.len() as f64);
    let sum =
        |f: fn(&mosaic_mmu::TlbStats) -> u64| rows.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    m.insert("mmu.tlb.accesses", sum(|s| s.accesses));
    m.insert("mmu.tlb.hits", sum(|s| s.hits));
    m.insert("mmu.tlb.misses", sum(|s| s.misses));
    m.insert("mmu.tlb.sub_entry_misses", sum(|s| s.sub_entry_misses));
    m.insert("mmu.tlb.evictions", sum(|s| s.evictions));
    m.insert("mmu.pagetable.walks.vanilla", walks.0 as f64);
    m.insert("mmu.pagetable.walks.huge", walks.1 as f64);
    m.insert("mmu.pagetable.walks.mosaic", walks.2 as f64);
    Some(Digest::default().fig6_rows(&rows).hex())
}

/// Replays `trace` through a `DualSim` in [`DEFAULT_BATCH`] batches,
/// one `sim.dual.access_batch` span each. Returns the Figure 6 rows and
/// the OS model's walk counts.
fn dual_pass(
    t: &mut Tracer,
    cfg: &Fig6Config,
    trace: &TraceBuffer,
    obs: Option<&ObsHandle>,
) -> (Vec<Fig6Row>, (u64, u64, u64)) {
    let meta = trace.meta().clone();
    let footprint_pages = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let mut sim = t.span("sim.dual.new", |_| {
        DualSim::new(
            cfg.tlb_entries,
            &cfg.associativities,
            &cfg.arities,
            footprint_pages,
            cfg.kernel,
            cfg.seed,
        )
    });
    if let Some(obs) = obs {
        sim.set_obs(obs);
    }
    let mut buf: Vec<Access> = Vec::with_capacity(DEFAULT_BATCH);
    t.span("sim.trace_buffer.replay", |t| {
        trace
            .replay_chunks(&mut |chunk| {
                for &a in chunk {
                    buf.push(a);
                    if buf.len() >= DEFAULT_BATCH {
                        t.span("sim.dual.access_batch", |_| sim.access_batch(&buf));
                        buf.clear();
                    }
                }
            })
            .expect("in-memory replay cannot fail");
        if !buf.is_empty() {
            t.span("sim.dual.access_batch", |_| sim.access_batch(&buf));
        }
    });
    let rows = sim
        .results()
        .into_iter()
        .map(|(assoc, arity, stats)| Fig6Row {
            workload: meta.name.to_string(),
            assoc,
            kind: arity.map_or(TlbKind::Vanilla, TlbKind::Mosaic),
            stats,
        })
        .collect();
    (rows, sim.os().walk_counts())
}

/// The attribution entry point rebuilt from public calls: each stream
/// generated in chunks (recording as a child span), its TLB cells as a
/// `DualSim` with attribution on, and its two memory-manager cells.
fn attrib_replica(
    t: &mut Tracer,
    seed: u64,
    size: Size,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> Option<String> {
    let cfg = workloads::attrib_config(seed, size);
    let fcfg = Fig6Config {
        tlb_entries: cfg.tlb_entries,
        associativities: cfg.associativities.clone(),
        arities: cfg.arities.clone(),
        kernel: None,
        seed: cfg.seed,
        batch: DEFAULT_BATCH,
    };
    let mut three_c = [0u64; 3];
    for (_, mut w) in workloads::attrib_streams(&cfg) {
        let meta = w.meta();
        let mut builder = TraceBufferBuilder::new();
        t.span("workloads.gen", |t| {
            w.run_chunks(CHUNK, &mut |chunk| {
                t.span("sim.trace_buffer.record", |_| {
                    chunk.iter().for_each(|&a| builder.push(a))
                })
            })
        });
        let trace = builder
            .finish(meta)
            .expect("an in-memory trace records without spilling");
        let obs = ObsHandle::enabled();
        obs.set_attrib(true);
        let (rows, _) = dual_pass(t, &fcfg, &trace, Some(&obs));
        for name in obs.attrib_names().iter().filter(|n| n.starts_with("tlb.")) {
            let table = obs.attrib_table(name);
            for (i, c) in [
                AttribCategory::Compulsory,
                AttribCategory::Capacity,
                AttribCategory::Conflict,
            ]
            .into_iter()
            .enumerate()
            {
                three_c[i] += table.category_total(c);
            }
        }
        let misses: u64 = rows.iter().map(|r| r.stats.misses).sum();
        let classified: u64 = obs
            .attrib_names()
            .iter()
            .filter(|n| n.starts_with("tlb."))
            .map(|n| obs.attrib_table(n).total())
            .sum();
        if misses != classified {
            violations.push(format!(
                "attrib replica: {classified} classified of {misses} misses"
            ));
        }
        for (mgr, span) in [
            ("mosaic", "mem.mosaic.attrib_cell"),
            ("linux", "mem.linux.attrib_cell"),
        ] {
            t.span(span, |_| attrib_mem_cell(&cfg, mgr, &trace));
        }
    }
    m.insert("obs.attrib.compulsory", three_c[0] as f64);
    m.insert("obs.attrib.capacity", three_c[1] as f64);
    m.insert("obs.attrib.conflict", three_c[2] as f64);
    None
}

/// One attribution memory cell: the stream split over two tenants by
/// VPN parity, the odd tenant clamped to an eighth of memory and then
/// released, with fault attribution on.
fn attrib_mem_cell(cfg: &AttribConfig, mgr: &str, trace: &TraceBuffer) {
    let layout = MemoryLayout::new(IcebergConfig::paper_default(cfg.mem_buckets));
    let mut mosaic;
    let mut linux;
    let manager: &mut dyn MemoryManager = if mgr == "mosaic" {
        mosaic = MosaicMemory::new(layout, cfg.seed);
        &mut mosaic
    } else {
        linux = LinuxMemory::new(layout);
        &mut linux
    };
    let obs = ObsHandle::enabled();
    obs.set_attrib(true);
    manager.set_obs(&obs, mgr);
    let (mut now, mut max_vpn) = (0u64, 0u64);
    trace
        .replay(&mut |a| {
            now += 1;
            let vpn = a.addr.vpn();
            max_vpn = max_vpn.max(vpn.0);
            let tenant = Asid(1 + (vpn.0 & 1) as u16);
            black_box(
                manager
                    .try_access(PageKey::new(tenant, vpn), a.kind, now)
                    .is_err(),
            );
        })
        .expect("in-memory replay cannot fail");
    manager.set_quota(
        Asid(2),
        TenantQuota {
            frames: manager.num_frames() / 8,
            priority: 0,
        },
    );
    let probe = max_vpn + 1 + ((max_vpn + 1) & 1 ^ 1);
    black_box(
        manager
            .try_access(PageKey::new(Asid(2), Vpn(probe)), AccessKind::Load, now + 1)
            .is_err(),
    );
    manager.release_asid(Asid(2));
    manager.publish_obs();
}

/// `pressure::run_pressure_resilient` rebuilt from manager calls:
/// chunks of `try_access` per manager, then the closing `verify`.
fn pressure_replica(
    t: &mut Tracer,
    cfg: &mosaic_sim::PressureConfig,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> Option<String> {
    let trace = &t.span("sim.trace_buffer.record", |_| {
        record(workloads::pressure_stream(cfg).as_mut())
    });
    let layout = MemoryLayout::new(IcebergConfig::paper_default(cfg.mem_buckets));
    let mut mosaic = MosaicMemory::new(layout, cfg.seed);
    let mut linux = LinuxMemory::new(layout);
    let refs = trace.len();
    let warmup = (cfg.mem_bytes() as f64 * workloads::PRESSURE_RATIO) as u64 / PAGE_SIZE;
    type Counter = (&'static str, fn(&PagingStats) -> u64);
    let mosaic_counters: [Counter; 4] = [
        ("mem.mosaic.major_faults", |s| s.major_faults),
        ("mem.mosaic.swapped_out", |s| s.swapped_out),
        ("mem.mosaic.ghost_evictions", |s| s.ghost_evictions),
        ("mem.mosaic.conflicts", |s| s.conflicts),
    ];
    // The baseline has no ghosts and no placement conflicts.
    let linux_counters: [Counter; 4] = [
        ("mem.linux.major_faults", |s| s.major_faults),
        ("mem.linux.swapped_out", |s| s.swapped_out),
        ("mem.linux.live_evictions", |s| s.live_evictions),
        ("mem.linux.clean_drops", |s| s.clean_drops),
    ];
    for (mgr, span, ns_metric, counters, manager) in [
        (
            "mosaic",
            "mem.mosaic.try_access",
            "mem.mosaic.try_access_ns",
            mosaic_counters,
            &mut mosaic as &mut dyn MemoryManager,
        ),
        (
            "linux",
            "mem.linux.try_access",
            "mem.linux.try_access_ns",
            linux_counters,
            &mut linux as &mut dyn MemoryManager,
        ),
    ] {
        let (mut now, mut dropped) = (0u64, 0u64);
        t.span("sim.trace_buffer.replay", |t| {
            trace
                .replay_chunks(&mut |chunk| {
                    t.span(span, |_| {
                        for &a in chunk {
                            now += 1;
                            let key = PageKey::new(Asid(1), a.addr.vpn());
                            if manager.try_access(key, a.kind, now).is_err() {
                                dropped += 1;
                            }
                            if now > warmup && now.is_multiple_of(65_536) {
                                manager.sample_utilization();
                            }
                        }
                    })
                })
                .expect("in-memory replay cannot fail")
        });
        manager.sample_utilization();
        if let Err(e) = t.span("mem.verify", |_| manager.verify()) {
            violations.push(format!("{mgr}: verify failed: {e}"));
        }
        let s = *manager.stats();
        if dropped != 0 || s.accesses != refs || s.minor_faults + s.major_faults > s.accesses {
            violations.push(format!(
                "{mgr}: {dropped} dropped, {} accesses of {refs}, {} faults",
                s.accesses,
                s.faults()
            ));
        }
        m.insert(ns_metric, total_ns(t, span) / refs as f64);
        for (name, value) in counters {
            m.insert(name, value(&s) as f64);
        }
    }
    // The entry point's row and report, rebuilt so the replica can be
    // held to the untraced call's digest.
    let row = PressureRow {
        workload: PressureWorkload::XsBench.name(),
        footprint_bytes: trace.meta().footprint_bytes,
        linux_swaps: linux.stats().swap_ops(),
        mosaic_swaps: mosaic.stats().swap_ops(),
        first_conflict_pct: mosaic
            .utilization_tracker()
            .first_conflict()
            .map(|u| u * 100.0),
        steady_state_pct: mosaic
            .utilization_tracker()
            .steady_state_mean()
            .map(|u| u * 100.0),
        linux_steady_pct: linux
            .utilization_tracker()
            .steady_state_mean()
            .map(|u| u * 100.0),
    };
    let report = ResilienceReport {
        mosaic: *mosaic.resilience(),
        linux: *linux.resilience(),
        mosaic_dropped: 0,
        linux_dropped: 0,
        verify_passes: 2,
        accesses_driven: 2 * refs,
        last_error: None,
    };
    Some(
        Digest::default()
            .pressure_row(&row)
            .resilience_report(&report)
            .hex(),
    )
}

/// The tenants driver's replay rebuilt from manager calls: runs of
/// accesses as chunk spans, each exit's `release_asid` as its own span.
fn tenants_replica(
    t: &mut Tracer,
    cfg: &TenantsConfig,
    schedule: &Schedule,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> Option<String> {
    m.insert("tenants.exits", schedule.exits() as f64);
    m.insert("tenants.distinct_traces", schedule.distinct_traces() as f64);
    let layout = MemoryLayout::new(IcebergConfig::paper_default(cfg.mem_buckets));
    let mut mosaic = MosaicMemory::new(layout, cfg.seed);
    let mut linux = LinuxMemory::new(layout);
    let mut reclaimed = 0;
    for (mgr, span, ns_metric, manager) in [
        (
            "mosaic",
            "mem.mosaic.tenants_access",
            "mem.mosaic.tenants_try_access_ns",
            &mut mosaic as &mut dyn MemoryManager,
        ),
        (
            "linux",
            "mem.linux.tenants_access",
            "mem.linux.tenants_try_access_ns",
            &mut linux as &mut dyn MemoryManager,
        ),
    ] {
        let freed = drive_schedule(t, cfg, schedule, manager, span);
        if mgr == "mosaic" {
            reclaimed = freed;
        }
        if let Err(e) = t.span("mem.verify", |_| manager.verify()) {
            violations.push(format!("{mgr}: verify failed: {e}"));
        }
        if manager.stats().accesses != schedule.accesses() {
            violations.push(format!(
                "{mgr}: {} accesses of {}",
                manager.stats().accesses,
                schedule.accesses()
            ));
        }
        m.insert(ns_metric, total_ns(t, span) / schedule.accesses() as f64);
    }
    m.insert("tenants.frames_reclaimed", reclaimed as f64);
    let releases = t.durations("mem.release_asid");
    m.insert("mem.release_asid_us.p50", pct_us(&releases, 50.0));
    m.insert("mem.release_asid_us.p99", pct_us(&releases, 99.0));
    let verifies = t.durations("mem.verify");
    m.insert(
        "mem.verify_ms",
        verifies.iter().sum::<u64>() as f64 / verifies.len() as f64 / 1e6,
    );
    None
}

/// Replays `schedule` into `manager` with the driver's cadence; returns
/// the frames its exits reclaimed.
fn drive_schedule(
    t: &mut Tracer,
    cfg: &TenantsConfig,
    schedule: &Schedule,
    manager: &mut dyn MemoryManager,
    span: &'static str,
) -> u64 {
    let warmup = cfg.target_bytes() / PAGE_SIZE;
    let (mut now, mut freed) = (0u64, 0u64);
    for run in schedule
        .ops()
        .split_inclusive(|op| !matches!(op, TenantOp::Access { .. }))
    {
        for part in run.chunks(CHUNK) {
            t.span(span, |_| {
                for op in part {
                    if let TenantOp::Access {
                        asid, vpn, kind, ..
                    } = *op
                    {
                        now += 1;
                        black_box(
                            manager
                                .try_access(PageKey::new(asid, vpn), kind, now)
                                .is_err(),
                        );
                        if now > warmup && now.is_multiple_of(65_536) {
                            manager.sample_utilization();
                        }
                    }
                }
            });
            if let Some(TenantOp::Exit { asid, .. }) = part.last() {
                freed += t.span("mem.release_asid", |_| manager.release_asid(*asid));
            }
        }
    }
    manager.sample_utilization();
    freed
}

/// Figure 6 layer probes on the `fig6-gups` input: generation and
/// recording cost, the OS touch pre-pass, TLB steps and page walks
/// against a frozen OS model, the 3C classifier, obs overheads and
/// `run_cells` scaling.
fn fig6_probes(seed: u64, size: Size, m: &mut Metrics, violations: &mut Vec<String>) {
    let cfg = workloads::fig6_config(seed);
    let (refs, gen_s) = secs(|| {
        let mut n = 0u64;
        workloads::fig6_gups(seed, size).run(&mut |a| {
            black_box(a);
            n += 1;
        });
        n
    });
    let (trace, record_s) = secs(|| record(&mut workloads::fig6_gups(seed, size)));
    m.insert("workloads.gen_ns_per_ref", gen_s * 1e9 / refs as f64);
    m.insert(
        "sim.trace_buffer.record_ns_per_ref",
        (record_s - gen_s) * 1e9 / refs as f64,
    );

    // A fresh OS model sized as the Figure 6 driver sizes it.
    let vpns: Vec<Vpn> = {
        let mut v = Vec::with_capacity(refs as usize);
        trace
            .replay(&mut |a| v.push(a.addr.vpn()))
            .expect("in-memory replay cannot fail");
        v
    };
    let footprint_pages = trace.meta().footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let kernel_pages = cfg.kernel.map_or(0, |k| k.pages);
    let layout = MemoryLayout::default()
        .with_at_least_frames(frames_for_footprint(footprint_pages, kernel_pages));
    let mut os = OsModel::new(layout, &cfg.arities, cfg.seed);
    let mut first = 0u64;
    let touch_s = chunked(&vpns, |chunk| {
        for &v in chunk {
            first += u64::from(os.touch(v, AccessKind::Load));
        }
    });
    m.insert("sim.os.touch_ns", touch_s * 1e9 / refs as f64);
    m.insert("sim.os.first_touches", first as f64);

    let miss = tlb_steps(
        &mut os,
        &vpns,
        1024,
        m,
        "mmu.tlb.vanilla.step_ns",
        "mmu.tlb.mosaic4.step_ns",
    );
    let vanilla_misses: Vec<Vpn> = vpns
        .iter()
        .zip(&miss.0)
        .filter(|(_, &h)| !h)
        .map(|(&v, _)| v)
        .collect();
    let mosaic_misses: Vec<Vpn> = vpns
        .iter()
        .zip(&miss.1)
        .filter(|(_, &h)| !h)
        .map(|(&v, _)| v)
        .collect();
    let s = chunked(&vanilla_misses, |c| {
        c.iter().for_each(|&v| {
            black_box(os.vanilla_walk(v));
        })
    });
    m.insert(
        "mmu.pagetable.vanilla_walk_ns",
        s * 1e9 / vanilla_misses.len().max(1) as f64,
    );
    let s = chunked(&mosaic_misses, |c| {
        c.iter().for_each(|&v| {
            black_box(os.mosaic_walk_ref(0, v));
        })
    });
    m.insert(
        "mmu.pagetable.mosaic_walk_ns",
        s * 1e9 / mosaic_misses.len().max(1) as f64,
    );

    // The 3C classifier on the vanilla 8-way outcomes, at 1024 entries.
    let obs = ObsHandle::enabled();
    obs.set_attrib(true);
    let mut cls = MissClassifier::new(1024, obs.attrib("probe"));
    let asid = os.asid();
    let hits = &miss.0;
    let mut i = 0;
    let s = chunked(&vpns, |c| {
        for &v in c {
            black_box(cls.observe(asid, v.0, v.0, hits[i]));
            i += 1;
        }
    });
    m.insert("mmu.tlb.attrib.observe_ns", s * 1e9 / refs as f64);

    // Whole-grid reruns: obs off (the baseline), attribution on, obs on
    // with interval snapshots, and two jobs, interleaved [`REPEATS`]
    // times with the fastest of each kept, so a swing in host speed does
    // not land on one side of a ratio only. Each must return the same
    // rows.
    let base = fig6::run_workload(&cfg, &mut trace.replayer());
    let [mut noop_s, mut attrib_s, mut flush_s, mut jobs2_s] = [f64::INFINITY; 4];
    for _ in 0..REPEATS {
        let (rows, s) = secs(|| fig6::run_workload(&cfg, &mut trace.replayer()));
        check_rows(&base, &rows, "a rerun", violations);
        noop_s = noop_s.min(s);
        let attrib = ObsHandle::enabled();
        attrib.set_attrib(true);
        let (rows, s) =
            secs(|| fig6::run_workload_observed(&cfg, &mut trace.replayer(), &attrib, 0));
        check_rows(&base, &rows, "attribution on", violations);
        attrib_s = attrib_s.min(s);
        let (rows, s) = secs(|| {
            fig6::run_workload_observed(&cfg, &mut trace.replayer(), &ObsHandle::enabled(), 16_384)
        });
        check_rows(&base, &rows, "interval snapshots", violations);
        flush_s = flush_s.min(s);
        let (rows, s) = secs(|| fig6::run_workload_jobs(&cfg, &mut trace.replayer(), 2));
        check_rows(&base, &rows, "jobs 2", violations);
        jobs2_s = jobs2_s.min(s);
    }
    m.insert("obs.attrib.overhead_pct", (attrib_s / noop_s - 1.0) * 100.0);
    m.insert("obs.flush_overhead_pct", (flush_s / noop_s - 1.0) * 100.0);
    m.insert("sim.parallel.fig6_jobs2_speedup", noop_s / jobs2_s);
}

fn check_rows(base: &[Fig6Row], rows: &[Fig6Row], what: &str, violations: &mut Vec<String>) {
    if base != rows {
        violations.push(format!("fig6 rows differ with {what}"));
    }
}

/// Seconds spent in `f` over `items` in [`CHUNK`]-sized calls.
fn chunked<T>(items: &[T], mut f: impl FnMut(&[T])) -> f64 {
    let mut total = 0.0;
    for c in items.chunks(CHUNK) {
        let t = Instant::now();
        f(c);
        total += t.elapsed().as_secs_f64();
    }
    total
}

/// Times `lookup` + fill on one vanilla and one Mosaic-4 instance (8-way,
/// `entries` entries) over `vpns`, with every translation precomputed
/// from the (already touched, now frozen) OS model. Returns each
/// instance's per-reference hit flags.
fn tlb_steps(
    os: &mut OsModel,
    vpns: &[Vpn],
    entries: usize,
    m: &mut Metrics,
    vanilla_name: &'static str,
    mosaic_name: &'static str,
) -> (Vec<bool>, Vec<bool>) {
    let asid = os.asid();
    let cfg = TlbConfig::new(entries, Associativity::Ways(8));
    let arity = Arity::new(4);
    let arity_idx = os
        .arities()
        .iter()
        .position(|&a| a == arity)
        .expect("the grid sweeps arity 4");
    let pfns: Vec<Pfn> = vpns
        .iter()
        .map(|&v| match os.vanilla_walk(v) {
            VanillaTranslation::Base(p) => p,
            VanillaTranslation::Huge(p) => p,
        })
        .collect();
    let mut toc_of: HashMap<u64, u32> = HashMap::new();
    let mut tocs: Vec<Toc> = Vec::new();
    let toc_idx: Vec<u32> = vpns
        .iter()
        .map(|&v| {
            let (mvpn, _) = arity.split(v);
            *toc_of.entry(mvpn.0).or_insert_with(|| {
                tocs.push(os.mosaic_walk(arity_idx, v));
                (tocs.len() - 1) as u32
            })
        })
        .collect();
    let cpfns: Vec<_> = vpns
        .iter()
        .map(|&v| os.cpfn_of(v).expect("touched page is mapped"))
        .collect();

    let mut tlb = VanillaTlb::new(cfg);
    let mut vhit = Vec::with_capacity(vpns.len());
    let mut i = 0;
    let s = chunked(vpns, |c| {
        for &v in c {
            let hit = tlb.lookup(asid, v).is_hit();
            if !hit {
                tlb.fill_base(asid, v, pfns[i]);
            }
            vhit.push(hit);
            i += 1;
        }
    });
    m.insert(vanilla_name, s * 1e9 / vpns.len() as f64);

    let mut tlb = MosaicTlb::new(cfg, arity);
    let mut mhit = Vec::with_capacity(vpns.len());
    let mut i = 0;
    let s = chunked(vpns, |c| {
        for &v in c {
            let hit = match tlb.lookup(asid, v) {
                MosaicLookup::Hit(_) => true,
                MosaicLookup::SubMiss => {
                    tlb.fill_sub(asid, v, cpfns[i]);
                    false
                }
                MosaicLookup::Miss => {
                    tlb.fill_toc_ref(asid, v, &tocs[toc_idx[i] as usize]);
                    false
                }
            };
            mhit.push(hit);
            i += 1;
        }
    });
    m.insert(mosaic_name, s * 1e9 / vpns.len() as f64);
    (vhit, mhit)
}

/// Hit-heavy TLB steps on the attribution GUPS stream, whose footprint
/// (about 1075 pages) is about the TLB's size.
fn attrib_probes(seed: u64, size: Size, m: &mut Metrics) {
    let cfg = workloads::attrib_config(seed, size);
    let (_, mut gups) = workloads::attrib_streams(&cfg)
        .into_iter()
        .next()
        .expect("GUPS stream");
    let trace = record(gups.as_mut());
    let mut vpns = Vec::with_capacity(trace.len() as usize);
    trace
        .replay(&mut |a| vpns.push(a.addr.vpn()))
        .expect("in-memory replay cannot fail");
    let footprint_pages = trace.meta().footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let layout =
        MemoryLayout::default().with_at_least_frames(frames_for_footprint(footprint_pages, 0));
    let mut os = OsModel::new(layout, &cfg.arities, cfg.seed);
    for &v in &vpns {
        os.touch(v, AccessKind::Load);
    }
    tlb_steps(
        &mut os,
        &vpns,
        cfg.tlb_entries,
        m,
        "mmu.tlb.vanilla.hit_step_ns",
        "mmu.tlb.mosaic4.hit_step_ns",
    );
}

/// Iceberg per-op costs at the `table4-pressure` pool geometry, fed that
/// workload's page keys: fill to 90 % load, then FIFO remove/insert
/// churn, timed per phase on both tables; then insert throughput at one
/// and two threads, and the load at the first conflict.
fn iceberg_probes(
    cfg: &mosaic_sim::PressureConfig,
    trace: &TraceBuffer,
    size: Size,
    m: &mut Metrics,
) {
    let mut seen = HashSet::new();
    let mut keys: Vec<PageKey> = Vec::new();
    trace
        .replay(&mut |a| {
            if seen.insert(a.addr.vpn()) {
                keys.push(PageKey::new(Asid(1), a.addr.vpn()));
            }
        })
        .expect("in-memory replay cannot fail");
    let icfg = IcebergConfig::paper_default(cfg.mem_buckets);
    let family = || XxFamily::new(icfg.hash_count(), cfg.seed);
    let slots = icfg.total_slots();
    let window = slots * 9 / 10;
    let churn = match size {
        Size::Full => 400_000,
        Size::Smoke => 5_000,
    };

    let mut serial: IcebergTable<PageKey, Pfn, XxFamily> = IcebergTable::new(icfg, family());
    let (ins, rem) = churn_costs(
        &mut serial,
        &keys,
        window,
        churn,
        |t, k, v| t.insert(k, v).is_ok(),
        |t, k| t.remove(k).is_some(),
    );
    m.insert("iceberg.serial.insert_ns", ins);
    m.insert("iceberg.serial.remove_ns", rem);
    let conc: ConcurrentIcebergTable<PageKey, Pfn, XxFamily> =
        ConcurrentIcebergTable::new(icfg, family());
    let (ins, rem) = churn_costs(
        &mut &conc,
        &keys,
        window,
        churn,
        |t, k, v| t.insert(k, v).is_ok(),
        |t, k| t.remove(k).is_some(),
    );
    m.insert("iceberg.concurrent.insert_ns", ins);
    m.insert("iceberg.concurrent.remove_ns", rem);

    let rounds = match size {
        Size::Full => 400,
        Size::Smoke => 4,
    };
    let fill = &keys[..(slots * 85 / 100).min(keys.len())];
    // Interleaved and best of [`REPEATS`], as for the grid reruns.
    let mut mops = [0.0f64; 2];
    for _ in 0..REPEATS {
        for (threads, best) in (1..).zip(mops.iter_mut()) {
            let table: ConcurrentIcebergTable<PageKey, Pfn, XxFamily> =
                ConcurrentIcebergTable::new(icfg, family());
            *best = best.max(insert_mops(&table, fill, threads, rounds));
        }
    }
    m.insert("iceberg.concurrent.insert_mops_1t", mops[0]);
    m.insert("iceberg.concurrent.insert_mops_2t", mops[1]);

    let mut table: IcebergTable<PageKey, Pfn, XxFamily> = IcebergTable::new(icfg, family());
    let mut first_conflict = keys.len();
    for (i, &k) in keys.iter().enumerate() {
        if table.insert(k, Pfn(i as u64)).is_err() {
            first_conflict = table.len();
            break;
        }
    }
    m.insert(
        "iceberg.first_conflict_load_pct",
        first_conflict as f64 * 100.0 / slots as f64,
    );
}

/// Fills to `window` resident keys, then runs `ops` FIFO churn steps
/// over the cyclic key sequence in [`CHUNK`]-sized phases (removes
/// timed apart from inserts). Returns ns per insert and per remove.
fn churn_costs<T>(
    table: &mut T,
    keys: &[PageKey],
    window: usize,
    ops: usize,
    insert: impl Fn(&mut T, PageKey, Pfn) -> bool,
    remove: impl Fn(&mut T, &PageKey) -> bool,
) -> (f64, f64) {
    let n = keys.len();
    for (i, &k) in keys.iter().take(window).enumerate() {
        black_box(insert(table, k, Pfn(i as u64)));
    }
    let (mut ins_s, mut rem_s) = (0.0, 0.0);
    let mut head = 0;
    while head < ops {
        let len = CHUNK.min(ops - head);
        let t = Instant::now();
        for j in head..head + len {
            black_box(remove(table, &keys[j % n]));
        }
        rem_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for j in head..head + len {
            black_box(insert(table, keys[(j + window) % n], Pfn(j as u64)));
        }
        ins_s += t.elapsed().as_secs_f64();
        head += len;
    }
    (ins_s * 1e9 / ops as f64, rem_s * 1e9 / ops as f64)
}

/// Insert throughput (Mops) of `threads` workers filling `table` with
/// disjoint shares of `keys`, over `rounds` fill/drain rounds; only the
/// fill phases (between barriers) are timed.
fn insert_mops(
    table: &ConcurrentIcebergTable<PageKey, Pfn, XxFamily>,
    keys: &[PageKey],
    threads: usize,
    rounds: usize,
) -> f64 {
    let barrier = Barrier::new(threads);
    let fill_s = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|id| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mine: Vec<PageKey> =
                        keys.iter().skip(id).step_by(threads).copied().collect();
                    let mut timed = 0.0;
                    for _ in 0..rounds {
                        barrier.wait();
                        let t = Instant::now();
                        for (i, &k) in mine.iter().enumerate() {
                            black_box(table.insert(k, Pfn(i as u64)).is_ok());
                        }
                        barrier.wait();
                        timed += t.elapsed().as_secs_f64();
                        for k in &mine {
                            black_box(table.remove(k));
                        }
                    }
                    timed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("an insert worker panicked"))
            .fold(0.0, f64::max)
    });
    (keys.len() * rounds) as f64 / fill_s / 1e6
}

/// Decode-only replay cost: the stream into a sink that does nothing.
fn replay_probe(trace: &TraceBuffer, m: &mut Metrics) {
    let (_, s) = secs(|| {
        trace
            .replay_chunks(&mut |c| {
                black_box(c);
            })
            .expect("in-memory replay cannot fail")
    });
    m.insert(
        "sim.trace_buffer.replay_ns_per_ref",
        s * 1e9 / trace.len() as f64,
    );
}
