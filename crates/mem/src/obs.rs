//! Observability handles for the memory managers.
//!
//! A [`MemObs`] bundle mirrors [`crate::stats::PagingStats`] (plus the
//! manager's hit counts) as counter handles, and carries the
//! fault-injection outcome events the resilience harness produces.
//! Managers own one bundle each, registered under a prefix (`mosaic.*`,
//! `linux.*`, `clock.*`) so a dual-manager pressure run exports both
//! sides in one stream.
//!
//! The access path counts only into the manager's own plain fields: a
//! manager's `publish_obs` hands its counts to
//! [`MemObs::publish_counts`], which adds the movement since the last
//! publish (one relaxed add per counter). Every snapshot site publishes
//! first, so exported values are the same as with per-access counting.
//! Rare events — injected faults and their outcomes, quota deferrals
//! and quota-steered evictions — still count where they happen.
//!
//! Fault outcomes obey a conservation law the integration tests assert:
//! every `fault.injected` event is followed by exactly one of
//! `fault.recovered` (a retry or re-walk absorbed it) or
//! `fault.unrecovered` (retry budget exhausted → typed error, or an
//! undetectable benign ToC flip). So `injected == recovered +
//! unrecovered`, both as events and as the `<prefix>.fault.*` counters.

use crate::stats::PagingStats;
use mosaic_obs::{AttribCategory, AttribHandle, Counter, Gauge, ObsHandle, Value};
use std::cell::Cell;

/// A manager's published counts: its paging stats plus the resident
/// hits [`PagingStats`] does not count.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    stats: PagingStats,
    hits: u64,
    ghost_hits: u64,
}

/// Per-manager metric handles (all no-ops by default).
#[derive(Debug, Clone, Default)]
pub struct MemObs {
    handle: ObsHandle,
    prefix: String,
    /// The counts as of the last publish: what the next one subtracts.
    published: Cell<Counts>,
    /// `<prefix>.accesses`
    accesses: Counter,
    /// `<prefix>.hits`
    hits: Counter,
    /// `<prefix>.ghost_hits`
    ghost_hits: Counter,
    /// `<prefix>.minor_faults`
    minor_faults: Counter,
    /// `<prefix>.major_faults`
    major_faults: Counter,
    /// `<prefix>.swapped_in`
    swapped_in: Counter,
    /// `<prefix>.swapped_out`
    swapped_out: Counter,
    /// `<prefix>.clean_drops`
    clean_drops: Counter,
    /// `<prefix>.ghost_evictions`
    ghost_evictions: Counter,
    /// `<prefix>.live_evictions`
    live_evictions: Counter,
    /// `<prefix>.conflicts`
    conflicts: Counter,
    /// `<prefix>.fault.injected`
    pub fault_injected: Counter,
    /// `<prefix>.fault.recovered`
    pub fault_recovered: Counter,
    /// `<prefix>.fault.unrecovered`
    pub fault_unrecovered: Counter,
    /// `<prefix>.quota.self_evictions` — capped tenants displacing their
    /// own pages.
    pub quota_self_evictions: Counter,
    /// `<prefix>.quota.evictions` — conflict victims steered away from
    /// the plain LRU candidate by quota/priority ordering.
    pub quota_evictions: Counter,
    /// `<prefix>.quota.deferred` — admissions deferred with
    /// `QuotaExceeded` backpressure.
    pub quota_deferred: Counter,
    /// `<prefix>.quota.backoff_ticks` — counted (not slept) backoff
    /// charged for those deferrals.
    pub quota_backoff_ticks: Counter,
    /// `<prefix>.util` — fraction of frames occupied.
    pub util: Gauge,
    /// `<prefix>.horizon` — the Horizon LRU high-water mark.
    pub horizon: Gauge,
    /// `<prefix>.ghosts` — resident ghost pages.
    pub ghosts: Gauge,
    /// `<prefix>.fault.io_burst_remaining` — forced failures left in the
    /// injector's in-flight I/O brown-out (0 = no burst active).
    pub io_burst_remaining: Gauge,
    /// `<prefix>.fault.retry_budget_spent` — total alloc + I/O retries
    /// the manager has consumed absorbing injected faults.
    pub retry_budget_spent: Gauge,
    /// `<prefix>.fault.io_backoff_ticks` — counted backoff spent on I/O
    /// retries (distinct from `quota.backoff_ticks`, so degraded
    /// throughput is attributable to bursts vs. quota backpressure).
    pub io_backoff_ticks: Gauge,
    /// `<prefix>.faults` attribution table: every fault/eviction charged
    /// to a `(cause, evictor ASID, victim ASID)` cell. A no-op unless
    /// attribution is opted in on the registry.
    pub attrib: AttribHandle,
}

impl MemObs {
    /// A disabled bundle.
    pub fn noop() -> Self {
        Self::default()
    }

    /// Registers the bundle under `<prefix>.*` names on `obs`.
    pub fn register(obs: &ObsHandle, prefix: &str) -> Self {
        let c = |name: &str| obs.counter(&format!("{prefix}.{name}"));
        Self {
            handle: obs.clone(),
            prefix: prefix.to_string(),
            published: Cell::default(),
            accesses: c("accesses"),
            hits: c("hits"),
            ghost_hits: c("ghost_hits"),
            minor_faults: c("minor_faults"),
            major_faults: c("major_faults"),
            swapped_in: c("swapped_in"),
            swapped_out: c("swapped_out"),
            clean_drops: c("clean_drops"),
            ghost_evictions: c("ghost_evictions"),
            live_evictions: c("live_evictions"),
            conflicts: c("conflicts"),
            fault_injected: c("fault.injected"),
            fault_recovered: c("fault.recovered"),
            fault_unrecovered: c("fault.unrecovered"),
            quota_self_evictions: c("quota.self_evictions"),
            quota_evictions: c("quota.evictions"),
            quota_deferred: c("quota.deferred"),
            quota_backoff_ticks: c("quota.backoff_ticks"),
            util: obs.gauge(&format!("{prefix}.util")),
            horizon: obs.gauge(&format!("{prefix}.horizon")),
            ghosts: obs.gauge(&format!("{prefix}.ghosts")),
            io_burst_remaining: obs.gauge(&format!("{prefix}.fault.io_burst_remaining")),
            retry_budget_spent: obs.gauge(&format!("{prefix}.fault.retry_budget_spent")),
            io_backoff_ticks: obs.gauge(&format!("{prefix}.fault.io_backoff_ticks")),
            attrib: obs.attrib(&format!("{prefix}.faults")),
        }
    }

    /// Whether the bundle is bound to a live registry.
    pub fn is_enabled(&self) -> bool {
        self.handle.is_enabled()
    }

    /// Takes a manager's current counts as the baseline of the next
    /// [`MemObs::publish_counts`], so traffic from before a late
    /// [`MemObs::register`] never reaches the registry.
    pub fn mark_published(&self, stats: &PagingStats, hits: u64, ghost_hits: u64) {
        self.published.set(Counts {
            stats: *stats,
            hits,
            ghost_hits,
        });
    }

    /// Adds the movement of a manager's counts since the last publish
    /// (or [`MemObs::mark_published`]) to the `<prefix>.*` counters.
    pub fn publish_counts(&self, stats: &PagingStats, hits: u64, ghost_hits: u64) {
        let was = self.published.get();
        self.mark_published(stats, hits, ghost_hits);
        let (s, w) = (stats, &was.stats);
        self.accesses.add(s.accesses - w.accesses);
        self.hits.add(hits - was.hits);
        self.ghost_hits.add(ghost_hits - was.ghost_hits);
        self.minor_faults.add(s.minor_faults - w.minor_faults);
        self.major_faults.add(s.major_faults - w.major_faults);
        self.swapped_in.add(s.swapped_in - w.swapped_in);
        self.swapped_out.add(s.swapped_out - w.swapped_out);
        self.clean_drops.add(s.clean_drops - w.clean_drops);
        self.ghost_evictions
            .add(s.ghost_evictions - w.ghost_evictions);
        self.live_evictions.add(s.live_evictions - w.live_evictions);
        self.conflicts.add(s.conflicts - w.conflicts);
    }

    /// A fault was injected (`kind` ∈ `alloc`/`io`/`toc`). Emits the
    /// `fault.injected` event and bumps the counter.
    pub fn record_fault_injected(&self, now: u64, kind: &str) {
        self.fault_injected.inc();
        if self.handle.is_enabled() {
            self.handle.event(
                now,
                "fault.injected",
                &[
                    ("mgr", Value::from(self.prefix.as_str())),
                    ("kind", Value::from(kind)),
                ],
            );
        }
    }

    /// An injected fault was absorbed by a recovery action
    /// (`via` ∈ `retry`/`rewalk`).
    pub fn record_fault_recovered(&self, now: u64, kind: &str, via: &str) {
        self.fault_recovered.inc();
        if self.handle.is_enabled() {
            self.handle.event(
                now,
                "fault.recovered",
                &[
                    ("mgr", Value::from(self.prefix.as_str())),
                    ("kind", Value::from(kind)),
                    ("via", Value::from(via)),
                ],
            );
        }
    }

    /// An injected fault was *not* absorbed: the retry budget was
    /// exhausted (`how = "budget-exhausted"`, surfaced to the caller as
    /// a typed error) or the corruption is genuinely undetectable
    /// (`how = "benign-alias"`).
    pub fn record_fault_unrecovered(&self, now: u64, kind: &str, how: &str) {
        self.fault_unrecovered.inc();
        if self.handle.is_enabled() {
            self.handle.event(
                now,
                "fault.unrecovered",
                &[
                    ("mgr", Value::from(self.prefix.as_str())),
                    ("kind", Value::from(kind)),
                    ("how", Value::from(how)),
                ],
            );
        }
    }

    /// An admission was deferred under quota backpressure: bumps the
    /// `quota.deferred` / `quota.backoff_ticks` counters and emits a
    /// `quota.deferred` event carrying the ticks charged.
    pub fn record_quota_deferred(&self, now: u64, asid: u16, ticks: u64) {
        self.quota_deferred.inc();
        self.quota_backoff_ticks.add(ticks);
        if self.handle.is_enabled() {
            self.handle.event(
                now,
                "quota.deferred",
                &[
                    ("mgr", Value::from(self.prefix.as_str())),
                    ("asid", Value::from(u64::from(asid))),
                    ("backoff_ticks", Value::from(ticks)),
                ],
            );
        }
    }

    /// Charges a demand-zero (first-touch) fault to the faulting tenant.
    #[inline]
    pub fn attrib_cold(&self, asid: u16) {
        self.attrib.charge(AttribCategory::Cold, asid, asid);
    }

    /// Charges a displacement eviction at evict time: `quota_self`
    /// marks quota-forced self-evictions/trims; otherwise the cell is
    /// capacity (evictor == victim) or cross-tenant displacement.
    #[inline]
    pub fn attrib_evicted(&self, evictor: u16, victim: u16, quota_self: bool) {
        let cat = if quota_self {
            AttribCategory::QuotaSelf
        } else if evictor == victim {
            AttribCategory::CapacityEvict
        } else {
            AttribCategory::CrossTenant
        };
        self.attrib.charge(cat, evictor, victim);
    }

    /// Charges `freed` frames reclaimed by an exit-time shootdown
    /// (`release_asid`).
    #[inline]
    pub fn attrib_shootdown(&self, asid: u16, freed: u64) {
        self.attrib.charge_n(AttribCategory::Shootdown, asid, asid, freed);
    }

    /// Milestone: the first associativity conflict of the run (Table 3's
    /// headline number). Later conflicts only bump the counter.
    pub fn record_first_conflict(&self, now: u64, load_pct: f64) {
        if self.handle.is_enabled() {
            self.handle.event(
                now,
                "mosaic.first_conflict",
                &[
                    ("mgr", Value::from(self.prefix.as_str())),
                    ("load_pct", Value::from(load_pct)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_bundle_records_nothing() {
        let o = MemObs::noop();
        let stats = PagingStats {
            accesses: 3,
            ..PagingStats::new()
        };
        o.publish_counts(&stats, 2, 1);
        o.record_fault_injected(1, "io");
        o.record_fault_recovered(2, "io", "retry");
        assert_eq!(o.accesses.get(), 0);
        assert_eq!(o.fault_injected.get(), 0);
    }

    #[test]
    fn quota_deferred_counts_and_events() {
        let obs = ObsHandle::enabled();
        let o = MemObs::register(&obs, "mosaic");
        o.record_quota_deferred(5, 3, 4);
        o.record_quota_deferred(6, 3, 8);
        assert_eq!(obs.counter_value("mosaic.quota.deferred"), 2);
        assert_eq!(obs.counter_value("mosaic.quota.backoff_ticks"), 12);
        assert!(obs.render_jsonl().contains("\"quota.deferred\""));
    }

    #[test]
    fn fault_events_carry_manager_prefix() {
        let obs = ObsHandle::enabled();
        let o = MemObs::register(&obs, "mosaic");
        o.record_fault_injected(10, "alloc");
        o.record_fault_unrecovered(11, "alloc", "budget-exhausted");
        assert_eq!(obs.counter_value("mosaic.fault.injected"), 1);
        assert_eq!(obs.counter_value("mosaic.fault.unrecovered"), 1);
        let text = obs.render_jsonl();
        assert!(text.contains("\"fault.injected\""));
        assert!(text.contains("\"budget-exhausted\""));
    }
}
