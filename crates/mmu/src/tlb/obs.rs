//! Observability handles for the TLB hot path.
//!
//! A [`TlbObs`] bundle is a set of [`mosaic_obs::Counter`] handles that
//! default to no-ops; [`TlbObs::register`] binds them to a live
//! registry under `tlb.<label>.*` names. The lookup/fill paths count
//! only into the local [`super::TlbStats`]; a TLB's `publish_obs` pushes
//! the movement since its last publish through
//! [`TlbObs::flush_delta`], so enabling tracing never changes simulation
//! behavior — only what gets exported, and when.

use mosaic_obs::{Counter, ObsHandle};

/// Per-TLB-instance counter handles (all no-ops by default).
#[derive(Debug, Clone, Default)]
pub struct TlbObs {
    /// Total lookups: `tlb.<label>.accesses`.
    pub accesses: Counter,
    /// Lookup hits: `tlb.<label>.hits`.
    pub hits: Counter,
    /// Lookup misses (including sub-entry misses): `tlb.<label>.misses`.
    pub misses: Counter,
    /// Mosaic sub-entry misses: `tlb.<label>.sub_misses`.
    pub sub_misses: Counter,
    /// Whole-entry evictions on fill: `tlb.<label>.evictions`.
    pub evictions: Counter,
}

impl TlbObs {
    /// A disabled bundle (every counter is a no-op).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Bulk-publishes the counter movement between two [`super::TlbStats`]
    /// snapshots: one relaxed atomic add per counter per publish.
    pub fn flush_delta(&self, before: &super::TlbStats, after: &super::TlbStats) {
        self.accesses.add(after.accesses - before.accesses);
        self.hits.add(after.hits - before.hits);
        self.misses.add(after.misses - before.misses);
        self.sub_misses.add(after.sub_entry_misses - before.sub_entry_misses);
        self.evictions.add(after.evictions - before.evictions);
    }

    /// Registers the bundle's counters as `tlb.<label>.*` on `obs`.
    pub fn register(obs: &ObsHandle, label: &str) -> Self {
        Self {
            accesses: obs.counter(&format!("tlb.{label}.accesses")),
            hits: obs.counter(&format!("tlb.{label}.hits")),
            misses: obs.counter(&format!("tlb.{label}.misses")),
            sub_misses: obs.counter(&format!("tlb.{label}.sub_misses")),
            evictions: obs.counter(&format!("tlb.{label}.evictions")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::{Associativity, TlbConfig, VanillaTlb};
    use mosaic_mem::{Asid, Pfn, Vpn};

    const A: Asid = Asid(1);

    /// Four lookups (one hit) and three fills (one eviction) on a
    /// 2-entry direct-mapped TLB.
    fn traffic(t: &mut VanillaTlb) {
        for vpn in [0u64, 1, 1, 2] {
            if !t.lookup(A, Vpn(vpn)).is_hit() {
                t.fill_base(A, Vpn(vpn), Pfn(vpn));
            }
        }
    }

    #[test]
    fn noop_bundle_counts_nothing() {
        let o = TlbObs::noop();
        o.accesses.inc();
        o.hits.add(5);
        assert_eq!(o.accesses.get(), 0);
        assert_eq!(o.hits.get(), 0);
        // An unbound TLB publishes into the noop bundle; binding after
        // traffic sets the baseline, so that earlier traffic never
        // reaches the registry.
        let mut t = VanillaTlb::new(TlbConfig::new(2, Associativity::Ways(1)));
        traffic(&mut t);
        t.publish_obs();
        let obs = ObsHandle::enabled();
        t.set_obs(&obs, "late");
        t.publish_obs();
        assert_eq!(obs.counter_value("tlb.late.accesses"), 0);
        t.lookup(A, Vpn(2));
        t.publish_obs();
        assert_eq!(obs.counter_value("tlb.late.accesses"), 1);
        assert_eq!(obs.counter_value("tlb.late.hits"), 1);
        assert_eq!(obs.counter_value("tlb.late.misses"), 0);
    }

    #[test]
    fn registered_bundle_exports_names() {
        let obs = ObsHandle::enabled();
        let mut t = VanillaTlb::new(TlbConfig::new(2, Associativity::Ways(1)));
        t.set_obs(&obs, "vanilla.8-way");
        traffic(&mut t);
        // Lookups count locally; nothing is exported until a publish.
        assert_eq!(obs.counter_value("tlb.vanilla.8-way.accesses"), 0);
        t.publish_obs();
        let exported = |name: &str| obs.counter_value(&format!("tlb.vanilla.8-way.{name}"));
        assert_eq!(exported("accesses"), 4);
        assert_eq!(exported("hits"), 1);
        assert_eq!(exported("misses"), 3);
        assert_eq!(exported("sub_misses"), 0);
        assert_eq!(exported("evictions"), 1);
        // A second publish adds only the movement since the first.
        t.publish_obs();
        traffic(&mut t);
        t.publish_obs();
        assert_eq!(exported("accesses"), t.stats().accesses);
        assert_eq!(exported("misses"), t.stats().misses);
        assert_eq!(exported("evictions"), t.stats().evictions);
    }
}
