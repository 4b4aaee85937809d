//! A stable digest over every simulated statistic a run returns.
//!
//! FNV-1a over little-endian words: fixed across processes, builds and
//! platforms (unlike `std`'s `RandomState`), so a digest recorded once
//! per (workload, seed) checks every later run of the same inputs.

use mosaic_mem::stats::ResilienceStats;
use mosaic_mmu::TlbStats;
use mosaic_sim::pressure::ResilienceReport;
use mosaic_sim::{AttribReport, Fig6Row, PressureRow};
use mosaic_tenants::{TenantSlotStats, TenantsRow};

/// Running FNV-1a state.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self
    }

    /// Folds a float by its bit pattern (simulated ratios are exact).
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Folds an optional float, distinguishing `None` from every value.
    pub fn opt_f64(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            None => self.u64(0),
            Some(v) => self.u64(1).f64(v),
        }
    }

    /// Folds an optional count.
    pub fn opt_u64(&mut self, x: Option<u64>) -> &mut Self {
        match x {
            None => self.u64(0),
            Some(v) => self.u64(1).u64(v),
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    fn tlb(&mut self, s: &TlbStats) -> &mut Self {
        self.u64(s.accesses)
            .u64(s.hits)
            .u64(s.misses)
            .u64(s.sub_entry_misses)
            .u64(s.evictions)
    }

    /// Every Figure 6 row: workload, cell and all TLB counters.
    pub fn fig6_rows(&mut self, rows: &[Fig6Row]) -> &mut Self {
        self.u64(rows.len() as u64);
        for r in rows {
            self.str(&r.workload)
                .str(&r.assoc.to_string())
                .str(&r.kind.to_string())
                .tlb(&r.stats);
        }
        self
    }

    /// Every TLB and memory-manager row of an attribution report,
    /// including each blame cell.
    pub fn attrib_report(&mut self, rep: &AttribReport) -> &mut Self {
        self.u64(rep.tlb.len() as u64);
        for r in &rep.tlb {
            self.str(r.workload)
                .str(&r.assoc.to_string())
                .str(&r.kind.to_string())
                .tlb(&r.stats)
                .u64(r.compulsory)
                .u64(r.capacity)
                .u64(r.conflict);
        }
        self.u64(rep.mem.len() as u64);
        for m in &rep.mem {
            self.str(m.workload)
                .str(m.manager)
                .u64(m.cold)
                .u64(m.capacity_evict)
                .u64(m.cross_tenant)
                .u64(m.quota_self)
                .u64(m.shootdown)
                .u64(m.dropped)
                .u64(m.blame.len() as u64);
            for c in &m.blame {
                self.str(c.category.name())
                    .u64(u64::from(c.evictor))
                    .u64(u64::from(c.victim))
                    .u64(c.count);
            }
        }
        self
    }

    /// A Table 3/4 row.
    pub fn pressure_row(&mut self, r: &PressureRow) -> &mut Self {
        self.str(r.workload)
            .u64(r.footprint_bytes)
            .u64(r.linux_swaps)
            .u64(r.mosaic_swaps)
            .opt_f64(r.first_conflict_pct)
            .opt_f64(r.steady_state_pct)
            .opt_f64(r.linux_steady_pct)
    }

    fn resilience(&mut self, s: &ResilienceStats) -> &mut Self {
        self.u64(s.alloc_faults_injected)
            .u64(s.alloc_retries)
            .u64(s.alloc_failures)
            .u64(s.io_faults_injected)
            .u64(s.io_retries)
            .u64(s.io_backoff_ticks)
            .u64(s.io_failures)
            .u64(s.toc_flips_injected)
            .u64(s.toc_rewalks)
    }

    /// The resilience side of a pressure or tenants run.
    pub fn resilience_report(&mut self, r: &ResilienceReport) -> &mut Self {
        self.resilience(&r.mosaic)
            .resilience(&r.linux)
            .u64(r.mosaic_dropped)
            .u64(r.linux_dropped)
            .u64(r.verify_passes)
            .u64(r.accesses_driven)
            .u64(u64::from(r.last_error.is_some()))
    }

    fn slots(&mut self, slots: &[TenantSlotStats]) -> &mut Self {
        self.u64(slots.len() as u64);
        for s in slots {
            self.u64(u64::from(s.rank))
                .u64(s.accesses)
                .u64(s.faults)
                .u64(s.major_faults)
                .u64(s.conflicts)
                .u64(s.dropped)
                .u64(s.deferred)
                .u64(s.generations)
                .opt_u64(s.first_conflict_step);
        }
        self
    }

    /// A multi-tenant row, per-slot stats of both managers included.
    pub fn tenants_row(&mut self, r: &TenantsRow) -> &mut Self {
        self.u64(r.tenants as u64)
            .f64(r.load)
            .pressure_row(&r.pressure)
            .slots(&r.mosaic_slots)
            .slots(&r.linux_slots)
            .u64(r.exits)
            .u64(r.mosaic_frames_reclaimed)
            .u64(r.linux_frames_reclaimed)
            .u64(r.mosaic_deferred)
            .u64(r.linux_deferred);
        for q in [&r.mosaic_quota, &r.linux_quota] {
            self.u64(q.self_evictions)
                .u64(q.quota_evictions)
                .u64(q.admissions_deferred)
                .u64(q.backoff_ticks);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_mmu::Associativity;
    use mosaic_sim::TlbKind;

    fn row() -> Fig6Row {
        Fig6Row {
            workload: "GUPS".to_string(),
            assoc: Associativity::Ways(4),
            kind: TlbKind::Vanilla,
            stats: TlbStats {
                accesses: 10,
                hits: 6,
                misses: 4,
                sub_entry_misses: 0,
                evictions: 2,
            },
        }
    }

    #[test]
    fn any_perturbed_counter_changes_the_digest() {
        let base = Digest::default().fig6_rows(&[row()]).hex();
        let perturb: [fn(&mut TlbStats); 5] = [
            |s| s.accesses += 1,
            |s| s.hits += 1,
            |s| s.misses += 1,
            |s| s.sub_entry_misses += 1,
            |s| s.evictions += 1,
        ];
        for p in perturb {
            let mut r = row();
            p(&mut r.stats);
            assert_ne!(Digest::default().fig6_rows(&[r]).hex(), base);
        }
        let mut r = row();
        r.kind = TlbKind::Mosaic(mosaic_mmu::Arity::new(4));
        assert_ne!(Digest::default().fig6_rows(&[r]).hex(), base);
        assert_eq!(Digest::default().fig6_rows(&[row()]).hex(), base);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab = Digest::default().str("ab").str("c").hex();
        let a_bc = Digest::default().str("a").str("bc").hex();
        assert_ne!(ab, a_bc);
    }
}
