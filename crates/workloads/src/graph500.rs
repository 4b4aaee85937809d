//! Graph500: Kronecker graph generation + breadth-first search (seq-csr).
//!
//! The paper's headline workload (Figure 6a): BFS over a scale-free
//! Kronecker graph in CSR form, whose pointer-chasing neighbour and parent
//! lookups have essentially no spatial locality — exactly the pattern that
//! exhausts TLB reach. Graph construction is setup; the emitted trace
//! covers the BFS kernel, mirroring the benchmark's timed region.
//!
//! The generator follows the Graph500 specification: R-MAT/Kronecker edge
//! sampling with parameters (A, B, C, D) = (0.57, 0.19, 0.19, 0.05) and a
//! random vertex permutation to destroy generator locality.

use crate::layout::{ArrayRegion, VirtualLayout};
use crate::trace::{Access, Workload, WorkloadMeta};
use mosaic_hash::SplitMix64;

/// Kronecker generator parameters (Graph500 defaults).
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// Graph500 parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Graph500Config {
    /// log2 of the vertex count (Graph500 "scale").
    pub scale: u32,
    /// Edges per vertex (Graph500 default 16).
    pub edgefactor: u32,
    /// Number of BFS roots to run (the spec samples 64; scaled down here).
    pub num_roots: u32,
}

impl Graph500Config {
    /// Footprint presets: 0 is CI-tiny (2^12 vertices), 1 the benchmark
    /// default (2^18 vertices ≈ 70 MiB CSR), +1 scale step per level.
    pub fn at_scale(scale: u32) -> Self {
        match scale {
            0 => Self {
                scale: 12,
                edgefactor: 16,
                num_roots: 1,
            },
            s => Self {
                scale: 17 + s,
                edgefactor: 16,
                num_roots: 1,
            },
        }
    }

    /// Vertex count (2^scale).
    pub fn num_vertices(&self) -> u64 {
        1 << self.scale
    }

    /// Undirected edge count (edgefactor × vertices).
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * u64::from(self.edgefactor)
    }
}

/// A compressed-sparse-row graph with its arrays placed in virtual memory.
#[derive(Debug, Clone)]
struct Csr {
    /// Offsets: `xoff[v] .. xoff[v + 1]` index `xadj`.
    xoff: Vec<u64>,
    /// Concatenated adjacency lists. Vertex ids are below `2^28` (the
    /// scale cap), so the host keeps them as `u32`; the simulated array
    /// (`xadj_region`) still has 8-byte elements.
    xadj: Vec<u32>,
    /// Virtual placement of `xoff`.
    xoff_region: ArrayRegion,
    /// Virtual placement of `xadj`.
    xadj_region: ArrayRegion,
}

/// The Graph500 workload.
///
/// # Example
///
/// ```
/// use mosaic_workloads::prelude::*;
///
/// let mut g = Graph500::new(Graph500Config { scale: 8, edgefactor: 8, num_roots: 1 }, 3);
/// let trace = record(&mut g);
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Graph500 {
    cfg: Graph500Config,
    csr: Csr,
    parent_region: ArrayRegion,
    queue_region: ArrayRegion,
    roots: Vec<u64>,
}

impl Graph500 {
    /// Generates the Kronecker graph and builds its CSR (setup phase; not
    /// part of the emitted trace).
    ///
    /// # Panics
    ///
    /// Panics if `scale` exceeds 28 (guarding accidental huge allocations)
    /// or `edgefactor` is zero.
    pub fn new(cfg: Graph500Config, seed: u64) -> Self {
        assert!(cfg.scale <= 28, "scale {} too large for simulation", cfg.scale);
        assert!(cfg.edgefactor > 0, "edgefactor must be positive");
        let mut rng = SplitMix64::new(seed);
        let n = cfg.num_vertices();
        let m = cfg.num_edges();

        // Kronecker / R-MAT edge sampling (vertex ids fit in u32: scale
        // <= 28).
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let (mut i, mut j) = (0u64, 0u64);
            for bit in (0..cfg.scale).rev() {
                let r = rng.next_f64();
                let (bi, bj) = if r < A {
                    (0, 0)
                } else if r < A + B {
                    (0, 1)
                } else if r < A + B + C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                i |= bi << bit;
                j |= bj << bit;
            }
            edges.push((i as u32, j as u32));
        }

        // Random vertex permutation (the spec's label shuffle).
        let mut perm: Vec<u32> = (0..n).map(|v| v as u32).collect();
        rng.shuffle(&mut perm);
        for e in &mut edges {
            *e = (perm[e.0 as usize], perm[e.1 as usize]);
        }

        // CSR construction: undirected, self-loops dropped.
        let mut degree = vec![0u64; n as usize];
        for &(u, v) in &edges {
            if u != v {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
        }
        let mut xoff = Vec::with_capacity(n as usize + 1);
        let mut acc = 0u64;
        xoff.push(0);
        for &d in &degree {
            acc += d;
            xoff.push(acc);
        }
        let mut cursor = xoff.clone();
        let mut xadj = vec![0u32; acc as usize];
        for &(u, v) in &edges {
            if u != v {
                xadj[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                xadj[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }

        // Virtual placement of the four kernel arrays.
        let mut vl = VirtualLayout::new();
        let xoff_region = ArrayRegion::alloc(&mut vl, "xoff", 8, n + 1);
        let xadj_region = ArrayRegion::alloc(&mut vl, "xadj", 8, acc.max(1));
        let parent_region = ArrayRegion::alloc(&mut vl, "parent", 8, n);
        let queue_region = ArrayRegion::alloc(&mut vl, "queue", 8, n);

        // Sample BFS roots among non-isolated vertices (spec §3.4).
        let mut roots = Vec::with_capacity(cfg.num_roots as usize);
        while roots.len() < cfg.num_roots as usize {
            let r = rng.next_below(n);
            if degree[r as usize] > 0 && !roots.contains(&r) {
                roots.push(r);
            }
        }

        Self {
            cfg,
            csr: Csr {
                xoff,
                xadj,
                xoff_region,
                xadj_region,
            },
            parent_region,
            queue_region,
            roots,
        }
    }

    /// Builds a graph whose CSR + kernel arrays total approximately
    /// `target_bytes` (within a few percent), for the memory-pressure
    /// experiments of Tables 3 and 4.
    ///
    /// # Panics
    ///
    /// Panics if `target_bytes` is too small to fit any valid
    /// configuration (< ~64 KiB).
    pub fn with_footprint(target_bytes: u64, num_roots: u32, seed: u64) -> Self {
        // footprint ~= 8n(3 + 2*ef); choose n a power of two so that the
        // integer edgefactor lands in a reasonable range, then solve ef.
        assert!(target_bytes >= 1 << 16, "target footprint too small");
        // Keep the edgefactor at >= 16 so its integer granularity stays
        // below ~3 % of the target (distinct Table 4 rows need distinct
        // footprints).
        let mut scale = 10u32;
        while 8 * (1u64 << (scale + 1)) * (3 + 2 * 16) <= target_bytes && scale < 26 {
            scale += 1;
        }
        let n = 1u64 << scale;
        let ef = ((target_bytes / (8 * n)).saturating_sub(3) / 2).clamp(4, 512) as u32;
        let first = Self::new(
            Graph500Config {
                scale,
                edgefactor: ef,
                num_roots,
            },
            seed,
        );
        // Self-loops and degree-dependent CSR rounding make the realised
        // footprint drift a little; one linear correction of the
        // edgefactor lands within a row's granularity.
        let actual = first.footprint_bytes();
        let err = actual.abs_diff(target_bytes);
        if err * 64 <= target_bytes || ef == 4 || ef == 512 {
            return first;
        }
        let xadj_actual = first.csr.xadj.len() as u64;
        let xadj_needed = (target_bytes / 8).saturating_sub(3 * n + 1);
        let per_ef = (xadj_actual / u64::from(ef)).max(1);
        let ef2 = ((xadj_needed + per_ef / 2) / per_ef).clamp(4, 512) as u32;
        if ef2 == ef {
            return first;
        }
        Self::new(
            Graph500Config {
                scale,
                edgefactor: ef2,
                num_roots,
            },
            seed,
        )
    }

    /// Total bytes of the four kernel arrays.
    fn footprint_bytes(&self) -> u64 {
        self.csr.xoff_region.bytes()
            + self.csr.xadj_region.bytes()
            + self.parent_region.bytes()
            + self.queue_region.bytes()
    }

    /// The configured parameters.
    pub fn config(&self) -> &Graph500Config {
        &self.cfg
    }

    /// The sampled BFS roots.
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// Runs one BFS from `root`, emitting every kernel access, and returns
    /// the number of vertices visited (for validation).
    fn bfs(&self, root: u64, sink: &mut dyn FnMut(Access)) -> u64 {
        let n = self.cfg.num_vertices() as usize;
        const UNVISITED: u64 = u64::MAX;
        let mut parent = vec![UNVISITED; n];
        let mut queue: Vec<u64> = Vec::with_capacity(n);

        parent[root as usize] = root;
        sink(Access::store(self.parent_region.at(root)));
        queue.push(root);
        sink(Access::store(self.queue_region.at(0)));

        let mut head = 0usize;
        let mut visited = 1u64;
        while head < queue.len() {
            let u = queue[head];
            sink(Access::load(self.queue_region.at(head as u64)));
            head += 1;

            // Row bounds: xoff[u], xoff[u + 1] (adjacent, often one line).
            sink(Access::load(self.csr.xoff_region.at(u)));
            sink(Access::load(self.csr.xoff_region.at(u + 1)));
            let start = self.csr.xoff[u as usize];
            let end = self.csr.xoff[u as usize + 1];

            for k in start..end {
                let v = u64::from(self.csr.xadj[k as usize]);
                sink(Access::load(self.csr.xadj_region.at(k)));
                // The parent probe is the locality-free access.
                sink(Access::load(self.parent_region.at(v)));
                if parent[v as usize] == UNVISITED {
                    parent[v as usize] = u;
                    sink(Access::store(self.parent_region.at(v)));
                    sink(Access::store(self.queue_region.at(queue.len() as u64)));
                    queue.push(v);
                    visited += 1;
                }
            }
        }
        visited
    }
}

impl Workload for Graph500 {
    fn meta(&self) -> WorkloadMeta {
        let footprint = self.footprint_bytes();
        // Per directed edge: xadj load + parent probe; per vertex: queue
        // pop + two xoff loads + parent/queue stores.
        let approx = self.csr.xadj.len() as u64 * 2
            + self.cfg.num_vertices() * 5
            + self.csr.xoff_region.pages()
            + self.csr.xadj_region.pages()
            + self.parent_region.pages();
        WorkloadMeta {
            name: "Graph500",
            description: "parallel graph processing benchmark (BFS on a Kronecker graph)",
            footprint_bytes: footprint,
            approx_accesses: approx * u64::from(self.cfg.num_roots),
        }
    }

    fn run(&mut self, sink: &mut dyn FnMut(Access)) {
        // CSR construction dirties the graph arrays once.
        self.csr.xoff_region.init_stores(sink);
        self.csr.xadj_region.init_stores(sink);
        for i in 0..self.roots.len() {
            // Each BFS starts by clearing its parent array (memset).
            self.parent_region.init_stores(sink);
            self.bfs(self.roots[i], sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{record, TraceStats};

    fn tiny() -> Graph500 {
        Graph500::new(
            Graph500Config {
                scale: 10,
                edgefactor: 8,
                num_roots: 2,
            },
            7,
        )
    }

    #[test]
    fn csr_is_well_formed() {
        let g = tiny();
        let n = g.cfg.num_vertices() as usize;
        assert_eq!(g.csr.xoff.len(), n + 1);
        assert_eq!(*g.csr.xoff.last().unwrap() as usize, g.csr.xadj.len());
        // Offsets are non-decreasing and neighbours are valid vertices.
        for w in g.csr.xoff.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &v in &g.csr.xadj {
            assert!((v as usize) < n);
        }
    }

    #[test]
    fn graph_is_symmetric() {
        let g = tiny();
        // Count directed edges per unordered pair; they must be even.
        let mut counts = std::collections::HashMap::new();
        for u in 0..g.cfg.num_vertices() {
            for k in g.csr.xoff[u as usize]..g.csr.xoff[u as usize + 1] {
                let v = u64::from(g.csr.xadj[k as usize]);
                let key = (u.min(v), u.max(v));
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        for ((u, v), c) in counts {
            assert!(c % 2 == 0, "edge ({u},{v}) has odd multiplicity {c}");
        }
    }

    #[test]
    fn bfs_visits_root_component() {
        let g = tiny();
        let mut n_access = 0u64;
        let visited = g.bfs(g.roots[0], &mut |_| n_access += 1);
        assert!(visited > 1, "root had degree > 0, so BFS must spread");
        assert!(n_access > visited);
    }

    #[test]
    fn bfs_parent_tree_is_valid() {
        // Re-derive the parent array by replaying and check reachability.
        let g = tiny();
        let root = g.roots[0];
        let visited = g.bfs(root, &mut |_| {});
        // Kronecker graphs at this scale have a giant component; the BFS
        // should reach a sizeable fraction of the non-isolated vertices.
        let non_isolated = (0..g.cfg.num_vertices())
            .filter(|&v| g.csr.xoff[v as usize] < g.csr.xoff[v as usize + 1])
            .count() as u64;
        assert!(
            visited * 2 > non_isolated,
            "visited {visited} of {non_isolated} non-isolated vertices"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = record(&mut tiny());
        let b = record(&mut tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn trace_touches_all_regions() {
        let mut g = tiny();
        let regions = [
            (g.csr.xoff_region.base().0, g.csr.xoff_region.bytes()),
            (g.csr.xadj_region.base().0, g.csr.xadj_region.bytes()),
            (g.parent_region.base().0, g.parent_region.bytes()),
            (g.queue_region.base().0, g.queue_region.bytes()),
        ];
        let trace = record(&mut g);
        let mut hit = [false; 4];
        for a in &trace {
            let mut claimed = false;
            for (i, &(base, bytes)) in regions.iter().enumerate() {
                if a.addr.0 >= base && a.addr.0 < base + bytes {
                    hit[i] = true;
                    claimed = true;
                }
            }
            assert!(claimed, "access {:#x} outside every region", a.addr.0);
        }
        assert!(hit.iter().all(|&h| h), "some region never touched: {hit:?}");
    }

    #[test]
    fn footprint_spans_many_pages() {
        let mut g = tiny();
        let s = TraceStats::of(&record(&mut g));
        // Tiny config: 1 Ki vertices, ~16 Ki directed edges => a few dozen
        // pages across the four kernel arrays.
        assert!(
            s.distinct_pages > 30,
            "only {} distinct pages",
            s.distinct_pages
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_scale_panics() {
        Graph500::new(
            Graph500Config {
                scale: 29,
                edgefactor: 1,
                num_roots: 1,
            },
            0,
        );
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Kronecker graphs are scale-free-ish: the max degree should far
        // exceed the mean.
        let g = tiny();
        let n = g.cfg.num_vertices() as usize;
        let max_deg = (0..n)
            .map(|v| g.csr.xoff[v + 1] - g.csr.xoff[v])
            .max()
            .unwrap();
        let mean = g.csr.xadj.len() as f64 / n as f64;
        assert!(
            max_deg as f64 > mean * 8.0,
            "max degree {max_deg} vs mean {mean:.1}"
        );
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;

    #[test]
    fn with_footprint_lands_near_target() {
        use crate::trace::Workload;
        for target in [1u64 << 20, 8 << 20, 20 << 20] {
            let g = Graph500::with_footprint(target, 1, 3);
            let got = g.meta().footprint_bytes;
            let ratio = got as f64 / target as f64;
            assert!(
                (0.96..1.04).contains(&ratio),
                "target {target}: got {got} (ratio {ratio:.3})"
            );
        }
    }
}
