//! TLB-miss *cost*: page-walk memory accesses per design, with and
//! without an MMU walk cache (§5.4's complementary axis).
//!
//! Mosaic shrinks the page table's index space (MVPNs have `log2(arity)`
//! fewer bits than VPNs), so its radix tree can be shallower, and a walk
//! cache compresses both designs' walks further. This driver measures
//! mean page-table node fetches per walk over a BTree workload's miss
//! stream.
//!
//! `walkcost --help` lists the flags. `--obs-out` exports per-design
//! walk-depth histograms (`ptw.<label>.depth`) and walk-cache
//! hit/miss/fetch counters as JSONL; render with `obs_report`.

use mosaic_bench::Args;
use mosaic_core::mem::{Asid, PageKey, Vpn};
use mosaic_core::mmu::{Arity, RadixTable, WalkCache};
use mosaic_core::sim::report::Table;
use mosaic_core::sim::run_cells;
use mosaic_core::workloads::{BTreeConfig, BTreeWorkload, Workload};

const ABOUT: &str = "Measures page-walk fetches per design over a BTree miss stream.";

// Per-design MVPN extraction as plain `fn` pointers so the cell inputs
// are `Send` and the sweep can fan out across threads.
fn vpn_index(v: Vpn) -> u64 {
    v.0
}
fn mvpn4_index(v: Vpn) -> u64 {
    Arity::new(4).split(v).0 .0
}
fn mvpn16_index(v: Vpn) -> u64 {
    Arity::new(16).split(v).0 .0
}
fn mvpn64_index(v: Vpn) -> u64 {
    Arity::new(64).split(v).0 .0
}

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs(
        "the stream is collected once and the four page-table designs walk it as independent \
         cells; stdout and --obs-out are byte-identical at every N",
    );
    let keys = args.u64("keys", 400_000, 1, "BTree keys");
    let lookups = args.u64("lookups", 40_000, 0, "BTree lookups");
    let sink = args.obs("walkcost");
    args.finish(ABOUT);
    if sink.is_enabled() {
        sink.handle().meta(&[
            ("keys", mosaic_obs::Value::from(keys)),
            ("lookups", mosaic_obs::Value::from(lookups)),
        ]);
    }

    // Collect the workload's page-touch stream once.
    let mut w = BTreeWorkload::new(
        BTreeConfig {
            num_keys: keys,
            num_lookups: lookups,
        },
        3,
    );
    let mut vpns: Vec<Vpn> = Vec::new();
    w.run(&mut |a| vpns.push(a.addr.vpn()));
    let _ = PageKey::new(Asid::new(1), vpns[0]); // address sanity

    let mut t = Table::new(vec![
        "Page table".into(),
        "Levels".into(),
        "Mapped entries".into(),
        "Tree nodes".into(),
        "Fetches/walk raw".into(),
        "Fetches/walk + walk cache".into(),
    ])
    .with_title("Walk cost and page-table size (Figure 5's 10-bit mosaic levels)");

    // Vanilla: 36-bit VPN space at 9 bits/level (x86). Mosaic: MVPN
    // spaces shrink with arity, walked 10 bits/level as in Figure 5.
    type WalkConfig = (String, u32, u32, fn(Vpn) -> u64);
    let configs: Vec<WalkConfig> = vec![
        ("Vanilla (VPN, 36-bit)".into(), 36, 9, vpn_index),
        ("Mosaic-4 (MVPN, 34-bit)".into(), 34, 10, mvpn4_index),
        ("Mosaic-16 (MVPN, 32-bit)".into(), 32, 10, mvpn16_index),
        ("Mosaic-64 (MVPN, 30-bit)".into(), 30, 10, mvpn64_index),
    ];

    // Every design walks the same shared, read-only stream; each cell
    // owns its page table and an obs child merged back in design order.
    let vpns = &vpns;
    eprintln!("[walkcost] {} designs on {jobs} thread(s) ...", configs.len());
    let rows = run_cells(jobs, sink.handle(), configs, |_, config, child| {
        let (name, bits, per_level, index_of) = config;
        // Short metric label, e.g. "vanilla" / "mosaic-16".
        let label = name
            .split_whitespace()
            .next()
            .unwrap_or("pt")
            .to_lowercase();
        let depth_hist = child.histogram(&format!("ptw.{label}.depth"));
        let walks = child.counter(&format!("ptw.{label}.walks"));
        let mut table: RadixTable<u64> = RadixTable::new(bits, per_level);
        for v in vpns {
            table.insert(index_of(*v), v.0);
        }
        let mut raw_fetches = 0u64;
        for v in vpns {
            let touched = u64::from(table.walk(index_of(*v)).levels_touched);
            raw_fetches += touched;
            walks.inc();
            depth_hist.record(touched);
        }
        let mut wc = WalkCache::new(16);
        wc.set_obs(child, &label);
        let mut cached_fetches = 0u64;
        for v in vpns {
            cached_fetches += u64::from(wc.walk(&table, index_of(*v)).1);
        }
        let n = vpns.len() as f64;
        vec![
            name,
            table.levels().to_string(),
            table.len().to_string(),
            table.node_count().to_string(),
            format!("{:.2}", raw_fetches as f64 / n),
            format!("{:.2}", cached_fetches as f64 / n),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Reading: every TLB miss pays the fetch column; a ToC-leaved table maps the\n\
         same footprint with arity-x fewer leaf entries (and fewer levels at high\n\
         arity), and MMU caching (§5.4) stacks on either design."
    );
    if sink.is_enabled() {
        sink.handle().snapshot(vpns.len() as u64);
    }
    sink.finish();
}
