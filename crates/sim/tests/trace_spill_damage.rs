//! A damaged spill file gives a typed error, never a panic, a short
//! replay or an altered one.
//!
//! A [`TraceBuffer`] past its byte budget lives in a temp file that
//! anything on the host can truncate, corrupt or delete between record
//! and replay. This file holds a single test, so its process has at most
//! one spilled buffer at a time and finds that buffer's file by name
//! (`mosaic-tracebuf-<pid>-<serial>.trace` in the temp dir).

use std::path::PathBuf;

use mosaic_mem::VirtAddr;
use mosaic_sim::trace_buffer::TraceBuffer;
use mosaic_workloads::tracefile::RecordedTrace;
use mosaic_workloads::{Access, TraceError, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

/// Addresses keep bit 63 clear — the trace encoding's load/store flag.
fn any_access() -> impl Strategy<Value = Access> {
    (0u64..(1u64 << 63), any::<bool>()).prop_map(|(addr, store)| {
        if store {
            Access::store(VirtAddr(addr))
        } else {
            Access::load(VirtAddr(addr))
        }
    })
}

#[derive(Debug, Clone)]
enum Damage {
    /// Keep this many bytes (modulo the file length).
    Truncate(u64),
    /// Flip this bit (modulo the file's bit count).
    FlipBit(u64),
    Delete,
}

fn any_damage() -> impl Strategy<Value = Damage> {
    (0u64..3, any::<u64>()).prop_map(|(kind, n)| match kind {
        0 => Damage::Truncate(n),
        1 => Damage::FlipBit(n),
        _ => Damage::Delete,
    })
}

/// The one spill file this process has.
fn spill_file() -> PathBuf {
    let prefix = format!("mosaic-tracebuf-{}-", std::process::id());
    let mut found: Vec<PathBuf> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect();
    assert_eq!(found.len(), 1, "expected one spill file: {found:?}");
    found.pop().expect("one file")
}

fn damage(path: &PathBuf, d: &Damage) {
    match *d {
        Damage::Truncate(keep) => {
            let len = std::fs::metadata(path).expect("spill file exists").len();
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(keep % len))
                .expect("truncate spill file");
        }
        Damage::FlipBit(bit) => {
            let mut bytes = std::fs::read(path).expect("read spill file");
            let bit = bit % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            std::fs::write(path, bytes).expect("rewrite spill file");
        }
        Damage::Delete => std::fs::remove_file(path).expect("delete spill file"),
    }
}

/// What each replay path delivers: the accesses, or its error.
fn replays(buf: &TraceBuffer) -> Vec<(&'static str, Result<Vec<Access>, TraceError>)> {
    let mut out = Vec::new();
    let mut got = Vec::new();
    let r = buf.replay(&mut |a| got.push(a));
    out.push(("replay", r.map(|()| got)));
    let mut got = Vec::new();
    let r = buf.replay_chunks(&mut |c| got.extend_from_slice(c));
    out.push(("replay_chunks", r.map(|()| got)));
    let mut got = Vec::new();
    let mut replayer = buf.replayer();
    replayer.run(&mut |a| got.push(a));
    out.push(("replayer().run", replayer.into_error().map_or(Ok(got), Err)));
    let mut got = Vec::new();
    let mut replayer = buf.replayer();
    replayer.run_chunks(7, &mut |c| got.extend_from_slice(c));
    out.push((
        "replayer().run_chunks",
        replayer.into_error().map_or(Ok(got), Err),
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_spill_gives_an_error_or_exactly_the_recording(
        accesses in vec(any_access(), 16..300),
        d in any_damage(),
    ) {
        // A 64-byte budget spills anything past 8 records.
        let mut w = RecordedTrace::new(accesses.clone());
        let buf = TraceBuffer::record_with_budget(&mut w, 64).expect("record failed");
        prop_assert!(buf.spilled());
        damage(&spill_file(), &d);
        for (path, out) in replays(&buf) {
            if let Ok(got) = out {
                prop_assert_eq!(&got, &accesses, "{} after {:?}", path, d);
            }
        }
    }
}
