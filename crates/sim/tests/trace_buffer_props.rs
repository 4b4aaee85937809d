//! Property tests for the record-once/replay-many trace buffer.
//!
//! The parallel sweep engine is only byte-identical to the serial one if
//! recording and replaying a reference stream is lossless — for any
//! access sequence, in memory or spilled to disk. [`RecordedTrace`]
//! turns an arbitrary proptest-generated stream into a [`Workload`], the
//! same adapter the trace-file tooling uses.

use mosaic_mem::VirtAddr;
use mosaic_sim::trace_buffer::{TraceBuffer, TraceBufferBuilder};
use mosaic_workloads::tracefile::RecordedTrace;
use mosaic_workloads::{Access, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

/// Addresses keep bit 63 clear — the trace encoding uses it as the
/// load/store flag, and no simulated virtual layout reaches it.
fn any_access() -> impl Strategy<Value = Access> {
    (0u64..(1u64 << 63), any::<bool>()).prop_map(|(addr, store)| {
        if store {
            Access::store(VirtAddr(addr))
        } else {
            Access::load(VirtAddr(addr))
        }
    })
}

fn replayed(buf: &TraceBuffer) -> Vec<Access> {
    let mut out = Vec::new();
    buf.replay(&mut |a| out.push(a)).expect("replay failed");
    out
}

proptest! {
    #[test]
    fn in_memory_record_replay_round_trips(accesses in vec(any_access(), 1..400)) {
        let mut w = RecordedTrace::new(accesses.clone());
        let meta = w.meta();
        let buf = TraceBuffer::record(&mut w).expect("record failed");
        prop_assert!(!buf.spilled(), "default budget must hold a tiny stream");
        prop_assert_eq!(buf.len(), accesses.len() as u64);
        prop_assert_eq!(buf.meta(), &meta);
        prop_assert_eq!(replayed(&buf), accesses);
    }

    #[test]
    fn spilled_record_replay_round_trips(accesses in vec(any_access(), 16..400)) {
        // A 64-byte budget forces any stream past 8 encoded words onto
        // disk, exercising the spill writer and reader.
        let mut w = RecordedTrace::new(accesses.clone());
        let buf = TraceBuffer::record_with_budget(&mut w, 64).expect("record failed");
        prop_assert!(buf.spilled(), "budget of 64 bytes must spill {} accesses", accesses.len());
        prop_assert_eq!(buf.len(), accesses.len() as u64);
        prop_assert_eq!(replayed(&buf), accesses);
    }

    #[test]
    fn replay_many_is_stable(accesses in vec(any_access(), 1..200)) {
        // Record once, replay many: every replay — closure-based or via
        // the Workload adapter — yields the identical stream.
        let mut w = RecordedTrace::new(accesses.clone());
        let buf = TraceBuffer::record_with_budget(&mut w, 64).expect("record failed");
        let first = replayed(&buf);
        let second = replayed(&buf);
        prop_assert_eq!(&first, &second);
        let mut via_workload = Vec::new();
        let mut replayer = buf.replayer();
        replayer.run(&mut |a| via_workload.push(a));
        prop_assert!(replayer.error().is_none());
        prop_assert_eq!(via_workload, accesses);
    }
}

/// `TraceBufferBuilder::with_budget` at its edges: a recording spills
/// exactly when its 8-byte records need more than the budget, and
/// replays identically either way. One chunk is 64 Ki records.
#[test]
fn budget_edges_spill_exactly_past_the_budget() {
    const CHUNK: u64 = 1 << 16;
    let one_chunk = CHUNK * 8;
    for (budget, records, spills) in [
        (0, 0, false),
        (0, 1, true),
        (one_chunk, CHUNK - 1, false),
        (one_chunk, CHUNK, false),
        (one_chunk, CHUNK + 1, true),
        (one_chunk - 8, CHUNK, true),
        (one_chunk + 8, CHUNK, false),
    ] {
        let accesses: Vec<Access> = (0..records)
            .map(|i| {
                let addr = VirtAddr(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1);
                if i % 3 == 0 {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        let mut b = TraceBufferBuilder::with_budget(budget);
        for &a in &accesses {
            b.push(a);
        }
        let meta = RecordedTrace::new(Vec::new()).meta();
        let buf = b.finish(meta).expect("finish failed");
        let case = format!("budget {budget}, {records} records");
        assert_eq!(buf.spilled(), spills, "{case}");
        assert_eq!(buf.len(), records, "{case}");
        assert!(replayed(&buf) == accesses, "{case}: replay differs");
        let mut chunked = Vec::new();
        buf.replay_chunks(&mut |c| chunked.extend_from_slice(c))
            .expect("chunked replay failed");
        assert!(chunked == accesses, "{case}: chunked replay differs");
    }
}
