//! Malformed trace files: [`load_trace`] and [`TraceReader`] must turn
//! any byte string into `Ok` or a typed [`TraceError`], never a panic or
//! an allocation the file cannot back.
//!
//! Inputs start from a well-formed trace and are then truncated at any
//! byte, bit-flipped anywhere (magic, version, count or records) and
//! given header counts from the whole `u64` range. The expected outcome
//! comes from an oracle over the raw bytes that shares no code with the
//! reader: the header is a 12-byte magic, a little-endian `u32` version
//! (1) and a `u64` record count, followed by 8-byte records.

use mosaic_workloads::tracefile::{decode_access, load_trace, TraceError, TraceReader};
use mosaic_workloads::Access;
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The system allocator, noting the largest single request each thread
/// makes, so a test can bound what one call reserved even when the call
/// fails and drops it.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Slack for the reader's own buffers (`BufReader`'s 8 KiB, the file
/// name) beside the records themselves.
const READER_SLACK: usize = 64 << 10;

const MAGIC: &[u8; 12] = b"MOSAICTRACE\0";
const HEADER_LEN: usize = 24;

/// What reading a file must produce.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(Vec<Access>),
    /// The header is cut short.
    Io,
    BadMagic,
    BadVersion(u32),
    Truncated { offset: u64, expected: u64, got: u64 },
}

impl Outcome {
    fn of_error(e: &TraceError) -> Self {
        match e {
            TraceError::Io { .. } => Outcome::Io,
            TraceError::BadMagic { .. } => Outcome::BadMagic,
            TraceError::BadVersion { found, .. } => Outcome::BadVersion(*found),
            TraceError::Truncated {
                offset,
                expected,
                got,
                ..
            } => Outcome::Truncated {
                offset: *offset,
                expected: *expected,
                got: *got,
            },
        }
    }
}

/// The oracle: the outcome the format defines for `bytes`.
fn expected(bytes: &[u8]) -> Outcome {
    if bytes.len() < MAGIC.len() {
        return Outcome::Io;
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Outcome::BadMagic;
    }
    let Some(version) = bytes.get(12..16) else {
        return Outcome::Io;
    };
    let version = u32::from_le_bytes(version.try_into().expect("4 bytes"));
    if version != 1 {
        return Outcome::BadVersion(version);
    }
    let Some(count) = bytes.get(16..HEADER_LEN) else {
        return Outcome::Io;
    };
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    let present = ((bytes.len() - HEADER_LEN) / 8) as u64;
    if count > present {
        return Outcome::Truncated {
            offset: (HEADER_LEN as u64) + present * 8,
            expected: count,
            got: present,
        };
    }
    Outcome::Ok(
        bytes[HEADER_LEN..]
            .chunks_exact(8)
            .take(count as usize)
            .map(|w| decode_access(u64::from_le_bytes(w.try_into().expect("8 bytes"))))
            .collect(),
    )
}

/// A well-formed trace of `records` with header count `count`.
fn encode(records: &[u64], count: u64) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    for r in records {
        bytes.extend_from_slice(&r.to_le_bytes());
    }
    bytes
}

/// Header counts: the true one, any `u64`, the top of the range, or
/// the true one plus or minus a little.
fn header_count(records: usize, mode: u8, raw: u64) -> u64 {
    match mode % 4 {
        0 => records as u64,
        1 => raw,
        2 => u64::MAX - raw % 4,
        _ => (records as u64 + raw % 5).saturating_sub(2),
    }
}

/// Reads `path` both ways and checks each against the oracle.
fn check(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).expect("scratch file is writable");
    let want = expected(bytes);
    // Every reservation, kept or dropped with an error, is bounded by
    // the records the file can hold.
    let room = bytes.len().saturating_sub(HEADER_LEN) / 8;
    LARGEST.with(|l| l.set(0));
    let loaded = load_trace(path);
    let largest = LARGEST.with(Cell::get);
    let bound = room * std::mem::size_of::<Access>() + READER_SLACK;
    prop_assert!(largest <= bound, "requested {} bytes, bound {}", largest, bound);
    match &loaded {
        Ok(v) => prop_assert!(v.capacity() <= room, "{} reserved, room {}", v.capacity(), room),
        Err(e) => prop_assert!(e.offset() <= bytes.len() as u64, "{}", e),
    }
    let got = loaded.map_or_else(|e| Outcome::of_error(&e), Outcome::Ok);
    prop_assert_eq!(&got, &want, "load_trace");

    // The streaming reader ends, Ok or not, within the file's records.
    let streamed = match TraceReader::open(path) {
        Err(e) => Outcome::of_error(&e),
        Ok(mut r) => {
            let mut out = Vec::new();
            loop {
                match r.next_access() {
                    Ok(Some(a)) => out.push(a),
                    Ok(None) => break Outcome::Ok(out),
                    Err(e) => break Outcome::of_error(&e),
                }
                prop_assert!(out.len() <= room, "read past the file's records");
            }
        }
    };
    prop_assert_eq!(&streamed, &want, "TraceReader");
    Ok(())
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}.trace", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncated anywhere, with any header count.
    #[test]
    fn truncated_traces_load_or_fail_typed(
        records in vec(any::<u64>(), 0..40),
        mode in any::<u8>(),
        raw in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let mut bytes = encode(&records, header_count(records.len(), mode, raw));
        bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        let path = scratch("truncated");
        check(&path, &bytes)?;
        let _ = std::fs::remove_file(path);
    }

    /// Bit flips anywhere, the header included, with any header count;
    /// half the inputs are also cut short.
    #[test]
    fn bit_flipped_traces_load_or_fail_typed(
        records in vec(any::<u64>(), 0..40),
        mode in any::<u8>(),
        raw in any::<u64>(),
        flips in vec((any::<u64>(), 0u8..8, any::<bool>()), 1..6),
        cut in any::<u64>(),
        short in any::<bool>(),
    ) {
        let mut bytes = encode(&records, header_count(records.len(), mode, raw));
        let len = bytes.len() as u64;
        for (at, bit, in_header) in flips {
            // Half the flips land in the 24-byte header.
            let at = if in_header { at % HEADER_LEN as u64 } else { at % len };
            bytes[at as usize] ^= 1 << bit;
        }
        if short {
            bytes.truncate((cut % (len + 1)) as usize);
        }
        let path = scratch("flipped");
        check(&path, &bytes)?;
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn oracle_reads_well_formed_traces() {
    let records = [7u64, 1 << 63 | 4096];
    let want: Vec<Access> = records.iter().map(|&w| decode_access(w)).collect();
    assert_eq!(expected(&encode(&records, 2)), Outcome::Ok(want.clone()));
    assert_eq!(expected(&encode(&records, 1)), Outcome::Ok(want[..1].to_vec()));
    assert_eq!(
        expected(&encode(&records, 3)),
        Outcome::Truncated {
            offset: 40,
            expected: 3,
            got: 2
        }
    );
    let path = scratch("oracle");
    check(&path, &encode(&records, 2)).expect("well-formed trace");
    let _ = std::fs::remove_file(path);
}
