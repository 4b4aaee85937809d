//! Trace persistence: save a workload's access stream to disk and replay
//! it later, like the gem5 artifact's recorded runs.
//!
//! Format (little-endian): a 16-byte header (`b"MOSAICTRACE\0"` + u32
//! version), a u64 access count, then one record per access — 8 bytes of
//! virtual address with the load/store flag packed into the top bit
//! (addresses are < 2^48, so bit 63 is free).

use crate::trace::{Access, Workload, WorkloadMeta};
use mosaic_mem::{AccessKind, MosaicError, VirtAddr};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 12] = b"MOSAICTRACE\0";
const VERSION: u32 = 1;
const STORE_BIT: u64 = 1 << 63;

/// A typed trace-file error carrying the file and byte offset at which the
/// problem was found, so a corrupt recorded run is diagnosable without a
/// hex dump.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying filesystem error at a known byte offset.
    Io {
        /// The trace file.
        file: String,
        /// Byte offset of the failed read/write.
        offset: u64,
        /// The OS-level error.
        source: io::Error,
    },
    /// The file does not start with the `MOSAICTRACE` magic.
    BadMagic {
        /// The trace file.
        file: String,
    },
    /// The header version is not one this build can replay.
    BadVersion {
        /// The trace file.
        file: String,
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before the header's access count is satisfied.
    Truncated {
        /// The trace file.
        file: String,
        /// Byte offset at which the stream ran dry.
        offset: u64,
        /// Records promised by the header.
        expected: u64,
        /// Records actually present.
        got: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io {
                file,
                offset,
                source,
            } => write!(f, "trace {file}: I/O error at byte {offset}: {source}"),
            Self::BadMagic { file } => write!(f, "trace {file}: bad magic (not a mosaic trace)"),
            Self::BadVersion { file, found } => {
                write!(f, "trace {file}: unsupported version {found} (want {VERSION})")
            }
            Self::Truncated {
                file,
                offset,
                expected,
                got,
            } => write!(
                f,
                "trace {file}: truncated at byte {offset}: header promises {expected} records, found {got}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl TraceError {
    /// The byte offset the error was detected at (0 for header-level errors).
    pub fn offset(&self) -> u64 {
        match self {
            Self::Io { offset, .. } | Self::Truncated { offset, .. } => *offset,
            Self::BadMagic { .. } | Self::BadVersion { .. } => 0,
        }
    }
}

/// Trace errors flow into the simulator's error hierarchy as
/// [`MosaicError::TraceCorrupt`], preserving the file and offset.
impl From<TraceError> for MosaicError {
    fn from(e: TraceError) -> Self {
        // `detail` carries only the variant-specific message; the mosaic
        // error's own Display already prints the file and offset.
        let (file, offset, detail) = match &e {
            TraceError::Io {
                file,
                offset,
                source,
            } => (file.clone(), *offset, format!("I/O error: {source}")),
            TraceError::Truncated {
                file,
                offset,
                expected,
                got,
            } => (
                file.clone(),
                *offset,
                format!("truncated: header promises {expected} records, found {got}"),
            ),
            TraceError::BadMagic { file } => {
                (file.clone(), 0, "bad magic (not a mosaic trace)".into())
            }
            TraceError::BadVersion { file, found } => (
                file.clone(),
                0,
                format!("unsupported version {found} (want {VERSION})"),
            ),
        };
        MosaicError::TraceCorrupt {
            file,
            offset,
            detail,
        }
    }
}

fn io_err(path: &Path, offset: u64, source: io::Error) -> TraceError {
    TraceError::Io {
        file: path.display().to_string(),
        offset,
        source,
    }
}

/// Packs one access into the trace file's 8-byte record: the virtual
/// address with the load/store flag in bit 63.
///
/// The same packing backs `mosaic-sim`'s in-memory `TraceBuffer`, so a
/// buffered stream and its disk spill are bit-for-bit the same records.
pub fn encode_access(a: Access) -> u64 {
    let mut word = a.addr.0;
    debug_assert_eq!(word & STORE_BIT, 0, "address uses the flag bit");
    if a.kind == AccessKind::Store {
        word |= STORE_BIT;
    }
    word
}

/// Unpacks a record written by [`encode_access`].
pub fn decode_access(word: u64) -> Access {
    Access {
        addr: VirtAddr(word & !STORE_BIT),
        kind: if word & STORE_BIT != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
    }
}

const HEADER_LEN: u64 = (MAGIC.len() + 4 + 8) as u64;

/// An incremental trace-file writer: accesses are streamed to disk as
/// they arrive instead of materializing the whole trace first, and the
/// header's record count is patched in by [`TraceWriter::finish`].
///
/// This is the spill path of the simulator's record-once/replay-many
/// `TraceBuffer`: a stream that outgrows its in-memory byte budget
/// continues on disk in exactly the [`save_trace`] format.
#[derive(Debug)]
pub struct TraceWriter {
    w: BufWriter<std::fs::File>,
    path: std::path::PathBuf,
    count: u64,
}

impl TraceWriter {
    /// Creates `path` and writes the header with a zero count (patched on
    /// finish).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem errors.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path).map_err(|e| io_err(path, 0, e))?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC).map_err(|e| io_err(path, 0, e))?;
        w.write_all(&VERSION.to_le_bytes())
            .map_err(|e| io_err(path, MAGIC.len() as u64, e))?;
        // Count patched in afterwards; reserve the slot.
        w.write_all(&0u64.to_le_bytes())
            .map_err(|e| io_err(path, (MAGIC.len() + 4) as u64, e))?;
        Ok(Self {
            w,
            path: path.to_path_buf(),
            count: 0,
        })
    }

    /// Appends one access record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] with the failing byte offset.
    pub fn push(&mut self, a: Access) -> Result<(), TraceError> {
        self.w
            .write_all(&encode_access(a).to_le_bytes())
            .map_err(|e| io_err(&self.path, HEADER_LEN + self.count * 8, e))?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes, patches the header's record count, and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem errors.
    pub fn finish(self) -> Result<u64, TraceError> {
        let count = self.count;
        let path = self.path;
        let mut file = self
            .w
            .into_inner()
            .map_err(|e| io_err(&path, HEADER_LEN + count * 8, e.into_error()))?;
        use std::io::Seek;
        file.seek(io::SeekFrom::Start((MAGIC.len() + 4) as u64))
            .map_err(|e| io_err(&path, (MAGIC.len() + 4) as u64, e))?;
        file.write_all(&count.to_le_bytes())
            .map_err(|e| io_err(&path, (MAGIC.len() + 4) as u64, e))?;
        Ok(count)
    }
}

/// A streaming trace-file reader: validates the header on open, then
/// yields one access at a time without loading the file into memory.
///
/// Each reader owns its own file handle, so any number of concurrent
/// replayers can stream the same spilled trace independently.
#[derive(Debug)]
pub struct TraceReader {
    r: BufReader<std::fs::File>,
    name: String,
    count: u64,
    read: u64,
    offset: u64,
}

impl TraceReader {
    /// Opens `path` and validates the `MOSAICTRACE` header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`]/[`TraceError::BadVersion`] for
    /// foreign files and [`TraceError::Io`] for filesystem errors.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let name = path.display().to_string();
        let file = std::fs::File::open(path).map_err(|e| io_err(path, 0, e))?;
        let mut r = BufReader::new(file);
        let mut offset = 0u64;
        let mut magic = [0u8; 12];
        r.read_exact(&mut magic).map_err(|e| io_err(path, 0, e))?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic { file: name });
        }
        offset += magic.len() as u64;
        let mut word4 = [0u8; 4];
        r.read_exact(&mut word4)
            .map_err(|e| io_err(path, offset, e))?;
        let version = u32::from_le_bytes(word4);
        if version != VERSION {
            return Err(TraceError::BadVersion {
                file: name,
                found: version,
            });
        }
        offset += 4;
        let mut word8 = [0u8; 8];
        r.read_exact(&mut word8)
            .map_err(|e| io_err(path, offset, e))?;
        let count = u64::from_le_bytes(word8);
        offset += 8;
        Ok(Self {
            r,
            name,
            count,
            read: 0,
            offset,
        })
    }

    /// Records the header promises.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The next access, or `None` once the promised count is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if the file ends before the
    /// header's count is satisfied, and [`TraceError::Io`] for other
    /// filesystem errors.
    pub fn next_access(&mut self) -> Result<Option<Access>, TraceError> {
        if self.read == self.count {
            return Ok(None);
        }
        let mut word8 = [0u8; 8];
        if let Err(e) = self.r.read_exact(&mut word8) {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                return Err(TraceError::Truncated {
                    file: self.name.clone(),
                    offset: self.offset,
                    expected: self.count,
                    got: self.read,
                });
            }
            return Err(TraceError::Io {
                file: self.name.clone(),
                offset: self.offset,
                source: e,
            });
        }
        self.offset += 8;
        self.read += 1;
        Ok(Some(decode_access(u64::from_le_bytes(word8))))
    }
}

/// Writes `workload`'s full trace to `path`, returning the access count.
///
/// # Errors
///
/// Returns [`TraceError::Io`] with the failing byte offset on filesystem
/// errors.
pub fn save_trace(path: &Path, workload: &mut dyn Workload) -> Result<u64, TraceError> {
    let mut w = TraceWriter::create(path)?;
    let mut err: Option<TraceError> = None;
    workload.run(&mut |a| {
        if err.is_some() {
            return;
        }
        if let Err(e) = w.push(a) {
            err = Some(e);
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    w.finish()
}

/// Loads a trace saved by [`save_trace`].
///
/// # Errors
///
/// Returns [`TraceError::BadMagic`]/[`TraceError::BadVersion`] for foreign
/// files, [`TraceError::Truncated`] (with the record tally) when the file
/// ends early, and [`TraceError::Io`] for other filesystem errors — all
/// carrying the file name and byte offset.
pub fn load_trace(path: &Path) -> Result<Vec<Access>, TraceError> {
    // Reserve no more records than the file can hold: the header count
    // is untrusted until the records are read.
    let len = std::fs::metadata(path)
        .map_err(|e| io_err(path, 0, e))?
        .len();
    let mut r = TraceReader::open(path)?;
    let room = len.saturating_sub(HEADER_LEN) / 8;
    let mut out = Vec::with_capacity(r.count().min(room) as usize);
    while let Some(a) = r.next_access()? {
        out.push(a);
    }
    Ok(out)
}

/// A [`Workload`] that replays a recorded trace.
///
/// With a fault injector attached (a [`FaultPlan`](mosaic_mem::FaultPlan)
/// with a nonzero `trace_truncate_ppm`), each replayed access rolls for
/// truncation and the replay stops early when it fires — modelling a
/// recorded run cut short on disk.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    accesses: Vec<Access>,
    footprint_bytes: u64,
    fault: Option<mosaic_mem::FaultInjector>,
}

impl RecordedTrace {
    /// Wraps an in-memory trace.
    pub fn new(accesses: Vec<Access>) -> Self {
        let stats = crate::trace::TraceStats::of(&accesses);
        Self {
            footprint_bytes: stats.footprint_bytes(),
            accesses,
            fault: None,
        }
    }

    /// Attaches a deterministic fault injector for truncated replays.
    #[must_use]
    pub fn with_fault_injector(mut self, plan: mosaic_mem::FaultPlan, seed: u64) -> Self {
        self.fault = Some(mosaic_mem::FaultInjector::new(plan, seed));
        self
    }

    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// See [`load_trace`].
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(Self::new(load_trace(path)?))
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }
}

impl Workload for RecordedTrace {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "RecordedTrace",
            description: "replay of a saved access trace",
            footprint_bytes: self.footprint_bytes,
            approx_accesses: self.accesses.len() as u64,
        }
    }

    fn run(&mut self, sink: &mut dyn FnMut(Access)) {
        for &a in &self.accesses {
            if self.fault.as_mut().is_some_and(|i| i.trace_should_truncate()) {
                return;
            }
            sink(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gups::{Gups, GupsConfig};
    use crate::trace::record;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mosaic-trace-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_load_round_trip() {
        let mut g = Gups::new(
            GupsConfig {
                table_bytes: 1 << 18,
                updates: 2_000,
            },
            5,
        );
        let expect = record(&mut Gups::new(*g.config(), 5));
        let path = temp_path("roundtrip");
        let n = save_trace(&path, &mut g).unwrap();
        assert_eq!(n as usize, expect.len());
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, expect);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_writer_matches_save_trace_byte_for_byte() {
        let cfg = GupsConfig {
            table_bytes: 1 << 18,
            updates: 1_500,
        };
        let saved = temp_path("stream-saved");
        save_trace(&saved, &mut Gups::new(cfg, 9)).unwrap();
        let streamed = temp_path("stream-pushed");
        let mut w = TraceWriter::create(&streamed).unwrap();
        for a in record(&mut Gups::new(cfg, 9)) {
            w.push(a).unwrap();
        }
        let n = w.finish().unwrap();
        assert_eq!(
            std::fs::read(&saved).unwrap(),
            std::fs::read(&streamed).unwrap()
        );
        assert_eq!(load_trace(&streamed).unwrap().len() as u64, n);
        std::fs::remove_file(&saved).unwrap();
        std::fs::remove_file(&streamed).unwrap();
    }

    #[test]
    fn streaming_reader_yields_all_records_then_none() {
        let cfg = GupsConfig {
            table_bytes: 1 << 18,
            updates: 800,
        };
        let path = temp_path("stream-read");
        save_trace(&path, &mut Gups::new(cfg, 11)).unwrap();
        let expect = record(&mut Gups::new(cfg, 11));
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.count() as usize, expect.len());
        let mut got = Vec::new();
        while let Some(a) = r.next_access().unwrap() {
            got.push(a);
        }
        assert_eq!(got, expect);
        assert!(r.next_access().unwrap().is_none(), "stays exhausted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn huge_header_count_is_truncated_not_reserved() {
        // A bare header promising u64::MAX records: loading must reserve
        // by the file's length (no records) and report the truncation.
        let path = temp_path("huge-count");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(bytes.len() as u64, HEADER_LEN);
        std::fs::write(&path, &bytes).unwrap();
        match load_trace(&path) {
            Err(TraceError::Truncated { expected, got, offset, .. }) => {
                assert_eq!(expected, u64::MAX);
                assert_eq!(got, 0);
                assert_eq!(offset, HEADER_LEN);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_reader_detects_truncation() {
        let cfg = GupsConfig {
            table_bytes: 1 << 18,
            updates: 100,
        };
        let path = temp_path("stream-trunc");
        save_trace(&path, &mut Gups::new(cfg, 3)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let mut got = 0u64;
        let err = loop {
            match r.next_access() {
                Ok(Some(_)) => got += 1,
                Ok(None) => panic!("truncated file must not read to completion"),
                Err(e) => break e,
            }
        };
        match err {
            TraceError::Truncated { expected, got: g, .. } => {
                assert_eq!(g, got);
                assert!(g < expected);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn encode_decode_round_trips_both_kinds() {
        for kind in [AccessKind::Load, AccessKind::Store] {
            let a = Access {
                addr: VirtAddr(0x1234_5678_9ABC),
                kind,
            };
            assert_eq!(decode_access(encode_access(a)), a);
        }
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let mut g = Gups::new(
            GupsConfig {
                table_bytes: 1 << 18,
                updates: 500,
            },
            9,
        );
        let original = record(&mut g);
        let mut replay = RecordedTrace::new(original.clone());
        assert_eq!(record(&mut replay), original);
        assert_eq!(replay.meta().approx_accesses, original.len() as u64);
        assert!(replay.meta().footprint_bytes > 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOT A TRACE FILE AT ALL....").unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }), "{err}");
        assert!(err.to_string().contains("badmagic"), "names the file: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_version_rejected() {
        let path = temp_path("badversion");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::BadVersion { found: 99, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_diagnosed_with_offset() {
        let mut g = Gups::new(
            GupsConfig {
                table_bytes: 1 << 18,
                updates: 100,
            },
            1,
        );
        let path = temp_path("truncated");
        let n = save_trace(&path, &mut g).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_trace(&path).unwrap_err();
        match &err {
            TraceError::Truncated { expected, got, offset, .. } => {
                assert_eq!(*expected, n);
                assert_eq!(*got, n - 1);
                // The last full record ends 8 bytes before the (pre-cut) end.
                assert_eq!(*offset, bytes.len() as u64 - 8);
            }
            other => panic!("expected Truncated, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_error_converts_to_mosaic_error() {
        let err = TraceError::Truncated {
            file: "runs/gups.trace".into(),
            offset: 4096,
            expected: 600,
            got: 509,
        };
        match mosaic_mem::MosaicError::from(err) {
            mosaic_mem::MosaicError::TraceCorrupt { file, offset, detail } => {
                assert_eq!(file, "runs/gups.trace");
                assert_eq!(offset, 4096);
                assert!(detail.contains("509"), "{detail}");
            }
            other => panic!("expected TraceCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn injected_truncation_cuts_replay_deterministically() {
        use mosaic_mem::FaultPlan;
        let trace: Vec<Access> = (0..10_000u64)
            .map(|i| Access::load(VirtAddr(i << 12)))
            .collect();
        let plan = FaultPlan::NONE.with_trace_truncation(2_000); // 0.2 %
        let lens: Vec<usize> = (0..2)
            .map(|_| {
                let mut w = RecordedTrace::new(trace.clone()).with_fault_injector(plan, 0xCAFE);
                record(&mut w).len()
            })
            .collect();
        assert_eq!(lens[0], lens[1], "same seed, same cut point");
        assert!(lens[0] < trace.len(), "a 0.2 % rate fires within 10k accesses");
        // A zero plan replays in full.
        let mut w = RecordedTrace::new(trace.clone()).with_fault_injector(FaultPlan::NONE, 0xCAFE);
        assert_eq!(record(&mut w).len(), trace.len());
    }

    #[test]
    fn kinds_survive_round_trip() {
        let trace = vec![
            Access::load(VirtAddr(0x1000)),
            Access::store(VirtAddr(0x2000)),
            Access::store(VirtAddr(0x0000_FFFF_FFFF_F000)),
        ];
        let path = temp_path("kinds");
        let mut w = RecordedTrace::new(trace.clone());
        save_trace(&path, &mut w).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        std::fs::remove_file(&path).unwrap();
    }
}
