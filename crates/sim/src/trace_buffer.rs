//! Record-once / replay-many traces for parallel sweeps.
//!
//! A sweep whose cells each consume a workload's reference stream (the
//! parts of a Figure 6 grid, the managers of a Table 4 cell) records
//! the stream once in a [`TraceBuffer`] — compact packed 8-byte
//! records, chunked so recording never reallocates a giant contiguous
//! block — and replays it read-only to any number of cells,
//! concurrently.
//!
//! Streams that outgrow an in-memory byte budget (default 128 MiB) spill
//! all-or-nothing to a temporary file in the exact
//! [`save_trace`](mosaic_workloads::save_trace) format; replay then
//! streams from disk with one file handle per replayer, so concurrent
//! cells never contend on a shared seek position. The spill file is
//! removed when the buffer is dropped. Every replay of it checks the
//! file's records against a digest taken while recording, so a
//! truncated, corrupted or deleted spill file gives a [`TraceError`],
//! never a short or altered stream.
//!
//! # Example
//!
//! ```
//! use mosaic_sim::trace_buffer::TraceBuffer;
//! use mosaic_workloads::{record, Gups, GupsConfig};
//!
//! let cfg = GupsConfig { table_bytes: 1 << 18, updates: 1_000 };
//! let buf = TraceBuffer::record(&mut Gups::new(cfg, 7)).unwrap();
//! let mut replayed = Vec::new();
//! buf.replay(&mut |a| replayed.push(a)).unwrap();
//! assert_eq!(replayed, record(&mut Gups::new(cfg, 7)));
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mosaic_workloads::{
    decode_access, encode_access, Access, TraceError, TraceReader, TraceWriter, Workload,
    WorkloadMeta,
};

/// Default in-memory byte budget before a recording spills to disk.
pub const DEFAULT_BUDGET_BYTES: u64 = 128 * 1024 * 1024;

/// Records per chunk: 64 Ki accesses = 512 KiB, large enough to
/// amortize per-chunk bookkeeping, small enough that growth never
/// copies the already-recorded prefix.
const CHUNK_RECORDS: usize = 1 << 16;

/// Distinguishes spill files of concurrent buffers within one process.
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let serial = SPILL_SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mosaic-tracebuf-{}-{serial}.trace",
        std::process::id()
    ))
}

/// Folds one record into a spill digest. Each step is a bijection of
/// the running value, so changing any single record changes the result.
fn fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0100_0000_01B3)
}

/// Owns the on-disk spill and deletes it when the buffer goes away.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    /// [`fold`] of every recorded record, in order.
    digest: u64,
}

impl SpillFile {
    /// A reader over the file that checks its records against the
    /// digest: a file with fewer, more or other records fails at its end.
    fn open(&self) -> Result<SpillReader<'_>, TraceError> {
        Ok(SpillReader {
            reader: TraceReader::open(&self.path)?,
            spill: self,
            digest: 0,
        })
    }
}

/// Streams a spill file back, failing at the end if any record changed.
struct SpillReader<'a> {
    reader: TraceReader,
    spill: &'a SpillFile,
    digest: u64,
}

impl SpillReader<'_> {
    fn next_access(&mut self) -> Result<Option<Access>, TraceError> {
        match self.reader.next_access()? {
            Some(a) => {
                self.digest = fold(self.digest, encode_access(a));
                Ok(Some(a))
            }
            None if self.digest == self.spill.digest => Ok(None),
            None => Err(TraceError::Io {
                file: self.spill.path.display().to_string(),
                offset: 0,
                source: std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "spill file records differ from the recording",
                ),
            }),
        }
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Best-effort cleanup; a leftover temp file is not worth a panic.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[derive(Debug)]
enum Storage {
    /// Chunked packed records, wholly in memory.
    Memory(Vec<Vec<u64>>),
    /// Spilled to a trace file; every replay opens its own reader.
    Disk(SpillFile),
}

/// An immutable recorded access stream, replayable any number of times
/// (including concurrently — replay takes `&self`).
#[derive(Debug)]
pub struct TraceBuffer {
    meta: WorkloadMeta,
    storage: Storage,
    len: u64,
}

impl TraceBuffer {
    /// Records `workload`'s full stream with the default spill budget.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the stream spills and the spill file
    /// cannot be written.
    pub fn record(workload: &mut dyn Workload) -> Result<Self, TraceError> {
        Self::record_with_budget(workload, DEFAULT_BUDGET_BYTES)
    }

    /// Records `workload`'s full stream, spilling to disk once the
    /// in-memory representation would exceed `budget_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the spill file cannot be written.
    pub fn record_with_budget(
        workload: &mut dyn Workload,
        budget_bytes: u64,
    ) -> Result<Self, TraceError> {
        let meta = workload.meta();
        let mut b = TraceBufferBuilder::with_budget(budget_bytes);
        workload.run(&mut |a| b.push(a));
        b.finish(meta)
    }

    /// Recorded accesses.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the recording overflowed its budget onto disk.
    pub fn spilled(&self) -> bool {
        matches!(self.storage, Storage::Disk(_))
    }

    /// The source workload's metadata, preserved verbatim.
    pub fn meta(&self) -> &WorkloadMeta {
        &self.meta
    }

    /// Replays every recorded access, in order, into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if a spilled recording cannot be read back
    /// or no longer matches what was recorded (in-memory replays cannot
    /// fail). The accesses delivered before the error are then invalid.
    pub fn replay(&self, sink: &mut dyn FnMut(Access)) -> Result<(), TraceError> {
        match &self.storage {
            Storage::Memory(chunks) => {
                for chunk in chunks {
                    for &word in chunk {
                        sink(decode_access(word));
                    }
                }
                Ok(())
            }
            Storage::Disk(spill) => {
                let mut r = spill.open()?;
                while let Some(a) = r.next_access()? {
                    sink(a);
                }
                Ok(())
            }
        }
    }

    /// Replays every recorded access as contiguous slices, in order: the
    /// zero-copy-decode feed for batched consumers
    /// ([`DualSim::access_batch`](crate::dual::DualSim::access_batch) and
    /// the chunked cell replays). Memory-backed buffers decode one stored
    /// chunk at a time into a reused scratch vector; spilled buffers fill
    /// the same scratch from the trace reader. Slices are
    /// [`CHUNK_RECORDS`]-sized except the last.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] as [`TraceBuffer::replay`] does.
    pub fn replay_chunks(&self, sink: &mut dyn FnMut(&[Access])) -> Result<(), TraceError> {
        let mut scratch: Vec<Access> = Vec::with_capacity(CHUNK_RECORDS.min(self.len as usize));
        match &self.storage {
            Storage::Memory(chunks) => {
                for chunk in chunks {
                    scratch.clear();
                    scratch.extend(chunk.iter().map(|&word| decode_access(word)));
                    sink(&scratch);
                }
                Ok(())
            }
            Storage::Disk(spill) => {
                let mut r = spill.open()?;
                loop {
                    scratch.clear();
                    while scratch.len() < CHUNK_RECORDS {
                        match r.next_access()? {
                            Some(a) => scratch.push(a),
                            None => break,
                        }
                    }
                    if scratch.is_empty() {
                        return Ok(());
                    }
                    sink(&scratch);
                }
            }
        }
    }

    /// A [`Workload`] adapter replaying this buffer, for driver APIs
    /// that consume `&mut dyn Workload`.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer {
            buffer: self,
            error: None,
        }
    }
}

/// Replays a [`TraceBuffer`] through the [`Workload`] interface.
///
/// `Workload::run` cannot return errors, so a disk-read failure during
/// the replay of a spilled buffer truncates the stream and is latched;
/// check [`TraceReplayer::error`] after driving it.
#[derive(Debug)]
pub struct TraceReplayer<'a> {
    buffer: &'a TraceBuffer,
    error: Option<TraceError>,
}

impl TraceReplayer<'_> {
    /// The I/O error that truncated the last replay, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Consumes the replayer, yielding the latched replay error.
    pub fn into_error(self) -> Option<TraceError> {
        self.error
    }
}

impl Workload for TraceReplayer<'_> {
    fn meta(&self) -> WorkloadMeta {
        self.buffer.meta().clone()
    }

    fn run(&mut self, sink: &mut dyn FnMut(Access)) {
        if let Err(e) = self.buffer.replay(sink) {
            self.error = Some(e);
        }
    }

    /// Feeds the stored chunks directly (re-slicing to `batch` when the
    /// caller wants smaller bites), skipping the default's re-buffering.
    fn run_chunks(&mut self, batch: usize, sink: &mut dyn FnMut(&[Access])) {
        let batch = batch.max(1);
        let result = self.buffer.replay_chunks(&mut |chunk| {
            for piece in chunk.chunks(batch) {
                sink(piece);
            }
        });
        if let Err(e) = result {
            self.error = Some(e);
        }
    }
}

/// Push-style recorder for streams that are produced inside a sink
/// closure rather than by one [`Workload`] that can be handed to
/// [`TraceBuffer::record`].
///
/// `push` is infallible so it can be called from `FnMut(Access)` sinks;
/// spill I/O errors are latched and surface from
/// [`TraceBufferBuilder::finish`].
#[derive(Debug)]
pub struct TraceBufferBuilder {
    budget_bytes: u64,
    chunks: Vec<Vec<u64>>,
    chunk: Vec<u64>,
    len: u64,
    writer: Option<(TraceWriter, PathBuf)>,
    /// [`fold`] of the records written to the spill file so far.
    digest: u64,
    error: Option<TraceError>,
}

impl TraceBufferBuilder {
    /// A builder with the default spill budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// A builder that spills once in-memory bytes would exceed
    /// `budget_bytes`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            chunks: Vec::new(),
            chunk: Vec::with_capacity(CHUNK_RECORDS),
            len: 0,
            writer: None,
            digest: 0,
            error: None,
        }
    }

    /// Accesses pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one access. After a spill error everything further is
    /// discarded; the error resurfaces from [`TraceBufferBuilder::finish`].
    pub fn push(&mut self, a: Access) {
        if self.error.is_some() {
            return;
        }
        if let Some((w, _)) = &mut self.writer {
            if let Err(e) = w.push(a) {
                self.error = Some(e);
            } else {
                self.digest = fold(self.digest, encode_access(a));
                self.len += 1;
            }
            return;
        }
        if self.chunk.len() == CHUNK_RECORDS {
            let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(CHUNK_RECORDS));
            self.chunks.push(full);
        }
        self.chunk.push(encode_access(a));
        self.len += 1;
        if self.len * 8 > self.budget_bytes {
            self.spill();
        }
    }

    /// Moves the whole buffered prefix to a spill file and switches
    /// subsequent pushes to streaming writes (all-or-nothing: a buffer
    /// is either fully in memory or fully on disk).
    fn spill(&mut self) {
        let path = spill_path();
        let mut w = match TraceWriter::create(&path) {
            Ok(w) => w,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        for chunk in self.chunks.iter().chain(std::iter::once(&self.chunk)) {
            for &word in chunk {
                if let Err(e) = w.push(decode_access(word)) {
                    self.error = Some(e);
                    let _ = std::fs::remove_file(&path);
                    return;
                }
                self.digest = fold(self.digest, word);
            }
        }
        self.chunks = Vec::new();
        self.chunk = Vec::new();
        self.writer = Some((w, path));
    }

    /// Seals the recording into an immutable [`TraceBuffer`] carrying
    /// `meta` (the source workload's metadata, verbatim).
    ///
    /// # Errors
    ///
    /// Returns the latched [`TraceError`] if any spill write failed.
    pub fn finish(mut self, meta: WorkloadMeta) -> Result<TraceBuffer, TraceError> {
        if let Some(e) = self.error.take() {
            if let Some((_, path)) = self.writer.take() {
                let _ = std::fs::remove_file(&path);
            }
            return Err(e);
        }
        let storage = match self.writer.take() {
            Some((w, path)) => {
                let spill = SpillFile {
                    path,
                    digest: self.digest,
                };
                w.finish()?;
                Storage::Disk(spill)
            }
            None => {
                if !self.chunk.is_empty() {
                    let last = std::mem::take(&mut self.chunk);
                    self.chunks.push(last);
                }
                Storage::Memory(std::mem::take(&mut self.chunks))
            }
        };
        Ok(TraceBuffer {
            meta,
            storage,
            len: self.len,
        })
    }
}

impl Default for TraceBufferBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_workloads::{record, Gups, GupsConfig};

    fn gups(seed: u64) -> Gups {
        Gups::new(
            GupsConfig {
                table_bytes: 1 << 18,
                updates: 3_000,
            },
            seed,
        )
    }

    fn replay_all(buf: &TraceBuffer) -> Vec<Access> {
        let mut out = Vec::new();
        buf.replay(&mut |a| out.push(a)).unwrap();
        out
    }

    #[test]
    fn in_memory_replay_matches_source_stream() {
        let expect = record(&mut gups(5));
        let buf = TraceBuffer::record(&mut gups(5)).unwrap();
        assert!(!buf.spilled());
        assert_eq!(buf.len() as usize, expect.len());
        assert_eq!(replay_all(&buf), expect);
        // Replays are repeatable.
        assert_eq!(replay_all(&buf), expect);
    }

    #[test]
    fn tiny_budget_spills_to_disk_and_replays_identically() {
        let expect = record(&mut gups(6));
        let buf = TraceBuffer::record_with_budget(&mut gups(6), 64).unwrap();
        assert!(buf.spilled());
        assert_eq!(buf.len() as usize, expect.len());
        assert_eq!(replay_all(&buf), expect);
        assert_eq!(replay_all(&buf), expect);
    }

    #[test]
    fn spill_crossing_a_chunk_boundary_replays_identically() {
        // Budget above one chunk so the spill happens after chunk
        // rotation has occurred at least once.
        let n = (CHUNK_RECORDS + CHUNK_RECORDS / 2) as u64;
        let mut w = Gups::new(
            GupsConfig {
                table_bytes: 1 << 20,
                updates: n,
            },
            9,
        );
        let expect = record(&mut Gups::new(*w.config(), 9));
        let budget = (CHUNK_RECORDS as u64 + 10) * 8;
        let buf = TraceBuffer::record_with_budget(&mut w, budget).unwrap();
        assert!(buf.spilled());
        assert_eq!(replay_all(&buf), expect);
    }

    #[test]
    fn drop_removes_spill_file() {
        let buf = TraceBuffer::record_with_budget(&mut gups(7), 64).unwrap();
        let path = match &buf.storage {
            Storage::Disk(s) => s.path.clone(),
            Storage::Memory(_) => panic!("expected a spilled buffer"),
        };
        assert!(path.exists());
        drop(buf);
        assert!(!path.exists());
    }

    #[test]
    fn builder_push_style_round_trips_and_preserves_meta() {
        let mut src = gups(8);
        let meta = src.meta();
        let expect = record(&mut gups(8));
        let mut b = TraceBufferBuilder::new();
        src.run(&mut |a| b.push(a));
        let buf = b.finish(meta.clone()).unwrap();
        assert_eq!(buf.meta(), &meta);
        assert_eq!(replay_all(&buf), expect);
    }

    #[test]
    fn replayer_is_a_workload_with_source_meta() {
        let mut src = gups(10);
        let meta = src.meta();
        let expect = record(&mut gups(10));
        let buf = TraceBuffer::record(&mut src).unwrap();
        let mut rep = buf.replayer();
        assert_eq!(rep.meta(), meta);
        let got = record(&mut rep);
        assert!(rep.error().is_none());
        assert_eq!(got, expect);
    }

    #[test]
    fn concurrent_replays_of_a_spilled_buffer_are_independent() {
        let expect = record(&mut gups(11));
        let buf = TraceBuffer::record_with_budget(&mut gups(11), 64).unwrap();
        let outs: Vec<Vec<Access>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| replay_all(&buf)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn empty_builder_finishes_into_empty_buffer() {
        let meta = gups(1).meta();
        let buf = TraceBufferBuilder::new().finish(meta).unwrap();
        assert!(buf.is_empty());
        assert_eq!(replay_all(&buf), Vec::new());
    }

    #[test]
    fn chunked_replay_concatenates_to_scalar_replay() {
        for budget in [DEFAULT_BUDGET_BYTES, 64] {
            let buf = TraceBuffer::record_with_budget(&mut gups(12), budget).unwrap();
            let expect = replay_all(&buf);
            let mut got = Vec::new();
            let mut chunks = 0usize;
            buf.replay_chunks(&mut |c| {
                assert!(!c.is_empty());
                chunks += 1;
                got.extend_from_slice(c);
            })
            .unwrap();
            assert_eq!(got, expect, "budget {budget}");
            assert_eq!(chunks, expect.len().div_ceil(CHUNK_RECORDS).max(1));
        }
    }

    #[test]
    fn replayer_run_chunks_respects_batch_and_order() {
        let buf = TraceBuffer::record(&mut gups(13)).unwrap();
        let expect = replay_all(&buf);
        let mut rep = buf.replayer();
        let mut got = Vec::new();
        rep.run_chunks(100, &mut |c| {
            assert!(c.len() <= 100);
            got.extend_from_slice(c);
        });
        assert!(rep.error().is_none());
        assert_eq!(got, expect);
    }
}
