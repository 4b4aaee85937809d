//! Shared `--obs-out` / `--obs-interval` plumbing for the experiment
//! binaries.
//!
//! Every regenerator binary accepts the same three flags:
//!
//! * `--obs-out <path>` — enable metric/event collection and write the
//!   stream to `path` on exit. Without this flag collection is fully
//!   disabled ([`mosaic_obs::ObsHandle::noop`]) and the binary's stdout
//!   is byte-identical to an uninstrumented build.
//! * `--obs-interval <refs>` — snapshot the whole registry every that
//!   many simulated references (0, the default, snapshots only at the
//!   end of each run).
//! * `--obs-format jsonl|trace` — output format: JSONL records (the
//!   default; render with `obs_report`) or a Chrome `trace_event` JSON
//!   file loadable in perfetto / `chrome://tracing`.
//! * `--attrib` — additionally collect miss/fault attribution tables
//!   (3C TLB classification + eviction blame). Implies collection even
//!   without `--obs-out`, so binaries that render attribution to stdout
//!   (the `attrib` bin) work without a stream file; the stream gains
//!   `{"t":"attrib",...}` records only under this flag, keeping
//!   `--obs-out`-only outputs byte-identical to earlier releases.

use crate::{exit_usage, Args, ArgsError};
use mosaic_obs::{ObsHandle, Value};

/// Export format of the collected stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFormat {
    /// One JSON record per line (see `docs/OBSERVABILITY.md`).
    Jsonl,
    /// Chrome `trace_event` JSON for perfetto / `chrome://tracing`.
    Trace,
}

/// The observability sink of one binary run: a handle plus where (and
/// whether) to flush it at exit.
#[derive(Debug, Clone)]
pub struct ObsSink {
    handle: ObsHandle,
    out: Option<String>,
    interval: u64,
    format: ObsFormat,
}

impl ObsSink {
    /// The flags [`ObsSink::from_args`] reads, without `--`, for a
    /// binary's [`Args::only_or_exit`] list.
    pub const FLAGS: [&'static str; 4] = ["obs-out", "obs-interval", "obs-format", "attrib"];

    /// Builds the sink from the parsed command line; `bin` is stamped
    /// into the stream's leading `meta` record. The `--obs-out` file is
    /// created here, so an unwritable path fails before any work runs.
    ///
    /// An `--obs-format` other than `jsonl`/`trace`, or an `--obs-out`
    /// that cannot be created, prints `error: …` and exits 2.
    pub fn from_args(args: &Args, bin: &str) -> Self {
        let interval = args.get_u64("obs-interval", 0);
        let format = match args.get_str("obs-format") {
            None | Some("jsonl") => ObsFormat::Jsonl,
            Some("trace") => ObsFormat::Trace,
            Some(other) => exit_usage(&ArgsError::ObsFormat(other.to_string())),
        };
        let out = args.get_str("obs-out").map(str::to_string);
        if let Some(path) = &out {
            if let Err(e) = std::fs::File::create(path) {
                let error = e.to_string();
                exit_usage(&ArgsError::ObsOut { path: path.clone(), error });
            }
        }
        let attrib = args.has("attrib");
        let handle = if out.is_some() || attrib {
            let h = ObsHandle::enabled();
            h.set_attrib(attrib);
            h.meta(&[("bin", Value::from(bin))]);
            h
        } else {
            ObsHandle::noop()
        };
        Self {
            handle,
            out,
            interval,
            format,
        }
    }

    /// The handle to thread through the simulators (a no-op unless
    /// `--obs-out` was passed).
    pub fn handle(&self) -> &ObsHandle {
        &self.handle
    }

    /// Snapshot interval in simulated references (0 = finals only).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether collection is live.
    pub fn is_enabled(&self) -> bool {
        self.handle.is_enabled()
    }

    /// Renders and writes the stream, if `--obs-out` was passed. Reports
    /// the destination on stderr so experiment stdout stays untouched.
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written.
    pub fn finish(&self) {
        let Some(path) = &self.out else {
            return;
        };
        let text = match self.format {
            ObsFormat::Jsonl => self.handle.render_jsonl(),
            ObsFormat::Trace => self.handle.render_chrome_trace(),
        };
        std::fs::write(path, &text)
            .unwrap_or_else(|e| panic!("cannot write --obs-out {path}: {e}"));
        eprintln!(
            "[obs] wrote {} records to {path}",
            self.handle.num_records()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::parse(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn disabled_without_flag() {
        let s = ObsSink::from_args(&parse(&["bin"]), "t");
        assert!(!s.is_enabled());
        assert_eq!(s.interval(), 0);
        s.finish(); // no-op, must not panic
    }

    /// A fresh `--obs-out` path in the temp dir; the sink creates it.
    fn scratch_path(name: &str) -> String {
        let p = std::env::temp_dir().join(format!("obs-sink-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn enabled_with_flag() {
        let path = scratch_path("x.jsonl");
        let s = ObsSink::from_args(
            &parse(&["bin", "--obs-out", &path, "--obs-interval", "512"]),
            "t",
        );
        assert!(s.is_enabled());
        assert_eq!(s.interval(), 512);
        // The meta record is already queued.
        assert!(s.handle().render_jsonl().contains("\"bin\":\"t\""));
        s.finish();
        let written = std::fs::read_to_string(&path).expect("sink wrote its stream");
        assert_eq!(written, s.handle().render_jsonl());
        std::fs::remove_file(&path).expect("remove scratch stream");
    }

    #[test]
    fn attrib_flag_enables_collection_without_a_stream_file() {
        let s = ObsSink::from_args(&parse(&["bin", "--attrib"]), "t");
        assert!(s.is_enabled());
        assert!(s.handle().attrib_enabled());
        s.finish(); // still no file to write
    }

    #[test]
    fn obs_out_alone_keeps_attribution_off() {
        let path = scratch_path("y.jsonl");
        let s = ObsSink::from_args(&parse(&["bin", "--obs-out", &path]), "t");
        assert!(s.is_enabled());
        assert!(!s.handle().attrib_enabled());
        std::fs::remove_file(&path).expect("remove scratch stream");
    }
}
