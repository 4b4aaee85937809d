//! Shared `--obs-*` plumbing for the experiment binaries: [`Args::obs`]
//! reads the same four flags in every binary that exports a stream.
//!
//! Without `--obs-out` (or `--attrib`) collection is fully disabled
//! ([`mosaic_obs::ObsHandle::noop`]) and the binary's stdout is
//! byte-identical to an uninstrumented build. `--attrib` adds the
//! `{"t":"attrib",...}` records only under that flag, keeping
//! `--obs-out`-only outputs byte-identical to earlier releases.

use crate::{Args, ArgsError};
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

impl Args {
    /// Reads `--obs-out`, `--obs-interval`, `--obs-format` and `--attrib`
    /// into the run's sink; `bin` is stamped into the stream's leading
    /// `meta` record. [`Args::finish`] creates the `--obs-out` file.
    pub fn obs(&mut self, bin: &str) -> ObsSink {
        let out = self.text(
            "obs-out",
            "F",
            "collect counters, gauges and events and write them to F (render JSONL with \
             obs_report)",
        );
        let interval = self.u64(
            "obs-interval",
            0,
            0,
            "snapshot the stream every N simulated references (0: only at the end of each run)",
        );
        let format = match self.text("obs-format", "jsonl|trace", "format of F (default jsonl)") {
            Some(f) if f == "trace" => ObsFormat::Trace,
            Some(f) if f != "jsonl" => {
                let (flag, expected) = ("obs-format".into(), "jsonl|trace".into());
                self.reject(ArgsError::BadValue {
                    flag,
                    value: f,
                    expected,
                });
                ObsFormat::Jsonl
            }
            _ => ObsFormat::Jsonl,
        };
        let help = "also collect 3C miss and fault-blame attribution tables";
        let attrib = self.switch("attrib", help);
        self.obs_out.clone_from(&out);
        let handle = if out.is_some() || attrib {
            let h = ObsHandle::enabled();
            h.set_attrib(attrib);
            h.meta(&[("bin", Value::from(bin))]);
            h
        } else {
            ObsHandle::noop()
        };
        ObsSink {
            handle,
            out,
            interval,
            format,
        }
    }
}

impl ObsSink {
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

    /// The sink a binary builds from `items`.
    fn sink(items: &[&str]) -> ObsSink {
        let mut args = Args::parse(items.iter().map(|s| s.to_string()));
        let sink = args.obs("t");
        args.finish("A test binary.");
        sink
    }

    #[test]
    fn disabled_without_flag() {
        let s = sink(&["bin"]);
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
        let s = sink(&["bin", "--obs-out", &path, "--obs-interval", "512"]);
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
        let s = sink(&["bin", "--attrib"]);
        assert!(s.is_enabled());
        assert!(s.handle().attrib_enabled());
        s.finish(); // still no file to write
    }

    #[test]
    fn obs_out_alone_keeps_attribution_off() {
        let path = scratch_path("y.jsonl");
        let s = sink(&["bin", "--obs-out", &path]);
        assert!(s.is_enabled());
        assert!(!s.handle().attrib_enabled());
        std::fs::remove_file(&path).expect("remove scratch stream");
    }
}
