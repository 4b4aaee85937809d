//! Renders a `--obs-out` JSONL stream into a per-interval text report:
//! miss-rate curves, Iceberg-load/utilization curves, probe-length
//! histograms, and the fault-event timeline.
//! `obs_report --help` lists its arguments.
//!
//! The report is deterministic: the same input file renders to the same
//! bytes, so fixed-seed runs can be diffed end to end.

use mosaic_bench::obs_report::{parse_stream, render_report, ObsStream};
use mosaic_bench::{Args, ArgsError};

const ABOUT: &str = "Renders a --obs-out JSONL stream into a deterministic text report.";

/// The stream at `path`, or why it cannot be rendered.
fn read(path: Option<&str>) -> Result<ObsStream, String> {
    let path = path.ok_or("missing argument <run.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_stream(&text).map_err(|e| format!("{path} is not a mosaic-obs JSONL stream: {e}"))
}

fn main() {
    let mut args = Args::from_env();
    let path = args.positional("run.jsonl", "the --obs-out stream to render (required)");
    let stream = read(path.as_deref()).map_err(|e| args.reject(ArgsError::Usage(e)));
    args.finish(ABOUT);
    if let Ok(stream) = stream {
        print!("{}", render_report(&stream));
    }
}
