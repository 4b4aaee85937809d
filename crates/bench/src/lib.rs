//! Shared plumbing for the experiment-regenerator binaries: the
//! command-line front-end ([`Args`]) and the `--obs-*` sink ([`obs`]).
//! The 13 binaries in `src/bin/` and what each reproduces are listed in
//! the repository README ("Reproducing the paper's evaluation" and
//! "Looking inside a run"); each prints its flags with `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
pub mod obs_report;

use mosaic_core::iceberg::config::PAPER_D_CHOICES;
use mosaic_core::mmu::Associativity;
use mosaic_core::sim::fig6::DEFAULT_BATCH;
use mosaic_core::sim::report::Table;

/// A malformed command line, reported instead of a panic so the
/// binaries can print a usage-style diagnostic and exit 2 rather than
/// a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag got a value of the wrong kind.
    BadValue {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The value as given.
        value: String,
        /// What the flag takes: "a number", "jsonl|trace", "no value", …
        expected: String,
    },
    /// A numeric flag outside its declared range.
    OutOfRange {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The value as given.
        value: u64,
        /// The bound it broke: "at least 1", "at most 1000000", …
        bound: String,
    },
    /// A flag the binary does not read (it would otherwise be ignored
    /// silently).
    UnknownFlag {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The flags the binary reads, without `--`.
        accepted: Vec<String>,
    },
    /// Any other problem, in the binary's words: a value the experiment
    /// cannot run, an unknown positional argument, an uncreatable
    /// `--obs-out` file.
    Usage(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} expects {expected}, got {value:?}")
            }
            ArgsError::OutOfRange { flag, value, bound } => {
                write!(f, "--{flag} must be {bound}, got {value}")
            }
            ArgsError::UnknownFlag { flag, accepted } => {
                write!(
                    f,
                    "unknown flag --{flag}; this binary takes --{}",
                    accepted.join(" --")
                )
            }
            ArgsError::Usage(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Prints a usage error as `error: …` and exits 2.
fn exit_usage(e: &ArgsError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Help lines are wrapped to this many columns.
const HELP_WIDTH: usize = 78;

/// The command-line front-end of the experiment binaries.
///
/// Reading a flag declares it: every getter records the flag's name,
/// default and one-line help, checks the value, and returns it (or the
/// default, if the value is bad). After the last read, [`Args::finish`]
/// prints the generated `--help` and exits 0, or reports the first
/// problem — a flag no getter read, a positional argument no getter
/// took, a bad value — and exits 2. A binary calls it before any
/// output; it creates the `--obs-out` file last.
///
/// # Example
///
/// ```
/// use mosaic_bench::Args;
///
/// let mut a = Args::parse(["prog", "btree", "--scale", "2"].iter().map(|s| s.to_string()));
/// assert_eq!(a.positional("WORKLOAD", "workload to run").as_deref(), Some("btree"));
/// assert_eq!(a.u32("scale", 1, 0, "workload size"), 2);
/// assert!(a.check().is_ok());
/// assert!(a.help("About.").contains("--scale N"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    program: String,
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    /// (flag name without `--`, empty for a positional; `--help` left
    /// column; right column), in read order.
    declared: Vec<(String, String, String)>,
    positionals_read: usize,
    errors: Vec<ArgsError>,
    /// Set by [`Args::obs`]; [`Args::finish`] creates it.
    obs_out: Option<String>,
}

impl Args {
    /// Parses an iterator of arguments; the first is `argv[0]`, whose
    /// file name titles `--help`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let argv0 = args.next().unwrap_or_default();
        let program = argv0.rsplit('/').next().unwrap_or_default().to_string();
        let mut out = Args {
            program,
            ..Args::default()
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(name) = a.strip_prefix("--") {
                // A following `--token` is the next flag, not this one's
                // value, so switches compose in any position
                // (`--no-kernel --obs-out F`).
                let value = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().unwrap_or_default(),
                    _ => String::new(),
                };
                out.flags.push((name.to_string(), value));
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Parses the real process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args())
    }

    /// `--name ARG` as text, if passed; `arg` names the value in
    /// `--help` (empty for a switch).
    pub fn text(&mut self, name: &str, arg: &str, help: &str) -> Option<String> {
        if !self.declared.iter().any(|(flag, ..)| flag == name) {
            let usage = format!("--{name} {arg}").trim_end().to_string();
            self.declared
                .push((name.to_string(), usage, help.to_string()));
        }
        let last = self.flags.iter().rev().find(|(n, _)| n == name);
        last.map(|(_, v)| v.clone())
    }

    /// Records a usage error for [`Args::finish`] to report: for the
    /// checks a binary makes on values the getters already read.
    pub fn reject(&mut self, e: ArgsError) {
        self.errors.push(e);
    }

    /// A numeric flag in `min..=max`, or `default` when absent or bad.
    fn number(&mut self, name: &str, default: u64, min: u64, max: u64, help: &str) -> u64 {
        let bound = if min > 0 {
            format!(", at least {min}")
        } else {
            String::new()
        };
        let Some(text) = self.text(name, "N", &format!("{help} (default {default}{bound})")) else {
            return default;
        };
        let flag = name.to_string();
        let error = match text.parse::<u64>() {
            Ok(value) if (min..=max).contains(&value) => return value,
            Ok(value) if value < min => ArgsError::OutOfRange {
                flag,
                value,
                bound: format!("at least {min}"),
            },
            Ok(value) => ArgsError::OutOfRange {
                flag,
                value,
                bound: format!("at most {max}"),
            },
            Err(_) => ArgsError::BadValue {
                flag,
                value: text,
                expected: "a number".into(),
            },
        };
        self.reject(error);
        default
    }

    /// `--name N` as a `u64` of at least `min` (default `default`).
    pub fn u64(&mut self, name: &str, default: u64, min: u64, help: &str) -> u64 {
        self.number(name, default, min, u64::MAX, help)
    }

    /// `--name N` as a `u32` of at least `min`; a value above
    /// `u32::MAX` is an error, not a wrap.
    pub fn u32(&mut self, name: &str, default: u32, min: u32, help: &str) -> u32 {
        let n = self.number(name, default.into(), min.into(), u32::MAX.into(), help);
        u32::try_from(n).unwrap_or(default)
    }

    /// `--name N` as a `usize` of at least `min`.
    pub fn usize(&mut self, name: &str, default: usize, min: usize, help: &str) -> usize {
        let n = self.number(name, default as u64, min as u64, usize::MAX as u64, help);
        usize::try_from(n).unwrap_or(default)
    }

    /// Whether the switch `--name` was passed. A value after it (say
    /// `--csv gups`) is an error, not a silently swallowed argument.
    pub fn switch(&mut self, name: &str, help: &str) -> bool {
        let value = self.text(name, "", help);
        if let Some(v) = value.as_ref().filter(|v| !v.is_empty()) {
            let (flag, value) = (name.to_string(), v.clone());
            self.reject(ArgsError::BadValue {
                flag,
                value,
                expected: "no value".into(),
            });
        }
        value.is_some()
    }

    /// The next positional argument, if given; `name` labels it in
    /// `--help`.
    pub fn positional(&mut self, name: &str, help: &str) -> Option<String> {
        self.declared
            .push((String::new(), name.to_string(), help.to_string()));
        self.positionals_read += 1;
        self.positional.get(self.positionals_read - 1).cloned()
    }

    /// `--jobs N`, the worker threads of a sweep (default 1). `help`
    /// says what runs in parallel and what stays identical at every N.
    pub fn jobs(&mut self, help: &str) -> usize {
        self.usize("jobs", 1, 1, &format!("worker threads: {help}"))
    }

    /// `--batch N`, the chunk size of the step engine's drive loop.
    pub fn batch(&mut self) -> usize {
        let help = "accesses per simulator batch (0 acts as 1); changes only speed: stdout and \
                    --obs-out are byte-identical at every value";
        self.usize("batch", DEFAULT_BATCH, 0, help)
    }

    /// `--seed S`, the base seed of the simulated system.
    pub fn seed(&mut self, default: u64) -> u64 {
        let help = "base seed of the run's hash keys and schedules; a seed reproduces its output";
        self.u64("seed", default, 0, help)
    }

    /// `--buckets N`, memory size in Iceberg buckets of 64 frames: at
    /// least [`PAPER_D_CHOICES`], one bucket per backyard choice.
    pub fn buckets(&mut self, default: usize) -> usize {
        let help = "memory size in Iceberg buckets of 64 frames";
        self.usize("buckets", default, PAPER_D_CHOICES, help)
    }

    /// `--fault-ppm N`, the fault-injection rate in parts per million
    /// (0, the default, injects nothing).
    pub fn fault_ppm(&mut self) -> u32 {
        let help = "inject allocation failures, swap-I/O error bursts and ToC bit-flips, each at \
                    N parts per million (at most 1000000; 0 is off)";
        let n = self.number("fault-ppm", 0, 0, 1_000_000, help);
        u32::try_from(n).unwrap_or(0)
    }

    /// `--entries N` (default `default`, at least 1) for a TLB grid over
    /// `assocs`: a count some associativity cannot divide into whole
    /// sets is an error.
    pub fn entries(&mut self, default: usize, assocs: &[Associativity], help: &str) -> usize {
        let entries = self.usize("entries", default, 1, help);
        for &assoc in assocs {
            let ways = assoc.ways(entries);
            if !entries.is_multiple_of(ways) {
                let need = format!("a positive multiple of {ways} ({assoc})");
                self.reject(ArgsError::Usage(format!(
                    "--entries {entries} must be {need}"
                )));
                return default;
            }
        }
        entries
    }

    /// `--csv`: how [`Printer::print`] renders tables.
    pub fn printer(&mut self) -> Printer {
        Printer(self.switch("csv", "print the result tables as CSV"))
    }

    /// The generated `--help`: a usage line, `about`, and one wrapped
    /// line per argument read so far.
    pub fn help(&self, about: &str) -> String {
        let help = (
            "help".into(),
            "--help".into(),
            "print this help and exit".into(),
        );
        let lines: Vec<&(String, String, String)> = self.declared.iter().chain([&help]).collect();
        let col = lines
            .iter()
            .map(|(_, usage, _)| usage.len())
            .max()
            .unwrap_or(0)
            + 4;
        let positionals: String = lines
            .iter()
            .filter(|(flag, ..)| flag.is_empty())
            .map(|(_, usage, _)| format!(" [{usage}]"))
            .collect();
        let mut out = format!(
            "Usage: {}{positionals} [FLAGS]\n\n{about}\n\n",
            self.program
        );
        for (_, usage, text) in lines {
            let mut line = format!("  {usage:<w$}", w = col - 2);
            for word in text.split_whitespace() {
                if line.len() > col {
                    if line.len() + 1 + word.len() > HELP_WIDTH {
                        out.push_str(&line);
                        out.push('\n');
                        line = " ".repeat(col);
                    } else {
                        line.push(' ');
                    }
                }
                line.push_str(word);
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The first problem with the command line: a flag no getter read,
    /// then a positional argument no getter took, then the first bad
    /// value in read order.
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownFlag`], an [`ArgsError::Usage`] naming the
    /// extra argument, or the first error a getter or [`Args::reject`]
    /// recorded.
    pub fn check(&self) -> Result<(), ArgsError> {
        let accepted: Vec<String> = self
            .declared
            .iter()
            .filter(|(flag, ..)| !flag.is_empty())
            .map(|(flag, ..)| flag.clone())
            .collect();
        let unread = self
            .flags
            .iter()
            .find(|(n, _)| n != "help" && !accepted.contains(n));
        if let Some((flag, _)) = unread {
            return Err(ArgsError::UnknownFlag {
                flag: flag.clone(),
                accepted,
            });
        }
        if let Some(extra) = self.positional.get(self.positionals_read) {
            return Err(ArgsError::Usage(format!("unexpected argument {extra:?}")));
        }
        self.errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// Ends the reads: prints the generated `--help` and exits 0 when
    /// `--help` was passed, or prints the [`Args::check`] error and
    /// exits 2. Then creates the `--obs-out` file, if any, so an
    /// uncreatable path also exits 2 before any work. `about` is the
    /// binary's description.
    pub fn finish(self, about: &str) {
        if self.flags.iter().any(|(n, _)| n == "help") {
            print!("{}", self.help(about));
            std::process::exit(0);
        }
        if let Err(e) = self.check() {
            exit_usage(&e);
        }
        if let Some(path) = &self.obs_out {
            if let Err(e) = std::fs::File::create(path) {
                exit_usage(&ArgsError::Usage(format!("--obs-out {path}: {e}")));
            }
        }
    }
}

/// Prints result tables as aligned text, or as CSV under `--csv`.
#[derive(Debug, Clone, Copy)]
pub struct Printer(bool);

impl Printer {
    /// Prints `table` and a newline to stdout.
    pub fn print(self, table: &Table) {
        let text = if self.0 {
            table.render_csv()
        } else {
            table.render()
        };
        println!("{text}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::parse(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_and_flags() {
        let mut a = parse(&["bin", "all", "--scale", "3", "--entries", "512"]);
        assert_eq!(a.positional("WORKLOAD", "w").as_deref(), Some("all"));
        assert_eq!(a.u32("scale", 1, 0, "s"), 3);
        assert_eq!(a.usize("entries", 1024, 1, "e"), 512);
        assert_eq!(a.u64("missing", 7, 0, "m"), 7);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn has_flag() {
        let mut a = parse(&["bin", "--csv", ""]);
        assert!(a.switch("csv", "c"));
        assert!(!a.switch("json", "j"));
        let mut b = parse(&["bin", "--csv", "gups"]);
        assert!(b.switch("csv", "c"));
        assert_eq!(
            b.check().unwrap_err().to_string(),
            "--csv expects no value, got \"gups\""
        );
    }

    #[test]
    fn last_flag_wins() {
        let mut a = parse(&["bin", "--n", "1", "--n", "2"]);
        assert_eq!(a.u64("n", 0, 0, "n"), 2);
    }

    #[test]
    fn jobs_defaults_to_one() {
        assert_eq!(parse(&["bin"]).jobs("cells"), 1);
    }

    #[test]
    fn jobs_parses_a_count() {
        assert_eq!(parse(&["bin", "--jobs", "8"]).jobs("cells"), 8);
    }

    #[test]
    fn jobs_rejects_zero_with_typed_error() {
        let mut a = parse(&["bin", "--jobs", "0"]);
        assert_eq!(a.jobs("cells"), 1);
        let err = a.check().unwrap_err();
        assert_eq!(
            err,
            ArgsError::OutOfRange {
                flag: "jobs".into(),
                value: 0,
                bound: "at least 1".into(),
            }
        );
        assert_eq!(err.to_string(), "--jobs must be at least 1, got 0");
    }

    #[test]
    fn jobs_rejects_non_numeric_with_typed_error() {
        let mut a = parse(&["bin", "--jobs", "many"]);
        a.jobs("cells");
        let err = a.check().unwrap_err();
        assert_eq!(
            err,
            ArgsError::BadValue {
                flag: "jobs".into(),
                value: "many".into(),
                expected: "a number".into(),
            }
        );
        assert_eq!(err.to_string(), "--jobs expects a number, got \"many\"");
    }

    #[test]
    fn buckets_below_the_backyard_choices_are_a_typed_error() {
        assert_eq!(parse(&["bin"]).buckets(64), 64);
        assert_eq!(parse(&["bin", "--buckets", "6"]).buckets(64), 6);
        let mut a = parse(&["bin", "--buckets", "0"]);
        a.buckets(64);
        let err = a.check().unwrap_err();
        assert!(matches!(
            err,
            ArgsError::OutOfRange { value: 0, ref bound, .. } if bound == "at least 6"
        ));
        assert!(err.to_string().starts_with("--buckets must be at least 6"));
    }

    #[test]
    fn try_get_u64_returns_error_not_panic() {
        let mut a = parse(&["bin", "--scale", "abc"]);
        assert_eq!(a.u64("scale", 0, 0, "s"), 0);
        assert_eq!(a.u64("missing", 7, 0, "m"), 7);
        assert!(a.check().is_err());
    }

    #[test]
    fn narrowing_conversions_are_checked() {
        let mut a = parse(&["bin", "--scale", "4294967296", "--fault-ppm", "1000001"]);
        assert_eq!(a.u32("scale", 1, 0, "s"), 1);
        assert_eq!(a.fault_ppm(), 0);
        assert_eq!(
            a.errors.iter().map(ToString::to_string).collect::<Vec<_>>(),
            [
                "--scale must be at most 4294967295, got 4294967296",
                "--fault-ppm must be at most 1000000, got 1000001",
            ]
        );
        assert_eq!(
            parse(&["bin", "--fault-ppm", "1000000"]).fault_ppm(),
            1_000_000
        );
    }

    #[test]
    fn finish_rejects_flags_the_binary_did_not_read() {
        let mut a = parse(&["bin", "--ways", "4", "--help", "--obs-out", "f.jsonl"]);
        a.usize("ways", 8, 1, "w");
        a.usize("cache-kib", 512, 4, "c");
        let err = a.check().unwrap_err();
        assert_eq!(
            err,
            ArgsError::UnknownFlag {
                flag: "obs-out".into(),
                accepted: vec!["ways".into(), "cache-kib".into()],
            }
        );
        assert_eq!(
            err.to_string(),
            "unknown flag --obs-out; this binary takes --ways --cache-kib"
        );
        a.text("obs-out", "F", "o");
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn unread_positionals_are_rejected() {
        let mut a = parse(&["bin", "gups", "extra"]);
        a.positional("WORKLOAD", "w");
        assert_eq!(
            a.check().unwrap_err().to_string(),
            "unexpected argument \"extra\""
        );
    }

    #[test]
    fn help_lists_every_read_with_its_default() {
        let mut a = parse(&["/path/to/fig6", "--help"]);
        a.positional("WORKLOAD", "which workload");
        a.u32("scale", 1, 0, "workload size");
        a.usize("ways", 8, 1, "ways");
        a.switch("csv", "print CSV");
        let long = "snapshot the stream every N simulated references (0: only at the end of \
                    each run)";
        a.u64("obs-interval", 0, 0, long);
        assert_eq!(
            a.help("Regenerates things."),
            "\
Usage: fig6 [WORKLOAD] [FLAGS]

Regenerates things.

  WORKLOAD          which workload
  --scale N         workload size (default 1)
  --ways N          ways (default 8, at least 1)
  --csv             print CSV
  --obs-interval N  snapshot the stream every N simulated references (0: only
                    at the end of each run) (default 0)
  --help            print this help and exit
"
        );
    }

    #[test]
    fn entries_must_split_into_whole_sets() {
        let sweep = Associativity::FIGURE6_SWEEP;
        let entries = |argv: &[&str]| {
            let mut a = parse(argv);
            (a.entries(1024, &sweep, "e"), a.check())
        };
        assert_eq!(entries(&["bin"]), (1024, Ok(())));
        assert_eq!(entries(&["bin", "--entries", "64"]), (64, Ok(())));
        let (_, err) = entries(&["bin", "--entries", "1028"]);
        assert_eq!(
            err.unwrap_err().to_string(),
            "--entries 1028 must be a positive multiple of 8 (8-Way)"
        );
        assert_eq!(
            entries(&["bin", "--entries", "0"])
                .1
                .unwrap_err()
                .to_string(),
            "--entries must be at least 1, got 0"
        );
        assert!(matches!(
            entries(&["bin", "--entries", "x"]).1,
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn boolean_flag_does_not_swallow_next_flag() {
        let mut a = parse(&["bin", "--no-kernel", "--obs-out", "run.jsonl", "--csv"]);
        assert!(a.switch("no-kernel", "k"));
        assert!(a.switch("csv", "c"));
        assert_eq!(a.text("obs-out", "F", "o").as_deref(), Some("run.jsonl"));
        assert_eq!(a.check(), Ok(()));
    }
}
