//! Shared plumbing for the experiment-regenerator binaries: flag
//! parsing ([`Args`]) and the `--obs-*` sink ([`obs`]). The 13 binaries
//! in `src/bin/` and what each reproduces are listed in the repository
//! README ("Reproducing the paper's evaluation" and "Looking inside a
//! run"); each prints its flags with `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
pub mod obs_report;

use mosaic_core::iceberg::config::PAPER_D_CHOICES;
use mosaic_core::mmu::Associativity;

/// A malformed command-line flag, reported instead of a panic so the
/// binaries can print a usage-style diagnostic and exit with a status
/// code rather than a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that expects a number got something else.
    NotANumber {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The value that failed to parse.
        value: String,
    },
    /// `--jobs 0` — there is no such thing as a zero-thread sweep.
    ZeroJobs,
    /// `--buckets N` below the paper geometry's backyard choices: `d`
    /// distinct buckets must exist to choose among.
    TooFewBuckets(u64),
    /// `--obs-format` other than `jsonl` or `trace`.
    ObsFormat(String),
    /// `--obs-out` names a file that cannot be created.
    ObsOut {
        /// The path as given.
        path: String,
        /// Why creating it failed.
        error: String,
    },
    /// `--entries N` that is zero or that some swept associativity
    /// cannot divide into whole sets.
    BadEntries {
        /// The entry count given.
        entries: usize,
        /// The way count it must be a multiple of.
        ways: usize,
        /// The associativity that needs it, as displayed.
        assoc: String,
    },
    /// A flag the binary does not read (it would otherwise be ignored
    /// silently).
    UnknownFlag {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The flags the binary reads, without `--`.
        accepted: Vec<String>,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::NotANumber { flag, value } => {
                write!(f, "--{flag} expects a number, got {value:?}")
            }
            ArgsError::ZeroJobs => {
                write!(f, "--jobs must be at least 1 (use 1 for the serial engine)")
            }
            ArgsError::TooFewBuckets(n) => write!(
                f,
                "--buckets must be at least {PAPER_D_CHOICES} (one per backyard choice), got {n}"
            ),
            ArgsError::ObsFormat(value) => {
                write!(f, "--obs-format expects jsonl|trace, got {value:?}")
            }
            ArgsError::ObsOut { path, error } => write!(f, "--obs-out {path}: {error}"),
            ArgsError::BadEntries {
                entries,
                ways,
                assoc,
            } => write!(f, "--entries {entries} must be a positive multiple of {ways} ({assoc})"),
            ArgsError::UnknownFlag { flag, accepted } => {
                write!(f, "unknown flag --{flag}; this binary takes")?;
                for name in accepted {
                    write!(f, " --{name}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// Prints a usage error as `error: …` and exits 2.
fn exit_usage(e: &ArgsError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// The shared `--jobs` paragraph appended to every binary's `--help`.
pub const JOBS_HELP: &str = "\
  --jobs N      Worker threads for the sweep (default 1). The grid is split
                into independent cells, each replaying a shared recorded
                trace; results and observability are merged back in serial
                order, so output bytes are identical at every N.
  --help        Print this help and exit.";

/// A minimal flag parser: `--name value` pairs plus positional arguments.
///
/// # Example
///
/// ```
/// use mosaic_bench::Args;
///
/// let a = Args::parse(["prog", "btree", "--scale", "2"].iter().map(|s| s.to_string()));
/// assert_eq!(a.positional(), ["btree"]);
/// assert_eq!(a.get_u64("scale", 1), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses an iterator of arguments (the first is skipped as `argv[0]`).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let _argv0 = args.next();
        let mut out = Args::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(name) = a.strip_prefix("--") {
                // A following `--token` is the next flag, not this one's
                // value, so boolean flags compose in any position
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

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--name` as a `u64`, or `default` — for binaries:
    /// a malformed value prints the [`Args::try_get_u64`] error and
    /// exits 2.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.try_get_u64(name, default)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// The value of `--name` as a `u64`, or `default` — with a typed
    /// error instead of a panic when the value is not a number.
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] if the flag is present but malformed.
    pub fn try_get_u64(&self, name: &str, default: u64) -> Result<u64, ArgsError> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(Ok(default), |(_, v)| {
                v.parse().map_err(|_| ArgsError::NotANumber {
                    flag: name.to_string(),
                    value: v.clone(),
                })
            })
    }

    /// The validated `--jobs` value (default 1).
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] for non-numeric values and
    /// [`ArgsError::ZeroJobs`] for `--jobs 0`.
    pub fn jobs(&self) -> Result<usize, ArgsError> {
        match self.try_get_u64("jobs", 1)? {
            0 => Err(ArgsError::ZeroJobs),
            n => Ok(n as usize),
        }
    }

    /// [`Args::jobs`] for binaries: prints the error and exits 2.
    pub fn jobs_or_exit(&self) -> usize {
        self.jobs().unwrap_or_else(|e| exit_usage(&e))
    }

    /// The validated `--buckets` value (Iceberg buckets of 64 frames).
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] for non-numeric values and
    /// [`ArgsError::TooFewBuckets`] below [`PAPER_D_CHOICES`].
    pub fn buckets(&self, default: usize) -> Result<usize, ArgsError> {
        match self.try_get_u64("buckets", default as u64)? {
            n if n < PAPER_D_CHOICES as u64 => Err(ArgsError::TooFewBuckets(n)),
            n => Ok(n as usize),
        }
    }

    /// [`Args::buckets`] for binaries: prints the error and exits 2.
    pub fn buckets_or_exit(&self, default: usize) -> usize {
        self.buckets(default).unwrap_or_else(|e| exit_usage(&e))
    }

    /// `--entries N` (default `default`) for a TLB grid over
    /// `associativities`.
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] for a non-numeric value;
    /// [`ArgsError::BadEntries`] when it is zero or some associativity
    /// cannot divide it into whole sets.
    pub fn entries(
        &self,
        default: usize,
        associativities: &[Associativity],
    ) -> Result<usize, ArgsError> {
        let entries = self.try_get_u64("entries", default as u64)? as usize;
        for &assoc in associativities {
            let ways = assoc.ways(entries);
            if entries == 0 || !entries.is_multiple_of(ways) {
                return Err(ArgsError::BadEntries {
                    entries,
                    ways,
                    assoc: assoc.to_string(),
                });
            }
        }
        Ok(entries)
    }

    /// [`Args::entries`] for binaries: prints the error and exits 2.
    pub fn entries_or_exit(&self, default: usize, associativities: &[Associativity]) -> usize {
        self.entries(default, associativities)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// Prints `usage` and exits 0 when `--help` was passed; otherwise
    /// does nothing. Parallel binaries append [`JOBS_HELP`] to their
    /// usage text; serial ones state that they run single-threaded.
    pub fn maybe_help(&self, usage: &str) {
        if self.has("help") {
            println!("{usage}");
            std::process::exit(0);
        }
    }

    /// The value of `--name` as a string, if the flag was passed.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `--name` was passed at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Checks that every flag passed is one of `accepted` (names without
    /// `--`; `help` is always accepted).
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownFlag`] for the first flag not in `accepted`.
    pub fn only(&self, accepted: &[&str]) -> Result<(), ArgsError> {
        match self
            .flags
            .iter()
            .find(|(n, _)| n != "help" && !accepted.contains(&n.as_str()))
        {
            Some((flag, _)) => Err(ArgsError::UnknownFlag {
                flag: flag.clone(),
                accepted: accepted.iter().map(|a| a.to_string()).collect(),
            }),
            None => Ok(()),
        }
    }

    /// [`Args::only`] for binaries: prints the error and exits 2.
    pub fn only_or_exit(&self, accepted: &[&str]) {
        self.only(accepted).unwrap_or_else(|e| exit_usage(&e));
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
        let a = parse(&["bin", "all", "--scale", "3", "--entries", "512"]);
        assert_eq!(a.positional(), ["all"]);
        assert_eq!(a.get_u64("scale", 1), 3);
        assert_eq!(a.get_u64("entries", 1024), 512);
        assert_eq!(a.get_u64("missing", 7), 7);
    }

    #[test]
    fn has_flag() {
        let a = parse(&["bin", "--csv", ""]);
        assert!(a.has("csv"));
        assert!(!a.has("json"));
    }

    #[test]
    fn last_flag_wins() {
        let a = parse(&["bin", "--n", "1", "--n", "2"]);
        assert_eq!(a.get_u64("n", 0), 2);
    }

    #[test]
    fn jobs_defaults_to_one() {
        assert_eq!(parse(&["bin"]).jobs(), Ok(1));
    }

    #[test]
    fn jobs_parses_a_count() {
        assert_eq!(parse(&["bin", "--jobs", "8"]).jobs(), Ok(8));
    }

    #[test]
    fn jobs_rejects_zero_with_typed_error() {
        assert_eq!(parse(&["bin", "--jobs", "0"]).jobs(), Err(ArgsError::ZeroJobs));
    }

    #[test]
    fn jobs_rejects_non_numeric_with_typed_error() {
        let err = parse(&["bin", "--jobs", "many"]).jobs().unwrap_err();
        assert_eq!(
            err,
            ArgsError::NotANumber {
                flag: "jobs".into(),
                value: "many".into(),
            }
        );
        assert!(err.to_string().contains("expects a number"));
    }

    #[test]
    fn buckets_below_the_backyard_choices_are_a_typed_error() {
        assert_eq!(parse(&["bin"]).buckets(64), Ok(64));
        assert_eq!(parse(&["bin", "--buckets", "6"]).buckets(64), Ok(6));
        let err = parse(&["bin", "--buckets", "0"]).buckets(64).unwrap_err();
        assert_eq!(err, ArgsError::TooFewBuckets(0));
        assert!(err.to_string().starts_with("--buckets must be at least 6"));
    }

    #[test]
    fn try_get_u64_returns_error_not_panic() {
        let a = parse(&["bin", "--scale", "abc"]);
        assert!(a.try_get_u64("scale", 0).is_err());
        assert_eq!(a.try_get_u64("missing", 7), Ok(7));
    }

    #[test]
    fn only_rejects_flags_outside_the_accepted_set() {
        let a = parse(&["bin", "--ways", "4", "--help", "--obs-out", "f.jsonl"]);
        assert_eq!(a.only(&["ways", "obs-out"]), Ok(()));
        let err = a.only(&["ways", "cache-kib"]).unwrap_err();
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
    }

    #[test]
    fn entries_must_split_into_whole_sets() {
        let sweep = Associativity::FIGURE6_SWEEP;
        assert_eq!(parse(&["bin"]).entries(1024, &sweep), Ok(1024));
        assert_eq!(parse(&["bin", "--entries", "64"]).entries(1024, &sweep), Ok(64));
        let err = parse(&["bin", "--entries", "1028"]).entries(1024, &sweep).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--entries 1028 must be a positive multiple of 8 (8-Way)"
        );
        assert!(matches!(
            parse(&["bin", "--entries", "0"]).entries(1024, &sweep),
            Err(ArgsError::BadEntries { entries: 0, .. })
        ));
        assert!(matches!(
            parse(&["bin", "--entries", "x"]).entries(1024, &sweep),
            Err(ArgsError::NotANumber { .. })
        ));
    }

    #[test]
    fn boolean_flag_does_not_swallow_next_flag() {
        let a = parse(&["bin", "--no-kernel", "--obs-out", "run.jsonl", "--csv"]);
        assert!(a.has("no-kernel"));
        assert!(a.has("csv"));
        assert_eq!(a.get_str("obs-out"), Some("run.jsonl"));
    }
}
