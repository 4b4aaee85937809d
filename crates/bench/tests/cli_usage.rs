//! Usage errors in the sweep binaries: a bad flag value prints
//! `error: …` and exits 2 instead of panicking.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn entries_no_swept_associativity_divides_is_a_usage_error() {
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let attrib = env!("CARGO_BIN_EXE_attrib");
    for (bin, args) in [
        (fig6, &["gups", "--scale", "0", "--entries", "0"][..]),
        (fig6, &["gups", "--scale", "0", "--entries", "3"][..]),
        (fig6, &["gups", "--scale", "0", "--entries", "1028"][..]),
        (attrib, &["--entries", "1058"][..]),
        (attrib, &["--entries", "0"][..]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --entries"),
            "{bin} {args:?}: {stderr}"
        );
    }
}

#[test]
fn non_numeric_flag_values_are_usage_errors() {
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_table4"),
            &["--buckets", "abc"][..],
            "buckets",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--scale", "abc"][..],
            "scale",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["gups", "--batch", "abc"][..],
            "batch",
        ),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: --{flag} expects a number, got \"abc\""),
            "{bin} {args:?}"
        );
    }
}

#[test]
fn zero_buckets_is_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_tenants"),
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_attrib"),
    ] {
        let (code, stderr) = run(bin, &["--buckets", "0"]);
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(stderr.starts_with("error: --buckets"), "{bin}: {stderr}");
    }
}

#[test]
fn unknown_obs_format_is_a_usage_error() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_table2"),
        &["--scale", "0", "--obs-format", "xml"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: --obs-format expects jsonl|trace, got \"xml\""
    );
}

#[test]
fn unwritable_obs_out_is_a_usage_error_before_any_output() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-dir/x.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--scale", "0", "--obs-out", path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: --obs-out {path}: ")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the table ran before the error");
}

#[test]
fn flags_a_serial_bin_does_not_read_are_usage_errors() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/unread-flag.jsonl");
    for bin in [
        env!("CARGO_BIN_EXE_coloring"),
        env!("CARGO_BIN_EXE_locality"),
        env!("CARGO_BIN_EXE_fragmentation"),
    ] {
        let out = Command::new(bin)
            .args(["--obs-out", path])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.starts_with("error: unknown flag --obs-out; this binary takes --"),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran before the error");
        assert!(!std::path::Path::new(path).exists(), "{bin} wrote {path}");
    }
}

#[test]
fn unknown_fig6_workload_is_a_usage_error_before_any_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(["foo", "--scale", "0"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: unknown workload \"foo\"; expected graph500|btree|gups|xsbench|all"
    );
    assert!(out.stdout.is_empty(), "fig6 printed tables before the error");
}

#[test]
fn flags_a_grid_bin_does_not_read_are_usage_errors() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig6"), &["gups", "--scale", "0", "--bogus-flag", "1"][..]),
        (env!("CARGO_BIN_EXE_attrib"), &["--bogus-flag", "1"][..]),
        // `--batch` is fig6's alone: attrib runs its grid at the default.
        (env!("CARGO_BIN_EXE_attrib"), &["--batch", "1"][..]),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: unknown flag --") && stderr.contains("this binary takes"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran before the error");
    }
}

/// Every binary with the flags `scripts/check.sh` (or, for the ones it
/// does not run, the README) passes to it.
const BINARIES: [(&str, &[&str]); 13] = [
    (
        env!("CARGO_BIN_EXE_fig6"),
        &[
            "scale",
            "entries",
            "no-kernel",
            "attrib",
            "obs-out",
            "obs-interval",
            "jobs",
            "batch",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_attrib"),
        &["fault-ppm", "jobs", "obs-out", "obs-interval"],
    ),
    (env!("CARGO_BIN_EXE_table2"), &["scale", "csv", "obs-out"]),
    (
        env!("CARGO_BIN_EXE_table3"),
        &["jobs", "buckets", "obs-out", "obs-interval"],
    ),
    (
        env!("CARGO_BIN_EXE_table4"),
        &[
            "buckets",
            "batch",
            "jobs",
            "fault-ppm",
            "obs-out",
            "obs-interval",
        ],
    ),
    (env!("CARGO_BIN_EXE_table5"), &["jobs", "csv", "obs-out"]),
    (
        env!("CARGO_BIN_EXE_tenants"),
        &[
            "tenants",
            "buckets",
            "steps",
            "churn",
            "loads",
            "jobs",
            "fault-ppm",
            "obs-out",
            "obs-interval",
            "shared-traces",
            "concurrent-alloc",
            "hostile",
            "quota-frac",
            "priority-spread",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation"),
        &["buckets", "jobs", "obs-out", "obs-interval"],
    ),
    (
        env!("CARGO_BIN_EXE_walkcost"),
        &["keys", "lookups", "jobs", "obs-out"],
    ),
    (
        env!("CARGO_BIN_EXE_fragmentation"),
        &["keys", "lookups", "csv", "jobs"],
    ),
    (env!("CARGO_BIN_EXE_coloring"), &["cache-kib", "ways"]),
    (env!("CARGO_BIN_EXE_locality"), &["entries", "updates"]),
    (env!("CARGO_BIN_EXE_obs_report"), &[]),
];

#[test]
fn every_binary_rejects_unread_flags_and_generates_its_help() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/bogus-flag.jsonl");
    for (bin, flags) in BINARIES {
        let out = Command::new(bin)
            .args(["--obs-out", path, "--bogus-flag", "1"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.starts_with("error: unknown flag --") && stderr.contains("; this binary takes"),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} printed before the error");
        assert!(!std::path::Path::new(path).exists(), "{bin} wrote {path}");

        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("binary runs");
        let help = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        for flag in flags.iter().chain(&["help"]) {
            let line = format!("\n  --{flag} ");
            assert!(help.contains(&line), "{bin} --help lacks --{flag}:\n{help}");
        }
    }
    // `table2` reads no `--jobs`: it used to ignore it.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_table2"),
        &["--scale", "0", "--jobs", "4"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("error: unknown flag --jobs; this binary takes --scale"));
}

#[test]
fn numeric_flags_convert_without_wrapping() {
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let table2 = env!("CARGO_BIN_EXE_table2");
    let table4 = env!("CARGO_BIN_EXE_table4");
    let tenants = env!("CARGO_BIN_EXE_tenants");
    let attrib = env!("CARGO_BIN_EXE_attrib");
    const PPM_MAX: &str = "must be at most 1000000, got";
    const U32_MAX: &str = "must be at most 4294967295, got 4294967296";
    for (bin, args, error) in [
        (
            table4,
            &["--buckets", "8", "--fault-ppm", "4294967296"][..],
            PPM_MAX,
        ),
        (
            table4,
            &["--buckets", "8", "--fault-ppm", "1000001"][..],
            PPM_MAX,
        ),
        (tenants, &["--fault-ppm", "4294967296"][..], PPM_MAX),
        (attrib, &["--fault-ppm", "4294967296"][..], PPM_MAX),
        (fig6, &["gups", "--scale", "4294967296"][..], U32_MAX),
        (table2, &["--scale", "4294967296"][..], U32_MAX),
        (tenants, &["--hostile-mult", "4294967296"][..], U32_MAX),
        (tenants, &["--quota-frac", "4294967296"][..], U32_MAX),
        (tenants, &["--priority-spread", "4294967296"][..], U32_MAX),
        (
            fig6,
            &["gups", "--scale", "18446744073709551616"][..],
            "expects a number",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().rev().nth(1).expect("a flag and its value");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag} {error}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} printed before the error"
        );
    }
}

/// Values that used to panic (exit 101) in a library assert or a read.
#[test]
fn values_the_simulators_cannot_take_are_usage_errors() {
    let coloring = env!("CARGO_BIN_EXE_coloring");
    let locality = env!("CARGO_BIN_EXE_locality");
    for (bin, args, error) in [
        (
            coloring,
            &["--ways", "0"][..],
            "error: --ways must be at least 1, got 0",
        ),
        (
            coloring,
            &["--ways", "3"][..],
            "error: --ways 3 must be a divisor of the cache's 8192",
        ),
        (
            coloring,
            &["--cache-kib", "0"][..],
            "error: --cache-kib must be at least 4, got 0",
        ),
        (
            coloring,
            &["--cache-kib", "3"][..],
            "error: --cache-kib must be at least 4, got 3",
        ),
        (
            coloring,
            &["--cache-kib", "12"][..],
            "error: --cache-kib 12 must be a power of two",
        ),
        (
            locality,
            &["--entries", "0"][..],
            "error: --entries must be at least 1, got 0",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--entries", "0"][..],
            "error: --entries must be at least 1, got 0",
        ),
        (
            locality,
            &["--entries", "3"][..],
            "error: --entries 3 must be a positive multiple of 8",
        ),
        (
            env!("CARGO_BIN_EXE_walkcost"),
            &["--keys", "0"][..],
            "error: --keys must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_fragmentation"),
            &["--keys", "0"][..],
            "error: --keys must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_attrib"),
            &["--load", "0"][..],
            "error: --load 0 must be large enough for a 64 KiB footprint",
        ),
        (
            env!("CARGO_BIN_EXE_obs_report"),
            &[][..],
            "error: missing argument <run.jsonl>",
        ),
        (
            env!("CARGO_BIN_EXE_obs_report"),
            &["/no-such-dir/run.jsonl"][..],
            "error: cannot read /no-such-dir/run.jsonl: ",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with(error), "{bin} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} printed before the error"
        );
    }
}
