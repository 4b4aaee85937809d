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
