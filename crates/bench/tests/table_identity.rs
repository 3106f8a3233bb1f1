//! Byte-identity of the table bodies across `--jobs` settings.
//!
//! The reproducibility contract (see `DESIGN.md`, "Threading model"): the
//! per-target fan-out behind `table1` / `table2` merges pure jobs in
//! original target order, so everything after the header line — every row,
//! Σ, and fraction — must be byte-identical whether the run was sequential
//! or fanned out over any number of workers. The header echoes the `--jobs`
//! value itself and is stripped before comparing.

use std::process::Command;

/// Runs a table binary and returns stdout with the header line (the only
/// line that legitimately varies — it echoes `jobs`) removed.
fn body(bin: &str, jobs: &str) -> String {
    let out = Command::new(bin)
        .args(["1", "--limit", "2", "--jobs", jobs])
        .output()
        .expect("table binary runs");
    assert!(
        out.status.success(),
        "{bin} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines();
    let header = lines.next().unwrap_or_default();
    assert!(
        header.contains(&format!("jobs {jobs}")),
        "header must echo the jobs setting: {header:?}"
    );
    lines.collect::<Vec<_>>().join("\n")
}

#[test]
fn table1_body_is_byte_identical_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_table1");
    let seq = body(bin, "seq");
    assert!(seq.contains("Σ measured"), "body shape sanity");
    for jobs in ["2", "8"] {
        assert_eq!(seq, body(bin, jobs), "table1 --jobs {jobs} diverged");
    }
}

#[test]
fn table2_body_is_byte_identical_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_table2");
    let seq = body(bin, "seq");
    assert!(seq.contains("Σ measured"), "body shape sanity");
    for jobs in ["2", "8"] {
        assert_eq!(seq, body(bin, jobs), "table2 --jobs {jobs} diverged");
    }
}
