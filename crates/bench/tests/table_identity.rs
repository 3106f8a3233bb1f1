//! Byte-identity of the table bodies across `--jobs` settings.
//!
//! The reproducibility contract (see `DESIGN.md`, "Threading model"): the
//! per-target fan-out behind `table1` / `table2` merges pure jobs in
//! original target order, so everything after the header line — every row,
//! Σ, and fraction — must be byte-identical whether the run was sequential
//! or fanned out over any number of workers. The header echoes the `--jobs`
//! value itself and is stripped before comparing. With `--ecc on`, the
//! workers of a column also share its pass's certificate memo.

use std::process::Command;

/// Runs a table binary with `ecc` and returns stdout with the header line
/// (the only line that legitimately varies — it echoes `jobs`) removed.
fn body(bin: &str, ecc: &str, jobs: &str) -> String {
    let out = Command::new(bin)
        .args(["1", "--limit", "2", "--ecc", ecc, "--jobs", jobs])
        .output()
        .expect("table binary runs");
    assert!(
        out.status.success(),
        "{bin} --ecc {ecc} --jobs {jobs} failed: {}",
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

/// Asserts that `bin`'s body under `--jobs 2` and `8` equals its
/// sequential body, with the engine off and on.
fn assert_identical_across_jobs(bin: &str, name: &str) {
    for ecc in ["off", "on"] {
        let seq = body(bin, ecc, "seq");
        assert!(seq.contains("Σ measured"), "body shape sanity");
        for jobs in ["2", "8"] {
            assert_eq!(
                seq,
                body(bin, ecc, jobs),
                "{name} --ecc {ecc} --jobs {jobs} diverged"
            );
        }
    }
}

#[test]
fn table1_body_is_byte_identical_across_jobs() {
    assert_identical_across_jobs(env!("CARGO_BIN_EXE_table1"), "table1");
}

#[test]
fn table2_body_is_byte_identical_across_jobs() {
    assert_identical_across_jobs(env!("CARGO_BIN_EXE_table2"), "table2");
}
