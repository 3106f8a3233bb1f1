//! Exporter round-trip + golden tests and `diam-trace check` CLI tests.
//!
//! The export goldens (`seed_run.chrome.json`, `seed_run.folded`) pin the
//! exact bytes produced from the committed seed trace, so format changes
//! are deliberate, reviewed diffs. The CLI tests drive the real binary
//! (`CARGO_BIN_EXE_diam-trace`) to pin output and exit codes.

use diam_trace::{export, timeline, Trace};
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn seed_trace() -> Trace {
    Trace::parse(&fixture("seed_run.jsonl")).expect("seed fixture parses")
}

#[test]
fn chrome_export_matches_golden_byte_for_byte() {
    let trace = seed_trace();
    assert_eq!(
        export::chrome_trace(&trace),
        fixture("seed_run.chrome.json")
    );
}

#[test]
fn chrome_export_verifies_against_span_model() {
    let trace = seed_trace();
    let chrome = export::chrome_trace(&trace);
    let (complete, counters) = export::verify_chrome_trace(&trace, &chrome).expect("verifies");
    assert_eq!(complete, trace.spans.len());
    assert_eq!(counters, trace.metrics.len());
    // Spot-check the per-tid reference itself: one worker, sum of all
    // span durations.
    let by_tid = export::per_worker_dur_ns(&trace);
    let want: u64 = trace.spans.values().map(|s| s.dur_ns).sum();
    assert_eq!(by_tid.values().sum::<u64>(), want);
}

#[test]
fn flamegraph_matches_golden_and_weights_sum() {
    let trace = seed_trace();
    let folded = export::flamegraph(&trace);
    assert_eq!(folded, fixture("seed_run.folded"));
    let lines = export::verify_flamegraph(&trace, &folded).expect("verifies");
    assert!(lines > 0);
    let sum: u64 = folded
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(sum, export::total_self_ns(&trace));
}

#[test]
fn timeline_covers_all_seed_spans() {
    let trace = seed_trace();
    let text = timeline::render_timeline(&trace, 60);
    assert!(text.contains("table1"), "{text}");
    assert!(text.contains("295 span(s)"), "{text}");
    // Single-worker trace: merged busy time can never exceed the wall.
    let busy = timeline::per_worker_busy_ns(&trace);
    assert_eq!(busy.len(), 1);
    assert!(busy[&0] <= trace.manifest.wall_ns);
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diam-trace"))
        .args(args)
        .output()
        .expect("diam-trace runs")
}

#[test]
fn check_cli_accepts_the_seed_trace() {
    let path = format!(
        "{}/tests/fixtures/seed_run.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let run = cli(&["check", &path]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.starts_with(&format!("{path}: OK — 598 lines, 295 spans, ")),
        "{stdout}"
    );
    assert!(stdout.contains("suite.design"), "{stdout}");
}

/// A trace cut off before its metrics line, and a missing file, exit 2; the
/// rejection carries the parser's own `line N: message` diagnostic.
#[test]
fn check_cli_rejects_truncated_and_missing_traces() {
    let tmp = std::env::temp_dir().join(format!("diam-check-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let seed = fixture("seed_run.jsonl");
    let truncated = &seed[..seed.trim_end().rfind('\n').expect("multi-line") + 1];
    let want = Trace::parse(truncated).expect_err("no metrics line");
    assert_eq!(want.to_string(), "line 597: no metrics line");

    let path = tmp.join("truncated.jsonl");
    std::fs::write(&path, truncated).expect("write");
    let run = cli(&["check", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(run.stdout.is_empty());
    assert_eq!(stderr, format!("diam-trace: {}: {want}\n", path.display()));

    let missing = tmp.join("missing.jsonl");
    let run = cli(&["check", missing.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn export_cli_is_self_verifying() {
    let tmp = std::env::temp_dir().join(format!("diam-export-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&tmp);
    let trace_path = format!(
        "{}/tests/fixtures/seed_run.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );

    for (format, golden) in [
        ("chrome", "seed_run.chrome.json"),
        ("flamegraph", "seed_run.folded"),
    ] {
        let out = tmp.join(golden);
        let run = cli(&[
            "export",
            &trace_path,
            "--format",
            format,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            fixture(golden),
            "{format} CLI output diverges from golden"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
