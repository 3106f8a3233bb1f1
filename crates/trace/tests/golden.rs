//! Golden-file tests over committed fixture traces.
//!
//! `fixtures/seed_run.jsonl` is a real `table1 --limit 2 --obs json` trace
//! (timestamps scaled so per-phase totals clear the default 20 ms diff
//! floor); `fixtures/seed_run_slow2x.jsonl` is the same trace with a 2×
//! slowdown injected into every `com.sweep` span. The committed `.txt`
//! goldens pin the exact rendered report and diff so formatting changes are
//! deliberate, reviewed diffs rather than silent drift.

use diam_trace::{analyze, diff, postmortem, DiffOptions, Trace};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn parse_fixture(name: &str) -> Trace {
    Trace::parse(&fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn report_matches_golden() {
    let trace = parse_fixture("seed_run.jsonl");
    let rendered = analyze::render_report(&trace, 5);
    assert_eq!(rendered, fixture("seed_run.report.txt"));
}

#[test]
fn critical_path_descends_into_the_com_sweep() {
    let trace = parse_fixture("seed_run.jsonl");
    let path = analyze::critical_path(&trace);
    let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "suite.design",
            "suite.column",
            "pipeline.run",
            "pipeline.step",
            "com.sweep"
        ]
    );
    // The chain starts at the heaviest design and every step's duration
    // fits inside its parent.
    for w in path.windows(2) {
        assert!(w[1].dur_ns <= w[0].dur_ns, "{:?} > {:?}", w[1], w[0]);
        assert!(w[1].share_of_parent <= 1.0 + 1e-9);
    }
}

#[test]
fn diff_of_identical_traces_has_zero_regressions() {
    let trace = parse_fixture("seed_run.jsonl");
    let rows = diff::diff_traces(&trace, &trace, &DiffOptions::default());
    assert!(!diff::has_regressions(&rows));
    assert!(
        rows.iter().all(|r| r.verdict == diff::Verdict::Pass),
        "{rows:?}"
    );
    let text = diff::render_diff(&rows, &DiffOptions::default());
    assert!(text.contains("verdict: PASS — no regressions"), "{text}");
}

#[test]
fn injected_2x_slowdown_is_flagged_and_matches_golden() {
    let base = parse_fixture("seed_run.jsonl");
    let slow = parse_fixture("seed_run_slow2x.jsonl");
    let opts = DiffOptions::default();
    let rows = diff::diff_traces(&base, &slow, &opts);
    let sweep = rows.iter().find(|r| r.name == "com.sweep").unwrap();
    assert_eq!(sweep.verdict, diff::Verdict::Regress);
    assert!((sweep.ratio.unwrap() - 2.0).abs() < 1e-9);
    // Every other phase is untouched and passes.
    assert_eq!(
        rows.iter()
            .filter(|r| r.verdict == diff::Verdict::Regress)
            .count(),
        1
    );
    assert_eq!(
        diff::render_diff(&rows, &opts),
        fixture("seed_run_vs_slow2x.diff.txt")
    );
}

#[test]
fn postmortem_matches_golden() {
    // `crash_dump.json` is a representative worker-panic dump (schema 2,
    // manifest + open-span stacks + recorded-event tail + allocator state);
    // the `.txt` golden pins the `diam-trace postmortem` rendering byte for
    // byte.
    let dump =
        postmortem::CrashDump::parse(&fixture("crash_dump.json")).expect("fixture dump validates");
    assert_eq!(dump.reason, "worker_panic");
    assert_eq!(dump.worker, 2);
    assert_eq!(dump.job, Some(5));
    assert!(dump.alloc.enabled);
    assert_eq!(
        postmortem::render_postmortem(&dump),
        fixture("crash_dump.postmortem.txt")
    );
}

#[test]
fn postmortem_cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_diam-trace");
    let dump_path = format!(
        "{}/tests/fixtures/crash_dump.json",
        env!("CARGO_MANIFEST_DIR")
    );
    // Valid dump → exit 0, golden body on stdout.
    let ok = std::process::Command::new(bin)
        .args(["postmortem", &dump_path])
        .output()
        .expect("spawn diam-trace");
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    assert_eq!(
        String::from_utf8_lossy(&ok.stdout),
        fixture("crash_dump.postmortem.txt")
    );
    // Schema-invalid dump (schema 1, or an unknown one) → exit 2 with a
    // diagnostic.
    let dir = std::env::temp_dir().join(format!("diam_trace_pm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    for schema in [1, 99] {
        std::fs::write(&bad, format!("{{\"crash_schema\":{schema}}}")).unwrap();
        let err = std::process::Command::new(bin)
            .args(["postmortem", bad.to_str().unwrap()])
            .output()
            .expect("spawn diam-trace");
        assert_eq!(err.status.code(), Some(2), "{err:?}");
        assert!(
            String::from_utf8_lossy(&err.stderr).contains("unsupported crash schema"),
            "{err:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
