//! End-to-end tests for the bench binaries' observability flags, driven
//! through the real executables.
//!
//! The contract: `--obs off` (the default) is byte-clean — stdout is
//! bit-identical run to run and to an explicit `--obs off` run, and stderr
//! is empty; `--obs json --trace-out` writes a JSONL trace that the strict
//! parser (`diam_trace::Trace::parse`, behind `diam-trace check`) accepts.

use std::process::{Command, Output};

fn table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .output()
        .expect("table1 runs")
}

/// With observability off the tables are deterministic at the byte level:
/// two runs produce identical stdout, nothing on stderr, and an explicit
/// `--obs off` changes nothing — instrumentation leaves no trace in the
/// output of an uninstrumented run.
#[test]
fn obs_off_is_byte_identical() {
    let a = table1(&["1", "--limit", "2"]);
    let b = table1(&["1", "--limit", "2"]);
    let c = table1(&["1", "--limit", "2", "--obs", "off"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success());
    assert!(c.status.success());
    assert!(a.stderr.is_empty(), "stderr must stay clean with --obs off");
    assert!(c.stderr.is_empty());
    assert_eq!(a.stdout, b.stdout, "repeat runs are bit-identical");
    assert_eq!(a.stdout, c.stdout, "--obs off output matches the default");
    assert!(!a.stdout.is_empty());
}

/// `--obs summary` appends, after the unchanged table and one blank line,
/// exactly the run report `diam-trace report` renders for the run's own
/// trace — one renderer for both views.
#[test]
fn obs_summary_appends_breakdown() {
    let path = std::env::temp_dir().join("diam_obs_cli_summary.jsonl");
    let path_s = path.to_str().unwrap().to_string();
    let off = table1(&["1", "--limit", "1"]);
    let sum = table1(&[
        "1",
        "--limit",
        "1",
        "--obs",
        "summary",
        "--trace-out",
        &path_s,
    ]);
    assert!(off.status.success() && sum.status.success());
    let off_s = String::from_utf8_lossy(&off.stdout);
    let sum_s = String::from_utf8_lossy(&sum.stdout);
    assert!(
        sum_s.starts_with(off_s.as_ref()),
        "summary output must begin with the unchanged table"
    );
    let trace = diam_trace::Trace::parse(&std::fs::read_to_string(&path).expect("trace written"))
        .expect("trace parses");
    let _ = std::fs::remove_file(&path);
    // What `diam-trace report` prints: `render_report` at its default top.
    let report = diam_trace::render_report(&trace, diam_trace::analyze::DEFAULT_TOP);
    assert_eq!(sum_s[off_s.len()..], format!("\n{report}"));
    assert!(sum_s.contains("pass.apply"), "{sum_s}");
}

/// `--obs json --trace-out` writes a trace the strict parser accepts, both
/// sequentially and under a threaded fan-out.
#[test]
fn trace_out_passes_the_trace_parser() {
    for (jobs, tag) in [("seq", "seq"), ("3", "thr")] {
        let path = std::env::temp_dir().join(format!("diam_obs_cli_{tag}.jsonl"));
        let path_s = path.to_str().unwrap().to_string();
        let out = table1(&[
            "1",
            "--limit",
            "1",
            "--jobs",
            jobs,
            "--obs",
            "json",
            "--trace-out",
            &path_s,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("trace written");
        let trace = diam_trace::Trace::parse(&text)
            .unwrap_or_else(|e| panic!("--jobs {jobs}: trace rejected: {e}"));
        // The accepted-span inventory includes the unified transform span
        // schema.
        let kinds = trace.span_names();
        assert!(kinds.iter().any(|k| k == "pass.apply"), "{kinds:?}");
        let _ = std::fs::remove_file(&path);
    }
}

/// `--trace-out` alone implies `--obs json` — the trace is written even
/// without an explicit mode flag, in either spelling of the flag.
#[test]
fn trace_out_implies_json_mode() {
    let path = std::env::temp_dir().join("diam_obs_cli_implied.jsonl");
    let path_s = path.to_str().unwrap().to_string();
    let joined = format!("--trace-out={path_s}");
    for flag in [vec!["--trace-out", path_s.as_str()], vec![joined.as_str()]] {
        let _ = std::fs::remove_file(&path);
        let out = table1(&[&["1", "--limit", "1"], flag.as_slice()].concat());
        assert!(out.status.success(), "{flag:?}");
        let text = std::fs::read_to_string(&path).expect("trace written");
        assert!(text.lines().count() >= 3, "manifest + events + metrics");
        assert!(text.lines().next().unwrap().contains("\"ev\":\"manifest\""));
    }
    let _ = std::fs::remove_file(&path);
}

/// `--obs live` arms the watchdog (an arming line on stderr) while the
/// table on stdout stays identical to an off run up to the appended
/// summary — the heartbeat channel never contaminates stdout.
#[test]
fn obs_live_heartbeats_on_stderr_only() {
    let off = table1(&["1", "--limit", "1"]);
    let live = table1(&["1", "--limit", "1", "--obs", "live"]);
    assert!(off.status.success());
    assert!(
        live.status.success(),
        "{}",
        String::from_utf8_lossy(&live.stderr)
    );
    let err = String::from_utf8_lossy(&live.stderr);
    assert!(err.contains("diam-obs live: armed"), "{err}");
    let off_s = String::from_utf8_lossy(&off.stdout);
    let live_s = String::from_utf8_lossy(&live.stdout);
    assert!(
        live_s.starts_with(off_s.as_ref()),
        "live output must begin with the unchanged table"
    );
}

/// Unknown flags abort with a usage message and exit code 2.
#[test]
fn bad_flags_abort_with_usage() {
    let out = table1(&["--nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    let out = table1(&["--obs", "loud"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The usage message of `table1` and `ablation` lists every flag the
/// shared parser accepts, observability flags included.
#[test]
fn usage_lists_every_shared_flag() {
    let ablation = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .arg("--nonsense")
        .output()
        .expect("ablation runs");
    for out in [table1(&["--nonsense"]), ablation] {
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        for flag in ["--live-out", "live-json", "--mem", "--limit", "--ecc"] {
            assert!(err.contains(flag), "usage must name {flag}: {err}");
        }
    }
}

/// Validate one machine-readable live-stream line against the documented
/// schema (DESIGN.md §8.2): every event carries `v` (schema version), `ev`
/// (known kind), and `ts_ns`; kind-specific required keys are checked too,
/// and no event carries a key its kind does not document.
fn check_live_event(line: &str) -> String {
    let v = diam_obs::json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
    assert_eq!(
        v.get("v").and_then(|x| x.as_u64()),
        Some(diam_obs::LIVE_SCHEMA_VERSION),
        "{line}"
    );
    assert!(v.get("ts_ns").and_then(|x| x.as_u64()).is_some(), "{line}");
    let ev = v
        .get("ev")
        .and_then(|x| x.as_str())
        .unwrap_or_else(|| panic!("missing ev in {line}"))
        .to_string();
    let documented: &[&str] = match ev.as_str() {
        "live_start" => {
            for key in ["heartbeat_ms", "stall_ms"] {
                assert!(v.get(key).and_then(|x| x.as_u64()).is_some(), "{line}");
            }
            &["heartbeat_ms", "stall_ms"]
        }
        "heartbeat" => {
            assert!(
                v.get("workers").and_then(|x| x.as_array()).is_some(),
                "{line}"
            );
            assert!(v.get("queue_depth").is_some(), "{line}");
            &["workers", "queue_depth", "rss_kb"]
        }
        "progress" => {
            assert!(v.get("queue_depth").is_some(), "{line}");
            &["depth", "queue_depth"]
        }
        "stall" => {
            assert!(
                v.get("quiet_s").and_then(|x| x.as_f64()).is_some(),
                "{line}"
            );
            assert!(
                v.get("stacks").and_then(|x| x.as_array()).is_some(),
                "{line}"
            );
            &["quiet_s", "stacks"]
        }
        "finish" => {
            assert!(v.get("events").and_then(|x| x.as_u64()).is_some(), "{line}");
            &["events"]
        }
        other => panic!("unknown live event kind {other:?} in {line}"),
    };
    let diam_obs::json::JsonValue::Object(fields) = &v else {
        panic!("live event is not an object: {line}");
    };
    for key in fields.keys() {
        assert!(
            ["v", "ev", "ts_ns"].contains(&key.as_str()) || documented.contains(&key.as_str()),
            "undocumented key {key:?} in {line}"
        );
    }
    ev
}

/// `--live-out` alone implies `--obs live` and streams schema-valid JSONL
/// to the file: `live_start` first, `finish` last, every line validating
/// against the documented schema. Stdout stays the unchanged table (plus
/// the appended summary); the machine channel never touches stdout.
#[test]
fn live_out_streams_schema_valid_jsonl() {
    let path = std::env::temp_dir().join("diam_obs_cli_live_out.jsonl");
    let path_s = path.to_str().unwrap().to_string();
    let off = table1(&["1", "--limit", "1"]);
    let live = table1(&["1", "--limit", "1", "--live-out", &path_s]);
    assert!(
        live.status.success(),
        "{}",
        String::from_utf8_lossy(&live.stderr)
    );
    let off_s = String::from_utf8_lossy(&off.stdout);
    let live_s = String::from_utf8_lossy(&live.stdout);
    assert!(
        live_s.starts_with(off_s.as_ref()),
        "live-out must leave the table untouched"
    );
    // --live-out implies live mode → the human watchdog arming line.
    let err = String::from_utf8_lossy(&live.stderr);
    assert!(err.contains("diam-obs live: armed"), "{err}");

    let text = std::fs::read_to_string(&path).expect("live stream written");
    let kinds: Vec<String> = text.lines().map(check_live_event).collect();
    assert!(kinds.len() >= 2, "at least live_start + finish: {kinds:?}");
    assert_eq!(kinds.first().map(String::as_str), Some("live_start"));
    assert_eq!(kinds.last().map(String::as_str), Some("finish"));
    let _ = std::fs::remove_file(&path);
}

/// `probe` parses the shared observability flags wherever they appear:
/// `--live-out` after the positional arguments streams schema-valid JSONL,
/// and before them it is not mistaken for the design name. An unknown
/// design exits 2 with a usage message.
#[test]
fn probe_takes_the_shared_obs_flags() {
    let probe = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_probe"))
            .args(args)
            .output()
            .expect("probe runs")
    };
    let path =
        std::env::temp_dir().join(format!("diam_obs_cli_probe_{}.jsonl", std::process::id()));
    let path_s = path.to_str().unwrap();
    for args in [
        vec!["S27", "0", "1", "--live-out", path_s],
        vec!["--live-out", path_s, "S27"],
    ] {
        let _ = std::fs::remove_file(&path);
        let out = probe(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("S27: "));
        let text = std::fs::read_to_string(&path).expect("live stream written");
        let kinds: Vec<String> = text.lines().map(check_live_event).collect();
        assert_eq!(kinds.first().map(String::as_str), Some("live_start"));
        assert_eq!(kinds.last().map(String::as_str), Some("finish"));
    }
    let _ = std::fs::remove_file(&path);
    let out = probe(&["S28"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown design `S28`") && err.contains("usage:"),
        "{err}"
    );
}

/// `--obs live-json` is the pure machine mode: the stream goes to stderr,
/// no human heartbeat lines are armed, and stdout still begins with the
/// unchanged table.
#[test]
fn obs_live_json_streams_to_stderr() {
    let off = table1(&["1", "--limit", "1"]);
    let lj = table1(&["1", "--limit", "1", "--obs", "live-json"]);
    assert!(
        lj.status.success(),
        "{}",
        String::from_utf8_lossy(&lj.stderr)
    );
    let off_s = String::from_utf8_lossy(&off.stdout);
    let lj_s = String::from_utf8_lossy(&lj.stdout);
    assert!(lj_s.starts_with(off_s.as_ref()));
    let err = String::from_utf8_lossy(&lj.stderr);
    assert!(
        !err.contains("diam-obs live: armed"),
        "live-json must not emit human lines: {err}"
    );
    let kinds: Vec<String> = err
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(check_live_event)
        .collect();
    assert_eq!(kinds.first().map(String::as_str), Some("live_start"));
    assert_eq!(kinds.last().map(String::as_str), Some("finish"));
}
