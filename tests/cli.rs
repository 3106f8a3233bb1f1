//! Smoke tests for the `diam` command-line tool, driven through the real
//! binary (`CARGO_BIN_EXE_diam`).

use std::io::Write;
use std::process::Command;

fn fixture(dir: &std::path::Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("fixture");
    f.write_all(text.as_bytes()).expect("fixture");
    path
}

/// A 2-register lockstep design: one failing target, one provable.
const LOCKSTEP: &str = "aag 7 2 2 2 3\n2\n4\n6 14 0\n8 12 0\n6\n8\n10 2 4\n12 10 0\n14 4 4\ni0 a\ni1 b\nl0 r\nl1 s\no0 t_r\no1 t_s\n";

fn run(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
        out.status.success(),
    )
}

#[test]
fn stats_reports_classes() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_stats.aag", LOCKSTEP);
    let (out, ok) = run(&["stats", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("registers 2"), "{out}");
    assert!(out.contains("CC;AC;MC+QC;GC"), "{out}");
}

#[test]
fn bound_lists_targets() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_bound.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("t_r"), "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
}

/// `bound --explain` runs the pipeline once: the bounds and the explained
/// netlist come from the same run, so its trace holds one `pipeline.run`.
#[test]
fn bound_explain_runs_the_pipeline_once() {
    let dir = std::env::temp_dir().join(format!("diam_cli_explain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("sandbox");
    let f = fixture(&dir, "lockstep.aag", LOCKSTEP);
    let trace = dir.join("t.jsonl");
    let (out, ok) = run(&[
        "bound",
        "--explain",
        "--threshold",
        "0",
        "--trace-out",
        trace.to_str().unwrap(),
        f.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{out}");
    for name in ["t_r", "t_s"] {
        let why = format!("why {name} is unboundable:");
        assert_eq!(out.matches(&why).count(), 1, "{out}");
    }
    let trace = diam::trace::Trace::parse(&text).expect("trace parses");
    let runs = trace
        .spans
        .values()
        .filter(|s| s.name == "pipeline.run")
        .count();
    assert_eq!(runs, 1, "pipeline.run spans");
}

#[test]
fn prove_separates_failing_and_proved() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_prove.aag", LOCKSTEP);
    let (out, ok) = run(&["prove", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("FAILS      t_r"), "{out}");
    assert!(out.contains("PROVED     t_s"), "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

/// Options of deleted features are rejected like any unknown option: exit
/// status 1, one error line on stderr, nothing on stdout.
#[test]
fn prove_rejects_removed_options() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_prove_removed.aag", LOCKSTEP);
    for (flag, value) in [("--cube", "repro"), ("--portfolio", "on")] {
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(["prove", flag, value, f.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
}

#[test]
fn solve_credits_engines() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_solve.aag", LOCKSTEP);
    let (out, ok) = run(&["solve", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

#[test]
fn sweep_writes_reduced_aiger() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_sweep.aag", LOCKSTEP);
    let out_path = dir.join("diam_cli_sweep_out.aag");
    let (out, ok) = run(&["sweep", f.to_str().unwrap(), out_path.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("2 -> 1 registers"), "{out}");
    let written = std::fs::read_to_string(&out_path).expect("output written");
    assert!(written.starts_with("aag "), "{written}");
}

#[test]
fn custom_pipeline_spec_is_accepted() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_pipe.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "coi,enl:1,com", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("_enl1"), "{out}");
}

/// Regression: the whole-spec `com` alias must mean the canned COI+COM
/// pipeline (as the usage text promises), not the bare sweep engine — the
/// parser used to silently drop the COI step on this path.
#[test]
fn pipeline_com_alias_is_the_canned_pipeline() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_com_alias.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "com", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("pipeline com"), "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
    // The canned alias and its expansion agree bound-for-bound.
    let (expanded, ok) = run(&["bound", "--pipeline", "coi,com", f.to_str().unwrap()]);
    assert!(ok, "{expanded}");
    let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert_eq!(tail(&out), tail(&expanded));
}

/// Fixpoint groups parse end-to-end through the CLI.
#[test]
fn star_pipeline_spec_is_accepted() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_star.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "coi,com*", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
    let (out, ok) = run(&["solve", "--pipeline", "(com,ret)*:2", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (_, ok) = run(&["frobnicate"]);
    assert!(!ok);
    let (out, ok) = run(&["bound", "--pipeline", "bogus", "/nonexistent.aag"]);
    assert!(!ok);
    assert!(out.contains("error"), "{out}");
    let (_, ok) = run(&["bound", "/nonexistent.aag"]);
    assert!(!ok);
    // Like every `diam` option, an observability flag takes its value as
    // the next argument: `--obs=json` is an unknown option.
    let (out, ok) = run(&["prove", "--obs=json", "/nonexistent.aag"]);
    assert!(!ok);
    assert!(out.contains("unknown option --obs=json"), "{out}");
}

/// A reader that closes stdout before `diam` writes (`diam solve f | head`)
/// ends the run cleanly under every `--obs` mode: status 0, and nothing
/// left behind in the working directory (no crash dump, no `.diam/` store).
#[test]
fn closed_stdout_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("diam_cli_epipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).expect("sandbox");
    let f = fixture(&dir, "lockstep.aag", LOCKSTEP);
    for mode in ["off", "summary", "json", "live", "live-json"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(["solve", "--obs", mode, f.to_str().unwrap()])
            .env("DIAM_CRASH_DIR", &crash)
            .env_remove("DIAM_FORCE_PANIC")
            .current_dir(&dir)
            .stdout(writer)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("binary runs");
        assert!(status.success(), "--obs {mode}: {status}");
    }
    let dumps: Vec<_> = std::fs::read_dir(&crash).expect("crash dir").collect();
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .expect("sandbox")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    left.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(dumps.is_empty(), "crash dumps written: {dumps:?}");
    assert_eq!(left, ["crash", "lockstep.aag"], "files left behind");
}

/// Headers whose counts overflow u32 arithmetic or promise gigabytes of
/// body that is not there: `diam stats` reports a parse error and exits 1,
/// with no panic, abort, crash dump or `.diam/` store left behind.
#[test]
fn overflowing_aiger_headers_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("diam_cli_header_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).expect("sandbox");
    for (name, header) in [
        ("huge_m.aag", "aag 4294967295 0 0 0 0\n"),
        ("wrapped_sum.aig", "aig 5 4294967295 2 0 0\n"),
        // Counts a binary reader must not size buffers from: no body
        // follows, so each ends at EOF.
        ("huge_o.aig", "aig 0 0 0 4294967295 0\n"),
        ("huge_b.aig", "aig 0 0 0 0 0 4294967295\n"),
        ("huge_l.aig", "aig 2147483647 0 2147483647 0 0\n"),
        ("huge_a.aig", "aig 2147483647 0 0 0 2147483647\n"),
    ] {
        let f = fixture(&dir, name, header);
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(["stats", f.to_str().unwrap()])
            .env("DIAM_CRASH_DIR", &crash)
            .env_remove("DIAM_FORCE_PANIC")
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("aiger parse error"), "{name}: {stderr}");
    }
    let dumps: Vec<_> = std::fs::read_dir(&crash).expect("crash dir").collect();
    let store = dir.join(".diam").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(dumps.is_empty(), "crash dumps written: {dumps:?}");
    assert!(!store, "a .diam/ store appeared in the working directory");
}

/// `diam` writes nothing into its working directory that it was not asked
/// for: under every `--obs` mode `diam solve` leaves the directory empty (no
/// `.diam/` store), and `--trace-out t.jsonl` adds exactly `t.jsonl`.
#[test]
fn obs_modes_write_nothing_into_the_working_directory() {
    let dir = std::env::temp_dir().join(format!("diam_cli_obs_cwd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).expect("sandbox");
    let f = fixture(&dir, "lockstep.aag", LOCKSTEP);
    let runs: [(&[&str], &[&str]); 6] = [
        (&["--obs", "off"], &[]),
        (&["--obs", "summary"], &[]),
        (&["--obs", "json"], &[]),
        (&["--obs", "live"], &[]),
        (&["--obs", "live-json"], &[]),
        (&["--trace-out", "t.jsonl"], &["t.jsonl"]),
    ];
    let mut failures = Vec::new();
    for (i, (flags, want)) in runs.iter().enumerate() {
        let work = dir.join(format!("work{i}"));
        std::fs::create_dir(&work).expect("empty working directory");
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .arg("solve")
            .args(*flags)
            .arg(&f)
            .env("DIAM_CRASH_DIR", &crash)
            .env_remove("DIAM_FORCE_PANIC")
            .current_dir(&work)
            .output()
            .expect("binary runs");
        let mut left: Vec<String> = std::fs::read_dir(&work)
            .expect("working directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        if !out.status.success() || left != *want {
            failures.push(format!(
                "{flags:?}: {}, left {left:?}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
    }
    let dumps: Vec<_> = std::fs::read_dir(&crash).expect("crash dir").collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(dumps.is_empty(), "crash dumps written: {dumps:?}");
}

/// Without `DIAM_CRASH_DIR`, a crash dump lands under the temp directory,
/// never in the working directory: a forced panic exits 101, leaves the
/// working directory as it was, and writes exactly one dump under
/// `$TMPDIR/diam-crash` that the `diam-trace postmortem` validator accepts.
#[test]
fn crash_dumps_default_to_the_temp_directory() {
    let root = std::env::temp_dir().join(format!("diam_cli_crash_tmp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let work = root.join("work");
    let tmp = root.join("tmp");
    std::fs::create_dir_all(&work).expect("working directory");
    std::fs::create_dir_all(&tmp).expect("temp directory");
    let f = fixture(&root, "lockstep.aag", LOCKSTEP);
    let out = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(["prove", f.to_str().unwrap()])
        .env("DIAM_FORCE_PANIC", "1")
        .env("TMPDIR", &tmp)
        .env_remove("DIAM_CRASH_DIR")
        .current_dir(&work)
        .output()
        .expect("binary runs");
    let left: Vec<_> = std::fs::read_dir(&work)
        .expect("working directory")
        .collect();
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(tmp.join("diam-crash"))
        .map(|rd| rd.map(|e| e.expect("entry").path()).collect())
        .unwrap_or_default();
    let texts: Vec<String> = dumps
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("dump readable"))
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(101), "{stderr}");
    assert!(left.is_empty(), "the working directory changed: {left:?}");
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("crash-") && name.ends_with(".json"),
        "{name}"
    );
    let dump = diam::trace::CrashDump::parse(&texts[0]).expect("postmortem accepts the dump");
    assert_eq!(dump.reason, "panic");
}

/// Every recording `--obs` mode ends with the run report: the `--obs off`
/// output, one blank line, then the `diam-trace` report of the session,
/// headed by the input file and the options.
#[test]
fn recording_modes_append_the_run_report() {
    let f = fixture(&std::env::temp_dir(), "diam_cli_report.aag", LOCKSTEP);
    let path = f.to_str().unwrap();
    let stdout = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let off = stdout(&["prove", path]);
    let summary = stdout(&["prove", "--obs", "summary", path]);
    let report = summary
        .strip_prefix(off.as_str())
        .and_then(|rest| rest.strip_prefix('\n'))
        .unwrap_or_else(|| panic!("no report after the unchanged output:\n{summary}"));
    assert!(
        report.starts_with("trace report — tool diam-prove"),
        "{report}"
    );
    assert!(report.contains(&format!("\ninput    {path}\n")), "{report}");
    assert!(
        report.contains("\noptions  depth_cap=10000  ecc=on  obs=summary"),
        "{report}"
    );
    assert!(
        report.contains("\ncounters / gauges / histograms:\n"),
        "{report}"
    );
}
