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

/// `--cube repro` splits deep depths but never changes a verdict; the
/// clause-sharing mode no longer exists.
#[test]
fn prove_cube_flag_takes_off_or_repro() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_prove_cube.aag", LOCKSTEP);
    let (plain, ok) = run(&["prove", f.to_str().unwrap()]);
    assert!(ok, "{plain}");
    let (cubed, ok) = run(&["prove", "--cube", "repro", f.to_str().unwrap()]);
    assert!(ok, "{cubed}");
    assert_eq!(plain, cubed);
    let (out, ok) = run(&["prove", "--cube", "fast", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("bad --cube value"), "{out}");
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
}

/// A reader that closes stdout before `diam` writes (`diam solve f | head`)
/// ends the run cleanly: status 0, and no crash dump or `.diam/` store left
/// behind.
#[test]
fn closed_stdout_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("diam_cli_epipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).expect("sandbox");
    let f = fixture(&dir, "lockstep.aag", LOCKSTEP);
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(["solve", f.to_str().unwrap()])
        .env("DIAM_CRASH_DIR", &crash)
        .env_remove("DIAM_FORCE_PANIC")
        .current_dir(&dir)
        .stdout(writer)
        .status()
        .expect("binary runs");
    let dumps: Vec<_> = std::fs::read_dir(&crash).expect("crash dir").collect();
    let store = dir.join(".diam").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "{status}");
    assert!(dumps.is_empty(), "crash dumps written: {dumps:?}");
    assert!(!store, "a .diam/ store appeared in the working directory");
}

/// Two 23-byte headers whose counts overflow u32 arithmetic: `diam stats`
/// reports a parse error and exits 1, with no panic, crash dump or `.diam/`
/// store left behind.
#[test]
fn overflowing_aiger_headers_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("diam_cli_header_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).expect("sandbox");
    for (name, header) in [
        ("huge_m.aag", "aag 4294967295 0 0 0 0\n"),
        ("wrapped_sum.aig", "aig 5 4294967295 2 0 0\n"),
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
