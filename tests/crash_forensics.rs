//! End-to-end crash forensics: a forced panic deep inside a BMC solve must
//! leave a schema-valid crash dump behind (open-span stack, recorded-event
//! tail, allocation counters) under every `--obs` mode, `diam-trace`'s
//! postmortem model must accept it, and allocator accounting must never
//! change the tool's output.
//!
//! The panic is injected with `DIAM_FORCE_PANIC=<depth>` (a test-only hook
//! in `diam-bmc`), so these tests exercise the same process panic hook and
//! dump writer a real crash would.

use diam::trace::postmortem::{render_postmortem, CrashDump};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Two-register lockstep design; both targets need genuine BMC work, so
/// `diam prove` reaches the depth loop where the forced panic fires.
const LOCKSTEP: &str = "aag 7 2 2 2 3\n2\n4\n6 14 0\n8 12 0\n6\n8\n10 2 4\n12 10 0\n14 4 4\ni0 a\ni1 b\nl0 r\nl1 s\no0 t_r\no1 t_s\n";

struct Sandbox {
    dir: PathBuf,
    aag: PathBuf,
    crash: PathBuf,
}

impl Sandbox {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("diam_crash_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let crash = dir.join("crash");
        std::fs::create_dir_all(&crash).expect("create sandbox");
        let aag = dir.join("lockstep.aag");
        std::fs::write(&aag, LOCKSTEP).expect("write fixture");
        Self { dir, aag, crash }
    }

    fn run(&self, args: &[&str], force_panic: Option<&str>) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_diam"));
        cmd.args(args)
            .arg(&self.aag)
            .env("DIAM_CRASH_DIR", &self.crash)
            .env_remove("DIAM_FORCE_PANIC")
            .current_dir(&self.dir);
        if let Some(depth) = force_panic {
            cmd.env("DIAM_FORCE_PANIC", depth);
        }
        cmd.output().expect("spawn diam")
    }

    fn dumps(&self) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(&self.crash)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        v.sort();
        v
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs a forced-panic `diam prove` with `args` and returns the one dump it
/// wrote, parsed by `CrashDump::parse` (the same validator behind
/// `diam-trace postmortem`).
fn forced_panic_dump(tag: &str, args: &[&str]) -> CrashDump {
    let sb = Sandbox::new(tag);
    let out = sb.run(args, Some("1"));
    assert!(!out.status.success(), "forced panic must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("diam-obs: crash dump written to"),
        "panic hook announces the dump path: {stderr}"
    );
    let dumps = sb.dumps();
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let raw = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let dump = CrashDump::parse(&raw).expect("dump validates against schema 2");
    assert_eq!(dump.reason, "panic");
    assert!(
        dump.message.contains("DIAM_FORCE_PANIC: injected failure"),
        "panic payload captured: {}",
        dump.message
    );
    assert!(
        dump.location.as_deref().is_some_and(|l| l.contains("bmc")),
        "panic location points into the BMC crate: {:?}",
        dump.location
    );
    // `diam prove` runs on the main thread, outside any `diam-par` job.
    assert_eq!((dump.worker, dump.job), (0, None));
    dump
}

/// The headline contract: a panic mid-solve writes exactly one dump, and
/// the dump carries the three forensic payloads — the open-span stack of
/// the panicking thread, the recorded-event tail, and the allocation
/// counters.
#[test]
fn forced_panic_writes_a_schema_valid_dump() {
    let dump = forced_panic_dump("dump", &["prove", "--obs", "json", "--mem", "on"]);
    // Manifest: the session context a postmortem needs first.
    let manifest = dump.manifest.as_ref().expect("manifest present");
    assert_eq!(manifest.tool, "diam-prove");
    assert!(manifest.args.iter().any(|a| a == "--mem"));

    // Open spans: the panicking thread was inside `bmc.check`.
    assert!(
        dump.open_spans
            .iter()
            .any(|s| s.stack.iter().any(|(name, _)| name == "bmc.check")),
        "open-span stack reaches bmc.check: {:?}",
        dump.open_spans
    );

    // Event tail: the recorder's last events include the open event of the
    // BMC span the panic left open.
    let tail = &dump.events.tail;
    assert!(!tail.is_empty(), "event tail non-empty");
    assert!(dump.events.recorded >= tail.len() as u64);
    assert!(
        tail.iter().any(|e| e.ev == "open" && e.name == "bmc.check"),
        "event tail holds the open of bmc.check: {tail:?}"
    );

    // Allocator: `--mem on` means live accounting was running at the crash.
    assert!(dump.alloc.enabled);
    assert!(dump.alloc.allocs > 0, "allocation traffic counted");
    assert!(dump.alloc.peak_live_bytes >= dump.alloc.live_bytes);

    // The report renderer accepts the real dump end to end.
    let rendered = render_postmortem(&dump);
    assert!(rendered.contains(&dump.id), "{rendered}");
    assert!(rendered.contains("recent events"), "{rendered}");
}

/// Under `--obs off` nothing records, but a panic still writes a valid dump:
/// message, location, worker and allocator state, the session manifest, and
/// no open spans or events.
#[test]
fn forced_panic_without_recording_still_dumps() {
    let dump = forced_panic_dump("off", &["prove", "--obs", "off"]);
    assert_eq!(
        dump.manifest.as_ref().map(|m| m.tool.as_str()),
        Some("diam-prove")
    );
    assert!(dump.open_spans.is_empty(), "{:?}", dump.open_spans);
    assert_eq!(dump.events.recorded, 0);
    assert!(dump.events.tail.is_empty(), "{:?}", dump.events.tail);
    assert!(!dump.alloc.enabled);
    let rendered = render_postmortem(&dump);
    assert!(rendered.contains("(none recorded)"), "{rendered}");
}

/// Without the injection hook the same invocation succeeds and writes
/// nothing — the always-armed panic hook is invisible on the happy path.
#[test]
fn clean_run_writes_no_dump() {
    let sb = Sandbox::new("clean");
    let out = sb.run(&["prove", "--obs", "json", "--mem", "on"], None);
    assert!(
        out.status.success(),
        "clean prove succeeds: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sb.dumps().is_empty(), "no dump without a panic");
}

/// Allocator accounting must be observationally free: with `--obs off`, the
/// stdout/stderr of a prove run is byte-identical with `--mem on` and
/// `--mem off`.
#[test]
fn mem_accounting_never_changes_output() {
    let sb = Sandbox::new("bytes");
    let off = sb.run(&["prove", "--mem", "off"], None);
    let on = sb.run(&["prove", "--mem", "on"], None);
    assert!(off.status.success() && on.status.success());
    assert_eq!(off.stdout, on.stdout, "stdout identical across --mem");
    assert_eq!(off.stderr, on.stderr, "stderr identical across --mem");
}
