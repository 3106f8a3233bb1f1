//! Crash forensics: panic hooks and post-mortem dump files.
//!
//! A long-lived run that dies must explain itself from an artifact, not a
//! scrollback. This module maintains always-available crash context — the
//! installed session's manifest, per-thread open-span stacks, the flight
//! recorder ([`crate::ring`]), and allocator counters — and writes it to
//! `<temp dir>/diam-crash/<id>.json` (see [`set_crash_dir`]) when the
//! process panics ([`install_panic_hook`]) or a `diam-par` worker job
//! panics ([`record_worker_panic`]). The dump is schema-versioned
//! ([`CRASH_SCHEMA_VERSION`]) and rendered by `diam-trace postmortem`.
//!
//! Nothing here produces output on a healthy run, whatever the `--obs` mode.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::{json, ring, Value};

/// Version stamp of the crash-dump JSON schema (`crash_schema` key).
pub const CRASH_SCHEMA_VERSION: u64 = 1;

/// Ring entries included in a dump (the most recent across all threads).
pub const DUMP_RING_EVENTS: usize = 64;

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Open-span stacks
// ---------------------------------------------------------------------------

/// One open span as tracked for crash dumps.
#[derive(Debug, Clone)]
struct OpenSpan {
    id: u64,
    name: &'static str,
    detail: String,
}

struct ThreadSpans {
    worker: AtomicU32,
    epoch: AtomicU64,
    stack: Mutex<Vec<OpenSpan>>,
}

static SPAN_EPOCH: AtomicU64 = AtomicU64::new(0);
static SPAN_STACKS: Mutex<Vec<Arc<ThreadSpans>>> = Mutex::new(Vec::new());

thread_local! {
    static TL_SPANS: std::sync::OnceLock<Arc<ThreadSpans>> = const { std::sync::OnceLock::new() };
    static TL_DUMPED: Cell<bool> = const { Cell::new(false) };
}

/// Invalidate every thread's crash span stack (a new session started; stale
/// stacks from the previous session must not appear in its dumps).
pub(crate) fn reset_span_stacks() {
    SPAN_EPOCH.fetch_add(1, Ordering::Release);
}

fn with_thread_spans(f: impl FnOnce(&ThreadSpans)) {
    let _ = TL_SPANS.try_with(|cell| {
        let ts = cell.get_or_init(|| {
            let ts = Arc::new(ThreadSpans {
                worker: AtomicU32::new(0),
                epoch: AtomicU64::new(SPAN_EPOCH.load(Ordering::Acquire)),
                stack: Mutex::new(Vec::new()),
            });
            unpoison(SPAN_STACKS.lock()).push(ts.clone());
            ts
        });
        let epoch = SPAN_EPOCH.load(Ordering::Acquire);
        if ts.epoch.swap(epoch, Ordering::AcqRel) != epoch {
            unpoison(ts.stack.lock()).clear();
        }
        f(ts);
    });
}

/// Formats a span's open fields into a compact `k=v k=v` detail string.
pub(crate) fn format_detail(fields: &[(&'static str, Value)]) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.join(" ")
}

/// Records a span open on this thread's crash stack.
pub(crate) fn on_span_open(id: u64, name: &'static str, detail: String) {
    with_thread_spans(|ts| {
        ts.worker.store(ring::ring_worker(), Ordering::Relaxed);
        unpoison(ts.stack.lock()).push(OpenSpan { id, name, detail });
    });
}

/// Records a span close (pops by id; tolerates out-of-order drops).
pub(crate) fn on_span_close(id: u64) {
    with_thread_spans(|ts| {
        let mut stack = unpoison(ts.stack.lock());
        if let Some(pos) = stack.iter().rposition(|s| s.id == id) {
            stack.remove(pos);
        }
    });
}

/// Every thread's currently open span stack (worker tag, innermost last),
/// non-empty stacks only. Safe from any thread, including a panic hook.
pub fn open_span_stacks() -> Vec<(u32, Vec<(&'static str, String)>)> {
    let epoch = SPAN_EPOCH.load(Ordering::Acquire);
    let stacks: Vec<Arc<ThreadSpans>> = unpoison(SPAN_STACKS.lock()).clone();
    let mut out = Vec::new();
    for ts in stacks {
        if ts.epoch.load(Ordering::Acquire) != epoch {
            continue;
        }
        let stack = unpoison(ts.stack.lock());
        if stack.is_empty() {
            continue;
        }
        out.push((
            ts.worker.load(Ordering::Relaxed),
            stack.iter().map(|s| (s.name, s.detail.clone())).collect(),
        ));
    }
    out.sort_by_key(|(w, _)| *w);
    out
}

// ---------------------------------------------------------------------------
// Crash context
// ---------------------------------------------------------------------------

static MANIFEST_JSON: Mutex<Option<String>> = Mutex::new(None);
static CRASH_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Stashes the active session's pre-rendered manifest JSON object so dumps
/// can name the run without touching the session from a panic hook.
pub(crate) fn set_manifest_json(rendered: String) {
    *unpoison(MANIFEST_JSON.lock()) = Some(rendered);
}

/// Overrides where crash dumps are written (tests point this at a temp
/// directory). `None` restores the default resolution: the
/// `DIAM_CRASH_DIR` environment variable, falling back to `diam-crash`
/// under [`std::env::temp_dir`] — never the working directory.
pub fn set_crash_dir(dir: Option<PathBuf>) {
    *unpoison(CRASH_DIR.lock()) = dir;
}

/// The directory set by [`set_crash_dir`] or `DIAM_CRASH_DIR`, if any.
fn chosen_crash_dir() -> Option<PathBuf> {
    let dir = unpoison(CRASH_DIR.lock()).clone();
    dir.or_else(|| {
        std::env::var_os("DIAM_CRASH_DIR")
            .filter(|d| !d.is_empty())
            .map(PathBuf::from)
    })
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn render_dump(
    id: &str,
    reason: &str,
    message: &str,
    location: Option<&str>,
    thread_name: &str,
    worker: u32,
    job: Option<u64>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"crash_schema\":{CRASH_SCHEMA_VERSION},\"id\":"
    ));
    json::write_escaped(&mut out, id);
    out.push_str(",\"reason\":");
    json::write_escaped(&mut out, reason);
    out.push_str(",\"message\":");
    json::write_escaped(&mut out, message);
    out.push_str(",\"location\":");
    match location {
        Some(loc) => json::write_escaped(&mut out, loc),
        None => out.push_str("null"),
    }
    out.push_str(",\"thread\":");
    json::write_escaped(&mut out, thread_name);
    out.push_str(&format!(",\"worker\":{worker}"));
    if let Some(job) = job {
        out.push_str(&format!(",\"job\":{job}"));
    }
    out.push_str(&format!(",\"unix_ms\":{}", unix_ms()));

    out.push_str(",\"manifest\":");
    match unpoison(MANIFEST_JSON.lock()).clone() {
        Some(m) => out.push_str(&m),
        None => out.push_str("null"),
    }

    out.push_str(",\"open_spans\":[");
    for (i, (w, stack)) in open_span_stacks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"worker\":{w},\"stack\":["));
        for (j, (name, detail)) in stack.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, name);
            out.push_str(",\"detail\":");
            json::write_escaped(&mut out, detail);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');

    let snap = ring::snapshot_all();
    let skip = snap.entries.len().saturating_sub(DUMP_RING_EVENTS);
    out.push_str(&format!(
        ",\"ring\":{{\"dropped\":{},\"torn\":{},\"events\":[",
        snap.dropped + skip as u64,
        snap.torn
    ));
    for (i, e) in snap.entries.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"ts_ns\":{},\"worker\":{},\"kind\":",
            e.seq, e.ts_ns, e.worker
        ));
        json::write_escaped(&mut out, e.kind.name());
        out.push_str(",\"name\":");
        json::write_escaped(&mut out, e.name);
        out.push_str(&format!(",\"a\":{},\"b\":{}}}", e.a, e.b));
    }
    out.push_str("]}");

    let t = crate::alloc::totals();
    out.push_str(&format!(
        ",\"alloc\":{{\"enabled\":{},\"live_bytes\":{},\"peak_live_bytes\":{},\
         \"allocs\":{},\"frees\":{},\"alloc_bytes\":{},\"freed_bytes\":{}}}",
        crate::alloc::mem_enabled(),
        crate::alloc::live_bytes(),
        crate::alloc::peak_live_bytes(),
        t.allocs,
        t.frees,
        t.alloc_bytes,
        t.freed_bytes,
    ));
    if let Some(kb) = crate::current_rss_kb() {
        out.push_str(&format!(",\"rss_kb\":{kb}"));
    }
    out.push_str("}\n");
    out
}

/// Creates `<dir>/<id>.json` exclusively (mode 0600), so a file or symlink
/// already planted at that name is never followed or truncated. `shared`
/// marks the temp-dir fallback, which another user may have made first: it
/// is used only if it is a real directory (not a symlink) owned by this
/// user, and otherwise a private `<dir>-<pid>` beside it takes its place.
fn create_dump_file(dir: &Path, shared: bool, id: &str) -> std::io::Result<(PathBuf, File)> {
    let mut dir = dir.to_path_buf();
    if !shared {
        std::fs::create_dir_all(&dir)?;
    } else if !private_dir(&dir) {
        let mut own = dir.into_os_string();
        own.push(format!("-{}", std::process::id()));
        dir = PathBuf::from(own);
        if !private_dir(&dir) {
            let why = format!("{} is not a private directory", dir.display());
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                why,
            ));
        }
    }
    let path = dir.join(format!("{id}.json"));
    let mut options = OpenOptions::new();
    options.write(true).create_new(true);
    #[cfg(unix)]
    std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
    let file = options.open(&path)?;
    Ok((path, file))
}

/// Creates `dir` (mode 0700) if it is missing, and reports whether it is
/// now a real directory owned by this process's user.
#[cfg(unix)]
fn private_dir(dir: &Path) -> bool {
    use std::os::unix::fs::{DirBuilderExt, MetadataExt};
    let _ = std::fs::DirBuilder::new()
        .recursive(true)
        .mode(0o700)
        .create(dir);
    // `/proc/self` belongs to the process's effective user.
    match (
        std::fs::symlink_metadata(dir),
        std::fs::metadata("/proc/self"),
    ) {
        (Ok(d), Ok(me)) => d.is_dir() && d.uid() == me.uid(),
        _ => false,
    }
}

#[cfg(not(unix))]
fn private_dir(dir: &Path) -> bool {
    std::fs::create_dir_all(dir).is_ok()
}

/// Writes one dump and reports its path (or the failure) on stderr.
fn write_dump(
    reason: &str,
    message: &str,
    location: Option<&str>,
    worker: u32,
    job: Option<u64>,
) -> Option<PathBuf> {
    let n = DUMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = format!("crash-{}-{}-{n}", unix_ms(), std::process::id());
    let thread = std::thread::current();
    let thread_name = thread.name().unwrap_or("unnamed").to_string();
    let body = render_dump(&id, reason, message, location, &thread_name, worker, job);
    let file = match chosen_crash_dir() {
        Some(dir) => create_dump_file(&dir, false, &id),
        // The fallback is shared by every user of the machine.
        None => create_dump_file(&std::env::temp_dir().join("diam-crash"), true, &id),
    };
    match file.and_then(|(path, mut file)| file.write_all(body.as_bytes()).map(|()| path)) {
        Ok(path) => {
            eprintln!("diam-obs: crash dump written to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("diam-obs: cannot write crash dump: {e}");
            None
        }
    }
}

/// Extracts a printable message from a panic payload.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs the process panic hook (idempotent). The hook writes a crash
/// dump — manifest, open-span stacks, last ring events, allocation counters,
/// panic payload — then chains to the previously installed hook, so the
/// standard panic message still prints.
pub fn install_panic_hook() {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let already = TL_DUMPED.try_with(|c| c.replace(true)).unwrap_or(true);
        if !already {
            let message = payload_message(info.payload());
            let location = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()));
            ring::note(ring::RingKind::Panic, "panic", 0, 0);
            let worker = ring::ring_worker();
            write_dump("panic", &message, location.as_deref(), worker, None);
            // Re-arm: a caught-and-handled panic must not suppress the dump
            // of a later, genuinely fatal one on this thread.
            let _ = TL_DUMPED.try_with(|c| c.set(false));
        }
        prev(info);
    }));
}

/// Records a `diam-par` worker-job panic: a flight-recorder entry plus a
/// crash dump naming the worker and job, unless the process panic hook
/// already dumped this panic on this thread. Returns the dump path when one
/// was written. Called by the executor between catching and re-raising.
pub fn record_worker_panic(
    worker: u32,
    job: u64,
    payload: &(dyn std::any::Any + Send),
) -> Option<PathBuf> {
    ring::note(
        ring::RingKind::Panic,
        "par.worker_panic",
        job,
        u64::from(worker),
    );
    if HOOK_INSTALLED.load(Ordering::SeqCst) {
        // The hook ran at panic time on this same thread and wrote the dump.
        return None;
    }
    let message = payload_message(payload);
    write_dump("worker_panic", &message, None, worker, Some(job))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_formats_all_value_kinds() {
        let detail = format_detail(&[
            ("target", Value::U64(3)),
            ("delta", Value::I64(-2)),
            ("ratio", Value::F64(0.5)),
            ("hit", Value::Bool(true)),
            ("engine", Value::Str("bdd".to_string())),
        ]);
        assert_eq!(detail, "target=3 delta=-2 ratio=0.5 hit=true engine=bdd");
    }

    #[test]
    fn span_stack_tracks_open_and_close() {
        // Sessions reset the span-stack epoch; hold the install lock so a
        // concurrently running session test cannot clear our stack mid-test.
        let _serial = crate::unpoison(crate::INSTALL.lock());
        reset_span_stacks();
        on_span_open(101, "crash.test.outer", "target=1".to_string());
        on_span_open(102, "crash.test.inner", String::new());
        let stacks = open_span_stacks();
        let mine = stacks
            .iter()
            .find(|(_, s)| s.iter().any(|(n, _)| *n == "crash.test.outer"))
            .expect("this thread's stack is visible");
        assert_eq!(mine.1.len(), 2);
        assert_eq!(mine.1[1].0, "crash.test.inner");
        on_span_close(102);
        on_span_close(101);
        let stacks = open_span_stacks();
        assert!(!stacks
            .iter()
            .any(|(_, s)| s.iter().any(|(n, _)| *n == "crash.test.outer")));
    }

    /// Dumps never follow a planted symlink: not one standing in for the
    /// shared temp-dir fallback (the dump goes to a private directory
    /// beside it), and not one planted at a dump's own name.
    #[cfg(unix)]
    #[test]
    fn planted_symlinks_are_not_followed() {
        use std::os::unix::fs::{symlink, MetadataExt};
        let root = std::env::temp_dir().join(format!("diam_crash_plant_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let victim = root.join("victim");
        std::fs::create_dir_all(&victim).unwrap();
        let shared = root.join("diam-crash");
        symlink(&victim, &shared).unwrap();

        let fresh = root.join("fresh");
        let (path, _) = create_dump_file(&fresh, true, "crash-0").expect("dump created");
        assert_eq!(path, fresh.join("crash-0.json"));
        assert_eq!(std::fs::metadata(&fresh).unwrap().mode() & 0o777, 0o700);

        let (path, _) = create_dump_file(&shared, true, "crash-a").expect("dump created");
        let own = root.join(format!("diam-crash-{}", std::process::id()));
        assert_eq!(path, own.join("crash-a.json"));
        assert_eq!(std::fs::metadata(&own).unwrap().mode() & 0o777, 0o700);
        assert_eq!(std::fs::metadata(&path).unwrap().mode() & 0o777, 0o600);
        // A second dump of the same process reuses its private directory.
        let (again, _) = create_dump_file(&shared, true, "crash-b").expect("dump created");
        assert_eq!(again, own.join("crash-b.json"));

        symlink(victim.join("owned"), own.join("crash-c.json")).unwrap();
        assert!(create_dump_file(&own, false, "crash-c").is_err());
        assert_eq!(std::fs::read_dir(&victim).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn worker_panic_writes_a_schema_valid_dump() {
        let _serial = crate::unpoison(crate::INSTALL.lock());
        let dir = std::env::temp_dir().join(format!("diam_crash_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_crash_dir(Some(dir.clone()));
        reset_span_stacks();
        on_span_open(7, "crash.test.span", "index=4".to_string());
        let payload: Box<dyn std::any::Any + Send> = Box::new("unit boom".to_string());
        let path = record_worker_panic(3, 4, payload.as_ref()).expect("dump written");
        on_span_close(7);
        set_crash_dir(None);
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let v = json::parse(text.trim()).expect("dump is valid JSON");
        assert_eq!(v.get("crash_schema").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            v.get("reason").and_then(|x| x.as_str()),
            Some("worker_panic")
        );
        assert_eq!(v.get("message").and_then(|x| x.as_str()), Some("unit boom"));
        assert_eq!(v.get("worker").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("job").and_then(|x| x.as_u64()), Some(4));
        assert!(v.get("ring").and_then(|r| r.get("events")).is_some());
        assert!(v.get("alloc").and_then(|a| a.get("allocs")).is_some());
        let spans = v.get("open_spans").and_then(|x| x.as_array()).unwrap();
        assert!(spans.iter().any(|s| {
            s.get("stack")
                .and_then(|st| st.as_array())
                .is_some_and(|st| {
                    st.iter()
                        .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("crash.test.span"))
                })
        }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
