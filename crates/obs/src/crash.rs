//! Crash forensics: panic hooks and post-mortem dump files.
//!
//! A long-lived run that dies must explain itself from an artifact, not a
//! scrollback. A dump reads the installed session's manifest, every
//! recording thread's record (its open-span stack and its last events), the
//! worker tag of the dying thread and the allocator counters, and is written
//! to `<temp dir>/diam-crash/<id>.json` (see [`set_crash_dir`]) when the
//! process panics ([`install_panic_hook`]) or a `diam-par` worker job
//! panics ([`record_worker_panic`]). The dump is schema-versioned
//! ([`CRASH_SCHEMA_VERSION`]) and rendered by `diam-trace postmortem`.
//!
//! Nothing here produces output on a healthy run, whatever the `--obs` mode.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

use crate::{json, unpoison, worker_tag, Event, RECORDER};

/// Version stamp of the crash-dump JSON schema (`crash_schema` key).
pub const CRASH_SCHEMA_VERSION: u64 = 2;

/// Recorded events included in a dump (the most recent across all threads).
pub const DUMP_EVENTS: usize = 64;

thread_local! {
    static TL_DUMPED: Cell<bool> = const { Cell::new(false) };
}

/// Locks `m` unless it stays taken for about 10 ms: the panicking thread
/// may itself hold it, and a dump must never wait for that.
fn lock_briefly<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    for _ in 0..100 {
        match m.try_lock() {
            Ok(guard) => return Some(guard),
            Err(TryLockError::Poisoned(p)) => return Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    None
}

/// What a dump reads from the recorder.
#[derive(Default)]
struct Records {
    /// Each thread's open spans as `(name, detail)`, outermost first, by
    /// worker; threads with no open span are left out.
    stacks: Vec<(u32, Vec<(&'static str, String)>)>,
    /// The last [`DUMP_EVENTS`] events across all threads, in `seq` order.
    tail: Vec<Event>,
    /// Events recorded by the threads that were read.
    recorded: u64,
    /// Threads whose record stayed locked, so the dump could not read it.
    unread: u64,
}

/// Reads every recording thread's record of the installed session.
fn read_records() -> Records {
    let mut out = Records::default();
    let Some(rec) = lock_briefly(&RECORDER).and_then(|r| r.clone()) else {
        return out;
    };
    let buffers = lock_briefly(&rec.buffers).map(|b| b.clone());
    for buf in buffers.unwrap_or_default() {
        let Some(buf) = lock_briefly(&buf) else {
            out.unread += 1;
            continue;
        };
        out.recorded += buf.events.len() as u64;
        let skip = buf.events.len().saturating_sub(DUMP_EVENTS);
        out.tail.extend(buf.events[skip..].iter().cloned());
        if let Some(worker) = buf.stack_worker() {
            let stack = buf.open_spans().map(|(open, _)| {
                let detail: Vec<String> = open
                    .kind
                    .fields()
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                (open.kind.name(), detail.join(" "))
            });
            out.stacks.push((worker, stack.collect()));
        }
    }
    out.stacks.sort_by_key(|(w, _)| *w);
    out.tail.sort_by_key(|e| e.seq);
    let skip = out.tail.len().saturating_sub(DUMP_EVENTS);
    out.tail.drain(..skip);
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
    (worker, job): (u32, Option<u64>),
) -> String {
    let records = read_records();
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
    for (i, (w, stack)) in records.stacks.iter().enumerate() {
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

    out.push_str(&format!(
        ",\"events\":{{\"recorded\":{},\"unread_threads\":{},\"tail\":[",
        records.recorded, records.unread
    ));
    for e in &records.tail {
        json::comma(&mut out);
        e.write_json(&mut out);
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

/// Writes one dump for the calling thread and reports its path (or the
/// failure) on stderr.
fn write_dump(reason: &str, message: &str, location: Option<&str>) -> Option<PathBuf> {
    let n = DUMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = format!("crash-{}-{}-{n}", unix_ms(), std::process::id());
    let thread = std::thread::current();
    let thread_name = thread.name().unwrap_or("unnamed").to_string();
    let body = render_dump(&id, reason, message, location, &thread_name, worker_tag());
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
/// dump — manifest, open-span stacks, last recorded events, allocation
/// counters, panic payload, and the thread's worker and job — then chains to
/// the previously installed hook, so the standard panic message still
/// prints.
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
            write_dump("panic", &message, location.as_deref());
            // Re-arm: a caught-and-handled panic must not suppress the dump
            // of a later, genuinely fatal one on this thread.
            let _ = TL_DUMPED.try_with(|c| c.set(false));
        }
        prev(info);
    }));
}

/// Records a `diam-par` worker-job panic: a crash dump naming the worker
/// and job of the calling thread (see [`crate::set_worker`]), unless the
/// process panic hook already dumped this panic on this thread. Returns the
/// dump path when one was written. Called by the executor between catching
/// and re-raising.
pub fn record_worker_panic(payload: &(dyn std::any::Any + Send)) -> Option<PathBuf> {
    if HOOK_INSTALLED.load(Ordering::SeqCst) {
        // The hook ran at panic time on this same thread and wrote the dump.
        return None;
    }
    write_dump("worker_panic", &payload_message(payload), None)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A dump's open-span stacks as `w<worker>: name(detail) > …` lines.
    fn stack_lines(dump: &json::JsonValue) -> Vec<String> {
        fn str_at<'a>(v: &'a json::JsonValue, key: &str) -> &'a str {
            v.get(key).and_then(|x| x.as_str()).unwrap()
        }
        let stacks = dump.get("open_spans").and_then(|x| x.as_array()).unwrap();
        let line = |s: &json::JsonValue| {
            let spans = s.get("stack").and_then(|x| x.as_array()).unwrap();
            let spans: Vec<String> = spans
                .iter()
                .map(|e| format!("{}({})", str_at(e, "name"), str_at(e, "detail")))
                .collect();
            let worker = s.get("worker").and_then(|w| w.as_u64()).unwrap();
            format!("w{worker}: {}", spans.join(" > "))
        };
        stacks.iter().map(line).collect()
    }

    /// Two threads hold open spans while one of them records a worker
    /// panic: the dump names that thread's worker and job, and shows both
    /// stacks, with their open fields as details, and their open events.
    #[test]
    fn worker_panic_dump_shows_every_open_stack() {
        use crate::{set_worker, span};
        let dir = std::env::temp_dir().join(format!("diam_crash_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_crash_dir(Some(dir.clone()));
        let session = crate::tests::quiet_session();
        let barrier = std::sync::Barrier::new(2);
        let path = std::thread::scope(|s| {
            s.spawn(|| {
                set_worker(2, Some(8));
                let _sp = span!("sibling", target = "t8", ratio = 0.5, hit = true);
                barrier.wait(); // both stacks are open
                barrier.wait(); // the dump is written
            });
            let dying = s.spawn(|| {
                set_worker(1, Some(4));
                let _outer = span!("outer", index = 4u64, delta = -2i64);
                let _inner = span!("inner");
                barrier.wait();
                let path = record_worker_panic(&"unit boom");
                barrier.wait();
                path
            });
            dying.join().unwrap()
        });
        session.finish();
        set_crash_dir(None);
        let text = std::fs::read_to_string(path.expect("dump written")).expect("dump readable");
        let _ = std::fs::remove_dir_all(&dir);
        let v = json::parse(text.trim()).expect("dump is valid JSON");
        let u64_at = |v: &json::JsonValue, key| v.get(key).and_then(|x| x.as_u64());
        assert_eq!(u64_at(&v, "crash_schema"), Some(2));
        assert_eq!(
            v.get("reason").and_then(|x| x.as_str()),
            Some("worker_panic")
        );
        assert_eq!(v.get("message").and_then(|x| x.as_str()), Some("unit boom"));
        assert_eq!(
            (u64_at(&v, "worker"), u64_at(&v, "job")),
            (Some(1), Some(4))
        );
        assert!(v.get("alloc").and_then(|a| a.get("allocs")).is_some());
        assert_eq!(
            stack_lines(&v),
            [
                "w1: outer(index=4 delta=-2) > inner()",
                "w2: sibling(target=t8 ratio=0.5 hit=true)"
            ]
        );
        let events = v.get("events").unwrap();
        assert_eq!(u64_at(events, "recorded"), Some(3));
        assert_eq!(u64_at(events, "unread_threads"), Some(0));
        let tail = events.get("tail").and_then(|x| x.as_array()).unwrap();
        let opened = tail
            .iter()
            .filter(|e| e.get("ev").and_then(|x| x.as_str()) == Some("open"));
        assert_eq!(opened.count(), 3, "{tail:?}");
    }
}
