//! Post-mortem rendering of `diam-obs` crash dumps.
//!
//! The `diam_obs::crash` module writes a schema-versioned JSON dump when a
//! process panics (panic hook) or a `diam-par` worker job panics — manifest,
//! per-thread open-span stacks, the last recorded events, allocator
//! counters, and the panic payload. This module is the reader side:
//! [`CrashDump::parse`] strictly validates a dump against that schema and
//! [`render_postmortem`] turns it into the human report behind
//! `diam-trace postmortem <dump>` — which worker died in which job, in which
//! span stack (target / depth), what the recorder saw last, and what the
//! allocation state looked like at death.

use diam_obs::json::{self, JsonValue};

/// The crash-dump schema version this reader understands (must match
/// `diam_obs::crash::CRASH_SCHEMA_VERSION`).
pub const SUPPORTED_CRASH_SCHEMA: u64 = 2;

/// The session manifest embedded in a dump (what run was executing).
#[derive(Debug, Clone, PartialEq)]
pub struct DumpManifest {
    /// Tool name (`table1`, `diam`, ...).
    pub tool: String,
    /// Build profile string.
    pub build: String,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Input path, when the run had one.
    pub input: Option<String>,
    /// Session start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
}

/// One thread's open-span stack at crash time (outermost first).
#[derive(Debug, Clone, PartialEq)]
pub struct DumpSpanStack {
    /// `diam-par` worker tag (0 = the main/untagged thread).
    pub worker: u64,
    /// `(name, detail)` pairs, innermost span last.
    pub stack: Vec<(String, String)>,
}

/// One recorded event from the dump's tail, as the JSONL trace writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpEvent {
    /// Global sequence number.
    pub seq: u64,
    /// Nanoseconds since session start.
    pub ts: u64,
    /// Worker tag of the recording thread.
    pub worker: u64,
    /// `open`, `close` or `point`.
    pub ev: String,
    /// The span the event opens or closes, or (points) the one it is in.
    pub span: u64,
    /// The enclosing span of an `open` event.
    pub parent: Option<u64>,
    /// The duration of a `close` event's span.
    pub dur_ns: Option<u64>,
    /// Event name.
    pub name: String,
    /// The event's fields as `key=value`, in key order.
    pub fields: Vec<String>,
}

/// The recorded-event tail embedded in a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpEvents {
    /// Events recorded by the threads the dump could read.
    pub recorded: u64,
    /// Threads whose record stayed locked at the crash, so it is missing.
    pub unread_threads: u64,
    /// The most recent events, oldest first.
    pub tail: Vec<DumpEvent>,
}

/// Allocator counters at crash time.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpAlloc {
    /// Whether `--mem on` accounting was active.
    pub enabled: bool,
    /// Live (allocated minus freed) bytes.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u64,
    /// Total allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub freed_bytes: u64,
}

/// A parsed, schema-validated crash dump.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashDump {
    /// Dump id (`crash-<unix_ms>-<pid>-<n>`).
    pub id: String,
    /// `panic` (process panic hook) or `worker_panic` (executor-caught).
    pub reason: String,
    /// The panic payload message.
    pub message: String,
    /// `file:line` of the panic site, when the hook saw one.
    pub location: Option<String>,
    /// Name of the panicking thread.
    pub thread: String,
    /// `diam-par` worker tag of the panicking thread (0 = untagged).
    pub worker: u64,
    /// Job index, when the thread was running a `diam-par` job.
    pub job: Option<u64>,
    /// Dump time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The session manifest, when a session was installed.
    pub manifest: Option<DumpManifest>,
    /// Per-thread open-span stacks.
    pub open_spans: Vec<DumpSpanStack>,
    /// The last recorded events.
    pub events: DumpEvents,
    /// Allocator counters.
    pub alloc: DumpAlloc,
    /// Resident set size at crash time, when readable.
    pub rss_kb: Option<u64>,
}

fn req<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("key `{key}` must be an unsigned integer"))
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| format!("key `{key}` must be a string"))?
        .to_string())
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match req(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("key `{key}` must be a boolean")),
    }
}

fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("key `{key}` must be a string or null")),
    }
}

fn parse_manifest(v: &JsonValue) -> Result<DumpManifest, String> {
    let args = req(v, "args")?
        .as_array()
        .ok_or("manifest key `args` must be an array")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_string)
                .ok_or_else(|| "manifest `args` entries must be strings".to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(DumpManifest {
        tool: req_str(v, "tool")?,
        build: req_str(v, "build")?,
        args,
        input: opt_str(v, "input")?,
        started_unix_ms: req_u64(v, "started_unix_ms")?,
    })
}

fn parse_open_spans(v: &JsonValue) -> Result<Vec<DumpSpanStack>, String> {
    let arr = req(v, "open_spans")?
        .as_array()
        .ok_or("key `open_spans` must be an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for entry in arr {
        let stack = req(entry, "stack")?
            .as_array()
            .ok_or("open_spans key `stack` must be an array")?
            .iter()
            .map(|s| Ok((req_str(s, "name")?, req_str(s, "detail")?)))
            .collect::<Result<Vec<(String, String)>, String>>()?;
        out.push(DumpSpanStack {
            worker: req_u64(entry, "worker")?,
            stack,
        });
    }
    Ok(out)
}

/// A field value as `key=value` shows it.
fn show(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(i) => i.to_string(),
        JsonValue::Float(f) => format!("{f}"),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Array(_) => "[…]".to_string(),
        JsonValue::Object(_) => "{…}".to_string(),
    }
}

fn parse_event(e: &JsonValue) -> Result<DumpEvent, String> {
    let ev = req_str(e, "ev")?;
    let (parent, dur_ns) = match ev.as_str() {
        "open" => (Some(req_u64(e, "parent")?), None),
        "close" => (None, Some(req_u64(e, "dur_ns")?)),
        "point" => (None, None),
        _ => return Err(format!("unknown event kind `{ev}`")),
    };
    let JsonValue::Object(fields) = req(e, "fields")? else {
        return Err("key `fields` must be an object".into());
    };
    Ok(DumpEvent {
        seq: req_u64(e, "seq")?,
        ts: req_u64(e, "ts")?,
        worker: req_u64(e, "worker")?,
        ev,
        span: req_u64(e, "span")?,
        parent,
        dur_ns,
        name: req_str(e, "name")?,
        fields: fields
            .iter()
            .map(|(k, v)| format!("{k}={}", show(v)))
            .collect(),
    })
}

fn parse_events(v: &JsonValue) -> Result<DumpEvents, String> {
    let events = req(v, "events")?;
    let tail = req(events, "tail")?
        .as_array()
        .ok_or("events key `tail` must be an array")?
        .iter()
        .map(parse_event)
        .collect::<Result<Vec<DumpEvent>, String>>()?;
    Ok(DumpEvents {
        recorded: req_u64(events, "recorded")?,
        unread_threads: req_u64(events, "unread_threads")?,
        tail,
    })
}

fn parse_alloc(v: &JsonValue) -> Result<DumpAlloc, String> {
    let a = req(v, "alloc")?;
    Ok(DumpAlloc {
        enabled: req_bool(a, "enabled")?,
        live_bytes: req_u64(a, "live_bytes")?,
        peak_live_bytes: req_u64(a, "peak_live_bytes")?,
        allocs: req_u64(a, "allocs")?,
        frees: req_u64(a, "frees")?,
        alloc_bytes: req_u64(a, "alloc_bytes")?,
        freed_bytes: req_u64(a, "freed_bytes")?,
    })
}

impl CrashDump {
    /// Parses and strictly validates one crash-dump JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first schema violation: unparsable
    /// JSON, a missing or mistyped key, an unsupported `crash_schema`, or
    /// an unknown `reason`.
    pub fn parse(text: &str) -> Result<CrashDump, String> {
        let v = json::parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
        if !v.is_object() {
            return Err("crash dump must be a JSON object".into());
        }
        let schema = req_u64(&v, "crash_schema")?;
        if schema != SUPPORTED_CRASH_SCHEMA {
            return Err(format!(
                "unsupported crash schema {schema} (this reader understands {SUPPORTED_CRASH_SCHEMA})"
            ));
        }
        let reason = req_str(&v, "reason")?;
        if reason != "panic" && reason != "worker_panic" {
            return Err(format!(
                "unknown reason `{reason}` (expected `panic` or `worker_panic`)"
            ));
        }
        let manifest = match req(&v, "manifest")? {
            JsonValue::Null => None,
            m => Some(parse_manifest(m).map_err(|e| format!("manifest: {e}"))?),
        };
        let job = match v.get("job") {
            None => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or_else(|| "key `job` must be an unsigned integer".to_string())?,
            ),
        };
        let rss_kb = match v.get("rss_kb") {
            None => None,
            Some(r) => Some(
                r.as_u64()
                    .ok_or_else(|| "key `rss_kb` must be an unsigned integer".to_string())?,
            ),
        };
        Ok(CrashDump {
            id: req_str(&v, "id")?,
            reason,
            message: req_str(&v, "message")?,
            location: opt_str(&v, "location")?,
            thread: req_str(&v, "thread")?,
            worker: req_u64(&v, "worker")?,
            job,
            unix_ms: req_u64(&v, "unix_ms")?,
            manifest,
            open_spans: parse_open_spans(&v)?,
            events: parse_events(&v)?,
            alloc: parse_alloc(&v)?,
            rss_kb,
        })
    }
}

fn fmt_mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Renders a validated crash dump as the `diam-trace postmortem` report.
pub fn render_postmortem(dump: &CrashDump) -> String {
    let mut out = String::new();
    out.push_str(&format!("crash report {}\n", dump.id));
    match (dump.reason.as_str(), dump.job) {
        ("worker_panic", Some(job)) => out.push_str(&format!(
            "reason    worker_panic — worker {} died in job {}\n",
            dump.worker, job
        )),
        ("worker_panic", None) => out.push_str(&format!(
            "reason    worker_panic — worker {} died\n",
            dump.worker
        )),
        (_, Some(job)) => out.push_str(&format!(
            "reason    panic on worker {} in job {} (thread `{}`)\n",
            dump.worker, job, dump.thread
        )),
        (_, None) => out.push_str(&format!(
            "reason    panic on worker {} (thread `{}`)\n",
            dump.worker, dump.thread
        )),
    }
    out.push_str(&format!("message   {}\n", dump.message));
    if let Some(loc) = &dump.location {
        out.push_str(&format!("location  {loc}\n"));
    }
    out.push_str(&format!("unix_ms   {}\n", dump.unix_ms));
    match &dump.manifest {
        Some(m) => {
            out.push_str(&format!("run       {} [{}]", m.tool, m.build));
            if !m.args.is_empty() {
                out.push_str(&format!(" args: {}", m.args.join(" ")));
            }
            if let Some(input) = &m.input {
                out.push_str(&format!(" input: {input}"));
            }
            out.push('\n');
        }
        None => out.push_str("run       (no session manifest)\n"),
    }

    if dump.alloc.enabled {
        out.push_str(&format!(
            "allocator live {} (peak {}), {} allocs / {} frees, {} allocated / {} freed\n",
            fmt_mib(dump.alloc.live_bytes),
            fmt_mib(dump.alloc.peak_live_bytes),
            dump.alloc.allocs,
            dump.alloc.frees,
            fmt_mib(dump.alloc.alloc_bytes),
            fmt_mib(dump.alloc.freed_bytes),
        ));
    } else {
        out.push_str("allocator accounting off (--mem off)\n");
    }
    if let Some(kb) = dump.rss_kb {
        out.push_str(&format!("rss       {:.1} MiB\n", kb as f64 / 1024.0));
    }

    out.push_str("\nopen spans at crash (innermost last):\n");
    if dump.open_spans.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    for stack in &dump.open_spans {
        let who = if stack.worker == dump.worker {
            format!("worker {} <- panicking thread", stack.worker)
        } else {
            format!("worker {}", stack.worker)
        };
        out.push_str(&format!("  {who}:\n"));
        for (depth, (name, detail)) in stack.stack.iter().enumerate() {
            let indent = "  ".repeat(depth + 2);
            if detail.is_empty() {
                out.push_str(&format!("{indent}{name}\n"));
            } else {
                out.push_str(&format!("{indent}{name} ({detail})\n"));
            }
        }
    }

    let events = &dump.events;
    out.push_str(&format!(
        "\nrecent events (last {} of {} recorded",
        events.tail.len(),
        events.recorded
    ));
    if events.unread_threads > 0 {
        out.push_str(&format!(
            "; {} thread(s) busy at the crash, not read",
            events.unread_threads
        ));
    }
    out.push_str("):\n");
    if events.tail.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    for e in &events.tail {
        out.push_str(&format!(
            "  seq {:>6}  {:>12}ns  w{}  {:<5}  {} span={}",
            e.seq, e.ts, e.worker, e.ev, e.name, e.span
        ));
        if let Some(parent) = e.parent {
            out.push_str(&format!(" parent={parent}"));
        }
        if let Some(dur_ns) = e.dur_ns {
            out.push_str(&format!(" dur_ns={dur_ns}"));
        }
        if !e.fields.is_empty() {
            out.push_str(&format!(" ({})", e.fields.join(" ")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_dump() -> String {
        concat!(
            "{\"crash_schema\":2,\"id\":\"crash-1-2-0\",\"reason\":\"worker_panic\",",
            "\"message\":\"boom\",\"location\":null,\"thread\":\"unnamed\",",
            "\"worker\":2,\"job\":7,\"unix_ms\":1000,\"manifest\":null,",
            "\"open_spans\":[{\"worker\":2,\"stack\":[{\"name\":\"bmc.check\",",
            "\"detail\":\"index=4 max_depth=20\"}]}],",
            "\"events\":{\"recorded\":1,\"unread_threads\":0,\"tail\":[",
            "{\"ts\":10,\"seq\":1,\"worker\":2,\"ev\":\"open\",\"span\":1,",
            "\"parent\":0,\"name\":\"bmc.check\",\"fields\":{\"index\":4}}]},",
            "\"alloc\":{\"enabled\":false,\"live_bytes\":0,\"peak_live_bytes\":0,",
            "\"allocs\":0,\"frees\":0,\"alloc_bytes\":0,\"freed_bytes\":0}}"
        )
        .to_string()
    }

    #[test]
    fn parses_and_renders_a_minimal_dump() {
        let dump = CrashDump::parse(&minimal_dump()).expect("valid dump");
        assert_eq!(dump.reason, "worker_panic");
        assert_eq!(dump.job, Some(7));
        assert_eq!(dump.open_spans[0].stack[0].0, "bmc.check");
        let text = render_postmortem(&dump);
        assert!(text.contains("worker 2 died in job 7"), "{text}");
        assert!(text.contains("bmc.check (index=4 max_depth=20)"), "{text}");
        assert!(
            text.contains("w2  open   bmc.check span=1 parent=0 (index=4)"),
            "{text}"
        );
        assert!(text.contains("allocator accounting off"), "{text}");
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(CrashDump::parse("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        for schema in [1, 99] {
            let wrong = minimal_dump().replacen(
                "\"crash_schema\":2",
                &format!("\"crash_schema\":{schema}"),
                1,
            );
            assert!(CrashDump::parse(&wrong)
                .unwrap_err()
                .contains(&format!("unsupported crash schema {schema}")));
        }
        let bad_reason = minimal_dump().replacen("worker_panic", "oom", 1);
        assert!(CrashDump::parse(&bad_reason)
            .unwrap_err()
            .contains("unknown reason"));
        let missing = minimal_dump().replacen("\"message\":\"boom\",", "", 1);
        assert!(CrashDump::parse(&missing)
            .unwrap_err()
            .contains("missing key `message`"));
        let bad_event = minimal_dump().replacen("\"ev\":\"open\"", "\"ev\":\"span_open\"", 1);
        assert!(CrashDump::parse(&bad_event)
            .unwrap_err()
            .contains("unknown event kind `span_open`"));
        let orphan = minimal_dump().replacen("\"parent\":0,", "", 1);
        assert!(CrashDump::parse(&orphan)
            .unwrap_err()
            .contains("missing key `parent`"));
        let bad_alloc = minimal_dump().replacen("\"enabled\":false", "\"enabled\":3", 1);
        assert!(CrashDump::parse(&bad_alloc)
            .unwrap_err()
            .contains("`enabled` must be a boolean"));
    }

    #[test]
    fn accepts_optional_manifest_and_rss() {
        let with = minimal_dump()
            .replacen(
                "\"manifest\":null",
                concat!(
                    "\"manifest\":{\"tool\":\"table1\",\"args\":[\"--jobs\",\"3\"],",
                    "\"input\":null,\"options\":{},\"build\":\"release\",",
                    "\"started_unix_ms\":5}"
                ),
                1,
            )
            .replacen("\"unix_ms\":1000", "\"unix_ms\":1000,\"rss_kb\":2048", 1);
        let dump = CrashDump::parse(&with).expect("valid dump");
        assert_eq!(dump.manifest.as_ref().unwrap().tool, "table1");
        assert_eq!(dump.rss_kb, Some(2048));
        let text = render_postmortem(&dump);
        assert!(
            text.contains("run       table1 [release] args: --jobs 3"),
            "{text}"
        );
        assert!(text.contains("rss       2.0 MiB"), "{text}");
    }
}
