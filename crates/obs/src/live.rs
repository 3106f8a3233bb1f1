//! The live sinks: a watchdog that makes long runs observable while they
//! run, without touching stdout.
//!
//! When a session is installed with a live mode, every recorded event also
//! streams through a [`LiveState`]: per-worker open-span stacks are mirrored
//! as events arrive, the `par.queue_depth` gauge is mirrored into an atomic,
//! and a background thread drives two sinks:
//!
//! * **human** ([`ObsMode::Live`](crate::ObsMode::Live)) — stderr lines:
//!   heartbeats every [`LiveOptions::heartbeat`] showing each busy worker's
//!   innermost spans, the current BMC depth (from `sat.solve` point events),
//!   a naive linear ETA when the span advertises its depth range
//!   (`max_depth` / `hi` open fields); plus a one-shot stall dump of every
//!   worker's open span stack when no event has arrived for
//!   [`LiveOptions::stall`].
//! * **machine** ([`ObsMode::LiveJson`](crate::ObsMode::LiveJson) → stderr,
//!   or [`ObsConfig::live_out`](crate::ObsConfig::live_out) → a file) — the
//!   same information as schema-versioned JSONL events
//!   (`live_start` / `heartbeat` / `progress` / `stall` / `finish`, see
//!   [`LIVE_SCHEMA_VERSION`]) that a server can relay verbatim.
//!
//! The sink costs one mutex-protected stack update per event and only
//! exists in live modes; all other modes never allocate a [`LiveState`].

use crate::{json, Event, EventKind, LiveOptions, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the machine-readable live JSONL schema: every line is an
/// object with `"v"` set to this, an `"ev"` discriminator
/// (`live_start` / `heartbeat` / `progress` / `stall` / `finish`), and a
/// `"ts_ns"` timestamp (nanoseconds since session start).
pub const LIVE_SCHEMA_VERSION: u64 = 3;

/// Where the machine-readable live JSONL stream goes.
pub(crate) enum MachineSink {
    /// `--obs live-json` without a path: stream to stderr.
    Stderr,
    /// `--live-out <path>`: append to the file.
    File(Mutex<std::fs::File>),
}

/// Which sinks a [`LiveState`] drives.
pub(crate) struct SinkConfig {
    /// Human-readable stderr lines (`--obs live`).
    pub human: bool,
    /// Machine-readable JSONL stream, when configured.
    pub machine: Option<MachineSink>,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig {
            human: true,
            machine: None,
        }
    }
}

/// One mirrored open span on a worker's live stack.
struct OpenSpan {
    name: &'static str,
    /// A short human label extracted from the open fields (target name,
    /// engine, column, …), empty when none applies.
    detail: String,
    opened_ns: u64,
    /// Last depth reported by a `sat.solve` point event under this span.
    depth: Option<u64>,
    /// Final depth, when the open fields advertise one (`max_depth`/`hi`).
    max_depth: Option<u64>,
}

impl OpenSpan {
    /// Depth/ETA annotation: `Some((depth, Some((max, eta_s))))` when the
    /// span advertises its range, `Some((depth, None))` otherwise.
    fn progress(&self, now_ns: u64) -> Option<(u64, Option<(u64, f64)>)> {
        let depth = self.depth?;
        match self.max_depth {
            Some(max) if max > 0 && depth <= max => {
                let frac = (depth + 1) as f64 / (max + 1) as f64;
                let elapsed_s = now_ns.saturating_sub(self.opened_ns) as f64 / 1e9;
                let eta_s = elapsed_s * (1.0 - frac) / frac.max(1e-9);
                Some((depth, Some((max, eta_s))))
            }
            _ => Some((depth, None)),
        }
    }
}

#[derive(Default)]
struct WorkerLive {
    stack: Vec<OpenSpan>,
}

/// Shared state between the recording threads and the watchdog thread.
pub(crate) struct LiveState {
    opts: LiveOptions,
    sinks: SinkConfig,
    start: Instant,
    /// `ts_ns` of the most recent event (nanoseconds since session start).
    last_event_ns: AtomicU64,
    /// Total events seen (heartbeats stay quiet until the first one).
    events: AtomicU64,
    stop: AtomicBool,
    /// One-shot stall latch: set on the first stall detection, cleared when
    /// events resume (see [`LiveState::check_stall`]).
    stalled: AtomicBool,
    workers: Mutex<BTreeMap<u32, WorkerLive>>,
    /// Mirror of the `par.queue_depth` gauge (see `with_metric` in the
    /// crate root).
    queue_depth: AtomicI64,
    /// Last sampled `VmRSS` in KiB (0 = not sampled yet); refreshed by the
    /// watchdog on every heartbeat so live consumers see memory growth
    /// during the run, not only the final `peak_rss_kb`.
    rss_kb: AtomicU64,
}

fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fields worth showing next to a span name on a heartbeat line, in
/// preference order.
const DETAIL_KEYS: [&str; 5] = ["target", "design", "engine", "column", "index"];

fn detail_from(fields: &[(&'static str, Value)]) -> String {
    for key in DETAIL_KEYS {
        for (k, v) in fields {
            if *k == key {
                return match v {
                    Value::Str(s) => s.clone(),
                    Value::U64(n) => n.to_string(),
                    Value::I64(n) => n.to_string(),
                    Value::F64(n) => format!("{n}"),
                    Value::Bool(b) => b.to_string(),
                };
            }
        }
    }
    String::new()
}

fn field_u64(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

impl LiveState {
    pub(crate) fn new(opts: LiveOptions, sinks: SinkConfig) -> LiveState {
        LiveState {
            opts,
            sinks,
            start: Instant::now(),
            last_event_ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            workers: Mutex::new(BTreeMap::new()),
            queue_depth: AtomicI64::new(0),
            rss_kb: AtomicU64::new(0),
        }
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Mirrors one event into the per-worker stacks (called from
    /// `push_event` on the recording threads).
    pub(crate) fn on_event(&self, ev: &Event) {
        self.last_event_ns.store(ev.ts_ns, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut workers = unpoison(self.workers.lock());
        let w = workers.entry(ev.worker).or_default();
        match &ev.kind {
            EventKind::Open { name, fields, .. } => {
                w.stack.push(OpenSpan {
                    name,
                    detail: detail_from(fields),
                    opened_ns: ev.ts_ns,
                    depth: None,
                    max_depth: field_u64(fields, "max_depth").or(field_u64(fields, "hi")),
                });
            }
            EventKind::Close { name, .. } => {
                // Pop the innermost span with this name (defensive against
                // out-of-order guard drops, mirroring the recorder).
                if let Some(pos) = w.stack.iter().rposition(|s| s.name == *name) {
                    w.stack.remove(pos);
                }
            }
            EventKind::Point { name, fields, .. } => {
                if *name == "sat.solve" {
                    if let (Some(depth), Some(top)) =
                        (field_u64(fields, "depth"), w.stack.last_mut())
                    {
                        top.depth = Some(depth);
                    }
                }
            }
        }
    }

    /// Mirrors a counter/gauge update into the live atomics (called from
    /// `with_metric` with the post-update value).
    pub(crate) fn on_scalar(&self, name: &str, value: i64) {
        if name == "par.queue_depth" {
            self.queue_depth.store(value, Ordering::Relaxed);
        }
    }

    /// The deepest BMC depth any worker has reported (the depth frontier).
    fn frontier_depth(&self) -> Option<u64> {
        let workers = unpoison(self.workers.lock());
        workers
            .values()
            .flat_map(|w| w.stack.iter().filter_map(|s| s.depth))
            .max()
    }

    /// One-shot stall detection: returns the quiet time on the *first* tick
    /// past the threshold, `None` on subsequent ticks; the latch resets as
    /// soon as events resume, so a second distinct stall dumps again.
    pub(crate) fn check_stall(&self, now_ns: u64) -> Option<f64> {
        if self.events.load(Ordering::Relaxed) == 0 {
            return None; // nothing recorded yet — stay quiet
        }
        let last_ev = self.last_event_ns.load(Ordering::Relaxed);
        let quiet_ns = now_ns.saturating_sub(last_ev);
        if quiet_ns > self.opts.stall.as_nanos() as u64 {
            if !self.stalled.swap(true, Ordering::Relaxed) {
                return Some(quiet_ns as f64 / 1e9);
            }
            None
        } else {
            self.stalled.store(false, Ordering::Relaxed);
            None
        }
    }

    /// Renders the heartbeat lines for every worker with open spans, plus an
    /// RSS line once memory has been sampled.
    fn heartbeat_lines(&self, now_ns: u64) -> Vec<String> {
        let workers = unpoison(self.workers.lock());
        let mut lines = Vec::new();
        for (id, w) in workers.iter() {
            if w.stack.is_empty() {
                continue;
            }
            let label = if *id == 0 {
                "main".to_string()
            } else {
                format!("w{id}")
            };
            let path: Vec<String> = w
                .stack
                .iter()
                .map(|s| {
                    if s.detail.is_empty() {
                        s.name.to_string()
                    } else {
                        format!("{}({})", s.name, s.detail)
                    }
                })
                .collect();
            let mut line = format!(
                "diam-obs live: {:>7.1}s {label:<5} {}",
                now_ns as f64 / 1e9,
                path.join(" > ")
            );
            // Depth + ETA from the innermost span that reports progress.
            if let Some(sp) = w.stack.iter().rev().find(|s| s.depth.is_some()) {
                match sp.progress(now_ns) {
                    Some((depth, Some((max, eta_s)))) => {
                        line.push_str(&format!(" depth {depth}/{max} eta {eta_s:.1}s"));
                    }
                    Some((depth, None)) => line.push_str(&format!(" depth {depth}")),
                    None => {}
                }
            }
            lines.push(line);
            if lines.len() >= 16 {
                lines.push("diam-obs live: … (more workers elided)".to_string());
                break;
            }
        }
        drop(workers);
        let rss_kb = self.rss_kb.load(Ordering::Relaxed);
        if rss_kb > 0 {
            lines.push(format!(
                "diam-obs live: {:>7.1}s rss {:.1} MiB",
                now_ns as f64 / 1e9,
                rss_kb as f64 / 1024.0
            ));
        }
        lines
    }

    /// Renders the one-shot stall dump.
    fn stall_lines(&self, quiet_s: f64) -> Vec<String> {
        let workers = unpoison(self.workers.lock());
        let mut lines = vec![format!(
            "diam-obs live: STALL — no event for {quiet_s:.1}s; open span stacks:"
        )];
        let mut any = false;
        for (id, w) in workers.iter() {
            if w.stack.is_empty() {
                continue;
            }
            any = true;
            let label = if *id == 0 {
                "main".to_string()
            } else {
                format!("w{id}")
            };
            let path: Vec<&str> = w.stack.iter().map(|s| s.name).collect();
            lines.push(format!("diam-obs live:   {label}: {}", path.join(" > ")));
        }
        if !any {
            lines.push("diam-obs live:   (no open spans)".to_string());
        }
        lines
    }

    // --- machine-readable JSONL events -----------------------------------

    fn machine_start_json(&self) -> String {
        format!(
            "{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"live_start\",\"ts_ns\":0,\
             \"heartbeat_ms\":{},\"stall_ms\":{}}}",
            self.opts.heartbeat.as_millis(),
            self.opts.stall.as_millis()
        )
    }

    fn machine_heartbeat_json(&self, now_ns: u64) -> String {
        let mut out = format!(
            "{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"heartbeat\",\"ts_ns\":{now_ns},\"workers\":["
        );
        {
            let workers = unpoison(self.workers.lock());
            let mut first = true;
            for (id, w) in workers.iter() {
                let Some(top) = w.stack.last() else { continue };
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{{\"worker\":{id},\"span\":"));
                json::write_escaped(&mut out, top.name);
                if !top.detail.is_empty() {
                    out.push_str(",\"detail\":");
                    json::write_escaped(&mut out, &top.detail);
                }
                out.push_str(",\"stack\":[");
                for (i, s) in w.stack.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_escaped(&mut out, s.name);
                }
                out.push(']');
                if let Some(sp) = w.stack.iter().rev().find(|s| s.depth.is_some()) {
                    match sp.progress(now_ns) {
                        Some((depth, Some((max, eta_s)))) => out.push_str(&format!(
                            ",\"depth\":{depth},\"max_depth\":{max},\"eta_s\":{eta_s:.3}"
                        )),
                        Some((depth, None)) => out.push_str(&format!(",\"depth\":{depth}")),
                        None => {}
                    }
                }
                out.push('}');
            }
        }
        out.push_str(&format!(
            "],\"queue_depth\":{}",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        let rss_kb = self.rss_kb.load(Ordering::Relaxed);
        if rss_kb > 0 {
            out.push_str(&format!(",\"rss_kb\":{rss_kb}"));
        }
        out.push('}');
        out
    }

    fn machine_progress_json(&self, now_ns: u64, depth: Option<u64>) -> String {
        let mut out =
            format!("{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"progress\",\"ts_ns\":{now_ns}");
        if let Some(d) = depth {
            out.push_str(&format!(",\"depth\":{d}"));
        }
        out.push_str(&format!(
            ",\"queue_depth\":{}}}",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out
    }

    fn machine_stall_json(&self, now_ns: u64, quiet_s: f64) -> String {
        let mut out = format!(
            "{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"stall\",\"ts_ns\":{now_ns},\
             \"quiet_s\":{quiet_s:.3},\"stacks\":["
        );
        {
            let workers = unpoison(self.workers.lock());
            let mut first = true;
            for (id, w) in workers.iter() {
                if w.stack.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{{\"worker\":{id},\"stack\":["));
                for (i, s) in w.stack.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_escaped(&mut out, s.name);
                }
                out.push_str("]}");
            }
        }
        out.push_str("]}");
        out
    }

    fn machine_finish_json(&self, wall_ns: u64, events: u64) -> String {
        format!(
            "{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"finish\",\"ts_ns\":{wall_ns},\"events\":{events}}}"
        )
    }

    /// Writes one line to the machine sink, if configured. Errors are
    /// swallowed: a full disk must not take down the run being observed.
    fn write_machine(&self, line: &str) {
        match &self.sinks.machine {
            None => {}
            Some(MachineSink::Stderr) => eprintln!("{line}"),
            Some(MachineSink::File(f)) => {
                let mut f = unpoison(f.lock());
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
        }
    }

    /// Emits the final machine event (called from `Session::finish`).
    pub(crate) fn emit_finish(&self, wall_ns: u64, events: u64) {
        if self.sinks.machine.is_some() {
            self.write_machine(&self.machine_finish_json(wall_ns, events));
        }
    }
}

/// Spawns the watchdog thread for `state`; it runs until
/// [`LiveState::request_stop`] and is joined by `Session::finish`.
pub(crate) fn spawn_watchdog(state: Arc<LiveState>) -> std::thread::JoinHandle<()> {
    if state.sinks.human {
        eprintln!(
            "diam-obs live: armed — heartbeat every {:.1}s, stall threshold {:.1}s",
            state.opts.heartbeat.as_secs_f64(),
            state.opts.stall.as_secs_f64()
        );
    }
    state.write_machine(&state.machine_start_json());
    std::thread::Builder::new()
        .name("diam-obs-live".to_string())
        .spawn(move || watchdog_loop(&state))
        .expect("spawn live watchdog")
}

fn watchdog_loop(state: &LiveState) {
    let tick = state.opts.heartbeat.min(state.opts.stall).div_f64(4.0);
    let tick = tick.max(std::time::Duration::from_millis(10));
    let mut last_beat_ns = 0u64;
    let mut last_progress = None;
    while !state.stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now_ns = state.start.elapsed().as_nanos() as u64;
        if state.events.load(Ordering::Relaxed) == 0 {
            continue; // nothing recorded yet — stay quiet
        }
        if let Some(quiet_s) = state.check_stall(now_ns) {
            if state.sinks.human {
                for line in state.stall_lines(quiet_s) {
                    eprintln!("{line}");
                }
            }
            if state.sinks.machine.is_some() {
                state.write_machine(&state.machine_stall_json(now_ns, quiet_s));
            }
        }
        if state.sinks.machine.is_some() {
            // A `progress` event whenever the depth frontier moved since the
            // last tick — finer-grained than the heartbeat, but still bounded
            // by the tick rate.
            let cur = state.frontier_depth();
            if cur.is_some() && cur != last_progress {
                last_progress = cur;
                state.write_machine(&state.machine_progress_json(now_ns, cur));
            }
        }
        if now_ns.saturating_sub(last_beat_ns) >= state.opts.heartbeat.as_nanos() as u64 {
            last_beat_ns = now_ns;
            // Sample current RSS once per heartbeat: cheap (one /proc read
            // per heartbeat interval) and exported both as the `mem.rss_kb`
            // gauge and on the heartbeat lines / JSON below.
            if let Some(kb) = crate::current_rss_kb() {
                state.rss_kb.store(kb, Ordering::Relaxed);
                crate::gauge_set("mem.rss_kb", kb as i64);
            }
            if state.sinks.human {
                for line in state.heartbeat_lines(now_ns) {
                    eprintln!("{line}");
                }
            }
            if state.sinks.machine.is_some() {
                state.write_machine(&state.machine_heartbeat_json(now_ns));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, ObsMode, RunManifest, Session};
    use std::time::Duration;

    fn open_ev(
        span: u64,
        ts_ns: u64,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> Event {
        Event {
            seq: 0,
            ts_ns,
            worker: 1,
            kind: EventKind::Open {
                span,
                parent: 0,
                name,
                fields,
            },
        }
    }

    fn point_ev(
        span: u64,
        ts_ns: u64,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> Event {
        Event {
            seq: 0,
            ts_ns,
            worker: 1,
            kind: EventKind::Point { span, name, fields },
        }
    }

    /// The keys of a machine event, in sorted order.
    fn keys(v: &json::JsonValue) -> Vec<&str> {
        match v {
            json::JsonValue::Object(m) => m.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }

    /// Live mode records like summary mode and the watchdog thread starts,
    /// beats, and shuts down cleanly with the session.
    #[test]
    fn live_session_records_and_watchdog_stops() {
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::Live,
                live: LiveOptions {
                    heartbeat: Duration::from_millis(20),
                    stall: Duration::from_millis(40),
                },
                ..ObsConfig::default()
            },
            RunManifest::capture("live-test"),
        );
        {
            let _sp = crate::span!("live.outer", target = "t0");
            crate::event!("sat.solve", depth = 3u64);
            // Long enough for at least one heartbeat and one stall window.
            std::thread::sleep(Duration::from_millis(120));
        }
        let report = session.finish();
        assert_eq!(report.events.len(), 3); // open + point + close
        assert_eq!(report.mode, ObsMode::Live);
    }

    /// A `live_out` file receives schema-versioned JSONL: at least the
    /// `live_start` and `finish` events, each parseable with v/ev/ts_ns, and
    /// `finish` carries nothing but the event count.
    #[test]
    fn live_out_file_gets_machine_events() {
        let path = std::env::temp_dir().join(format!("diam-live-{}.jsonl", std::process::id()));
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::LiveJson,
                live_out: Some(path.clone()),
                ..ObsConfig::default()
            },
            RunManifest::capture("live-json-test"),
        );
        {
            let _sp = crate::span!("live.outer", target = "t0");
        }
        drop(session);
        let text = std::fs::read_to_string(&path).expect("live stream written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "{text}");
        for line in &lines {
            let v = json::parse(line).expect("machine line parses");
            assert_eq!(
                v.get("v").and_then(json::JsonValue::as_u64),
                Some(LIVE_SCHEMA_VERSION)
            );
            assert!(v.get("ev").is_some_and(|e| e.as_str().is_some()), "{line}");
            assert!(v.get("ts_ns").is_some(), "{line}");
        }
        assert_eq!(
            json::parse(lines[0]).unwrap().get("ev").unwrap().as_str(),
            Some("live_start")
        );
        let finish = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(finish.get("ev").unwrap().as_str(), Some("finish"));
        assert_eq!(keys(&finish), ["ev", "events", "ts_ns", "v"]);
    }

    /// The stack mirror pairs opens/closes and picks up depth from
    /// `sat.solve` points; heartbeat and stall renderers see it.
    #[test]
    fn live_state_mirrors_stacks() {
        let state = LiveState::new(LiveOptions::default(), SinkConfig::default());
        state.on_event(&open_ev(
            1,
            1000,
            "bmc.check",
            vec![
                ("index", Value::U64(4)),
                ("max_depth", Value::U64(49)),
                ("target", Value::Str("t4".into())),
            ],
        ));
        state.on_event(&point_ev(
            1,
            2000,
            "sat.solve",
            vec![("depth", Value::U64(12))],
        ));
        let beat = state.heartbeat_lines(3000).join("\n");
        assert!(beat.contains("bmc.check(t4)"), "{beat}");
        assert!(beat.contains("depth 12/49"), "{beat}");
        let stall = state.stall_lines(9.0).join("\n");
        assert!(stall.contains("STALL"), "{stall}");
        assert!(stall.contains("w1: bmc.check"), "{stall}");
        state.on_event(&Event {
            seq: 2,
            ts_ns: 4000,
            worker: 1,
            kind: EventKind::Close {
                span: 1,
                name: "bmc.check",
                dur_ns: 3000,
                fields: vec![],
            },
        });
        assert!(state.heartbeat_lines(5000).is_empty());
        assert!(state.stall_lines(9.0).join("\n").contains("no open spans"));
    }

    /// Heartbeat ETA on a synthetic slow trace: a span opened at t=0 with
    /// max depth 9 that reaches depth 4 by t=10 s is halfway — the linear
    /// ETA is exactly the elapsed 10 s again.
    #[test]
    fn heartbeat_eta_extrapolates_linearly() {
        let state = LiveState::new(LiveOptions::default(), SinkConfig::default());
        state.on_event(&open_ev(
            1,
            0,
            "bmc.check",
            vec![
                ("target", Value::Str("slow".into())),
                ("max_depth", Value::U64(9)),
            ],
        ));
        state.on_event(&point_ev(
            1,
            1000,
            "sat.solve",
            vec![("depth", Value::U64(4))],
        ));
        let now_ns = 10_000_000_000; // 10 s in
        let beat = state.heartbeat_lines(now_ns).join("\n");
        assert!(beat.contains("depth 4/9 eta 10.0s"), "{beat}");
        // Machine heartbeat carries the same numbers.
        let hb = json::parse(&state.machine_heartbeat_json(now_ns)).unwrap();
        let worker = &hb.get("workers").unwrap().as_array().unwrap()[0];
        assert_eq!(
            worker.get("depth").and_then(json::JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            worker.get("max_depth").and_then(json::JsonValue::as_u64),
            Some(9)
        );
        let eta = worker
            .get("eta_s")
            .and_then(json::JsonValue::as_f64)
            .unwrap();
        assert!((eta - 10.0).abs() < 1e-6, "eta {eta}");
    }

    /// Stall detection is one-shot: the first tick past the threshold dumps,
    /// later ticks stay quiet, and a resumed event re-arms the latch.
    #[test]
    fn stall_latch_is_one_shot_and_rearms() {
        let opts = LiveOptions {
            heartbeat: Duration::from_secs(1),
            stall: Duration::from_secs(1),
        };
        let state = LiveState::new(opts, SinkConfig::default());
        // No events yet → never stalls, however long the quiet time.
        assert_eq!(state.check_stall(10_000_000_000), None);
        state.on_event(&open_ev(1, 1_000, "bmc.check", vec![]));
        // Quiet for > 1 s: first check fires, second stays silent.
        assert!(state.check_stall(2_000_000_000).is_some());
        assert_eq!(state.check_stall(3_000_000_000), None);
        // An event resumes; a short quiet window clears the latch...
        state.on_event(&point_ev(1, 3_100_000_000, "sat.solve", vec![]));
        assert_eq!(state.check_stall(3_200_000_000), None);
        // ...so a second distinct stall dumps exactly once again.
        assert!(state.check_stall(9_000_000_000).is_some());
        assert_eq!(state.check_stall(9_500_000_000), None);
    }

    /// The `par.queue_depth` gauge mirrored from the metrics layer shows up
    /// in the machine heartbeat and progress events, and the heartbeat,
    /// progress and stall events carry exactly their documented keys.
    #[test]
    fn queue_depth_and_progress_surface_in_machine_events() {
        let state = LiveState::new(LiveOptions::default(), SinkConfig::default());
        state.on_event(&open_ev(1, 1000, "bmc.check", vec![]));
        state.on_scalar("par.queue_depth", 2);
        let hb = json::parse(&state.machine_heartbeat_json(2000)).unwrap();
        assert_eq!(keys(&hb), ["ev", "queue_depth", "ts_ns", "v", "workers"]);
        assert_eq!(
            hb.get("queue_depth").and_then(json::JsonValue::as_i64),
            Some(2)
        );
        let progress = json::parse(&state.machine_progress_json(2000, Some(7))).unwrap();
        assert_eq!(progress.get("ev").unwrap().as_str(), Some("progress"));
        assert_eq!(
            keys(&progress),
            ["depth", "ev", "queue_depth", "ts_ns", "v"]
        );
        assert_eq!(
            progress.get("depth").and_then(json::JsonValue::as_u64),
            Some(7)
        );
        let stall = json::parse(&state.machine_stall_json(2000, 4.5)).unwrap();
        assert_eq!(stall.get("ev").unwrap().as_str(), Some("stall"));
        assert_eq!(keys(&stall), ["ev", "quiet_s", "stacks", "ts_ns", "v"]);
        assert!(stall.get("stacks").is_some_and(|s| s.as_array().is_some()));
    }

    /// A sampled RSS shows up on the human heartbeat and as an additive
    /// `rss_kb` key in the machine heartbeat; before the first sample (0),
    /// neither surfaces, keeping pre-existing consumers byte-compatible.
    #[test]
    fn rss_sample_surfaces_in_heartbeats() {
        let state = LiveState::new(LiveOptions::default(), SinkConfig::default());
        state.on_event(&open_ev(1, 1000, "bmc.check", vec![]));
        let beat = state.heartbeat_lines(2000).join("\n");
        assert!(!beat.contains("rss"), "{beat}");
        let hb = json::parse(&state.machine_heartbeat_json(2000)).unwrap();
        assert!(hb.get("rss_kb").is_none());

        state.rss_kb.store(2048, Ordering::Relaxed);
        let beat = state.heartbeat_lines(2000).join("\n");
        assert!(beat.contains("rss 2.0 MiB"), "{beat}");
        let hb = json::parse(&state.machine_heartbeat_json(2000)).unwrap();
        assert_eq!(
            hb.get("rss_kb").and_then(json::JsonValue::as_u64),
            Some(2048)
        );
    }
}
