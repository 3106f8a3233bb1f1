//! The live sinks: a watchdog that makes long runs observable while they
//! run, without touching stdout.
//!
//! When a session is installed with a live mode, every recorded event also
//! streams through a [`LiveState`]: per-worker open-span stacks are mirrored
//! as events arrive, the `par.queue_depth` gauge is mirrored into an atomic,
//! and a background thread snapshots the stacks once per tick. Each live
//! event is one frame (`live_start` / `heartbeat` / `progress` / `stall` /
//! `finish`) built from that snapshot and handed to both sinks:
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
//!   same frames as schema-versioned JSONL lines (see
//!   [`LIVE_SCHEMA_VERSION`]) that a server can relay verbatim.
//!
//! The sink costs one mutex-protected stack update per event and only
//! exists in live modes; all other modes never allocate a [`LiveState`].

use crate::{json, unpoison, Event, EventKind, Field, LiveOptions, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// Depth/ETA annotation: `(depth, Some((max, eta_s)))` when the span
/// advertises its range, `(depth, None)` otherwise.
type Progress = (u64, Option<(u64, f64)>);

impl OpenSpan {
    fn progress(&self, now_ns: u64) -> Option<Progress> {
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

/// Shared state between the recording threads and the watchdog thread.
pub(crate) struct LiveState {
    opts: LiveOptions,
    /// Human-readable stderr lines (`--obs live`).
    human: bool,
    /// The machine-readable JSONL stream, when configured.
    machine: Option<MachineSink>,
    start: Instant,
    /// `ts_ns` of the most recent event (nanoseconds since session start).
    last_event_ns: AtomicU64,
    /// Total events seen (heartbeats stay quiet until the first one).
    events: AtomicU64,
    stop: AtomicBool,
    /// One-shot stall latch: set on the first stall detection, cleared when
    /// events resume (see [`LiveState::check_stall`]).
    stalled: AtomicBool,
    /// Each worker's open spans, outermost first.
    workers: Mutex<BTreeMap<u32, Vec<OpenSpan>>>,
    /// Mirror of the `par.queue_depth` gauge (see `with_metric` in the
    /// crate root).
    queue_depth: AtomicI64,
    /// Last sampled `VmRSS` in KiB (0 = not sampled yet); refreshed by the
    /// watchdog on every heartbeat so live consumers see memory growth
    /// during the run, not only the final `peak_rss_kb`.
    rss_kb: AtomicU64,
}

/// Fields worth showing next to a span name on a heartbeat line, in
/// preference order.
const DETAIL_KEYS: [&str; 5] = ["target", "design", "engine", "column", "index"];

fn field_u64(fields: &[Field], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

impl LiveState {
    pub(crate) fn new(opts: LiveOptions, human: bool, machine: Option<MachineSink>) -> LiveState {
        LiveState {
            opts,
            human,
            machine,
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
        let stack = workers.entry(ev.worker).or_default();
        match &ev.kind {
            EventKind::Open { name, fields, .. } => stack.push(OpenSpan {
                name,
                detail: DETAIL_KEYS
                    .iter()
                    .find_map(|key| fields.iter().find(|(k, _)| k == key))
                    .map(|(_, v)| v.to_string())
                    .unwrap_or_default(),
                opened_ns: ev.ts_ns,
                depth: None,
                max_depth: field_u64(fields, "max_depth").or(field_u64(fields, "hi")),
            }),
            EventKind::Close { name, .. } => {
                // Pop the innermost span with this name (defensive against
                // out-of-order guard drops, mirroring the recorder).
                if let Some(pos) = stack.iter().rposition(|s| s.name == *name) {
                    stack.remove(pos);
                }
            }
            EventKind::Point { name, fields, .. } if *name == "sat.solve" => {
                if let (Some(depth), Some(top)) = (field_u64(fields, "depth"), stack.last_mut()) {
                    top.depth = Some(depth);
                }
            }
            EventKind::Point { .. } => {}
        }
    }

    /// Mirrors a counter/gauge update into the live atomics (called from
    /// `with_metric` with the post-update value).
    pub(crate) fn on_scalar(&self, name: &str, value: i64) {
        if name == "par.queue_depth" {
            self.queue_depth.store(value, Ordering::Relaxed);
        }
    }

    /// Walks the per-worker stacks once: every worker with open spans, and
    /// the depth frontier over all of them.
    fn snapshot(&self, now_ns: u64) -> Snapshot {
        let workers = unpoison(self.workers.lock());
        Snapshot {
            frontier: workers.values().flatten().filter_map(|s| s.depth).max(),
            workers: workers
                .iter()
                .filter(|(_, stack)| !stack.is_empty())
                .map(|(&worker, stack)| WorkerFrame {
                    worker: u64::from(worker),
                    stack: stack.iter().map(|s| (s.name, s.detail.clone())).collect(),
                    // Depth + ETA from the innermost span that reports it.
                    progress: stack.iter().rev().find_map(|s| s.progress(now_ns)),
                })
                .collect(),
        }
    }

    fn heartbeat<'a>(&self, now_ns: u64, snap: &'a Snapshot) -> Frame<'a> {
        Frame::Heartbeat {
            ts_ns: now_ns,
            workers: &snap.workers,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            rss_kb: self.rss_kb.load(Ordering::Relaxed),
        }
    }

    fn progress(&self, now_ns: u64, depth: u64) -> Frame<'static> {
        Frame::Progress {
            ts_ns: now_ns,
            depth,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
        }
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

    /// Hands one frame to both sinks. Machine-sink write errors are
    /// swallowed: a full disk must not take down the run being observed.
    fn emit(&self, frame: &Frame<'_>) {
        if self.human {
            for line in frame.human() {
                eprintln!("{line}");
            }
        }
        match &self.machine {
            None => {}
            Some(MachineSink::Stderr) => eprintln!("{}", frame.json()),
            Some(MachineSink::File(f)) => {
                let mut f = unpoison(f.lock());
                let _ = writeln!(f, "{}", frame.json());
                let _ = f.flush();
            }
        }
    }

    /// Emits the final frame (called from `Session::finish`).
    pub(crate) fn emit_finish(&self, wall_ns: u64, events: u64) {
        self.emit(&Frame::Finish {
            ts_ns: wall_ns,
            events,
        });
    }
}

/// The per-worker stacks as one watchdog tick sees them.
struct Snapshot {
    /// Every worker with open spans, by worker id.
    workers: Vec<WorkerFrame>,
    /// The deepest BMC depth any open span has reported.
    frontier: Option<u64>,
}

/// One busy worker's open-span stack.
struct WorkerFrame {
    worker: u64,
    /// `(name, detail)` per open span, outermost first.
    stack: Vec<(&'static str, String)>,
    progress: Option<Progress>,
}

impl WorkerFrame {
    fn names(&self) -> Vec<&'static str> {
        self.stack.iter().map(|(name, _)| *name).collect()
    }
}

/// One live event, built once and rendered by both sinks: [`Frame::human`]
/// for the `--obs live` stderr lines, [`Frame::json`] for the machine
/// stream.
enum Frame<'a> {
    Start {
        heartbeat: Duration,
        stall: Duration,
    },
    Heartbeat {
        ts_ns: u64,
        workers: &'a [WorkerFrame],
        queue_depth: i64,
        /// Last sampled RSS in KiB (0 = not sampled yet).
        rss_kb: u64,
    },
    /// The depth frontier moved since the last tick.
    Progress {
        ts_ns: u64,
        depth: u64,
        queue_depth: i64,
    },
    /// No event for the stall threshold.
    Stall {
        ts_ns: u64,
        quiet_s: f64,
        workers: &'a [WorkerFrame],
    },
    Finish {
        ts_ns: u64,
        events: u64,
    },
}

impl Frame<'_> {
    /// The human stderr lines (none for `progress` and `finish`).
    fn human(&self) -> Vec<String> {
        let mut lines = Vec::new();
        match self {
            Frame::Start { heartbeat, stall } => lines.push(format!(
                "diam-obs live: armed — heartbeat every {:.1}s, stall threshold {:.1}s",
                heartbeat.as_secs_f64(),
                stall.as_secs_f64()
            )),
            Frame::Heartbeat {
                ts_ns,
                workers,
                rss_kb,
                ..
            } => {
                let t = *ts_ns as f64 / 1e9;
                for w in workers.iter() {
                    let path: Vec<String> = w
                        .stack
                        .iter()
                        .map(|(name, detail)| match detail.as_str() {
                            "" => name.to_string(),
                            d => format!("{name}({d})"),
                        })
                        .collect();
                    let mut line = format!(
                        "diam-obs live: {t:>7.1}s {:<5} {}",
                        crate::worker_label(w.worker),
                        path.join(" > ")
                    );
                    match w.progress {
                        Some((depth, Some((max, eta_s)))) => {
                            line.push_str(&format!(" depth {depth}/{max} eta {eta_s:.1}s"));
                        }
                        Some((depth, None)) => line.push_str(&format!(" depth {depth}")),
                        None => {}
                    }
                    lines.push(line);
                    if lines.len() >= 16 {
                        lines.push("diam-obs live: … (more workers elided)".to_string());
                        break;
                    }
                }
                if *rss_kb > 0 {
                    let mib = *rss_kb as f64 / 1024.0;
                    lines.push(format!("diam-obs live: {t:>7.1}s rss {mib:.1} MiB"));
                }
            }
            Frame::Stall {
                quiet_s, workers, ..
            } => {
                lines.push(format!(
                    "diam-obs live: STALL — no event for {quiet_s:.1}s; open span stacks:"
                ));
                for w in workers.iter() {
                    let path = w.names().join(" > ");
                    lines.push(format!(
                        "diam-obs live:   {}: {path}",
                        crate::worker_label(w.worker)
                    ));
                }
                if workers.is_empty() {
                    lines.push("diam-obs live:   (no open spans)".to_string());
                }
            }
            Frame::Progress { .. } | Frame::Finish { .. } => {}
        }
        lines
    }

    /// The machine JSONL line (schema [`LIVE_SCHEMA_VERSION`]).
    fn json(&self) -> String {
        let (ev, ts_ns) = match self {
            Frame::Start { .. } => ("live_start", 0),
            Frame::Heartbeat { ts_ns, .. } => ("heartbeat", *ts_ns),
            Frame::Progress { ts_ns, .. } => ("progress", *ts_ns),
            Frame::Stall { ts_ns, .. } => ("stall", *ts_ns),
            Frame::Finish { ts_ns, .. } => ("finish", *ts_ns),
        };
        let mut out = format!("{{\"v\":{LIVE_SCHEMA_VERSION},\"ev\":\"{ev}\",\"ts_ns\":{ts_ns}");
        let stack = |out: &mut String, w: &WorkerFrame| {
            out.push_str(",\"stack\":[");
            for name in w.names() {
                json::comma(out);
                json::write_escaped(out, name);
            }
            out.push(']');
        };
        match self {
            Frame::Start { heartbeat, stall } => out.push_str(&format!(
                ",\"heartbeat_ms\":{},\"stall_ms\":{}",
                heartbeat.as_millis(),
                stall.as_millis()
            )),
            Frame::Heartbeat {
                workers,
                queue_depth,
                rss_kb,
                ..
            } => {
                out.push_str(",\"workers\":[");
                for w in workers.iter() {
                    json::comma(&mut out);
                    out.push_str(&format!("{{\"worker\":{},\"span\":", w.worker));
                    let (top, detail) = w.stack.last().expect("busy workers have open spans");
                    json::write_escaped(&mut out, top);
                    if !detail.is_empty() {
                        out.push_str(",\"detail\":");
                        json::write_escaped(&mut out, detail);
                    }
                    stack(&mut out, w);
                    match w.progress {
                        Some((depth, Some((max, eta_s)))) => out.push_str(&format!(
                            ",\"depth\":{depth},\"max_depth\":{max},\"eta_s\":{eta_s:.3}"
                        )),
                        Some((depth, None)) => out.push_str(&format!(",\"depth\":{depth}")),
                        None => {}
                    }
                    out.push('}');
                }
                out.push_str(&format!("],\"queue_depth\":{queue_depth}"));
                if *rss_kb > 0 {
                    out.push_str(&format!(",\"rss_kb\":{rss_kb}"));
                }
            }
            Frame::Progress {
                depth, queue_depth, ..
            } => out.push_str(&format!(",\"depth\":{depth},\"queue_depth\":{queue_depth}")),
            Frame::Stall {
                quiet_s, workers, ..
            } => {
                out.push_str(&format!(",\"quiet_s\":{quiet_s:.3},\"stacks\":["));
                for w in workers.iter() {
                    json::comma(&mut out);
                    out.push_str(&format!("{{\"worker\":{}", w.worker));
                    stack(&mut out, w);
                    out.push('}');
                }
                out.push(']');
            }
            Frame::Finish { events, .. } => out.push_str(&format!(",\"events\":{events}")),
        }
        out.push('}');
        out
    }
}

/// Spawns the watchdog thread for `state`; it runs until
/// [`LiveState::request_stop`] and is joined by `Session::finish`.
pub(crate) fn spawn_watchdog(state: Arc<LiveState>) -> std::thread::JoinHandle<()> {
    state.emit(&Frame::Start {
        heartbeat: state.opts.heartbeat,
        stall: state.opts.stall,
    });
    std::thread::Builder::new()
        .name("diam-obs-live".to_string())
        .spawn(move || watchdog_loop(&state))
        .expect("spawn live watchdog")
}

fn watchdog_loop(state: &LiveState) {
    let tick = state.opts.heartbeat.min(state.opts.stall).div_f64(4.0);
    let tick = tick.max(Duration::from_millis(10));
    let mut last_beat_ns = 0u64;
    let mut last_progress = None;
    while !state.stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now_ns = state.start.elapsed().as_nanos() as u64;
        if state.events.load(Ordering::Relaxed) == 0 {
            continue; // nothing recorded yet — stay quiet
        }
        let snap = state.snapshot(now_ns);
        if let Some(quiet_s) = state.check_stall(now_ns) {
            state.emit(&Frame::Stall {
                ts_ns: now_ns,
                quiet_s,
                workers: &snap.workers,
            });
        }
        // A `progress` frame whenever the depth frontier moved since the
        // last tick — finer-grained than the heartbeat, but still bounded
        // by the tick rate.
        if let Some(depth) = snap.frontier.filter(|_| snap.frontier != last_progress) {
            last_progress = snap.frontier;
            state.emit(&state.progress(now_ns, depth));
        }
        if now_ns.saturating_sub(last_beat_ns) >= state.opts.heartbeat.as_nanos() as u64 {
            last_beat_ns = now_ns;
            // Sample current RSS once per heartbeat: one /proc read, exported
            // as the `mem.rss_kb` gauge and on the heartbeat frame.
            if let Some(kb) = crate::current_rss_kb() {
                state.rss_kb.store(kb, Ordering::Relaxed);
                crate::gauge_set("mem.rss_kb", kb as i64);
            }
            state.emit(&state.heartbeat(now_ns, &snap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::{ObsConfig, ObsMode, RunManifest, Session};

    fn open_ev(span: u64, ts_ns: u64, name: &'static str, fields: Vec<Field>) -> Event {
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

    fn point_ev(span: u64, ts_ns: u64, name: &'static str, fields: Vec<Field>) -> Event {
        Event {
            seq: 0,
            ts_ns,
            worker: 1,
            kind: EventKind::Point { span, name, fields },
        }
    }

    /// The heartbeat at `now_ns`: its human lines and its machine line.
    fn render_beat(state: &LiveState, now_ns: u64) -> (String, String) {
        let snap = state.snapshot(now_ns);
        let frame = state.heartbeat(now_ns, &snap);
        (frame.human().join("\n"), frame.json())
    }

    /// The stall frame at `now_ns`: its human lines and its machine line.
    fn render_stall(state: &LiveState, now_ns: u64, quiet_s: f64) -> (String, String) {
        let snap = state.snapshot(now_ns);
        let frame = Frame::Stall {
            ts_ns: now_ns,
            quiet_s,
            workers: &snap.workers,
        };
        (frame.human().join("\n"), frame.json())
    }

    /// The keys of a machine event, in sorted order.
    fn keys(v: &JsonValue) -> Vec<&str> {
        match v {
            JsonValue::Object(m) => m.keys().map(String::as_str).collect(),
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

    /// The stack mirror pairs opens/closes and picks up depth from
    /// `sat.solve` points; heartbeat and stall renderers see it.
    #[test]
    fn live_state_mirrors_stacks() {
        let state = LiveState::new(LiveOptions::default(), true, None);
        let fields = vec![
            ("index", Value::U64(4)),
            ("max_depth", Value::U64(49)),
            ("target", Value::from("t4")),
        ];
        state.on_event(&open_ev(1, 1000, "bmc.check", fields));
        state.on_event(&point_ev(
            1,
            2000,
            "sat.solve",
            vec![("depth", Value::U64(12))],
        ));
        let (beat, _) = render_beat(&state, 3000);
        assert!(beat.contains("bmc.check(t4)"), "{beat}");
        assert!(beat.contains("depth 12/49"), "{beat}");
        let (stall, _) = render_stall(&state, 3000, 9.0);
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
        assert!(render_beat(&state, 5000).0.is_empty());
        assert!(render_stall(&state, 5000, 9.0).0.contains("no open spans"));
    }

    /// Heartbeat ETA on a synthetic slow trace: a span opened at t=0 with
    /// max depth 9 that reaches depth 4 by t=10 s is halfway — the linear
    /// ETA is exactly the elapsed 10 s again.
    #[test]
    fn heartbeat_eta_extrapolates_linearly() {
        let state = LiveState::new(LiveOptions::default(), true, None);
        let fields = vec![
            ("target", Value::from("slow")),
            ("max_depth", Value::U64(9)),
        ];
        state.on_event(&open_ev(1, 0, "bmc.check", fields));
        state.on_event(&point_ev(
            1,
            1000,
            "sat.solve",
            vec![("depth", Value::U64(4))],
        ));
        let now_ns = 10_000_000_000; // 10 s in
        let (beat, machine) = render_beat(&state, now_ns);
        assert!(beat.contains("depth 4/9 eta 10.0s"), "{beat}");
        // Machine heartbeat carries the same numbers.
        let hb = json::parse(&machine).unwrap();
        let worker = &hb.get("workers").unwrap().as_array().unwrap()[0];
        assert_eq!(worker.get("depth").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(worker.get("max_depth").and_then(JsonValue::as_u64), Some(9));
        let eta = worker.get("eta_s").and_then(JsonValue::as_f64).unwrap();
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
        let state = LiveState::new(opts, true, None);
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
        let state = LiveState::new(LiveOptions::default(), true, None);
        state.on_event(&open_ev(1, 1000, "bmc.check", vec![]));
        state.on_scalar("par.queue_depth", 2);
        let hb = json::parse(&render_beat(&state, 2000).1).unwrap();
        assert_eq!(keys(&hb), ["ev", "queue_depth", "ts_ns", "v", "workers"]);
        assert_eq!(hb.get("queue_depth").and_then(JsonValue::as_i64), Some(2));
        let progress = json::parse(&state.progress(2000, 7).json()).unwrap();
        assert_eq!(progress.get("ev").unwrap().as_str(), Some("progress"));
        assert_eq!(
            keys(&progress),
            ["depth", "ev", "queue_depth", "ts_ns", "v"]
        );
        assert_eq!(progress.get("depth").and_then(JsonValue::as_u64), Some(7));
        let stall = json::parse(&render_stall(&state, 2000, 4.5).1).unwrap();
        assert_eq!(stall.get("ev").unwrap().as_str(), Some("stall"));
        assert_eq!(keys(&stall), ["ev", "quiet_s", "stacks", "ts_ns", "v"]);
        assert!(stall.get("stacks").is_some_and(|s| s.as_array().is_some()));
    }

    /// A sampled RSS shows up on the human heartbeat and as an additive
    /// `rss_kb` key in the machine heartbeat; before the first sample (0),
    /// neither surfaces, keeping pre-existing consumers byte-compatible.
    #[test]
    fn rss_sample_surfaces_in_heartbeats() {
        let state = LiveState::new(LiveOptions::default(), true, None);
        state.on_event(&open_ev(1, 1000, "bmc.check", vec![]));
        let (human, machine) = render_beat(&state, 2000);
        assert!(!human.contains("rss"), "{human}");
        let hb = json::parse(&machine).unwrap();
        assert!(hb.get("rss_kb").is_none());

        state.rss_kb.store(2048, Ordering::Relaxed);
        let (human, machine) = render_beat(&state, 2000);
        assert!(human.contains("rss 2.0 MiB"), "{human}");
        let hb = json::parse(&machine).unwrap();
        assert_eq!(hb.get("rss_kb").and_then(JsonValue::as_u64), Some(2048));
    }
}
