//! The live sinks: a watchdog that makes long runs observable while they
//! run, without touching stdout.
//!
//! When a session is installed with a live mode, a background thread reads
//! every recording thread's open-span stack from the recorder once per tick
//! (the `par.queue_depth` gauge is mirrored into an atomic). Each live event
//! is one frame (`live_start` / `heartbeat` / `progress` / `stall` /
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
//! Recording threads do no live work of their own; all other modes never
//! allocate a [`LiveState`].

use crate::{field_u64, json, unpoison, LiveOptions, Recorder};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

/// Depth/ETA annotation: `(depth, Some((max, eta_s)))` when the span
/// advertises its range, `(depth, None)` otherwise.
type Progress = (u64, Option<(u64, f64)>);

/// The progress of a span opened at `opened_ns` whose open fields
/// advertise `max_depth`, at its last reported `depth`.
fn progress(depth: u64, max_depth: Option<u64>, opened_ns: u64, now_ns: u64) -> Progress {
    match max_depth {
        Some(max) if max > 0 && depth <= max => {
            let frac = (depth + 1) as f64 / (max + 1) as f64;
            let elapsed_s = now_ns.saturating_sub(opened_ns) as f64 / 1e9;
            let eta_s = elapsed_s * (1.0 - frac) / frac.max(1e-9);
            (depth, Some((max, eta_s)))
        }
        _ => (depth, None),
    }
}

/// The live sinks and the watchdog's own state.
pub(crate) struct LiveState {
    opts: LiveOptions,
    /// Human-readable stderr lines (`--obs live`).
    human: bool,
    /// The machine-readable JSONL stream, when configured.
    machine: Option<MachineSink>,
    /// Set by [`LiveState::request_stop`], which wakes the watchdog's
    /// wait on the condvar.
    stop: (Mutex<bool>, Condvar),
    /// One-shot stall latch: set on the first stall detection, cleared when
    /// events resume (see [`LiveState::check_stall`]).
    stalled: AtomicBool,
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

/// Reads every recording thread's open-span stack once: every worker with
/// open spans, the depth frontier over all of them, and the event count.
fn snapshot(rec: &Recorder, now_ns: u64) -> Snapshot {
    let mut snap = Snapshot {
        workers: Vec::new(),
        frontier: None,
        events: rec.seq.load(Ordering::Relaxed),
        last_event_ns: 0,
    };
    for buf in unpoison(rec.buffers.lock()).iter() {
        let buf = unpoison(buf.lock());
        let last_ns = buf.events.last().map_or(0, |e| e.ts_ns);
        snap.last_event_ns = snap.last_event_ns.max(last_ns);
        let Some(worker) = buf.stack_worker() else {
            continue;
        };
        let mut frame = WorkerFrame {
            worker: u64::from(worker),
            stack: Vec::new(),
            progress: None,
        };
        for (open, depth) in buf.open_spans() {
            let fields = open.kind.fields();
            let detail = DETAIL_KEYS
                .iter()
                .find_map(|key| fields.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.to_string());
            frame
                .stack
                .push((open.kind.name(), detail.unwrap_or_default()));
            if let Some(depth) = depth {
                snap.frontier = snap.frontier.max(Some(depth));
                // Depth + ETA from the innermost span that reports it.
                let max_depth = field_u64(fields, "max_depth").or(field_u64(fields, "hi"));
                frame.progress = Some(progress(depth, max_depth, open.ts_ns, now_ns));
            }
        }
        snap.workers.push(frame);
    }
    snap.workers.sort_by_key(|w| w.worker);
    snap
}

impl LiveState {
    pub(crate) fn new(opts: LiveOptions, human: bool, machine: Option<MachineSink>) -> LiveState {
        LiveState {
            opts,
            human,
            machine,
            stop: (Mutex::new(false), Condvar::new()),
            stalled: AtomicBool::new(false),
            queue_depth: AtomicI64::new(0),
            rss_kb: AtomicU64::new(0),
        }
    }

    pub(crate) fn request_stop(&self) {
        *unpoison(self.stop.0.lock()) = true;
        self.stop.1.notify_all();
    }

    /// Waits one watchdog tick, or less when [`LiveState::request_stop`]
    /// comes first; returns whether it did.
    fn stopped_within(&self, tick: Duration) -> bool {
        let (stop, wake) = &self.stop;
        let waited = wake.wait_timeout_while(unpoison(stop.lock()), tick, |stop| !*stop);
        *unpoison(waited).0
    }

    /// Mirrors a counter/gauge update into the live atomics (called from
    /// `with_metric` with the post-update value).
    pub(crate) fn on_scalar(&self, name: &str, value: i64) {
        if name == "par.queue_depth" {
            self.queue_depth.store(value, Ordering::Relaxed);
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
    fn check_stall(&self, snap: &Snapshot, now_ns: u64) -> Option<f64> {
        if snap.events == 0 {
            return None; // nothing recorded yet — stay quiet
        }
        let quiet_ns = now_ns.saturating_sub(snap.last_event_ns);
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

/// The recorder as one watchdog tick sees it.
struct Snapshot {
    /// Every worker with open spans, by worker id.
    workers: Vec<WorkerFrame>,
    /// The deepest BMC depth any open span has reported.
    frontier: Option<u64>,
    /// Events recorded so far.
    events: u64,
    /// `ts_ns` of the most recent event (0 before the first).
    last_event_ns: u64,
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

/// Spawns the watchdog thread for `rec`'s live state; it runs until
/// [`LiveState::request_stop`] and is joined by `Session::finish`.
pub(crate) fn spawn_watchdog(rec: Arc<Recorder>) -> std::thread::JoinHandle<()> {
    let state = rec.live.as_ref().expect("live state");
    state.emit(&Frame::Start {
        heartbeat: state.opts.heartbeat,
        stall: state.opts.stall,
    });
    std::thread::Builder::new()
        .name("diam-obs-live".to_string())
        .spawn(move || watchdog_loop(&rec))
        .expect("spawn live watchdog")
}

fn watchdog_loop(rec: &Recorder) {
    let state = rec.live.as_ref().expect("live state");
    let tick = state.opts.heartbeat.min(state.opts.stall).div_f64(4.0);
    let tick = tick.max(Duration::from_millis(10));
    let mut last_beat_ns = 0u64;
    let mut last_progress = None;
    while !state.stopped_within(tick) {
        let now_ns = rec.start.elapsed().as_nanos() as u64;
        let snap = snapshot(rec, now_ns);
        if snap.events == 0 {
            continue; // nothing recorded yet — stay quiet
        }
        if let Some(quiet_s) = state.check_stall(&snap, now_ns) {
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
    use crate::tests::quiet_session as session;
    use crate::{ObsConfig, ObsMode, RunManifest, Session};

    /// The recorder's latest event timestamp.
    fn last_event_ns(session: &Session) -> u64 {
        snapshot(&session.recorder, 0).last_event_ns
    }

    /// The heartbeat at `now_ns`: its human lines and its machine line.
    fn render_beat(state: &LiveState, rec: &Recorder, now_ns: u64) -> (String, String) {
        let snap = snapshot(rec, now_ns);
        let frame = state.heartbeat(now_ns, &snap);
        (frame.human().join("\n"), frame.json())
    }

    /// The stall frame at `now_ns`: its human lines and its machine line.
    fn render_stall(rec: &Recorder, now_ns: u64, quiet_s: f64) -> (String, String) {
        let snap = snapshot(rec, now_ns);
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

    /// `finish` wakes the watchdog instead of waiting out its tick: with a
    /// 10 s heartbeat (a 2.5 s tick), a session that records one span
    /// still finishes at once.
    #[test]
    fn finish_does_not_wait_for_the_next_tick() {
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::Live,
                live: LiveOptions {
                    heartbeat: Duration::from_secs(10),
                    stall: Duration::from_secs(10),
                },
                ..ObsConfig::default()
            },
            RunManifest::capture("live-test"),
        );
        drop(crate::span!("live.once"));
        // Let the watchdog enter its first 2.5 s wait, which `finish` must
        // cut short.
        std::thread::sleep(Duration::from_millis(100));
        let start = std::time::Instant::now();
        let report = session.finish();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(report.events.len(), 2);
    }

    /// A worker's recorded stack, with the depth of its `sat.solve` points,
    /// is what heartbeat and stall frames show; closing the span clears it.
    #[test]
    fn frames_show_the_recorded_stacks() {
        let session = session();
        let state = LiveState::new(LiveOptions::default(), true, None);
        let rec = &session.recorder;
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::set_worker(1, Some(4));
                let _sp = crate::span!("bmc.check", index = 4u64, max_depth = 49u64, target = "t4");
                crate::event!("sat.solve", depth = 12u64);
                let (beat, _) = render_beat(&state, rec, 3000);
                assert!(beat.contains("w1    bmc.check(t4)"), "{beat}");
                assert!(beat.contains("depth 12/49"), "{beat}");
                let (stall, _) = render_stall(rec, 3000, 9.0);
                assert!(stall.contains("STALL"), "{stall}");
                assert!(stall.contains("w1: bmc.check"), "{stall}");
            });
        });
        assert!(render_beat(&state, rec, 5000).0.is_empty());
        assert!(render_stall(rec, 5000, 9.0).0.contains("no open spans"));
        session.finish();
    }

    /// Heartbeat ETA: a span with max depth 9 that reaches depth 4 ten
    /// seconds after it opened is halfway — the linear ETA is exactly the
    /// elapsed 10 s again.
    #[test]
    fn heartbeat_eta_extrapolates_linearly() {
        let session = session();
        let state = LiveState::new(LiveOptions::default(), true, None);
        let _sp = crate::span!("bmc.check", target = "slow", max_depth = 9u64);
        let opened_ns = last_event_ns(&session);
        crate::event!("sat.solve", depth = 4u64);
        let now_ns = opened_ns + 10_000_000_000; // 10 s in
        let (beat, machine) = render_beat(&state, &session.recorder, now_ns);
        assert!(beat.contains("depth 4/9 eta 10.0s"), "{beat}");
        // Machine heartbeat carries the same numbers.
        let hb = json::parse(&machine).unwrap();
        let worker = &hb.get("workers").unwrap().as_array().unwrap()[0];
        assert_eq!(worker.get("depth").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(worker.get("max_depth").and_then(JsonValue::as_u64), Some(9));
        let eta = worker.get("eta_s").and_then(JsonValue::as_f64).unwrap();
        assert!((eta - 10.0).abs() < 1e-6, "eta {eta}");
        drop(_sp);
        session.finish();
    }

    /// Stall detection is one-shot: the first tick past the threshold dumps,
    /// later ticks stay quiet, and a resumed event re-arms the latch.
    #[test]
    fn stall_latch_is_one_shot_and_rearms() {
        let session = session();
        let rec = &session.recorder;
        let opts = LiveOptions {
            heartbeat: Duration::from_secs(1),
            stall: Duration::from_secs(1),
        };
        let state = LiveState::new(opts, true, None);
        let stall_at = |now_ns| state.check_stall(&snapshot(rec, now_ns), now_ns);
        // No events yet → never stalls, however long the quiet time.
        assert_eq!(stall_at(10_000_000_000), None);
        let sp = crate::span!("bmc.check");
        let t = last_event_ns(&session);
        // Quiet for > 1 s: first check fires, second stays silent.
        assert!(stall_at(t + 2_000_000_000).is_some());
        assert_eq!(stall_at(t + 3_000_000_000), None);
        // An event resumes; a short quiet window clears the latch...
        crate::event!("sat.solve");
        let t = last_event_ns(&session);
        assert_eq!(stall_at(t + 100_000_000), None);
        // ...so a second distinct stall dumps exactly once again.
        assert!(stall_at(t + 6_000_000_000).is_some());
        assert_eq!(stall_at(t + 6_500_000_000), None);
        drop(sp);
        session.finish();
    }

    /// The `par.queue_depth` gauge mirrored from the metrics layer shows up
    /// in the machine heartbeat and progress events, and the heartbeat,
    /// progress and stall events carry exactly their documented keys.
    #[test]
    fn queue_depth_and_progress_surface_in_machine_events() {
        let session = session();
        let rec = &session.recorder;
        let state = LiveState::new(LiveOptions::default(), true, None);
        let sp = crate::span!("bmc.check");
        state.on_scalar("par.queue_depth", 2);
        let hb = json::parse(&render_beat(&state, rec, 2000).1).unwrap();
        assert_eq!(keys(&hb), ["ev", "queue_depth", "ts_ns", "v", "workers"]);
        assert_eq!(hb.get("queue_depth").and_then(JsonValue::as_i64), Some(2));
        let progress = json::parse(&state.progress(2000, 7).json()).unwrap();
        assert_eq!(progress.get("ev").unwrap().as_str(), Some("progress"));
        assert_eq!(
            keys(&progress),
            ["depth", "ev", "queue_depth", "ts_ns", "v"]
        );
        assert_eq!(progress.get("depth").and_then(JsonValue::as_u64), Some(7));
        let stall = json::parse(&render_stall(rec, 2000, 4.5).1).unwrap();
        assert_eq!(stall.get("ev").unwrap().as_str(), Some("stall"));
        assert_eq!(keys(&stall), ["ev", "quiet_s", "stacks", "ts_ns", "v"]);
        assert!(stall.get("stacks").is_some_and(|s| s.as_array().is_some()));
        drop(sp);
        session.finish();
    }

    /// A sampled RSS shows up on the human heartbeat and as an additive
    /// `rss_kb` key in the machine heartbeat; before the first sample (0),
    /// neither surfaces, keeping pre-existing consumers byte-compatible.
    #[test]
    fn rss_sample_surfaces_in_heartbeats() {
        let session = session();
        let state = LiveState::new(LiveOptions::default(), true, None);
        let sp = crate::span!("bmc.check");
        let (human, machine) = render_beat(&state, &session.recorder, 2000);
        assert!(!human.contains("rss"), "{human}");
        let hb = json::parse(&machine).unwrap();
        assert!(hb.get("rss_kb").is_none());

        state.rss_kb.store(2048, Ordering::Relaxed);
        let (human, machine) = render_beat(&state, &session.recorder, 2000);
        assert!(human.contains("rss 2.0 MiB"), "{human}");
        let hb = json::parse(&machine).unwrap();
        assert_eq!(hb.get("rss_kb").and_then(JsonValue::as_u64), Some(2048));
        drop(sp);
        session.finish();
    }
}
