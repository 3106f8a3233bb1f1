//! # diam-obs
//!
//! A **std-only, thread-safe** structured tracing + metrics layer for the
//! `diam` workspace: hierarchical spans with monotonic timings, typed
//! counters / gauges / histograms, per-thread event buffers, and a
//! [`RunManifest`] capturing what was run, with which options, by which
//! build, for how long, and at what peak RSS.
//!
//! This crate is the *recorder* and owns every writer: the JSONL trace
//! ([`Report::to_jsonl`], the only serializer of the format), the live
//! stream ([`LIVE_SCHEMA_VERSION`]) and the crash dumps ([`crash`]). It
//! renders no end-of-run view: binaries print `diam_trace::render_report`
//! of the session's own JSONL, the same text `diam-trace report` prints for
//! the `--trace-out` file.
//!
//! ## Model
//!
//! * **Recording is process-global but session-scoped.** A binary (or test)
//!   calls [`Session::install`]; until the session is finished, every
//!   [`span!`] / [`event!`] / [`counter_add`] anywhere in the process records
//!   into the session. Exactly one session exists at a time (installation
//!   serializes), and the default state — no session — makes every hook a
//!   single relaxed atomic load, so instrumented library code pays nothing
//!   when observability is off.
//! * **One record per thread.** Each recording thread owns a buffer
//!   registered with the session: its events and its open-span stack, both
//!   updated under that buffer's (uncontended) lock. [`span!`] pushes onto
//!   the stack; the returned [`SpanGuard`] pops and emits the close event
//!   (with duration) on drop. Span parenting, crash dumps ([`crash`]) and
//!   the live watchdog all read the buffers; [`Session::finish`] drains
//!   them, orders events by a global sequence number, and writes the JSONL
//!   trace if configured.
//! * **Worker tags.** Worker threads started by `diam-par` tag themselves
//!   with [`set_worker`] and inherit the submitting thread's open span via
//!   [`set_ambient_parent`], so per-target work nests under the
//!   orchestrating span in the final tree while staying attributed to its
//!   worker in every event.
//! * **SAT attribution.** Callers of `diam-sat` report per-solve statistic
//!   deltas through [`charge_sat`]; every span automatically records the
//!   SAT work (solves / conflicts / decisions / propagations) performed on
//!   its thread between open and close, so per-target spans carry their SAT
//!   counters without plumbing.
//!
//! ## Example
//!
//! ```
//! use diam_obs::{ObsConfig, ObsMode, RunManifest, Session};
//!
//! let session = Session::install(
//!     ObsConfig { mode: ObsMode::Summary, ..ObsConfig::default() },
//!     RunManifest::capture("example"),
//! );
//! {
//!     let mut sp = diam_obs::span!("work.outer", items = 3u64);
//!     for i in 0..3u64 {
//!         let _inner = diam_obs::span!("work.inner", index = i);
//!         diam_obs::counter_add("work.items", 1);
//!     }
//!     sp.record("done", true);
//! }
//! let report = session.finish();
//! assert_eq!(report.events.len(), 8); // 4 opens/closes
//! assert!(report.to_jsonl().contains("\"name\":\"work.outer\""));
//! ```

pub mod alloc;
pub mod crash;
pub mod json;
mod live;

pub use live::LIVE_SCHEMA_VERSION;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What the observability layer does with recorded data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing; every hook is a no-op (a single atomic load).
    #[default]
    Off,
    /// Record events; the binary prints the run report at the end.
    Summary,
    /// Record events like [`ObsMode::Summary`] **and** expect a JSONL trace
    /// file (see [`ObsConfig::trace_out`]).
    Json,
    /// Record events like [`ObsMode::Summary`] **and** run the live
    /// watchdog: per-target heartbeat lines on stderr while the run is in
    /// flight, plus a span-stack dump when no event arrives for the stall
    /// threshold (see [`LiveOptions`]).
    Live,
    /// Record events like [`ObsMode::Live`] but stream machine-readable
    /// JSONL progress events (schema-versioned `heartbeat` / `progress` /
    /// `stall` lines) to stderr instead of the human heartbeat lines. Use
    /// [`ObsConfig::live_out`] to redirect the stream to a file.
    LiveJson,
}

/// The `--obs` values, as usage and error texts list them.
const MODES: &str = "off|summary|json|live|live-json";

impl ObsMode {
    /// Parses a `--obs` flag value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unparsable value.
    pub fn parse(s: &str) -> Result<ObsMode, String> {
        match s {
            "off" => Ok(ObsMode::Off),
            "summary" => Ok(ObsMode::Summary),
            "json" => Ok(ObsMode::Json),
            "live" => Ok(ObsMode::Live),
            "live-json" => Ok(ObsMode::LiveJson),
            _ => Err(format!("bad --obs value {s:?} (expected {MODES})")),
        }
    }

    /// Whether this mode records nothing.
    pub fn is_off(self) -> bool {
        matches!(self, ObsMode::Off)
    }
}

impl std::fmt::Display for ObsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsMode::Off => write!(f, "off"),
            ObsMode::Summary => write!(f, "summary"),
            ObsMode::Json => write!(f, "json"),
            ObsMode::Live => write!(f, "live"),
            ObsMode::LiveJson => write!(f, "live-json"),
        }
    }
}

/// Tuning for the [`ObsMode::Live`] watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveOptions {
    /// How often the heartbeat lines are printed to stderr.
    pub heartbeat: Duration,
    /// No event for this long → the watchdog flags a stall and dumps the
    /// current per-worker span stacks.
    pub stall: Duration,
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions {
            heartbeat: Duration::from_secs(1),
            stall: Duration::from_secs(10),
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Recording mode.
    pub mode: ObsMode,
    /// Where to write the JSONL trace (written on finish when set and the
    /// mode records).
    pub trace_out: Option<PathBuf>,
    /// Watchdog tuning, used by the live modes only.
    pub live: LiveOptions,
    /// Where to stream the machine-readable live JSONL events. When set
    /// (and the mode records), the live watchdog runs and appends
    /// schema-versioned `heartbeat` / `progress` / `stall` lines here, in
    /// addition to whatever the mode itself does; [`ObsMode::LiveJson`]
    /// without a path streams the same lines to stderr.
    pub live_out: Option<PathBuf>,
    /// Allocator accounting (`--mem on`): [`Session::install`] switches it
    /// on for the session and adds `mem=on` to the manifest. It measures
    /// only in binaries whose `#[global_allocator]` is
    /// [`alloc::CountingAlloc`].
    pub mem: bool,
}

/// Why [`ObsConfig::from_args`] rejected a command line. `Display` gives
/// the `diam` CLI's wording; other binaries may phrase it their own way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// The flag ended the command line.
    MissingValue(&'static str),
    /// The flag's value is none of `expected`.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What it was given.
        value: String,
        /// The accepted values, `|`-separated.
        expected: &'static str,
    },
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            FlagError::BadValue {
                flag: "--obs",
                value,
                expected,
            } => write!(f, "bad --obs value {value:?} (expected {expected})"),
            FlagError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} expects {expected}, got {value}"),
        }
    }
}

impl std::error::Error for FlagError {}

impl ObsConfig {
    /// The observability flags every binary shares.
    pub const FLAGS: [&'static str; 4] = ["--obs", "--trace-out", "--live-out", "--mem"];

    /// Takes the observability flags every binary shares out of a command
    /// line: `--obs <off|summary|json|live|live-json>`, `--trace-out
    /// <path>`, `--live-out <path>` and `--mem <on|off>`, each followed by
    /// its value as the next argument. Returns the configuration and the
    /// other arguments, in order.
    ///
    /// Two promotion rules apply when no recording mode was chosen:
    /// `--trace-out` alone means `json` (the user wants the trace), and
    /// `--live-out` alone means `live`.
    ///
    /// # Errors
    ///
    /// A flag without a value, or an `--obs` / `--mem` value outside its
    /// set.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(ObsConfig, Vec<String>), FlagError> {
        let mut config = ObsConfig::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = ObsConfig::FLAGS.into_iter().find(|f| *f == arg) else {
                rest.push(arg);
                continue;
            };
            let value = args.next().ok_or(FlagError::MissingValue(flag))?;
            let bad = FlagError::BadValue {
                flag,
                value: value.clone(),
                expected: if flag == "--obs" { MODES } else { "on|off" },
            };
            match (flag, value.as_str(), ObsMode::parse(&value)) {
                ("--trace-out", ..) => config.trace_out = Some(value.into()),
                ("--live-out", ..) => config.live_out = Some(value.into()),
                ("--obs", _, Ok(mode)) => config.mode = mode,
                ("--mem", "on" | "off", _) => config.mem = value == "on",
                _ => return Err(bad),
            }
        }
        if config.mode.is_off() {
            if config.trace_out.is_some() {
                config.mode = ObsMode::Json;
            } else if config.live_out.is_some() {
                config.mode = ObsMode::Live;
            }
        }
        Ok((config, rest))
    }
}

// ---------------------------------------------------------------------------
// Values, fields, events
// ---------------------------------------------------------------------------

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value { Value::$variant(v as $conv) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            // `Debug` keeps the float type: `2.0`, not `2`, which a reader
            // would parse back as an integer.
            Value::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => json::write_escaped(out, s),
            other => out.push_str(&other.to_string()),
        }
    }
}

/// A named field on an event.
pub type Field = (&'static str, Value);

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number (allocation order; the drain sort key).
    pub seq: u64,
    /// Nanoseconds since session start (monotonic clock).
    pub ts_ns: u64,
    /// Worker tag of the recording thread (0 = untagged / main).
    pub worker: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A span opened.
    Open {
        /// Span id (unique within the session, never 0).
        span: u64,
        /// Enclosing span id (0 = root).
        parent: u64,
        /// Span name (dotted path convention, e.g. `com.sweep`).
        name: &'static str,
        /// Fields recorded at open.
        fields: Vec<Field>,
    },
    /// A span closed.
    Close {
        /// Span id.
        span: u64,
        /// Span name (repeated for stream consumers).
        name: &'static str,
        /// Open→close duration in nanoseconds.
        dur_ns: u64,
        /// Fields recorded during the span (includes automatic `sat_*`
        /// attribution counters).
        fields: Vec<Field>,
    },
    /// A point event inside the current span.
    Point {
        /// Enclosing span id (0 = none open).
        span: u64,
        /// Event name.
        name: &'static str,
        /// Fields.
        fields: Vec<Field>,
    },
}

impl EventKind {
    /// The event's name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Open { name, .. }
            | EventKind::Close { name, .. }
            | EventKind::Point { name, .. } => name,
        }
    }

    /// The event's fields.
    pub(crate) fn fields(&self) -> &[Field] {
        match self {
            EventKind::Open { fields, .. }
            | EventKind::Close { fields, .. }
            | EventKind::Point { fields, .. } => fields,
        }
    }
}

/// The unsigned field `key`, if present.
fn field_u64(fields: &[Field], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

impl Event {
    /// Appends this event as one JSONL trace object (no newline): the form
    /// of [`Report::to_jsonl`]'s event lines and of a crash dump's event
    /// tail.
    fn write_json(&self, out: &mut String) {
        let (ev, span, link, name, fields) = match &self.kind {
            EventKind::Open {
                span,
                parent,
                name,
                fields,
            } => ("open", span, format!(",\"parent\":{parent}"), name, fields),
            EventKind::Close {
                span,
                name,
                dur_ns,
                fields,
            } => ("close", span, format!(",\"dur_ns\":{dur_ns}"), name, fields),
            EventKind::Point { span, name, fields } => ("point", span, String::new(), name, fields),
        };
        out.push_str(&format!(
            "{{\"ts\":{},\"seq\":{},\"worker\":{},\"ev\":\"{ev}\",\"span\":{span}{link},\"name\":",
            self.ts_ns, self.seq, self.worker
        ));
        json::write_escaped(out, name);
        out.push_str(",\"fields\":{");
        for (k, v) in fields.iter() {
            json::comma(out);
            json::write_escaped(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push_str("}}");
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Number of power-of-two histogram buckets (`bucket b` counts values `v`
/// with `b` significant bits; bucket 0 counts zeros).
pub const HIST_BUCKETS: usize = 65;

/// A typed metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(i64),
    /// Power-of-two-bucketed histogram.
    Histogram {
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values (saturating).
        sum: u64,
        /// Smallest recorded value (`u64::MAX` while empty; read through
        /// [`Metric::observed_min`]).
        min: u64,
        /// Largest recorded value (0 while empty; read through
        /// [`Metric::observed_max`]).
        max: u64,
        /// `buckets[b]` counts values with `b` significant bits.
        buckets: Box<[u64; HIST_BUCKETS]>,
    },
}

impl Metric {
    /// An empty histogram.
    pub fn new_histogram() -> Metric {
        Metric::Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; HIST_BUCKETS]),
        }
    }

    /// Records `n` occurrences of `value` into a histogram (counters and
    /// gauges are left alone).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if let Metric::Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        } = self
        {
            *count += n;
            *sum = sum.saturating_add(value.saturating_mul(n));
            *min = (*min).min(value);
            *max = (*max).max(value);
            buckets[(64 - value.leading_zeros()) as usize] += n;
        }
    }

    /// The exact smallest recorded value of a non-empty histogram. The
    /// bucket quantiles over-estimate by up to 2×; min/max bound the exact
    /// observed range.
    pub fn observed_min(&self) -> Option<u64> {
        match self {
            Metric::Histogram { count, min, .. } if *count > 0 => Some(*min),
            _ => None,
        }
    }

    /// The exact largest recorded value of a non-empty histogram.
    pub fn observed_max(&self) -> Option<u64> {
        match self {
            Metric::Histogram { count, max, .. } if *count > 0 => Some(*max),
            _ => None,
        }
    }

    /// The inclusive upper bound of histogram bucket `b` (bucket 0 holds
    /// zeros; bucket `b ≥ 1` holds values with `b` significant bits).
    fn bucket_upper_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`) of a histogram: the upper bound
    /// of the power-of-two bucket containing the ⌈q·count⌉-th value. A
    /// deterministic over-estimate by at most 2×, which is what the
    /// regression gates want (never under-reports the tail). Returns `None`
    /// for non-histograms or empty histograms.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let Metric::Histogram { count, buckets, .. } = self else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        let rank = ((q * *count as f64).ceil() as u64).clamp(1, *count);
        let mut seen = 0u64;
        for (b, n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Metric::bucket_upper_bound(b));
            }
        }
        Some(u64::MAX)
    }
}

/// Per-thread SAT attribution totals (see [`charge_sat`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatTotals {
    /// SAT `solve` calls.
    pub solves: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Decisions.
    pub decisions: u64,
    /// Propagations.
    pub propagations: u64,
    /// Clause-arena garbage collections (see [`charge_sat_gc`]).
    pub gc_runs: u64,
    /// Bytes reclaimed by arena GC.
    pub gc_freed_bytes: u64,
}

impl SatTotals {
    fn delta_since(&self, earlier: &SatTotals) -> SatTotals {
        SatTotals {
            solves: self.solves - earlier.solves,
            conflicts: self.conflicts - earlier.conflicts,
            decisions: self.decisions - earlier.decisions,
            propagations: self.propagations - earlier.propagations,
            gc_runs: self.gc_runs - earlier.gc_runs,
            gc_freed_bytes: self.gc_freed_bytes - earlier.gc_freed_bytes,
        }
    }

    fn is_zero(&self) -> bool {
        *self == SatTotals::default()
    }
}

// ---------------------------------------------------------------------------
// Recorder internals
// ---------------------------------------------------------------------------

/// One span on a thread's open-span stack.
struct OpenSpan {
    id: u64,
    /// Index of the span's open event in [`ThreadBuffer::events`].
    open: usize,
    /// The `depth` of the last `sat.solve` point recorded while this span
    /// was the innermost one: the BMC progress the live watchdog shows.
    depth: Option<u64>,
}

/// A recording thread's one record of what it did and is doing: its
/// events, and the spans it has open. Only the owner thread writes it, and
/// every reader (span parenting, the crash dump, the live watchdog,
/// [`Session::finish`]) takes the same lock.
#[derive(Default)]
struct ThreadBuffer {
    events: Vec<Event>,
    /// Open spans, outermost first.
    stack: Vec<OpenSpan>,
}

impl ThreadBuffer {
    /// The span new events nest under: the innermost open one, else the
    /// thread's ambient parent.
    fn current(&self, ambient: u64) -> u64 {
        self.stack.last().map_or(ambient, |s| s.id)
    }

    fn push(&mut self, rec: &Recorder, kind: EventKind) -> usize {
        self.events.push(Event {
            seq: rec.seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: rec.start.elapsed().as_nanos() as u64,
            worker: worker_tag().0,
            kind,
        });
        self.events.len() - 1
    }

    /// The open spans, outermost first: each one's open event and its
    /// last reported depth.
    fn open_spans(&self) -> impl Iterator<Item = (&Event, Option<u64>)> {
        self.stack
            .iter()
            .filter_map(|s| Some((self.events.get(s.open)?, s.depth)))
    }

    /// The worker tag of the thread's innermost open span.
    fn stack_worker(&self) -> Option<u32> {
        self.open_spans().last().map(|(e, _)| e.worker)
    }
}

struct Recorder {
    epoch: u64,
    start: Instant,
    seq: AtomicU64,
    next_span: AtomicU64,
    buffers: Mutex<Vec<Arc<Mutex<ThreadBuffer>>>>,
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
    /// Live sink state; present only when a live mode or a machine live
    /// stream ([`ObsConfig::live_out`]) is configured.
    live: Option<live::LiveState>,
}

impl Recorder {
    fn new(epoch: u64, live: Option<live::LiveState>) -> Recorder {
        Recorder {
            epoch,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            buffers: Mutex::new(Vec::new()),
            metrics: Mutex::new(BTreeMap::new()),
            live,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static RECORDER: Mutex<Option<Arc<Recorder>>> = Mutex::new(None);
static INSTALL: Mutex<()> = Mutex::new(());

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Tls {
    epoch: u64,
    recorder: Option<Arc<Recorder>>,
    buffer: Option<Arc<Mutex<ThreadBuffer>>>,
    ambient_parent: u64,
    sat: SatTotals,
}

impl Tls {
    /// Runs `f` on the bound recorder and this thread's buffer, under the
    /// buffer's lock.
    fn record<R>(&self, f: impl FnOnce(&Recorder, &mut ThreadBuffer) -> R) -> R {
        let rec = self.recorder.as_ref().expect("recorder bound");
        let mut buf = unpoison(self.buffer.as_ref().expect("buffer bound").lock());
        f(rec, &mut buf)
    }
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::default());
    /// This thread's worker tag and current job (see [`set_worker`]).
    static TAG: Cell<(u32, Option<u64>)> = const { Cell::new((0, None)) };
}

/// This thread's worker tag and current job.
fn worker_tag() -> (u32, Option<u64>) {
    TAG.try_with(Cell::get).unwrap_or((0, None))
}

/// Whether a recording session is active. A single relaxed atomic load —
/// this is the no-op path's entire cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with the thread's recording state, (re)binding the thread to the
/// current session if needed. Returns `None` when recording is off or no
/// session exists.
fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    TLS.with(|cell| {
        let mut t = cell.borrow_mut();
        let epoch = EPOCH.load(Ordering::Acquire);
        if t.epoch != epoch || t.recorder.is_none() {
            let rec = unpoison(RECORDER.lock()).clone()?;
            let buf = Arc::new(Mutex::new(ThreadBuffer::default()));
            unpoison(rec.buffers.lock()).push(buf.clone());
            t.epoch = rec.epoch;
            t.recorder = Some(rec);
            t.buffer = Some(buf);
            t.ambient_parent = 0;
            t.sat = SatTotals::default();
        }
        Some(f(&mut t))
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An open span; closes (and emits the close event) on drop. Obtain one with
/// the [`span!`] macro. Guards are cheap no-ops when recording is off.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; bind it to a variable"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    opened: Option<Instant>,
    close_fields: Vec<Field>,
    sat_at_open: SatTotals,
    alloc_at_open: alloc::AllocTotals,
}

impl SpanGuard {
    /// A guard that records nothing (used when recording is off).
    pub fn noop() -> SpanGuard {
        SpanGuard {
            id: 0,
            name: "",
            opened: None,
            close_fields: Vec::new(),
            sat_at_open: SatTotals::default(),
            alloc_at_open: alloc::AllocTotals::default(),
        }
    }

    /// This span's id (0 for a no-op guard).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds a field to the close event (no-op when recording is off).
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.id != 0 {
            self.close_fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let dur_ns = self
            .opened
            .map(|t0| t0.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let id = self.id;
        let name = self.name;
        let mut fields = std::mem::take(&mut self.close_fields);
        let sat_at_open = self.sat_at_open;
        // Allocator attribution mirrors the SAT counters: the delta of this
        // thread's totals over the span's lifetime. Zero (and field-free)
        // whenever `--mem` accounting is off.
        let alloc_delta = alloc::thread_totals().delta_since(&self.alloc_at_open);
        with_tls(|t| {
            let sat = t.sat.delta_since(&sat_at_open);
            if !sat.is_zero() {
                fields.push(("sat_solves", Value::U64(sat.solves)));
                fields.push(("sat_conflicts", Value::U64(sat.conflicts)));
                fields.push(("sat_decisions", Value::U64(sat.decisions)));
                fields.push(("sat_propagations", Value::U64(sat.propagations)));
                if sat.gc_runs > 0 {
                    fields.push(("sat_gc_runs", Value::U64(sat.gc_runs)));
                    fields.push(("sat_gc_freed_bytes", Value::U64(sat.gc_freed_bytes)));
                }
            }
            if !alloc_delta.is_zero() {
                fields.push(("alloc_allocs", Value::U64(alloc_delta.allocs)));
                fields.push(("alloc_frees", Value::U64(alloc_delta.frees)));
                fields.push(("alloc_bytes", Value::U64(alloc_delta.alloc_bytes)));
                fields.push(("alloc_freed_bytes", Value::U64(alloc_delta.freed_bytes)));
            }
            t.record(|rec, buf| {
                // Pop this span (defensively tolerate out-of-order drops).
                if let Some(pos) = buf.stack.iter().rposition(|s| s.id == id) {
                    buf.stack.remove(pos);
                }
                buf.push(
                    rec,
                    EventKind::Close {
                        span: id,
                        name,
                        dur_ns,
                        fields,
                    },
                );
            });
        });
        // Published outside the TLS borrow (the metrics path re-enters it);
        // never set from inside the allocator, which must stay lock-free.
        if alloc::mem_enabled() {
            gauge_set("mem.live_bytes", alloc::live_bytes() as i64);
        }
    }
}

/// Opens a span (prefer the [`span!`] macro, which skips field construction
/// when recording is off).
pub fn span_start(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    with_tls(|t| {
        let id = t.record(|rec, buf| {
            let id = rec.next_span.fetch_add(1, Ordering::Relaxed);
            let kind = EventKind::Open {
                span: id,
                parent: buf.current(t.ambient_parent),
                name,
                fields,
            };
            let open = buf.push(rec, kind);
            buf.stack.push(OpenSpan {
                id,
                open,
                depth: None,
            });
            id
        });
        SpanGuard {
            id,
            name,
            opened: Some(Instant::now()),
            close_fields: Vec::new(),
            sat_at_open: t.sat,
            alloc_at_open: alloc::thread_totals(),
        }
    })
    .unwrap_or_else(SpanGuard::noop)
}

/// Emits a point event inside the current span (prefer [`event!`]).
pub fn emit(name: &'static str, fields: Vec<Field>) {
    with_tls(|t| {
        t.record(|rec, buf| {
            if name == "sat.solve" {
                if let (Some(depth), Some(top)) =
                    (field_u64(&fields, "depth"), buf.stack.last_mut())
                {
                    top.depth = Some(depth);
                }
            }
            let span = buf.current(t.ambient_parent);
            buf.push(rec, EventKind::Point { span, name, fields });
        });
    });
}

/// Opens a hierarchical span: `span!("com.sweep", target = 3u64)`. Returns a
/// [`SpanGuard`]; the span closes when the guard drops. Field expressions
/// are **not evaluated** when recording is off.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_start(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Emits a point event: `event!("sat.solve", depth = d, result = "unsat")`.
/// Field expressions are **not evaluated** when recording is off.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

/// The id of the innermost open span on this thread (0 if none). Used by
/// executors to forward span context to worker threads.
pub fn current_span() -> u64 {
    with_tls(|t| t.record(|_, buf| buf.current(t.ambient_parent))).unwrap_or(0)
}

/// Sets the parent span used by this thread's *root* spans (worker threads
/// inherit the submitting thread's open span so the span tree stays
/// connected across `diam-par` fan-outs).
pub fn set_ambient_parent(span: u64) {
    with_tls(|t| t.ambient_parent = span);
}

/// How a worker tag reads in every rendered view: `main` for 0, `w<n>`
/// otherwise.
pub fn worker_label(worker: u64) -> String {
    match worker {
        0 => "main".to_string(),
        w => format!("w{w}"),
    }
}

/// Tags this thread as worker `worker` (0 = main; `diam-par` workers use
/// `index + 1`) running `job` (`None` outside a job). Every event the thread
/// records carries the worker, and a crash dump written on the thread names
/// both, whether or not a session records.
pub fn set_worker(worker: u32, job: Option<u64>) {
    let _ = TAG.try_with(|t| t.set((worker, job)));
}

// ---------------------------------------------------------------------------
// Metrics API
// ---------------------------------------------------------------------------

fn with_metric(name: &'static str, init: impl FnOnce() -> Metric, f: impl FnOnce(&mut Metric)) {
    with_tls(|t| {
        let rec = t.recorder.as_ref().expect("recorder bound");
        // Snapshot the updated scalar under the metrics lock, mirror it to
        // the live sink after releasing it (the sink takes its own lock).
        let scalar = {
            let mut metrics = unpoison(rec.metrics.lock());
            let m = metrics.entry(name).or_insert_with(init);
            f(m);
            match (&rec.live, &*m) {
                (Some(_), Metric::Counter(v)) => Some(*v as i64),
                (Some(_), Metric::Gauge(v)) => Some(*v),
                _ => None,
            }
        };
        if let (Some(live), Some(v)) = (&rec.live, scalar) {
            live.on_scalar(name, v);
        }
    });
}

/// Adds to a named counter (created on first use).
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_metric(
        name,
        || Metric::Counter(0),
        |m| {
            if let Metric::Counter(v) = m {
                *v = v.saturating_add(delta);
            }
        },
    );
}

/// Sets a named gauge (last write wins).
pub fn gauge_set(name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    with_metric(
        name,
        || Metric::Gauge(0),
        |m| {
            if let Metric::Gauge(v) = m {
                *v = value;
            }
        },
    );
}

/// Records a value into a named power-of-two-bucketed histogram.
pub fn histogram_record(name: &'static str, value: u64) {
    histogram_record_n(name, value, 1);
}

/// Records `n` occurrences of `value` into a named power-of-two-bucketed
/// histogram in one locked update. Used to merge pre-bucketed histograms
/// (e.g. the SAT solver's per-solve LBD histogram) without `n` separate
/// metric-table round trips.
pub fn histogram_record_n(name: &'static str, value: u64, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_metric(name, Metric::new_histogram, |m| m.record_n(value, n));
}

/// Reports clause-arena maintenance deltas from one SAT solve: GC runs,
/// bytes reclaimed, and the arena's current live size. GC work is attributed
/// to the open spans (close events gain `sat_gc_runs` / `sat_gc_freed_bytes`
/// when nonzero); `arena_bytes` is a level, exported as a gauge.
pub fn charge_sat_gc(gc_runs: u64, freed_bytes: u64, arena_bytes: u64) {
    if !enabled() {
        return;
    }
    if gc_runs > 0 {
        with_tls(|t| {
            t.sat.gc_runs += gc_runs;
            t.sat.gc_freed_bytes += freed_bytes;
        });
        counter_add("sat.gc_runs", gc_runs);
        counter_add("sat.gc_freed_bytes", freed_bytes);
    }
    gauge_set("sat.arena_bytes", arena_bytes as i64);
}

/// Reports one SAT solve's statistic deltas. Updates this thread's span
/// attribution totals (every open span's close event will include the SAT
/// work performed under it) and the global `sat.*` metrics.
pub fn charge_sat(conflicts: u64, decisions: u64, propagations: u64) {
    if !enabled() {
        return;
    }
    with_tls(|t| {
        t.sat.solves += 1;
        t.sat.conflicts += conflicts;
        t.sat.decisions += decisions;
        t.sat.propagations += propagations;
    });
    counter_add("sat.solves", 1);
    counter_add("sat.conflicts", conflicts);
    counter_add("sat.decisions", decisions);
    counter_add("sat.propagations", propagations);
    histogram_record("sat.conflicts_per_solve", conflicts);
}

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

/// What was run: inputs, options, build info, and end-of-run resource usage.
/// Emitted as the first JSONL record (the run report's header).
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Tool name (e.g. `table1`).
    pub tool: String,
    /// Raw command-line arguments.
    pub args: Vec<String>,
    /// Primary input (file or generated-suite description), if any.
    pub input: Option<String>,
    /// Key/value options (seed, jobs, …).
    pub options: Vec<(String, String)>,
    /// Build info: crate version plus the git commit when discoverable.
    pub build: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total wall time in nanoseconds (filled at finish).
    pub wall_ns: u64,
    /// Peak resident set size in KiB (`/proc/self/status` `VmHWM`), when
    /// readable (filled at finish).
    pub peak_rss_kb: Option<u64>,
}

impl RunManifest {
    /// Captures the current process context for `tool`.
    pub fn capture(tool: &str) -> RunManifest {
        RunManifest {
            tool: tool.to_string(),
            args: std::env::args().skip(1).collect(),
            input: None,
            options: Vec::new(),
            build: build_info(),
            started_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            wall_ns: 0,
            peak_rss_kb: None,
        }
    }

    /// Sets the primary input description.
    #[must_use]
    pub fn input(mut self, input: impl Into<String>) -> RunManifest {
        self.input = Some(input.into());
        self
    }

    /// Appends an option key/value pair.
    #[must_use]
    pub fn option(mut self, key: impl Into<String>, value: impl Into<String>) -> RunManifest {
        self.options.push((key.into(), value.into()));
        self
    }

    /// Renders the manifest's identity fields (tool, args, input, options,
    /// build, start time) as a JSON object — the form crash dumps embed.
    /// End-of-run fields (`wall_ns`, `peak_rss_kb`) are deliberately absent:
    /// a crash has no orderly end of run.
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{\"tool\":");
        json::write_escaped(&mut out, &self.tool);
        out.push_str(",\"args\":[");
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, a);
        }
        out.push_str("],\"input\":");
        match &self.input {
            Some(s) => json::write_escaped(&mut out, s),
            None => out.push_str("null"),
        }
        out.push_str(",\"options\":{");
        for (i, (k, v)) in self.options.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, k);
            out.push(':');
            json::write_escaped(&mut out, v);
        }
        out.push_str("},\"build\":");
        json::write_escaped(&mut out, &self.build);
        out.push_str(&format!(",\"started_unix_ms\":{}}}", self.started_unix_ms));
        out
    }
}

/// Version + git-describe-ish build string, e.g. `diam 0.1.0 (1a2b3c4d5e6f)`.
fn build_info() -> String {
    match git_head() {
        Some(head) => format!("diam {} ({head})", env!("CARGO_PKG_VERSION")),
        None => format!("diam {} (no-git)", env!("CARGO_PKG_VERSION")),
    }
}

/// Best-effort short commit hash: follows `.git/HEAD` upward from the
/// current directory.
fn git_head() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let hash = if let Some(r) = text.strip_prefix("ref: ") {
                std::fs::read_to_string(dir.join(".git").join(r.trim()))
                    .ok()?
                    .trim()
                    .to_string()
            } else {
                text.to_string()
            };
            let short: String = hash.chars().take(12).collect();
            return if short.chars().all(|c| c.is_ascii_hexdigit()) && !short.is_empty() {
                Some(short)
            } else {
                None
            };
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Peak RSS in KiB from `/proc/self/status` (`VmHWM`), when readable.
pub fn peak_rss_kb() -> Option<u64> {
    parse_peak_rss_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts `VmHWM` (KiB) from the text of a `/proc/self/status` file.
///
/// Total-function contract: *any* input — truncated lines, missing units,
/// non-numeric garbage, duplicated keys — yields `Some(kb)` only for a
/// well-formed `VmHWM:\t<n> kB` line and `None` otherwise; it never panics
/// and never mistakes a malformed line for a zero reading. Malformed `VmHWM`
/// lines do not stop the scan (a later well-formed line still counts).
pub fn parse_peak_rss_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmHWM:")
}

/// Current RSS in KiB from `/proc/self/status` (`VmRSS`), when readable.
/// The live watchdog samples this on every heartbeat (`mem.rss_kb`) so a
/// long run's memory growth is visible while it happens, not only as the
/// final `peak_rss_kb`.
pub fn current_rss_kb() -> Option<u64> {
    parse_rss_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts `VmRSS` (KiB) from the text of a `/proc/self/status` file, under
/// the same total-function contract as [`parse_peak_rss_kb`].
pub fn parse_rss_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmRSS:")
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let number = rest.trim().trim_end_matches("kB").trim();
            if let Ok(kb) = number.parse::<u64>() {
                return Some(kb);
            }
            // Malformed (e.g. truncated mid-write): keep scanning rather
            // than giving up on the whole file.
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Session + report
// ---------------------------------------------------------------------------

/// An installed recording session. Exactly one exists at a time; creating a
/// second blocks until the first finishes (this serializes tests that
/// install sessions in the same process).
pub struct Session {
    config: ObsConfig,
    manifest: RunManifest,
    recorder: Arc<Recorder>,
    finished: bool,
    watchdog: Option<std::thread::JoinHandle<()>>,
    _lock: MutexGuard<'static, ()>,
}

impl Session {
    /// Installs a session. With [`ObsMode::Off`] the session exists but
    /// records nothing (hooks stay no-ops). With [`ObsMode::Live`] a
    /// watchdog thread prints heartbeat/stall lines to stderr until finish;
    /// with [`ObsMode::LiveJson`] or [`ObsConfig::live_out`] it streams
    /// machine-readable JSONL progress events instead of / alongside them.
    pub fn install(config: ObsConfig, mut manifest: RunManifest) -> Session {
        let lock = unpoison(INSTALL.lock());
        let epoch = EPOCH.fetch_add(1, Ordering::AcqRel) + 1;
        if config.mem {
            alloc::set_mem_enabled(true);
            manifest.options.push(("mem".to_string(), "on".to_string()));
        }
        // Crash context: dumps from this point on name this run.
        crash::set_manifest_json(manifest.to_json_object());
        let machine = if config.mode.is_off() {
            None
        } else {
            match &config.live_out {
                Some(path) => match std::fs::File::create(path) {
                    Ok(f) => Some(live::MachineSink::File(Mutex::new(f))),
                    Err(e) => {
                        eprintln!("diam-obs: cannot open live stream {}: {e}", path.display());
                        None
                    }
                },
                None if config.mode == ObsMode::LiveJson => Some(live::MachineSink::Stderr),
                None => None,
            }
        };
        let human = config.mode == ObsMode::Live;
        let live_state =
            (human || machine.is_some()).then(|| live::LiveState::new(config.live, human, machine));
        let recorder = Arc::new(Recorder::new(epoch, live_state));
        *unpoison(RECORDER.lock()) = Some(recorder.clone());
        ENABLED.store(!config.mode.is_off(), Ordering::Release);
        let watchdog = recorder
            .live
            .is_some()
            .then(|| live::spawn_watchdog(recorder.clone()));
        Session {
            config,
            manifest,
            recorder,
            finished: false,
            watchdog,
            _lock: lock,
        }
    }

    /// Stops recording, drains every thread's buffer, writes the JSONL trace
    /// (if configured), and returns the full [`Report`]. Rendering/printing
    /// is left to the caller so `--obs off` runs stay byte-clean.
    pub fn finish(mut self) -> Report {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> Report {
        self.finished = true;
        ENABLED.store(false, Ordering::Release);
        if self.config.mem {
            alloc::set_mem_enabled(false);
        }
        *unpoison(RECORDER.lock()) = None;
        EPOCH.fetch_add(1, Ordering::AcqRel);
        if let Some(live) = &self.recorder.live {
            live.request_stop();
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }

        let mut events = Vec::new();
        for buf in unpoison(self.recorder.buffers.lock()).iter() {
            events.append(&mut unpoison(buf.lock()).events);
        }
        events.sort_by_key(|e| e.seq);
        self.manifest.wall_ns = self.recorder.start.elapsed().as_nanos() as u64;
        self.manifest.peak_rss_kb = peak_rss_kb();
        if let Some(live) = &self.recorder.live {
            live.emit_finish(self.manifest.wall_ns, events.len() as u64);
        }
        let metrics = unpoison(self.recorder.metrics.lock()).clone();
        let report = Report {
            mode: self.config.mode,
            manifest: self.manifest.clone(),
            events,
            metrics,
        };
        if !self.config.mode.is_off() {
            if let Some(path) = &self.config.trace_out {
                if let Err(e) = std::fs::write(path, report.to_jsonl()) {
                    eprintln!("diam-obs: cannot write trace {}: {e}", path.display());
                }
            }
        }
        report
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.finish_inner();
        }
    }
}

/// Everything a finished session recorded.
#[derive(Debug, Clone)]
pub struct Report {
    /// The mode the session ran under.
    pub mode: ObsMode,
    /// The manifest, with wall time and peak RSS filled in.
    pub manifest: RunManifest,
    /// All events, in global sequence order.
    pub events: Vec<Event>,
    /// Final metric values.
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Renders the full JSONL trace: one manifest line, one line per event,
    /// one final metrics line. Every line is an object carrying `ts`, `span`,
    /// `ev`, and `fields`.
    pub fn to_jsonl(&self) -> String {
        // The manifest line extends the crash dumps' manifest object with
        // the end-of-run fields. `peak_rss_kb` is simply absent when
        // `/proc/self/status` was unreadable — readers treat it as `None`.
        let identity = self.manifest.to_json_object();
        let mut out = format!(
            "{{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{},\"wall_ns\":{}",
            &identity[..identity.len() - 1],
            self.manifest.wall_ns
        );
        if let Some(kb) = self.manifest.peak_rss_kb {
            out.push_str(&format!(",\"peak_rss_kb\":{kb}"));
        }
        out.push_str("}}\n");

        for e in &self.events {
            e.write_json(&mut out);
            out.push('\n');
        }

        // Metrics line.
        out.push_str(&format!(
            "{{\"ts\":{},\"span\":0,\"ev\":\"metrics\",\"fields\":{{",
            self.manifest.wall_ns
        ));
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, name);
            out.push(':');
            match m {
                Metric::Counter(v) => out.push_str(&v.to_string()),
                Metric::Gauge(v) => out.push_str(&v.to_string()),
                Metric::Histogram { count, sum, .. } => {
                    out.push_str(&format!("{{\"count\":{count},\"sum\":{sum}"));
                    if let (Some(min), Some(max)) = (m.observed_min(), m.observed_max()) {
                        out.push_str(&format!(",\"min\":{min},\"max\":{max}"));
                    }
                    if let (Some(p50), Some(p90), Some(p99)) =
                        (m.quantile(0.50), m.quantile(0.90), m.quantile(0.99))
                    {
                        out.push_str(&format!(",\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}"));
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The close fields of the span named `span`.
    fn closed<'r>(report: &'r Report, span: &str) -> &'r [Field] {
        report
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Close { name, fields, .. } if *name == span => Some(fields.as_slice()),
                _ => None,
            })
            .expect("span closed")
    }

    /// A recording session without live sinks.
    pub(crate) fn quiet_session() -> Session {
        Session::install(
            ObsConfig {
                mode: ObsMode::Summary,
                ..ObsConfig::default()
            },
            RunManifest::capture("test"),
        )
    }

    #[test]
    fn disabled_hooks_are_noops() {
        // No session: nothing records, guards are inert. The install lock
        // keeps concurrently running tests from installing a session while
        // this half runs; it must be released before `quiet_session` takes it.
        {
            let _no_session = unpoison(INSTALL.lock());
            assert!(!enabled());
            let mut g = span!("nope", x = 1u64);
            g.record("y", 2u64);
            event!("nope.event", z = 3u64);
            counter_add("nope.counter", 1);
            charge_sat(1, 2, 3);
            drop(g);
        }
        // Installing afterwards sees a clean slate.
        let session = quiet_session();
        let report = session.finish();
        assert!(report.events.is_empty());
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn span_nesting_and_fields_round_trip() {
        let session = quiet_session();
        {
            let mut outer = span!("outer", a = 1u64);
            assert_ne!(outer.id(), 0);
            {
                let inner = span!("inner", b = "two");
                assert_ne!(inner.id(), outer.id());
            }
            outer.record("done", true);
        }
        let report = session.finish();
        assert_eq!(report.events.len(), 4);
        // open(outer), open(inner), close(inner), close(outer)
        let names: Vec<&str> = report.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["outer", "inner", "inner", "outer"]);
        match &report.events[1].kind {
            EventKind::Open { parent, .. } => {
                let outer_id = match &report.events[0].kind {
                    EventKind::Open { span, .. } => *span,
                    _ => panic!("expected open"),
                };
                assert_eq!(*parent, outer_id);
            }
            _ => panic!("expected open"),
        }
        assert!(closed(&report, "outer").contains(&("done", Value::Bool(true))));
    }

    #[test]
    fn metrics_accumulate() {
        let session = quiet_session();
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", -7);
        histogram_record("h", 0);
        histogram_record("h", 5);
        histogram_record("h", 1000);
        let report = session.finish();
        assert_eq!(report.metrics["c"], Metric::Counter(5));
        assert_eq!(report.metrics["g"], Metric::Gauge(-7));
        match &report.metrics["h"] {
            Metric::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 1005);
                assert_eq!(*min, 0);
                assert_eq!(*max, 1000);
                assert_eq!(buckets[0], 1); // zero
                assert_eq!(buckets[3], 1); // 5 = 3 bits
                assert_eq!(buckets[10], 1); // 1000 = 10 bits
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn sat_charges_attach_to_spans() {
        let session = quiet_session();
        {
            let _outer = span!("job");
            charge_sat(10, 20, 30);
            charge_sat(1, 2, 3);
        }
        let report = session.finish();
        let fields = closed(&report, "job");
        assert!(fields.contains(&("sat_solves", Value::U64(2))));
        assert!(fields.contains(&("sat_conflicts", Value::U64(11))));
        assert!(fields.contains(&("sat_decisions", Value::U64(22))));
        assert!(fields.contains(&("sat_propagations", Value::U64(33))));
        assert_eq!(report.metrics["sat.solves"], Metric::Counter(2));
    }

    #[test]
    fn sat_gc_charges_attach_to_spans_and_gauge() {
        let session = quiet_session();
        {
            let _outer = span!("job");
            charge_sat(1, 2, 3);
            charge_sat_gc(2, 4096, 1024);
        }
        let report = session.finish();
        let fields = closed(&report, "job");
        assert!(fields.contains(&("sat_gc_runs", Value::U64(2))));
        assert!(fields.contains(&("sat_gc_freed_bytes", Value::U64(4096))));
        assert_eq!(report.metrics["sat.gc_runs"], Metric::Counter(2));
        assert_eq!(report.metrics["sat.gc_freed_bytes"], Metric::Counter(4096));
        assert_eq!(report.metrics["sat.arena_bytes"], Metric::Gauge(1024));
    }

    #[test]
    fn histogram_record_n_merges_buckets() {
        let session = quiet_session();
        histogram_record("hn", 5);
        histogram_record_n("hn", 5, 3);
        histogram_record_n("hn", 1000, 2);
        histogram_record_n("hn", 7, 0); // no-op
        let report = session.finish();
        match &report.metrics["hn"] {
            Metric::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                assert_eq!(*count, 6);
                assert_eq!(*sum, 5 + 15 + 2000);
                assert_eq!(*min, 5);
                assert_eq!(*max, 1000);
                assert_eq!(buckets[3], 4); // 5 = 3 bits
                assert_eq!(buckets[10], 2); // 1000 = 10 bits
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// Recorded durations reflect real elapsed time: a root span around a
    /// 20 ms sleep accounts for most, and no more than all, of the session.
    #[test]
    fn root_span_total_reconciles_with_wall_time() {
        let session = quiet_session();
        {
            let _root = span!("root");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let report = session.finish();
        let roots: Vec<u64> = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Open {
                    span, parent: 0, ..
                } => Some(span),
                _ => None,
            })
            .collect();
        let root: u64 = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Close { span, dur_ns, .. } if roots.contains(&span) => Some(dur_ns),
                _ => None,
            })
            .sum();
        let (root, wall) = (root as f64, report.manifest.wall_ns as f64);
        assert!(root > 0.0 && wall > 0.0);
        assert!(root <= wall * 1.05, "root {root} wall {wall}");
        assert!(root >= wall * 0.5, "root {root} wall {wall}");
    }

    /// Quantile estimation over the power-of-two buckets: the estimate is
    /// the inclusive upper bound of the bucket holding the ⌈q·n⌉-th value.
    #[test]
    fn histogram_quantiles_estimate_from_buckets() {
        let session = quiet_session();
        for _ in 0..90 {
            histogram_record("q", 3); // bucket 2 (upper bound 3)
        }
        for _ in 0..9 {
            histogram_record("q", 200); // bucket 8 (upper bound 255)
        }
        histogram_record("q", 100_000); // bucket 17 (upper bound 131071)
        let report = session.finish();
        let h = &report.metrics["q"];
        assert_eq!(h.quantile(0.50), Some(3));
        assert_eq!(h.quantile(0.90), Some(3)); // rank 90 is still in bucket 2
        assert_eq!(h.quantile(0.95), Some(255));
        assert_eq!(h.quantile(0.99), Some(255));
        assert_eq!(h.quantile(1.0), Some(131_071));
        assert_eq!(Metric::Counter(3).quantile(0.5), None);
        assert_eq!(Metric::new_histogram().quantile(0.5), None);
        // Exact min/max bound the bucket-rounded quantile estimates.
        assert_eq!(h.observed_min(), Some(3));
        assert_eq!(h.observed_max(), Some(100_000));
        assert_eq!(Metric::Counter(3).observed_min(), None);
        assert_eq!(Metric::new_histogram().observed_max(), None);
    }

    /// `parse_peak_rss_kb` is total: malformed `/proc/self/status` content
    /// yields `None` (or skips to a later well-formed line), never a panic.
    #[test]
    fn peak_rss_parsing_is_total() {
        let good = "VmPeak:\t  123 kB\nVmHWM:\t   5544 kB\nVmRSS:\t  99 kB\n";
        assert_eq!(parse_peak_rss_kb(good), Some(5544));
        assert_eq!(parse_peak_rss_kb(""), None);
        assert_eq!(parse_peak_rss_kb("VmHWM:"), None);
        assert_eq!(parse_peak_rss_kb("VmHWM:\t kB"), None);
        assert_eq!(parse_peak_rss_kb("VmHWM:\tgarbage kB"), None);
        assert_eq!(parse_peak_rss_kb("VmHWM:\t-12 kB"), None);
        assert_eq!(
            parse_peak_rss_kb("VmHWM:\t99999999999999999999999 kB"),
            None
        );
        // A malformed line does not mask a later well-formed one.
        let twice = "VmHWM:\t<truncated\nVmHWM:\t 42 kB\n";
        assert_eq!(parse_peak_rss_kb(twice), Some(42));
        // No unit suffix still parses (the kernel always writes one, but
        // the parser does not insist).
        assert_eq!(parse_peak_rss_kb("VmHWM: 7"), Some(7));
    }

    #[test]
    fn current_rss_parsing_is_total() {
        let good = "VmPeak:\t  123 kB\nVmHWM:\t   5544 kB\nVmRSS:\t  99 kB\n";
        assert_eq!(parse_rss_kb(good), Some(99));
        assert_eq!(parse_rss_kb(""), None);
        assert_eq!(parse_rss_kb("VmRSS:\tgarbage kB"), None);
        let twice = "VmRSS:\t<truncated\nVmRSS:\t 42 kB\n";
        assert_eq!(parse_rss_kb(twice), Some(42));
        // On Linux the live read works; elsewhere it degrades to None.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(current_rss_kb().is_some());
        }
    }

    /// With `--mem` accounting on, span close events carry the allocator
    /// work performed under them — the `alloc_*` analogue of `sat_*`.
    #[test]
    fn alloc_charges_attach_to_spans() {
        let _serial = alloc::test_lock();
        let session = quiet_session();
        alloc::set_mem_enabled(true);
        {
            let _outer = span!("job.alloc");
            // Simulate allocator traffic the way the wrapper reports it:
            // the wrapper itself is only installed in opted-in binaries.
            use std::alloc::GlobalAlloc;
            let a = alloc::CountingAlloc::new();
            let layout = std::alloc::Layout::from_size_align(512, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                a.dealloc(p, layout);
            }
        }
        alloc::set_mem_enabled(false);
        let report = session.finish();
        let close_fields = closed(&report, "job.alloc");
        let get = |key: &str| {
            close_fields.iter().find_map(|(k, v)| match v {
                Value::U64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        assert_eq!(get("alloc_allocs"), Some(1));
        assert_eq!(get("alloc_frees"), Some(1));
        assert_eq!(get("alloc_bytes"), Some(512));
        assert_eq!(get("alloc_freed_bytes"), Some(512));
        assert!(matches!(
            report.metrics.get("mem.live_bytes"),
            Some(Metric::Gauge(_))
        ));
    }

    /// With accounting off no `alloc_*` fields appear — old traces and
    /// golden fixtures stay byte-identical.
    #[test]
    fn alloc_fields_absent_when_mem_off() {
        let session = quiet_session();
        {
            let _outer = span!("job.noalloc");
            let _v: Vec<u64> = Vec::with_capacity(100);
        }
        let report = session.finish();
        let close_fields = closed(&report, "job.noalloc");
        assert!(!close_fields.iter().any(|(k, _)| k.starts_with("alloc_")));
    }

    /// A `None` peak RSS is an *absent* manifest key, not `null`.
    #[test]
    fn manifest_peak_rss_absent_when_unknown() {
        let render = |peak: Option<u64>| {
            let report = Report {
                mode: ObsMode::Json,
                manifest: RunManifest {
                    tool: "t".into(),
                    peak_rss_kb: peak,
                    ..RunManifest::default()
                },
                events: Vec::new(),
                metrics: BTreeMap::new(),
            };
            report.to_jsonl().lines().next().unwrap().to_string()
        };
        let absent = render(None);
        assert!(!absent.contains("peak_rss_kb"), "{absent}");
        assert!(json::parse(&absent).is_ok());
        let present = render(Some(77));
        assert!(present.contains("\"peak_rss_kb\":77"), "{present}");
    }

    #[test]
    fn mode_and_manifest_helpers() {
        assert_eq!(ObsMode::parse("off"), Ok(ObsMode::Off));
        assert_eq!(ObsMode::parse("summary"), Ok(ObsMode::Summary));
        assert_eq!(ObsMode::parse("json"), Ok(ObsMode::Json));
        assert_eq!(ObsMode::parse("live"), Ok(ObsMode::Live));
        assert_eq!(ObsMode::parse("live-json"), Ok(ObsMode::LiveJson));
        assert_eq!(ObsMode::Live.to_string(), "live");
        assert_eq!(ObsMode::LiveJson.to_string(), "live-json");
        assert!(!ObsMode::Live.is_off());
        assert!(ObsMode::parse("verbose").is_err());
        assert_eq!(ObsMode::Json.to_string(), "json");
        let m = RunManifest::capture("t").input("file.aag").option("k", "v");
        assert_eq!(m.input.as_deref(), Some("file.aag"));
        assert_eq!(m.options, vec![("k".to_string(), "v".to_string())]);
        assert!(m.build.starts_with("diam "));
    }

    /// One parser for the four observability flags: both spellings, both
    /// promotion rules, `--mem`, and the `diam` CLI's error wording.
    #[test]
    fn obs_flags_parse_in_one_place() {
        let args = |a: &[&str]| ObsConfig::from_args(a.iter().map(|s| s.to_string()));
        let (c, rest) = args(&["1", "--obs", "summary", "--mem", "on", "--limit", "2"]).unwrap();
        assert_eq!((c.mode, c.mem), (ObsMode::Summary, true));
        assert_eq!(rest, ["1", "--limit", "2"]);
        // `--flag=value` is not this parser's spelling: it passes through.
        let (c, rest) = args(&["--obs=json"]).unwrap();
        assert_eq!(
            (c.mode, rest),
            (ObsMode::Off, vec!["--obs=json".to_string()])
        );
        let (c, _) = args(&["--trace-out", "t.jsonl", "--live-out", "l.jsonl"]).unwrap();
        assert_eq!(c.mode, ObsMode::Json);
        assert_eq!(c.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(c.live_out, Some(PathBuf::from("l.jsonl")));
        assert_eq!(args(&["--live-out", "l"]).unwrap().0.mode, ObsMode::Live);
        let (c, _) = args(&["--trace-out", "t", "--obs", "summary"]).unwrap();
        assert_eq!(c.mode, ObsMode::Summary);
        let err = |a: &[&str]| args(a).unwrap_err().to_string();
        assert_eq!(err(&["--trace-out"]), "--trace-out needs a value");
        assert_eq!(
            err(&["--obs", "loud"]),
            "bad --obs value \"loud\" (expected off|summary|json|live|live-json)"
        );
        assert_eq!(err(&["--mem", "maybe"]), "--mem expects on|off, got maybe");
    }

    /// `mem` turns allocator accounting on for the session's lifetime and
    /// records `mem=on` in the manifest.
    #[test]
    fn mem_config_spans_the_session() {
        let _serial = alloc::test_lock();
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::Summary,
                mem: true,
                ..ObsConfig::default()
            },
            RunManifest::capture("mem-test"),
        );
        assert!(alloc::mem_enabled());
        let report = session.finish();
        assert!(!alloc::mem_enabled());
        let mem_on = ("mem".to_string(), "on".to_string());
        assert!(report.manifest.options.contains(&mem_on));
    }
}
