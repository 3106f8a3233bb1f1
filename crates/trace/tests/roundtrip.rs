//! Property test: the parser against the producer.
//!
//! A random instruction tape drives a live Json-mode session (nested spans
//! with string, integer, float and boolean fields, point events, SAT
//! charging, counters, gauges and histograms). The model that
//! `Trace::parse` builds from the session's `Report::to_jsonl()` — the exact
//! bytes `--trace-out` writes — must match that `Report` span for span,
//! point for point and metric for metric.

use diam_obs::json::JsonValue;
use diam_obs::{EventKind, Field, Metric, ObsConfig, ObsMode, Report, RunManifest, Session, Value};
use diam_trace::{MetricValue, SatAttr, Trace, TraceManifest};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 3] = ["phase.alpha", "phase.beta", "phase.gamma"];
const LABELS: [&str; 4] = [
    "plain",
    "quote\"back\\slash",
    "line\nbreak\ttab",
    "ünïcødé ✓",
];

/// Interprets one instruction tape against the installed session.
fn run_ops(ops: &[(u8, u8)]) {
    let mut guards = Vec::new();
    for &(op, arg) in ops {
        match op {
            0 => {
                let mut guard = diam_obs::span!(
                    NAMES[arg as usize % NAMES.len()],
                    index = arg as u64,
                    label = LABELS[arg as usize % LABELS.len()],
                    ratio = f64::from(arg) / 4.0,
                    delta = -i64::from(arg)
                );
                if arg % 2 == 0 {
                    guard.record("flag", arg % 4 == 0);
                }
                guards.push(guard);
            }
            1 => drop(guards.pop()), // closes the innermost span, if any
            2 => diam_obs::event!("sat.solve", depth = arg as u64, conflicts = arg as u64 * 3),
            3 => diam_obs::charge_sat(arg as u64, 1, 2),
            4 => diam_obs::gauge_set("prop.gauge", 100 - i64::from(arg)),
            5 => diam_obs::counter_add("prop.counter", u64::from(arg) << 40),
            _ => diam_obs::histogram_record("prop.hist", arg as u64),
        }
    }
    // Close innermost-first so spans unwind like real RAII scopes.
    while guards.pop().is_some() {}
}

/// The JSON object a list of recorded fields stands for.
fn fields_of(fields: &[Field]) -> BTreeMap<String, JsonValue> {
    let json = |v: &Value| match v {
        Value::U64(n) => JsonValue::Int(i128::from(*n)),
        Value::I64(n) => JsonValue::Int(i128::from(*n)),
        Value::F64(f) if f.is_finite() => JsonValue::Float(*f),
        Value::F64(_) => JsonValue::Null,
        Value::Bool(b) => JsonValue::Bool(*b),
        Value::Str(s) => JsonValue::Str(s.clone()),
    };
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), json(v)))
        .collect()
}

/// The SAT attribution the recorder appended to a close event.
fn sat_of(fields: &[Field]) -> SatAttr {
    let pick = |key: &str| match fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(n))) => *n,
        _ => 0,
    };
    SatAttr {
        solves: pick("sat_solves"),
        conflicts: pick("sat_conflicts"),
        decisions: pick("sat_decisions"),
        propagations: pick("sat_propagations"),
        gc_runs: pick("sat_gc_runs"),
        gc_freed_bytes: pick("sat_gc_freed_bytes"),
    }
}

/// The metrics-line value a final metric stands for.
fn metric_of(m: &Metric) -> MetricValue {
    match m {
        Metric::Counter(v) => MetricValue::Scalar(i128::from(*v)),
        Metric::Gauge(v) => MetricValue::Scalar(i128::from(*v)),
        Metric::Histogram { count, sum, .. } => MetricValue::Histogram {
            count: *count,
            sum: *sum,
            min: m.observed_min(),
            max: m.observed_max(),
            p50: m.quantile(0.50),
            p90: m.quantile(0.90),
            p99: m.quantile(0.99),
        },
    }
}

/// Asserts that `trace` models exactly what `report` recorded.
fn assert_models(report: &Report, trace: &Trace) {
    let m = &report.manifest;
    let manifest = TraceManifest {
        tool: m.tool.clone(),
        args: m.args.clone(),
        input: m.input.clone(),
        options: m.options.iter().cloned().collect(),
        build: m.build.clone(),
        started_unix_ms: m.started_unix_ms,
        wall_ns: m.wall_ns,
        peak_rss_kb: m.peak_rss_kb,
    };
    assert_eq!(trace.manifest, manifest);

    let mut open_order = Vec::new();
    let mut points = trace.points.iter();
    for e in &report.events {
        let worker = u64::from(e.worker);
        match &e.kind {
            EventKind::Open {
                span,
                parent,
                name,
                fields,
            } => {
                let sp = &trace.spans[span];
                assert_eq!(
                    (sp.parent, sp.name.as_str(), sp.worker),
                    (*parent, *name, worker)
                );
                assert_eq!((sp.open_ts, sp.open_seq), (e.ts_ns, e.seq));
                assert_eq!(sp.open_fields, fields_of(fields));
                open_order.push(*span);
            }
            EventKind::Close {
                span,
                name,
                dur_ns,
                fields,
            } => {
                let sp = &trace.spans[span];
                assert_eq!((sp.name.as_str(), sp.dur_ns), (*name, *dur_ns));
                assert_eq!(sp.close_fields, fields_of(fields));
                assert_eq!(sp.sat, sat_of(fields));
            }
            EventKind::Point { span, name, fields } => {
                let p = points.next().expect("one model point per point event");
                assert_eq!((p.ts, p.seq, p.worker), (e.ts_ns, e.seq, worker));
                assert_eq!((p.span, p.name.as_str()), (*span, *name));
                assert_eq!(p.fields, fields_of(fields));
            }
        }
    }
    assert!(points.next().is_none(), "the model has extra points");
    assert_eq!(trace.open_order, open_order);
    assert_eq!(trace.spans.len(), open_order.len());
    for sp in trace.spans.values() {
        let children: Vec<u64> = open_order
            .iter()
            .copied()
            .filter(|c| trace.spans[c].parent == sp.id)
            .collect();
        assert_eq!(sp.children, children, "children of span {}", sp.id);
    }

    assert_eq!(trace.metrics_ts, m.wall_ns);
    let metrics: BTreeMap<String, MetricValue> = report
        .metrics
        .iter()
        .map(|(name, m)| (name.to_string(), metric_of(m)))
        .collect();
    assert_eq!(trace.metrics, metrics);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parsed_model_matches_the_session(
        ops in proptest::collection::vec((0u8..7, any::<u8>()), 0..=48)
    ) {
        let manifest = RunManifest::capture("roundtrip")
            .input("in \"put\".aag")
            .option("kind", "property")
            .option("seed", "1");
        let config = ObsConfig { mode: ObsMode::Json, ..ObsConfig::default() };
        let session = Session::install(config, manifest);
        run_ops(&ops);
        let report = session.finish();
        let jsonl = report.to_jsonl();
        let trace = Trace::parse(&jsonl)
            .unwrap_or_else(|e| panic!("live session emitted an invalid trace: {e}\n{jsonl}"));
        assert_models(&report, &trace);
    }
}
