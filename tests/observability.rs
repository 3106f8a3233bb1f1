//! Integration tests for the `diam-obs` layer: span nesting and drain
//! ordering under threaded fan-out, JSONL schema round-tripping through the
//! real pipeline instrumentation, and the no-session zero-cost contract.
//!
//! Sessions are process-global; `Session::install` serializes concurrent
//! installs, so these tests are safe under the default parallel test
//! runner — each one holds the session for its own duration.

use diam::gen::random::{random_netlist, RandomDesignOptions};
use diam::obs::json::JsonValue;
use diam::obs::{self, json, EventKind, ObsConfig, ObsMode, RunManifest, Session};
use diam::par::{self, Parallelism};

fn json_session(tool: &str) -> Session {
    let config = ObsConfig {
        mode: ObsMode::Json,
        ..ObsConfig::default()
    };
    Session::install(config, RunManifest::capture(tool))
}

/// Worker-thread spans attach to the orchestrating span (ambient parent),
/// nest correctly inside their job span, and drain in global `seq` order.
#[test]
fn span_nesting_and_drain_order_under_threads() {
    let session = json_session("test-nesting");
    let outer_id;
    {
        let outer = obs::span!("test.outer", jobs = 8u64);
        outer_id = outer.id();
        par::run(Parallelism::Threads(3), (0..8u64).collect(), |i, job| {
            let mut sp = obs::span!("test.job", index = i, job = job);
            let inner = obs::span!("test.leaf");
            drop(inner);
            sp.record("done", true);
            job
        });
    }
    let report = session.finish();

    // Drain order: strictly increasing global sequence numbers.
    for w in report.events.windows(2) {
        assert!(w[0].seq < w[1].seq, "events must drain in seq order");
    }

    // Collect parent links and worker tags.
    let mut job_spans = Vec::new();
    let mut leaf_parents = Vec::new();
    let mut opened = Vec::new();
    let mut closed = Vec::new();
    for e in &report.events {
        match &e.kind {
            EventKind::Open {
                span, parent, name, ..
            } => {
                opened.push(*span);
                match *name {
                    "test.job" => {
                        assert_eq!(
                            *parent, outer_id,
                            "job spans must attach to the orchestrating span"
                        );
                        assert!(
                            (1..=3).contains(&e.worker),
                            "job spans carry a worker tag, got {}",
                            e.worker
                        );
                        job_spans.push(*span);
                    }
                    "test.leaf" => leaf_parents.push(*parent),
                    "test.outer" => assert_eq!(*parent, 0, "outer span is a root"),
                    other => panic!("unexpected span {other}"),
                }
            }
            EventKind::Close { span, .. } => {
                assert!(
                    opened.contains(span),
                    "close of span {span} must come after its open"
                );
                closed.push(*span);
            }
            EventKind::Point { .. } => {}
        }
    }
    assert_eq!(job_spans.len(), 8, "one span per job");
    assert_eq!(leaf_parents.len(), 8, "one leaf per job");
    for p in &leaf_parents {
        assert!(job_spans.contains(p), "leaf spans nest inside job spans");
    }
    let mut o = opened.clone();
    let mut c = closed.clone();
    o.sort_unstable();
    c.sort_unstable();
    assert_eq!(o, c, "every opened span closes");
}

/// The real pipeline instrumentation round-trips through the JSONL format:
/// every line parses, carries the schema keys, and the per-target spans
/// carry the back-translation fields.
#[test]
fn jsonl_schema_round_trip() {
    use diam::core::{Pipeline, StructuralOptions};
    let n = random_netlist(&RandomDesignOptions::default(), 7);
    let session = json_session("test-jsonl");
    let pipe = Pipeline::com();
    let _ = pipe.bound_targets(&n, &StructuralOptions::default());
    let report = session.finish();
    let jsonl = report.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 3, "manifest + events + metrics");
    for line in &lines {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line ({e}): {line}"));
        assert!(v.is_object(), "line is an object: {line}");
        for key in ["ts", "span", "ev", "fields"] {
            assert!(v.get(key).is_some(), "line carries `{key}`: {line}");
        }
    }
    let first = json::parse(lines[0]).unwrap();
    assert_eq!(
        first.get("ev").and_then(JsonValue::as_str),
        Some("manifest")
    );
    assert_eq!(
        first
            .get("fields")
            .and_then(|f| f.get("tool"))
            .and_then(JsonValue::as_str),
        Some("test-jsonl")
    );
    let last = json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(last.get("ev").and_then(JsonValue::as_str), Some("metrics"));

    // Per-target spans carry the back-translation fields.
    let mut saw_target = false;
    for line in &lines {
        let v = json::parse(line).unwrap();
        if v.get("name").and_then(JsonValue::as_str) == Some("bound.target")
            && v.get("ev").and_then(JsonValue::as_str) == Some("close")
        {
            let f = v.get("fields").expect("fields");
            assert!(f.get("bt_add").is_some(), "bt_add on {line}");
            assert!(f.get("bt_mul").is_some(), "bt_mul on {line}");
            assert!(f.get("original").is_some(), "original on {line}");
            saw_target = true;
        }
    }
    assert!(saw_target, "at least one bound.target close span");
}

/// Transform passes share one `pass.apply` span schema: the close event
/// records before/after netlist statistics and pass-specific details, and
/// SAT work is attributed via the drop-time `sat_*` fields.
#[test]
fn transform_spans_carry_stats_deltas() {
    use diam::netlist::{Init, Netlist};
    use diam::transform::com::SweepOptions;
    use diam::transform::pass::{apply_traced, ComPass};
    // A lockstep pair: `r` and `s` are sequentially equivalent, which the
    // sweep can only discover through its SAT check — guaranteeing nonzero
    // `sat_*` attribution on the `pass.apply` span.
    let mut n = Netlist::new();
    let a = n.input("a");
    let r = n.reg("r", Init::Zero);
    let s = n.reg("s", Init::Zero);
    let nr = n.and(r.lit(), a.into());
    let ns = n.and(s.lit(), a.into());
    n.set_next(r, nr);
    n.set_next(s, ns);
    let t = n.and(r.lit(), !s.lit());
    n.add_target(t, "diverge");
    let session = json_session("test-deltas");
    let _ = apply_traced(&ComPass(SweepOptions::default()), &n);
    let report = session.finish();
    // The open event names the engine via the `pass` field.
    let open = report
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Open { name, fields, .. } if *name == "pass.apply" => Some(fields.clone()),
            _ => None,
        })
        .expect("pass.apply open event");
    assert!(
        open.iter().any(|(name, _)| *name == "pass"),
        "pass.apply open carries `pass`: {open:?}"
    );
    let close = report
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Close { name, fields, .. } if *name == "pass.apply" => Some(fields.clone()),
            _ => None,
        })
        .expect("pass.apply close event");
    let key = |k: &str| close.iter().any(|(name, _)| *name == k);
    for k in [
        "ok",
        "ands_before",
        "regs_before",
        "ands_after",
        "regs_after",
        "merges",
        "refinements",
        "sat_solves",
    ] {
        assert!(key(k), "pass.apply close carries `{k}`: {close:?}");
    }
}

/// Without a session installed nothing records, `enabled()` is false, and
/// span guards are free to construct and drop.
#[test]
fn no_session_is_inert() {
    // May race with another test's session only through `enabled()`; the
    // spans recorded here use names no assertion elsewhere counts, so both
    // interleavings are safe.
    let sp = obs::span!("test.inert", x = 1u64);
    drop(sp);
    obs::counter_add("test.inert_counter", 1);
    obs::event!("test.inert_event", y = 2u64);
}

/// The run report reconciles: the root spans of the parsed session total no
/// more than the session wall time, and the report every recording binary
/// prints (`diam_trace::session_report`) names the phases.
#[test]
fn summary_reconciles_with_wall_time() {
    use diam::core::{Pipeline, StructuralOptions};
    let n = random_netlist(&RandomDesignOptions::default(), 3);
    let session = json_session("test-summary");
    let _ = Pipeline::com().bound_targets(&n, &StructuralOptions::default());
    let report = session.finish();
    assert!(report.manifest.wall_ns > 0);
    let trace = diam::trace::Trace::parse(&report.to_jsonl()).expect("the session's trace parses");
    let root_ns: u64 = trace.roots().iter().map(|id| trace.spans[id].dur_ns).sum();
    assert!(
        root_ns <= report.manifest.wall_ns,
        "root span total {root_ns} exceeds wall {}",
        report.manifest.wall_ns
    );
    let summary = diam::trace::session_report(&report).expect("json mode records");
    assert!(summary.contains("pipeline.run"), "{summary}");
    assert!(summary.contains("bound.target"), "{summary}");
    assert!(summary.contains("per-phase attribution"), "{summary}");
}
