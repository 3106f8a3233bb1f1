//! The traced run (`--trace 1`): per-layer attribution.
//!
//! One untraced run gives the reference wall time; then [`TRACED_RUNS`]
//! runs repeat the same entry points under an `ObsMode::Json` session, with
//! the benchmark's own spans around every public call (`ledger.parse`,
//! `ledger.entry`) and no new spans inside the program. Each traced run's
//! JSONL is parsed back with [`Trace::parse`] and split into layers by the
//! self times of [`rollup`] (duration minus direct-child duration), using
//! the spans the program already records (`pipeline.run`, `pass.apply`,
//! `bound.target`, `ecc.*`, `visit.bfs`, `bmc.check`, `bmc.chunk`,
//! `prove.target`, `classify.target`), its counters and its SAT attribution.
//!
//! `solve_all` opens no span around its sweep or its random simulation, so
//! for the solving workloads a second session replays the two calls it makes
//! unconditionally — `com::sweep(sweep options)` and `random_search` for
//! every target — each under its own span, and subtracts them from
//! `ledger.entry`'s self time. What remains there is `unattributed_frac`:
//! on the solving workloads the symbolic engine and k-induction, the
//! residue the in-program tracing has to name next.
//!
//! Times are reported as shares of the traced wall (`*_frac`, summing to
//! one with `unattributed_frac`), so a layer a workload bypasses reads 0;
//! `traced_wall_s` converts them back to seconds. Every counter must repeat
//! exactly across the traced runs; a mismatch is reported as a wrong output
//! (nondeterminism).
//!
//! Which end-to-end metric each layer should move, on which workload:
//!
//! | layer metric | moves |
//! |---|---|
//! | `netlist.parse_frac` | `setup_s` on scale_1m |
//! | `netlist.visit_frac`, `netlist.visit_visited` | `wall_s` on scale_1m |
//! | `core.classify_frac` | `wall_s` on paper_tables, scale_1m |
//! | `core.pipeline_frac`, `pass.{coi,com,ret}_frac` | `wall_s` on paper_tables, solve_paper |
//! | `core.bound_frac` | `wall_s` on scale_1m; `design_tail_ms` on paper_tables |
//! | `ecc.{enumerate,sweep}_frac`, `ecc.cache_{hit,miss}` | `wall_s` on scale_1m, prove_archetypes (0 on paper_tables) |
//! | `transform.sweep_frac` | `wall_s` on solve_paper |
//! | `bmc.random_frac`, `bmc.random_hit_ratio` | `wall_s`, `design_tail_ms` on solve_paper |
//! | `bmc.check_frac`, `bmc.depth_sum` | `wall_s`, `design_tail_ms` on prove_archetypes |
//! | `bmc.prove_frac` | `wall_s` on scale_1m |
//! | `bmc.closed_by.*` | `decided_frac` |
//! | `{pass.apply,bmc.check}.sat.*` | `wall_s` on paper_tables, prove_archetypes |

use crate::check::{Checker, Tally, CLOSERS};
use crate::workloads::{self, Design, Workload};
use crate::Metric;
use diam_bmc::random_search;
use diam_bmc::strategy::StrategyOptions;
use diam_obs::{ObsConfig, ObsMode, RunManifest, Session};
use diam_trace::{rollup, MetricValue, SatAttr, Span, Trace};
use diam_transform::com::sweep;

/// Traced runs per invocation: two, so every counter can be compared.
pub const TRACED_RUNS: usize = 2;

/// Layer names, in report order; `*_frac` shares of the traced wall.
const LAYERS: [&str; 15] = [
    "netlist.parse",
    "netlist.visit",
    "core.classify",
    "core.pipeline",
    "pass.coi",
    "pass.com",
    "pass.ret",
    "core.bound",
    "ecc.enumerate",
    "ecc.sweep",
    "transform.sweep",
    "bmc.random",
    "bmc.check",
    "bmc.prove",
    "unattributed",
];

/// SAT statistics reported per span group.
const SAT_GROUPS: [(&str, &[&str]); 2] = [
    ("pass.apply", &["pass.apply"]),
    ("bmc.check", &["bmc.check", "bmc.chunk"]),
];

/// What one traced run measured.
#[derive(Debug, Clone)]
struct Layers {
    /// Self nanoseconds per entry of [`LAYERS`].
    ns: [u64; LAYERS.len()],
    /// Traced wall: summed `ledger.parse` + `ledger.entry` durations.
    wall_ns: u64,
    /// Summed span time per [`SAT_GROUPS`] entry.
    sat_ns: [u64; 2],
    counters: Counters,
}

/// Work counts of one traced run; they must repeat exactly across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    visited: u64,
    ecc_hit: u64,
    ecc_miss: u64,
    depth_sum: u64,
    random_calls: u64,
    random_hits: u64,
    /// SAT work per [`SAT_GROUPS`] entry.
    sat: [SatAttr; 2],
}

/// Runs [`TRACED_RUNS`] traced runs after an untraced one that took
/// `plain_ns` (set-up plus entry points); returns the per-layer metrics and
/// the number of traced runs, whose outputs `checker` checked too (its
/// verdict tally, the `bmc.closed_by.*` counts, must repeat across runs).
pub fn traced(
    w: Workload,
    designs: &[Design],
    checker: &mut Checker,
    plain_ns: u64,
) -> (Vec<Metric>, usize) {
    let mut runs: Vec<Layers> = Vec::new();
    for _ in 0..TRACED_RUNS {
        let session = session(w);
        {
            let _run = diam_obs::span!("ledger.run");
            for (i, d) in designs.iter().enumerate() {
                diam_core::eccentricity::cache_clear();
                let n = {
                    let _sp = diam_obs::span!("ledger.parse");
                    workloads::load(&d.aig)
                };
                let out = {
                    let _sp = diam_obs::span!("ledger.entry");
                    workloads::run(w, &d.expect, &n)
                };
                checker.design(i, d, &n, &out);
            }
        }
        let trace = finish(session);
        checker.end_run();
        let mut layers = attribute(&trace);
        if matches!(w, Workload::SolvePaper | Workload::ProveArchetypes) {
            replay(w, designs, &mut layers);
        }
        runs.push(layers);
    }
    for r in &runs[1..] {
        if r.counters != runs[0].counters {
            checker.wrong.push(format!(
                "nondeterministic counters across traced runs: {:?} vs {:?}",
                runs[0].counters, r.counters
            ));
        }
    }
    let tally = checker.first_tally.clone().unwrap_or_default();
    (report(&runs, plain_ns, &tally), TRACED_RUNS)
}

/// The layer with the largest share of the traced wall.
pub fn dominant(metrics: &[Metric]) -> Option<&Metric> {
    metrics
        .iter()
        .filter(|m| LAYERS.iter().any(|l| m.name == format!("{l}_frac")))
        .max_by(|a, b| a.value.total_cmp(&b.value))
}

fn session(w: Workload) -> Session {
    let manifest = RunManifest::capture("ledger").option("workload", w.name());
    Session::install(
        ObsConfig {
            mode: ObsMode::Json,
            ..ObsConfig::default()
        },
        manifest,
    )
}

fn finish(session: Session) -> Trace {
    Trace::parse(&session.finish().to_jsonl()).expect("in-process traces validate")
}

/// Splits a traced run into layer self times and counters. Self times come
/// from the per-name [`rollup`], except `pass.apply`'s, which are split by
/// the span's `pass` field. Checking happens outside every span but
/// `ledger.run`, which is left out, so the layers sum to the traced wall.
fn attribute(t: &Trace) -> Layers {
    let mut layers = Layers {
        ns: [0; LAYERS.len()],
        wall_ns: 0,
        sat_ns: [0; 2],
        counters: Counters::default(),
    };
    for row in rollup(t) {
        let layer = match row.name.as_str() {
            "ledger.run" | "pass.apply" => continue,
            "ledger.parse" => "netlist.parse",
            "visit.bfs" => "netlist.visit",
            // On paper_tables the column's own work, besides its pipeline
            // and bounding spans, is the classification of the result.
            "classify.target" | "ledger.classify" | "suite.column" => "core.classify",
            "pipeline.run" => "core.pipeline",
            "bound.target" => "core.bound",
            "ecc.enumerate" => "ecc.enumerate",
            "ecc.sweep" => "ecc.sweep",
            "bmc.check" | "bmc.chunk" | "cube.split" | "cube.solve" => "bmc.check",
            "prove.target" => "bmc.prove",
            _ => "unattributed",
        };
        if matches!(row.name.as_str(), "ledger.parse" | "ledger.entry") {
            layers.wall_ns += row.total_ns;
        }
        layers.ns[layer_index(layer)] += row.self_ns;
    }
    let counters = &mut layers.counters;
    for sp in t.spans.values() {
        let field = |k: &str| sp.close_fields.get(k).or_else(|| sp.open_fields.get(k));
        match sp.name.as_str() {
            "pass.apply" => {
                let layer = match field("pass").and_then(|v| v.as_str()) {
                    Some("coi") => "pass.coi",
                    Some("com") => "pass.com",
                    Some("ret") => "pass.ret",
                    _ => "core.pipeline",
                };
                layers.ns[layer_index(layer)] += sp.self_ns(t);
            }
            "bmc.check" => {
                counters.depth_sum += field("depth")
                    .or(field("max_depth"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
            }
            "bmc.chunk" => {
                counters.depth_sum += field("depth")
                    .or(field("hi"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
            }
            _ => {}
        }
        // A span's SAT attribution includes its children's, so a group
        // counts only its outermost spans.
        for (g, (_, names)) in SAT_GROUPS.iter().enumerate() {
            let in_group = |s: &str| names.contains(&s);
            if in_group(&sp.name) && !ancestors(t, sp.parent).any(|a| in_group(&a.name)) {
                counters.sat[g].add(&sp.sat);
                layers.sat_ns[g] += sp.dur_ns;
            }
        }
    }
    let scalar = |k: &str| match t.metrics.get(k) {
        Some(MetricValue::Scalar(v)) => *v as u64,
        _ => 0,
    };
    counters.visited = scalar("visit.visited");
    counters.ecc_hit = scalar("ecc.cache_hit");
    counters.ecc_miss = scalar("ecc.cache_miss");
    layers
}

fn layer_index(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .expect("a layer of LAYERS")
}

fn ancestors(t: &Trace, mut id: u64) -> impl Iterator<Item = &Span> {
    std::iter::from_fn(move || {
        let sp = t.spans.get(&id)?;
        id = sp.parent;
        Some(sp)
    })
}

/// Replays `solve_all`'s unconditional sweep and random simulation per
/// design under their own spans, in a session of their own, and moves their
/// time out of `unattributed`.
fn replay(w: Workload, designs: &[Design], layers: &mut Layers) {
    let opts = StrategyOptions::default();
    let session = session(w);
    let mut hits = 0;
    let mut calls = 0;
    for d in designs {
        let n = workloads::load(&d.aig);
        {
            let _sp = diam_obs::span!("ledger.replay.sweep");
            std::hint::black_box(sweep(&n, &opts.sweep));
        }
        let _sp = diam_obs::span!("ledger.replay.random");
        for i in 0..n.targets().len() {
            calls += 1;
            hits += u64::from(random_search(&n, i, &opts.random).is_some());
        }
    }
    let trace = finish(session);
    let total = |name: &str| -> u64 {
        trace
            .spans
            .values()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    };
    let unattributed = layer_index("unattributed");
    for (name, replayed) in [
        ("transform.sweep", total("ledger.replay.sweep")),
        ("bmc.random", total("ledger.replay.random")),
    ] {
        let k = layer_index(name);
        let moved = replayed.min(layers.ns[unattributed]);
        layers.ns[k] += moved;
        layers.ns[unattributed] -= moved;
    }
    layers.counters.random_calls = calls;
    layers.counters.random_hits = hits;
}

/// Per-layer metrics: medians over the traced runs for times, the (equal)
/// first-run values for counters.
fn report(runs: &[Layers], plain_ns: u64, tally: &Tally) -> Vec<Metric> {
    let over_runs = |f: &dyn Fn(&Layers) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let mut m = Vec::new();
    for (k, layer) in LAYERS.iter().enumerate() {
        m.push(Metric::median(
            format!("{layer}_frac"),
            "frac",
            &over_runs(&|r| r.ns[k] as f64 / r.wall_ns.max(1) as f64),
        ));
    }
    m.push(Metric::median(
        "traced_wall_s",
        "s",
        &over_runs(&|r| r.wall_ns as f64 / 1e9),
    ));
    m.push(Metric::median(
        "trace_overhead_frac",
        "frac",
        &over_runs(&|r| r.wall_ns as f64 / plain_ns.max(1) as f64 - 1.0),
    ));
    let c = &runs[0].counters;
    let count = |name: &str, v: u64| Metric::single(name, "count", v as f64);
    m.push(count("netlist.visit_visited", c.visited));
    m.push(count("ecc.cache_hit", c.ecc_hit));
    m.push(count("ecc.cache_miss", c.ecc_miss));
    m.push(count("bmc.depth_sum", c.depth_sum));
    m.push(Metric::single(
        "bmc.random_hit_ratio",
        "frac",
        c.random_hits as f64 / c.random_calls.max(1) as f64,
    ));
    for (k, closer) in CLOSERS.iter().enumerate() {
        m.push(count(
            &format!("bmc.closed_by.{closer}"),
            tally.closed_by[k],
        ));
    }
    for (g, (group, _)) in SAT_GROUPS.iter().enumerate() {
        let s = &c.sat[g];
        m.push(count(&format!("{group}.sat.solves"), s.solves));
        m.push(count(&format!("{group}.sat.conflicts"), s.conflicts));
        m.push(count(&format!("{group}.sat.decisions"), s.decisions));
        m.push(count(&format!("{group}.sat.propagations"), s.propagations));
        m.push(Metric::median(
            format!("{group}.sat.props_per_s"),
            "1/s",
            &over_runs(&|r| s.propagations as f64 * 1e9 / r.sat_ns[g].max(1) as f64),
        ));
    }
    m
}
