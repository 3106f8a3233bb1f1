//! Analytics over a parsed [`Trace`]: per-phase attribution rollups,
//! critical-path extraction, hotspot tables, and the per-depth SAT work
//! table — each rendered as text and as JSON.

use crate::model::{MemAttr, MetricValue, SatAttr, Span, Trace};
use crate::timeline::per_worker_busy_ns;
use diam_obs::json;
use diam_obs::{Metric, Report};
use std::collections::BTreeMap;

/// Aggregate statistics for one span *name* across the whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRollup {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed open→close duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct-child duration).
    pub self_ns: u64,
    /// Summed SAT attribution.
    pub sat: SatAttr,
    /// Summed allocator attribution (all-zero without `--mem on`).
    pub mem: MemAttr,
}

impl PhaseRollup {
    /// Share of the run's wall time taken by this phase's total time.
    pub fn share_of_wall(&self, wall_ns: u64) -> f64 {
        self.total_ns as f64 / wall_ns.max(1) as f64
    }
}

/// Per-phase attribution: one [`PhaseRollup`] per span name, sorted by
/// total time descending (name ascending as tie-break).
pub fn rollup(trace: &Trace) -> Vec<PhaseRollup> {
    let mut by_name: BTreeMap<&str, PhaseRollup> = BTreeMap::new();
    for sp in trace.spans.values() {
        let r = by_name
            .entry(sp.name.as_str())
            .or_insert_with(|| PhaseRollup {
                name: sp.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                sat: SatAttr::default(),
                mem: MemAttr::default(),
            });
        r.count += 1;
        r.total_ns = r.total_ns.saturating_add(sp.dur_ns);
        r.self_ns = r.self_ns.saturating_add(sp.self_ns(trace));
        r.sat.add(&sp.sat);
        r.mem.add(&sp.mem);
    }
    let mut rows: Vec<PhaseRollup> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Top-`k` phases by **self** time (where the cycles actually burn).
pub fn hotspots(trace: &Trace, k: usize) -> Vec<PhaseRollup> {
    let mut rows = rollup(trace);
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows.truncate(k);
    rows
}

/// One step on a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span id.
    pub span: u64,
    /// Span name.
    pub name: String,
    /// Short label from the open fields (target/design/engine/…).
    pub detail: String,
    /// Worker tag.
    pub worker: u64,
    /// Span duration.
    pub dur_ns: u64,
    /// Self time.
    pub self_ns: u64,
    /// This span's duration as a fraction of its parent step's duration
    /// (1.0 for the root step).
    pub share_of_parent: f64,
    /// SAT attribution of the span.
    pub sat: SatAttr,
}

/// The critical path from the heaviest root span: at every node, descend
/// into the child with the largest duration (ties: earliest open). Under a
/// `diam-par` fan-out the children of an orchestrating span overlap on
/// different workers; the heaviest child *is* the wall-clock-critical one,
/// which is exactly what this walk follows.
pub fn critical_path(trace: &Trace) -> Vec<PathStep> {
    let root = trace.roots().into_iter().max_by(|a, b| {
        trace.spans[a]
            .dur_ns
            .cmp(&trace.spans[b].dur_ns)
            .then(trace.spans[b].open_seq.cmp(&trace.spans[a].open_seq))
    });
    match root {
        Some(root) => critical_path_from(trace, root),
        None => Vec::new(),
    }
}

/// The critical path starting at span `root` (see [`critical_path`]).
pub fn critical_path_from(trace: &Trace, root: u64) -> Vec<PathStep> {
    let mut path = Vec::new();
    let mut at = root;
    let mut parent_dur: Option<u64> = None;
    while let Some(sp) = trace.spans.get(&at) {
        path.push(step_of(trace, sp, parent_dur));
        parent_dur = Some(sp.dur_ns);
        let heaviest = sp
            .children
            .iter()
            .filter_map(|c| trace.spans.get(c))
            .max_by(|a, b| a.dur_ns.cmp(&b.dur_ns).then(b.open_seq.cmp(&a.open_seq)));
        match heaviest {
            Some(child) => at = child.id,
            None => break,
        }
    }
    path
}

fn step_of(trace: &Trace, sp: &Span, parent_dur: Option<u64>) -> PathStep {
    PathStep {
        span: sp.id,
        name: sp.name.clone(),
        detail: sp.detail(),
        worker: sp.worker,
        dur_ns: sp.dur_ns,
        self_ns: sp.self_ns(trace),
        share_of_parent: match parent_dur {
            Some(p) => sp.dur_ns as f64 / p.max(1) as f64,
            None => 1.0,
        },
        sat: sp.sat,
    }
}

/// Per-depth SAT work, aggregated from `sat.solve` point events.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthRow {
    /// BMC depth.
    pub depth: u64,
    /// Number of solves at this depth.
    pub solves: u64,
    /// Total conflicts at this depth.
    pub conflicts: u64,
    /// Estimated conflict quantiles per solve (power-of-two-bucket upper
    /// bounds, the same estimator as `diam-obs` histograms).
    pub p50: u64,
    /// 90th percentile estimate.
    pub p90: u64,
    /// 99th percentile estimate.
    pub p99: u64,
}

/// Builds the per-depth SAT table from `sat.solve` point events, using the
/// `diam-obs` power-of-two histogram + quantile estimator per depth so the
/// numbers are directly comparable with the `sat.conflicts_per_solve`
/// metric on the trace's metrics line.
pub fn sat_depth_table(trace: &Trace) -> Vec<DepthRow> {
    let mut by_depth: BTreeMap<u64, Metric> = BTreeMap::new();
    for p in &trace.points {
        if p.name != "sat.solve" {
            continue;
        }
        let depth = p.fields.get("depth").and_then(|v| v.as_u64()).unwrap_or(0);
        let conflicts = p
            .fields
            .get("conflicts")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        by_depth
            .entry(depth)
            .or_insert_with(Metric::new_histogram)
            .record_n(conflicts, 1);
    }
    by_depth
        .into_iter()
        .map(|(depth, m)| {
            let (count, sum) = match &m {
                Metric::Histogram { count, sum, .. } => (*count, *sum),
                _ => (0, 0),
            };
            DepthRow {
                depth,
                solves: count,
                conflicts: sum,
                p50: m.quantile(0.50).unwrap_or(0),
                p90: m.quantile(0.90).unwrap_or(0),
                p99: m.quantile(0.99).unwrap_or(0),
            }
        })
        .collect()
}

fn fmt_s(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

/// Renders the full text report: header (with the manifest's input and
/// options), per-phase attribution, per-worker busy time when more than one
/// worker ran, critical path, hotspots, the per-depth table (when
/// `sat.solve` points exist) and the final metrics.
pub fn render_report(trace: &Trace, top_k: usize) -> String {
    let wall = trace.manifest.wall_ns;
    let mut out = String::new();
    out.push_str(&format!(
        "trace report — tool {} [{}], wall {}, {} spans / {} points\n",
        trace.manifest.tool,
        trace.manifest.build,
        fmt_s(wall),
        trace.span_count(),
        trace.points.len()
    ));
    if let Some(input) = &trace.manifest.input {
        out.push_str(&format!("input    {input}\n"));
    }
    if !trace.manifest.options.is_empty() {
        let opts: Vec<String> = trace
            .manifest
            .options
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("options  {}\n", opts.join("  ")));
    }
    if let Some(kb) = trace.manifest.peak_rss_kb {
        out.push_str(&format!("peak rss {:.1} MiB\n", kb as f64 / 1024.0));
    }

    out.push_str("\nper-phase attribution (by span name):\n");
    out.push_str(&format!(
        "  {:<22} {:>6} {:>12} {:>12} {:>7} {:>10} {:>12}\n",
        "phase", "count", "total", "self", "%wall", "sat.solves", "sat.conflicts"
    ));
    for r in rollup(trace) {
        out.push_str(&format!(
            "  {:<22} {:>6} {:>12} {:>12} {:>6.1}% {:>10} {:>12}\n",
            r.name,
            r.count,
            fmt_s(r.total_ns),
            fmt_s(r.self_ns),
            100.0 * r.share_of_wall(wall),
            r.sat.solves,
            r.sat.conflicts,
        ));
    }
    // Whole-run arena-GC and allocator totals (root spans carry all nested
    // attribution). Each line is absent when its counters are: arena GC in
    // traces recorded before the `sat_gc_*` fields existed, the allocator
    // without `--mem on`.
    let (mut gc, mut mem) = (SatAttr::default(), MemAttr::default());
    for id in trace.roots() {
        gc.add(&trace.spans[&id].sat);
        mem.add(&trace.spans[&id].mem);
    }
    if gc.gc_runs > 0 {
        out.push_str(&format!(
            "  arena gc: {} runs, {:.1} KiB reclaimed\n",
            gc.gc_runs,
            gc.gc_freed_bytes as f64 / 1024.0
        ));
    }
    if !mem.is_zero() {
        out.push_str(&format!(
            "  allocator: {} allocs / {} frees, {:.1} MiB allocated, {:.1} MiB freed\n",
            mem.allocs,
            mem.frees,
            mem.alloc_bytes as f64 / (1024.0 * 1024.0),
            mem.freed_bytes as f64 / (1024.0 * 1024.0)
        ));
    }

    let busy = per_worker_busy_ns(trace);
    if busy.len() > 1 {
        out.push_str("\nworker busy time (merged span coverage):\n");
        for (w, ns) in &busy {
            out.push_str(&format!(
                "  {:<6} {:>12}  ({:.0}% of wall)\n",
                diam_obs::worker_label(*w),
                fmt_s(*ns),
                100.0 * *ns as f64 / wall.max(1) as f64
            ));
        }
    }

    out.push_str("\ncritical path (heaviest-child chain):\n");
    for (i, step) in critical_path(trace).iter().enumerate() {
        let label = if step.detail.is_empty() {
            step.name.clone()
        } else {
            format!("{}({})", step.name, step.detail)
        };
        out.push_str(&format!(
            "  {}{:<width$} {:>12}  self {:>12}  {:>5.1}% of parent  w{}{}\n",
            "  ".repeat(i),
            label,
            fmt_s(step.dur_ns),
            fmt_s(step.self_ns),
            100.0 * step.share_of_parent,
            step.worker,
            match step.sat.conflicts {
                0 => String::new(),
                c => format!("  sat.conflicts {c}"),
            },
            width = 34usize.saturating_sub(2 * i),
        ));
    }

    out.push_str(&format!("\nhotspots (top {top_k} by self time):\n"));
    for r in hotspots(trace, top_k) {
        out.push_str(&format!(
            "  {:<22} {:>12}  ({:.1}% of wall)\n",
            r.name,
            fmt_s(r.self_ns),
            100.0 * r.self_ns as f64 / wall.max(1) as f64
        ));
    }

    let depths = sat_depth_table(trace);
    if !depths.is_empty() {
        out.push_str("\nper-depth SAT work (conflicts per solve, p≤ bucket bounds):\n");
        out.push_str(&format!(
            "  {:>6} {:>8} {:>12} {:>8} {:>8} {:>8}\n",
            "depth", "solves", "conflicts", "p50", "p90", "p99"
        ));
        for d in depths {
            out.push_str(&format!(
                "  {:>6} {:>8} {:>12} {:>8} {:>8} {:>8}\n",
                d.depth, d.solves, d.conflicts, d.p50, d.p90, d.p99
            ));
        }
    }

    if !trace.metrics.is_empty() {
        out.push_str("\ncounters / gauges / histograms:\n");
        for (name, m) in &trace.metrics {
            match m {
                MetricValue::Scalar(v) => out.push_str(&format!("  {name:<28} {v}\n")),
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    p50,
                    p90,
                    p99,
                } => {
                    let avg = *sum as f64 / (*count).max(1) as f64;
                    out.push_str(&format!("  {name:<28} n={count} sum={sum} avg={avg:.1}"));
                    if let (Some(min), Some(max)) = (min, max) {
                        out.push_str(&format!(" min={min} max={max}"));
                    }
                    if let (Some(p50), Some(p90), Some(p99)) = (p50, p90, p99) {
                        out.push_str(&format!(" p50≤{p50} p90≤{p90} p99≤{p99}"));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// The hotspot count of the run report, and `diam-trace report`'s default.
pub const DEFAULT_TOP: usize = 10;

/// The end-of-run view of a recording session: the session's own JSONL
/// parsed back with [`Trace::parse`] and rendered by [`render_report`] —
/// byte for byte what `diam-trace report` prints for the `--trace-out`
/// file. `None` when the session recorded nothing.
pub fn session_report(report: &Report) -> Option<String> {
    if report.mode.is_off() {
        return None;
    }
    Some(match Trace::parse(&report.to_jsonl()) {
        Ok(trace) => render_report(&trace, DEFAULT_TOP),
        Err(e) => format!("trace report unavailable: the session's trace does not parse: {e}\n"),
    })
}

/// Renders the report as a single JSON object (`phases`, `critical_path`,
/// `hotspots`, `sat_depths`).
pub fn report_to_json(trace: &Trace, top_k: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"tool\":");
    json::write_escaped(&mut out, &trace.manifest.tool);
    out.push_str(&format!(",\"wall_ns\":{}", trace.manifest.wall_ns));
    out.push_str(",\"phases\":[");
    for (i, r) in rollup(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        phase_json(&mut out, r);
    }
    out.push_str("],\"critical_path\":[");
    for (i, s) in critical_path(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_escaped(&mut out, &s.name);
        out.push_str(",\"detail\":");
        json::write_escaped(&mut out, &s.detail);
        out.push_str(&format!(
            ",\"span\":{},\"worker\":{},\"dur_ns\":{},\"self_ns\":{},\"share_of_parent\":{:.4},\"sat_conflicts\":{}}}",
            s.span, s.worker, s.dur_ns, s.self_ns, s.share_of_parent, s.sat.conflicts
        ));
    }
    out.push_str("],\"hotspots\":[");
    for (i, r) in hotspots(trace, top_k).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        phase_json(&mut out, r);
    }
    out.push_str("],\"sat_depths\":[");
    for (i, d) in sat_depth_table(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"depth\":{},\"solves\":{},\"conflicts\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            d.depth, d.solves, d.conflicts, d.p50, d.p90, d.p99
        ));
    }
    out.push_str("]}");
    out
}

fn phase_json(out: &mut String, r: &PhaseRollup) {
    out.push_str("{\"name\":");
    json::write_escaped(out, &r.name);
    out.push_str(&format!(
        ",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"sat_solves\":{},\"sat_conflicts\":{},\"sat_propagations\":{}}}",
        r.count, r.total_ns, r.self_ns, r.sat.solves, r.sat.conflicts, r.sat.propagations
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        // root(100) -> { fast(10), slow(60) -> inner(40) }, all worker 0.
        let text = concat!(
            "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"demo\",\"args\":[],\"input\":null,\"options\":{},\"build\":\"b\",\"started_unix_ms\":0,\"wall_ns\":100}}\n",
            "{\"ts\":0,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"root\",\"fields\":{}}\n",
            "{\"ts\":1,\"seq\":1,\"worker\":0,\"ev\":\"open\",\"span\":2,\"parent\":1,\"name\":\"fast\",\"fields\":{}}\n",
            "{\"ts\":11,\"seq\":2,\"worker\":0,\"ev\":\"close\",\"span\":2,\"dur_ns\":10,\"name\":\"fast\",\"fields\":{}}\n",
            "{\"ts\":12,\"seq\":3,\"worker\":0,\"ev\":\"open\",\"span\":3,\"parent\":1,\"name\":\"slow\",\"fields\":{\"target\":\"t9\"}}\n",
            "{\"ts\":13,\"seq\":4,\"worker\":0,\"ev\":\"open\",\"span\":4,\"parent\":3,\"name\":\"inner\",\"fields\":{}}\n",
            "{\"ts\":20,\"seq\":5,\"worker\":0,\"ev\":\"point\",\"span\":4,\"name\":\"sat.solve\",\"fields\":{\"depth\":2,\"conflicts\":5}}\n",
            "{\"ts\":25,\"seq\":6,\"worker\":0,\"ev\":\"point\",\"span\":4,\"name\":\"sat.solve\",\"fields\":{\"depth\":3,\"conflicts\":100}}\n",
            "{\"ts\":53,\"seq\":7,\"worker\":0,\"ev\":\"close\",\"span\":4,\"dur_ns\":40,\"name\":\"inner\",\"fields\":{\"sat_solves\":2,\"sat_conflicts\":105,\"sat_decisions\":0,\"sat_propagations\":0}}\n",
            "{\"ts\":72,\"seq\":8,\"worker\":0,\"ev\":\"close\",\"span\":3,\"dur_ns\":60,\"name\":\"slow\",\"fields\":{\"sat_solves\":2,\"sat_conflicts\":105,\"sat_decisions\":0,\"sat_propagations\":0}}\n",
            "{\"ts\":100,\"seq\":9,\"worker\":0,\"ev\":\"close\",\"span\":1,\"dur_ns\":100,\"name\":\"root\",\"fields\":{\"sat_solves\":2,\"sat_conflicts\":105,\"sat_decisions\":0,\"sat_propagations\":0}}\n",
            "{\"ts\":100,\"span\":0,\"ev\":\"metrics\",\"fields\":{\"sat.solves\":2,",
            "\"h\":{\"count\":2,\"sum\":105,\"min\":5,\"max\":100,\"p50\":7,\"p90\":127,\"p99\":127}}}\n",
        );
        Trace::parse(text).expect("valid demo trace")
    }

    #[test]
    fn rollup_totals_and_self_times() {
        let t = demo_trace();
        let rows = rollup(&t);
        assert_eq!(rows[0].name, "root");
        assert_eq!(rows[0].total_ns, 100);
        assert_eq!(rows[0].self_ns, 30); // 100 - (10 + 60)
        let slow = rows.iter().find(|r| r.name == "slow").unwrap();
        assert_eq!(slow.self_ns, 20); // 60 - 40
        assert_eq!(slow.sat.conflicts, 105);
    }

    #[test]
    fn critical_path_follows_heaviest_child() {
        let t = demo_trace();
        let path = critical_path(&t);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "slow", "inner"]);
        assert!((path[1].share_of_parent - 0.6).abs() < 1e-9);
        assert_eq!(path[1].detail, "t9");
    }

    #[test]
    fn hotspots_rank_by_self_time() {
        let t = demo_trace();
        let hot = hotspots(&t, 2);
        assert_eq!(hot[0].name, "inner"); // self 40
        assert_eq!(hot[1].name, "root"); // self 30
    }

    #[test]
    fn depth_table_quantiles() {
        let t = demo_trace();
        let rows = sat_depth_table(&t);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].depth, 2);
        assert_eq!(rows[0].solves, 1);
        assert_eq!(rows[0].p50, 7); // 5 → 3-bit bucket, upper bound 7
        assert_eq!(rows[1].conflicts, 100);
        assert_eq!(rows[1].p99, 127); // 100 → 7-bit bucket
    }

    #[test]
    fn allocator_rollup_renders_only_with_mem_fields() {
        // Without alloc_* close fields (mem off) the report has no
        // allocator line — old traces render unchanged.
        let plain = demo_trace();
        assert!(!render_report(&plain, 3).contains("allocator:"));
        // With them, the root-sum rollup line appears and MemAttr parses.
        let text = concat!(
            "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"demo\",\"args\":[],\"input\":null,\"options\":{},\"build\":\"b\",\"started_unix_ms\":0,\"wall_ns\":100}}\n",
            "{\"ts\":0,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"root\",\"fields\":{}}\n",
            "{\"ts\":100,\"seq\":1,\"worker\":0,\"ev\":\"close\",\"span\":1,\"dur_ns\":100,\"name\":\"root\",\"fields\":{\"alloc_allocs\":10,\"alloc_frees\":8,\"alloc_bytes\":2097152,\"alloc_freed_bytes\":1048576}}\n",
            "{\"ts\":100,\"span\":0,\"ev\":\"metrics\",\"fields\":{}}\n",
        );
        let t = Trace::parse(text).expect("valid trace");
        assert_eq!(t.spans[&1].mem.allocs, 10);
        assert_eq!(t.spans[&1].mem.alloc_bytes, 2_097_152);
        let rows = rollup(&t);
        assert_eq!(rows[0].mem.frees, 8);
        let rendered = render_report(&t, 3);
        assert!(
            rendered.contains("allocator: 10 allocs / 8 frees, 2.0 MiB allocated, 1.0 MiB freed"),
            "{rendered}"
        );
    }

    #[test]
    fn renderers_contain_key_lines() {
        let t = demo_trace();
        let text = render_report(&t, 3);
        assert!(text.contains("per-phase attribution"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("slow(t9)"), "{text}");
        assert!(text.contains("per-depth SAT work"), "{text}");
        assert!(text.contains("sat.solves                   2\n"), "{text}");
        let h =
            "h                            n=2 sum=105 avg=52.5 min=5 max=100 p50≤7 p90≤127 p99≤127";
        assert!(text.contains(h), "{text}");
        let j = report_to_json(&t, 3);
        let v = json::parse(&j).expect("valid json");
        assert!(v.get("phases").is_some());
        assert!(v.get("critical_path").is_some());
    }
}
