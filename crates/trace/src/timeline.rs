//! Per-worker busy/idle timeline rendering.
//!
//! A trace records spans on several worker threads; the timeline collapses
//! each worker's spans into merged busy intervals over `[0, wall_ns]` and
//! renders one fixed-width lane per worker (`#` busy, `.` idle) plus a
//! busy percentage and span count. It shares the exporters' span model, so
//! a lane's busy time equals the worker's merged span coverage — nested
//! spans are not double-counted.

use crate::model::Trace;
use std::collections::BTreeMap;

/// Merge per-worker span intervals; returns worker → sorted disjoint
/// `(start_ns, end_ns)` intervals.
fn busy_intervals(trace: &Trace) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut raw: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in trace.spans.values() {
        raw.entry(span.worker)
            .or_default()
            .push((span.open_ts, span.open_ts.saturating_add(span.dur_ns)));
    }
    for intervals in raw.values_mut() {
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for &(s, e) in intervals.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *intervals = merged;
    }
    raw
}

/// Total ns covered by a merged interval list.
fn covered_ns(intervals: &[(u64, u64)]) -> u64 {
    intervals
        .iter()
        .map(|(s, e)| e - s)
        .fold(0, u64::saturating_add)
}

/// Render per-worker busy/idle lanes as fixed-width text.
///
/// `width` is the number of cells per lane (clamped to at least 10); a cell
/// is busy (`#`) when any merged span interval overlaps its time slice.
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(10);
    let wall = trace.manifest.wall_ns.max(1);
    let lanes = busy_intervals(trace);
    let mut span_counts: BTreeMap<u64, usize> = BTreeMap::new();
    for span in trace.spans.values() {
        *span_counts.entry(span.worker).or_insert(0) += 1;
    }

    let mut out = format!(
        "timeline — {} — wall {:.3}s, {} worker(s), {} span(s) (lane width {width}, '#' busy / '.' idle)\n",
        trace.manifest.tool,
        wall as f64 / 1e9,
        lanes.len(),
        trace.spans.len(),
    );
    for (worker, intervals) in &lanes {
        let mut lane = String::with_capacity(width);
        for cell in 0..width {
            // Cell covers [lo, hi) in trace time. Integer math keeps the
            // boundaries exact for any wall_ns.
            let lo = (wall as u128 * cell as u128 / width as u128) as u64;
            let hi = (wall as u128 * (cell + 1) as u128 / width as u128) as u64;
            let busy = intervals.iter().any(|&(s, e)| s < hi.max(lo + 1) && e > lo);
            lane.push(if busy { '#' } else { '.' });
        }
        let busy_ns = covered_ns(intervals);
        out.push_str(&format!(
            "  {:<6} [{lane}] {:5.1}% busy, {} span(s)\n",
            diam_obs::worker_label(*worker),
            busy_ns as f64 * 100.0 / wall as f64,
            span_counts.get(worker).copied().unwrap_or(0),
        ));
    }
    out
}

/// Per-worker merged busy time in ns (what the lanes visualize).
pub fn per_worker_busy_ns(trace: &Trace) -> BTreeMap<u64, u64> {
    busy_intervals(trace)
        .into_iter()
        .map(|(w, iv)| (w, covered_ns(&iv)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_two_workers() -> Trace {
        // Worker 0: one span covering [0, 1000) with a nested child over
        // [0, 500) — merged busy must be 1000, not 1500. Worker 1: a span
        // over the second half only.
        let text = concat!(
            "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"table1\",\"args\":[],\"input\":null,",
            "\"options\":{},\"build\":\"test\",\"started_unix_ms\":0,\"wall_ns\":2000,\"peak_rss_kb\":null}}\n",
            "{\"ts\":0,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"a\",\"fields\":{}}\n",
            "{\"ts\":0,\"seq\":1,\"worker\":0,\"ev\":\"open\",\"span\":2,\"parent\":1,\"name\":\"a.inner\",\"fields\":{}}\n",
            "{\"ts\":500,\"seq\":2,\"worker\":0,\"ev\":\"close\",\"span\":2,\"dur_ns\":500,\"name\":\"a.inner\",\"fields\":{}}\n",
            "{\"ts\":1000,\"seq\":3,\"worker\":0,\"ev\":\"close\",\"span\":1,\"dur_ns\":1000,\"name\":\"a\",\"fields\":{}}\n",
            "{\"ts\":1000,\"seq\":4,\"worker\":1,\"ev\":\"open\",\"span\":3,\"parent\":0,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":2000,\"seq\":5,\"worker\":1,\"ev\":\"close\",\"span\":3,\"dur_ns\":1000,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":2000,\"span\":0,\"ev\":\"metrics\",\"fields\":{}}\n",
        );
        Trace::parse(text).expect("timeline trace parses")
    }

    #[test]
    fn nested_spans_do_not_double_count_busy_time() {
        let trace = trace_two_workers();
        let busy = per_worker_busy_ns(&trace);
        assert_eq!(busy.get(&0), Some(&1000));
        assert_eq!(busy.get(&1), Some(&1000));
    }

    #[test]
    fn lanes_show_half_busy_workers() {
        let trace = trace_two_workers();
        let text = render_timeline(&trace, 10);
        assert!(text.contains("2 worker(s), 3 span(s)"), "{text}");
        assert!(
            text.contains("main   [#####.....]  50.0% busy, 2 span(s)"),
            "{text}"
        );
        assert!(
            text.contains("w1     [.....#####]  50.0% busy, 1 span(s)"),
            "{text}"
        );
    }

    /// The run report shows the same merged busy time, one row per worker.
    #[test]
    fn report_shows_busy_time_per_worker() {
        let text = crate::analyze::render_report(&trace_two_workers(), 3);
        assert!(text.contains("worker busy time"), "{text}");
        assert!(
            text.contains("  w1           0.000s  (50% of wall)"),
            "{text}"
        );
    }

    #[test]
    fn width_is_clamped_and_sub_cell_spans_still_mark_a_cell() {
        let trace = trace_two_workers();
        let text = render_timeline(&trace, 0);
        assert!(text.contains("lane width 10"), "{text}");
    }
}
