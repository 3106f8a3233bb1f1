//! Trace exporters: Chrome trace-event JSON and collapsed-stack flamegraphs.
//!
//! Both exporters work from the joined [`Span`] model, never from raw event
//! lines, so they inherit the parser's validation guarantees (paired
//! open/close, monotonic timestamps, parent links).
//!
//! **Chrome trace-event JSON** ([`chrome_trace`]) targets Perfetto /
//! `chrome://tracing`. The mapping is:
//!
//! | trace model                | Chrome event                                |
//! |----------------------------|---------------------------------------------|
//! | span                       | `"ph":"X"` complete event, `ts`/`dur` in µs |
//! | worker tag                 | `tid` (plus a `thread_name` metadata event) |
//! | open + close fields, SAT   | `args` (close fields win on key collision)  |
//! | final scalar metric        | `"ph":"C"` counter event at the metrics ts  |
//! | final histogram metric     | `"ph":"C"` with `count`/`sum` series        |
//!
//! All events share `pid` 1; timestamps are nanosecond-exact (`µs` with
//! three decimals). Output is deterministic: spans in open order, metadata
//! and counters in sorted-key order.
//!
//! **Collapsed stacks** ([`flamegraph`]) emit one `stack weight` line per
//! distinct span-name path (root→leaf, `;`-joined), weighted by *self* time
//! in nanoseconds, sorted lexicographically. Summed weights equal
//! [`total_self_ns`] so a collapsed file can be checked against the span
//! model without re-walking the tree.

use crate::model::{Span, Trace};
use diam_obs::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Format a nanosecond timestamp as microseconds with ns precision.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Merged `args` for one span: open fields, then close fields (close wins),
/// which carries the `sat_*` attribution keys along automatically.
fn span_args(span: &Span) -> BTreeMap<String, JsonValue> {
    let mut args = span.open_fields.clone();
    for (k, v) in &span.close_fields {
        args.insert(k.clone(), v.clone());
    }
    args
}

/// Render a trace as Chrome trace-event JSON (object form,
/// `{"traceEvents":[...]}`), loadable in Perfetto and `chrome://tracing`.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Metadata: process name (the tool), one thread_name per worker tag.
    let mut name = String::new();
    json::write_escaped(&mut name, &trace.manifest.tool);
    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{name}}}}}"
        ),
        &mut out,
        &mut first,
    );
    let mut workers: Vec<u64> = trace.spans.values().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        let label = if *w == 0 {
            "main".to_string()
        } else {
            format!("worker {w}")
        };
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    // Spans as complete events, in open order.
    for id in &trace.open_order {
        let span = &trace.spans[id];
        let mut line = String::from("{\"ph\":\"X\",\"pid\":1");
        line.push_str(&format!(
            ",\"tid\":{},\"ts\":{},\"dur\":{},\"name\":",
            span.worker,
            us(span.open_ts),
            us(span.dur_ns)
        ));
        json::write_escaped(&mut line, &span.name);
        line.push_str(",\"cat\":\"span\",\"args\":");
        write_json_value(&mut line, &JsonValue::Object(span_args(span)));
        line.push('}');
        push(line, &mut out, &mut first);
    }

    // Final metrics as counter series at the metrics timestamp.
    for (mname, value) in &trace.metrics {
        let mut line = String::from("{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":");
        line.push_str(&us(trace.metrics_ts));
        line.push_str(",\"name\":");
        json::write_escaped(&mut line, mname);
        match value {
            crate::model::MetricValue::Scalar(v) => {
                line.push_str(&format!(",\"args\":{{\"value\":{v}}}}}"));
            }
            crate::model::MetricValue::Histogram { count, sum, .. } => {
                line.push_str(&format!(",\"args\":{{\"count\":{count},\"sum\":{sum}}}}}"));
            }
        }
        push(line, &mut out, &mut first);
    }

    out.push_str("\n]}\n");
    out
}

/// Per-worker total span duration (ns) straight from the span model — the
/// reference the Chrome export is verified against.
pub fn per_worker_dur_ns(trace: &Trace) -> BTreeMap<u64, u64> {
    let mut by_tid: BTreeMap<u64, u64> = BTreeMap::new();
    for span in trace.spans.values() {
        let sum = by_tid.entry(span.worker).or_insert(0);
        *sum = sum.saturating_add(span.dur_ns);
    }
    by_tid
}

/// Parse a Chrome export back and check it against the span model: the
/// `"X"` event count must equal the span count and the per-`tid` duration
/// sums (ns) must match [`per_worker_dur_ns`] exactly. Returns
/// `(complete_events, counter_events)` on success.
pub fn verify_chrome_trace(trace: &Trace, exported: &str) -> Result<(usize, usize), String> {
    let doc = json::parse(exported).map_err(|e| format!("chrome export is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("chrome export missing traceEvents array")?;
    let mut complete = 0usize;
    let mut counters = 0usize;
    let mut dur_by_tid: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                complete += 1;
                let tid = ev
                    .get("tid")
                    .and_then(|v| v.as_i64())
                    .ok_or("complete event missing tid")? as u64;
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or("complete event missing dur")?;
                // µs with 3 decimals → exact ns.
                let sum = dur_by_tid.entry(tid).or_insert(0);
                *sum = sum.saturating_add((dur * 1000.0).round() as u64);
            }
            Some("C") => counters += 1,
            _ => {}
        }
    }
    if complete != trace.spans.len() {
        return Err(format!(
            "complete-event count {complete} != span count {}",
            trace.spans.len()
        ));
    }
    let want = per_worker_dur_ns(trace);
    if dur_by_tid != want {
        return Err(format!(
            "per-tid duration sums diverge: export {dur_by_tid:?} vs span model {want:?}"
        ));
    }
    Ok((complete, counters))
}

/// Render a trace as collapsed stacks (`stack weight` lines) for
/// `flamegraph.pl` / speedscope / inferno, weighted by self time (ns).
pub fn flamegraph(trace: &Trace) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for id in &trace.open_order {
        let span = &trace.spans[id];
        let w = span.self_ns(trace);
        if w == 0 {
            continue;
        }
        // Walk parent links to build the root→leaf name path.
        let mut names = vec![span.name.as_str()];
        let mut cur = span.parent;
        while cur != 0 {
            let p = &trace.spans[&cur];
            names.push(p.name.as_str());
            cur = p.parent;
        }
        names.reverse();
        let sum = weights.entry(names.join(";")).or_insert(0);
        *sum = sum.saturating_add(w);
    }
    let mut out = String::new();
    for (stack, w) in &weights {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&w.to_string());
        out.push('\n');
    }
    out
}

/// Total self time (ns) over all spans — collapsed-stack weights must sum
/// to exactly this.
pub fn total_self_ns(trace: &Trace) -> u64 {
    trace
        .spans
        .values()
        .map(|s| s.self_ns(trace))
        .fold(0, u64::saturating_add)
}

/// Parse a collapsed-stack export back and check the weight sum against
/// [`total_self_ns`]. Returns the line count on success.
pub fn verify_flamegraph(trace: &Trace, exported: &str) -> Result<usize, String> {
    let mut sum = 0u64;
    let mut lines = 0usize;
    for line in exported.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad collapsed line: {line:?}"))?;
        if stack.is_empty() {
            return Err(format!("empty stack in line: {line:?}"));
        }
        sum = sum.saturating_add(
            weight
                .parse::<u64>()
                .map_err(|e| format!("bad weight in {line:?}: {e}"))?,
        );
        lines += 1;
    }
    let want = total_self_ns(trace);
    if sum != want {
        return Err(format!(
            "flamegraph weight sum {sum} != total self time {want}"
        ));
    }
    Ok(lines)
}

fn write_json_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Float(f) if f.is_finite() => out.push_str(&format!("{f}")),
        JsonValue::Float(_) => out.push_str("null"),
        JsonValue::Str(s) => json::write_escaped(out, s),
        JsonValue::Array(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_value(out, x);
            }
            out.push(']');
        }
        JsonValue::Object(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(out, k);
                out.push(':');
                write_json_value(out, x);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let text = concat!(
            "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"table1\",\"args\":[],\"input\":null,",
            "\"options\":{\"jobs\":\"2\"},\"build\":\"test\",\"started_unix_ms\":0,",
            "\"wall_ns\":9000,\"peak_rss_kb\":null}}\n",
            "{\"ts\":1000,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,",
            "\"name\":\"pipeline.run\",\"fields\":{\"design\":\"d1\"}}\n",
            "{\"ts\":2000,\"seq\":1,\"worker\":1,\"ev\":\"open\",\"span\":2,\"parent\":1,",
            "\"name\":\"bmc.check\",\"fields\":{}}\n",
            "{\"ts\":5000,\"seq\":2,\"worker\":1,\"ev\":\"close\",\"span\":2,",
            "\"dur_ns\":3000,\"name\":\"bmc.check\",\"fields\":{\"sat_solves\":4,\"sat_conflicts\":7}}\n",
            "{\"ts\":8000,\"seq\":3,\"worker\":0,\"ev\":\"close\",\"span\":1,",
            "\"dur_ns\":7000,\"name\":\"pipeline.run\",\"fields\":{}}\n",
            "{\"ts\":9000,\"span\":0,\"ev\":\"metrics\",\"fields\":{",
            "\"sat.solves\":4,",
            "\"sat.conflicts_per_solve\":{\"count\":4,\"sum\":7,\"min\":0,\"max\":4,\"p50\":1,\"p90\":4,\"p99\":4}}}\n",
        );
        Trace::parse(text).expect("sample trace parses")
    }

    #[test]
    fn chrome_export_round_trips_against_span_model() {
        let trace = sample_trace();
        let chrome = chrome_trace(&trace);
        let (complete, counters) = verify_chrome_trace(&trace, &chrome).expect("verifies");
        assert_eq!(complete, 2);
        assert_eq!(counters, 2, "one per final metric");
        // Worker tags become tids; SAT attribution rides in args.
        assert!(chrome.contains("\"tid\":1"), "{chrome}");
        assert!(chrome.contains("\"sat_conflicts\":7"), "{chrome}");
        assert!(chrome.contains("\"thread_name\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"process_name\""), "{chrome}");
        // ts/dur are µs with exact ns decimals.
        assert!(chrome.contains("\"ts\":2.000,\"dur\":3.000"), "{chrome}");
    }

    #[test]
    fn chrome_verification_catches_tampering() {
        let trace = sample_trace();
        let chrome = chrome_trace(&trace);
        let tampered = chrome.replace("\"dur\":3.000", "\"dur\":4.000");
        assert!(verify_chrome_trace(&trace, &tampered).is_err());
        let dropped = chrome.replace(
            "\"ph\":\"X\",\"pid\":1,\"tid\":1",
            "\"ph\":\"i\",\"pid\":1,\"tid\":1",
        );
        assert!(verify_chrome_trace(&trace, &dropped).is_err());
    }

    #[test]
    fn flamegraph_weights_sum_to_total_self_time() {
        let trace = sample_trace();
        let folded = flamegraph(&trace);
        let lines = verify_flamegraph(&trace, &folded).expect("verifies");
        assert_eq!(lines, 2);
        // pipeline.run self = 7000 - 3000 = 4000; bmc.check self = 3000.
        assert_eq!(folded, "pipeline.run 4000\npipeline.run;bmc.check 3000\n");
        assert_eq!(total_self_ns(&trace), 7000);
    }

    #[test]
    fn flamegraph_aggregates_identical_stacks_and_skips_zero_self() {
        let text = concat!(
            "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"t\",\"args\":[],\"input\":null,",
            "\"options\":{},\"build\":\"test\",\"started_unix_ms\":0,\"wall_ns\":100,\"peak_rss_kb\":null}}\n",
            "{\"ts\":0,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"a\",\"fields\":{}}\n",
            "{\"ts\":0,\"seq\":1,\"worker\":0,\"ev\":\"open\",\"span\":2,\"parent\":1,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":10,\"seq\":2,\"worker\":0,\"ev\":\"close\",\"span\":2,\"dur_ns\":10,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":10,\"seq\":3,\"worker\":0,\"ev\":\"open\",\"span\":3,\"parent\":1,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":30,\"seq\":4,\"worker\":0,\"ev\":\"close\",\"span\":3,\"dur_ns\":20,\"name\":\"b\",\"fields\":{}}\n",
            "{\"ts\":30,\"seq\":5,\"worker\":0,\"ev\":\"close\",\"span\":1,\"dur_ns\":30,\"name\":\"a\",\"fields\":{}}\n",
            "{\"ts\":100,\"span\":0,\"ev\":\"metrics\",\"fields\":{}}\n",
        );
        let trace = Trace::parse(text).unwrap();
        // `a` has zero self time (children cover it fully) → no line; the
        // two `a;b` instances collapse into one aggregated line.
        let folded = flamegraph(&trace);
        assert_eq!(folded, "a;b 30\n");
        verify_flamegraph(&trace, &folded).expect("verifies");
    }
}
