//! `diam-trace` — trace analytics CLI.
//!
//! ```text
//! diam-trace check <trace.jsonl>
//! diam-trace report <trace.jsonl> [--top K] [--json]
//! diam-trace diff <base.jsonl> <new.jsonl> [--rel X] [--abs-floor-ms N]
//! diam-trace export <trace.jsonl> --format chrome|flamegraph [--out PATH]
//! diam-trace timeline <trace.jsonl> [--width N]
//! diam-trace postmortem <crash.json>
//! ```
//!
//! Exit codes: `0` success / no regressions, `1` regressions found by a
//! diff, `2` usage, I/O, or parse error (including a trace that fails
//! `check` and a crash dump that fails schema validation).

use diam_trace::{analyze, diff, export, postmortem, timeline, DiffOptions, Trace};
use std::process::ExitCode;

const USAGE: &str = "usage: diam-trace <command> [args]

commands:
  check <trace.jsonl>
      validate a trace against the JSONL schema; exit 2 with the first
      offending line if it fails
  report <trace.jsonl> [--top K] [--json]
      the run report every recording run prints: manifest, per-phase
      attribution, worker busy time, critical path, hotspots, per-depth
      SAT table, final metrics
  diff <base.jsonl> <new.jsonl> [--rel X] [--abs-floor-ms N]
      phase-wise comparison of two traces; exit 1 on regressions
  export <trace.jsonl> --format chrome|flamegraph [--out PATH]
      convert a trace to Chrome trace-event JSON (Perfetto) or collapsed
      stacks; the export is verified against the span model before writing
  timeline <trace.jsonl> [--width N]
      per-worker busy/idle lanes (default width 60)
  postmortem <crash.json>
      validate and render a crash dump written by the diam-obs panic hook
      ($TMPDIR/diam-crash/<id>.json unless DIAM_CRASH_DIR is set); exit 2
      if the dump fails schema validation

options:
  --top K           hotspot count for `report` (default 10)
  --json            machine-readable output instead of text
  --rel X           regression ratio threshold (default 1.30)
  --abs-floor-ms N  ignore deltas smaller than N ms (default 20)
  --format F        export format: chrome or flamegraph
  --out PATH        write export to PATH instead of stdout
  --width N         timeline lane width in cells (default 60)
";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("diam-trace: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The single trace file `cmd` takes: its path and its parsed model.
fn single_trace<'a>(flags: &'a Flags, cmd: &str) -> Result<(&'a str, Trace), String> {
    let [path] = flags.positional.as_slice() else {
        return Err(format!("{cmd} takes exactly one trace file"));
    };
    Ok((path, load_trace(path)?))
}

struct Flags {
    positional: Vec<String>,
    top: usize,
    json: bool,
    opts: DiffOptions,
    format: Option<String>,
    out: Option<String>,
    width: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        top: analyze::DEFAULT_TOP,
        json: false,
        opts: DiffOptions::default(),
        format: None,
        out: None,
        width: 60,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => flags.json = true,
            "--top" => {
                let v = it.next().ok_or("--top requires a value")?;
                flags.top = v
                    .parse()
                    .map_err(|_| format!("invalid --top value `{v}`"))?;
            }
            "--rel" => {
                let v = it.next().ok_or("--rel requires a value")?;
                flags.opts.rel_threshold = v
                    .parse()
                    .map_err(|_| format!("invalid --rel value `{v}`"))?;
                if flags.opts.rel_threshold < 1.0 {
                    return Err(format!("--rel must be >= 1.0, got {v}"));
                }
            }
            "--abs-floor-ms" => {
                let v = it.next().ok_or("--abs-floor-ms requires a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --abs-floor-ms value `{v}`"))?;
                flags.opts.abs_floor_ns = ms * 1_000_000;
            }
            "--format" => {
                let v = it.next().ok_or("--format requires a value")?;
                match v.as_str() {
                    "chrome" | "flamegraph" => flags.format = Some(v.clone()),
                    other => {
                        return Err(format!(
                            "invalid --format value `{other}` (expected chrome|flamegraph)"
                        ))
                    }
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out requires a value")?;
                flags.out = Some(v.clone());
            }
            "--width" => {
                let v = it.next().ok_or("--width requires a value")?;
                flags.width = v
                    .parse()
                    .map_err(|_| format!("invalid --width value `{v}`"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn cmd_check(flags: &Flags) -> Result<ExitCode, String> {
    let (path, trace) = single_trace(flags, "check")?;
    println!(
        "{path}: OK — {} lines, {} spans, {} points, kinds: {}",
        trace.lines,
        trace.span_count(),
        trace.points.len(),
        trace.span_names().join(" ")
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(flags: &Flags) -> Result<ExitCode, String> {
    let (_, trace) = single_trace(flags, "report")?;
    if flags.json {
        println!("{}", analyze::report_to_json(&trace, flags.top));
    } else {
        print!("{}", analyze::render_report(&trace, flags.top));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(flags: &Flags) -> Result<ExitCode, String> {
    let [base, new] = flags.positional.as_slice() else {
        return Err("diff takes exactly two trace files".into());
    };
    let base = load_trace(base)?;
    let new = load_trace(new)?;
    let rows = diff::diff_traces(&base, &new, &flags.opts);
    print!("{}", diff::render_diff(&rows, &flags.opts));
    Ok(if diff::has_regressions(&rows) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_export(flags: &Flags) -> Result<ExitCode, String> {
    let [path] = flags.positional.as_slice() else {
        return Err("export takes exactly one trace file".into());
    };
    let format = flags
        .format
        .as_deref()
        .ok_or("export requires --format chrome|flamegraph")?;
    let trace = load_trace(path)?;
    // Render, then verify the export against the span model before letting
    // it out the door — a broken exporter fails loudly, not in Perfetto.
    let (rendered, what) = match format {
        "chrome" => {
            let text = export::chrome_trace(&trace);
            let (complete, counters) = export::verify_chrome_trace(&trace, &text)?;
            (
                text,
                format!("chrome trace, {complete} span event(s), {counters} counter series"),
            )
        }
        "flamegraph" => {
            let text = export::flamegraph(&trace);
            let lines = export::verify_flamegraph(&trace, &text)?;
            (
                text,
                format!(
                    "collapsed stacks, {lines} line(s), total self {:.3}s",
                    export::total_self_ns(&trace) as f64 / 1e9
                ),
            )
        }
        _ => unreachable!("parse_flags validated --format"),
    };
    match &flags.out {
        Some(out) => {
            std::fs::write(out, &rendered).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("diam-trace: wrote {out} ({what})");
        }
        None => print!("{rendered}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(flags: &Flags) -> Result<ExitCode, String> {
    let (_, trace) = single_trace(flags, "timeline")?;
    print!("{}", timeline::render_timeline(&trace, flags.width));
    Ok(ExitCode::SUCCESS)
}

fn cmd_postmortem(flags: &Flags) -> Result<ExitCode, String> {
    let [path] = flags.positional.as_slice() else {
        return Err("postmortem takes exactly one crash dump file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dump = postmortem::CrashDump::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", postmortem::render_postmortem(&dump));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage_err("missing command");
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage_err(&e),
    };
    let result = match cmd.as_str() {
        "check" => cmd_check(&flags),
        "report" => cmd_report(&flags),
        "diff" => cmd_diff(&flags),
        "export" => cmd_export(&flags),
        "timeline" => cmd_timeline(&flags),
        "postmortem" => cmd_postmortem(&flags),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage_err(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("diam-trace: {e}");
            ExitCode::from(2)
        }
    }
}
