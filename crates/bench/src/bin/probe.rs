//! Per-target bound probe for a single suite design — handy when tuning
//! the generator or investigating a table row.
//!
//! Usage: `cargo run -p diam-bench --release --bin probe <DESIGN> [column 0|1|2]
//! [table 1|2] [--obs off|summary|json|live] [--trace-out <path.jsonl>]`
use diam_core::{Pipeline, StructuralOptions};
use diam_gen::gp;
use diam_gen::iscas;
use diam_obs::{ObsConfig, ObsMode, RunManifest, Session};

fn main() {
    // Positional args first; `--obs` / `--trace-out` can appear anywhere.
    let mut obs = ObsConfig::default();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--obs" {
            let v = args.next().unwrap_or_default();
            obs.mode = ObsMode::parse(&v).unwrap_or_else(|_| {
                eprintln!("--obs expects off|summary|json|live");
                std::process::exit(2);
            });
        } else if let Some(v) = arg.strip_prefix("--obs=") {
            obs.mode = ObsMode::parse(v).unwrap_or_else(|_| {
                eprintln!("--obs expects off|summary|json|live");
                std::process::exit(2);
            });
        } else if arg == "--trace-out" {
            obs.trace_out = args.next().map(Into::into);
        } else if let Some(v) = arg.strip_prefix("--trace-out=") {
            obs.trace_out = Some(v.into());
        } else {
            positional.push(arg);
        }
    }
    if obs.trace_out.is_some() && obs.mode.is_off() {
        obs.mode = ObsMode::Json;
    }
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "S4863".into());
    let col: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let table: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let manifest = RunManifest::capture("probe")
        .input(&name)
        .option("column", col.to_string())
        .option("table", table.to_string());
    let session = Session::install(obs.clone(), manifest);

    let suite = if table == 2 {
        gp::suite(1)
    } else {
        iscas::suite(1)
    };
    let (p, n) = suite.iter().find(|(p, _)| p.name == name).expect("design");
    println!(
        "{}: {} gates, {} regs, {} targets",
        p.name,
        n.num_gates(),
        n.num_regs(),
        n.targets().len()
    );
    let pipe = match col {
        0 => Pipeline::new(),
        1 => Pipeline::com(),
        _ => Pipeline::com_ret_com(),
    };
    let t0 = std::time::Instant::now();
    let bounds = pipe.bound_targets(n, &StructuralOptions::default());
    println!("column {col} took {:?}", t0.elapsed());
    for b in &bounds {
        println!(
            "  {:<28} transformed={:<8} original={}",
            b.name,
            b.transformed.to_string(),
            b.original
        );
    }

    if let Some(report) = diam_trace::session_report(&session.finish()) {
        print!("\n{report}");
    }
}
