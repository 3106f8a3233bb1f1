//! Per-target bound probe for a single suite design — handy when tuning
//! the generator or investigating a table row.
//!
//! Usage: `cargo run -p diam-bench --release --bin probe` followed by the
//! arguments in [`USAGE`]; the observability flags can appear anywhere.
use diam_bench::{parse_obs_flags, usage_error};
use diam_core::{Pipeline, StructuralOptions};
use diam_gen::gp;
use diam_gen::iscas;
use diam_obs::{RunManifest, Session};

// Memory accounting (`--mem on`) needs the counting allocator installed
// process-wide; while `--mem off` (the default) it costs one relaxed
// atomic load per allocation.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

const USAGE: &str = "probe [DESIGN] [column 0|1|2] [table 1|2] \
[--obs off|summary|json|live|live-json] [--trace-out <path.jsonl>] \
[--live-out <path.jsonl>] [--mem on|off]";

fn main() {
    let (obs, positional) = parse_obs_flags(USAGE);
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "S4863".into());
    let col: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let table: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let profiles = if table == 2 {
        gp::profiles()
    } else {
        iscas::profiles()
    };
    if !profiles.iter().any(|p| p.name == name) {
        usage_error(USAGE, &format!("unknown design `{name}` in table {table}"));
    }

    let manifest = RunManifest::capture("probe")
        .input(&name)
        .option("column", col.to_string())
        .option("table", table.to_string());
    let session = Session::install(obs, manifest);

    let suite = if table == 2 {
        gp::suite(1)
    } else {
        iscas::suite(1)
    };
    let (p, n) = suite
        .iter()
        .find(|(p, _)| p.name == name)
        .expect("a listed design");
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
