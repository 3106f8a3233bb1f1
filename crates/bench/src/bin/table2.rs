//! Regenerates Table 2 of the paper (phase-abstracted GP-profile suite).
//!
//! Usage: `cargo run -p diam-bench --release --bin table2 -- [seed] [--jobs <N|seq|auto>]
//! [--obs off|summary|json|live|live-json] [--trace-out <path.jsonl>]
//! [--live-out <path.jsonl>] [--mem on|off] [--limit <N>] [--ecc on|off|k=<N>]`

use diam_bench::{format_sigma, parse_cli, run_suite_opts};
// Memory accounting (`--mem on`) needs the counting allocator installed
// process-wide; while `--mem off` (the default) it costs one relaxed
// atomic load per allocation.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

use diam_gen::gp;

fn main() {
    let cli = parse_cli("table2 [seed]");
    let session = cli.session("table2");
    println!(
        "Table 2: diameter bounding experiments, GP-profile suite (seed {}, jobs {})\n",
        cli.seed, cli.jobs
    );
    let suite = cli.clamp(gp::suite(cli.seed));
    let sigma = run_suite_opts(&suite, true, cli.jobs, &cli.ecc);
    println!("\n{}", format_sigma(&sigma, gp::TABLE2_SIGMA));
    cli.finish(session);
}
