//! Regenerates Table 1 of the paper (ISCAS89-profile suite): register
//! classification and useful-diameter-bound counts under Original, COM, and
//! COM,RET,COM.
//!
//! Usage: `cargo run -p diam-bench --release --bin table1 -- [seed] [--jobs <N|seq|auto>]
//! [--obs off|summary|json|live|live-json] [--trace-out <path.jsonl>]
//! [--live-out <path.jsonl>] [--mem on|off] [--limit <N>] [--ecc on|off|k=<N>]`

use diam_bench::{format_sigma, parse_cli, run_suite_opts};
// Memory accounting (`--mem on`) needs the counting allocator installed
// process-wide; while `--mem off` (the default) it costs one relaxed
// atomic load per allocation.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

use diam_gen::iscas;

fn main() {
    let cli = parse_cli("table1 [seed]");
    let session = cli.session("table1");
    println!(
        "Table 1: diameter bounding experiments, ISCAS89-profile suite (seed {}, jobs {})\n",
        cli.seed, cli.jobs
    );
    let suite = cli.clamp(iscas::suite(cli.seed));
    let sigma = run_suite_opts(&suite, true, cli.jobs, &cli.ecc);
    println!("\n{}", format_sigma(&sigma, iscas::TABLE1_SIGMA));
    cli.finish(session);
}
