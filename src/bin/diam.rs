//! `diam` — command-line front end: read an AIGER netlist, compute
//! transformation-enhanced diameter bounds, and optionally discharge targets
//! with a complete bounded model check.
//!
//! ```text
//! USAGE:
//!   diam bound  [OPTIONS] <FILE.aag>     per-target diameter bounds
//!   diam prove  [OPTIONS] <FILE.aag>     bounds + complete BMC per target
//!   diam stats  <FILE.aag>               netlist + classification statistics
//!   diam sweep  <FILE.aag> <OUT.aag>     redundancy removal, write result
//!   diam retime <FILE.aag>               retime and report reductions
//!   diam solve  [OPTIONS] <FILE.aag>     full portfolio: random sim, COM,
//!                                        diameter-complete BMC, induction
//!
//! OPTIONS:
//!   --pipeline <P>   none | com | com-ret-com | a comma list of
//!                    coi, com, ret, fold[:c], enl[:k], param — each
//!                    optionally starred into a fixpoint group, e.g.
//!                    com* or (com,ret)*:2       (default com-ret-com)
//!   --threshold <N>  usefulness threshold       (default 50)
//!   --depth-cap <N>  refuse BMC beyond N        (default 10000)
//!   --ecc <V>        on | off | k=<N> — eccentricity engine: replace
//!                    the blanket 2^|regs| factor of general components
//!                    with a certified state-graph diameter, for
//!                    components up to k registers (default on, cutoff
//!                    16). Sound either way; `off` reproduces the
//!                    paper's blanket bounds
//!   --explain        for `bound`: print the dominant component chain of
//!                    every target that stays over the threshold
//!   --obs <M>        off | summary | json | live | live-json — structured
//!                    observability for this run (default off; see diam-obs)
//!   --trace-out <F>  write the JSONL trace to F (implies --obs json)
//!   --live-out <F>   stream machine-readable live progress JSONL to F
//!                    (implies --obs live)
//!   --mem <on|off>   allocator accounting: live/peak bytes, per-span
//!                    attribution, `mem.live_bytes` gauge (default off;
//!                    off costs one relaxed atomic load per allocation)
//! ```

use diam::bmc::{prove_all, ProveOptions, ProveOutcome};
use diam::core::classify::{classify, Classifier, ClassifyOptions};
use diam::core::{EccOptions, Pipeline, StructuralOptions};
use diam::netlist::{aiger, Netlist};
use diam::transform::com::{sweep, SweepOptions};
use diam::transform::retime::retime;
use diam_obs::{ObsConfig, RunManifest, Session};
use std::io::BufReader;
use std::process::ExitCode;

/// `println!` for a pipeline's sake: a reader that closes stdout early
/// (`diam solve f.aag | head -1`) ends the run with status 0 instead of a
/// panic; any other write error ends it with status 1.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(e)
        }
    }};
}

fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("diam: writing stdout: {e}");
    std::process::exit(1);
}

/// Counting allocator so `--mem on` can attribute heap traffic to spans.
/// With accounting disabled (the default) each allocation pays only one
/// relaxed atomic load over the system allocator.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

struct Options {
    pipeline: Pipeline,
    pipeline_name: String,
    threshold: u64,
    depth_cap: u64,
    explain: bool,
    ecc: EccOptions,
    obs: ObsConfig,
    files: Vec<String>,
}

impl Options {
    fn structural(&self) -> StructuralOptions {
        StructuralOptions {
            ecc: self.ecc,
            ..StructuralOptions::default()
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut pipeline_name = "com-ret-com".to_string();
    let mut threshold = 50u64;
    let mut depth_cap = 10_000u64;
    let mut explain = false;
    let mut ecc = EccOptions::on();
    let mut files = Vec::new();
    let (obs, rest) = ObsConfig::from_args(args.iter().cloned()).map_err(|e| e.to_string())?;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pipeline" => {
                pipeline_name = it.next().ok_or("--pipeline needs a value")?.clone();
            }
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|_| "bad --threshold value")?;
            }
            "--depth-cap" => {
                depth_cap = it
                    .next()
                    .ok_or("--depth-cap needs a value")?
                    .parse()
                    .map_err(|_| "bad --depth-cap value")?;
            }
            "--ecc" => {
                ecc = EccOptions::parse(it.next().ok_or("--ecc needs a value")?)?;
            }
            "--explain" => explain = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            file => files.push(file.to_string()),
        }
    }
    // `Pipeline::parse` owns the full grammar, including the canned
    // whole-spec aliases (`com`, `com-ret-com`).
    let pipeline = Pipeline::parse(&pipeline_name)?;
    Ok(Options {
        pipeline,
        pipeline_name,
        threshold,
        depth_cap,
        explain,
        ecc,
        obs,
        files,
    })
}

fn load(path: &str) -> Result<Netlist, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let n = aiger::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    n.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(n)
}

fn cmd_bound(opts: &Options) -> Result<(), String> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    out!(
        "{path}: {} inputs, {} registers, {} ANDs, {} targets; pipeline {}",
        n.num_inputs(),
        n.num_regs(),
        n.num_ands(),
        n.targets().len(),
        opts.pipeline_name
    );
    let result = opts.pipeline.run(&n);
    let cx = Classifier::new(&result.netlist, &opts.structural());
    let bounds = result.bound_targets_in(&cx);
    let mut useful = 0;
    for b in &bounds {
        let mark = if b.original.is_useful(opts.threshold) {
            useful += 1;
            "useful"
        } else {
            "too large"
        };
        out!(
            "  {:<32} d̂(transformed) = {:<10} d̂(original) = {:<10} [{mark}]",
            b.name,
            b.transformed.to_string(),
            b.original.to_string()
        );
    }
    out!(
        "{useful}/{} targets below the threshold {}",
        bounds.len(),
        opts.threshold
    );
    if opts.explain {
        // Explain the dominant composition chain of every over-threshold
        // target, on the transformed netlist (where the bound was computed).
        for (i, b) in bounds.iter().enumerate() {
            if !b.original.is_useful(opts.threshold) {
                let t = result.netlist.targets()[i].lit;
                let e = cx.explain(t);
                out!("\nwhy {} is unboundable:\n{e}", b.name);
            }
        }
    }
    Ok(())
}

fn cmd_prove(opts: &Options) -> Result<(), String> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    let prove_opts = ProveOptions {
        depth_cap: opts.depth_cap,
        structural: opts.structural(),
        ..Default::default()
    };
    let mut proved = 0;
    let mut failed = 0;
    let mut open = 0;
    let outcomes = prove_all(&n, &opts.pipeline, &prove_opts);
    for (t, outcome) in n.targets().iter().zip(outcomes) {
        let name = &t.name;
        match outcome {
            ProveOutcome::Proved { bound } => {
                proved += 1;
                out!("  PROVED     {name} (complete BMC to depth {})", bound - 1);
            }
            ProveOutcome::Counterexample { depth, .. } => {
                failed += 1;
                out!("  FAILS      {name} at time {depth}");
            }
            ProveOutcome::BoundTooLarge { bound } => {
                open += 1;
                match bound {
                    Some(b) => out!("  OPEN       {name} (bound {b} over the cap)"),
                    None => out!("  OPEN       {name} (bound exponential)"),
                }
            }
            ProveOutcome::Unknown => {
                open += 1;
                out!("  OPEN       {name} (SAT budget exhausted)");
            }
        }
    }
    out!("\n{proved} proved, {failed} failed, {open} open");
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    out!("{path}:");
    out!("{}", diam::netlist::stats::stats(&n));
    let regs: Vec<_> = n.regs().to_vec();
    let cl = classify(&n, &regs, &ClassifyOptions::default());
    let counts = cl.counts();
    out!("register classes (whole netlist): CC;AC;MC+QC;GC = {counts}");
    out!(
        "components: {} ({} memory clusters)",
        cl.cond.comps.len(),
        cl.clusters.len()
    );
    for (k, cluster) in cl.clusters.iter().enumerate() {
        out!(
            "  memory {k}: {} cells in {} rows",
            cluster.comps.len(),
            cluster.rows
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let path = opts.files.first().ok_or("missing input file")?;
    let out_path = opts.files.get(1).ok_or("missing output file")?;
    let n = load(path)?;
    let result = sweep(&n, &SweepOptions::default());
    out!(
        "{path}: {} -> {} registers, {} -> {} ANDs ({} merges, {} refinement rounds)",
        n.num_regs(),
        result.netlist.num_regs(),
        n.num_ands(),
        result.netlist.num_ands(),
        result.merges,
        result.refinements
    );
    let f = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    aiger::write_ascii(&result.netlist, f).map_err(|e| format!("{out_path}: {e}"))?;
    out!("wrote {out_path}");
    Ok(())
}

fn cmd_retime(opts: &Options) -> Result<(), String> {
    let path = opts.files.first().ok_or("missing input file")?;
    let mut n = load(path)?;
    diam::netlist::rebuild::explicit_nondet_init(&mut n);
    let ret = retime(&n).map_err(|e| e.to_string())?;
    out!(
        "{path}: {} -> {} registers; {} stump inputs created",
        ret.regs_before,
        ret.regs_after,
        ret.stump_inputs.len()
    );
    for t in n.targets() {
        out!(
            "  target {:<28} lag {} (bounds back-translate as d̂ + {})",
            t.name,
            -(ret.lag[t.lit.gate().index()]),
            ret.skew(t.lit.gate())
        );
    }
    out!(
        "(the retimed netlist uses functional initial values and therefore \
         cannot be written to AIGER; use the library API to analyze it)"
    );
    Ok(())
}

fn cmd_solve(opts: &Options) -> Result<(), String> {
    use diam::bmc::strategy::{solve_all, StrategyOptions, TargetStatus};
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    let strategy = StrategyOptions {
        pipeline: opts.pipeline.clone(),
        depth_cap: opts.depth_cap,
        structural: opts.structural(),
        ..Default::default()
    };
    let statuses = solve_all(&n, &strategy);
    let (mut proved, mut failed, mut open) = (0, 0, 0);
    for (t, status) in n.targets().iter().zip(&statuses) {
        match status {
            TargetStatus::Proved { by } => {
                proved += 1;
                out!("  PROVED {:<32} by {by}", t.name);
            }
            TargetStatus::Failed { depth, by, .. } => {
                failed += 1;
                out!("  FAILS  {:<32} at time {depth} (found by {by})", t.name);
            }
            TargetStatus::Open { bound } => {
                open += 1;
                match bound {
                    Some(b) => out!("  OPEN   {:<32} (diameter bound {b})", t.name),
                    None => out!("  OPEN   {:<32} (diameter bound exponential)", t.name),
                }
            }
        }
    }
    out!("\n{proved} proved, {failed} failed, {open} open");
    Ok(())
}

/// Installs the observability session for one CLI invocation. With the
/// default `--obs off` this records nothing and prints nothing — output
/// stays byte-identical to an uninstrumented binary.
fn install_session(cmd: &str, opts: &Options) -> Session {
    // Crash forensics are always armed (zero output unless the process
    // panics).
    diam_obs::crash::install_panic_hook();
    let mut manifest = RunManifest::capture(&format!("diam-{cmd}"))
        .option("pipeline", &opts.pipeline_name)
        .option("threshold", opts.threshold.to_string())
        .option("depth_cap", opts.depth_cap.to_string())
        .option("ecc", opts.ecc.render())
        .option("obs", opts.obs.mode.to_string());
    if let Some(file) = opts.files.first() {
        manifest = manifest.input(file.clone());
    }
    Session::install(opts.obs.clone(), manifest)
}

/// Finishes the session; in recording modes prints a blank line and the
/// run report ([`diam_trace::session_report`]).
fn finish_session(session: Session) {
    use std::io::Write as _;
    if let Some(report) = diam_trace::session_report(&session.finish()) {
        if let Err(e) = write!(std::io::stdout(), "\n{report}") {
            stdout_failed(e)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: diam <bound|prove|solve|stats|sweep|retime> [options] <file.aag> ...");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = install_session(cmd, &opts);
    let result = match cmd.as_str() {
        "bound" => cmd_bound(&opts),
        "prove" => cmd_prove(&opts),
        "stats" => cmd_stats(&opts),
        "sweep" => cmd_sweep(&opts),
        "retime" => cmd_retime(&opts),
        "solve" => cmd_solve(&opts),
        other => Err(format!("unknown command {other}")),
    };
    finish_session(session);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
