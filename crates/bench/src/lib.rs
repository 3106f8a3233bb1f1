//! # diam-bench
//!
//! The experiment harness: regenerates the paper's Table 1 and Table 2 and
//! hosts the Criterion micro/macro benchmarks.
//!
//! Binaries:
//!
//! * `table1` — Table 1 (ISCAS89-profile suite) over the three columns
//!   *Original*, *COM*, *COM,RET,COM*;
//! * `table2` — Table 2 (GP-profile suite), same columns;
//! * `ablation` — the paper's §3/§4 side observations: recurrence diameter
//!   vs structural bound, Theorem 2 slack (bounds that *increase* slightly
//!   after retiming), and the state-folding factor.
//!
//! The row computation lives here in the library so the workspace
//! integration tests can assert the reproduced Σ shape.

use diam_core::classify::{ClassCounts, Classifier};
use diam_core::{Bound, EccOptions, Pipeline, PipelineResult, StructuralOptions};
use diam_gen::profile::DesignProfile;
use diam_netlist::Netlist;
use diam_obs::{FlagError, ObsConfig, RunManifest, Session};
use diam_par::Parallelism;
use std::time::Instant;

/// Parsed command line shared by the table/ablation binaries.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Suite generator seed (positional, default 1).
    pub seed: u64,
    /// `--jobs <N|seq|auto>` — per-target fan-out.
    pub jobs: Parallelism,
    /// The observability flags `--obs`, `--trace-out`, `--live-out` and
    /// `--mem`, parsed by [`ObsConfig::from_args`]. `--mem on` measures only
    /// in binaries that declare `diam_obs::alloc::CountingAlloc` as their
    /// `#[global_allocator]` (all three do).
    pub obs: ObsConfig,
    /// `--limit <N>` — truncate the suite to its first `N` designs (CI and
    /// smoke runs).
    pub limit: Option<usize>,
    /// `--ecc <on|off|k=N>` — eccentricity-certified GC bounds. Off by
    /// default so the tables reproduce the paper's blanket-bound Σ; `on`
    /// demonstrates (and CI cross-checks) the tightened bounds.
    pub ecc: EccOptions,
}

impl BenchCli {
    /// Installs the observability session for this run: captures a
    /// [`RunManifest`] (argv, build info, options) and hands it to
    /// [`Session::install`]. With `--obs off` (the default) the session
    /// records nothing and prints nothing — output stays byte-identical to
    /// an uninstrumented binary.
    pub fn session(&self, tool: &str) -> Session {
        // Crash forensics are always armed: a panic anywhere in the run
        // writes a crash dump (manifest, open spans, recorded-event tail,
        // allocator state) under the temp directory, whatever the `--obs`
        // mode.
        diam_obs::crash::install_panic_hook();
        let mut manifest = RunManifest::capture(tool)
            .option("seed", self.seed.to_string())
            .option("jobs", self.jobs.to_string())
            .option("obs", self.obs.mode.to_string());
        if let Some(limit) = self.limit {
            manifest = manifest.option("limit", limit.to_string());
        }
        if self.ecc.enabled {
            manifest = manifest.option("ecc", self.ecc.render());
        }
        Session::install(self.obs.clone(), manifest)
    }

    /// Finishes `session`; in recording modes prints a blank line and the
    /// run report ([`diam_trace::session_report`]) after the tables.
    pub fn finish(&self, session: Session) {
        if let Some(report) = diam_trace::session_report(&session.finish()) {
            print!("\n{report}");
        }
    }

    /// Applies `--limit` to a generated suite.
    pub fn clamp<T>(&self, mut suite: Vec<T>) -> Vec<T> {
        if let Some(limit) = self.limit {
            suite.truncate(limit);
        }
        suite
    }
}

/// Prints `what` and the usage line on stderr, then exits with status 2.
pub fn usage_error(usage: &str, what: &str) -> ! {
    eprintln!("{what}\nusage: {usage}");
    std::process::exit(2);
}

/// Takes the observability flags of [`ObsConfig::from_args`] out of the
/// process arguments; returns the configuration and the other arguments,
/// in order. The shared parser takes `--flag value`; the bench binaries also
/// accept `--flag=value`, so that spelling of its flags is split first. A
/// missing or bad value aborts with a usage message (exit 2).
pub fn parse_obs_flags(usage: &str) -> (ObsConfig, Vec<String>) {
    let args = std::env::args()
        .skip(1)
        .flat_map(|arg| match arg.split_once('=') {
            Some((flag, value)) if ObsConfig::FLAGS.contains(&flag) => {
                vec![flag.to_string(), value.to_string()]
            }
            _ => vec![arg],
        });
    ObsConfig::from_args(args).unwrap_or_else(|e| match e {
        FlagError::MissingValue(flag) => usage_error(usage, &format!("{flag} expects a value")),
        FlagError::BadValue { flag, expected, .. } => {
            usage_error(usage, &format!("{flag} expects {expected}"))
        }
    })
}

/// The flags [`parse_cli`] accepts, as its usage message lists them.
const CLI_FLAGS: &str = "[--jobs <N|seq|auto>] [--obs off|summary|json|live|live-json] \
[--trace-out <path.jsonl>] [--live-out <path.jsonl>] [--mem on|off] [--limit <N>] \
[--ecc on|off|k=<N>]";

/// Shared CLI parsing for the table/ablation binaries: a positional seed
/// (default 1) plus `--jobs <N|seq|auto>` (per-target fan-out),
/// `--limit <N>`, `--ecc <on|off|k=N>` and the observability flags of
/// [`parse_obs_flags`]. Every flag also takes the `--flag=value` form.
/// Unrecognized arguments abort with a usage message: `name_and_seed` (the
/// binary's name and positional argument) followed by every flag above.
pub fn parse_cli(name_and_seed: &str) -> BenchCli {
    let usage = format!("{name_and_seed} {CLI_FLAGS}");
    let usage = usage.as_str();
    let fail = |what: &str| -> ! { usage_error(usage, what) };
    let (obs, rest) = parse_obs_flags(usage);
    let mut cli = BenchCli {
        seed: 1,
        jobs: Parallelism::Sequential,
        obs,
        limit: None,
        ecc: EccOptions::default(),
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        // `--flag value` and `--flag=value` both work.
        let mut flag_value = |name: &str, short: Option<&str>| -> Option<String> {
            if arg == name || short.is_some_and(|s| arg == s) {
                return Some(
                    args.next()
                        .unwrap_or_else(|| fail(&format!("{name} expects a value"))),
                );
            }
            arg.strip_prefix(&format!("{name}=")).map(str::to_string)
        };
        if let Some(v) = flag_value("--jobs", Some("-j")) {
            cli.jobs =
                Parallelism::parse(&v).unwrap_or_else(|_| fail("--jobs expects <N|seq|auto>"));
        } else if let Some(v) = flag_value("--ecc", None) {
            cli.ecc = EccOptions::parse(&v).unwrap_or_else(|_| fail("--ecc expects on|off|k=<N>"));
        } else if let Some(v) = flag_value("--limit", None) {
            cli.limit = Some(
                v.parse()
                    .unwrap_or_else(|_| fail("--limit expects a design count")),
            );
        } else if let Ok(s) = arg.parse() {
            cli.seed = s;
        } else {
            fail(&format!("unrecognized argument `{arg}`"));
        }
    }
    cli
}

/// One table column for one design.
#[derive(Debug, Clone)]
pub struct ColumnResult {
    /// Register class counts over the (transformed) netlist.
    pub counts: ClassCounts,
    /// Targets with a back-translated bound `< 50`.
    pub useful: usize,
    /// Average back-translated bound over those targets.
    pub avg: f64,
    /// Wall-clock seconds spent on transformation + bounding. The
    /// COM,RET,COM column continues the COM column's transformation, so its
    /// time leaves out COI and the first COM.
    pub seconds: f64,
}

/// One design row: the three columns of the paper's tables.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The design's profile (paper ground truth included).
    pub profile: DesignProfile,
    /// `[Original, COM, COM+RET+COM]`.
    pub columns: [ColumnResult; 3],
}

/// The usefulness threshold the paper uses throughout.
pub const THRESHOLD: u64 = 50;

/// Runs the three columns on one design. `par` sets the per-target
/// bounding fan-out (results are bit-identical across settings); `ecc` is
/// `--ecc` on the table binaries, whose default (off) reproduces the
/// paper's blanket bounds.
///
/// The COM,RET,COM column continues the COM column's result with
/// [`Pipeline::ret_com`]: every pass is deterministic, so running COI and
/// COM again would only repeat the COM column's work.
pub fn run_design_opts(
    profile: &DesignProfile,
    netlist: &Netlist,
    par: diam_par::Parallelism,
    ecc: &EccOptions,
) -> DesignResult {
    let mut design_sp = diam_obs::span!(
        "suite.design",
        design = profile.name,
        targets = profile.targets
    );
    let opts = StructuralOptions {
        parallelism: par,
        ecc: *ecc,
        ..StructuralOptions::default()
    };
    let (original, _) = column("original", &opts, || Pipeline::new().run(netlist));
    let (com, com_result) = column("com", &opts, || Pipeline::com().run(netlist));
    let (com_ret_com, _) = column("com_ret_com", &opts, || {
        Pipeline::ret_com().resume(com_result)
    });
    let columns = [original, com, com_ret_com];
    if diam_obs::enabled() {
        let useful: usize = columns.iter().map(|c| c.useful).sum();
        design_sp.record("useful_total", useful as u64);
    }
    DesignResult {
        profile: profile.clone(),
        columns,
    }
}

/// One table column: transforms with `transform`, then classifies and
/// bounds its result. Returns the column and the transformation result.
fn column(
    name: &str,
    opts: &StructuralOptions,
    transform: impl FnOnce() -> PipelineResult,
) -> (ColumnResult, PipelineResult) {
    let mut col_sp = diam_obs::span!("suite.column", column = name);
    let start = Instant::now();
    let result = transform();
    // The class counts and the bounds share one bounding pass: the whole
    // netlist's classification fills its table-cell memo for every cone.
    let cx = Classifier::new(&result.netlist, opts);
    let regs = result.netlist.regs();
    let counts = cx.classify(regs).counts();
    let bounds = result.bound_targets_in(&cx);
    let useful: Vec<u64> = bounds
        .iter()
        .filter_map(|b| match b.original {
            Bound::Finite(v) if v < THRESHOLD => Some(v),
            _ => None,
        })
        .collect();
    let avg = if useful.is_empty() {
        0.0
    } else {
        useful.iter().sum::<u64>() as f64 / useful.len() as f64
    };
    if diam_obs::enabled() {
        col_sp.record("useful", useful.len() as u64);
        col_sp.record("regs", regs.len() as u64);
    }
    drop(col_sp);
    let column = ColumnResult {
        counts,
        useful: useful.len(),
        avg,
        seconds: start.elapsed().as_secs_f64(),
    };
    (column, result)
}

/// Accumulated Σ row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigma {
    /// Summed class counts per column.
    pub counts: [ClassCountsSum; 3],
    /// Summed useful-target counts per column.
    pub useful: [usize; 3],
    /// Total targets.
    pub targets: usize,
}

/// Plain-integer class count sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCountsSum {
    /// Constant registers.
    pub constant: usize,
    /// Acyclic registers.
    pub acyclic: usize,
    /// Table cells.
    pub table: usize,
    /// General registers.
    pub general: usize,
}

impl Sigma {
    /// Adds a design row.
    pub fn add(&mut self, r: &DesignResult) {
        for (k, c) in r.columns.iter().enumerate() {
            self.counts[k].constant += c.counts.constant;
            self.counts[k].acyclic += c.counts.acyclic;
            self.counts[k].table += c.counts.table;
            self.counts[k].general += c.counts.general;
            self.useful[k] += c.useful;
        }
        self.targets += r.profile.targets;
    }
}

/// Formats a design row like the paper's tables.
pub fn format_row(r: &DesignResult) -> String {
    let col = |c: &ColumnResult| {
        format!(
            "{:>4};{:>5};{:>5};{:>5} | {:>4}/{:>4}; {:>6.1}",
            c.counts.constant,
            c.counts.acyclic,
            c.counts.table,
            c.counts.general,
            c.useful,
            r.profile.targets,
            c.avg
        )
    };
    format!(
        "{:<10} || {} || {} || {}",
        r.profile.name,
        col(&r.columns[0]),
        col(&r.columns[1]),
        col(&r.columns[2])
    )
}

/// Prints the table header matching [`format_row`].
pub fn header() -> String {
    let col = |name: &str| format!("{name:<14} CC;   AC;MC+QC;   GC | |T'|/ |T|; avg d̂");
    format!(
        "{:<10} || {} || {} || {}",
        "Design",
        col("ORIGINAL"),
        col("COM"),
        col("COM,RET,COM")
    )
}

/// Runs a whole suite sequentially with the paper's blanket bounds,
/// printing rows as they complete; returns the Σ.
pub fn run_suite(suite: &[(DesignProfile, Netlist)], print: bool) -> Sigma {
    run_suite_opts(
        suite,
        print,
        Parallelism::Sequential,
        &EccOptions::default(),
    )
}

/// [`run_suite`] with an explicit parallelism setting (see `--jobs` on the
/// `table1` / `table2` binaries) and eccentricity-engine options.
pub fn run_suite_opts(
    suite: &[(DesignProfile, Netlist)],
    print: bool,
    par: diam_par::Parallelism,
    ecc: &EccOptions,
) -> Sigma {
    if print {
        println!("{}", header());
    }
    let mut sigma = Sigma::default();
    for (profile, netlist) in suite {
        let r = run_design_opts(profile, netlist, par, ecc);
        if print {
            println!("{}", format_row(&r));
        }
        sigma.add(&r);
    }
    sigma
}

/// Formats the Σ row plus the paper's Σ for comparison.
pub fn format_sigma(
    sigma: &Sigma,
    paper: (usize, usize, usize, usize, usize, usize, usize, usize),
) -> String {
    let (pcc, pac, pmc, pgc, p0, p1, p2, pt) = paper;
    let mut s = String::new();
    s.push_str(&format!(
        "Σ measured || {:>4};{:>5};{:>5};{:>5} | {:>4}/{:>4} || -;-;-;- | {:>4}/{:>4} || -;-;-;- | {:>4}/{:>4}\n",
        sigma.counts[0].constant,
        sigma.counts[0].acyclic,
        sigma.counts[0].table,
        sigma.counts[0].general,
        sigma.useful[0],
        sigma.targets,
        sigma.useful[1],
        sigma.targets,
        sigma.useful[2],
        sigma.targets,
    ));
    s.push_str(&format!(
        "Σ paper    || {pcc:>4};{pac:>5};{pmc:>5};{pgc:>5} | {p0:>4}/{pt:>4} || {p1:>4}/{pt:>4} || {p2:>4}/{pt:>4}\n"
    ));
    s.push_str(&format!(
        "useful-target fractions measured: {:.0}% -> {:.0}% -> {:.0}%   (paper: {:.0}% -> {:.0}% -> {:.0}%)",
        100.0 * sigma.useful[0] as f64 / sigma.targets as f64,
        100.0 * sigma.useful[1] as f64 / sigma.targets as f64,
        100.0 * sigma.useful[2] as f64 / sigma.targets as f64,
        100.0 * p0 as f64 / pt as f64,
        100.0 * p1 as f64 / pt as f64,
        100.0 * p2 as f64 / pt as f64,
    ));
    s
}
