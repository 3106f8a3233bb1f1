//! `ledger` — the end-to-end perf ledger: AIGER in, checked verdicts out,
//! with per-layer attribution from a separate traced run.
//!
//! ```text
//! ledger --workload <paper_tables|solve_paper|prove_archetypes|scale_1m>
//!        [--seed S] [--seconds T | --runs N] [--trace 0|1] [--quick]
//! ```
//!
//! The benchmark generates the workload from the seed, round-trips every
//! design through binary AIGER, and hands the program only those bytes. It
//! then runs each design through the workload's public entry point in this
//! one process — tracing off, `Parallelism::Sequential`, a closed loop with
//! one client (the next design starts when the previous returns). Before
//! every design it clears the eccentricity memo and re-parses, because every
//! `diam` invocation pays both. A *run* is one pass over all designs; runs
//! repeat while another one fits in `--seconds` (at least two), or exactly
//! `--runs` times. Every output of every run is checked, and the process
//! exits 1 with a `wrong_verdicts` block when any check fails.
//!
//! Output: one `<workload> <metric> <value> <unit> q1=… median=… q3=… n=…`
//! line per metric (quartiles of its per-run samples), then one JSON object
//! as the last line. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones (see `layers`). `--quick` keeps two small designs; the
//! unit tests use it.
//!
//! # Workloads
//!
//! * `paper_tables` — the three-column `run_design_opts` row (ecc off, the
//!   paper's setting) over the ISCAS89 and GP suites for seeds S and S+1:
//!   142 designs. This is the paper's own experiment; its cost is the COM
//!   sweep (many tiny incremental SAT solves), RET, classification and
//!   structural bounding. It never reaches BMC, random simulation or the
//!   eccentricity engine, so optimisations of those must show no change
//!   here.
//! * `solve_paper` — `solve_all(StrategyOptions::default())` (ecc on) over
//!   the seed-S ISCAS89 and GP suites: 71 designs, 1899 targets, the
//!   bug-hunting traffic. Every target is falsified; on ISCAS the time goes
//!   to `random_search` re-simulating the whole netlist per target, on GP
//!   to `com::sweep` and the pipeline. BMC is idle.
//! * `prove_archetypes` — `solve_all` over 40 seeded compositions of a
//!   token ring, a round-robin arbiter, a Johnson counter and a counter
//!   behind an enable pipeline, six targets each with answers known by
//!   construction. The only workload where diameter-complete BMC proves
//!   targets; it uses SAT as a few deep unrollings, not many tiny sweep
//!   queries, and the four designs whose d̂ exceeds the depth cap of 256 fall
//!   to the symbolic engine plus a deep BMC re-run.
//! * `scale_1m` — four 1M-gate `diam_gen::large` designs: whole-netlist
//!   classification (`diam stats`), then `prove_all` (no transformation,
//!   ecc on, depth cap 256). A working set of about 190 MB against the
//!   suites' kilobytes: parse (set-up), CSR traversal, classification and
//!   bounding dominate. COM is left out: it does not finish on 100k gates
//!   within two minutes.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — AIGER parse + validate + CSR warm-up summed over the
//!   designs; the median over at least five set-ups.
//! * `wall_s` — loaded netlists to all rows or verdicts: the sum over the
//!   designs of each design's time, its fastest run. Interference from the
//!   host's other tenants only ever adds time, and a spike in one run of one
//!   design would otherwise move the whole metric.
//! * `design_p50_ms` / `design_tail_ms` — per-design time (again the
//!   fastest run): the median, and the mean of the ten slowest designs, the
//!   ones beyond p92 of 142, p85 of 71 and p75 of 40 (the slowest design
//!   when there are fewer than twenty). The tail is a mean rather than the
//!   percentile itself because the percentile falls between designs whose
//!   times differ by up to 2×, and which side of that gap it lands on
//!   changes with the seed; the mean of the slowest ten, led by the few
//!   designs that take seconds, holds steady.
//! * `decided_frac` — targets proved or failed over targets attempted. On
//!   `paper_tables`, which stops at the bound, a target counts as decided
//!   when its COM,RET,COM bound is useful (d̂ < 50, the paper's |T'|/|T|).
//! * `dhat_tightness` — the geometric mean over targets of
//!   d̂ / (exact initial eccentricity of the target's cone + 1); 1 is exact.
//!   Only `prove_archetypes` keeps every cone within the exhaustive
//!   oracle's reach; the other workloads report the empty mean, 1.
//! * `peak_rss_mb` — the peak resident set (VmHWM) over the timed runs: the
//!   peak is reset just before the first run and read right after the last,
//!   so workload generation, reference rows, the extra set-ups and the
//!   tightness oracle stay out of it.
//!
//! # Checks
//!
//! Every `Failed` witness replays on the parsed netlist with exactly
//! `depth + 1` steps; decided `prove_archetypes` verdicts match the
//! constructed answers (a diameter-complete hit at exactly the earliest
//! depth, any other engine's at or beyond it; an open verdict only lowers
//! `decided_frac`); on `scale_1m`, `parity` stays open with an
//! exponential bound (in `--quick` runs: a bound over the depth cap) and
//! `head` fails at depth 4; on `paper_tables` at seed
//! 1 the Σ rows match 477/556/662 of 1615 and 95/111/126 of 284 and every
//! row is byte-identical to what `table1`/`table2` print; every run's
//! outputs and verdict tally equal the first run's.

mod check;
mod layers;
mod workloads;

use check::Checker;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Design, Workload};

const USAGE: &str =
    "usage: ledger --workload <paper_tables|solve_paper|prove_archetypes|scale_1m> \
[--seed S] [--seconds T | --runs N] [--trace 0|1] [--quick]";

/// Runs per invocation, at least, so every design's fastest run is a choice.
const MIN_RUNS: usize = 2;
/// Set-ups measured per invocation (runs contribute one each): at least
/// `SETUP_SAMPLES`, and more, up to `SETUP_MAX_SAMPLES`, until
/// `SETUP_SECONDS` of set-up time is measured, so the millisecond set-ups of
/// the small-design workloads still get a steady median.
const SETUP_SAMPLES: usize = 5;
const SETUP_MAX_SAMPLES: usize = 50;
const SETUP_SECONDS: f64 = 1.0;

#[derive(Debug, Clone)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    runs: Option<usize>,
    trace: bool,
    quick: bool,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        workload: Workload::PaperTables,
        seed: 1,
        seconds: 10.0,
        runs: None,
        trace: false,
        quick: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} expects a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer")?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--runs" => {
                cli.runs = Some(
                    value("--runs")?
                        .parse()
                        .ok()
                        .filter(|&r: &usize| r > 0)
                        .ok_or("--runs expects a positive count")?,
                );
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

/// One named metric: its reported value and the per-run samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sorted, non-empty.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: sorted(samples.to_vec()),
        }
    }

    /// The median of `samples` (at least one).
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let mut m = Metric::new(name, unit, 0.0, samples);
        m.value = quantile(&m.samples, 0.5);
        m
    }

    /// A value measured once.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, value, &[value])
    }

    /// `<workload> <metric> <value> <unit>` plus the samples' quartiles.
    fn line(&self, workload: &str) -> String {
        let s = &self.samples;
        format!(
            "{workload} {} {} {} q1={} median={} q3={} n={}",
            self.name,
            self.value,
            self.unit,
            quantile(s, 0.25),
            quantile(s, 0.5),
            quantile(s, 0.75),
            s.len()
        )
    }
}

/// Linear-interpolation quantile of sorted, non-empty `s`.
fn quantile(s: &[f64], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The mean of the slowest ten of sorted, non-empty `s`, or its slowest
/// value when there are fewer than twenty.
fn tail_mean(s: &[f64]) -> f64 {
    let k = if s.len() < 20 { 1 } else { 10 };
    s[s.len() - k..].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile `p` of sorted, non-empty `s`.
fn percentile(s: &[f64], p: usize) -> f64 {
    let rank = (p * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// Per-run timings.
struct RunTimes {
    setup_ns: u64,
    design_ns: Vec<u64>,
}

impl RunTimes {
    fn wall_ns(&self) -> u64 {
        self.design_ns.iter().sum()
    }

    /// Per-design milliseconds, sorted.
    fn sorted_ms(&self) -> Vec<f64> {
        sorted(self.design_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One run over every design: clear the eccentricity memo, parse (set-up),
/// call the entry point (timed), check the output (untimed).
fn timed_run(w: Workload, designs: &[Design], checker: &mut Checker) -> RunTimes {
    let mut times = RunTimes {
        setup_ns: 0,
        design_ns: Vec::with_capacity(designs.len()),
    };
    for (i, d) in designs.iter().enumerate() {
        diam_core::eccentricity::cache_clear();
        let t0 = Instant::now();
        let n = workloads::load(&d.aig);
        let t1 = Instant::now();
        let out = workloads::run(w, &d.expect, &n);
        let t2 = Instant::now();
        checker.design(i, d, &n, &out);
        times.setup_ns += (t1 - t0).as_nanos() as u64;
        times.design_ns.push((t2 - t1).as_nanos() as u64);
    }
    checker.end_run();
    eprintln!(
        "ledger: {} run: wall {:.3} s, set-up {:.3} s",
        w.name(),
        times.wall_ns() as f64 / 1e9,
        times.setup_ns as f64 / 1e9
    );
    times
}

/// Set-up alone, over every design.
fn setup_only(designs: &[Design]) -> f64 {
    let t0 = Instant::now();
    for d in designs {
        std::hint::black_box(workloads::load(&d.aig));
    }
    t0.elapsed().as_secs_f64()
}

/// Everything one invocation reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    wrong: Vec<String>,
}

fn ledger(cli: &Cli) -> Report {
    let w = cli.workload;
    let designs = workloads::generate(w, cli.seed, cli.quick);
    let mut checker = Checker::new(w, cli.seed, &designs, cli.quick);
    let (metrics, runs) = if cli.trace {
        let plain = timed_run(w, &designs, &mut checker);
        let (metrics, traced) =
            layers::traced(w, &designs, &mut checker, plain.setup_ns + plain.wall_ns());
        (metrics, 1 + traced)
    } else {
        reset_peak_rss();
        let start = Instant::now();
        let mut runs = Vec::new();
        loop {
            runs.push(timed_run(w, &designs, &mut checker));
            let spent = start.elapsed().as_secs_f64();
            let done = match cli.runs {
                Some(r) => runs.len() >= r,
                None => runs.len() >= MIN_RUNS && spent + spent / runs.len() as f64 > cli.seconds,
            };
            if done {
                break;
            }
        }
        let peak_rss_mb = diam_obs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        let metrics = end_to_end(w, &designs, &runs, peak_rss_mb, &mut checker);
        (metrics, runs.len())
    };
    let targets = checker.first_tally.as_ref().map_or(0, |t| t.targets);
    Report {
        metrics,
        attempted: targets * runs as u64,
        wrong: checker.wrong,
    }
}

/// Resets the process's peak resident set to its current one (Linux
/// `clear_refs` code 5), so the next VmHWM reading covers only what follows.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("ledger: cannot reset the peak resident set ({e}); peak_rss_mb covers the whole process");
    }
}

/// The end-to-end metrics of `runs` (see the crate docs), with the peak
/// resident set measured over them. Each design's time is its fastest run:
/// on a shared host, interference only ever adds time, and the minimum
/// keeps a spike in one run out of the result. The per-run values are kept
/// as the metric's samples.
fn end_to_end(
    w: Workload,
    designs: &[Design],
    runs: &[RunTimes],
    peak_rss_mb: f64,
    checker: &mut Checker,
) -> Vec<Metric> {
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    while setups.len() < SETUP_SAMPLES
        || (setups.len() < SETUP_MAX_SAMPLES && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        setups.push(setup_only(designs));
    }
    let per_run = |f: &dyn Fn(&RunTimes) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let fastest = sorted(
        (0..designs.len())
            .map(|i| runs.iter().map(|r| r.design_ns[i]).min().unwrap_or(0) as f64 / 1e6)
            .collect(),
    );
    let tally = checker.first_tally.clone().unwrap_or_default();
    let tightness = match check::dhat_tightness(w, designs) {
        Ok(t) => t,
        Err(e) => {
            checker.wrong.push(e);
            f64::NAN
        }
    };
    vec![
        Metric::median("setup_s", "s", &setups),
        Metric::new(
            "wall_s",
            "s",
            fastest.iter().sum::<f64>() / 1e3,
            &per_run(&|r| r.wall_ns() as f64 / 1e9),
        ),
        Metric::new(
            "design_p50_ms",
            "ms",
            percentile(&fastest, 50),
            &per_run(&|r| percentile(&r.sorted_ms(), 50)),
        ),
        Metric::new(
            "design_tail_ms",
            "ms",
            tail_mean(&fastest),
            &per_run(&|r| tail_mean(&r.sorted_ms())),
        ),
        Metric::single(
            "decided_frac",
            "frac",
            tally.decided as f64 / tally.targets.max(1) as f64,
        ),
        Metric::single("dhat_tightness", "ratio", tightness),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

fn render_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong.is_empty(),
        report.attempted.max(1),
        report.wrong.len(),
        metrics.join(", ")
    )
}

/// Full-precision JSON number; JSON has no NaN or infinities, so those
/// (which only a failed check produces) print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = ledger(&cli);
    let name = cli.workload.name();
    for m in &report.metrics {
        println!("{}", m.line(name));
    }
    if cli.trace {
        if let Some(top) = layers::dominant(&report.metrics) {
            println!(
                "{name} dominant_layer {} {} {}",
                top.name, top.value, top.unit
            );
        }
    }
    if !report.wrong.is_empty() {
        println!("wrong_verdicts {}", report.wrong.len());
        for w in &report.wrong {
            println!("  {w}");
        }
    }
    println!("{}", render_json(&report));
    if report.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Answer, Expect, Outcome};
    use diam_bmc::strategy::{Engine, TargetStatus};

    fn quick(w: Workload, trace: bool) -> Cli {
        Cli {
            workload: w,
            seed: 3,
            seconds: 1.0,
            runs: Some(2),
            trace,
            quick: true,
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let bytes = |seed| -> Vec<Vec<u8>> {
                workloads::generate(w, seed, true)
                    .into_iter()
                    .map(|d| d.aig)
                    .collect()
            };
            assert_eq!(bytes(5), bytes(5), "{}: same seed, same AIGER", w.name());
            assert_ne!(bytes(5), bytes(6), "{}: new seed, new AIGER", w.name());
        }
    }

    #[test]
    fn checker_rejects_a_flipped_verdict_and_a_truncated_witness() {
        // An idle session holds the process-global recorder, so the traced
        // run of `quick_runs_are_clean` never records this test's spans.
        let _idle = diam_obs::Session::install(
            diam_obs::ObsConfig::default(),
            diam_obs::RunManifest::capture("ledger-test"),
        );
        let w = Workload::ProveArchetypes;
        let d = &workloads::generate(w, 3, true)[0];
        let n = workloads::load(&d.aig);
        let Outcome::Verdicts(good) = workloads::run(w, &d.expect, &n) else {
            panic!("prove_archetypes yields verdicts");
        };
        assert!(check::verdict_errors(&n, &d.expect, &good).is_empty());

        // An unreachable target reported as hit, a reachable one as proved.
        let Expect::Answers(answers) = &d.expect else {
            panic!("prove_archetypes designs carry answers");
        };
        let unreachable = answers
            .iter()
            .position(|a| *a == Answer::Unreachable)
            .unwrap();
        let reachable = answers
            .iter()
            .position(|a| *a != Answer::Unreachable)
            .unwrap();
        let mut flipped = good.clone();
        flipped[unreachable] = good[reachable].clone();
        assert!(!check::verdict_errors(&n, &d.expect, &flipped).is_empty());
        let mut flipped = good.clone();
        flipped[reachable] = TargetStatus::Proved {
            by: Engine::DiameterBmc,
        };
        assert!(!check::verdict_errors(&n, &d.expect, &flipped).is_empty());
        // An open verdict is undecided, not wrong.
        let mut open = good.clone();
        open[reachable] = TargetStatus::Open { bound: None };
        open[unreachable] = TargetStatus::Open { bound: None };
        assert!(check::verdict_errors(&n, &d.expect, &open).is_empty());

        // A hit with its last step cut off, depth adjusted to match.
        let mut truncated = good.clone();
        let TargetStatus::Failed { depth, witness, .. } = &mut truncated[reachable] else {
            panic!("reachable targets fail");
        };
        witness.inputs.pop();
        *depth -= 1;
        assert!(!check::verdict_errors(&n, &d.expect, &truncated).is_empty());
    }

    #[test]
    fn quick_runs_are_clean() {
        // One test, so the traced runs' process-global sessions never
        // overlap another run in this process.
        for w in Workload::ALL {
            let report = ledger(&quick(w, false));
            assert!(report.wrong.is_empty(), "{}: {:?}", w.name(), report.wrong);
            assert_eq!(report.metrics.len(), 7);
            assert!(report.attempted > 0);
        }
        let report = ledger(&quick(Workload::ProveArchetypes, true));
        assert!(report.wrong.is_empty(), "traced: {:?}", report.wrong);
        assert!(report.metrics.iter().any(|m| m.name == "unattributed_frac"));
    }
}
