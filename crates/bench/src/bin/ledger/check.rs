//! The verdict checker: every output of every measured run is checked
//! against what the benchmark knows independently of the program, and
//! against the first run of the same invocation.

use crate::workloads::{Answer, Design, Expect, Outcome, Table, Workload, DEPTH_CAP};
use diam_bench::{format_row, run_design_opts, Sigma};
use diam_bmc::strategy::{Engine, StrategyOptions, TargetStatus};
use diam_bmc::ProveOutcome;
use diam_core::exact::{explore, ExploreLimits};
use diam_core::{Bound, EccOptions};
use diam_netlist::rebuild::slice_target;
use diam_netlist::sim::Witness;
use diam_netlist::Netlist;
use diam_par::Parallelism;

/// The paper's Σ useful-target counts `[Original, COM, COM,RET,COM]` and
/// target totals as this implementation reproduces them at seed 1.
pub const TABLE1_SIGMA_SEED1: ([usize; 3], usize) = ([477, 556, 662], 1615);
pub const TABLE2_SIGMA_SEED1: ([usize; 3], usize) = ([95, 111, 126], 284);

/// Engines a verdict can be closed by, in `bmc.closed_by.*` order.
pub const CLOSERS: [&str; 6] = [
    "random_sim",
    "com",
    "diameter_bmc",
    "symbolic",
    "induction",
    "open",
];

/// Verdict counts of one run; identical across runs of one invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Targets the run attempted.
    pub targets: u64,
    /// Targets proved or failed (on `paper_tables`: bounded below the
    /// paper's usefulness threshold after COM,RET,COM).
    pub decided: u64,
    /// Verdicts per closing engine, in [`CLOSERS`] order.
    pub closed_by: [u64; 6],
}

/// A run's comparable output for one design.
#[derive(Debug, Clone, PartialEq)]
enum Digest {
    Row(String),
    Verdicts(Vec<TargetStatus>),
    Large(String, Vec<ProveOutcome>),
}

/// Checks outputs as runs produce them.
pub struct Checker {
    first: Vec<Option<Digest>>,
    /// Rows `table1`/`table2` print for the same designs, when checked.
    reference_rows: Option<Vec<String>>,
    /// One line per wrong output.
    pub wrong: Vec<String>,
    /// Tally of the run in progress.
    pub tally: Tally,
    /// Tally of the first run.
    pub first_tally: Option<Tally>,
    /// Σ rows of the seed-1 tables, when the full suites run at seed 1.
    sigma: Option<[Sigma; 2]>,
}

impl Checker {
    /// A checker for `w`'s `designs` generated from `seed`. On
    /// `paper_tables` at seed 1 (and in `--quick` runs) it first computes
    /// the rows the table binaries print for the same designs.
    pub fn new(w: Workload, seed: u64, designs: &[Design], quick: bool) -> Checker {
        let paper = w == Workload::PaperTables;
        Checker {
            first: vec![None; designs.len()],
            reference_rows: (paper && (seed == 1 || quick)).then(|| reference_rows(designs)),
            wrong: Vec::new(),
            tally: Tally::default(),
            first_tally: None,
            sigma: (paper && seed == 1 && !quick).then(Default::default),
        }
    }

    /// Checks design `index`'s output `out` on its parsed netlist `n`.
    pub fn design(&mut self, index: usize, d: &Design, n: &Netlist, out: &Outcome) {
        let mut wrong = Vec::new();
        let digest = match out {
            Outcome::Row(r) => {
                let row = format_row(r);
                if let (Some(sigma), Expect::Row { table, seed: 1, .. }) =
                    (&mut self.sigma, &d.expect)
                {
                    sigma[*table as usize].add(r);
                }
                if let Some(reference) = self.reference_rows.as_ref().and_then(|v| v.get(index)) {
                    if *reference != row {
                        wrong.push(format!("row differs from the table binary: {row}"));
                    }
                }
                self.tally.targets += r.profile.targets as u64;
                self.tally.decided += r.columns[2].useful as u64;
                Digest::Row(row)
            }
            Outcome::Verdicts(statuses) => {
                wrong.extend(verdict_errors(n, &d.expect, statuses));
                for s in statuses {
                    self.tally.targets += 1;
                    let closer = match s {
                        TargetStatus::Open { .. } => 5,
                        TargetStatus::Proved { by } | TargetStatus::Failed { by, .. } => {
                            self.tally.decided += 1;
                            engine_index(*by)
                        }
                    };
                    self.tally.closed_by[closer] += 1;
                }
                Digest::Verdicts(statuses.clone())
            }
            Outcome::Large { classes, proofs } => {
                let exponential = matches!(d.expect, Expect::Large { exponential: true });
                wrong.extend(large_errors(n, proofs, exponential));
                for p in proofs {
                    self.tally.targets += 1;
                    let closer = match p {
                        ProveOutcome::Proved { .. } | ProveOutcome::Counterexample { .. } => {
                            self.tally.decided += 1;
                            2
                        }
                        ProveOutcome::BoundTooLarge { .. } | ProveOutcome::Unknown => 5,
                    };
                    self.tally.closed_by[closer] += 1;
                }
                Digest::Large(classes.to_string(), proofs.clone())
            }
        };
        match &self.first[index] {
            None => self.first[index] = Some(digest),
            Some(first) if *first != digest => {
                wrong.push("output differs from the first run".to_string());
            }
            Some(_) => {}
        }
        self.wrong
            .extend(wrong.into_iter().map(|w| format!("{}: {w}", d.name)));
    }

    /// Closes a run: its tally must equal the first run's, and on
    /// `paper_tables` at seed 1 the Σ rows must match
    /// [`TABLE1_SIGMA_SEED1`] / [`TABLE2_SIGMA_SEED1`].
    pub fn end_run(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        match &self.first_tally {
            None => self.first_tally = Some(tally),
            Some(first) if *first != tally => self.wrong.push(format!(
                "verdict tally {tally:?} differs from the first run's {first:?}"
            )),
            Some(_) => {}
        }
        if let Some(sigma) = self.sigma.as_mut().map(std::mem::take) {
            for (s, (useful, targets), name) in [
                (&sigma[0], TABLE1_SIGMA_SEED1, "table1"),
                (&sigma[1], TABLE2_SIGMA_SEED1, "table2"),
            ] {
                if s.useful != useful || s.targets != targets {
                    self.wrong.push(format!(
                        "{name} Σ at seed 1 is {:?} of {}, expected {useful:?} of {targets}",
                        s.useful, s.targets
                    ));
                }
            }
        }
    }
}

fn engine_index(by: Engine) -> usize {
    match by {
        Engine::RandomSim => 0,
        Engine::Com => 1,
        Engine::DiameterBmc => 2,
        Engine::Symbolic => 3,
        Engine::Induction => 4,
    }
}

/// A witness is valid when it spans exactly `depth + 1` steps and replays
/// to a target hit at its last one.
fn witness_ok(n: &Netlist, index: usize, depth: u64, w: &Witness) -> bool {
    w.inputs.len() as u64 == depth + 1 && w.replays_to(n, n.targets()[index].lit)
}

/// Checks `solve_all` verdicts: every `Failed` witness replays; with
/// constructed answers, every decided verdict matches its answer, a
/// diameter-complete hit lies at exactly the earliest depth and any other
/// engine's hit at or beyond it. An `Open` verdict contradicts no answer: it
/// is undecided, and shows as a drop in `decided_frac`.
pub fn verdict_errors(n: &Netlist, expect: &Expect, statuses: &[TargetStatus]) -> Vec<String> {
    let mut wrong = Vec::new();
    if statuses.len() != n.targets().len() {
        wrong.push(format!(
            "{} verdicts for {} targets",
            statuses.len(),
            n.targets().len()
        ));
        return wrong;
    }
    for (i, s) in statuses.iter().enumerate() {
        let name = &n.targets()[i].name;
        if let TargetStatus::Failed { depth, witness, .. } = s {
            if !witness_ok(n, i, *depth, witness) {
                wrong.push(format!(
                    "target {name}: witness does not replay to depth {depth}"
                ));
            }
        }
        let Expect::Answers(answers) = expect else {
            continue;
        };
        let ok = match (answers[i], s) {
            (_, TargetStatus::Open { .. }) => true,
            (Answer::Unreachable, TargetStatus::Proved { .. }) => true,
            (Answer::FirstHit(k), TargetStatus::Failed { depth, by, .. }) => {
                *depth == k || (*by != Engine::DiameterBmc && *depth > k)
            }
            _ => false,
        };
        if !ok {
            wrong.push(format!(
                "target {name}: verdict {} contradicts the constructed answer {:?}",
                summary(s),
                answers[i]
            ));
        }
    }
    wrong
}

/// `scale_1m`: `parity` (target 0) stays open, its bound over the depth
/// cap (`exponential`: no finite bound at all), and `head` (target 1) fails
/// at depth 4 with a replaying witness.
fn large_errors(n: &Netlist, proofs: &[ProveOutcome], exponential: bool) -> Vec<String> {
    let mut wrong = Vec::new();
    let open = match proofs.first() {
        Some(ProveOutcome::BoundTooLarge { bound: None }) => true,
        Some(ProveOutcome::BoundTooLarge { bound: Some(b) }) => !exponential && *b > DEPTH_CAP,
        _ => false,
    };
    if !open {
        wrong.push(format!(
            "parity: expected a bound over the depth cap, got {:?}",
            proofs.first().map(prove_summary)
        ));
    }
    match proofs.get(1) {
        Some(ProveOutcome::Counterexample { depth: 4, witness })
            if witness_ok(n, 1, 4, witness) => {}
        other => wrong.push(format!(
            "head: expected a replaying hit at depth 4, got {:?}",
            other.map(prove_summary)
        )),
    }
    wrong
}

fn summary(s: &TargetStatus) -> String {
    match s {
        TargetStatus::Proved { by } => format!("proved by {by}"),
        TargetStatus::Failed { depth, by, .. } => format!("failed at {depth} by {by}"),
        TargetStatus::Open { bound } => format!("open (bound {bound:?})"),
    }
}

fn prove_summary(p: &ProveOutcome) -> String {
    match p {
        ProveOutcome::Counterexample { depth, .. } => format!("counterexample at {depth}"),
        other => format!("{other:?}"),
    }
}

/// The rows `table1`/`table2` print for `designs` (their generated
/// netlists, never round-tripped through AIGER).
pub fn reference_rows(designs: &[Design]) -> Vec<String> {
    let mut suites = std::collections::BTreeMap::new();
    designs
        .iter()
        .map(|d| {
            let Expect::Row {
                profile,
                table,
                seed,
            } = &d.expect
            else {
                unreachable!("paper_tables designs carry a profile");
            };
            let suite = suites
                .entry((*table as usize, *seed))
                .or_insert_with(|| match table {
                    Table::Iscas => diam_gen::iscas::suite(*seed),
                    Table::Gp => diam_gen::gp::suite(*seed),
                });
            let (_, n) = suite
                .iter()
                .find(|(p, _)| p.name == profile.name)
                .expect("the suite holds every profile");
            format_row(&run_design_opts(
                profile,
                n,
                Parallelism::Sequential,
                &EccOptions::default(),
            ))
        })
        .collect()
}

/// `dhat_tightness`: the geometric mean over `prove_archetypes` targets of
/// d̂ / (initial eccentricity of the target's cone + 1), where d̂ is
/// `solve_all`'s back-translated bound and the eccentricity comes from
/// exhaustive exploration of [`slice_target`]. Fails when a cone exceeds
/// [`ExploreLimits::default`] or has an exponential bound; the generator
/// keeps every cone within reach. The other workloads' cones are mostly out
/// of the oracle's reach, and they report the empty mean, 1.
pub fn dhat_tightness(w: Workload, designs: &[Design]) -> Result<f64, String> {
    if w != Workload::ProveArchetypes {
        return Ok(1.0);
    }
    let strategy = StrategyOptions::default();
    let mut logs = Vec::new();
    for d in designs {
        let n = crate::workloads::load(&d.aig);
        let bounds = strategy
            .pipeline
            .run(&n)
            .bound_targets(&strategy.structural);
        for (i, t) in n.targets().iter().enumerate() {
            let exact = explore(&slice_target(&n, i).netlist, &ExploreLimits::default())
                .map_err(|e| format!("{} target {}: {e}", d.name, t.name))?;
            let Bound::Finite(b) = bounds[i].original else {
                return Err(format!("{} target {}: exponential bound", d.name, t.name));
            };
            logs.push((b as f64 / (exact.eccentricity + 1) as f64).ln());
        }
    }
    Ok((logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp())
}
