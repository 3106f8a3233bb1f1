//! Workload generators and the entry point each workload drives.
//!
//! Every generator is a pure function of the seed and hands the program
//! nothing but binary AIGER bytes; the expectations it constructs alongside
//! (profiles, per-target answers) stay on the benchmark's side.

use diam_bench::{run_design_opts, DesignResult};
use diam_bmc::strategy::{solve_all, StrategyOptions, TargetStatus};
use diam_bmc::{prove_all, ProveOptions, ProveOutcome};
use diam_core::classify::{classify, ClassCounts, ClassifyOptions};
use diam_core::{EccOptions, Pipeline, StructuralOptions};
use diam_gen::archetypes;
use diam_gen::large::{large, LargeOptions};
use diam_gen::profile::DesignProfile;
use diam_gen::{gp, iscas};
use diam_netlist::sim::SplitMix64;
use diam_netlist::{aiger, Netlist};
use diam_par::Parallelism;

/// The four workloads; see the crate documentation for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTables,
    SolvePaper,
    ProveArchetypes,
    Scale1m,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::SolvePaper,
        Workload::ProveArchetypes,
        Workload::Scale1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::SolvePaper => "solve_paper",
            Workload::ProveArchetypes => "prove_archetypes",
            Workload::Scale1m => "scale_1m",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which paper table a `paper_tables` row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Iscas,
    Gp,
}

/// The constructed answer for one `prove_archetypes` target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Unreachable,
    /// Reachable, earliest at this depth.
    FirstHit(u64),
}

/// What the benchmark knows about a design's correct output.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A paper-table row; the profile also drives `run_design_opts`.
    Row {
        profile: DesignProfile,
        table: Table,
        seed: u64,
    },
    /// Nothing beyond "every `Failed` witness replays".
    Replay,
    /// One constructed answer per target.
    Answers(Vec<Answer>),
    /// `parity` stays open, its bound over the depth cap (exponential at
    /// full size); `head` hits at depth 4.
    Large { exponential: bool },
}

/// One generated design: its name, its binary AIGER bytes (the only thing
/// the program sees), and the benchmark-side expectation.
#[derive(Debug, Clone)]
pub struct Design {
    pub name: String,
    pub aig: Vec<u8>,
    pub expect: Expect,
}

/// The output of one design's entry-point call.
#[derive(Debug, Clone)]
pub enum Outcome {
    Row(Box<DesignResult>),
    Verdicts(Vec<TargetStatus>),
    Large {
        classes: ClassCounts,
        proofs: Vec<ProveOutcome>,
    },
}

/// `prove_archetypes` design count.
const ARCHETYPE_DESIGNS: usize = 40;
/// `scale_1m` design count and size.
const LARGE_DESIGNS: usize = 4;
const LARGE_GATES: usize = 1_000_000;
/// `--quick` keeps two designs: the first two of the paper suites, the two
/// smallest archetype compositions, and two large designs of 20k gates,
/// whose parity bound is finite but still far over the depth cap.
const QUICK_DESIGNS: usize = 2;
const QUICK_LARGE_GATES: usize = 20_000;
/// Depth cap shared by `solve_all`'s default and `scale_1m`'s `prove_all`.
pub const DEPTH_CAP: u64 = 256;

/// Generates the workload's designs for `seed`.
pub fn generate(w: Workload, seed: u64, quick: bool) -> Vec<Design> {
    let count = |full| if quick { QUICK_DESIGNS } else { full };
    let mut designs = match w {
        Workload::PaperTables => [seed, seed.wrapping_add(1)]
            .into_iter()
            .flat_map(paper_suites)
            .collect(),
        Workload::SolvePaper => paper_suites(seed)
            .into_iter()
            .map(|d| Design {
                expect: Expect::Replay,
                ..d
            })
            .collect(),
        Workload::ProveArchetypes => archetype_designs(seed, count(ARCHETYPE_DESIGNS)),
        Workload::Scale1m => {
            let gates = if quick {
                QUICK_LARGE_GATES
            } else {
                LARGE_GATES
            };
            (0..count(LARGE_DESIGNS))
                .map(|i| {
                    let n = large(&LargeOptions {
                        min_gates: gates,
                        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                    });
                    Design {
                        name: format!("large{i}"),
                        aig: to_aiger(&n),
                        expect: Expect::Large {
                            exponential: !quick,
                        },
                    }
                })
                .collect()
        }
    };
    designs.truncate(count(usize::MAX));
    designs
}

/// The ISCAS89 and GP suites for one seed, in table order.
fn paper_suites(seed: u64) -> Vec<Design> {
    let tables = [
        (Table::Iscas, iscas::suite(seed)),
        (Table::Gp, gp::suite(seed)),
    ];
    tables
        .into_iter()
        .flat_map(|(table, suite)| {
            suite.into_iter().map(move |(profile, n)| Design {
                name: format!("{}@{seed}", profile.name),
                aig: to_aiger(&n),
                expect: Expect::Row {
                    profile,
                    table,
                    seed,
                },
            })
        })
        .collect()
}

/// `count` `prove_archetypes` designs. Every design composes a token ring,
/// a round-robin arbiter, a Johnson counter and a binary counter behind an
/// enable pipeline. Each size parameter cycles through its values across the
/// designs and the seed only shuffles how they combine (and which ring
/// positions the targets watch), so the multiset of design costs — and with
/// it the workload's wall time — barely moves between seeds while the
/// inputs do.
fn archetype_designs(seed: u64, count: usize) -> Vec<Design> {
    let mut rng = SplitMix64::new(seed ^ 0xA5C3_1ED6_E7B0_0F11);
    let mut spread = |values: &[usize]| {
        let mut v: Vec<usize> = (0..count).map(|i| values[i % values.len()]).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    };
    let range = |lo: usize, hi: usize| (lo..=hi).collect::<Vec<_>>();
    let rings = spread(&range(6, 13));
    let clients = spread(&range(4, 8));
    let johnsons = spread(&range(4, 11));
    // The counter width sets a design's cost group: about 10 ms, 50 ms and
    // 230 ms for 5, 6 and 7 bits, and 1.3 s for 8 bits, whose bound exceeds
    // the depth cap (4 designs, the symbolic fallback). Half the designs
    // take 7 bits, so the median design falls well inside one group instead
    // of on a boundary between two, and the ten slowest are always the four
    // 8-bit designs and six 7-bit ones.
    let bits = spread(&[5, 5, 6, 6, 7, 7, 7, 7, 7, 8]);
    let stages = spread(&range(1, 6));
    (0..count)
        .map(|i| {
            let ring = rings[i];
            let hit = 1 + rng.below(ring as u64 - 1) as usize;
            let a = rng.below(ring as u64) as usize;
            let b = (a + 1 + rng.below(ring as u64 - 1) as usize) % ring;
            let (n, answers) = archetype(
                ring,
                hit,
                (a, b),
                clients[i],
                johnsons[i],
                bits[i],
                stages[i],
            );
            Design {
                name: format!("arch{i}"),
                aig: to_aiger(&n),
                expect: Expect::Answers(answers),
            }
        })
        .collect()
}

/// One archetype composition with its six targets and their answers: two
/// ring tokens, two arbiter grants and the Johnson pattern `j0 ∧ ¬j1 ∧ j2`
/// are unreachable; ring position `hit` first holds the token at depth
/// `hit`, the Johnson counter is all ones first at depth `johnson`, and the
/// counter wraps first at depth `2^bits − 1 + stages` (the enable reaches it
/// through `stages` registers).
fn archetype(
    ring: usize,
    hit: usize,
    pair: (usize, usize),
    clients: usize,
    johnson: usize,
    bits: usize,
    stages: usize,
) -> (Netlist, Vec<Answer>) {
    let mut n = Netlist::new();
    let step = n.input("ring_step").lit();
    let tokens = archetypes::token_ring(&mut n, "ring", ring, step);
    let (_, grants) = archetypes::round_robin_arbiter(&mut n, "arb", clients);
    let jstep = n.input("j_step").lit();
    let j = archetypes::johnson_counter(&mut n, "j", johnson, jstep);
    let enable = archetypes::pipeline(&mut n, "en", stages);
    let c = archetypes::counter(&mut n, "cnt", bits, enable.tail);

    let two = n.and(tokens[pair.0].lit(), tokens[pair.1].lit());
    n.add_target(two, "ring_two_tokens");
    let both = n.and(grants[0], grants[clients - 1]);
    n.add_target(both, "arb_double_grant");
    let bad = n.and_many([j[0].lit(), !j[1].lit(), j[2].lit()]);
    n.add_target(bad, "j_bad_pattern");
    n.add_target(tokens[hit].lit(), "ring_hit");
    let ones = n.and_many(j.iter().map(|r| r.lit()));
    n.add_target(ones, "j_all_ones");
    n.add_target(c.all_ones, "cnt_wrap");
    let answers = vec![
        Answer::Unreachable,
        Answer::Unreachable,
        Answer::Unreachable,
        Answer::FirstHit(hit as u64),
        Answer::FirstHit(johnson as u64),
        Answer::FirstHit((1u64 << bits) - 1 + stages as u64),
    ];
    (n, answers)
}

fn to_aiger(n: &Netlist) -> Vec<u8> {
    let mut buf = Vec::new();
    aiger::write_binary(n, &mut buf).expect("generated designs are AIGER-expressible");
    buf
}

/// Set-up as every `diam` invocation pays it: parse, validate, and warm the
/// cached CSR substrate every traversal runs on.
pub fn load(aig: &[u8]) -> Netlist {
    let n = aiger::read(std::io::Cursor::new(aig)).expect("generated AIGER parses");
    n.validate().expect("generated AIGER validates");
    n.csr();
    n
}

/// Runs one design through the workload's public entry point, tracing off,
/// sequentially.
pub fn run(w: Workload, expect: &Expect, n: &Netlist) -> Outcome {
    match (w, expect) {
        (Workload::PaperTables, Expect::Row { profile, .. }) => Outcome::Row(Box::new(
            run_design_opts(profile, n, Parallelism::Sequential, &EccOptions::default()),
        )),
        (Workload::SolvePaper | Workload::ProveArchetypes, _) => {
            Outcome::Verdicts(solve_all(n, &StrategyOptions::default()))
        }
        (Workload::Scale1m, _) => {
            // `diam stats` (whole-netlist classification), then the
            // complete check of every target.
            let classes = {
                let _sp = diam_obs::span!("ledger.classify");
                classify(n, n.regs(), &ClassifyOptions::default()).counts()
            };
            let opts = ProveOptions {
                structural: StructuralOptions {
                    ecc: EccOptions::on(),
                    ..StructuralOptions::default()
                },
                depth_cap: DEPTH_CAP,
                ..ProveOptions::default()
            };
            let proofs = prove_all(n, &Pipeline::new(), &opts);
            Outcome::Large { classes, proofs }
        }
        (Workload::PaperTables, _) => unreachable!("paper_tables designs carry a profile"),
    }
}
