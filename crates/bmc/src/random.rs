//! Cheap *informal* search: bit-parallel random simulation looking for
//! target hits. The paper's target-enlargement section cites exactly this
//! combination of formal and informal methods (\[22, 23\]): random simulation
//! finds the shallow, high-probability hits for free, leaving BMC and
//! diameter reasoning for the hard residue.
//!
//! One engine serves every caller: [`random_search`] asks it about one
//! target, [`solve_all`](crate::strategy::solve_all) about all of them at
//! once, so a design is simulated once per batch however many targets it
//! has.

use diam_netlist::sim::{simulate, SplitMix64, Stimulus, Witness};
use diam_netlist::{Lit, Netlist};

/// Options for [`random_search`].
#[derive(Debug, Clone)]
pub struct RandomSearchOptions {
    /// Steps per random trace.
    pub steps: usize,
    /// Number of 64-trace batches to try.
    pub batches: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RandomSearchOptions {
    fn default() -> RandomSearchOptions {
        RandomSearchOptions {
            steps: 64,
            batches: 16,
            seed: 0xD1A,
        }
    }
}

/// Random simulation for target `index` of `n`.
///
/// Returns the earliest hit found with a witness that replays it, or `None`
/// if all batches stay clean.
///
/// **Determinism.** The result is a pure function of the netlist, the
/// target literal and `opts`. Batch `b` drives the `b`-th stimulus drawn
/// from one [`SplitMix64`] stream seeded with `opts.seed` (`steps` input
/// rows, then the nondeterministic initial values). The earliest hit step
/// wins; a later batch replaces a hit only when it is strictly earlier; the
/// witness takes the lowest set lane of the hit word. Searching targets
/// together or alone gives each the same result, so this equals the
/// corresponding entry of `solve_all`'s shared search.
pub fn random_search(
    n: &Netlist,
    index: usize,
    opts: &RandomSearchOptions,
) -> Option<(u64, Witness)> {
    search(n, &[n.targets()[index].lit], opts).pop().flatten()
}

/// Random simulation for several targets at once: one simulation per batch,
/// checked against every target that can still improve. Entry `k` is what
/// [`random_search`] returns for `targets[k]`.
///
/// A target can only improve below its current best step, so each batch
/// simulates only up to the furthest such step over all targets (`steps`
/// while any target has no hit), and the search stops once every target
/// hits at step 0.
pub(crate) fn search(
    n: &Netlist,
    targets: &[Lit],
    opts: &RandomSearchOptions,
) -> Vec<Option<(u64, Witness)>> {
    let mut rng = SplitMix64::new(opts.seed);
    let mut best: Vec<Option<(u64, Witness)>> = vec![None; targets.len()];
    let limit = |b: &Option<(u64, Witness)>| b.as_ref().map_or(opts.steps, |(t, _)| *t as usize);
    for _ in 0..opts.batches {
        let horizon = best.iter().map(limit).max().unwrap_or(0);
        if horizon == 0 {
            break;
        }
        // Draw the full stimulus so every batch sees the same random stream.
        let mut stim = Stimulus::random(n, opts.steps, &mut rng);
        stim.inputs.truncate(horizon);
        let trace = simulate(n, &stim);
        for (&target, best) in targets.iter().zip(&mut best) {
            let hit = (0..limit(best)).find_map(|t| {
                let w = trace.word(target, t);
                (w != 0).then_some((t, w.trailing_zeros()))
            });
            if let Some((t, lane)) = hit {
                *best = Some((t as u64, lane_witness(&stim, t, lane)));
            }
        }
    }
    best
}

/// The single-trace witness of `lane` in `stim`, steps `0..=t`.
fn lane_witness(stim: &Stimulus, t: usize, lane: u32) -> Witness {
    let bit = |w: u64| (w >> lane) & 1 == 1;
    Witness {
        inputs: stim.inputs[..=t]
            .iter()
            .map(|row| row.iter().map(|&w| bit(w)).collect())
            .collect(),
        nondet_init: stim.nondet_init.iter().map(|&w| bit(w)).collect(),
    }
}

/// The per-target search as it ran before targets shared a simulation:
/// every call re-simulates every batch to the full `steps`. Kept as the
/// oracle [`search`] must reproduce exactly.
#[cfg(test)]
pub(crate) fn per_target_oracle(
    n: &Netlist,
    index: usize,
    opts: &RandomSearchOptions,
) -> Option<(u64, Witness)> {
    let target = n.targets()[index].lit;
    let mut rng = SplitMix64::new(opts.seed);
    let mut best: Option<(u64, Witness)> = None;
    for _ in 0..opts.batches {
        let stim = Stimulus::random(n, opts.steps, &mut rng);
        let trace = simulate(n, &stim);
        'time: for t in 0..opts.steps {
            if best.as_ref().is_some_and(|(bt, _)| *bt <= t as u64) {
                break 'time;
            }
            let w = trace.word(target, t);
            if w != 0 {
                let lane = w.trailing_zeros();
                let witness = Witness {
                    inputs: (0..=t)
                        .map(|tt| {
                            (0..n.num_inputs())
                                .map(|k| (stim.inputs[tt][k] >> lane) & 1 == 1)
                                .collect()
                        })
                        .collect(),
                    nondet_init: (0..n.num_regs())
                        .map(|j| (stim.nondet_init[j] >> lane) & 1 == 1)
                        .collect(),
                };
                best = Some((t as u64, witness));
                break 'time;
            }
        }
    }
    best
}

/// A random netlist with the shapes the engines must not get wrong:
/// function-initialized and nondeterministic registers, targets hit at t = 0
/// and never hit, a duplicate target, and a rare target (a run of `k` high
/// inputs) whose earliest hit often improves in a later random-search batch.
#[cfg(test)]
pub(crate) fn corner_netlist(inputs: usize, regs: usize, gates: usize, seed: u64) -> Netlist {
    use diam_gen::random::{random_netlist, RandomDesignOptions};
    use diam_netlist::Init;
    let mut n = random_netlist(
        &RandomDesignOptions {
            inputs,
            regs,
            gates,
            targets: 3,
            allow_nondet: true,
        },
        seed,
    );
    if inputs > 0 {
        let reset = n.and(n.inputs()[0].lit(), !n.inputs()[inputs - 1].lit());
        let regs: Vec<_> = n.regs().to_vec();
        for (k, &r) in regs.iter().enumerate() {
            if (seed >> k) & 1 == 1 {
                n.set_init(r, Init::Fn(if k % 2 == 0 { reset } else { !reset }));
            }
        }
        let mut run = n.inputs()[0].lit();
        for k in 0..5 + seed % 4 {
            let r = n.reg(format!("run{k}"), Init::Zero);
            n.set_next(r, run);
            run = n.and(r.lit(), n.inputs()[0].lit());
        }
        n.add_target(run, "rare");
    }
    n.add_target(Lit::TRUE, "always");
    n.add_target(Lit::FALSE, "never");
    let dup = n.targets()[(seed % 3) as usize].lit;
    n.add_target(dup, "duplicate");
    n.validate().expect("corner netlists validate");
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::Init;
    use proptest::prelude::*;

    /// Asserts the shared search, and [`random_search`] per target, equal
    /// the oracle on every target of `n`.
    fn assert_matches_oracle(n: &Netlist, opts: &RandomSearchOptions, ctx: &str) {
        let lits: Vec<Lit> = n.targets().iter().map(|t| t.lit).collect();
        let shared = search(n, &lits, opts);
        for (i, got) in shared.iter().enumerate() {
            let want = per_target_oracle(n, i, opts);
            assert_eq!(got, &want, "{ctx}: target {i} ({})", n.targets()[i].name);
            assert_eq!(random_search(n, i, opts), want, "{ctx}: target {i} alone");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn shared_search_matches_the_per_target_oracle(
            inputs in 0usize..4,
            regs in 1usize..6,
            gates in 2usize..24,
            seed in any::<u64>(),
            steps in 0usize..12,
            batches in 0usize..5,
        ) {
            let n = corner_netlist(inputs, regs, gates, seed);
            let opts = RandomSearchOptions { steps, batches, seed: seed.rotate_left(17) };
            assert_matches_oracle(&n, &opts, "short");
            assert_matches_oracle(&n, &RandomSearchOptions::default(), "default");
        }
    }

    /// Every target of the ISCAS89 and GP suites at seeds 1–3 (5697
    /// targets). The oracle re-simulates each design once per target, so
    /// this runs in optimized builds only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn shared_search_matches_the_oracle_on_the_paper_suites() {
        let opts = RandomSearchOptions::default();
        for seed in 1..=3 {
            let suites = diam_gen::iscas::suite(seed)
                .into_iter()
                .chain(diam_gen::gp::suite(seed));
            for (profile, n) in suites {
                assert_matches_oracle(&n, &opts, &format!("{}@{seed}", profile.name));
            }
        }
    }

    #[test]
    fn random_search_finds_shallow_hits() {
        // An easy target: input goes high twice in a row.
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Zero);
        n.set_next(r, i.lit());
        let t = n.and(r.lit(), i.lit());
        n.add_target(t, "two_highs");
        let (depth, witness) =
            random_search(&n, 0, &RandomSearchOptions::default()).expect("easy hit");
        assert!(witness.replays_to(&n, t));
        assert!(depth <= 8, "random search should find this quickly");
    }

    #[test]
    fn random_search_misses_unreachable_targets() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, i.lit());
        n.set_next(b, i.lit());
        let t = n.xor(a.lit(), b.lit());
        n.add_target(t, "differ");
        assert!(random_search(&n, 0, &RandomSearchOptions::default()).is_none());
    }
}
