//! Ablation studies backing the paper's side observations (§3, §4 prose):
//!
//! 1. **Recurrence diameter vs structural bound** — the recurrence diameter
//!    can be exponentially looser (register files) or equally tight
//!    (counters), and its cost explodes where the structural bound is
//!    constant-time.
//! 2. **Theorem 2 slack** — bounds may *increase* slightly after retiming
//!    (the S1196/S15850_1 effect): the negated target lag is added even when
//!    retiming did not reduce the cone.
//! 3. **State folding factor** — folding a c-slowed design divides the
//!    bound by ~c before the ×c back-translation, and the folded netlist is
//!    cheaper to analyze.
//! 4. **Per-engine register reductions** — COM/RET reductions per suite,
//!    mirroring the paper's §4 reduction statistics.
//!
//! Usage: `cargo run -p diam-bench --release --bin ablation -- [seed] [--jobs <N|seq|auto>]
//! [--obs off|summary|json|live|live-json] [--trace-out <path.jsonl>]
//! [--live-out <path.jsonl>] [--mem on|off] [--limit <N>] [--ecc on|off|k=<N>]`

use diam_bench::parse_cli;
use diam_core::recurrence::{recurrence_diameter, RecurrenceOptions, RecurrenceResult};
use diam_core::{diameter_bound, Parallelism, Pipeline, StructuralOptions};
use diam_gen::archetypes::{counter, pipeline, register_file};
use diam_gen::iscas;
use diam_netlist::{Lit, Netlist};
use diam_transform::fold::{c_slow, detect, fold};

// Memory accounting (`--mem on`) needs the counting allocator installed
// process-wide; while `--mem off` (the default) it costs one relaxed
// atomic load per allocation.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

fn main() {
    let cli = parse_cli("ablation [seed]");
    let session = cli.session("ablation");
    ablation_recurrence();
    ablation_theorem2_slack(cli.jobs);
    ablation_folding();
    ablation_register_reduction();
    ablation_tightness();
    cli.finish(session);
}

fn ablation_recurrence() {
    println!("== Ablation 1: recurrence diameter vs structural bound ==\n");
    println!(
        "{:<26}{:>12}{:>14}{:>14}",
        "design", "structural", "recurrence", "rec. time"
    );
    let cases: Vec<(String, Netlist)> = {
        let mut v = Vec::new();
        for depth in [4usize, 6] {
            let mut n = Netlist::new();
            let p = pipeline(&mut n, "p", depth);
            n.add_target(p.tail, "t");
            v.push((format!("pipeline depth {depth}"), n));
        }
        for (rows, width) in [(2usize, 2usize), (2, 4)] {
            let mut n = Netlist::new();
            let m = register_file(&mut n, "m", rows, width);
            let cells: Vec<Lit> = m.all_cells().iter().map(|r| r.lit()).collect();
            let t = n.and_many(cells);
            n.add_target(t, "t");
            v.push((format!("register file {rows}x{width}"), n));
        }
        for bits in [3usize, 4] {
            let mut n = Netlist::new();
            let c = counter(&mut n, "c", bits, Lit::TRUE);
            n.add_target(c.all_ones, "t");
            v.push((format!("counter {bits} bits"), n));
        }
        v
    };
    for (name, n) in cases {
        let t = n.targets()[0].lit;
        let structural = diameter_bound(&n, t, &StructuralOptions::default()).bound;
        let t0 = std::time::Instant::now();
        let rec = recurrence_diameter(
            &n,
            t,
            &RecurrenceOptions {
                max_length: 24,
                conflict_budget: Some(30_000),
                ..Default::default()
            },
        );
        let rec_str = match rec {
            RecurrenceResult::Exact(v) => v.to_string(),
            RecurrenceResult::Exceeded(v) => format!(">{v}"),
        };
        println!(
            "{name:<26}{:>12}{:>14}{:>13.1?}",
            structural.to_string(),
            rec_str,
            t0.elapsed()
        );
    }
    println!();
}

fn ablation_theorem2_slack(jobs: Parallelism) {
    println!("== Ablation 2: Theorem 2 slack (bounds may grow after RET) ==\n");
    // The suite designs show the paper's S1196 / S15850_1 effect directly:
    // the average useful bound *rises* after retiming even though the same
    // targets stay useful — the negated target lag is added even where the
    // cone had nothing to gain.
    for name in ["S1196", "S15850_1", "S9234_1"] {
        let (_, n) = iscas::suite(1)
            .into_iter()
            .find(|(p, _)| p.name == name)
            .expect("design");
        let avg = |pipe: &Pipeline| -> f64 {
            let opts = StructuralOptions {
                parallelism: jobs,
                ..StructuralOptions::default()
            };
            let bounds = pipe.bound_targets(&n, &opts);
            let useful: Vec<u64> = bounds
                .iter()
                .filter_map(|b| b.original.finite().filter(|&v| v < 50))
                .collect();
            if useful.is_empty() {
                0.0
            } else {
                useful.iter().sum::<u64>() as f64 / useful.len() as f64
            }
        };
        let plain = avg(&Pipeline::new());
        let ret = avg(&Pipeline::com_ret_com());
        println!(
            "{name:<10} avg useful d̂: plain {plain:.1}  after COM,RET,COM {ret:.1}  (Δ = {:+.1})",
            ret - plain
        );
    }
    println!(
        "\nThe positive Δ is the inequality of Theorem 2: the negated target\n\
         lag is added even when retiming did not shrink that particular\n\
         cone — the paper reports the same drift (S1196: 3.3 -> 4.3). The\n\
         loss is bounded by the lag; the potential gain is exponential.\n"
    );
}

fn ablation_folding() {
    println!("== Ablation 3: state folding (Theorem 3) ==\n");
    for c_factor in [2u32, 3, 4] {
        // Base: a counter observed at its top bit.
        let mut base = Netlist::new();
        let cnt = counter(&mut base, "c", 3, Lit::TRUE);
        base.add_target(cnt.all_ones, "t");
        let slowed = c_slow(&base, c_factor);
        let t_slowed = slowed.targets()[0].lit;
        let direct = diameter_bound(&slowed, t_slowed, &StructuralOptions::default()).bound;
        let coloring = detect(&slowed, c_factor);
        let tail_pos = slowed
            .regs()
            .iter()
            .position(|&r| {
                slowed
                    .name(r)
                    .is_some_and(|s| s.ends_with(&format!("_p{}", c_factor - 1)))
            })
            .unwrap();
        let folded = fold(&slowed, &coloring, coloring.colors[tail_pos]).unwrap();
        let t_folded = folded.netlist.targets()[0].lit;
        let fb = diameter_bound(&folded.netlist, t_folded, &StructuralOptions::default()).bound;
        println!(
            "{c_factor}-slowed counter: direct d̂ = {:<12} folded d̂ = {} ⇒ back-translated {} \
             ({} regs -> {})",
            direct.to_string(),
            fb,
            fb.mul_const(u64::from(c_factor)),
            slowed.num_regs(),
            folded.netlist.num_regs()
        );
    }
    println!(
        "\nDirect bounding sees c× the registers (exponentially worse GC\n\
         factors); folding first and multiplying by c is exponentially\n\
         tighter.\n"
    );
}

fn ablation_register_reduction() {
    println!("== Ablation 4: register reductions per engine (ISCAS suite) ==\n");
    let mut before = 0usize;
    let mut after_com = 0usize;
    let mut after_ret = 0usize;
    for (_, n) in iscas::suite(1) {
        before += n.num_regs();
        let com = Pipeline::com().run(&n);
        after_com += com.netlist.num_regs();
        let ret = Pipeline::com_ret_com().run(&n);
        after_ret += ret.netlist.num_regs();
    }
    println!("registers: original Σ = {before}");
    println!(
        "           after COM        Σ = {after_com} ({:.0}% reduction)",
        100.0 * (before - after_com) as f64 / before as f64
    );
    println!(
        "           after COM,RET,COM Σ = {after_ret} ({:.0}% reduction)",
        100.0 * (before - after_ret) as f64 / before as f64
    );
    println!(
        "\n(The paper cites 27% register reduction for COM+RET on ISCAS89\n\
         and 62% on GP netlists; the shape — RET removing most acyclic\n\
         registers — is reproduced above and in the table columns.)"
    );
}

fn ablation_tightness() {
    use diam_core::exact::{state_diameter, ExploreLimits};
    println!("\n== Ablation 5: structural bound vs exact state diameter ==\n");
    println!(
        "{:<26}{:>12}{:>14}{:>12}",
        "design", "structural", "exact (pair)", "ratio"
    );
    let cases: Vec<(String, Netlist)> = {
        let mut v = Vec::new();
        for depth in [3usize, 5, 8] {
            let mut n = Netlist::new();
            let p = pipeline(&mut n, "p", depth);
            let all: Vec<Lit> = p.regs.iter().map(|r| r.lit()).collect();
            let t = n.and_many(all);
            n.add_target(t, "t");
            v.push((format!("pipeline depth {depth}"), n));
        }
        for (rows, width) in [(2usize, 2usize), (4, 2)] {
            let mut n = Netlist::new();
            let m = register_file(&mut n, "m", rows, width);
            let cells: Vec<Lit> = m.all_cells().iter().map(|r| r.lit()).collect();
            let t = n.and_many(cells);
            n.add_target(t, "t");
            v.push((format!("register file {rows}x{width}"), n));
        }
        for bits in [3usize, 4] {
            let mut n = Netlist::new();
            let c = counter(&mut n, "c", bits, Lit::TRUE);
            n.add_target(c.all_ones, "t");
            v.push((format!("counter {bits} bits"), n));
        }
        v
    };
    for (name, n) in cases {
        let t = n.targets()[0].lit;
        let structural = diameter_bound(&n, t, &StructuralOptions::default()).bound;
        let exact = state_diameter(
            &n,
            &ExploreLimits {
                max_regs: 16,
                max_inputs: 10,
            },
        );
        match (structural.finite(), exact) {
            (Some(s), Ok(e)) => {
                println!(
                    "{name:<26}{s:>12}{:>14}{:>11.2}x",
                    e.pairwise,
                    s as f64 / e.pairwise as f64
                );
                assert!(s >= e.pairwise, "structural bound below the exact diameter");
            }
            _ => println!("{name:<26}{:>12}{:>14}", structural.to_string(), "n/a"),
        }
    }
    println!(
        "\nThe structural bound is exact on the classified archetypes —\n\
         pipelines (depth+1), memories (rows+1), counters (2^k) — which is\n\
         why the paper's compositional partition pays off wherever designs\n\
         decompose into these species."
    );
}
