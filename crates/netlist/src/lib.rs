//! # diam-netlist
//!
//! The netlist substrate of the `diam` project — a from-scratch Rust
//! reproduction of *Baumgartner & Kuehlmann, "Enhanced Diameter Bounding via
//! Structural Transformation", DATE 2004*.
//!
//! A [`Netlist`] (Definition 1 of the paper) is an and-inverter graph with
//! registers and safety *targets*; its semantics (Definition 2) are traces —
//! 0/1 valuations of every gate over time — realized executably by the
//! bit-parallel simulator in [`sim`].
//!
//! The crate also provides the structural analyses every downstream engine
//! shares ([`analysis`]: cone of influence, combinational supports, register
//! dependency graph and its SCC condensation), reconstruction under merge
//! maps ([`rebuild`]), AIGER 1.9 interchange ([`aiger`]), and DOT export
//! ([`dot`]).
//!
//! All of these run over one substrate: a compact CSR adjacency ([`csr`])
//! cached per netlist and a unified visit engine ([`visit`]) with a
//! canonical visit order — see those modules for the layout, the cache
//! invalidation contract, and the order.
//!
//! ## Example
//!
//! ```
//! use diam_netlist::{analysis, sim, Init, Netlist};
//!
//! // A 2-stage pipeline feeding a comparison target.
//! let mut n = Netlist::new();
//! let i = n.input("data");
//! let s0 = n.reg("stage0", Init::Zero);
//! let s1 = n.reg("stage1", Init::Zero);
//! n.set_next(s0, i.lit());
//! n.set_next(s1, s0.lit());
//! let differ = n.xor(s0.lit(), s1.lit());
//! n.add_target(differ, "stages_differ");
//!
//! // The register dependency graph of a pipeline is an acyclic chain.
//! let coi = analysis::coi(&n, [differ]);
//! let graph = analysis::reg_graph(&n, &coi.regs);
//! let cond = analysis::condense(&graph);
//! assert!(cond.cyclic.iter().all(|&c| !c));
//!
//! // And the target is indeed reachable: drive 1 then watch the stages split.
//! let witness = sim::Witness {
//!     inputs: vec![vec![true], vec![false]],
//!     nondet_init: vec![false, false],
//! };
//! assert!(witness.replays_to(&n, differ));
//! ```

pub mod aiger;
pub mod analysis;
pub mod csr;
pub mod dot;
mod lit;
mod netlist;
pub mod rebuild;
pub mod sim;
pub mod stats;
pub mod visit;
pub mod word;

pub use csr::{Csr, Marks};
pub use lit::{Gate, Lit};
pub use netlist::{GateKind, Init, Netlist, Target, ValidateNetlistError};
