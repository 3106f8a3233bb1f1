//! # diam-core
//!
//! The core of the `diam` project — a from-scratch Rust reproduction of
//! *Baumgartner & Kuehlmann, "Enhanced Diameter Bounding via Structural
//! Transformation", DATE 2004*.
//!
//! Bounded model checking is complete once its depth reaches the design's
//! *diameter* (Definition 3 of the paper — a generalized, vertex-set-based
//! diameter). Exact diameters are intractable, and overapproximations can be
//! exponentially loose. The paper's contribution, implemented here, is a set
//! of theorems that let a diameter bound computed on a **structurally
//! transformed** netlist back-translate, in constant time, into a bound for
//! the original netlist:
//!
//! * [`structural`] — the fast structural diameter overapproximation of
//!   \[7\]: component partition (CC / AC / MC+QC / GC, see [`classify`]) and
//!   the compositional bound;
//! * [`recurrence`] — the recurrence-diameter baseline of \[2\];
//! * [`exact`] — reference exhaustive exploration for small netlists (the
//!   test oracle);
//! * [`symbolic`] — BDD-based forward reachability: exact initial-state
//!   eccentricities and unreachability proofs for medium netlists;
//! * [`pipeline`] — transformation pipelines with per-target back-translation
//!   (Theorems 1–4);
//! * [`bound`] — saturating bound arithmetic.
//!
//! ## Example
//!
//! ```
//! use diam_core::{Bound, Pipeline, StructuralOptions};
//! use diam_netlist::{Init, Netlist};
//!
//! // A 6-deep pipeline: the plain structural bound is 7, and retiming
//! // (COM,RET,COM) turns the cone combinational — bound 1 on the
//! // transformed netlist, back-translated to 1 + 6 by Theorem 2.
//! let mut n = Netlist::new();
//! let i = n.input("i");
//! let mut prev = i.lit();
//! for k in 0..6 {
//!     let r = n.reg(format!("s{k}"), Init::Zero);
//!     n.set_next(r, prev);
//!     prev = r.lit();
//! }
//! n.add_target(prev, "deep");
//!
//! let bounds = Pipeline::com_ret_com().bound_targets(&n, &StructuralOptions::default());
//! assert_eq!(bounds[0].transformed, Bound::Finite(1));
//! assert_eq!(bounds[0].original, Bound::Finite(7));
//! ```

pub mod bound;
pub mod classify;
pub mod eccentricity;
pub mod exact;
pub mod pipeline;
pub mod recurrence;
pub mod state_graph;
pub mod structural;
pub mod symbolic;

pub use bound::Bound;
pub use classify::{ClassCounts, Classification, Classifier, ClassifyOptions, RegClass};
pub use diam_par::Parallelism;
pub use diam_transform::pass::{BoundStep, Certificate, CertificateChain};
pub use eccentricity::{EccCert, EccOptions};
pub use pipeline::{Element, Engine, Pipeline, PipelineResult, PipelinedBound};
pub use structural::{diameter_bound, StructuralOptions, TargetBound};
