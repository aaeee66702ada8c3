//! # ccmm-conformance — differential testing of the model checkers
//!
//! Every claim in the paper is a set-membership equality: `LC = NN*`
//! (equal through 4 nodes, LC ⊊ NN* from 5 here, ROADMAP item 1) and the
//! Figure-1 lattice. So the repo's value hinges on the fast
//! [`ccmm_core::model`] checkers agreeing with their definitions. This
//! crate treats consistency checking as a testable decision procedure:
//! each production checker is differentially tested against its
//! transliterated-from-the-paper [`ccmm_core::oracle::Oracle`] twin over
//! three sources of `(C, Φ)` pairs:
//!
//! 1. **exhaustive** — every pair of a bounded universe, fanned out over
//!    the parallel sweep engine ([`ccmm_core::sweep`]);
//! 2. **random** — proptest-style random dags × random ops × random valid
//!    observer functions ([`sources`]);
//! 3. **harvested** — observer functions read off real BACKER executions
//!    of Cilk workloads ([`ccmm_backer::harvest`]), plus lock-augmented
//!    membership through every critical-section serialization.
//!
//! On any disagreement the [`shrink`](mod@shrink) module minimises the witness (drop
//! nodes, merge locations, drop edges, weaken Φ rows) and [`report`]
//! emits it as a `.litmus`-style text file plus Graphviz DOT. The
//! [`harness::self_test`] seeds a deliberate mutation (LC answered as NN
//! on larger computations — exactly the Theorem-22 distinction) and
//! checks the pipeline catches and shrinks it.
//!
//! The [`corpus`] module replays a curated directory of minimal witness
//! computations and golden litmus outcome tables.

#![warn(missing_docs)]

pub mod corpus;
pub mod fixpoint;
pub mod harness;
pub mod lanes;
pub mod report;
pub mod serve;
pub mod shrink;
pub mod sources;

pub use fixpoint::{run_fixpoint, FixpointReport};
pub use harness::{
    mutated_fast, run, run_with, self_test, Disagreement, HarnessConfig, Report,
    ShrunkDisagreement, Source,
};
pub use lanes::{run_lanes, LaneMismatch, LaneReport};
pub use serve::{run_serve, ServeHarnessConfig, ServeReport};
pub use shrink::{shrink, Shrunk};
