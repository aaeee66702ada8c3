//! # ccmm-core — computation-centric memory models
//!
//! An executable rendition of the theory in Frigo & Luchangco,
//! *Computation-Centric Memory Models* (SPAA 1998):
//!
//! * [`Computation`]: a dag of instruction instances (Definition 1);
//! * [`ObserverFunction`]: which write each node observes (Definition 2);
//! * [`model`]: the memory-model trait plus exact membership checkers for
//!   SC, LC, and the Q-dag-consistency family NN/NW/WN/WW (Definitions
//!   17, 18, 20), with brute-force twins for cross-validation;
//! * [`oracle`]: definitional oracle deciders — the models transliterated
//!   from the paper with no algorithmic shortcuts, for differential
//!   conformance testing of the fast checkers;
//! * [`enumerate`]: exhaustive enumeration of valid observer functions;
//! * [`universe`]: bounded universes of computations (all naturally
//!   labelled posets × op labellings up to a node budget);
//! * [`relation`]: decide stronger/weaker/equal/incomparable between
//!   models over a universe (Figure 1's lattice, machine-checked);
//! * [`props`]: completeness, monotonicity, and constructibility checkers
//!   (Definitions 5, 6; Theorems 10, 12);
//! * [`sweep`]: the parallel universe-sweep engine sharding the
//!   (poset × labelling) space across threads, with deterministic
//!   (serial-identical) counts and witnesses;
//! * [`sweep::supervisor`], [`fault`], [`ckpt`]: fault-tolerant sweep
//!   supervision — panic quarantine, deadline budgets, and crash-safe
//!   checkpoint/resume, exercised by a deterministic fault-injection
//!   plan;
//! * [`constructible`]: the bounded Δ* fixpoint (Definition 8, Theorem 9)
//!   used to machine-check Theorem 23 (`LC = NN*`): equal through 4
//!   nodes, LC ⊊ NN* from 5 here (ROADMAP item 1);
//! * [`telemetry`]: zero-cost-when-disabled counters, spans, and
//!   progress heartbeats threaded through every long-running path;
//! * [`witness`]: the paper's Figures 2–4 as concrete library values;
//! * [`exec`] and [`litmus`]: value semantics and litmus-test outcomes
//!   under each model;
//! * [`trace`]: post-mortem verification of value traces (\[GK94\]);
//! * [`procs`]: the processor-centric bridge (threads → chains).
//!
//! # Example
//!
//! Build a computation, pick an observer function, and ask the models:
//!
//! ```
//! use ccmm_core::{Computation, Location, Model, ObserverFunction, Op};
//! use ccmm_dag::NodeId;
//!
//! // W(l) -> R(l), with a second W(l) racing alongside.
//! let l = Location::new(0);
//! let c = Computation::from_edges(
//!     3,
//!     &[(0, 1)],
//!     vec![Op::Write(l), Op::Read(l), Op::Write(l)],
//! );
//!
//! // The read observes the racing write — allowed even by SC (the race
//! // serializes in between).
//! let phi = ObserverFunction::base(&c).with(l, NodeId::new(1), Some(NodeId::new(2)));
//! assert!(Model::Sc.contains(&c, &phi));
//!
//! // The read observing ⊥ would mean the preceding write never happened:
//! // every dag-consistent model forbids it.
//! let stale = ObserverFunction::base(&c);
//! assert!(!Model::Ww.contains(&c, &stale));
//! assert!(Model::Any.contains(&c, &stale), "but it is a *valid* observer");
//! ```

#![warn(missing_docs)]

pub mod ckpt;
pub mod computation;
pub mod constructible;
pub mod enumerate;
pub mod error;
pub mod exec;
pub mod fault;
pub mod last_writer;
pub mod litmus;
pub mod locks;
pub mod model;
pub mod observer;
pub mod online;
pub mod op;
pub mod oracle;
pub mod parse;
pub mod procs;
pub mod props;
pub mod relation;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod universe;
pub mod witness;

pub use computation::Computation;
pub use error::CoreError;
pub use model::{AnyObserver, LanePack, LaneScratch, Lc, MemoryModel, Model, Nn, Nw, Sc, Wn, Ww};
pub use observer::ObserverFunction;
pub use op::{Location, Op};
pub use oracle::Oracle;
pub use stream::{AccessVerdict, StreamChecker, StreamVerdicts};
