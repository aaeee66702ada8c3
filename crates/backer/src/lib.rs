//! # ccmm-backer — the BACKER coherence algorithm
//!
//! BACKER (\[BFJ+96a\], \[BFJ+96b\]) is the coherence algorithm behind Cilk's
//! dag-consistent shared memory, and the system that motivated the SPAA'98
//! paper's theory: Luchangco \[Luc97\] proved that BACKER in fact maintains
//! **location consistency** (by Theorem 23 the constructible version of
//! NN-dag consistency: equal through 4 nodes, LC ⊊ NN* from 5 here,
//! ROADMAP item 1).
//!
//! This crate makes that claim executable:
//!
//! * [`protocol`]: the one protocol step (flush before a node with a
//!   cross-processor predecessor, run its op, reconcile after) over any
//!   [`cache::CacheOps`] cache — the word-granular [`cache::Cache`]
//!   (LRU eviction, O(occupancy) flushes) or [`paged::PagedCache`];
//! * four runners that only schedule and call that step:
//!   [`sim`], a deterministic discrete-event simulator replaying any
//!   [`schedule::Schedule`] with full counters; [`threads`], a real
//!   multithreaded executor (crossbeam work-stealing deques,
//!   parking_lot-guarded main memory) running the conservative variant;
//!   [`stream`], a resumable block-cyclic runner for million-node traces;
//!   and [`timing`], a greedy event-driven model of the makespan;
//! * [`config::FaultInjection`]: switchable protocol violations (skip
//!   flush / skip reconcile), applied only inside the protocol step, whose
//!   executions detectably leave LC;
//! * [`verify`](crate::verify()): post-mortem membership profiles of executions against
//!   SC / LC / NN / WW;
//! * [`harvest`]: distinct observer functions collected across a spread
//!   of schedules and cache sizes, feeding the conformance harness.
//!
//! Executions transport unique write tokens, so every run yields a total
//! observer function checkable by `ccmm-core`'s exact model checkers.

//! # Example
//!
//! ```
//! use ccmm_backer::{sim, BackerConfig, Schedule};
//! use ccmm_core::{Computation, Lc, Location, MemoryModel, Op};
//!
//! // W(l) on one processor, R(l) on another, across a dependency edge.
//! let l = Location::new(0);
//! let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l), Op::Read(l)]);
//! let schedule = Schedule::round_robin(&c, 2);
//! let result = sim::run(&c, &schedule, &BackerConfig::with_processors(2));
//!
//! // The protocol delivered the token, and the execution is LC.
//! assert_eq!(
//!     result.observer.get(l, ccmm_dag::NodeId::new(1)),
//!     Some(ccmm_dag::NodeId::new(0)),
//! );
//! assert!(Lc.contains(&c, &result.observer));
//! ```

#![warn(missing_docs)]

pub mod atomic;
pub mod cache;
pub mod config;
pub mod harvest;
pub mod memory;
pub mod paged;
pub mod perturb;
pub mod protocol;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod threads;
pub mod timing;
pub mod verify;

pub use config::{BackerConfig, FaultInjection};
pub use perturb::PerturbPlan;
pub use schedule::Schedule;
pub use sim::{run, SimResult};
pub use stats::Stats;
pub use stream::{block_cyclic_proc, StreamRunner};
pub use verify::{verify, ModelProfile, VerifyReport};
