//! The sweep prelude: the model-independent task lists every pass walks,
//! built once per process and borrowed by every pass.
//!
//! Every verdict pass, constructibility check and Δ* fixpoint walks the
//! same universe of naturally labelled posets; only the kernels differ.
//! Two pieces of that universe are memoised here, lazily and write-once:
//!
//! * **Canonical tables.** One table per poset size of the canonical
//!   representatives ([`ccmm_dag::canon::for_each_canonical_poset`]),
//!   each with its labelled global index, orbit and automorphisms. A
//!   global index depends only on the poset's size and its place within
//!   the size, so a bound-`b` canonical sweep borrows the tables of sizes
//!   `0..=b`, and a constructibility check's bound-`(b−1)` universe
//!   borrows the same tables.
//! * **Stage-A plans.** Per universe shape, the Δ* fixpoint's Stage-A
//!   task list (every involved labelled poset, cloned only when involved,
//!   plus the canonical top-less bound-size posets) and the mask
//!   [`Layout`] built over it, behind an [`Arc`] that each
//!   [`crate::constructible::lanes::LaneConstructible`] shares.
//!
//! Nothing is evicted or invalidated: both are pure functions of their
//! key. Labelled-mode lists are not memoised — they are the independent
//! reference the canonical ones are checked against, and keeping them
//! costs memory no pass wins back.

use super::{labelled_tasks, Task};
use crate::constructible::lanes::{build_layout, is_involved, Layout};
use crate::universe::Universe;
use ccmm_dag::canon::for_each_canonical_poset;
use ccmm_dag::poset::count_posets_fast;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The largest poset size the enumerators accept.
const MAX_SIZE: usize = 16;

/// Per poset size, its canonical tasks.
static CANONICAL: [OnceLock<Vec<Task>>; MAX_SIZE + 1] = [const { OnceLock::new() }; MAX_SIZE + 1];

/// The canonical tasks of every poset size `0..=max_nodes`, borrowed from
/// the per-size tables, in serial enumeration order.
pub(crate) fn canonical_tasks(max_nodes: usize) -> Vec<&'static Task> {
    (0..=max_nodes).flat_map(canonical_table).collect()
}

/// The canonical tasks of `n`-node posets, built on first use.
fn canonical_table(n: usize) -> &'static [Task] {
    assert!(n <= MAX_SIZE, "poset enumeration is exponential; n={n} is too large");
    CANONICAL[n].get_or_init(|| {
        let base: usize = (0..n).map(|m| count_posets_fast(m) as usize).sum();
        let mut tasks = Vec::new();
        for_each_canonical_poset(n, |idx, dag, info, auts| {
            let (weight, dag, auts) = (info.orbit, dag.clone(), auts.to_vec());
            tasks.push(Task { idx: base + idx, size: n, weight, dag, auts });
        });
        tasks
    })
}

/// The Δ* fixpoint's Stage-A plan for one universe shape.
pub(crate) struct StageA {
    /// The Stage-A tasks in index order: every involved labelled poset
    /// plus the canonical top-less bound-size posets (a representative
    /// keeps its labelled index, so the two never collide).
    pub(crate) tasks: Vec<Task>,
    /// The mask layout of the involved tasks.
    pub(crate) layout: Arc<Layout>,
}

/// Universe shape → its Stage-A plan, each built once by the first
/// caller that asks (later callers of the same shape wait for it) and
/// kept for the life of the process.
type StageAMemo = BTreeMap<(usize, usize, bool), &'static OnceLock<StageA>>;

static STAGE_A: Mutex<StageAMemo> = Mutex::new(BTreeMap::new());

/// The Stage-A plan of universe `u`, built on first use.
pub(crate) fn stage_a(u: &Universe) -> &'static StageA {
    let key = (u.max_nodes, u.num_locations, u.include_nop);
    let cell = *STAGE_A
        .lock()
        .expect("the plan memo is locked only to insert a key")
        .entry(key)
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| build_stage_a(u))
}

/// A fresh Stage-A plan of universe `u`.
fn build_stage_a(u: &Universe) -> StageA {
    let b = u.max_nodes;
    let mut tasks = labelled_tasks(u, |dag| is_involved(dag, b));
    tasks.extend(canonical_table(b).iter().filter(|t| !is_involved(&t.dag, b)).cloned());
    tasks.sort_by_key(|t| t.idx);
    let layout = Arc::new(build_layout(u, &tasks));
    StageA { tasks, layout }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_tables_equal_a_fresh_enumeration() {
        // Index, dag, orbit and automorphism bytes, size by size through
        // 7 nodes, against the enumerator's own callback output.
        let mut base = 0;
        for n in 0..=7 {
            let mut fresh = Vec::new();
            for_each_canonical_poset(n, |idx, dag, info, auts| {
                fresh.push((base + idx, dag.clone(), info.orbit, auts.to_vec()));
            });
            let table: Vec<_> = canonical_table(n)
                .iter()
                .map(|t| {
                    assert_eq!(t.size, n);
                    (t.idx, t.dag.clone(), t.weight, t.auts.clone())
                })
                .collect();
            assert_eq!(table, fresh, "{n}-node canonical table");
            base += count_posets_fast(n) as usize;
        }
        let upto: Vec<usize> = canonical_tasks(4).iter().map(|t| t.idx).collect();
        let sizes: Vec<usize> = (0..=4).map(|n| canonical_table(n).len()).collect();
        assert_eq!(sizes, [1, 1, 2, 5, 16], "A000112");
        assert_eq!(upto.len(), sizes.iter().sum::<usize>());
        assert!(upto.windows(2).all(|w| w[0] < w[1]), "bound-4 list is in index order");
    }
}
