//! Lane-parallel bounded Δ* fixpoint: survivor sets as `u64` verdict
//! masks over node-major observer columns.
//!
//! This is the one Δ* engine: both `ccmm sweep` engines, the
//! experiments and the benchmark run it. The naïve reference
//! ([`BoundedConstructible::compute`]) keys survivor sets by
//! `HashMap<Computation, HashSet<ObserverFunction>>` — every membership
//! query hashes a whole observer table, every extension test probes one
//! `HashSet` entry at a time — and re-scans the universe after every
//! pass. This module replaces that representation with a flat bit
//! arena:
//!
//! * Every *involved* computation spelled in pattern letters gets an
//!   [`Entry`]: a contiguous run of mask words in which bit `p` is the
//!   survivor flag of the `p`-th observer in **node-major** enumeration
//!   order ([`for_each_observer_node_major`]). A computation is involved
//!   iff it is below the bound (it has an augmentation) or its final node
//!   succeeds every other node (it is some computation's augmentation).
//!   Pattern letters (`sweep::Letters`: `N` for every non-write, one letter per
//!   write) quotient the labellings by read/no-op relabelling. Every
//!   model is invariant under it, and so is each deletion round, because
//!   an `R(l)` augmentation is an `N` augmentation up to that
//!   relabelling. So one entry decides every labelling with its write
//!   pattern, the augmentation ops are the letters, and `deleted`, the
//!   survivor counts and [`LaneConstructible::contains`] weigh or map each
//!   labelling through its pattern.
//! * Node-major order sorts free observer slots by `(node, location)`,
//!   so the final node's slots always form the least-significant digits
//!   of the mixed-radix observer index. Because augmentation appends a
//!   node that succeeds every existing node, the order is *recursively*
//!   self-consistent: for an augmentation `A = C·o` with last-node slot
//!   radix product `E`, observer `p` of `C` extends exactly to the
//!   block `[p·E, (p+1)·E)` of `A`'s observers, and conversely
//!   `index(A, Φ′) / E = index(C, Φ′|_C)`. The `Δ*` extension
//!   condition "some extension of `Φ` survives in `A`" is therefore a
//!   single aligned block-emptiness test on `A`'s mask — one word-AND
//!   covers up to 64 scalar `HashSet` probes — and deletion
//!   propagation to the unique augmentation parent is a shift
//!   (`parent bit = p / E`) instead of an observer-table restriction.
//!   Masking is exact: clearing bit `p` removes exactly the pair the
//!   reference removes, and a block emptiness flip is exactly the
//!   scalar `any_extension` condition turning false, so the greatest
//!   fixpoint (and `deleted`) is bit-identical to the naïve reference.
//! * Every other computation is bound-size without a top node, so the
//!   fixpoint never touches its pairs: its survivors are its model
//!   members, counted over the canonical top-less posets by orbit
//!   weight, and [`LaneConstructible::contains`] asks the model.
//!
//! Stage A (mask materialisation and the count) runs under the full
//! supervisor machinery — work-stealing shards, deadlines, quarantine,
//! checkpoint/resume — filling each involved task's mask words either
//! with the lane engine (64 observers per [`LanePack`] word through
//! [`MemoryModel::contains_lanes`]) or the scalar kernel (bit-at-a-time;
//! same bits; `ccmm sweep --engine scalar` runs it). Stage B (the
//! cascade) is a serial worklist over the arena: after one full pass, a
//! deleted bit re-checks only its unique augmentation parent's bit, and
//! each initial-pass check is quarantined on its own if it panics twice.
//!
//! Checkpoint records are *incremental*: each snapshot journals only
//! the mask groups completed since the previous record (plus the full
//! frontier and the running count), so the journal stays proportional
//! to the state instead of quadratic in it; decoding folds every record
//! of the journal and validates it against the layout.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{ControlFlow, Range};

use ccmm_dag::{Dag, NodeId};

use crate::ckpt::{get_u64, put_u64, Checkpoint, CkptWriter};
use crate::computation::Computation;
use crate::enumerate::{for_each_observer_node_major, node_major_index};
use crate::fault::FaultPlan;
use crate::model::{CheckScratch, LanePack, LaneScratch, MemoryModel, ObserverIndex, SlotOrder};
use crate::observer::ObserverFunction;
use crate::sweep::supervisor::{
    retry_once, run_supervised, CkptSink, Frontier, Merge, Quarantined, Supervised, Supervisor,
    SweepStatus,
};
use crate::sweep::{for_each_labelling, materialize, LabelScratch, Letters, SweepConfig, Task};
use crate::telemetry::{self, Counter};
use crate::universe::Universe;

#[cfg(doc)]
use crate::constructible::BoundedConstructible;

/// One completed involved task's survivor-mask words: all `Lⁿ`
/// pattern labellings of one poset (`L` pattern letters), in labelling
/// order, each labelling's mask starting on a fresh word boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
struct MaskGroup {
    /// Global labelled task index of the poset.
    task: u64,
    /// Mask words, concatenated per labelling.
    words: Vec<u64>,
}

/// Checkpointable Stage-A state of the lane fixpoint: the mask groups
/// of every completed involved task, in completion order, and the count
/// of the completed counted tasks. Built only by [`decode_masks_journal`]
/// (which validates) and `Default`.
#[derive(Debug, Default)]
pub struct MaskState {
    /// Completed groups (unordered across tasks; each task appears once).
    groups: Vec<MaskGroup>,
    /// Weighted model members over the completed counted tasks.
    counted: u64,
    // High-water mark of groups already written to the journal, so each
    // checkpoint record is incremental. Interior mutability because the
    // encode hook only gets `&MaskState`; records are serialised under
    // the supervisor's checkpoint mutex, so the `Cell` is never raced.
    journaled: Cell<usize>,
}

impl Merge for MaskState {
    fn merge(&mut self, other: Self) {
        self.groups.extend(other.groups);
        self.counted += other.counted;
    }
}

/// Serialises the groups completed since the last snapshot:
/// `frontier ‖ counted ‖ ngroups ‖ (task ‖ nwords ‖ words…)*`.
pub fn encode_masks_snapshot(frontier: &Frontier, state: &MaskState) -> Vec<u8> {
    let from = state.journaled.get();
    let fresh = &state.groups[from..];
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    put_u64(&mut out, state.counted);
    put_u64(&mut out, fresh.len() as u64);
    for g in fresh {
        put_u64(&mut out, g.task);
        put_u64(&mut out, g.words.len() as u64);
        for &w in &g.words {
            put_u64(&mut out, w);
        }
    }
    state.journaled.set(state.groups.len());
    out
}

/// Folds every record of a fixpoint journal for universe `u` back into
/// `(frontier, state)`. Records are incremental, so groups concatenate
/// across records and the *last* record's frontier and count win.
/// Returns `None` on a torn or malformed journal, and on one that does
/// not fit `u`'s layout: a group for an unknown, uncompleted or
/// twice-journalled task, a group whose length disagrees with the
/// layout, or a completed involved task without its group.
pub fn decode_masks_journal(ckpt: &Checkpoint, u: &Universe) -> Option<(Frontier, MaskState)> {
    let mut frontier = Frontier::default();
    let mut counted = 0;
    let mut groups = Vec::new();
    for rec in &ckpt.snapshots {
        let mut at: &[u8] = rec;
        frontier = Frontier::decode_from(&mut at)?;
        counted = get_u64(&mut at)?;
        let n = get_u64(&mut at)? as usize;
        for _ in 0..n {
            let task = get_u64(&mut at)?;
            let nwords = get_u64(&mut at)? as usize;
            // The length is journal input: allocate no more than the
            // record can hold.
            let mut words = Vec::with_capacity(nwords.min(at.len() / 8));
            for _ in 0..nwords {
                words.push(get_u64(&mut at)?);
            }
            groups.push(MaskGroup { task, words });
        }
    }
    let layout = build_layout(u, &stage_a_tasks(u));
    let mut have = vec![false; layout.metas.len()];
    for g in &groups {
        let t = layout.task(usize::try_from(g.task).ok()?)?;
        let fits = layout.span(t).len() == g.words.len() && frontier.contains(layout.metas[t].idx);
        if std::mem::replace(&mut have[t], true) || !fits {
            return None;
        }
    }
    if layout.metas.iter().zip(&have).any(|(m, &h)| !h && frontier.contains(m.idx)) {
        return None;
    }
    let journaled = Cell::new(groups.len());
    Some((frontier, MaskState { groups, counted, journaled }))
}

// ---------------------------------------------------------------------
// Layout: dense metadata for every involved task and labelling.
// ---------------------------------------------------------------------

/// Whether the final node of `dag` succeeds every other node.
fn has_top(dag: &Dag) -> bool {
    let n = dag.node_count();
    n > 0 && (0..n - 1).all(|u| dag.has_edge(NodeId::new(u), NodeId::new(n - 1)))
}

/// Whether a Stage-A task is masked rather than counted.
fn is_involved(t: &Task, max_nodes: usize) -> bool {
    t.size < max_nodes || has_top(&t.dag)
}

/// The Stage-A tasks in index order: every involved labelled poset plus
/// the canonical top-less bound-size posets (a representative keeps its
/// labelled index, so the two never collide).
fn stage_a_tasks(u: &Universe) -> Vec<Task> {
    let b = u.max_nodes;
    let involved = materialize(u, false).into_iter().filter(|t| is_involved(t, b));
    let counted = materialize(u, true).into_iter().filter(|t| !is_involved(t, b));
    let mut tasks: Vec<Task> = involved.chain(counted).collect();
    tasks.sort_by_key(|t| t.idx);
    tasks
}

/// Per labelled computation: where its mask lives and how it factors
/// through augmentation.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// First word of this labelling's mask in the arena.
    off: u64,
    /// Number of observers (mask bits; tail bits of the last word are 0).
    observers: u32,
    /// Block size `E`: product of the final node's slot radices. The
    /// parent observer of bit `p` is bit `p / block` of the parent
    /// entry, and conversely parent bit `q` extends to exactly
    /// `[q·block, (q+1)·block)` here.
    block: u32,
}

#[derive(Clone, Debug)]
struct TaskMeta {
    /// Global labelled task index of the poset.
    idx: usize,
    size: usize,
    /// Index of this task's first entry; labellings are contiguous, one
    /// entry per base-`L` pattern-letter assignment (digit of node 0
    /// fastest).
    entry_base: usize,
    /// Number of pattern labellings, `L^size`.
    labellings: u64,
    /// Task whose poset is this one minus its final node — present iff
    /// the final node succeeds every other node (the unique
    /// augmentation parent shape).
    parent: Option<u32>,
    /// Task whose poset is this one plus a new final node above all —
    /// present iff `size < max_nodes`.
    aug: Option<u32>,
}

#[derive(Default)]
struct Layout {
    /// The pattern letters entries are spelled in (identity maps).
    letters: Letters,
    /// Involved tasks, ascending in `idx`.
    metas: Vec<TaskMeta>,
    entries: Vec<Entry>,
    words_len: u64,
    /// `(node count, closure bits over u<v pairs)` → task position.
    key_map: HashMap<(u8, u64), u32>,
}

impl Layout {
    /// Position of the involved task with global index `idx`.
    fn task(&self, idx: usize) -> Option<usize> {
        self.metas.binary_search_by_key(&idx, |m| m.idx).ok()
    }

    /// The arena words of task position `t`, all labellings.
    fn span(&self, t: usize) -> Range<usize> {
        let meta = &self.metas[t];
        let start = self.entries[meta.entry_base].off as usize;
        let last = &self.entries[meta.entry_base + meta.labellings as usize - 1];
        start..last.off as usize + entry_words(last)
    }

    /// How many labellings entry `e` of task position `t` decides: the
    /// product of its pattern letters' weights.
    fn multiplicity(&self, t: usize, e: usize) -> u64 {
        let meta = &self.metas[t];
        self.letters.weight_of_index((e - meta.entry_base) as u64, meta.size)
    }

    /// Surviving labelled pairs of task position `t`: each entry's
    /// popcount weighed by its multiplicity.
    fn survivors(&self, words: &[u64], t: usize) -> usize {
        let meta = &self.metas[t];
        let entries = meta.entry_base..meta.entry_base + meta.labellings as usize;
        let count = |e: usize| -> u64 {
            let ones: u32 =
                entry_slice(words, &self.entries[e]).iter().map(|w| w.count_ones()).sum();
            u64::from(ones) * self.multiplicity(t, e)
        };
        entries.map(count).sum::<u64>() as usize
    }
}

/// Bit-packs the edges among the first `n` nodes of a naturally
/// labelled dag: pair `(u, v)` with `u < v` at bit `v(v−1)/2 + u`.
fn sub_key(dag: &Dag, n: usize) -> u64 {
    assert!(n <= 11, "lane fixpoint packs closures into u64 (≤ 11 nodes)");
    let mut bits = 0u64;
    let mut i = 0;
    for v in 1..n {
        for u in 0..v {
            if dag.has_edge(NodeId::new(u), NodeId::new(v)) {
                bits |= 1 << i;
            }
            i += 1;
        }
    }
    bits
}

/// Key of `dag` augmented with a new final node above every node.
fn aug_key(dag: &Dag) -> u64 {
    let n = dag.node_count();
    let mut bits = sub_key(dag, n);
    let base = n * n.saturating_sub(1) / 2;
    for u in 0..n {
        bits |= 1 << (base + u);
    }
    bits
}

/// Lays out the involved tasks of `tasks` (a [`stage_a_tasks`] list).
fn build_layout(u: &Universe, tasks: &[Task]) -> Layout {
    let letters = Letters::new(u, true, false);
    let involved: Vec<&Task> = tasks.iter().filter(|t| is_involved(t, u.max_nodes)).collect();
    let mut key_map = HashMap::with_capacity(involved.len());
    for (pos, t) in involved.iter().enumerate() {
        key_map.insert((t.size as u8, sub_key(&t.dag, t.size)), pos as u32);
    }
    let mut scratch = LabelScratch::new();
    let mut index = ObserverIndex::new();
    let mut metas = Vec::with_capacity(involved.len());
    let mut entries = Vec::new();
    let mut words_len = 0u64;
    for t in involved {
        let n = t.size;
        let parent = has_top(&t.dag).then(|| {
            let key = (n as u8 - 1, sub_key(&t.dag, n - 1));
            *key_map.get(&key).expect("prefix poset is enumerated")
        });
        let aug = (n < u.max_nodes).then(|| {
            let key = (n as u8 + 1, aug_key(&t.dag));
            *key_map.get(&key).expect("universe is closed under augmentation below the bound")
        });
        let entry_base = entries.len();
        let _ = for_each_labelling(&letters, t, &mut scratch, &mut |c, _w| {
            let (observers, block) = index.index(c, SlotOrder::NodeMajor);
            entries.push(Entry {
                off: words_len,
                observers: u32::try_from(observers).expect("observer count fits u32"),
                block: u32::try_from(block).expect("block size fits u32"),
            });
            words_len += observers.div_ceil(64);
            ControlFlow::Continue(())
        });
        let labellings = (entries.len() - entry_base) as u64;
        metas.push(TaskMeta { idx: t.idx, size: n, entry_base, labellings, parent, aug });
    }
    Layout { letters, metas, entries, words_len, key_map }
}

fn entry_words(e: &Entry) -> usize {
    (e.observers as usize).div_ceil(64)
}

/// Entries are laid out in task order, so the owning task of entry `e`
/// is found by partition point on `entry_base`.
fn owner(metas: &[TaskMeta], e: usize) -> usize {
    metas.partition_point(|m| m.entry_base <= e) - 1
}

/// Copies completed mask groups into a zeroed arena. Tasks with no
/// group (Stage-A quarantine kept the shard out of the state) are
/// filled all-ones masked to their observer counts — the conservative
/// *keep* that preserves the fixpoint's over-approximation invariant.
fn fill_arena(layout: &Layout, state: MaskState) -> Vec<u64> {
    let mut words = vec![0u64; layout.words_len as usize];
    let mut have = vec![false; layout.metas.len()];
    for g in state.groups {
        let t = layout.task(g.task as usize).expect("mask group of an involved task");
        words[layout.span(t)].copy_from_slice(&g.words);
        have[t] = true;
    }
    for (t, meta) in layout.metas.iter().enumerate() {
        if have[t] {
            continue;
        }
        for e in &layout.entries[meta.entry_base..meta.entry_base + meta.labellings as usize] {
            let off = e.off as usize;
            let nw = entry_words(e);
            for w in &mut words[off..off + nw] {
                *w = !0;
            }
            let tail = e.observers % 64;
            if nw > 0 && tail != 0 {
                words[off + nw - 1] = (1u64 << tail) - 1;
            }
        }
    }
    words
}

/// Whether the `len`-bit block starting at bit `start` of an entry's
/// mask slice is all zeros. Counts the words it examines toward
/// [`Counter::LaneFixpointWords`].
fn block_empty(words: &[u64], start: u64, len: u64) -> bool {
    debug_assert!(len > 0);
    let end = start + len;
    telemetry::count(Counter::LaneFixpointWords, (end - 1) / 64 - start / 64 + 1);
    let mut bit = start;
    while bit < end {
        let w = (bit / 64) as usize;
        let off = bit % 64;
        let span = (64 - off).min(end - bit);
        let mask = if span == 64 { !0 } else { ((1u64 << span) - 1) << off };
        if words[w] & mask != 0 {
            return false;
        }
        bit += span;
    }
    true
}

// ---------------------------------------------------------------------
// Stage A: mask materialisation and the count under the supervisor.
// ---------------------------------------------------------------------

/// Stage A: every involved task's mask group and the weighted member
/// count of every counted task of `tasks` (a [`stage_a_tasks`] list), as
/// one supervised sweep.
#[allow(clippy::too_many_arguments)]
fn materialize_masks<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    tasks: Vec<Task>,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, MaskState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
    lanes: bool,
) -> Supervised<MaskState> {
    // Involved tasks are labelled posets masked entry by entry; counted
    // ones are canonical and also quotient by location permutations.
    let (masked, quotiented) = (Letters::new(u, true, false), Letters::new(u, true, true));
    let encode = |s: &MaskState, f: &Frontier| encode_masks_snapshot(f, s);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    let (frontier, initial) = resume.unwrap_or_default();
    run_supervised(
        tasks,
        cfg.threads,
        cfg.deadline,
        &sup.fault,
        frontier,
        initial,
        sink,
        || {
            let ls = LabelScratch::new();
            (ls, ObserverIndex::new(), LanePack::new(), LaneScratch::new(), CheckScratch::new())
        },
        |task, (ls, index, pack, lscr, check)| {
            let involved = is_involved(task, u.max_nodes);
            let letters = if involved { &masked } else { &quotiented };
            let (mut words, mut counted) = (Vec::new(), 0);
            let _ = for_each_labelling(letters, task, ls, &mut |c, w| {
                // Member words in node-major observer order, the same
                // from either kernel: masked if involved, else counted.
                let mut emit = |v: u64| {
                    if involved {
                        telemetry::count(Counter::LaneFixpointWords, 1);
                        words.push(v);
                    } else {
                        counted += w * u64::from(v.count_ones());
                    }
                };
                if lanes {
                    index.prepare(c, SlotOrder::NodeMajor, pack);
                    index.for_each_pack(pack, |pack| {
                        emit(model.contains_lanes(c, pack, lscr) & pack.used());
                    });
                } else {
                    let mut word = 0u64;
                    let mut bit = 0u32;
                    let _ = for_each_observer_node_major(c, |phi| {
                        if model.contains_with(c, phi, check) {
                            word |= 1 << bit;
                        }
                        bit += 1;
                        if bit == 64 {
                            emit(word);
                            word = 0;
                            bit = 0;
                        }
                        ControlFlow::Continue(())
                    });
                    if bit > 0 {
                        emit(word);
                    }
                }
                ControlFlow::Continue(())
            });
            let groups =
                if involved { vec![MaskGroup { task: task.idx as u64, words }] } else { vec![] };
            MaskState { groups, counted, ..MaskState::default() }
        },
        |g, d, _| g.merge(d),
    )
}

// ---------------------------------------------------------------------
// Stage B: serial masked worklist cascade.
// ---------------------------------------------------------------------

struct FixOutcome {
    passes: usize,
    deleted: usize,
    quarantined: Vec<Quarantined>,
}

fn entry_slice<'a>(words: &'a [u64], e: &Entry) -> &'a [u64] {
    &words[e.off as usize..e.off as usize + entry_words(e)]
}

fn run_fixpoint(layout: &Layout, words: &mut [u64], fault: &FaultPlan) -> FixOutcome {
    // Initial full pass: for every surviving bit of every interior
    // entry, test each op's extension block in the augmentation's mask.
    // One interior *computation* is one supervised check through
    // `retry_once`, quarantined — keeping its bits — on a second panic.
    let mut queue: Vec<(u32, u32)> = Vec::new();
    let mut quarantined = Vec::new();
    let mut check_idx = 0usize;
    for meta in &layout.metas {
        let Some(aug_task) = meta.aug else { continue };
        let aug_meta = &layout.metas[aug_task as usize];
        for ord in 0..meta.labellings {
            let e = meta.entry_base + ord as usize;
            let i = check_idx;
            check_idx += 1;
            let attempt = |_: &mut ()| {
                fault.before_fixpoint_check(i);
                let mut doomed: Vec<(u32, u32)> = Vec::new();
                let entry = &layout.entries[e];
                let off = entry.off as usize;
                for wi in 0..entry_words(entry) {
                    let mut w = words[off + wi];
                    while w != 0 {
                        let p = (wi as u32) * 64 + w.trailing_zeros();
                        w &= w - 1;
                        for j in 0..layout.letters.ops.len() as u64 {
                            let a = aug_meta.entry_base + (ord + j * meta.labellings) as usize;
                            let ae = &layout.entries[a];
                            let block = u64::from(ae.block);
                            if block_empty(entry_slice(words, ae), u64::from(p) * block, block) {
                                doomed.push((e as u32, p));
                                break;
                            }
                        }
                    }
                }
                doomed
            };
            match retry_once(&mut (), |_| {}, attempt) {
                Ok(doomed) => queue.extend(doomed),
                Err(payload) => {
                    quarantined.push(Quarantined { task_idx: i, size: meta.size, payload });
                }
            }
        }
    }

    // Cascade: clear a round of bits, push the unique augmentation
    // parent of each cleared bit for re-check, evaluate re-checks after
    // the round. `passes` counts the initial pass and every round that
    // deletes.
    let mut passes = 1;
    let mut deleted = 0usize;
    telemetry::count(Counter::WorklistPushes, queue.len() as u64);
    while !queue.is_empty() {
        telemetry::count(Counter::WorklistPops, queue.len() as u64);
        let mut recheck: Vec<(u32, u32, u32)> = Vec::new();
        for (e, p) in queue.drain(..) {
            let entry = &layout.entries[e as usize];
            let w = entry.off as usize + (p / 64) as usize;
            let m = 1u64 << (p % 64);
            if words[w] & m == 0 {
                continue; // deleted earlier this cascade
            }
            words[w] &= !m;
            let t = owner(&layout.metas, e as usize);
            deleted += layout.multiplicity(t, e as usize) as usize;
            telemetry::count(Counter::LaneDeletionsMasked, 1);
            let meta = &layout.metas[t];
            if let Some(pt) = meta.parent {
                let pmeta = &layout.metas[pt as usize];
                let ord = e as usize - meta.entry_base;
                let pe = pmeta.entry_base + ord % pmeta.labellings as usize;
                let pb = p / entry.block;
                let pentry = &layout.entries[pe];
                debug_assert_eq!(
                    u64::from(pentry.observers) * u64::from(entry.block),
                    u64::from(entry.observers),
                    "augmentation factorisation"
                );
                let pw = pentry.off as usize + (pb / 64) as usize;
                if words[pw] & (1u64 << (pb % 64)) != 0 {
                    recheck.push((pe as u32, pb, e));
                }
            }
        }
        let mut next: Vec<(u32, u32)> = Vec::new();
        for (pe, pb, ce) in recheck {
            let pentry = &layout.entries[pe as usize];
            let pw = pentry.off as usize + (pb / 64) as usize;
            if words[pw] & (1u64 << (pb % 64)) == 0 {
                continue;
            }
            let centry = &layout.entries[ce as usize];
            let block = u64::from(centry.block);
            if block_empty(entry_slice(words, centry), u64::from(pb) * block, block) {
                next.push((pe, pb));
            }
        }
        queue = next;
        telemetry::count(Counter::WorklistPushes, queue.len() as u64);
        if !queue.is_empty() {
            passes += 1;
        }
    }
    FixOutcome { passes, deleted, quarantined }
}

// ---------------------------------------------------------------------
// Public result type.
// ---------------------------------------------------------------------

/// The bounded Δ* fixpoint computed lane-parallel over mask words.
/// Survivors and `deleted` are bit-identical to
/// [`BoundedConstructible::compute`] on the same universe.
/// Carries a copy of its model, which decides the uninvolved pairs.
pub struct LaneConstructible<M> {
    model: M,
    layout: Layout,
    words: Vec<u64>,
    /// Survivors of the uninvolved (bound-size, top-less) computations.
    counted: u64,
    /// The universe bound the fixpoint was computed at.
    pub max_nodes: usize,
    /// Worklist rounds (initial pass + cascade generations).
    pub passes: usize,
    /// Pairs deleted by the fixpoint.
    pub deleted: usize,
    /// Stage-A shard and Stage-B check quarantine reports (empty on a
    /// clean run). Stage-B entries use initial-pass check indices.
    pub quarantined: Vec<Quarantined>,
}

impl<M: MemoryModel + Sync + Clone> LaneConstructible<M> {
    fn empty(model: &M, u: &Universe) -> Self {
        LaneConstructible {
            model: model.clone(),
            layout: Layout::default(),
            words: Vec::new(),
            counted: 0,
            max_nodes: u.max_nodes,
            passes: 0,
            deleted: 0,
            quarantined: Vec::new(),
        }
    }

    /// Computes the fixpoint with the lane engine, panicking unless the
    /// run completes cleanly. See [`Self::compute_supervised`].
    pub fn compute(model: &M, u: &Universe, cfg: &SweepConfig) -> Self {
        Self::compute_supervised(model, u, cfg, &Supervisor::none(), None, None, true)
            .expect_complete("lane Δ* fixpoint")
    }

    /// Computes the fixpoint under full supervision: Stage A
    /// (materialisation and the uninvolved count) honours deadlines,
    /// checkpoints to `ckpt` (`(writer, every)`), resumes from a decoded
    /// journal, and quarantines panicking shards (their pairs are
    /// conservatively kept: all-ones masks, all pairs counted); Stage B
    /// quarantines each panicking initial-pass check the same way. `lanes`
    /// selects the lane kernel ([`MemoryModel::contains_lanes`]) or the
    /// scalar kernel for Stage A — the journals and results are
    /// bit-identical either way, so a journal written by one engine
    /// resumes under the other. Stage A enumerates its own labelled and
    /// canonical tasks, so `cfg.canonical` is ignored.
    ///
    /// A `Killed`/`Partial` Stage A returns an empty value carrying the
    /// status and frontier; the fixpoint only runs on a complete
    /// (possibly degraded) materialisation.
    pub fn compute_supervised(
        model: &M,
        u: &Universe,
        cfg: &SweepConfig,
        sup: &Supervisor,
        resume: Option<(Frontier, MaskState)>,
        ckpt: Option<(&mut CkptWriter, usize)>,
        lanes: bool,
    ) -> Supervised<Self> {
        let tasks = stage_a_tasks(u);
        let layout = build_layout(u, &tasks);
        let stage_a = materialize_masks(model, u, tasks, cfg, sup, resume, ckpt, lanes);
        if matches!(stage_a.status, SweepStatus::Partial | SweepStatus::Killed) {
            return stage_a.map(|_| Self::empty(model, u));
        }
        let Supervised { value, mut status, mut quarantined, frontier, total_tasks, ckpt_error } =
            stage_a;
        // A quarantined counted task keeps every pair, as an all-ones
        // mask keeps an involved one. Its dag left with the task list,
        // so this rare path lists the tasks again.
        let mut counted = value.counted;
        let lost: Vec<usize> = quarantined
            .iter()
            .map(|q| q.task_idx)
            .filter(|&idx| layout.task(idx).is_none())
            .collect();
        if !lost.is_empty() {
            let letters = Letters::new(u, true, true);
            let mut index = ObserverIndex::new();
            for t in stage_a_tasks(u).iter().filter(|t| lost.contains(&t.idx)) {
                let mut ls = LabelScratch::new();
                let _ = for_each_labelling(&letters, t, &mut ls, &mut |c, w| {
                    counted += w * index.index(c, SlotOrder::NodeMajor).0;
                    ControlFlow::Continue(())
                });
            }
        }
        let mut words = fill_arena(&layout, value);
        let out = run_fixpoint(&layout, &mut words, &sup.fault);
        status = status.max(SweepStatus::fold(false, false, !out.quarantined.is_empty()));
        quarantined.extend(out.quarantined);
        let value = LaneConstructible {
            layout,
            words,
            counted,
            passes: out.passes,
            deleted: out.deleted,
            quarantined: quarantined.clone(),
            ..Self::empty(model, u)
        };
        telemetry::count(Counter::LaneSurvivorPop, value.total_pairs() as u64);
        Supervised { value, status, quarantined, frontier, total_tasks, ckpt_error }
    }
}

impl<M: MemoryModel> LaneConstructible<M> {
    /// Whether `(c, phi)` survived the fixpoint. Matches the naïve
    /// [`BoundedConstructible::contains`] on every computation of the
    /// universe: an unknown shape (too large, backward edge, op outside
    /// the alphabet, non-enumerated closure) is simply not a survivor,
    /// and an uninvolved pair survives iff it is a model member. A
    /// labelled computation is looked up through its write pattern (each
    /// read spelled as the non-write letter).
    pub fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        let n = c.node_count();
        if n > self.max_nodes || n > 11 {
            return false;
        }
        for (a, b) in c.dag().edges() {
            if a.index() >= b.index() {
                return false; // tasks are naturally labelled
            }
        }
        let l = &self.layout;
        let mut ord = 0u64;
        for v in (0..n).rev() {
            let Some(d) = l.letters.letter(c.op(NodeId::new(v))) else {
                return false;
            };
            ord = ord * l.letters.ops.len() as u64 + d as u64;
        }
        let Some(&t) = l.key_map.get(&(n as u8, sub_key(c.dag(), n))) else {
            // Every closed involved shape is keyed, so a closed unkeyed
            // one is a bound-size poset without a top node: its pairs
            // are never touched and survive iff they are members.
            let closed = c.dag().transitive_closure().edge_count() == c.dag().edge_count();
            return n == self.max_nodes && closed && self.model.contains(c, phi);
        };
        let e = &l.entries[l.metas[t as usize].entry_base + ord as usize];
        let Some(p) = node_major_index(c, phi) else {
            return false;
        };
        debug_assert!(p < u64::from(e.observers));
        self.words[e.off as usize + (p / 64) as usize] & (1u64 << (p % 64)) != 0
    }

    /// Total surviving pairs (weighted mask popcount plus the uninvolved
    /// count).
    pub fn total_pairs(&self) -> usize {
        let l = &self.layout;
        let masked: usize = (0..l.metas.len()).map(|t| l.survivors(&self.words, t)).sum();
        masked + self.counted as usize
    }

    /// Surviving pairs for computations of exactly `n` nodes.
    pub fn pairs_of_size(&self, n: usize) -> usize {
        let l = &self.layout;
        let tasks = (0..l.metas.len()).filter(|&t| l.metas[t].size == n);
        let masked: usize = tasks.map(|t| l.survivors(&self.words, t)).sum();
        masked + if n == self.max_nodes { self.counted as usize } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructible::tests::assert_matches_naive;
    use crate::constructible::BoundedConstructible;
    use crate::enumerate::for_each_observer;
    use crate::model::{Lc, Nn};

    fn cfg(threads: usize) -> SweepConfig {
        SweepConfig { threads, ..SweepConfig::default() }
    }

    #[test]
    fn lane_fixpoint_matches_naive_rescan() {
        for &(b, l) in &[(3, 1), (4, 1), (3, 2)] {
            let u = Universe::new(b, l);
            let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
            let naive = BoundedConstructible::compute(&Nn::default(), &u);
            assert_matches_naive(&naive, &lane, &u);
        }
    }

    #[test]
    fn lane_fixpoint_matches_naive_rescan_threaded_and_lc() {
        let u = Universe::new(3, 2);
        let lane = LaneConstructible::compute(&Lc, &u, &cfg(4));
        assert_matches_naive(&BoundedConstructible::compute(&Lc, &u), &lane, &u);
        // LC is constructible: nothing deleted, no cascade round.
        assert_eq!((lane.deleted, lane.passes), (0, 1));
    }

    #[test]
    fn scalar_kernel_stage_a_is_bit_identical_to_lanes() {
        let u = Universe::new(4, 1);
        let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let scalar_kernel = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(2),
            &Supervisor::none(),
            None,
            None,
            false,
        )
        .expect_complete("scalar-kernel fixpoint");
        assert_eq!(lane.words, scalar_kernel.words);
        assert_eq!(lane.deleted, scalar_kernel.deleted);
        assert_eq!(lane.passes, scalar_kernel.passes);
    }

    #[test]
    fn deadline_stops_stage_a_under_both_kernels() {
        // A spent budget stops Stage A before any task: the run is
        // Partial with an empty frontier, and no fixpoint runs on it.
        let u = Universe::new(4, 1);
        let cfg = cfg(2).deadline(std::time::Duration::ZERO);
        for lanes in [false, true] {
            let out = LaneConstructible::compute_supervised(
                &Nn::default(),
                &u,
                &cfg,
                &Supervisor::none(),
                None,
                None,
                lanes,
            );
            assert_eq!(out.status, SweepStatus::Partial, "lanes={lanes}");
            assert!(out.frontier.is_empty(), "lanes={lanes}");
            assert_eq!(out.total_tasks, stage_a_tasks(&u).len(), "lanes={lanes}");
            assert_eq!((out.value.total_pairs(), out.value.passes), (0, 0), "lanes={lanes}");
        }
    }

    #[test]
    fn bound5_nnstar_is_pinned() {
        // Theorem 23 at bound 5 (E20): 514,080 NN members, 96 deleted.
        let u = Universe::new(5, 1);
        let lane = LaneConstructible::compute(&Nn::default(), &u, &cfg(2));
        assert_eq!((lane.total_pairs(), lane.deleted, lane.passes), (513_984, 96, 1));
        let sizes: Vec<usize> = (0..=5).map(|m| lane.pairs_of_size(m)).collect();
        assert_eq!(sizes, [1, 3, 22, 335, 9_608, 504_015]);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_across_engines() {
        let path = std::env::temp_dir().join(format!("ccmm-lanefix-resume-{}", std::process::id()));
        let u = Universe::new(4, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        // One serial worker takes tasks in index order: 11 below-bound
        // masks, then the bound-size masks and counts interleaved. Two
        // records of four tasks stop inside the masks; five stop with
        // part of the uninvolved count done.
        for (records, mid_count) in [(2, false), (5, true)] {
            let _ = std::fs::remove_file(&path);
            let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(records));
            let mut writer = CkptWriter::create(&path, "lanefix-test").expect("create journal");
            let killed = LaneConstructible::compute_supervised(
                &Nn::default(),
                &u,
                &cfg(1),
                &sup,
                None,
                Some((&mut writer, 4)),
                true,
            );
            assert_eq!(killed.status, SweepStatus::Killed);
            drop(writer);

            let ckpt = Checkpoint::load(&path).expect("journal readable");
            let (frontier, state) = decode_masks_journal(&ckpt, &u).expect("journal decodes");
            assert_eq!(frontier.len(), 4 * records, "kill happened after a checkpoint");
            assert_eq!(0 < state.counted && state.counted < clean.counted, mid_count);
            // Resume with the *scalar* kernel: journals interoperate.
            let mut writer = CkptWriter::append_to(&path).expect("reopen journal");
            let resumed = LaneConstructible::compute_supervised(
                &Nn::default(),
                &u,
                &cfg(1),
                &Supervisor::none(),
                Some((frontier, state)),
                Some((&mut writer, 4)),
                false,
            )
            .expect_complete("resumed fixpoint");
            assert_eq!(resumed.words, clean.words);
            assert_eq!(resumed.counted, clean.counted);
            assert_eq!(resumed.deleted, clean.deleted);
            assert_eq!(resumed.passes, clean.passes);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_that_disagrees_with_the_layout_is_rejected() {
        let path =
            std::env::temp_dir().join(format!("ccmm-lanefix-corrupt-{}", std::process::id()));
        let u = Universe::new(3, 1);
        // Task 0 (the empty poset) has one labelling with one observer:
        // one mask word.
        let journal = |groups: Vec<MaskGroup>| {
            let mut frontier = Frontier::new();
            frontier.insert(0);
            let state = MaskState { groups, ..MaskState::default() };
            let mut writer = CkptWriter::create(&path, "lanefix-test").expect("create journal");
            writer.append(&encode_masks_snapshot(&frontier, &state)).expect("append");
            drop(writer);
            let ckpt = Checkpoint::load(&path).expect("journal readable");
            decode_masks_journal(&ckpt, &u).map(|(f, s)| (f.len(), s.groups.len()))
        };
        let group = |task, words: Vec<u64>| MaskGroup { task, words };
        assert_eq!(journal(vec![group(0, vec![1])]), Some((1, 1)));
        assert_eq!(journal(vec![group(0, vec![1, 0])]), None, "group length mismatch");
        assert_eq!(journal(vec![group(0, vec![1]), group(0, vec![1])]), None, "task twice");
        assert_eq!(journal(vec![group(1, vec![1])]), None, "group outside the frontier");
        assert_eq!(journal(vec![group(99, vec![1])]), None, "unknown task");
        assert_eq!(journal(vec![]), None, "completed task without its group");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantined_count_task_keeps_all_its_pairs() {
        let u = Universe::new(4, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let letters = Letters::new(&u, false, true);
        // (all pairs, members) of a counted task, weighted by orbit.
        let pairs = |task: &Task| {
            let (mut all, mut members) = (0, 0);
            let mut ls = LabelScratch::new();
            let _ = for_each_labelling(&letters, task, &mut ls, &mut |c, w| {
                let _ = for_each_observer(c, |phi| {
                    all += w as usize;
                    members += usize::from(Nn::default().contains(c, phi)) * w as usize;
                    ControlFlow::Continue(())
                });
                ControlFlow::Continue(())
            });
            (all, members)
        };
        let tasks = stage_a_tasks(&u);
        let (task, (all, members)) = tasks
            .iter()
            .filter(|t| !is_involved(t, 4))
            .map(|t| (t, pairs(t)))
            .find(|(_, (all, members))| all > members)
            .expect("a top-less 4-node poset with non-members");
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(task.idx));
        let out = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(1),
            &sup,
            None,
            None,
            true,
        );
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.value.pairs_of_size(4), clean.pairs_of_size(4) + all - members);
        assert_eq!(out.value.total_pairs(), clean.total_pairs() + all - members);
    }

    #[test]
    fn fixpoint_quarantine_keeps_bits_and_degrades() {
        let u = Universe::new(3, 1);
        let clean = LaneConstructible::compute(&Nn::default(), &u, &cfg(1));
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_fixpoint(0));
        let out = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(1),
            &sup,
            None,
            None,
            true,
        );
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert!(out.quarantined[0].payload.contains("fixpoint check 0"));
        // Quarantine keeps pairs: the degraded run over-approximates.
        assert!(out.value.total_pairs() >= clean.total_pairs());
        // Healing fault (panics once, retry succeeds) is not degraded.
        let sup = Supervisor::with_fault(FaultPlan::none().panic_once_at_fixpoint(0));
        let healed = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg(1),
            &sup,
            None,
            None,
            true,
        );
        assert_eq!(healed.status, SweepStatus::Complete);
        assert_eq!(healed.value.total_pairs(), clean.total_pairs());
    }
}
