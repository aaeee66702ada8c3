//! Bit-parallel lane kernels: 64 observer functions per `u64` word.
//!
//! The sweep hot loop asks the same membership question for one
//! computation `C` against many observer functions Φ. All of those Φ
//! share `C`'s dag, reachability closure, and write index — only the
//! observed-write table differs. This module packs up to [`LANES`]
//! observer functions into a [`LanePack`] (one per bit of a `u64` *lane
//! word*) and evaluates a model's condition on all of them in lockstep:
//! per-model kernels return a 64-bit verdict mask instead of a `bool`.
//!
//! **Layout.** For each `(location, node)` cell the pack stores a 64-byte
//! *column*: byte `j` is lane `j`'s observed value at that cell, encoded
//! as `0` for ⊥ and `i + 1` for the `i`-th write of
//! `Computation::writes_to(l)` (ascending node order — the same compact
//! write index the LC block decomposition and the SC packed memo keys
//! use). A column lives in 8 consecutive `u64` words, so the two
//! primitive questions every kernel asks — "which lanes observe ⊥ here?"
//! and "which lanes agree between two cells?" — reduce to branch-free
//! SWAR byte tests (`zero_lanes`, `eq_lanes`).
//!
//! **Φ-lanes, not labelling-lanes.** Packing 64 labellings of one poset
//! would force every lane to re-derive its own writes index and validity
//! while sharing nothing but the dag shape; packing 64 Φ of one
//! `(poset, labelling)` shares the dag *and* the op labelling *and* the
//! reachability closure, and the structural scans (ancestor loops,
//! between-sets, Q-predicate tests, block contraction edges) amortize
//! across all 64 lanes. Orbit weights are untouched: a verdict mask
//! contributes `weight × popcount(verdict)` exactly as 64 scalar calls
//! would have.
//!
//! Invalid observers (Definition 2 violations) are recorded in the
//! pack's `valid` mask at push time; kernels mask every verdict by it,
//! matching the scalar contract that models contain only valid pairs.

use crate::computation::Computation;
use crate::model::dagcons::QPredicate;
use crate::model::sc::Sc;
use crate::model::CheckScratch;
use crate::observer::ObserverFunction;
use crate::op::{Location, Op};
use crate::telemetry::{self, Counter};
use ccmm_dag::bitset::BitSet;
use ccmm_dag::NodeId;

/// Number of observer lanes per pack: one per bit of a `u64`.
pub const LANES: usize = 64;

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH: u64 = 0x8080_8080_8080_8080;
/// Multiplier gathering the eight `0x80`-position bits of a word into
/// the top byte: byte `j` (weight `2^{8j}`) carries `2^{7-j}`, so bit
/// positions `8j + 7 - j + 7` are pairwise distinct and carry-free.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// `0x80` set in every byte of `x` that is zero. Exact per byte: the
/// textbook `(x - LO) & !x & HI` haszero trick admits borrow propagation
/// across bytes (e.g. `0x0100` falsely flags its high byte), so we use
/// the carry-free form — `((x & 0x7f..) + 0x7f..) | x` has the high bit
/// of a byte set iff that byte is nonzero.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x) & HIGH
}

/// Compacts a `0x80`-per-byte mask into the low 8 bits (byte `j` → bit
/// `j`).
#[inline]
fn movemask(m: u64) -> u8 {
    ((((m & HIGH) >> 7).wrapping_mul(GATHER)) >> 56) as u8
}

/// Lane mask of column bytes that are ⊥ (zero): bit `j` set iff lane
/// `j`'s byte in the column is zero. Columns may be truncated to their
/// occupied words ([`LanePack::col`]); lanes beyond the slice read as 0
/// in the mask, which every consumer bounds by `used`/`valid`.
#[inline]
pub(crate) fn zero_lanes(col: &[u64]) -> u64 {
    debug_assert!(col.len() <= 8);
    let mut out = 0u64;
    for (k, &w) in col.iter().enumerate() {
        out |= u64::from(movemask(zero_bytes(w))) << (8 * k);
    }
    out
}

/// Lane mask of byte-wise equality between two columns: bit `j` set iff
/// lane `j` observes the same value in both. Truncated like
/// [`zero_lanes`].
#[inline]
pub(crate) fn eq_lanes(a: &[u64], b: &[u64]) -> u64 {
    debug_assert!(a.len() <= 8 && a.len() == b.len());
    let mut out = 0u64;
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        out |= u64::from(movemask(zero_bytes(x ^ y))) << (8 * k);
    }
    out
}

/// Lane mask of column bytes equal to the constant `b` (the byte
/// broadcast is one multiply). Truncated like [`zero_lanes`].
#[inline]
fn eq_const_lanes(col: &[u64], b: u8) -> u64 {
    let pat = u64::from(b).wrapping_mul(0x0101_0101_0101_0101);
    let mut out = 0u64;
    for (k, &w) in col.iter().enumerate() {
        out |= u64::from(movemask(zero_bytes(w ^ pat))) << (8 * k);
    }
    out
}

/// Up to [`LANES`] observer functions for one computation, packed
/// column-wise for the lane kernels.
#[derive(Default)]
pub struct LanePack {
    /// Column storage: cell `(l, u)` occupies the 8 words at
    /// `((l * n + u) * 8)..`, byte `j` of the column = lane `j`'s encoded
    /// observation.
    cols: Vec<u64>,
    /// `widx[l * n + w]` = 1-based index of node `w` in `writes_to(l)`,
    /// 0 when `w` is not a write to `l`.
    widx: Vec<u8>,
    /// Lanes whose Φ is a valid observer function for the computation.
    valid: u64,
    /// Lanes pushed so far.
    len: u32,
    /// Occupied column words, `⌈len / 8⌉` — [`col`] slices to this so the
    /// SWAR kernels never scan words no lane lives in.
    ///
    /// [`col`]: LanePack::col
    nwords: u32,
    /// Bumped on every mutation; keys the [`LaneScratch`] LC cache.
    generation: u64,
    num_locations: usize,
    node_count: usize,
}

impl LanePack {
    /// An empty pack; storage grows on [`prepare`] and is then reused.
    ///
    /// [`prepare`]: LanePack::prepare
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes the pack for computation `c`, clearing all lanes and
    /// rebuilding the per-location write index. Reuses storage.
    pub fn prepare(&mut self, c: &Computation) {
        let (locs, n) = (c.num_locations(), c.node_count());
        self.num_locations = locs;
        self.node_count = n;
        self.cols.clear();
        self.cols.resize(locs * n * 8, 0);
        self.widx.clear();
        self.widx.resize(locs * n, 0);
        for l in c.locations() {
            let writes = c.writes_to(l);
            debug_assert!(writes.len() < 255, "write index must fit a byte");
            for (i, &w) in writes.iter().enumerate() {
                self.widx[l.index() * n + w.index()] = (i + 1) as u8;
            }
        }
        self.valid = 0;
        self.len = 0;
        self.nwords = 0;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Drops all lanes (keeps the shape and write index of the current
    /// computation) so the pack can take the next batch of observers.
    /// Stale column bytes are *not* zeroed — every kernel result is
    /// masked by [`used`]/[`valid`], so leftover bytes in dropped lanes
    /// are unobservable.
    ///
    /// [`used`]: LanePack::used
    /// [`valid`]: LanePack::valid
    pub fn clear_lanes(&mut self) {
        self.valid = 0;
        self.len = 0;
        self.nwords = 0;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Number of lanes pushed since the last [`prepare`]/[`clear_lanes`].
    ///
    /// [`prepare`]: LanePack::prepare
    /// [`clear_lanes`]: LanePack::clear_lanes
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no lanes are pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether all [`LANES`] lanes are occupied.
    pub fn is_full(&self) -> bool {
        self.len as usize == LANES
    }

    /// Mask of occupied lanes (lowest bits first, in push order).
    pub fn used(&self) -> u64 {
        if self.len as usize >= LANES {
            !0
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// Mask of occupied lanes holding a *valid* observer function for
    /// the prepared computation. Kernel verdicts are subsets of this.
    pub fn valid(&self) -> u64 {
        self.valid
    }

    /// Packs `phi` into the next free lane and returns its index,
    /// recording whether it is valid for `c`. Panics if the pack is full;
    /// the caller flushes at [`LANES`]. The sweeps fill packs from an
    /// [`ObserverIndex`] instead; this is for observers that come from
    /// elsewhere (tests, the conformance harness's random packings).
    pub fn push(&mut self, c: &Computation, phi: &ObserverFunction) -> usize {
        assert!(!self.is_full(), "lane pack is full");
        let lane = self.len as usize;
        let n = self.node_count;
        let (word, shift) = (lane / 8, (lane % 8) * 8);
        for l in c.locations() {
            for u in c.nodes() {
                let byte = match phi.get(l, u) {
                    None => 0u8,
                    Some(w) => self.widx[l.index() * n + w.index()],
                };
                let idx = (l.index() * n + u.index()) * 8 + word;
                self.cols[idx] =
                    (self.cols[idx] & !(0xffu64 << shift)) | (u64::from(byte) << shift);
            }
        }
        if phi.is_valid_for(c) {
            self.valid |= 1u64 << lane;
        }
        self.len += 1;
        self.nwords = self.len.div_ceil(8);
        self.generation = self.generation.wrapping_add(1);
        lane
    }

    /// The column of cell `(l, u)`, truncated to the occupied words so
    /// underfull packs cost proportionally less SWAR work. Lanes beyond
    /// the slice read as 0 in every derived mask; consumers bound their
    /// results by [`used`]/[`valid`].
    ///
    /// [`used`]: LanePack::used
    /// [`valid`]: LanePack::valid
    #[inline]
    pub(crate) fn col(&self, l: Location, u: NodeId) -> &[u64] {
        let base = (l.index() * self.node_count + u.index()) * 8;
        &self.cols[base..base + self.nwords as usize]
    }

    /// 1-based index of `w` in `writes_to(l)` (0 when not a write to
    /// `l`) — the byte value a lane observing `w` at `l` carries.
    #[inline]
    fn widx_of(&self, l: Location, w: NodeId) -> u8 {
        self.widx[l.index() * self.node_count + w.index()]
    }

    /// Pack mutation counter; the [`LaneScratch`] LC cache keys on it.
    #[inline]
    fn generation(&self) -> u64 {
        self.generation
    }

    /// Lane `j`'s byte at cell `(l, u)`: 0 for ⊥, else 1-based write
    /// index.
    #[inline]
    fn byte(&self, l: Location, u: NodeId, lane: usize) -> u8 {
        (self.col(l, u)[lane / 8] >> ((lane % 8) * 8)) as u8
    }

    /// Reconstructs lane `lane`'s observer function. Only meaningful for
    /// occupied lanes; an *invalid* lane decodes to the nearest valid
    /// encoding (a non-write observation cannot be represented), which is
    /// fine because kernels never report invalid lanes as members.
    pub fn extract(&self, c: &Computation, lane: usize) -> ObserverFunction {
        debug_assert!(lane < self.len as usize);
        let mut phi = ObserverFunction::bottom(self.num_locations, self.node_count);
        for l in c.locations() {
            let writes = c.writes_to(l);
            for u in c.nodes() {
                let b = self.byte(l, u, lane);
                if b > 0 {
                    phi.set(l, u, Some(writes[b as usize - 1]));
                }
            }
        }
        phi
    }

    /// Sets lanes `[from, from + n)` of cell `cell`'s column to `byte`,
    /// a whole word at a time where the run covers one.
    #[inline]
    fn fill_bytes(&mut self, cell: usize, from: usize, n: usize, byte: u8) {
        let col = &mut self.cols[cell * 8..cell * 8 + 8];
        let pat = u64::from(byte).wrapping_mul(0x0101_0101_0101_0101);
        let end = from + n;
        let mut i = from;
        while i < end {
            let (w, lo) = (i / 8, i % 8);
            let hi = (end - w * 8).min(8);
            let mask = if hi - lo == 8 { !0 } else { ((1u64 << (8 * (hi - lo))) - 1) << (8 * lo) };
            col[w] = (col[w] & !mask) | (pat & mask);
            i = w * 8 + hi;
        }
    }

    /// Marks `k` more lanes occupied and valid.
    fn append_valid(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        let (base, end) = (self.len as usize, self.len as usize + k);
        let mask = if end == LANES { !0 } else { (1u64 << end) - 1 };
        self.valid |= mask & !((1u64 << base) - 1);
        self.len = end as u32;
        self.nwords = self.len.div_ceil(8);
        self.generation = self.generation.wrapping_add(1);
    }
}

/// The order in which an [`ObserverIndex`] numbers a computation's
/// valid observer functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOrder {
    /// Free slots by `(location, node)`: the
    /// [`for_each_observer`](crate::enumerate::for_each_observer) order.
    LocationMajor,
    /// Free slots by `(node, location)`: the
    /// [`for_each_observer_node_major`](crate::enumerate::for_each_observer_node_major)
    /// order, in which an augmentation's last node owns the
    /// least-significant digits.
    NodeMajor,
}

/// One free table slot with at least two candidates.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Pack cell `l · n + u`.
    cell: u32,
    radix: u32,
    /// Offset of the slot's candidate bytes in [`ObserverIndex::cands`].
    cands: u32,
    /// Product of the radices of every later slot: the digit of observer
    /// `i` is `(i / stride) % radix`.
    stride: u64,
}

/// The valid observer functions of one computation as a mixed-radix
/// index, written straight into [`LanePack`] columns.
///
/// [`index`](ObserverIndex::index) derives the free table slots once, in
/// either [`SlotOrder`], into flat reusable buffers of candidate *lane
/// bytes* (the pack's column encoding: 0 for ⊥, `i + 1` for the `i`-th
/// write of the location). Observer `i` is then the mixed-radix number
/// `i` over those slots, first slot most significant, exactly as the
/// recursive enumerators number it. [`fill`](ObserverIndex::fill) writes
/// any index range into a pack's next lanes as byte runs — no
/// `ObserverFunction` per lane, and no allocation once the buffers have
/// grown. Slots with the single candidate ⊥ stay at the zero bytes
/// [`LanePack::prepare`] leaves, and a write's forced self-observation is
/// stamped into its column once per [`prepare`](ObserverIndex::prepare).
#[derive(Default)]
pub struct ObserverIndex {
    slots: Vec<Slot>,
    cands: Vec<u8>,
    /// `(cell, byte)` of every write observing itself.
    forced: Vec<(u32, u8)>,
    node_count: usize,
    observers: u64,
}

impl ObserverIndex {
    /// An empty index; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives `c`'s free slots in `order` and returns `(observers,
    /// block)`: the number of valid observer functions, and the product
    /// of the last node's slot radices — the size `E` of one contiguous
    /// extension block in node-major order when `c` is an augmentation.
    /// `block` is 1 for the empty computation.
    pub fn index(&mut self, c: &Computation, order: SlotOrder) -> (u64, u64) {
        let n = c.node_count();
        self.slots.clear();
        self.cands.clear();
        self.forced.clear();
        self.node_count = n;
        let (mut observers, mut block) = (1u64, 1u64);
        let mut visit = |l: Location, u: NodeId| {
            let cell = (l.index() * n + u.index()) as u32;
            let writes = c.writes_to(l);
            if c.op(u).is_write_to(l) {
                let at = writes.binary_search(&u).expect("a write is in its location's index");
                self.forced.push((cell, (at + 1) as u8));
                return;
            }
            let start = self.cands.len();
            self.cands.push(0);
            for (i, &w) in writes.iter().enumerate() {
                if !c.precedes(u, w) {
                    self.cands.push((i + 1) as u8);
                }
            }
            let radix = self.cands.len() - start;
            if radix == 1 {
                self.cands.truncate(start); // ⊥ only: a zero byte, no digit
                return;
            }
            let r = radix as u64;
            observers = observers.checked_mul(r).expect("observer count overflows u64");
            if u.index() + 1 == n {
                block *= r;
            }
            self.slots.push(Slot { cell, radix: radix as u32, cands: start as u32, stride: 0 });
        };
        match order {
            SlotOrder::LocationMajor => {
                for l in c.locations() {
                    for u in c.nodes() {
                        visit(l, u);
                    }
                }
            }
            SlotOrder::NodeMajor => {
                for u in c.nodes() {
                    for l in c.locations() {
                        visit(l, u);
                    }
                }
            }
        }
        let mut stride = 1u64;
        for s in self.slots.iter_mut().rev() {
            s.stride = stride;
            stride *= u64::from(s.radix);
        }
        self.observers = observers;
        (observers, block)
    }

    /// [`index`](ObserverIndex::index) plus [`LanePack::prepare`], then
    /// stamps every forced write column: the pack is ready for
    /// [`fill`](ObserverIndex::fill).
    pub fn prepare(
        &mut self,
        c: &Computation,
        order: SlotOrder,
        pack: &mut LanePack,
    ) -> (u64, u64) {
        let shape = self.index(c, order);
        pack.prepare(c);
        for &(cell, byte) in &self.forced {
            pack.fill_bytes(cell as usize, 0, LANES, byte);
        }
        shape
    }

    /// Appends observers `[start, start + k)` to `pack`'s next `k` lanes,
    /// all valid. The pack must have been readied by
    /// [`prepare`](ObserverIndex::prepare) for the same computation and
    /// order; panics if the lanes do not fit or the range overruns.
    pub fn fill(&self, pack: &mut LanePack, start: u64, k: usize) {
        let base = pack.len();
        assert!(base + k <= LANES, "lane pack overflow");
        assert!(start + k as u64 <= self.observers, "observer range overruns the index");
        for s in &self.slots {
            let stride = s.stride;
            let mut digit = (start / stride % u64::from(s.radix)) as usize;
            let mut run = stride - start % stride;
            let (mut lane, end) = (base, base + k);
            while lane < end {
                let take = run.min((end - lane) as u64) as usize;
                let byte = self.cands[s.cands as usize + digit];
                pack.fill_bytes(s.cell as usize, lane, take, byte);
                lane += take;
                run = stride;
                digit += 1;
                if digit == s.radix as usize {
                    digit = 0;
                }
            }
        }
        pack.append_valid(k);
    }

    /// Decides every observer of the indexed computation in full packs,
    /// in index order: clears `pack`, fills the next up-to-[`LANES`]
    /// observers and calls `f(pack)`. Counts [`Counter::LaneWords`] and
    /// [`Counter::LaneSlots`] per pack.
    pub fn for_each_pack(&self, pack: &mut LanePack, mut f: impl FnMut(&mut LanePack)) {
        let mut start = 0;
        while start < self.observers {
            let k = (self.observers - start).min(LANES as u64) as usize;
            pack.clear_lanes();
            self.fill(pack, start, k);
            count_pack(pack);
            f(pack);
            start += k as u64;
        }
    }

    /// Observer `i` of the indexed computation `c` as a table, for
    /// witnesses.
    pub fn observer(&self, c: &Computation, i: u64) -> ObserverFunction {
        debug_assert_eq!(c.node_count(), self.node_count);
        debug_assert!(i < self.observers);
        let n = self.node_count;
        let mut phi = ObserverFunction::base(c);
        for s in &self.slots {
            let digit = (i / s.stride % u64::from(s.radix)) as usize;
            let byte = self.cands[s.cands as usize + digit];
            let (l, u) = (Location::new(s.cell as usize / n), NodeId::new(s.cell as usize % n));
            phi.set(l, u, (byte > 0).then(|| c.writes_to(l)[byte as usize - 1]));
        }
        phi
    }
}

/// Counts one decided pack toward [`Counter::LaneWords`] and
/// [`Counter::LaneSlots`].
pub(crate) fn count_pack(pack: &LanePack) {
    telemetry::count(Counter::LaneWords, 1);
    telemetry::count(Counter::LaneSlots, u64::from(pack.used().count_ones()));
}

/// Reusable working memory for the lane kernels: the Q-dag between-set,
/// the LC block masks and block-reachability masks, the lane-parallel SC
/// search memo, and a [`CheckScratch`] for the rare per-lane SC
/// fallback (and the default per-lane trait path).
///
/// The `lc_cache` and `q_cache` memoise per pack generation: `Model::Sc`
/// prefilters through the LC kernel that `Model::Lc` also needs, and the
/// four Q-dag models share one structural scan (`qdag_all_lanes`) that
/// differs only in which triples each predicate counts — so a six-model
/// flush runs the LC kernel once and the Q-dag scan once. The caches key
/// on [`LanePack`]'s mutation counter, so a scratch must stay paired
/// with one pack stream — as every engine path does.
#[derive(Default)]
pub struct LaneScratch {
    pub(crate) mid: BitSet,
    blk: Vec<u64>,
    reach: Vec<u64>,
    lc_cache: Option<(u64, u64)>,
    q_cache: Option<(u64, [u64; 4])>,
    sc_table: Vec<(u32, u64)>,
    sc_epoch: u32,
    sc_indeg: Vec<usize>,
    pub(crate) check: CheckScratch,
}

impl LaneScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Q-dag consistency (Definition 20) on all lanes at once: the verdict
/// mask of lanes containing `(c, Φ_lane)`. Every predicate reads its slot,
/// `2·U + V` of its two conditions, from one structural scan
/// ([`qdag_all_lanes`]) cached per pack generation.
pub(crate) fn qdag_lanes<Q: QPredicate>(c: &Computation, p: &LanePack, s: &mut LaneScratch) -> u64 {
    let slot = 2 * usize::from(Q::U_WRITES) + usize::from(Q::V_WRITES);
    if let Some((generation, verdicts)) = s.q_cache {
        if generation == p.generation() {
            return verdicts[slot];
        }
    }
    let verdicts = qdag_all_lanes(c, p, s);
    s.q_cache = Some((p.generation(), verdicts));
    verdicts[slot]
}

/// The four Q-dag models in one fused scan: verdict masks in slot order
/// `[NN, NW, WN, WW]`. A violating triple is routed to the models whose
/// [`QPredicate`] conditions it meets, while the SWAR masks and the
/// structural walk (ancestors, between-sets) are computed once.
fn qdag_all_lanes(c: &Computation, p: &LanePack, s: &mut LaneScratch) -> [u64; 4] {
    const NN: usize = 0;
    const NW: usize = 1;
    const WN: usize = 2;
    const WW: usize = 3;
    let valid = p.valid();
    if valid == 0 {
        return [0; 4];
    }
    let reach = c.reach();
    let mut viol = [0u64; 4];
    let mut saturated = [false; 4];
    'scan: for l in c.locations() {
        for w in c.nodes() {
            let col_w = p.col(l, w);
            let pending = !(viol[NN] & viol[NW] & viol[WN] & viol[WW]);
            // u = ⊥ case: Φ(l,⊥) = ⊥, so the premise needs Φ(l,w) = ⊥;
            // ⊥ counts as the virtual initial write, so the "W"-on-`u`
            // predicates always fire here.
            let bot_w = zero_lanes(col_w) & valid & pending;
            if bot_w != 0 {
                for v_idx in reach.ancestors(w).iter() {
                    let v = NodeId::new(v_idx);
                    let hit = bot_w & !zero_lanes(p.col(l, v));
                    if hit == 0 {
                        continue;
                    }
                    viol[NN] |= hit;
                    viol[WN] |= hit;
                    if c.op(v).is_write_to(l) {
                        viol[NW] |= hit;
                        viol[WW] |= hit;
                    }
                }
            }
            // u ∈ V case: lanes with Φ(l,u) = Φ(l,w) violate when some
            // middle v between u and w observes differently.
            for u_idx in reach.ancestors(w).iter() {
                let u = NodeId::new(u_idx);
                let eq_uw = eq_lanes(p.col(l, u), col_w) & valid & pending;
                if eq_uw == 0 {
                    continue;
                }
                let u_writes = c.op(u).is_write_to(l);
                reach.between_into(u, w, &mut s.mid);
                for v_idx in s.mid.iter() {
                    let v = NodeId::new(v_idx);
                    let hit = eq_uw & !eq_lanes(p.col(l, v), col_w);
                    if hit == 0 {
                        continue;
                    }
                    viol[NN] |= hit;
                    if u_writes {
                        viol[WN] |= hit;
                    }
                    if c.op(v).is_write_to(l) {
                        viol[NW] |= hit;
                        if u_writes {
                            viol[WW] |= hit;
                        }
                    }
                }
            }
            for m in 0..4 {
                if !saturated[m] && viol[m] & valid == valid {
                    saturated[m] = true;
                    telemetry::count(Counter::LaneEarlyExits, 1);
                }
            }
            if saturated == [true; 4] {
                break 'scan;
            }
        }
    }
    [valid & !viol[NN], valid & !viol[NW], valid & !viol[WN], valid & !viol[WW]]
}

/// Location consistency (Definition 18) on all lanes at once. Per
/// location: a ⊥-block edge prefilter over the dag edges (an edge into
/// the ⊥-block is infeasible under any sort), then an acyclicity test of
/// the block contraction for every lane together ([`lc_block_cycles`]).
/// Blocks are read straight from the column bytes, which *are* the LC
/// block indices.
pub(crate) fn lc_lanes(c: &Computation, p: &LanePack, s: &mut LaneScratch) -> u64 {
    if let Some((generation, live)) = s.lc_cache {
        if generation == p.generation() {
            return live;
        }
    }
    let live = lc_lanes_uncached(c, p, s);
    s.lc_cache = Some((p.generation(), live));
    live
}

fn lc_lanes_uncached(c: &Computation, p: &LanePack, s: &mut LaneScratch) -> u64 {
    let mut live = p.valid();
    if live == 0 {
        return 0;
    }
    for l in c.locations() {
        for (eu, ev) in c.dag().edges() {
            let (col_u, col_v) = (p.col(l, eu), p.col(l, ev));
            // Edge u→v with Φ(l,v) = ⊥ and Φ(l,u) ≠ Φ(l,v): a node
            // observing a write precedes a ⊥-observer.
            live &= !(zero_lanes(col_v) & !eq_lanes(col_u, col_v));
        }
        if live == 0 {
            telemetry::count(Counter::LaneEarlyExits, 1);
            return 0;
        }
        let writes = c.writes_to(l).len();
        if writes == 0 {
            continue; // only the ⊥-block: nothing to order
        }
        live &= !lc_block_cycles(c, p, l, writes, live, s);
        if live == 0 {
            telemetry::count(Counter::LaneEarlyExits, 1);
            return 0;
        }
    }
    live
}

/// The lanes of `live` whose block contraction at location `l` has a
/// cycle: what the Kahn pass of `lc::lc_block_order_into` decides for
/// one Φ, here for every lane at once. The caller has already removed
/// lanes with an edge into the ⊥-block, so ⊥, having no incoming edge,
/// lies on no cycle and only the `w` write blocks take part.
///
/// `blk[u·w + a]` is the mask of lanes in which node `u` sits in write
/// block `a + 1`; a dag edge `u → v` contributes `blk[u][a] & blk[v][b]`
/// to the block edge `a → b` (`a ≠ b`). A Warshall closure over the
/// `w × w` lane masks then sets `reach[a][a]` exactly in the lanes where
/// block `a` lies on a cycle: bitwise operations keep the lanes apart.
fn lc_block_cycles(
    c: &Computation,
    p: &LanePack,
    l: Location,
    w: usize,
    live: u64,
    s: &mut LaneScratch,
) -> u64 {
    s.blk.clear();
    for u in c.nodes() {
        let col = p.col(l, u);
        s.blk.extend((1..=w).map(|a| eq_const_lanes(col, a as u8) & live));
    }
    s.reach.clear();
    s.reach.resize(w * w, 0);
    for (eu, ev) in c.dag().edges() {
        let (from, to) = (&s.blk[eu.index() * w..][..w], &s.blk[ev.index() * w..][..w]);
        for (a, &x) in from.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let row = &mut s.reach[a * w..][..w];
            for (b, (r, &y)) in row.iter_mut().zip(to).enumerate() {
                if a != b {
                    *r |= x & y;
                }
            }
        }
    }
    for k in 0..w {
        for i in 0..w {
            let via = s.reach[i * w + k];
            if via == 0 {
                continue;
            }
            for j in 0..w {
                let hop = via & s.reach[k * w + j];
                s.reach[i * w + j] |= hop;
            }
        }
    }
    (0..w).fold(0, |cyc, a| cyc | s.reach[a * w + a])
}

/// Sequential consistency (Definition 17) on all lanes: the LC lane
/// kernel as an exact necessary prefilter (SC ⊆ LC, Figure 1), then
/// *one* memoised search over (scheduled-set, last-writer) states shared
/// by every surviving lane. The scalar search re-explores that state
/// space once per Φ; here each state is visited once and returns the
/// mask of lanes that can complete a per-step-consistent sort from it —
/// per-step consistency of appending node `u` is itself a SWAR test
/// (lane bytes at `(l, u)` vs the last-writer byte, [`eq_const_lanes`]).
/// Falls back to the per-lane scalar search when the state key does not
/// pack into two words (`n > 64` or more than 8 locations).
pub(crate) fn sc_lanes(c: &Computation, p: &LanePack, s: &mut LaneScratch) -> u64 {
    let feasible = lc_lanes(c, p, s);
    if feasible == 0 {
        return 0;
    }
    // The memo table is dense: index = last-writer mixed radix × 2^n +
    // scheduled set. Out-of-range shapes fall back to the per-lane
    // scalar search (unreachable at the bounded-universe sizes).
    let n = c.node_count();
    let mut strides = [0usize; 8];
    let mut radix = 1usize;
    if n < 20 && c.num_locations() <= 8 {
        for l in c.locations() {
            strides[l.index()] = radix;
            radix = radix.saturating_mul(c.writes_to(l).len() + 1);
        }
    }
    let table_size = radix.saturating_mul(1 << n.min(20));
    if n >= 20 || c.num_locations() > 8 || table_size > 1 << 20 {
        let mut verdict = 0u64;
        let mut rem = feasible;
        while rem != 0 {
            let lane = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let phi = p.extract(c, lane);
            if Sc::solve(c, &phi, &mut s.check.sc) {
                verdict |= 1u64 << lane;
            }
        }
        return verdict;
    }
    s.sc_epoch = s.sc_epoch.wrapping_add(1);
    if s.sc_epoch == 0 {
        s.sc_table.clear();
        s.sc_epoch = 1;
    }
    if s.sc_table.len() < table_size {
        s.sc_table.resize(table_size, (0, 0));
    }
    s.sc_indeg.clear();
    s.sc_indeg.extend(c.nodes().map(|u| c.dag().in_degree(u)));
    let mut search = ScLaneSearch {
        c,
        p,
        feasible,
        full: (1u64 << n) - 1,
        shift: n,
        strides,
        sched: 0,
        lasts: 0,
        last_dense: 0,
        indeg: &mut s.sc_indeg,
        table: &mut s.sc_table,
        epoch: s.sc_epoch,
    };
    search.run()
}

/// The lane-parallel SC search. `sched`/`lasts` are the packed state the
/// scalar `ScScratch` memo uses — node set in one word, last writer per
/// location at 8 bits (0 = ⊥, else 1-based write index, matching the
/// pack's column encoding so appendability is a byte compare).
/// `last_dense` tracks the mixed-radix value of `lasts` so the memo
/// index `last_dense << shift | sched` is maintained incrementally; the
/// epoch stamp makes table reuse across calls O(1).
struct ScLaneSearch<'a> {
    c: &'a Computation,
    p: &'a LanePack,
    /// LC-feasible valid lanes; every mask in the search lives below it.
    feasible: u64,
    full: u64,
    shift: usize,
    strides: [usize; 8],
    sched: u64,
    lasts: u64,
    last_dense: usize,
    indeg: &'a mut Vec<usize>,
    table: &'a mut Vec<(u32, u64)>,
    epoch: u32,
}

impl ScLaneSearch<'_> {
    /// Mask of lanes for which appending `u` now is per-step consistent:
    /// at every location `u` does not write, lane bytes at `(l, u)` must
    /// equal the current last-writer byte.
    fn appendable(&self, u: NodeId) -> u64 {
        let mut mask = self.feasible;
        for l in self.c.locations() {
            if self.c.op(u).is_write_to(l) {
                continue; // Φ(l, u) = u by Def. 2.3; satisfied on append.
            }
            let expected = (self.lasts >> (8 * l.index())) as u8;
            mask &= eq_const_lanes(self.p.col(l, u), expected);
            if mask == 0 {
                break;
            }
        }
        mask
    }

    /// Mask of lanes that can extend the current state to a full
    /// per-step-consistent topological sort. A function of the state
    /// alone, so each `(sched, lasts)` pair is solved once for all lanes.
    fn run(&mut self) -> u64 {
        if self.sched == self.full {
            return self.feasible;
        }
        let key = self.last_dense << self.shift | self.sched as usize;
        if self.table[key].0 == self.epoch {
            telemetry::count(Counter::ScMemoHits, 1);
            return self.table[key].1;
        }
        let mut out = 0u64;
        for u in self.c.nodes() {
            if self.sched >> u.index() & 1 == 1 || self.indeg[u.index()] != 0 {
                continue;
            }
            let can_append = self.appendable(u);
            if can_append == 0 {
                continue;
            }
            // Apply.
            self.sched |= 1u64 << u.index();
            for &v in self.c.dag().successors(u) {
                self.indeg[v.index()] -= 1;
            }
            let (saved, saved_dense) = (self.lasts, self.last_dense);
            if let Op::Write(l) = self.c.op(u) {
                let shift = 8 * l.index();
                let old = (self.lasts >> shift) as u8;
                let new = self.p.widx_of(l, u);
                self.lasts = (self.lasts & !(0xffu64 << shift)) | (u64::from(new) << shift);
                let stride = self.strides[l.index()];
                self.last_dense = self.last_dense - old as usize * stride + new as usize * stride;
            }
            let completes = self.run();
            // Undo.
            self.lasts = saved;
            self.last_dense = saved_dense;
            for &v in self.c.dag().successors(u) {
                self.indeg[v.index()] += 1;
            }
            self.sched &= !(1u64 << u.index());
            out |= can_append & completes;
            if out == self.feasible {
                break; // every lane already has a witness; `out` is maximal
            }
        }
        telemetry::count(Counter::ScMemoMisses, 1);
        self.table[key] = (self.epoch, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{
        count_observers, for_each_observer, for_each_observer_node_major, node_major_shape,
    };
    use crate::model::lc::Lc;
    use crate::model::{MemoryModel, Model};
    use crate::op::Op;
    use crate::universe::Universe;
    use std::ops::ControlFlow;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn swar_masks_are_exact_per_byte() {
        // The borrow-propagation counterexample for the textbook haszero
        // `(x - LO) & !x & HI`: in 0x0100 the nonzero byte 1 must NOT be
        // flagged, while every actually-zero byte must be.
        assert_eq!(zero_bytes(0x0100), HIGH & !0x8000);
        assert_eq!(zero_bytes(0), HIGH);
        assert_eq!(zero_bytes(!0), 0);
        // Nonzero bytes at positions 1, 3, 4, 6; zero bytes at 0, 2, 5, 7.
        assert_eq!(zero_bytes(0x0080_0001_ff00_7f00), 0x8000_8000_0080_0080);
        // movemask gathers byte-high-bits to the low byte, bit j = byte j.
        assert_eq!(movemask(HIGH), 0xff);
        assert_eq!(movemask(0x80), 0x01);
        assert_eq!(movemask(0x8000_0000_0000_0000), 0x80);
        assert_eq!(movemask(0x0080_8000_0000_8000), 0b0110_0010);
    }

    #[test]
    fn zero_and_eq_lanes_cover_all_64_lanes() {
        let mut a = [0u64; 8];
        let mut b = [0u64; 8];
        // Lane j gets byte value (j % 5) in a, (j % 3) in b.
        for j in 0..LANES {
            a[j / 8] |= ((j % 5) as u64) << ((j % 8) * 8);
            b[j / 8] |= ((j % 3) as u64) << ((j % 8) * 8);
        }
        let za = zero_lanes(&a);
        let eq = eq_lanes(&a, &b);
        for j in 0..LANES {
            assert_eq!(za >> j & 1 == 1, j % 5 == 0, "zero_lanes lane {j}");
            assert_eq!(eq >> j & 1 == 1, j % 5 == j % 3, "eq_lanes lane {j}");
        }
    }

    #[test]
    fn pack_round_trips_observers_in_push_order() {
        let c = Computation::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        );
        let mut p = LanePack::new();
        p.prepare(&c);
        let mut pushed = Vec::new();
        let _ = for_each_observer(&c, |phi| {
            pushed.push(phi.clone());
            p.push(&c, phi);
            ControlFlow::Continue(())
        });
        assert!(pushed.len() > 1 && pushed.len() <= LANES);
        assert_eq!(p.len(), pushed.len());
        assert_eq!(p.valid(), p.used(), "enumerated observers are all valid");
        for (j, phi) in pushed.iter().enumerate() {
            assert_eq!(&p.extract(&c, j), phi, "lane {j} round trip");
        }
    }

    #[test]
    fn invalid_lane_is_masked_out() {
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        let mut p = LanePack::new();
        p.prepare(&c);
        p.push(&c, &ObserverFunction::base(&c));
        // Write not self-observing: invalid (Definition 2.3).
        p.push(&c, &ObserverFunction::bottom(1, 2));
        assert_eq!(p.used(), 0b11);
        assert_eq!(p.valid(), 0b01);
        let mut s = LaneScratch::new();
        for m in Model::ALL {
            assert_eq!(m.contains_lanes(&c, &p, &mut s) & 0b10, 0, "{m} accepted invalid lane");
        }
    }

    #[test]
    fn clear_lanes_keeps_shape_and_masks_stale_bytes() {
        let c = Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0))],
        );
        let mut p = LanePack::new();
        p.prepare(&c);
        // First batch: a rejected-by-all Φ (initial value resurfaces).
        let bad = ObserverFunction::base(&c).with(l(0), n(1), Some(n(0))).with(l(0), n(2), None);
        p.push(&c, &bad);
        p.clear_lanes();
        // Second batch: one accepted Φ in lane 0; lane 1+ holds stale
        // bytes from the first batch, which must not leak into verdicts.
        let good =
            ObserverFunction::base(&c).with(l(0), n(1), Some(n(0))).with(l(0), n(2), Some(n(0)));
        p.push(&c, &good);
        let mut s = LaneScratch::new();
        for m in [Model::Sc, Model::Lc, Model::Nn, Model::Ww] {
            assert_eq!(m.contains_lanes(&c, &p, &mut s), 0b01, "{m}");
        }
    }

    /// Exhaustive lane-vs-scalar differential over every computation of a
    /// small universe, all models, full packs and underfull tails.
    fn differential(bound: usize, locs: usize) {
        let u = Universe::new(bound, locs);
        let mut pack = LanePack::new();
        let mut ls = LaneScratch::new();
        let mut check = CheckScratch::new();
        let _ = u.for_each_computation(|c| {
            pack.prepare(c);
            let mut scalars: Vec<u64> = vec![0; Model::ALL.len()];
            let mut base = 0usize;
            let mut flush = |pack: &mut LanePack, scalars: &mut Vec<u64>, base: usize| {
                for (mi, m) in Model::ALL.iter().enumerate() {
                    let lanes = m.contains_lanes(c, pack, &mut ls);
                    assert_eq!(
                        lanes,
                        scalars[mi],
                        "{m} lane/scalar split on {c:?} (lanes {base}..{})",
                        base + pack.len()
                    );
                    scalars[mi] = 0;
                }
            };
            let _ = for_each_observer(c, |phi| {
                let lane = pack.push(c, phi);
                for (mi, m) in Model::ALL.iter().enumerate() {
                    if m.contains_with(c, phi, &mut check) {
                        scalars[mi] |= 1u64 << lane;
                    }
                }
                if pack.is_full() {
                    flush(&mut pack, &mut scalars, base);
                    base += LANES;
                    pack.clear_lanes();
                }
                ControlFlow::Continue(())
            });
            if !pack.is_empty() {
                flush(&mut pack, &mut scalars, base);
            }
            ControlFlow::Continue(())
        });
    }

    /// Every observer of `c` in `order`, as the recursive enumerators
    /// list them.
    fn enumerated(c: &Computation, order: SlotOrder) -> Vec<ObserverFunction> {
        let mut out = Vec::new();
        let push = |phi: &ObserverFunction| {
            out.push(phi.clone());
            ControlFlow::Continue(())
        };
        let _ = match order {
            SlotOrder::LocationMajor => for_each_observer(c, push),
            SlotOrder::NodeMajor => for_each_observer_node_major(c, push),
        };
        out
    }

    #[test]
    fn observer_index_fills_extract_to_the_enumeration() {
        // Every computation of ≤ 4 nodes over 2 locations, both orders.
        // Ranges of `k` observers are appended behind `pad` lanes of an
        // arbitrary earlier range, so fills start mid-word and index
        // ranges cross 64-lane boundaries.
        let u = Universe::new(4, 2);
        let mut index = ObserverIndex::new();
        let mut pack = LanePack::new();
        let _ = u.for_each_computation(|c| {
            for order in [SlotOrder::LocationMajor, SlotOrder::NodeMajor] {
                let want = enumerated(c, order);
                let (observers, block) = index.index(c, order);
                assert_eq!(u128::from(observers), count_observers(c), "{c:?}");
                assert_eq!((observers, block), node_major_shape(c), "{c:?}");
                for (i, phi) in want.iter().enumerate() {
                    assert_eq!(&index.observer(c, i as u64), phi, "{order:?} observer {i}");
                }
                for (k, pad) in [(1u64, 0usize), (5, 37), (64, 0), (64, 3)] {
                    index.prepare(c, order, &mut pack);
                    let mut at: Vec<u64> = Vec::new();
                    let check = |pack: &mut LanePack, at: &mut Vec<u64>| {
                        assert_eq!(pack.valid(), pack.used());
                        for (lane, &i) in at.iter().enumerate() {
                            assert_eq!(
                                pack.extract(c, lane),
                                want[i as usize],
                                "{order:?} {k}/{pad}"
                            );
                        }
                        pack.clear_lanes();
                        at.clear();
                    };
                    let mut start = 0u64;
                    while start < observers {
                        if pack.is_empty() && pad > 0 {
                            let s = observers.saturating_sub(pad as u64) / 2;
                            let p = (observers - s).min(pad as u64);
                            index.fill(&mut pack, s, p as usize);
                            at.extend(s..s + p);
                        }
                        let take = k.min(observers - start).min((LANES - pack.len()) as u64);
                        index.fill(&mut pack, start, take as usize);
                        at.extend(start..start + take);
                        start += take;
                        if pack.is_full() {
                            check(&mut pack, &mut at);
                        }
                    }
                    if !pack.is_empty() {
                        check(&mut pack, &mut at);
                    }
                }
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn in_place_augmentation_fills_like_augment() {
        // For every computation of ≤ 4 nodes over 2 locations and every
        // op (some on a location `c` never mentions), the pushed state
        // has the shape and lane bytes of `c.augment(o)`, and `pop_last`
        // gives `c` back.
        let u = Universe::new(4, 2);
        let alphabet = u.alphabet();
        let (mut ia, mut ib) = (ObserverIndex::new(), ObserverIndex::new());
        let (mut pa, mut pb) = (LanePack::new(), LanePack::new());
        let _ = u.for_each_computation(|c| {
            let mut scratch = c.clone();
            let preds: Vec<NodeId> = c.nodes().collect();
            for &o in &alphabet {
                scratch.push(&preds, o).expect("every node is in range");
                let aug = c.augment(o);
                assert_eq!(scratch, aug);
                assert_eq!(scratch.num_locations(), aug.num_locations());
                let shape = ia.prepare(&scratch, SlotOrder::NodeMajor, &mut pa);
                assert_eq!(shape, ib.prepare(&aug, SlotOrder::NodeMajor, &mut pb), "{aug:?}");
                let mut start = 0;
                while start < shape.0 {
                    let k = (shape.0 - start).min(LANES as u64) as usize;
                    pa.clear_lanes();
                    pb.clear_lanes();
                    ia.fill(&mut pa, start, k);
                    ib.fill(&mut pb, start, k);
                    assert_eq!((pa.used(), pa.valid()), (pb.used(), pb.valid()));
                    let nw = pa.nwords as usize;
                    let cells = pa.cols.chunks(8).zip(pb.cols.chunks(8));
                    for (a, b) in cells {
                        assert_eq!(a[..nw], b[..nw], "{aug:?} from {start}");
                    }
                    start += k as u64;
                }
                scratch.pop_last();
                assert_eq!(&scratch, c);
                assert_eq!(scratch.num_locations(), c.num_locations(), "{c:?} after {o}");
                for l in c.locations() {
                    assert_eq!(scratch.writes_to(l), c.writes_to(l));
                }
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn lanes_match_scalar_exhaustively_bound_3() {
        differential(3, 1);
    }

    #[test]
    fn lanes_match_scalar_exhaustively_two_locations() {
        differential(2, 2);
    }

    /// A random observer function of `c`: per location, the last-writer
    /// function of a random topological sort, then a few cells pointed
    /// at a random write or at ⊥. Redirected cells break the block
    /// order (a cycle or an edge into the ⊥-block) or validity (a write
    /// not observing itself, a node observing its own successor).
    fn sorted_then_redirected(c: &Computation, rng: &mut impl rand::Rng) -> ObserverFunction {
        let mut phi = ObserverFunction::bottom(c.num_locations(), c.node_count());
        for l in c.locations() {
            let mut last = None;
            for u in ccmm_dag::topo::random_topo_sort(c.dag(), rng) {
                if c.op(u).is_write_to(l) {
                    last = Some(u);
                }
                phi.set(l, u, last);
            }
            let writes = c.writes_to(l);
            for _ in 0..rng.gen_range(0..3) {
                let u = NodeId::new(rng.gen_range(0..c.node_count()));
                if c.op(u).is_write_to(l) && rng.gen_bool(0.9) {
                    continue; // keep most lanes valid
                }
                let pick = rng.gen_range(0..=writes.len());
                phi.set(l, u, writes.get(pick).copied());
            }
        }
        phi
    }

    /// Seeded lane-vs-scalar LC differential on blocks wider than the
    /// bounded universes reach: 9–11 writes to one location among 12–14
    /// nodes, 2–3 locations, a partial pack refilled over a cleared one
    /// (stale bytes), and invalid lanes.
    #[test]
    fn lc_lanes_match_scalar_on_wide_blocks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20_261_019);
        let mut pack = LanePack::new();
        let mut ls = LaneScratch::new();
        // Lanes seen: LC members, valid lanes rejected by a block cycle
        // alone, valid lanes with an edge into the ⊥-block, invalid lanes.
        let mut seen = [0usize; 4];
        for _ in 0..300 {
            let n = rng.gen_range(12..=14);
            let locs = rng.gen_range(2..=3);
            let mut edges = Vec::new();
            for v in 1..n {
                for u in 0..v {
                    if rng.gen_bool(0.12) {
                        edges.push((u, v));
                    }
                }
            }
            let wide = rng.gen_range(9..=11);
            let ops: Vec<Op> = (0..n)
                .map(|u| match (u < wide, rng.gen_range(0..3)) {
                    (true, _) => Op::Write(l(0)),
                    (false, 0) => Op::Write(l(rng.gen_range(1..locs))),
                    (false, 1) => Op::Read(l(rng.gen_range(0..locs))),
                    _ => Op::Nop,
                })
                .collect();
            let c = Computation::from_edges(n, &edges, ops);
            pack.prepare(&c);
            for lanes in [LANES, rng.gen_range(1..LANES)] {
                pack.clear_lanes();
                let mut want = 0u64;
                for lane in 0..lanes {
                    let phi = sorted_then_redirected(&c, &mut rng);
                    assert_eq!(pack.push(&c, &phi), lane);
                    let member = Lc.contains(&c, &phi);
                    want |= u64::from(member) << lane;
                    let into_bottom = c.locations().any(|l| {
                        c.dag()
                            .edges()
                            .any(|(u, v)| phi.get(l, v).is_none() && phi.get(l, u).is_some())
                    });
                    seen[match (member, phi.is_valid_for(&c), into_bottom) {
                        (true, ..) => 0,
                        (false, true, false) => 1,
                        (false, true, true) => 2,
                        (false, false, _) => 3,
                    }] += 1;
                }
                assert_eq!(lc_lanes(&c, &pack, &mut ls), want, "{c:?}, {lanes} lanes");
            }
        }
        assert!(seen.iter().all(|&k| k > 500), "lane mix too thin: {seen:?}");
    }
}
