//! Computations: a dag plus an op labelling (Definition 1).
//!
//! A [`Computation`] is immutable; the paper's growth operations
//! (*extension* by one node, *augmentation* per Definition 11) produce new
//! values. Reachability and the per-location write index are computed once
//! at construction, so precedence queries and "all writes to l" are cheap
//! everywhere downstream.

use crate::error::CoreError;
use crate::op::{Location, Op};
use ccmm_dag::bitset::BitSet;
use ccmm_dag::{Dag, NodeId, Reachability};

/// A computation `C = (G, op)` — Definition 1 of the paper.
#[derive(Clone)]
pub struct Computation {
    dag: Dag,
    ops: Vec<Op>,
    reach: Reachability,
    /// `writes[l]` = nodes with `op = W(l)`, ascending.
    writes: Vec<Vec<NodeId>>,
    num_locations: usize,
}

impl Computation {
    /// Builds a computation from a dag and one op per node.
    pub fn new(dag: Dag, ops: Vec<Op>) -> Result<Self, CoreError> {
        if dag.node_count() != ops.len() {
            return Err(CoreError::OpCountMismatch { nodes: dag.node_count(), ops: ops.len() });
        }
        let num_locations =
            ops.iter().filter_map(|o| o.location()).map(|l| l.index() + 1).max().unwrap_or(0);
        let mut writes = vec![Vec::new(); num_locations];
        for (i, op) in ops.iter().enumerate() {
            if let Op::Write(l) = op {
                writes[l.index()].push(NodeId::new(i));
            }
        }
        let reach = Reachability::new(&dag);
        Ok(Computation { dag, ops, reach, writes, num_locations })
    }

    /// Convenience constructor from an edge list and ops.
    pub fn from_edges(n: usize, edges: &[(usize, usize)], ops: Vec<Op>) -> Self {
        let dag = Dag::from_edges(n, edges).expect("invalid edge list");
        Computation::new(dag, ops).expect("op count mismatch")
    }

    /// The empty computation ε.
    pub fn empty() -> Self {
        Computation::new(Dag::empty(), Vec::new()).expect("empty computation is valid")
    }

    /// The underlying dag.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The precomputed precedence relation.
    #[inline]
    pub fn reach(&self) -> &Reachability {
        &self.reach
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Whether this is the empty computation.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Iterates over the nodes.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        self.dag.nodes()
    }

    /// The op at node `u`.
    #[inline]
    pub fn op(&self, u: NodeId) -> Op {
        self.ops[u.index()]
    }

    /// All ops, indexed by node.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// One more than the largest location index mentioned by any op.
    #[inline]
    pub fn num_locations(&self) -> usize {
        self.num_locations
    }

    /// Iterates over the locations `0..num_locations`.
    pub fn locations(&self) -> impl Iterator<Item = Location> {
        (0..self.num_locations).map(Location::new)
    }

    /// The nodes writing to `l`, ascending. Empty for out-of-range `l`.
    pub fn writes_to(&self, l: Location) -> &[NodeId] {
        self.writes.get(l.index()).map_or(&[], Vec::as_slice)
    }

    /// Strict precedence `u ≺ v`.
    #[inline]
    pub fn precedes(&self, u: NodeId, v: NodeId) -> bool {
        self.reach.reaches(u, v)
    }

    /// Reflexive precedence `u ⪯ v`.
    #[inline]
    pub fn precedes_eq(&self, u: NodeId, v: NodeId) -> bool {
        self.reach.reaches_eq(u, v)
    }

    /// Re-points this computation at a new dag **in place**, reusing the
    /// reachability bitset storage ([`Reachability::rebuild`]) — the sweep
    /// engine keeps one scratch `Computation` per worker and retargets it
    /// once per poset task, so reachability is computed once per (canonical)
    /// dag and shared by every op labelling of it, and the per-labelling
    /// hot loop performs no `Reachability::new`. Ops are reset to `Nop`;
    /// callers must follow with [`refresh_ops`] before use.
    ///
    /// [`refresh_ops`]: Computation::refresh_ops
    pub(crate) fn retarget(&mut self, dag: &Dag) {
        self.dag.clone_from(dag);
        self.reach.rebuild(&self.dag);
        self.ops.clear();
        self.ops.resize(self.dag.node_count(), Op::Nop);
        for w in &mut self.writes {
            w.clear();
        }
        self.num_locations = 0;
    }

    /// Replaces the op labelling **in place** (same node count), reusing
    /// the write-index storage. `writes` may keep empty trailing entries
    /// beyond `num_locations`; [`writes_to`] tolerates that, and equality,
    /// hashing, and serialization ignore derived fields entirely.
    ///
    /// [`writes_to`]: Computation::writes_to
    pub(crate) fn refresh_ops(&mut self, ops: &[Op]) {
        debug_assert_eq!(ops.len(), self.dag.node_count());
        self.ops.clear();
        self.ops.extend_from_slice(ops);
        self.num_locations =
            ops.iter().filter_map(|o| o.location()).map(|l| l.index() + 1).max().unwrap_or(0);
        for w in &mut self.writes {
            w.clear();
        }
        if self.writes.len() < self.num_locations {
            self.writes.resize(self.num_locations, Vec::new());
        }
        for (i, op) in ops.iter().enumerate() {
            if let Op::Write(l) = op {
                self.writes[l.index()].push(NodeId::new(i));
            }
        }
    }

    /// The paper's *extension* of this computation by op `o`: one new node
    /// with the given direct predecessors.
    ///
    /// Clones the entire computation and rebuilds reachability from
    /// scratch — O(n²) per call. Incremental consumers (the online game,
    /// streaming checkers) should use [`push`](Computation::push) instead.
    pub fn extend(&self, preds: &[NodeId], o: Op) -> Computation {
        crate::telemetry::count(crate::telemetry::Counter::DagClones, 1);
        let dag = self.dag.extend_with(preds).expect("extension preds in range");
        let mut ops = self.ops.clone();
        ops.push(o);
        Computation::new(dag, ops).expect("extension preserves op count")
    }

    /// The *augmented computation* `aug_o(C)` (Definition 11): a new final
    /// node, successor of every existing node, labelled `o`.
    pub fn augment(&self, o: Op) -> Computation {
        crate::telemetry::count(crate::telemetry::Counter::DagClones, 1);
        let dag = self.dag.augment();
        let mut ops = self.ops.clone();
        ops.push(o);
        Computation::new(dag, ops).expect("augmentation preserves op count")
    }

    /// Extends this computation **in place** by one node labelled `o` with
    /// the given direct predecessors: the dag gains the node, reachability
    /// is extended incrementally ([`Reachability::extend`]), and the write
    /// index and location count are updated — no clone, no closure rebuild.
    /// Amortized O(degree + n/64) per call versus O(n²) for
    /// [`extend`](Computation::extend).
    ///
    /// On error (a predecessor out of range) the computation is unchanged.
    pub fn push(&mut self, preds: &[NodeId], o: Op) -> Result<NodeId, CoreError> {
        let new = self.dag.push_node(preds).map_err(CoreError::Dag)?;
        let appended = self.reach.extend(self.dag.predecessors(new));
        debug_assert_eq!(appended, new);
        self.ops.push(o);
        if let Some(l) = o.location() {
            if l.index() >= self.num_locations {
                self.num_locations = l.index() + 1;
            }
            if self.writes.len() < self.num_locations {
                self.writes.resize(self.num_locations, Vec::new());
            }
        }
        if let Op::Write(l) = o {
            self.writes[l.index()].push(new);
        }
        Ok(new)
    }

    /// Undoes the most recent [`push`](Computation::push), restoring the
    /// previous computation (LIFO), location count included. The write
    /// index may keep a trailing empty entry, which
    /// [`writes_to`](Computation::writes_to) tolerates. No-op on the empty
    /// computation.
    pub fn pop_last(&mut self) {
        let Some(op) = self.ops.pop() else { return };
        if let Op::Write(l) = op {
            let popped = self.writes[l.index()].pop();
            debug_assert_eq!(popped, Some(NodeId::new(self.dag.node_count() - 1)));
        }
        if op.location().is_some_and(|l| l.index() + 1 == self.num_locations) {
            self.num_locations = self
                .ops
                .iter()
                .filter_map(|o| o.location())
                .map(|l| l.index() + 1)
                .max()
                .unwrap_or(0);
        }
        self.reach.shrink_last();
        self.dag.pop_node();
    }

    /// The node added by the most recent extension/augmentation — by
    /// convention the highest-indexed node (`final(C)` in Definition 11,
    /// when called on an augmented computation).
    pub fn last_node(&self) -> Option<NodeId> {
        let n = self.node_count();
        (n > 0).then(|| NodeId::new(n - 1))
    }

    /// The subcomputation induced by `keep`, renumbered densely; `None` if
    /// `keep` is not downward-closed (not a prefix). Also returns the map
    /// from new index to old node.
    pub fn prefix(&self, keep: &BitSet) -> Option<(Computation, Vec<NodeId>)> {
        if !self.dag.is_prefix_set(keep) {
            return None;
        }
        let (sub, old_of_new) = self.dag.induced_subgraph(keep);
        let ops = old_of_new.iter().map(|&u| self.ops[u.index()]).collect();
        let c = Computation::new(sub, ops).expect("induced subgraph preserves op count");
        Some((c, old_of_new))
    }

    /// All prefixes obtained by deleting exactly one maximal node, as
    /// `(prefix, deleted_node)` pairs. Deleting the highest-indexed maximal
    /// node leaves node numbering intact, but in general the prefix is
    /// renumbered; the returned map is implied by order preservation.
    pub fn one_node_prefixes(&self) -> Vec<(Computation, NodeId)> {
        let mut out = Vec::new();
        for m in self.dag.leaves() {
            let mut keep = BitSet::full(self.node_count());
            keep.remove(m.index());
            let (p, _) = self.prefix(&keep).expect("removing a maximal node keeps a prefix");
            out.push((p, m));
        }
        out
    }

    /// The computation with one dag edge removed (a one-step *relaxation*),
    /// or `None` if the edge is absent.
    pub fn without_edge(&self, u: NodeId, v: NodeId) -> Option<Computation> {
        let dag = self.dag.without_edge(u, v)?;
        Some(Computation::new(dag, self.ops.clone()).expect("relaxation preserves op count"))
    }

    /// Whether `self` is a relaxation of `other` (same nodes and ops,
    /// `E(self) ⊆ E(other)`).
    pub fn is_relaxation_of(&self, other: &Computation) -> bool {
        self.ops == other.ops && self.dag.is_relaxation_of(&other.dag)
    }

    /// Graphviz rendering with `op` labels.
    pub fn to_dot(&self, name: &str) -> String {
        ccmm_dag::dot::to_dot(&self.dag, name, |u| Some(format!("{}: {}", u, self.op(u))))
    }
}

/// Serialized form: the dag's edge list plus the op labelling (derived
/// fields are rebuilt on deserialization).
struct ComputationRepr {
    nodes: usize,
    edges: Vec<(u32, u32)>,
    ops: Vec<Op>,
}

serde::impl_serde_struct!(ComputationRepr { nodes, edges, ops });

impl serde::Serialize for Computation {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ComputationRepr {
            nodes: self.node_count(),
            edges: self.dag.edges().map(|(u, v)| (u.0, v.0)).collect(),
            ops: self.ops.clone(),
        }
        .serialize(s)
    }
}

impl<'de> serde::Deserialize<'de> for Computation {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let repr = ComputationRepr::deserialize(d)?;
        let edges: Vec<(usize, usize)> =
            repr.edges.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        let dag = Dag::from_edges(repr.nodes, &edges).map_err(serde::de::Error::custom)?;
        Computation::new(dag, repr.ops).map_err(serde::de::Error::custom)
    }
}

impl PartialEq for Computation {
    fn eq(&self, other: &Self) -> bool {
        self.dag == other.dag && self.ops == other.ops
    }
}

impl Eq for Computation {}

impl std::hash::Hash for Computation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The derived fields (reach, writes, num_locations) are functions
        // of (dag, ops); hashing the edge list and ops suffices.
        self.dag.node_count().hash(state);
        for (u, v) in self.dag.edges() {
            (u.index(), v.index()).hash(state);
        }
        self.ops.hash(state);
    }
}

impl std::fmt::Debug for Computation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Computation(ops=[")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}:{op}")?;
        }
        write!(f, "], edges=[")?;
        for (i, (u, v)) in self.dag.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}->{}", u.index(), v.index())?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    /// W(0) -> R(0) -> N chain.
    fn chain3() -> Computation {
        Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Nop],
        )
    }

    #[test]
    fn new_rejects_op_mismatch() {
        let dag = Dag::edgeless(2);
        assert!(matches!(
            Computation::new(dag, vec![Op::Nop]),
            Err(CoreError::OpCountMismatch { nodes: 2, ops: 1 })
        ));
    }

    #[test]
    fn empty_computation() {
        let c = Computation::empty();
        assert!(c.is_empty());
        assert_eq!(c.num_locations(), 0);
        assert_eq!(c.last_node(), None);
    }

    #[test]
    fn writes_index() {
        let c = Computation::from_edges(
            4,
            &[],
            vec![Op::Write(l(0)), Op::Write(l(1)), Op::Write(l(0)), Op::Read(l(1))],
        );
        assert_eq!(c.writes_to(l(0)), &[n(0), n(2)]);
        assert_eq!(c.writes_to(l(1)), &[n(1)]);
        assert_eq!(c.writes_to(l(5)), &[] as &[NodeId]);
        assert_eq!(c.num_locations(), 2);
    }

    #[test]
    fn precedence_queries() {
        let c = chain3();
        assert!(c.precedes(n(0), n(2)));
        assert!(!c.precedes(n(2), n(0)));
        assert!(c.precedes_eq(n(1), n(1)));
    }

    #[test]
    fn extend_appends_op() {
        let c = chain3();
        let e = c.extend(&[n(2)], Op::Read(l(0)));
        assert_eq!(e.node_count(), 4);
        assert_eq!(e.op(n(3)), Op::Read(l(0)));
        assert!(e.precedes(n(0), n(3)));
    }

    #[test]
    fn augment_matches_definition_11() {
        let c = Computation::from_edges(2, &[], vec![Op::Nop, Op::Nop]);
        let a = c.augment(Op::Write(l(0)));
        assert_eq!(a.node_count(), 3);
        let fin = a.last_node().unwrap();
        assert_eq!(a.op(fin), Op::Write(l(0)));
        assert!(a.precedes(n(0), fin));
        assert!(a.precedes(n(1), fin));
    }

    #[test]
    fn prefix_requires_downward_closure() {
        let c = chain3();
        let mut keep = BitSet::new(3);
        keep.insert(1); // missing node 0
        assert!(c.prefix(&keep).is_none());
        keep.insert(0);
        let (p, map) = c.prefix(&keep).unwrap();
        assert_eq!(p.node_count(), 2);
        assert_eq!(map, vec![n(0), n(1)]);
        assert_eq!(p.op(n(1)), Op::Read(l(0)));
    }

    #[test]
    fn one_node_prefixes_drop_each_maximal() {
        let c = Computation::from_edges(3, &[(0, 1), (0, 2)], vec![Op::Nop, Op::Nop, Op::Nop]);
        let ps = c.one_node_prefixes();
        assert_eq!(ps.len(), 2);
        let dropped: Vec<NodeId> = ps.iter().map(|(_, m)| *m).collect();
        assert_eq!(dropped, vec![n(1), n(2)]);
        for (p, _) in &ps {
            assert_eq!(p.node_count(), 2);
        }
    }

    #[test]
    fn relaxation_relation() {
        let c = chain3();
        let r = c.without_edge(n(0), n(1)).unwrap();
        assert!(r.is_relaxation_of(&c));
        assert!(!c.is_relaxation_of(&r));
        // Different ops are not relaxations.
        let other = Computation::from_edges(3, &[], vec![Op::Nop, Op::Nop, Op::Nop]);
        assert!(!other.is_relaxation_of(&c));
    }

    #[test]
    fn equality_and_hash_ignore_derived_fields() {
        use std::collections::HashSet;
        let a = chain3();
        let b = chain3();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn retarget_and_refresh_match_fresh_construction() {
        // One scratch computation driven through several shapes/labellings
        // must be indistinguishable from freshly constructed values,
        // including all derived fields.
        let cases: Vec<Computation> = vec![
            chain3(),
            Computation::from_edges(2, &[], vec![Op::Write(l(1)), Op::Read(l(1))]),
            Computation::empty(),
            Computation::from_edges(
                4,
                &[(0, 1), (0, 2), (1, 3), (2, 3)],
                vec![Op::Write(l(0)), Op::Write(l(2)), Op::Read(l(2)), Op::Nop],
            ),
            Computation::from_edges(1, &[], vec![Op::Read(l(0))]),
        ];
        let mut scratch = Computation::empty();
        for fresh in &cases {
            scratch.retarget(fresh.dag());
            scratch.refresh_ops(fresh.ops());
            assert_eq!(&scratch, fresh);
            assert_eq!(scratch.num_locations(), fresh.num_locations());
            for loc in 0..4 {
                assert_eq!(scratch.writes_to(l(loc)), fresh.writes_to(l(loc)), "loc {loc}");
            }
            for u in fresh.nodes() {
                for v in fresh.nodes() {
                    assert_eq!(scratch.precedes(u, v), fresh.precedes(u, v), "{u} ≺ {v}");
                }
            }
        }
    }

    #[test]
    fn push_matches_extend_and_pop_last_undoes_it() {
        // Drive one computation through a sequence of in-place pushes and
        // compare against the clone-based extend at every step, including
        // derived state (precedence, write index, location count).
        let steps: Vec<(Vec<usize>, Op)> = vec![
            (vec![], Op::Write(l(0))),
            (vec![0], Op::Read(l(0))),
            (vec![0], Op::Write(l(2))),
            (vec![1, 2], Op::Nop),
            (vec![3], Op::Write(l(1))),
            (vec![2, 4], Op::Read(l(2))),
        ];
        let mut inc = Computation::empty();
        let mut model = Computation::empty();
        let mut snapshots = vec![inc.clone()];
        for (preds, op) in &steps {
            let preds: Vec<NodeId> = preds.iter().map(|&i| n(i)).collect();
            model = model.extend(&preds, *op);
            let new = inc.push(&preds, *op).unwrap();
            assert_eq!(Some(new), model.last_node());
            assert_eq!(inc, model);
            assert_eq!(inc.num_locations(), model.num_locations());
            for loc in 0..inc.num_locations() {
                assert_eq!(inc.writes_to(l(loc)), model.writes_to(l(loc)), "loc {loc}");
            }
            for u in model.nodes() {
                for v in model.nodes() {
                    assert_eq!(inc.precedes(u, v), model.precedes(u, v), "{u} ≺ {v}");
                }
            }
            snapshots.push(inc.clone());
        }
        // pop_last walks back through every snapshot (derived fields may
        // keep extra capacity, so compare semantically).
        for snap in snapshots.iter().rev().skip(1) {
            inc.pop_last();
            assert_eq!(&inc, snap);
            assert_eq!(inc.num_locations(), snap.num_locations());
            for loc in 0..snap.num_locations() {
                assert_eq!(inc.writes_to(l(loc)), snap.writes_to(l(loc)));
            }
            for u in snap.nodes() {
                for v in snap.nodes() {
                    assert_eq!(inc.precedes(u, v), snap.precedes(u, v));
                }
            }
        }
        assert!(inc.is_empty());
        inc.pop_last(); // no-op on empty
        assert!(inc.is_empty());
    }

    #[test]
    fn push_rejects_out_of_range_and_leaves_computation_unchanged() {
        let mut c = chain3();
        let before = c.clone();
        assert!(matches!(
            c.push(&[n(7)], Op::Nop),
            Err(CoreError::Dag(ccmm_dag::DagError::NodeOutOfRange { node: 7, n: 3 }))
        ));
        assert_eq!(c, before);
        assert_eq!(c.writes_to(l(0)), before.writes_to(l(0)));
    }

    #[test]
    fn dot_contains_ops() {
        let c = chain3();
        let dot = c.to_dot("c");
        assert!(dot.contains("W(l0)"));
        assert!(dot.contains("R(l0)"));
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::op::Location;

    #[test]
    fn computation_json_roundtrip() {
        let c = Computation::from_edges(
            3,
            &[(0, 1), (0, 2)],
            vec![Op::Write(Location::new(0)), Op::Read(Location::new(0)), Op::Nop],
        );
        let json = serde_json::to_string(&c).unwrap();
        let back: Computation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.num_locations(), 1);
        assert!(back.precedes(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn observer_json_roundtrip() {
        let c = Computation::from_edges(
            2,
            &[(0, 1)],
            vec![Op::Write(Location::new(0)), Op::Read(Location::new(0))],
        );
        let phi = crate::observer::ObserverFunction::base(&c).with(
            Location::new(0),
            NodeId::new(1),
            Some(NodeId::new(0)),
        );
        let json = serde_json::to_string(&phi).unwrap();
        let back: crate::observer::ObserverFunction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, phi);
        assert!(back.is_valid_for(&c));
    }

    #[test]
    fn deserialize_rejects_cyclic_edges() {
        let bad = r#"{"nodes":2,"edges":[[0,1],[1,0]],"ops":["Nop","Nop"]}"#;
        assert!(serde_json::from_str::<Computation>(bad).is_err());
    }
}
