//! Incremental (delta) flexibility estimation for the lattice search.
//!
//! The branch-and-bound enumeration walks the allocation lattice one unit
//! at a time: each DFS step adds or removes a single unit from the current
//! subset. Recomputing [`estimate_with_compiled`] from scratch at every
//! node costs a full traversal of the problem hierarchy; this module
//! maintains the estimate's *feasibility skeleton* under single-unit
//! deltas instead, so each step is `O(|vertices covered by the unit|)` and
//! the feasibility question is `O(1)`.
//!
//! # Representation
//!
//! [`DeltaIndex`] compiles, once per enumeration:
//!
//! * an inverted coverage table — for each unit, the problem vertices it
//!   can implement (the transpose of [`UnitMasks::coverage`]),
//! * the hierarchy topology as flat arrays — each vertex's and interface's
//!   enclosing scope, each cluster's parent interface,
//! * the initial counter state for the empty allocation.
//!
//! [`DeltaEstimator`] then tracks, per cluster, a single `blockers` count
//! (unbindable direct processes + direct interfaces with no activatable
//! cluster); a cluster is activatable iff `blockers == 0`. Pushing a unit
//! increments the support count of every vertex it covers; a `0 → 1` flip
//! removes a blocker from the vertex's scope, which may flip the enclosing
//! cluster to activatable and propagate up the hierarchy. Popping reverses
//! the walk exactly, so push/pop pairs restore the state bit for bit.
//!
//! # Contract with the non-incremental estimate
//!
//! [`DeltaEstimator::feasible`] equals the `feasible` flag of
//! [`estimate_with_compiled`] on the tracked mask's available vertices, and
//! [`DeltaEstimator::materialize`] reproduces the full
//! [`FlexibilityEstimate`] *byte for byte*: it re-runs the same
//! short-circuiting traversal over the index's flattened topology arrays,
//! with the per-vertex bindability checks replaced by the tracked `O(1)`
//! counters (which agree with `coverage(v) ∩ mask ≠ ∅` by construction) —
//! no hierarchy iterators and no per-node allocations. Units outside
//! [`UnitMasks::estimate_relevant_mask`] cover no vertex, so pushing them
//! is a state no-op — memoizing on `mask ∩ estimate_relevant` stays sound.
//!
//! [`estimate_with_compiled`]: crate::estimate_with_compiled

use crate::estimate::FlexibilityEstimate;
use crate::metric::Flexibility;
use flexplore_hgraph::{ClusterId, NodeRef, Scope};
use flexplore_spec::{CompiledSpec, UnitMask, UnitMasks};
use std::collections::BTreeSet;

/// Scope of a vertex or interface, flattened for array indexing: `None`
/// is the top level, `Some(c)` the cluster with arena index `c`.
type ScopeSlot = Option<u32>;

/// Immutable side tables for delta estimation over a fixed unit universe.
///
/// Built once per enumeration by [`DeltaIndex::new`]; many
/// [`DeltaEstimator`]s (e.g. one per worker thread) can borrow the same
/// index concurrently.
#[derive(Debug)]
pub struct DeltaIndex<'a> {
    compiled: &'a CompiledSpec<'a>,
    /// Per unit: indices of the problem vertices it covers.
    unit_covers: Vec<Vec<u32>>,
    /// Per problem vertex: its enclosing scope.
    vertex_scope: Vec<ScopeSlot>,
    /// Per cluster: its parent interface's arena index.
    cluster_interface: Vec<u32>,
    /// Per interface: its enclosing scope.
    interface_scope: Vec<ScopeSlot>,
    /// Per cluster: its direct interfaces, in hierarchy iteration order.
    cluster_interfaces: Vec<Vec<u32>>,
    /// Per interface: its clusters, in hierarchy iteration order.
    interface_clusters: Vec<Vec<u32>>,
    /// The top-level interfaces, in hierarchy iteration order.
    top_interfaces: Vec<u32>,
    /// Arena index → [`ClusterId`], for building the activatable set.
    cluster_ids: Vec<ClusterId>,
    /// Counter state for the empty allocation.
    init_blockers: Vec<u32>,
    init_vertex_blockers: Vec<u32>,
    init_ok_children: Vec<u32>,
    init_top_blockers: u32,
}

impl<'a> DeltaIndex<'a> {
    /// Compiles the inverted coverage table and hierarchy topology of the
    /// problem graph for the unit universe described by `masks`.
    #[must_use]
    pub fn new(compiled: &'a CompiledSpec<'a>, masks: &UnitMasks) -> Self {
        let graph = compiled.spec().problem().graph();
        let mut unit_covers = vec![Vec::new(); masks.unit_count()];
        let mut vertex_scope = vec![None; graph.vertex_count()];
        for v in graph.vertex_ids() {
            for k in masks.coverage(v).iter_ones() {
                unit_covers[k].push(v.index() as u32);
            }
            vertex_scope[v.index()] = match graph.scope_of(NodeRef::Vertex(v)) {
                Scope::Top => None,
                Scope::Cluster(c) => Some(c.index() as u32),
            };
        }
        let cluster_interface = graph
            .cluster_ids()
            .map(|c| graph.interface_of(c).index() as u32)
            .collect();
        let interface_scope = graph
            .interface_ids()
            .map(|i| match graph.scope_of(NodeRef::Interface(i)) {
                Scope::Top => None,
                Scope::Cluster(c) => Some(c.index() as u32),
            })
            .collect();

        // Flattened topology, preserving the hierarchy's iteration order so
        // the materialized traversal visits (and short-circuits) exactly
        // like the non-incremental estimate.
        let mut interface_clusters = vec![Vec::new(); graph.interface_count()];
        for i in graph.interface_ids() {
            interface_clusters[i.index()] = graph
                .clusters_of(i)
                .iter()
                .map(|c| c.index() as u32)
                .collect();
        }
        let mut cluster_interfaces = vec![Vec::new(); graph.cluster_count()];
        let mut init_vertex_blockers = vec![0u32; graph.cluster_count()];
        let cluster_ids: Vec<ClusterId> = graph.cluster_ids().collect();
        for &c in &cluster_ids {
            let scope = Scope::Cluster(c);
            cluster_interfaces[c.index()] = graph
                .interfaces_in(scope)
                .map(|i| i.index() as u32)
                .collect();
            init_vertex_blockers[c.index()] = graph.vertices_in(scope).count() as u32;
        }
        let top_interfaces: Vec<u32> = graph
            .interfaces_in(Scope::Top)
            .map(|i| i.index() as u32)
            .collect();

        // Empty-allocation counters, bottom-up: every process is
        // unbindable, so a cluster starts with one blocker per direct
        // process plus one per direct interface that has no activatable
        // cluster (a process-free, interface-free cluster is activatable
        // from the start).
        let mut init_blockers = vec![0u32; graph.cluster_count()];
        let mut init_ok_children = vec![0u32; graph.interface_count()];
        fn cluster_ok<N, E>(
            graph: &flexplore_hgraph::HierarchicalGraph<N, E>,
            blockers: &mut [u32],
            ok_children: &mut [u32],
            cluster: flexplore_hgraph::ClusterId,
        ) -> bool {
            let scope = Scope::Cluster(cluster);
            let mut count = graph.vertices_in(scope).count() as u32;
            let interfaces: Vec<_> = graph.interfaces_in(scope).collect();
            for i in interfaces {
                let mut ok = 0u32;
                let clusters = graph.clusters_of(i).to_vec();
                for c in clusters {
                    if cluster_ok(graph, blockers, ok_children, c) {
                        ok += 1;
                    }
                }
                ok_children[i.index()] = ok;
                if ok == 0 {
                    count += 1;
                }
            }
            blockers[cluster.index()] = count;
            count == 0
        }
        let mut init_top_blockers = graph.vertices_in(Scope::Top).count() as u32;
        let top_ids: Vec<_> = graph.interfaces_in(Scope::Top).collect();
        for i in top_ids {
            let mut ok = 0u32;
            let clusters = graph.clusters_of(i).to_vec();
            for c in clusters {
                if cluster_ok(graph, &mut init_blockers, &mut init_ok_children, c) {
                    ok += 1;
                }
            }
            init_ok_children[i.index()] = ok;
            if ok == 0 {
                init_top_blockers += 1;
            }
        }

        DeltaIndex {
            compiled,
            unit_covers,
            vertex_scope,
            cluster_interface,
            interface_scope,
            cluster_interfaces,
            interface_clusters,
            top_interfaces,
            cluster_ids,
            init_blockers,
            init_vertex_blockers,
            init_ok_children,
            init_top_blockers,
        }
    }

    /// The compiled specification the index was built over.
    #[must_use]
    pub fn compiled(&self) -> &'a CompiledSpec<'a> {
        self.compiled
    }

    /// The problem vertices unit `k` covers, as dense `VertexId::index()`
    /// values — the inverted coverage table the static lattice analysis
    /// reuses to reason about sole coverage and coverage containment.
    #[must_use]
    pub fn unit_covers(&self, k: usize) -> &[u32] {
        &self.unit_covers[k]
    }
}

/// Mutable estimate state tracking one allocation mask under single-unit
/// push/pop deltas along a DFS path.
#[derive(Debug, Clone)]
pub struct DeltaEstimator<'a> {
    index: &'a DeltaIndex<'a>,
    /// Per problem vertex: number of tracked units covering it.
    support: Vec<u32>,
    /// Per cluster: unbindable direct processes + dead direct interfaces.
    blockers: Vec<u32>,
    /// Per cluster: unbindable direct processes alone — the materialized
    /// traversal's `O(1)` stand-in for the per-vertex bindability scan.
    vertex_blockers: Vec<u32>,
    /// Per interface: number of activatable clusters.
    ok_children: Vec<u32>,
    top_blockers: u32,
    pushes: u64,
}

impl<'a> DeltaEstimator<'a> {
    /// A fresh estimator tracking the empty allocation.
    #[must_use]
    pub fn new(index: &'a DeltaIndex<'a>) -> Self {
        DeltaEstimator {
            index,
            support: vec![0; index.vertex_scope.len()],
            blockers: index.init_blockers.clone(),
            vertex_blockers: index.init_vertex_blockers.clone(),
            ok_children: index.init_ok_children.clone(),
            top_blockers: index.init_top_blockers,
            pushes: 0,
        }
    }

    /// Adds unit `k` to the tracked mask. Pushing a unit twice is allowed
    /// (support counts stack); each push must be balanced by one
    /// [`DeltaEstimator::pop_unit`].
    pub fn push_unit(&mut self, k: usize) {
        self.pushes += 1;
        let covers = &self.index.unit_covers[k];
        for &vi in covers {
            let s = &mut self.support[vi as usize];
            *s += 1;
            if *s == 1 {
                let scope = self.index.vertex_scope[vi as usize];
                if let Some(c) = scope {
                    self.vertex_blockers[c as usize] -= 1;
                }
                self.remove_blocker(scope);
            }
        }
    }

    /// Removes one push of unit `k` from the tracked mask.
    pub fn pop_unit(&mut self, k: usize) {
        let covers = &self.index.unit_covers[k];
        for &vi in covers {
            let s = &mut self.support[vi as usize];
            *s -= 1;
            if *s == 0 {
                let scope = self.index.vertex_scope[vi as usize];
                if let Some(c) = scope {
                    self.vertex_blockers[c as usize] += 1;
                }
                self.add_blocker(scope);
            }
        }
    }

    /// Pushes every unit in `mask` (one push per set bit).
    pub fn push_mask(&mut self, mask: UnitMask) {
        for k in mask.iter_ones() {
            self.push_unit(k);
        }
    }

    /// Pops every unit in `mask`, balancing one [`DeltaEstimator::push_mask`].
    pub fn pop_mask(&mut self, mask: UnitMask) {
        for k in mask.iter_ones() {
            self.pop_unit(k);
        }
    }

    /// `true` iff the tracked allocation supports a complete activation —
    /// equals `estimate_with_compiled(..).feasible` for the tracked mask,
    /// in `O(1)`.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.top_blockers == 0
    }

    /// Number of unit pushes applied over this estimator's lifetime.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Recomputes the full estimate for the tracked mask. Byte-identical
    /// to [`estimate_with_compiled`] at the same mask: the traversal is
    /// the same short-circuiting recursion, but over the index's flattened
    /// topology with every per-vertex scan replaced by a tracked counter —
    /// `O(explored clusters)` instead of a full hierarchy walk.
    ///
    /// [`estimate_with_compiled`]: crate::estimate_with_compiled
    #[must_use]
    pub fn materialize(&self) -> FlexibilityEstimate {
        let mut activatable = BTreeSet::new();
        let mut active = vec![false; self.index.cluster_ids.len()];
        for &i in &self.index.top_interfaces {
            for &c in &self.index.interface_clusters[i as usize] {
                if self.explore(c as usize, &mut activatable, &mut active) {
                    activatable.insert(self.index.cluster_ids[c as usize]);
                    active[c as usize] = true;
                }
            }
        }
        let feasible = self.top_blockers == 0;
        let value = if feasible {
            self.scope_flex(&self.index.top_interfaces, &active)
                .unwrap_or(0)
        } else {
            0
        };
        FlexibilityEstimate {
            feasible,
            value,
            activatable,
        }
    }

    /// The `cluster_ok` recursion of the non-incremental estimate, answered
    /// from counters: returns whether cluster `c` is activatable, inserting
    /// every activatable cluster the original traversal would have reached
    /// (short-circuiting on unbindable direct processes and on the first
    /// dead interface, exactly like the original).
    fn explore(
        &self,
        c: usize,
        activatable: &mut BTreeSet<ClusterId>,
        active: &mut [bool],
    ) -> bool {
        if self.vertex_blockers[c] > 0 {
            return false;
        }
        for &i in &self.index.cluster_interfaces[c] {
            for &j in &self.index.interface_clusters[i as usize] {
                if self.explore(j as usize, activatable, active) {
                    activatable.insert(self.index.cluster_ids[j as usize]);
                    active[j as usize] = true;
                }
            }
            if self.ok_children[i as usize] == 0 {
                return false;
            }
        }
        true
    }

    /// Definition 4 over the flattened topology, restricted to the `active`
    /// clusters — mirrors `flexibility`'s normalized zero-propagation
    /// semantics node for node.
    fn scope_flex(&self, interfaces: &[u32], active: &[bool]) -> Option<Flexibility> {
        if interfaces.is_empty() {
            return Some(1);
        }
        let mut total: Flexibility = 0;
        for &i in interfaces {
            let mut sum: Flexibility = 0;
            for &c in &self.index.interface_clusters[i as usize] {
                if active[c as usize] {
                    if let Some(v) =
                        self.scope_flex(&self.index.cluster_interfaces[c as usize], active)
                    {
                        sum += v;
                    }
                }
            }
            if sum == 0 {
                return None;
            }
            total += sum;
        }
        Some(total - (interfaces.len() as Flexibility - 1))
    }

    /// Upper bound on the flexibility value without the activatable set
    /// (still a full traversal; prefer [`DeltaEstimator::feasible`] for
    /// interior lattice nodes).
    #[must_use]
    pub fn value(&self) -> Flexibility {
        self.materialize().value
    }

    fn remove_blocker(&mut self, scope: ScopeSlot) {
        match scope {
            None => self.top_blockers -= 1,
            Some(c) => {
                let c = c as usize;
                self.blockers[c] -= 1;
                if self.blockers[c] == 0 {
                    // Cluster flipped to activatable.
                    let i = self.index.cluster_interface[c] as usize;
                    self.ok_children[i] += 1;
                    if self.ok_children[i] == 1 {
                        // Interface flipped to alive.
                        self.remove_blocker(self.index.interface_scope[i]);
                    }
                }
            }
        }
    }

    fn add_blocker(&mut self, scope: ScopeSlot) {
        match scope {
            None => self.top_blockers += 1,
            Some(c) => {
                let c = c as usize;
                if self.blockers[c] == 0 {
                    // Cluster flips to blocked.
                    let i = self.index.cluster_interface[c] as usize;
                    self.ok_children[i] -= 1;
                    if self.ok_children[i] == 0 {
                        // Interface flips to dead.
                        self.add_blocker(self.index.interface_scope[i]);
                    }
                }
                self.blockers[c] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{estimate_with_compiled, FlexibilityEstimate};
    use flexplore_sched::Time;
    use flexplore_spec::{
        allocation_from_units, ArchitectureGraph, Cost, ProblemGraph, SpecificationGraph, Unit,
        UnitMask,
    };

    /// The non-incremental oracle: the compiled estimator over the unit
    /// subset's expanded available vertices.
    fn full_estimate(
        compiled: &CompiledSpec<'_>,
        units: &[Unit],
        mask: UnitMask,
    ) -> FlexibilityEstimate {
        let allocation = allocation_from_units(units, mask);
        estimate_with_compiled(compiled, &compiled.available_vertices(&allocation))
    }

    /// Nested fixture: top process P, interface I {c1: v1, c2: v2,
    /// c3: {J {j1: w1, j2: w2}}}; cpu maps P/v1/w1, asic maps v2/w2, and a
    /// third non-target DSP exercises the irrelevant-unit no-op.
    fn spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let top = p.add_process(flexplore_hgraph::Scope::Top, "P");
        let i = p.add_interface(flexplore_hgraph::Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let c3 = p.add_cluster(i, "c3");
        let j = p.add_interface(c3.into(), "J");
        let j1 = p.add_cluster(j, "j1");
        let w1 = p.add_process(j1.into(), "w1");
        let j2 = p.add_cluster(j, "j2");
        let w2 = p.add_process(j2.into(), "w2");

        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(flexplore_hgraph::Scope::Top, "cpu", Cost::new(100));
        let asic = a.add_resource(flexplore_hgraph::Scope::Top, "asic", Cost::new(200));
        let _dsp = a.add_resource(flexplore_hgraph::Scope::Top, "dsp", Cost::new(50));

        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(top, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(v2, asic, Time::from_ns(1)).unwrap();
        s.add_mapping(w1, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(w2, asic, Time::from_ns(1)).unwrap();
        s
    }

    fn units_of(s: &SpecificationGraph) -> Vec<Unit> {
        s.architecture()
            .graph()
            .vertices_in(flexplore_hgraph::Scope::Top)
            .map(Unit::Vertex)
            .collect()
    }

    #[test]
    fn fresh_estimator_matches_full_estimate_on_every_subset() {
        let s = spec();
        let compiled = CompiledSpec::new(&s);
        let units = units_of(&s);
        let masks = compiled.unit_masks(&units);
        let index = DeltaIndex::new(&compiled, &masks);
        for bits in 0u64..(1 << units.len()) {
            let mask = UnitMask::from_words([bits, 0, 0, 0]);
            let mut tracker = DeltaEstimator::new(&index);
            tracker.push_mask(mask);
            let full = full_estimate(&compiled, &units, mask);
            assert_eq!(tracker.feasible(), full.feasible, "mask {mask}");
            assert_eq!(tracker.materialize(), full, "mask {mask}");
        }
    }

    #[test]
    fn push_pop_walk_stays_in_sync_with_recompute() {
        let s = spec();
        let compiled = CompiledSpec::new(&s);
        let units = units_of(&s);
        let masks = compiled.unit_masks(&units);
        let index = DeltaIndex::new(&compiled, &masks);
        let mut tracker = DeltaEstimator::new(&index);
        let mut mask = UnitMask::empty();
        // Deterministic pseudo-random push/pop walk.
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let k = (lcg >> 33) as usize % units.len();
            if mask.test(k) {
                tracker.pop_unit(k);
                mask.clear(k);
            } else {
                tracker.push_unit(k);
                mask.set(k);
            }
            let full = full_estimate(&compiled, &units, mask);
            assert_eq!(tracker.feasible(), full.feasible, "mask {mask}");
            assert_eq!(tracker.materialize(), full, "mask {mask}");
        }
        assert!(tracker.pushes() > 0);
    }

    #[test]
    fn irrelevant_unit_push_is_a_state_noop() {
        let s = spec();
        let compiled = CompiledSpec::new(&s);
        let units = units_of(&s);
        let masks = compiled.unit_masks(&units);
        // The DSP is no mapping's target.
        let dsp = (0..units.len())
            .find(|&k| !masks.estimate_relevant_mask().test(k))
            .expect("fixture has an irrelevant unit");
        let index = DeltaIndex::new(&compiled, &masks);
        let mut tracker = DeltaEstimator::new(&index);
        tracker.push_mask(masks.estimate_relevant_mask());
        let before = tracker.materialize();
        let feasible_before = tracker.feasible();
        tracker.push_unit(dsp);
        assert_eq!(tracker.feasible(), feasible_before);
        assert_eq!(tracker.materialize(), before);
        tracker.pop_unit(dsp);
        assert_eq!(tracker.materialize(), before);
    }
}
