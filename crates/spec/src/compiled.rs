//! The compiled specification context: immutable, dense side tables built
//! **once** per [`SpecificationGraph`] and shared read-only by every
//! candidate design point of an exploration.
//!
//! The hot loop of the EXPLORE algorithm (Section 4 of the paper) asks the
//! same structural questions for every candidate allocation: which mapping
//! edges leave a process, which resources it can reach, which leaves a
//! design cluster contributes, what a cluster costs, how architecture links
//! resolve through device ports, and what the flattened problem graph and
//! inherited periods of an elementary cluster-activation look like. All of
//! these are functions of the specification alone — [`CompiledSpec`]
//! answers them from `Vec` side tables indexed by the dense arena ids
//! (see `Id::index()`), replacing per-candidate `BTreeMap`/`BTreeSet`
//! construction and repeated graph walks.
//!
//! Invariants (relied on by `flexplore-flex`, `flexplore-bind` and
//! `flexplore-explore` for bit-identical results vs. the uncompiled path):
//!
//! * `mappings_of(v)` lists the mapping edges of `v` sorted by latency with
//!   a **stable** sort, so filtering it by resource availability yields the
//!   same candidate order the binding solver derived on the fly.
//! * `reachable_resources(v)` is the sorted, deduplicated image of
//!   `SpecificationGraph::reachable_resources` (a `BTreeSet` iterates
//!   sorted, so iteration order matches).
//! * `arch_edge_endpoints()` resolves every architecture edge exactly like
//!   the communication-graph construction: a plain vertex denotes itself, a
//!   device interface denotes every design leaf of every cluster, in
//!   cluster/leaf order.
//! * [`CompiledActivation::periods`] equals the inherited-period fixed
//!   point of the binding layer, re-indexed densely by `VertexId::index()`.
//!
//! `CompiledSpec` holds only shared references and owned immutable data, so
//! it is `Sync` and can be borrowed concurrently by worker threads.

use crate::attrs::{Cost, ResourceKind};
use crate::spec::{MappingId, ResourceAllocation, SpecificationGraph};
use crate::unitmask::{UnitMask, MAX_UNITS};
use flexplore_hgraph::{ClusterId, FlatGraph, HgraphError, NodeRef, Selection, VertexId};
use flexplore_sched::Time;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on the number of elementary cluster-activations that are
/// eagerly flattened by [`CompiledSpec::with_activation_cache`]; larger
/// specifications fall back to on-demand compilation per activation.
const MAX_CACHED_ACTIVATIONS: u128 = 4096;

/// One allocatable unit: a top-level architecture resource or a whole
/// design cluster of a reconfigurable device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Unit {
    /// A top-level resource (functional or communication).
    Vertex(VertexId),
    /// A design cluster of a reconfigurable device.
    Cluster(ClusterId),
}

/// Returns the allocatable units of a specification in their canonical
/// order: top-level architecture vertices first, then all design clusters.
/// Every mask-addressed API (the enumerators, the evolutionary genotypes,
/// the static lattice analysis) indexes this universe.
#[must_use]
pub fn allocatable_units(spec: &SpecificationGraph) -> Vec<Unit> {
    let graph = spec.architecture().graph();
    let mut units: Vec<Unit> = graph
        .vertices_in(flexplore_hgraph::Scope::Top)
        .map(Unit::Vertex)
        .collect();
    units.extend(graph.cluster_ids().map(Unit::Cluster));
    units
}

/// Expands a unit subset mask over its unit universe into the
/// [`ResourceAllocation`] it denotes: bit `k` of `mask` allocates
/// `units[k]`. The shared decode step between the enumerators, the
/// evolutionary genotypes and mask-addressed implement entry points.
///
/// # Panics
///
/// Panics when `mask` has a bit set at or beyond `units.len()`.
#[must_use]
pub fn allocation_from_units(units: &[Unit], mask: UnitMask) -> ResourceAllocation {
    let mut allocation = ResourceAllocation::new();
    for k in mask.iter_ones() {
        match units[k] {
            Unit::Vertex(v) => {
                allocation.vertices.insert(v);
            }
            Unit::Cluster(c) => {
                allocation.clusters.insert(c);
            }
        }
    }
    allocation
}

/// Bitmask-compiled side tables over a fixed unit universe: every
/// structural question the allocation lattice search asks per subset
/// (coverage, bus neighborhood, unusability, cost) becomes an AND/POPCNT
/// over [`UnitMask`]s whose bit `k` stands for `units[k]`.
///
/// Built once per enumeration by [`CompiledSpec::unit_masks`]; valid for at
/// most [`MAX_UNITS`] units (the enumeration layer rejects more before
/// compiling).
#[derive(Debug, Clone)]
pub struct UnitMasks {
    /// Number of units (occupied low bits of every mask).
    unit_count: usize,
    /// Per problem vertex (by `VertexId::index()`): the units contributing
    /// at least one resource the vertex can be mapped onto.
    coverage: Vec<UnitMask>,
    /// Per unit: the units a communication unit can link (empty for
    /// functional units).
    neighbors: Vec<UnitMask>,
    /// Units that are top-level communication resources.
    comm: UnitMask,
    /// Units that cannot serve any mapping: functional vertices targeted by
    /// no mapping edge, and clusters whose leaves are all untargeted.
    unusable: UnitMask,
    /// Units contributing at least one mapping-target resource — the only
    /// bits the flexibility estimate can depend on.
    estimate_relevant: UnitMask,
    /// Per unit: its allocation cost.
    costs: Vec<Cost>,
}

impl UnitMasks {
    /// Number of units (every mask uses exactly the low `unit_count` bits).
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.unit_count
    }

    /// The units that can implement problem vertex `v` (empty for unknown
    /// ids, matching an empty reachable-resource list).
    #[must_use]
    pub fn coverage(&self, v: VertexId) -> UnitMask {
        self.coverage
            .get(v.index())
            .copied()
            .unwrap_or(UnitMask::empty())
    }

    /// The potential neighbor units of unit `k` (nonempty only for
    /// communication units).
    #[must_use]
    pub fn neighbors(&self, k: usize) -> UnitMask {
        self.neighbors[k]
    }

    /// Mask of top-level communication units.
    #[must_use]
    pub fn comm_mask(&self) -> UnitMask {
        self.comm
    }

    /// Mask of units no mapping edge can use.
    #[must_use]
    pub fn unusable_mask(&self) -> UnitMask {
        self.unusable
    }

    /// Mask of units the flexibility estimate can depend on; two subsets
    /// agreeing on these bits have identical estimates.
    #[must_use]
    pub fn estimate_relevant_mask(&self) -> UnitMask {
        self.estimate_relevant
    }

    /// Allocation cost of unit `k`.
    #[must_use]
    pub fn cost(&self, k: usize) -> Cost {
        self.costs[k]
    }

    /// Summed allocation cost of every unit in `mask`.
    #[must_use]
    pub fn mask_cost(&self, mask: UnitMask) -> Cost {
        let mut total = Cost::new(0);
        for k in mask.iter_ones() {
            total += self.costs[k];
        }
        total
    }
}

/// One precompiled elementary cluster-activation: the flattened problem
/// graph and the dense inherited-period table.
#[derive(Debug, Clone)]
pub struct CompiledActivation {
    /// The problem graph flattened under the activation's selection.
    pub flat: FlatGraph,
    /// Inherited period per problem vertex, indexed by `VertexId::index()`
    /// over the **full** problem arena; vertices outside the flattened
    /// graph (and unconstrained ones) hold `None`.
    pub periods: Vec<Option<Time>>,
}

impl CompiledActivation {
    /// Flattens `spec`'s problem graph under `selection` and runs the
    /// inherited-period fixed point (a producer inherits the minimum
    /// period of its consumers).
    ///
    /// # Errors
    ///
    /// Propagates flattening errors for malformed selections.
    pub fn new(spec: &SpecificationGraph, selection: &Selection) -> Result<Self, HgraphError> {
        let flat = spec.problem().flatten(selection)?;
        let mut periods = vec![None; spec.problem().graph().vertex_count()];
        for &v in &flat.vertices {
            periods[v.index()] = spec.problem().period(v);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for e in &flat.edges {
                let Some(p_down) = periods[e.to.index()] else {
                    continue;
                };
                let entry = &mut periods[e.from.index()];
                let better = match *entry {
                    None => true,
                    Some(p_up) => p_down < p_up,
                };
                if better {
                    *entry = Some(p_down);
                    changed = true;
                }
            }
        }
        Ok(CompiledActivation { flat, periods })
    }

    /// The inherited period of `v`, or `None` when `v` is inactive or
    /// unconstrained.
    #[must_use]
    pub fn period(&self, v: VertexId) -> Option<Time> {
        self.periods[v.index()]
    }
}

/// Immutable side tables compiled once per specification graph.
///
/// Build one per
/// exploration with [`CompiledSpec::with_activation_cache`] (or
/// [`CompiledSpec::new`] when the activation cache is not needed) and pass
/// `&CompiledSpec` to the estimate/binding/exploration entry points.
///
/// # Examples
///
/// ```
/// use flexplore_spec::{ArchitectureGraph, CompiledSpec, Cost, ProblemGraph, SpecificationGraph};
/// use flexplore_hgraph::Scope;
/// use flexplore_sched::Time;
///
/// # fn main() -> Result<(), flexplore_spec::SpecError> {
/// let mut p = ProblemGraph::new("p");
/// let t = p.add_process(Scope::Top, "t");
/// let mut a = ArchitectureGraph::new("a");
/// let slow = a.add_resource(Scope::Top, "slow", Cost::new(50));
/// let fast = a.add_resource(Scope::Top, "fast", Cost::new(150));
/// let mut spec = SpecificationGraph::new("s", p, a);
/// let m_slow = spec.add_mapping(t, slow, Time::from_ns(90))?;
/// let m_fast = spec.add_mapping(t, fast, Time::from_ns(10))?;
///
/// let compiled = CompiledSpec::new(&spec);
/// // Mapping edges come back latency-sorted (stable).
/// assert_eq!(compiled.mappings_of(t), &[m_fast, m_slow]);
/// assert_eq!(compiled.reachable_resources(t), &[slow, fast]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledSpec<'a> {
    spec: &'a SpecificationGraph,
    /// Mapping edges per problem vertex, stable-sorted by latency.
    mappings_by_process: Vec<Vec<MappingId>>,
    /// Sorted, deduplicated reachable resources per problem vertex.
    reachable: Vec<Vec<VertexId>>,
    /// Leaves per architecture cluster, in `leaves_of_cluster` order.
    arch_cluster_leaves: Vec<Vec<VertexId>>,
    /// Total cost per architecture cluster.
    arch_cluster_costs: Vec<Cost>,
    /// Per architecture edge: the unfiltered concrete vertices each
    /// endpoint may denote, in edge-id order.
    arch_edge_endpoints: Vec<(Vec<VertexId>, Vec<VertexId>)>,
    /// All communication resources of the architecture, in vertex-id order.
    comm_vertices: Vec<VertexId>,
    /// Precompiled elementary cluster-activations (possibly empty).
    activations: BTreeMap<Selection, CompiledActivation>,
}

impl<'a> CompiledSpec<'a> {
    /// Compiles the structural side tables (no activation cache).
    #[must_use]
    pub fn new(spec: &'a SpecificationGraph) -> Self {
        let problem = spec.problem().graph();
        let arch = spec.architecture().graph();

        let mut mappings_by_process: Vec<Vec<MappingId>> = vec![Vec::new(); problem.vertex_count()];
        for m in spec.mapping_ids() {
            // Deserialized specs can hold out-of-range endpoints; skip them
            // here instead of panicking — `try_new` rejects such specs with
            // a typed error, and flexlint reports them as F005.
            if let Some(list) = mappings_by_process.get_mut(spec.mapping(m).process.index()) {
                list.push(m);
            }
        }
        for list in &mut mappings_by_process {
            // Stable, so ties keep id order — exactly what the solver's
            // on-the-fly `sort_by_key` over an id-ordered scan produced.
            list.sort_by_key(|&m| spec.mapping(m).latency);
        }

        let reachable: Vec<Vec<VertexId>> = (0..problem.vertex_count())
            .map(|v| {
                let set: BTreeSet<VertexId> = mappings_by_process[v]
                    .iter()
                    .map(|&m| spec.mapping(m).resource)
                    .collect();
                set.into_iter().collect()
            })
            .collect();

        let arch_cluster_leaves: Vec<Vec<VertexId>> = arch
            .cluster_ids()
            .map(|c| arch.leaves_of_cluster(c))
            .collect();
        // Saturating: `unit_cost_total` reports a sum that does not fit.
        let arch_cluster_costs: Vec<Cost> = arch_cluster_leaves
            .iter()
            .map(|leaves| {
                leaves
                    .iter()
                    .map(|&v| spec.architecture().cost(v))
                    .try_fold(Cost::ZERO, Cost::checked_add)
                    .unwrap_or(Cost::new(u64::MAX))
            })
            .collect();

        let resolve = |node: NodeRef| -> Vec<VertexId> {
            match node {
                NodeRef::Vertex(v) => vec![v],
                NodeRef::Interface(i) => arch
                    .clusters_of(i)
                    .iter()
                    .flat_map(|&c| arch.leaves_of_cluster(c))
                    .collect(),
            }
        };
        let arch_edge_endpoints: Vec<(Vec<VertexId>, Vec<VertexId>)> = arch
            .edge_ids()
            .map(|e| {
                let (from, to) = arch.edge_endpoints(e);
                (resolve(from.node), resolve(to.node))
            })
            .collect();

        let comm_vertices: Vec<VertexId> = spec.architecture().communication_resources().collect();

        CompiledSpec {
            spec,
            mappings_by_process,
            reachable,
            arch_cluster_leaves,
            arch_cluster_costs,
            arch_edge_endpoints,
            comm_vertices,
            activations: BTreeMap::new(),
        }
    }

    /// Validates `spec`, then compiles the structural side tables.
    ///
    /// Prefer this over [`CompiledSpec::new`] for specifications from
    /// untrusted sources (hand-edited JSON): the accessor methods index by
    /// stored ids and would panic on dangling references.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect
    /// [`SpecificationGraph::validate`] finds.
    pub fn try_new(spec: &'a SpecificationGraph) -> Result<Self, crate::error::SpecError> {
        spec.validate()?;
        Ok(CompiledSpec::new(spec))
    }

    /// Compiles the side tables **and** eagerly flattens every elementary
    /// cluster-activation of the problem graph into the activation cache.
    ///
    /// Specifications with more than a few thousand activations (or with
    /// enumeration errors) keep an empty cache; lookups then fall back to
    /// [`compile_activation`](Self::compile_activation).
    #[must_use]
    pub fn with_activation_cache(spec: &'a SpecificationGraph) -> Self {
        let mut compiled = CompiledSpec::new(spec);
        let problem = spec.problem().graph();
        if problem.count_selections() > MAX_CACHED_ACTIVATIONS {
            return compiled;
        }
        let Ok(selections) = problem.enumerate_selections() else {
            return compiled;
        };
        for selection in selections {
            if let Ok(activation) = CompiledActivation::new(spec, &selection) {
                compiled.activations.insert(selection, activation);
            }
        }
        compiled
    }

    /// The specification this context was compiled from.
    #[must_use]
    pub fn spec(&self) -> &'a SpecificationGraph {
        self.spec
    }

    /// The mapping edges of `process`, stable-sorted by latency.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not a vertex of the problem graph.
    #[must_use]
    pub fn mappings_of(&self, process: VertexId) -> &[MappingId] {
        &self.mappings_by_process[process.index()]
    }

    /// The set `R_i` of resources reachable from `process` via mapping
    /// edges, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not a vertex of the problem graph.
    #[must_use]
    pub fn reachable_resources(&self, process: VertexId) -> &[VertexId] {
        &self.reachable[process.index()]
    }

    /// The leaf resources of an architecture design cluster.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a cluster of the architecture graph.
    #[must_use]
    pub fn cluster_leaves(&self, c: flexplore_hgraph::ClusterId) -> &[VertexId] {
        &self.arch_cluster_leaves[c.index()]
    }

    /// The exact summed cost of every allocatable unit (see
    /// [`allocatable_units`]), or `None` when it does not fit in a `u64`.
    /// Every allocation over those units costs at most this much, so when
    /// it fits, no cost sum over units can overflow.
    #[must_use]
    pub fn unit_cost_total(&self) -> Option<Cost> {
        let arch = self.spec.architecture();
        let top = arch.graph().vertices_in(flexplore_hgraph::Scope::Top);
        let leaves = self.arch_cluster_leaves.iter().flatten().copied();
        top.chain(leaves)
            .map(|v| arch.cost(v))
            .try_fold(Cost::ZERO, Cost::checked_add)
    }

    /// The total allocation cost of an architecture design cluster
    /// (`u64::MAX` when the sum does not fit; see
    /// [`CompiledSpec::unit_cost_total`]).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a cluster of the architecture graph.
    #[must_use]
    pub fn cluster_cost(&self, c: flexplore_hgraph::ClusterId) -> Cost {
        self.arch_cluster_costs[c.index()]
    }

    /// Per architecture edge, the unfiltered concrete vertices each
    /// endpoint may denote (device interfaces resolve to every design leaf).
    #[must_use]
    pub fn arch_edge_endpoints(&self) -> &[(Vec<VertexId>, Vec<VertexId>)] {
        &self.arch_edge_endpoints
    }

    /// All communication resources of the architecture, in vertex-id order.
    #[must_use]
    pub fn comm_vertices(&self) -> &[VertexId] {
        &self.comm_vertices
    }

    /// The available vertices of an allocation: its top-level vertices plus
    /// the cached leaves of each allocated design cluster. Equals
    /// [`ResourceAllocation::available_vertices`].
    /// Unknown cluster ids contribute no leaves, matching
    /// [`ResourceAllocation::available_vertices`].
    #[must_use]
    pub fn available_vertices(&self, allocation: &ResourceAllocation) -> BTreeSet<VertexId> {
        let mut out = allocation.vertices.clone();
        for &c in &allocation.clusters {
            if let Some(leaves) = self.arch_cluster_leaves.get(c.index()) {
                out.extend(leaves.iter().copied());
            }
        }
        out
    }

    /// The allocation cost, summed from cached per-cluster costs. Equals
    /// [`ResourceAllocation::cost`].
    /// Unknown ids contribute nothing, matching [`ResourceAllocation::cost`].
    #[must_use]
    pub fn allocation_cost(&self, allocation: &ResourceAllocation) -> Cost {
        let arch_vertices = self.spec.architecture().graph().vertex_count();
        let vertex_cost: Cost = allocation
            .vertices
            .iter()
            .filter(|v| v.index() < arch_vertices)
            .map(|&v| self.spec.architecture().cost(v))
            .sum();
        let cluster_cost: Cost = allocation
            .clusters
            .iter()
            .filter_map(|c| self.arch_cluster_costs.get(c.index()))
            .copied()
            .sum();
        vertex_cost + cluster_cost
    }

    /// Compiles the bitmask side tables over the given unit universe: bit
    /// `k` of every mask stands for `units[k]`. Coverage masks answer "can
    /// this subset implement problem vertex `v`" with one AND; neighbor
    /// masks answer the useless-bus pruning with AND/POPCNT; the
    /// estimate-relevant mask keys the estimate memo of the lattice search.
    ///
    /// # Panics
    ///
    /// Panics when `units` holds more than [`MAX_UNITS`] entries or names a
    /// vertex outside the architecture arena.
    #[must_use]
    pub fn unit_masks(&self, units: &[Unit]) -> UnitMasks {
        assert!(
            units.len() <= MAX_UNITS,
            "unit masks index at most {MAX_UNITS} units"
        );
        let spec = self.spec;
        let arch = spec.architecture();
        let graph = arch.graph();
        let targets: BTreeSet<VertexId> = spec
            .mapping_ids()
            .map(|m| spec.mapping(m).resource)
            .collect();

        // Unit bit of each top-level vertex / design cluster, plus the
        // unit bits contributing each concrete resource vertex.
        let mut vertex_unit: BTreeMap<VertexId, usize> = BTreeMap::new();
        let mut cluster_unit: BTreeMap<ClusterId, usize> = BTreeMap::new();
        let mut resource_bits: Vec<UnitMask> = vec![UnitMask::empty(); graph.vertex_count()];
        let mut comm = UnitMask::empty();
        let mut unusable = UnitMask::empty();
        let mut estimate_relevant = UnitMask::empty();
        let mut costs = Vec::with_capacity(units.len());
        for (k, unit) in units.iter().enumerate() {
            let bit = UnitMask::bit(k);
            match *unit {
                Unit::Vertex(v) => {
                    vertex_unit.insert(v, k);
                    if let Some(slot) = resource_bits.get_mut(v.index()) {
                        *slot |= bit;
                    }
                    match arch.kind(v) {
                        ResourceKind::Communication => comm |= bit,
                        ResourceKind::Functional if !targets.contains(&v) => unusable |= bit,
                        ResourceKind::Functional => {}
                    }
                    if targets.contains(&v) {
                        estimate_relevant |= bit;
                    }
                    costs.push(arch.cost(v));
                }
                Unit::Cluster(c) => {
                    cluster_unit.insert(c, k);
                    let leaves = self
                        .arch_cluster_leaves
                        .get(c.index())
                        .map_or(&[][..], Vec::as_slice);
                    for leaf in leaves {
                        if let Some(slot) = resource_bits.get_mut(leaf.index()) {
                            *slot |= bit;
                        }
                    }
                    if leaves.iter().all(|v| !targets.contains(v)) {
                        unusable |= bit;
                    } else {
                        estimate_relevant |= bit;
                    }
                    costs.push(
                        self.arch_cluster_costs
                            .get(c.index())
                            .copied()
                            .unwrap_or(Cost::new(0)),
                    );
                }
            }
        }

        let coverage: Vec<UnitMask> = self
            .reachable
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| {
                        resource_bits
                            .get(r.index())
                            .copied()
                            .unwrap_or(UnitMask::empty())
                    })
                    .fold(UnitMask::empty(), |acc, bits| acc | bits)
            })
            .collect();

        // Neighbor masks: the unit-granular mirror of the communication
        // graph (links into a device interface denote its design clusters).
        let mut neighbors = vec![UnitMask::empty(); units.len()];
        for e in graph.edge_ids() {
            let (from, to) = graph.edge_endpoints(e);
            let ends = [from.node, to.node];
            for (idx, end) in ends.iter().enumerate() {
                let NodeRef::Vertex(v) = *end else { continue };
                if arch.kind(v) != ResourceKind::Communication {
                    continue;
                }
                let Some(&k) = vertex_unit.get(&v) else {
                    continue;
                };
                match ends[1 - idx] {
                    NodeRef::Vertex(o) => {
                        if let Some(&j) = vertex_unit.get(&o) {
                            neighbors[k].set(j);
                        }
                    }
                    NodeRef::Interface(i) => {
                        for c in graph.clusters_of(i) {
                            if let Some(&j) = cluster_unit.get(c) {
                                neighbors[k].set(j);
                            }
                        }
                    }
                }
            }
        }

        UnitMasks {
            unit_count: units.len(),
            coverage,
            neighbors,
            comm,
            unusable,
            estimate_relevant,
            costs,
        }
    }

    /// Looks up a precompiled activation by its selection.
    #[must_use]
    pub fn activation(&self, selection: &Selection) -> Option<&CompiledActivation> {
        self.activations.get(selection)
    }

    /// Compiles an activation on demand (cache misses, uncached contexts).
    ///
    /// # Errors
    ///
    /// Propagates flattening errors for malformed selections.
    pub fn compile_activation(
        &self,
        selection: &Selection,
    ) -> Result<CompiledActivation, HgraphError> {
        CompiledActivation::new(self.spec, selection)
    }

    /// Number of precompiled activations (diagnostics/tests).
    #[must_use]
    pub fn cached_activations(&self) -> usize {
        self.activations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::ArchitectureGraph;
    use crate::problem::ProblemGraph;
    use flexplore_hgraph::Scope;

    fn spec_with_fpga() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let src = p.add_process(Scope::Top, "src");
        let sink = p.add_process_with(
            Scope::Top,
            "sink",
            crate::attrs::ProcessAttrs::new().with_period(Time::from_ns(100)),
        );
        p.add_dependence(src, sink).unwrap();
        let stage = p.add_alternative_stage(Scope::Top, "I", &["a", "b"]);
        let mut arch = ArchitectureGraph::new("a");
        let up = arch.add_resource(Scope::Top, "uP", Cost::new(100));
        let bus = arch.add_bus(Scope::Top, "C1", Cost::new(10));
        let fpga = arch.add_interface(Scope::Top, "FPGA");
        arch.connect(up, bus).unwrap();
        arch.connect_through(bus, fpga).unwrap();
        let d1 = arch.add_design(fpga, "cfg1", "D1", Cost::new(60)).unwrap();
        let mut spec = SpecificationGraph::new("s", p, arch);
        spec.add_mapping(src, up, Time::from_ns(20)).unwrap();
        spec.add_mapping(sink, up, Time::from_ns(30)).unwrap();
        spec.add_mapping(sink, d1.design, Time::from_ns(5)).unwrap();
        for &(_, v) in &stage.alternatives {
            spec.add_mapping(v, up, Time::from_ns(1)).unwrap();
        }
        spec
    }

    #[test]
    fn tables_match_the_uncompiled_queries() {
        let spec = spec_with_fpga();
        let compiled = CompiledSpec::new(&spec);
        for v in spec.problem().graph().vertex_ids() {
            let mut expected: Vec<MappingId> = spec.mappings_of(v).collect();
            expected.sort_by_key(|&m| spec.mapping(m).latency);
            assert_eq!(compiled.mappings_of(v), expected.as_slice());
            let reachable: Vec<VertexId> = spec.reachable_resources(v).into_iter().collect();
            assert_eq!(compiled.reachable_resources(v), reachable.as_slice());
        }
        let arch = spec.architecture();
        for c in arch.graph().cluster_ids() {
            assert_eq!(
                compiled.cluster_leaves(c),
                arch.graph().leaves_of_cluster(c)
            );
            assert_eq!(compiled.cluster_cost(c), arch.cluster_cost(c));
        }
        assert_eq!(
            compiled.comm_vertices(),
            arch.communication_resources().collect::<Vec<_>>()
        );
    }

    #[test]
    fn allocation_helpers_match_the_allocation_methods() {
        let spec = spec_with_fpga();
        let compiled = CompiledSpec::new(&spec);
        let arch = spec.architecture();
        let up = arch.graph().vertex_by_name(Scope::Top, "uP").unwrap();
        let cluster = arch.graph().cluster_ids().next().unwrap();
        let alloc = ResourceAllocation::new()
            .with_vertex(up)
            .with_cluster(cluster);
        assert_eq!(
            compiled.available_vertices(&alloc),
            alloc.available_vertices(arch)
        );
        assert_eq!(compiled.allocation_cost(&alloc), alloc.cost(arch));
    }

    #[test]
    fn activation_cache_matches_on_demand_compilation() {
        let spec = spec_with_fpga();
        let compiled = CompiledSpec::with_activation_cache(&spec);
        let activations = spec.problem().elementary_activations().unwrap();
        assert_eq!(compiled.cached_activations(), activations.len());
        for selection in &activations {
            let cached = compiled.activation(selection).expect("cached");
            let fresh = compiled.compile_activation(selection).unwrap();
            assert_eq!(cached.flat.vertices, fresh.flat.vertices);
            assert_eq!(cached.periods, fresh.periods);
        }
    }

    #[test]
    fn dense_periods_match_the_map_fixed_point() {
        // Mirror of the binding layer's inherited-period computation:
        // src feeds sink (period 100) so src inherits 100.
        let spec = spec_with_fpga();
        let compiled = CompiledSpec::with_activation_cache(&spec);
        let selection = spec.problem().elementary_activations().unwrap()[0].clone();
        let activation = compiled.activation(&selection).unwrap();
        let src = spec
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "src")
            .unwrap();
        assert_eq!(activation.period(src), Some(Time::from_ns(100)));
    }

    #[test]
    fn unit_masks_mirror_the_flat_queries() {
        let spec = spec_with_fpga();
        let compiled = CompiledSpec::new(&spec);
        let graph = spec.architecture().graph();
        let mut units: Vec<Unit> = graph.vertices_in(Scope::Top).map(Unit::Vertex).collect();
        units.extend(graph.cluster_ids().map(Unit::Cluster));
        // Units: [uP, C1 (bus), D1 design cluster].
        assert_eq!(units.len(), 3);
        let masks = compiled.unit_masks(&units);
        let m = |bits: u64| UnitMask::from_words([bits, 0, 0, 0]);
        assert_eq!(masks.unit_count(), 3);
        assert_eq!(masks.comm_mask(), m(0b010));
        assert_eq!(masks.unusable_mask(), UnitMask::empty());
        assert_eq!(masks.estimate_relevant_mask(), m(0b101));
        // The bus links uP directly and the design cluster through the
        // device interface.
        assert_eq!(masks.neighbors(1), m(0b101));
        let problem = spec.problem().graph();
        let src = problem.vertex_by_name(Scope::Top, "src").unwrap();
        let sink = problem.vertex_by_name(Scope::Top, "sink").unwrap();
        assert_eq!(masks.coverage(src), m(0b001));
        assert_eq!(masks.coverage(sink), m(0b101));
        assert_eq!(masks.cost(1), Cost::new(10));
        assert_eq!(masks.mask_cost(UnitMask::full(3)), Cost::new(170));
    }

    #[test]
    fn unit_masks_scale_past_one_word() {
        // A wide flat architecture: 70 processors, every one a mapping
        // target, so coverage and relevance span two mask words.
        let mut problem = ProblemGraph::new("p");
        let task = problem.add_process(Scope::Top, "task");
        let mut arch = ArchitectureGraph::new("a");
        let cpus: Vec<VertexId> = (0..70)
            .map(|i| arch.add_resource(Scope::Top, format!("cpu{i}"), Cost::new(i + 1)))
            .collect();
        let mut spec = SpecificationGraph::new("wide", problem, arch);
        for &cpu in &cpus {
            spec.add_mapping(task, cpu, Time::from_ns(1)).unwrap();
        }
        let compiled = CompiledSpec::new(&spec);
        let units: Vec<Unit> = cpus.iter().copied().map(Unit::Vertex).collect();
        let masks = compiled.unit_masks(&units);
        assert_eq!(masks.unit_count(), 70);
        assert_eq!(masks.estimate_relevant_mask(), UnitMask::full(70));
        assert_eq!(masks.unusable_mask(), UnitMask::empty());
        assert_eq!(masks.coverage(task), UnitMask::full(70));
        // High-word bits count like low-word bits.
        assert_eq!(masks.mask_cost(UnitMask::bit(69)), Cost::new(70));
        // mask_cost over arbitrary subsets equals the naive per-bit sum.
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..32 {
            let mut mask = UnitMask::empty();
            for k in 0..70 {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if lcg >> 63 == 1 {
                    mask.set(k);
                }
            }
            let naive: Cost = mask.iter_ones().map(|k| masks.cost(k)).sum();
            assert_eq!(masks.mask_cost(mask), naive);
        }
    }

    #[test]
    fn compiled_spec_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<CompiledSpec<'_>>();
        assert_sync::<CompiledActivation>();
    }
}
