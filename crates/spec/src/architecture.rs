//! The architecture graph `G_A`: hierarchical model of the class of
//! possible architectures.
//!
//! Functional and communication resources are vertices; physical
//! interconnections are edges; interfaces with alternative clusters model
//! reconfigurable hardware (e.g. an FPGA whose clusters are the designs it
//! can be configured with). All resources are *potentially allocatable*
//! components — which of them are actually allocated is decided by the
//! exploration.

use crate::attrs::{Cost, ResourceAttrs, ResourceKind};
use crate::reach::ReachRows;
use flexplore_hgraph::{
    ClusterId, Endpoint, HgraphError, HierarchicalGraph, InterfaceId, PortDirection, PortId,
    PortTarget, Scope, Selection, VertexId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A physical interconnection between two resources.
///
/// Architecture edges are stored directed (like all hierarchical-graph
/// edges) but interpreted as **bidirectional** links by the communication
/// reachability analysis — a bus carries data both ways.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link;

impl std::fmt::Display for Link {
    fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Ok(())
    }
}

/// The architecture graph under one mode's device configuration,
/// restricted to the allocated resources (see
/// [`SpecificationGraph::arch_view`](crate::SpecificationGraph::arch_view)):
/// the active resources and their communication reachability, answered
/// without re-flattening.
#[derive(Debug, Clone)]
pub struct ArchView {
    reach: ReachRows,
}

impl ArchView {
    /// Returns `true` if `v` is active: allocated and present under the
    /// view's configuration.
    #[must_use]
    pub fn is_active(&self, v: VertexId) -> bool {
        self.reach.contains(v)
    }

    /// Returns `true` if data can travel from `from` to `to`: equal
    /// resources, or active resources joined by a path whose intermediate
    /// vertices are all active communication resources (binding rule 3).
    #[must_use]
    pub fn reachable(&self, from: VertexId, to: VertexId) -> bool {
        self.reach.reaches(from, to)
    }
}

/// The hierarchical architecture graph of a specification.
///
/// # Examples
///
/// Modeling Fig. 2 of the paper: a µ-controller, an ASIC and an FPGA, with
/// buses `C1` (µP–FPGA) and `C2` (µP–ASIC):
///
/// ```
/// use flexplore_spec::{ArchitectureGraph, Cost};
/// use flexplore_hgraph::Scope;
///
/// # fn main() -> Result<(), flexplore_hgraph::HgraphError> {
/// let mut a = ArchitectureGraph::new("fig2");
/// let up = a.add_resource(Scope::Top, "uP", Cost::new(100));
/// let asic = a.add_resource(Scope::Top, "A", Cost::new(250));
/// let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
/// let c2 = a.add_bus(Scope::Top, "C2", Cost::new(10));
/// let fpga = a.add_interface(Scope::Top, "FPGA");
/// let d3 = a.add_design(fpga, "cfg_D3", "D3", Cost::new(60))?;
/// a.connect(up, c1)?;
/// a.connect_through(c1, fpga)?;
/// a.connect(up, c2)?;
/// a.connect(c2, asic)?;
/// assert_eq!(a.cost(asic), Cost::new(250));
/// assert_eq!(a.cluster_cost(d3.cluster), Cost::new(60));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchitectureGraph {
    graph: HierarchicalGraph<ResourceAttrs, Link>,
}

/// Handle returned by [`ArchitectureGraph::add_design`]: the cluster
/// representing one configuration of a reconfigurable device, and the
/// functional resource vertex inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Design {
    /// The cluster modeling the configuration.
    pub cluster: ClusterId,
    /// The functional resource available while the configuration is loaded.
    pub design: VertexId,
}

impl ArchitectureGraph {
    /// Creates an empty architecture graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ArchitectureGraph {
            graph: HierarchicalGraph::new(name),
        }
    }

    /// Returns the underlying hierarchical graph.
    #[must_use]
    pub fn graph(&self) -> &HierarchicalGraph<ResourceAttrs, Link> {
        &self.graph
    }

    /// Adds a functional resource (processor, ASIC, …) with the given
    /// allocation cost.
    pub fn add_resource(&mut self, scope: Scope, name: impl Into<String>, cost: Cost) -> VertexId {
        self.graph
            .add_vertex(scope, name, ResourceAttrs::functional(cost))
    }

    /// Adds a communication resource (bus) with the given allocation cost.
    pub fn add_bus(&mut self, scope: Scope, name: impl Into<String>, cost: Cost) -> VertexId {
        self.graph
            .add_vertex(scope, name, ResourceAttrs::communication(cost))
    }

    /// Adds a reconfigurable device as an interface; its configurations are
    /// added with [`add_design`](Self::add_design).
    pub fn add_interface(&mut self, scope: Scope, name: impl Into<String>) -> InterfaceId {
        self.graph.add_interface(scope, name)
    }

    /// Declares a port on a reconfigurable device.
    pub fn add_port(
        &mut self,
        interface: InterfaceId,
        name: impl Into<String>,
        direction: PortDirection,
    ) -> PortId {
        self.graph.add_port(interface, name, direction)
    }

    /// Adds one configuration (cluster + contained functional resource) to
    /// a reconfigurable device.
    ///
    /// The device can hold **one** configuration per instant (hierarchical
    /// activation rule 1); allocating several designs means the device is
    /// reconfigured over time, and each design contributes its own
    /// allocation cost (configuration area), matching the case-study cost
    /// accounting.
    ///
    /// # Errors
    ///
    /// Propagates port-mapping errors if the device declares ports (each
    /// declared port is mapped onto the design vertex).
    pub fn add_design(
        &mut self,
        device: InterfaceId,
        cluster_name: impl Into<String>,
        design_name: impl Into<String>,
        cost: Cost,
    ) -> Result<Design, HgraphError> {
        let cluster = self.graph.add_cluster(device, cluster_name);
        let design =
            self.graph
                .add_vertex(cluster.into(), design_name, ResourceAttrs::functional(cost));
        let ports: Vec<PortId> = self.graph.ports_of(device).to_vec();
        for p in ports {
            self.graph
                .map_port(cluster, p, PortTarget::vertex(design))?;
        }
        Ok(Design { cluster, design })
    }

    /// Connects two resources with a physical link.
    ///
    /// The link is stored as a single directed edge but interpreted
    /// bidirectionally by [`comm_reachable`](Self::comm_reachable).
    ///
    /// # Errors
    ///
    /// See [`HierarchicalGraph::add_edge`]. Note that resources inside a
    /// design cluster cannot be connected to top-level resources directly —
    /// connect to the device interface's ports instead, or (simpler, used
    /// by the paper models) connect the *bus* to the design vertex by
    /// placing both at top level. For the common "bus reaches a
    /// reconfigurable design" pattern, use
    /// [`connect_through`](Self::connect_through).
    pub fn connect(
        &mut self,
        a: impl Into<Endpoint>,
        b: impl Into<Endpoint>,
    ) -> Result<flexplore_hgraph::EdgeId, HgraphError> {
        self.graph.add_edge(a, b, Link)
    }

    /// Connects a top-level resource to a reconfigurable device through a
    /// port, creating the port on demand.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalGraph::add_edge`].
    pub fn connect_through(
        &mut self,
        resource: VertexId,
        device: InterfaceId,
    ) -> Result<flexplore_hgraph::EdgeId, HgraphError> {
        let port = self.graph.add_port(
            device,
            format!("link{}", self.graph.ports_of(device).len()),
            PortDirection::In,
        );
        // Map the new port in every existing design to that design's vertex.
        let clusters: Vec<ClusterId> = self.graph.clusters_of(device).to_vec();
        for c in clusters {
            let design = self.graph.cluster_vertices(c)[0];
            self.graph.map_port(c, port, PortTarget::vertex(design))?;
        }
        self.graph.add_edge(resource, (device, port), Link)
    }

    /// Returns the allocation cost of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[must_use]
    pub fn cost(&self, v: VertexId) -> Cost {
        self.graph.vertex_weight(v).cost
    }

    /// Returns whether `v` is a functional or communication resource.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[must_use]
    pub fn kind(&self, v: VertexId) -> ResourceKind {
        self.graph.vertex_weight(v).kind
    }

    /// Returns the name of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[must_use]
    pub fn resource_name(&self, v: VertexId) -> &str {
        self.graph.vertex_name(v)
    }

    /// Returns the total allocation cost of a design cluster: the sum of
    /// the costs of its leaves (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a cluster of this graph.
    #[must_use]
    pub fn cluster_cost(&self, c: ClusterId) -> Cost {
        self.graph
            .leaves_of_cluster(c)
            .into_iter()
            .map(|v| self.cost(v))
            .sum()
    }

    /// Iterates over all functional resources (at all hierarchy levels).
    pub fn functional_resources(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.graph
            .vertex_ids()
            .filter(|&v| self.kind(v) == ResourceKind::Functional)
    }

    /// Iterates over all communication resources (at all hierarchy levels).
    pub fn communication_resources(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.graph
            .vertex_ids()
            .filter(|&v| self.kind(v) == ResourceKind::Communication)
    }

    /// Decides whether data can travel between two allocated functional
    /// resources: `true` if `from == to`, or if an undirected path exists
    /// whose **intermediate** vertices are all allocated communication
    /// resources.
    ///
    /// This generalizes binding-feasibility rule 3 of the paper and
    /// reproduces its Fig. 2 example: with no bus between the ASIC and the
    /// FPGA, processes bound to them cannot communicate. Callers with many
    /// queries under one configuration build its
    /// [`arch_view`](crate::SpecificationGraph::arch_view) once and ask it
    /// instead.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalGraph::flatten`].
    pub fn comm_reachable(
        &self,
        selection: &Selection,
        allocated: &BTreeSet<VertexId>,
        from: VertexId,
        to: VertexId,
    ) -> Result<bool, HgraphError> {
        if from == to {
            return Ok(true);
        }
        if !allocated.contains(&from) || !allocated.contains(&to) {
            return Ok(false);
        }
        Ok(self.view(selection, allocated)?.reachable(from, to))
    }

    /// The architecture as one mode sees it: flattened once under
    /// `selection`, its active resources (allocated **and** present under
    /// the selection) and their communication reachability.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalGraph::flatten`].
    pub(crate) fn view(
        &self,
        selection: &Selection,
        allocated: &BTreeSet<VertexId>,
    ) -> Result<ArchView, HgraphError> {
        let flat = self.graph.flatten(selection)?;
        let active = flat
            .vertices
            .iter()
            .copied()
            .filter(|v| allocated.contains(v));
        let links = flat.edges.iter().map(|e| (e.from, e.to));
        let reach = ReachRows::new(self.graph.vertex_count(), active, links, |v| {
            self.kind(v) == ResourceKind::Communication
        });
        Ok(ArchView { reach })
    }

    /// Validates the structural invariants of the graph.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalGraph::validate`].
    pub fn validate(&self) -> Result<(), HgraphError> {
        self.graph.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 architecture: uP -C1- FPGA, uP -C2- ASIC; no ASIC-FPGA link.
    fn fig2() -> (ArchitectureGraph, VertexId, VertexId, VertexId, Design) {
        let mut a = ArchitectureGraph::new("fig2");
        let up = a.add_resource(Scope::Top, "uP", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "A", Cost::new(250));
        let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
        let c2 = a.add_bus(Scope::Top, "C2", Cost::new(10));
        let fpga = a.add_interface(Scope::Top, "FPGA");
        let d3 = a.add_design(fpga, "cfg_D3", "D3", Cost::new(60)).unwrap();
        a.connect(up, c1).unwrap();
        a.connect_through(c1, fpga).unwrap();
        a.connect(up, c2).unwrap();
        a.connect(c2, asic).unwrap();
        (a, up, asic, c2, d3)
    }

    fn all_vertices(a: &ArchitectureGraph) -> BTreeSet<VertexId> {
        a.graph().vertex_ids().collect()
    }

    #[test]
    fn costs_and_kinds() {
        let (a, up, asic, c2, d3) = fig2();
        assert_eq!(a.cost(up), Cost::new(100));
        assert_eq!(a.kind(asic), ResourceKind::Functional);
        assert_eq!(a.kind(c2), ResourceKind::Communication);
        assert_eq!(a.cost(d3.design), Cost::new(60));
        assert_eq!(a.cluster_cost(d3.cluster), Cost::new(60));
        assert_eq!(a.resource_name(up), "uP");
    }

    #[test]
    fn functional_and_comm_iterators() {
        let (a, _, _, _, _) = fig2();
        assert_eq!(a.functional_resources().count(), 3); // uP, A, D3
        assert_eq!(a.communication_resources().count(), 2); // C1, C2
    }

    #[test]
    fn comm_reachability_through_bus() {
        let (a, up, asic, _, d3) = fig2();
        let fpga = a.graph().interface_by_name(Scope::Top, "FPGA").unwrap();
        let sel = Selection::new().with(fpga, d3.cluster);
        let alloc = all_vertices(&a);
        // uP reaches ASIC via C2.
        assert!(a.comm_reachable(&sel, &alloc, up, asic).unwrap());
        // uP reaches the FPGA design via C1.
        assert!(a.comm_reachable(&sel, &alloc, up, d3.design).unwrap());
        // Paper's infeasibility example: no bus between ASIC and FPGA.
        assert!(!a.comm_reachable(&sel, &alloc, asic, d3.design).unwrap());
        // Same resource is trivially reachable.
        assert!(a.comm_reachable(&sel, &alloc, up, up).unwrap());
    }

    #[test]
    fn deallocated_bus_breaks_reachability() {
        let (a, up, asic, c2, d3) = fig2();
        let fpga = a.graph().interface_by_name(Scope::Top, "FPGA").unwrap();
        let sel = Selection::new().with(fpga, d3.cluster);
        let mut alloc = all_vertices(&a);
        alloc.remove(&c2);
        assert!(!a.comm_reachable(&sel, &alloc, up, asic).unwrap());
    }

    #[test]
    fn unallocated_endpoint_is_unreachable() {
        let (a, up, asic, _, d3) = fig2();
        let fpga = a.graph().interface_by_name(Scope::Top, "FPGA").unwrap();
        let sel = Selection::new().with(fpga, d3.cluster);
        let mut alloc = all_vertices(&a);
        alloc.remove(&asic);
        assert!(!a.comm_reachable(&sel, &alloc, up, asic).unwrap());
    }

    #[test]
    fn functional_resources_do_not_forward_traffic() {
        // up1 - A - up2 (ASIC in the middle): A is functional, so up1 must
        // not reach up2 through it.
        let mut a = ArchitectureGraph::new("chain");
        let up1 = a.add_resource(Scope::Top, "uP1", Cost::new(1));
        let mid = a.add_resource(Scope::Top, "A", Cost::new(1));
        let up2 = a.add_resource(Scope::Top, "uP2", Cost::new(1));
        a.connect(up1, mid).unwrap();
        a.connect(mid, up2).unwrap();
        let alloc = all_vertices(&a);
        let sel = Selection::new();
        assert!(!a.comm_reachable(&sel, &alloc, up1, up2).unwrap());
        assert!(a.comm_reachable(&sel, &alloc, up1, mid).unwrap());
    }

    #[test]
    fn multiple_designs_added_after_ports() {
        let mut a = ArchitectureGraph::new("fpga");
        let bus = a.add_bus(Scope::Top, "C", Cost::new(5));
        let fpga = a.add_interface(Scope::Top, "FPGA");
        a.connect_through(bus, fpga).unwrap();
        // Designs added after the port exists get the mapping automatically.
        let d1 = a.add_design(fpga, "cfg1", "D1", Cost::new(30)).unwrap();
        let d2 = a.add_design(fpga, "cfg2", "D2", Cost::new(40)).unwrap();
        assert!(a.validate().is_ok());
        let sel = Selection::new().with(fpga, d2.cluster);
        let alloc = all_vertices(&a);
        assert!(a
            .comm_reachable(&sel, &alloc, d2.design, d2.design)
            .unwrap());
        assert_eq!(a.cluster_cost(d1.cluster), Cost::new(30));
    }
}
