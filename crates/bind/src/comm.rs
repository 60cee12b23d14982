//! Communication reachability over an allocated architecture.
//!
//! The binding solver needs to answer, many times per candidate design
//! point, the question of rule 3: *can resources `r1` and `r2` exchange
//! data through allocated communication resources?* Flattening the
//! architecture for every query (as the declarative checker in
//! `flexplore-spec` does) is exact but slow inside the backtracking loop.
//!
//! [`CommGraph`] precomputes, once per resource allocation, the *potential*
//! adjacency: edges between allocated top-level resources, plus — for every
//! link attached to a reconfigurable device port — edges to **each**
//! allocated design of that device (whichever design is loaded, the link
//! resolves to it). Routing between two bound resources only ever passes
//! through buses, which are top-level and configuration-independent, so
//! queries over the potential adjacency agree with the per-mode flattened
//! answer for the resource pairs the solver asks about.
//!
//! The answers are dense reach rows ([`ReachRows`], built from bus
//! components in both constructors), so [`CommGraph::comm_ok`] is a single
//! bit test.

use flexplore_hgraph::{NodeRef, VertexId};
use flexplore_spec::{ArchitectureGraph, CompiledSpec, ReachRows, ResourceKind};
use std::collections::BTreeSet;

/// Precomputed communication reachability among the available vertices of a
/// resource allocation.
#[derive(Debug, Clone)]
pub struct CommGraph {
    reach: ReachRows,
    available: BTreeSet<VertexId>,
}

impl CommGraph {
    /// Builds the potential reachability over `available` vertices of
    /// `architecture`.
    #[must_use]
    pub fn new(architecture: &ArchitectureGraph, available: &BTreeSet<VertexId>) -> Self {
        let graph = architecture.graph();
        // Resolve an endpoint to the concrete vertices it may denote:
        // itself for plain vertices, every design leaf for device
        // interfaces. Unavailable ones have no row, so links to them
        // (e.g. inside unallocated design clusters) are dropped.
        let resolve = |node: NodeRef| -> Vec<VertexId> {
            match node {
                NodeRef::Vertex(v) => vec![v],
                NodeRef::Interface(i) => graph
                    .clusters_of(i)
                    .iter()
                    .flat_map(|&c| graph.leaves_of_cluster(c))
                    .collect(),
            }
        };
        let mut links = Vec::new();
        for e in graph.edge_ids() {
            let (from, to) = graph.edge_endpoints(e);
            let to = resolve(to.node);
            for a in resolve(from.node) {
                links.extend(to.iter().map(|&b| (a, b)));
            }
        }
        Self::from_links(architecture, available, links)
    }

    /// Builds the potential reachability from the precompiled edge-endpoint
    /// tables of a [`CompiledSpec`], avoiding the per-edge graph walks of
    /// [`CommGraph::new`]. The compiled tables resolve every edge exactly
    /// as `new` does, so the two constructors answer identically.
    #[must_use]
    pub fn from_compiled(compiled: &CompiledSpec<'_>, available: &BTreeSet<VertexId>) -> Self {
        let links = compiled
            .arch_edge_endpoints()
            .iter()
            .flat_map(|(from, to)| {
                from.iter()
                    .flat_map(move |&a| to.iter().map(move |&b| (a, b)))
            });
        Self::from_links(compiled.spec().architecture(), available, links)
    }

    fn from_links(
        architecture: &ArchitectureGraph,
        available: &BTreeSet<VertexId>,
        links: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Self {
        let reach = ReachRows::new(
            architecture.graph().vertex_count(),
            available.iter().copied(),
            links,
            |v| architecture.kind(v) == ResourceKind::Communication,
        );
        CommGraph {
            reach,
            available: available.clone(),
        }
    }

    /// Returns `true` if data can travel from `from` to `to`: equal
    /// resources, or an undirected path whose intermediate vertices are all
    /// available communication resources.
    #[must_use]
    pub fn comm_ok(&self, from: VertexId, to: VertexId) -> bool {
        self.reach.reaches(from, to)
    }

    /// The available vertices this graph was built over.
    #[must_use]
    pub fn available(&self) -> &BTreeSet<VertexId> {
        &self.available
    }
}

/// Convenience: the full potential reachability among all vertices of an
/// architecture graph (everything allocated).
#[must_use]
pub fn full_comm_graph(architecture: &ArchitectureGraph) -> CommGraph {
    let available: BTreeSet<VertexId> = architecture.graph().vertex_ids().collect();
    CommGraph::new(architecture, &available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::Scope;
    use flexplore_spec::Cost;

    /// uP1 -C1- FPGA{D1,D2}; uP2 -C2- ASIC; no cross link.
    fn arch() -> (
        ArchitectureGraph,
        VertexId,
        VertexId,
        VertexId,
        VertexId,
        VertexId,
        VertexId,
        VertexId,
    ) {
        let mut a = ArchitectureGraph::new("a");
        let up1 = a.add_resource(Scope::Top, "uP1", Cost::new(100));
        let up2 = a.add_resource(Scope::Top, "uP2", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "A", Cost::new(200));
        let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
        let c2 = a.add_bus(Scope::Top, "C2", Cost::new(10));
        let fpga = a.add_interface(Scope::Top, "FPGA");
        a.connect(up1, c1).unwrap();
        a.connect_through(c1, fpga).unwrap();
        let d1 = a.add_design(fpga, "cfg1", "D1", Cost::new(50)).unwrap();
        let d2 = a.add_design(fpga, "cfg2", "D2", Cost::new(50)).unwrap();
        a.connect(up2, c2).unwrap();
        a.connect(c2, asic).unwrap();
        (a, up1, up2, asic, c1, c2, d1.design, d2.design)
    }

    #[test]
    fn reaches_designs_through_device_port() {
        let (a, up1, _, _, c1, _, d1, d2) = arch();
        let avail = BTreeSet::from([up1, c1, d1, d2]);
        let g = CommGraph::new(&a, &avail);
        assert!(g.comm_ok(up1, d1));
        assert!(g.comm_ok(up1, d2));
        assert!(g.comm_ok(d1, up1));
    }

    #[test]
    fn unallocated_design_is_unreachable() {
        let (a, up1, _, _, c1, _, d1, d2) = arch();
        let avail = BTreeSet::from([up1, c1, d1]);
        let g = CommGraph::new(&a, &avail);
        assert!(g.comm_ok(up1, d1));
        assert!(!g.comm_ok(up1, d2));
    }

    #[test]
    fn islands_do_not_communicate() {
        let (a, up1, up2, asic, c1, c2, d1, _) = arch();
        let avail = BTreeSet::from([up1, up2, asic, c1, c2, d1]);
        let g = CommGraph::new(&a, &avail);
        // The uP1/FPGA island and the uP2/ASIC island are disjoint.
        assert!(!g.comm_ok(up1, up2));
        assert!(!g.comm_ok(d1, asic));
        assert!(g.comm_ok(up2, asic));
    }

    #[test]
    fn missing_bus_disconnects() {
        let (a, _, up2, asic, _, _, _, _) = arch();
        let avail = BTreeSet::from([up2, asic]);
        let g = CommGraph::new(&a, &avail);
        assert!(!g.comm_ok(up2, asic));
        assert!(g.comm_ok(up2, up2));
    }

    #[test]
    fn functional_vertices_do_not_forward() {
        // up -bus- mid(functional) ... mid connected to target by raw link.
        let mut a = ArchitectureGraph::new("chain");
        let up = a.add_resource(Scope::Top, "up", Cost::new(1));
        let mid = a.add_resource(Scope::Top, "mid", Cost::new(1));
        let tgt = a.add_resource(Scope::Top, "tgt", Cost::new(1));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(1));
        a.connect(up, bus).unwrap();
        a.connect(bus, mid).unwrap();
        a.connect(mid, tgt).unwrap();
        let avail: BTreeSet<_> = [up, mid, tgt, bus].into();
        let g = CommGraph::new(&a, &avail);
        assert!(g.comm_ok(up, mid));
        assert!(!g.comm_ok(up, tgt), "functional mid must not forward");
    }

    #[test]
    fn full_comm_graph_covers_everything() {
        let (a, up1, _, _, _, _, d1, d2) = arch();
        let g = full_comm_graph(&a);
        assert!(g.available().contains(&d1));
        assert!(g.comm_ok(up1, d2));
    }
}
