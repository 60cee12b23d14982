//! Flexibility estimation for reduced specifications.
//!
//! EXPLORE (Section 4 of the paper) visits candidate resource allocations
//! in cost order and, before invoking the NP-complete binding solver,
//! *estimates* the maximal flexibility implementable on the candidate:
//! remove all unallocated resources (and with them their mapping edges),
//! drop problem vertices left without mapping edges, and evaluate
//! Definition 4 on what remains. The estimate **ignores** communication
//! routing and timing constraints, so it is an upper bound on the
//! implementable flexibility — exactly what makes skipping candidates with
//! `estimate ≤ f_cur` a sound pruning rule.

use crate::metric::{flexibility, Flexibility};
use flexplore_hgraph::{ClusterId, InterfaceId, Scope, VertexId};
use flexplore_spec::{CompiledSpec, ResourceAllocation, SpecificationGraph};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Result of estimating the flexibility implementable on a resource
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlexibilityEstimate {
    /// `true` if the allocation supports at least one complete problem
    /// activation (all top-level processes bindable, every top-level
    /// interface with at least one activatable cluster) — the paper's
    /// "possible resource allocation" criterion.
    pub feasible: bool,
    /// Upper bound on the implementable flexibility (0 when infeasible).
    pub value: Flexibility,
    /// The problem clusters that are potentially activatable: every process
    /// directly inside is bindable and every nested interface retains an
    /// activatable alternative.
    pub activatable: BTreeSet<ClusterId>,
}

/// Estimates the maximal flexibility implementable under `allocation`.
///
/// A process is *bindable* if one of its mapping edges targets an available
/// resource; a cluster is *activatable* if all processes directly inside it
/// are bindable and each of its interfaces keeps at least one activatable
/// cluster (recursively).
///
/// # Examples
///
/// ```
/// use flexplore_flex::estimate_flexibility;
/// use flexplore_spec::{
///     ArchitectureGraph, Cost, ProblemGraph, ResourceAllocation, SpecificationGraph,
/// };
/// use flexplore_hgraph::Scope;
/// use flexplore_sched::Time;
///
/// # fn main() -> Result<(), flexplore_spec::SpecError> {
/// let mut p = ProblemGraph::new("p");
/// let i = p.add_interface(Scope::Top, "I");
/// let c1 = p.add_cluster(i, "c1");
/// let v1 = p.add_process(c1.into(), "v1");
/// let c2 = p.add_cluster(i, "c2");
/// let v2 = p.add_process(c2.into(), "v2");
///
/// let mut a = ArchitectureGraph::new("a");
/// let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
/// let asic = a.add_resource(Scope::Top, "asic", Cost::new(200));
///
/// let mut spec = SpecificationGraph::new("s", p, a);
/// spec.add_mapping(v1, cpu, Time::from_ns(10))?;
/// spec.add_mapping(v2, asic, Time::from_ns(5))?; // v2 needs the ASIC
///
/// // CPU only: just c1 activatable -> estimate 1.
/// let est = estimate_flexibility(&spec, &ResourceAllocation::new().with_vertex(cpu));
/// assert!(est.feasible);
/// assert_eq!(est.value, 1);
///
/// // CPU + ASIC: both alternatives -> estimate 2.
/// let est = estimate_flexibility(
///     &spec,
///     &ResourceAllocation::new().with_vertex(cpu).with_vertex(asic),
/// );
/// assert_eq!(est.value, 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn estimate_flexibility(
    spec: &SpecificationGraph,
    allocation: &ResourceAllocation,
) -> FlexibilityEstimate {
    let compiled = CompiledSpec::new(spec);
    estimate_with_compiled(&compiled, &compiled.available_vertices(allocation))
}

/// The estimator bind, lint and the evolutionary explorer call: estimates
/// the flexibility implementable on the `available` architecture vertices,
/// answering bindability from the precompiled reachable-resource tables of
/// a [`CompiledSpec`] — no per-process set construction in the hot loop.
///
/// Mask-space callers expand a unit subset first
/// (`compiled.available_vertices(&allocation_from_units(units, mask))`);
/// the lattice search tracks the same estimate incrementally with a
/// [`DeltaEstimator`](crate::DeltaEstimator) instead.
#[must_use]
pub fn estimate_with_compiled(
    compiled: &CompiledSpec<'_>,
    available: &BTreeSet<VertexId>,
) -> FlexibilityEstimate {
    let graph = compiled.spec().problem().graph();
    let bindable = |v: VertexId| -> bool {
        compiled
            .reachable_resources(v)
            .iter()
            .any(|r| available.contains(r))
    };
    estimate_with_bindable(graph, &bindable)
}

pub(crate) fn estimate_with_bindable<NB: Fn(VertexId) -> bool, N, E>(
    graph: &flexplore_hgraph::HierarchicalGraph<N, E>,
    bindable: &NB,
) -> FlexibilityEstimate {
    let mut activatable: BTreeSet<ClusterId> = BTreeSet::new();
    // Process clusters bottom-up: a cluster can only be judged once its
    // nested interfaces' clusters are judged. Cluster ids are created
    // outer-first in builders, but nesting is arbitrary — recurse instead.
    fn cluster_ok<NB: Fn(VertexId) -> bool, N, E>(
        graph: &flexplore_hgraph::HierarchicalGraph<N, E>,
        bindable: &NB,
        activatable: &mut BTreeSet<ClusterId>,
        cluster: ClusterId,
    ) -> bool {
        let scope = Scope::Cluster(cluster);
        if !graph.vertices_in(scope).all(bindable) {
            return false;
        }
        let interfaces: Vec<InterfaceId> = graph.interfaces_in(scope).collect();
        for i in interfaces {
            let mut any = false;
            let clusters: Vec<ClusterId> = graph.clusters_of(i).to_vec();
            for c in clusters {
                if cluster_ok(graph, bindable, activatable, c) {
                    activatable.insert(c);
                    any = true;
                }
            }
            if !any {
                return false;
            }
        }
        true
    }

    // Rule 4: all top-level processes and interfaces must be activatable.
    let mut feasible = graph.vertices_in(Scope::Top).all(bindable);
    let top_interfaces: Vec<InterfaceId> = graph.interfaces_in(Scope::Top).collect();
    for i in top_interfaces {
        let mut any = false;
        let clusters: Vec<ClusterId> = graph.clusters_of(i).to_vec();
        for c in clusters {
            if cluster_ok(graph, bindable, &mut activatable, c) {
                activatable.insert(c);
                any = true;
            }
        }
        feasible &= any;
    }
    let value = if feasible {
        flexibility(graph, |c| activatable.contains(&c))
    } else {
        0
    };
    FlexibilityEstimate {
        feasible,
        value,
        activatable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph};

    /// Problem: top process P plus interface I {c1: v1, c2: v2, c3: {inner
    /// interface J {j1: w1, j2: w2}}}. Architecture: cpu (maps P, v1, w1),
    /// asic (v2, w2).
    fn spec() -> (
        SpecificationGraph,
        VertexId,
        VertexId,
        std::collections::BTreeMap<&'static str, ClusterId>,
    ) {
        let mut p = ProblemGraph::new("p");
        let top = p.add_process(Scope::Top, "P");
        let i = p.add_interface(Scope::Top, "I");
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
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(200));

        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(top, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(v2, asic, Time::from_ns(1)).unwrap();
        s.add_mapping(w1, cpu, Time::from_ns(1)).unwrap();
        s.add_mapping(w2, asic, Time::from_ns(1)).unwrap();
        let names = std::collections::BTreeMap::from([
            ("c1", c1),
            ("c2", c2),
            ("c3", c3),
            ("j1", j1),
            ("j2", j2),
        ]);
        (s, cpu, asic, names)
    }

    #[test]
    fn cpu_only_supports_c1_and_c3j1() {
        let (s, cpu, _, names) = spec();
        let est = estimate_flexibility(&s, &ResourceAllocation::new().with_vertex(cpu));
        assert!(est.feasible);
        // c1 (1) + c3{j1} (1) = 2.
        assert_eq!(est.value, 2);
        assert!(est.activatable.contains(&names["c1"]));
        assert!(est.activatable.contains(&names["c3"]));
        assert!(est.activatable.contains(&names["j1"]));
        assert!(!est.activatable.contains(&names["c2"]));
        assert!(!est.activatable.contains(&names["j2"]));
    }

    #[test]
    fn both_resources_support_everything() {
        let (s, cpu, asic, _) = spec();
        let alloc = ResourceAllocation::new().with_vertex(cpu).with_vertex(asic);
        let est = estimate_flexibility(&s, &alloc);
        assert!(est.feasible);
        // c1 + c2 + c3{j1+j2} = 1 + 1 + 2 = 4.
        assert_eq!(est.value, 4);
        assert_eq!(est.activatable.len(), 5);
    }

    #[test]
    fn asic_only_is_infeasible_because_top_process_unbindable() {
        let (s, _, asic, _) = spec();
        let est = estimate_flexibility(&s, &ResourceAllocation::new().with_vertex(asic));
        assert!(!est.feasible);
        assert_eq!(est.value, 0);
    }

    #[test]
    fn empty_allocation_is_infeasible() {
        let (s, _, _, _) = spec();
        let est = estimate_flexibility(&s, &ResourceAllocation::new());
        assert!(!est.feasible);
    }

    #[test]
    fn estimate_is_monotone_in_allocation() {
        let (s, cpu, asic, _) = spec();
        let small = estimate_flexibility(&s, &ResourceAllocation::new().with_vertex(cpu));
        let big = estimate_flexibility(
            &s,
            &ResourceAllocation::new().with_vertex(cpu).with_vertex(asic),
        );
        assert!(big.value >= small.value);
        assert!(small.activatable.is_subset(&big.activatable));
    }

    #[test]
    fn estimate_with_available_matches_allocation_path() {
        // Estimating from an allocation and estimating from its expanded
        // available-vertex set must agree, whichever context expands it.
        let (s, cpu, asic, _) = spec();
        let alloc = ResourceAllocation::new().with_vertex(cpu).with_vertex(asic);
        let compiled = CompiledSpec::new(&s);
        let available = alloc.available_vertices(s.architecture());
        assert_eq!(compiled.available_vertices(&alloc), available);
        let a = estimate_flexibility(&s, &alloc);
        let b = estimate_with_compiled(&compiled, &available);
        assert_eq!(a, b);
    }

    #[test]
    fn unit_mask_estimate_matches_compiled_on_every_subset() {
        // A unit subset decoded into an allocation and expanded by the
        // compiled context must estimate exactly like the hand-built
        // available-vertex set.
        let (s, cpu, asic, _) = spec();
        let compiled = CompiledSpec::new(&s);
        let units = vec![
            flexplore_spec::Unit::Vertex(cpu),
            flexplore_spec::Unit::Vertex(asic),
        ];
        for bits in 0u64..4 {
            let mut available = BTreeSet::new();
            let mut mask = flexplore_spec::UnitMask::empty();
            if bits & 0b01 != 0 {
                available.insert(cpu);
                mask.set(0);
            }
            if bits & 0b10 != 0 {
                available.insert(asic);
                mask.set(1);
            }
            let allocation = flexplore_spec::allocation_from_units(&units, mask);
            assert_eq!(
                estimate_with_compiled(&compiled, &compiled.available_vertices(&allocation)),
                estimate_with_compiled(&compiled, &available),
                "unit-mask estimate must agree with the set-based one"
            );
        }
    }

    #[test]
    fn compiled_estimate_matches_uncompiled_on_every_sub_allocation() {
        let (s, cpu, asic, _) = spec();
        let compiled = CompiledSpec::new(&s);
        for alloc in [
            ResourceAllocation::new(),
            ResourceAllocation::new().with_vertex(cpu),
            ResourceAllocation::new().with_vertex(asic),
            ResourceAllocation::new().with_vertex(cpu).with_vertex(asic),
        ] {
            // The uncompiled availability expansion feeds the compiled
            // estimator the same set the spec-level convenience builds.
            let available = alloc.available_vertices(s.architecture());
            assert_eq!(
                estimate_with_compiled(&compiled, &available),
                estimate_flexibility(&s, &alloc)
            );
        }
    }
}
