//! The flat subset scan: the exhaustive oracle the branch-and-bound
//! lattice search of `flexplore-explore` is checked against.
//!
//! [`flat_scan`] judges every one of the `2^units` subset masks on its
//! own — the structural prunings, then the compiled flexibility estimate —
//! with no memo, no subtree bounds and no static analysis. It keeps exactly
//! the candidates the lattice search keeps, in the same order, which is
//! what the `enumerator-equivalence` and `analysis-facts` oracles and the
//! lattice tests rely on. [`flat_explore`] runs the paper's cost-ordered
//! bind loop over those candidates one at a time, as an independent
//! reference for the front `explore` computes.

use flexplore_bind::implement_allocation;
use flexplore_explore::{
    allocatable_units, AllocationCandidate, AllocationOptions, AllocationStats, DesignPoint,
    ExploreError, ExploreOptions, ParetoFront, Unit,
};
use flexplore_flex::estimate_with_compiled;
use flexplore_hgraph::{NodeRef, VertexId};
use flexplore_obs::ObsSink;
use flexplore_spec::{
    CompiledSpec, ResourceAllocation, ResourceKind, SpecificationGraph, UnitMask,
};
use std::collections::{BTreeMap, BTreeSet};

/// Most units the scan's `u64` subset counter can index.
const FLAT_SCAN_LIMIT: usize = 63;

/// Enumerates the possible resource allocations of `compiled` by judging
/// every subset mask independently, returning each kept candidate with its
/// unit mask (bit `k` allocates `allocatable_units(spec)[k]`) in the
/// lattice search's order: by cost, ties towards the higher estimate, then
/// by mask. `nodes_visited` counts every subset; the memo, subtree and
/// analysis counters stay 0.
///
/// # Errors
///
/// [`ExploreError::UnitOverflow`] beyond 63 units and
/// [`ExploreError::TooManyUnits`] beyond `options.max_units`.
pub fn flat_scan(
    compiled: &CompiledSpec<'_>,
    options: &AllocationOptions,
) -> Result<(Vec<(UnitMask, AllocationCandidate)>, AllocationStats), ExploreError> {
    let spec = compiled.spec();
    let arch = spec.architecture();
    let units = allocatable_units(spec);
    if units.len() > FLAT_SCAN_LIMIT {
        return Err(ExploreError::UnitOverflow {
            units: units.len(),
            limit: FLAT_SCAN_LIMIT,
        });
    }
    if units.len() > options.max_units {
        return Err(ExploreError::TooManyUnits {
            units: units.len(),
            max: options.max_units,
        });
    }
    let mut stats = AllocationStats {
        units: units.len(),
        ..AllocationStats::default()
    };
    // Mapping-target set for the unusable-unit pruning.
    let mapping_targets: BTreeSet<VertexId> = spec
        .mapping_ids()
        .map(|m| spec.mapping(m).resource)
        .collect();
    // Potential neighbor lists for the useless-bus pruning, at unit
    // granularity (device clusters collapse onto their device's neighbors).
    let neighbor_units = bus_neighbors(spec, &units);

    let mut kept = Vec::new();
    for mask in 0..1u64 << units.len() {
        stats.subsets += 1;
        stats.nodes_visited += 1;
        let mut allocation = ResourceAllocation::new();
        for (k, unit) in units.iter().enumerate() {
            if mask & (1 << k) != 0 {
                match unit {
                    Unit::Vertex(v) => {
                        allocation.vertices.insert(*v);
                    }
                    Unit::Cluster(c) => {
                        allocation.clusters.insert(*c);
                    }
                }
            }
        }

        if options.prune_unusable {
            let unusable = allocation.vertices.iter().any(|&v| {
                arch.kind(v) == ResourceKind::Functional && !mapping_targets.contains(&v)
            }) || allocation.clusters.iter().any(|&c| {
                compiled
                    .cluster_leaves(c)
                    .iter()
                    .all(|v| !mapping_targets.contains(v))
            });
            if unusable {
                stats.pruned_structurally += 1;
                continue;
            }
        }

        if options.prune_useless_buses {
            let allocated_unit = |u: &Unit| match u {
                Unit::Vertex(v) => allocation.vertices.contains(v),
                Unit::Cluster(c) => allocation.clusters.contains(c),
            };
            let useless = allocation
                .vertices
                .iter()
                .filter(|&&v| arch.kind(v) == ResourceKind::Communication)
                .any(|v| {
                    neighbor_units
                        .get(v)
                        .is_none_or(|ns| ns.iter().filter(|u| allocated_unit(u)).count() < 2)
                });
            if useless {
                stats.pruned_structurally += 1;
                continue;
            }
        }

        let estimate = estimate_with_compiled(compiled, &compiled.available_vertices(&allocation));
        if !estimate.feasible {
            stats.infeasible += 1;
            continue;
        }
        let cost = compiled.allocation_cost(&allocation);
        stats.kept += 1;
        kept.push((
            UnitMask::from_words([mask, 0, 0, 0]),
            AllocationCandidate {
                allocation,
                cost,
                estimate,
            },
        ));
    }
    kept.sort_by_key(|(_, c)| (c.cost, std::cmp::Reverse(c.estimate.value)));
    Ok((kept, stats))
}

/// For every communication vertex, the units it can link: plain endpoint
/// vertices and, for links into a reconfigurable device, the device's
/// design clusters.
fn bus_neighbors(spec: &SpecificationGraph, units: &[Unit]) -> BTreeMap<VertexId, Vec<Unit>> {
    let arch = spec.architecture();
    let graph = arch.graph();
    let unit_set: BTreeSet<Unit> = units.iter().copied().collect();
    let mut out: BTreeMap<VertexId, Vec<Unit>> = BTreeMap::new();
    let mut push = |bus: VertexId, unit: Unit| {
        if unit_set.contains(&unit) {
            out.entry(bus).or_default().push(unit);
        }
    };
    for e in graph.edge_ids() {
        let (from, to) = graph.edge_endpoints(e);
        let ends = [from.node, to.node];
        for (idx, end) in ends.iter().enumerate() {
            let NodeRef::Vertex(v) = end else { continue };
            if arch.kind(*v) != ResourceKind::Communication {
                continue;
            }
            let other = ends[1 - idx];
            match other {
                NodeRef::Vertex(o) => push(*v, Unit::Vertex(o)),
                NodeRef::Interface(i) => {
                    for &c in graph.clusters_of(i) {
                        push(*v, Unit::Cluster(c));
                    }
                }
            }
        }
    }
    // A neighbor reachable through parallel links counts once, matching the
    // OR-composed neighbor masks of the lattice search.
    for list in out.values_mut() {
        list.sort_unstable();
        list.dedup();
    }
    out
}

/// The paper's EXPLORE loop written out sequentially over the flat scan:
/// visit the candidates in cost order, skip every one whose estimate does
/// not beat the best implemented flexibility so far (with
/// `options.flexibility_pruning`), implement the rest one at a time and
/// archive the feasible ones. `explore` must return the same front.
///
/// # Errors
///
/// [`flat_scan`]'s errors, and [`ExploreError::Bind`] when a candidate
/// exceeds the per-allocation activation bound.
pub fn flat_explore(
    spec: &SpecificationGraph,
    options: &ExploreOptions,
) -> Result<ParetoFront, ExploreError> {
    let compiled = CompiledSpec::with_activation_cache(spec);
    let (kept, _) = flat_scan(&compiled, &options.allocation)?;
    let mut front = ParetoFront::new();
    let mut f_cur = 0;
    for (_, candidate) in kept {
        if options.flexibility_pruning && candidate.estimate.value <= f_cur {
            continue;
        }
        let (implemented, _) = implement_allocation(
            &compiled,
            &candidate.allocation,
            &options.implement,
            None,
            &ObsSink::disabled(),
        )?;
        if let Some(implementation) = implemented {
            let flexibility = implementation.flexibility;
            if front.insert(DesignPoint::from_implementation(implementation)) {
                f_cur = f_cur.max(flexibility);
            }
        }
    }
    Ok(front)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_explore::possible_resource_allocations;
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph};

    /// One process mappable to either of two CPUs; a bus between them; a
    /// third CPU no process maps to.
    fn spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(100));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(150));
        a.add_resource(Scope::Top, "dead", Cost::new(50));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(10));
        a.connect(r1, bus).unwrap();
        a.connect(bus, r2).unwrap();
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(t, r1, Time::from_ns(5)).unwrap();
        s.add_mapping(t, r2, Time::from_ns(5)).unwrap();
        s
    }

    #[test]
    fn bnb_matches_the_flat_oracle() {
        let s = spec();
        let compiled = CompiledSpec::new(&s);
        let (flat, flat_stats) = flat_scan(&compiled, &AllocationOptions::default()).unwrap();
        for threads in [1, 2, 4] {
            let options = AllocationOptions {
                threads,
                ..AllocationOptions::default()
            };
            let (bnb, bnb_stats) =
                possible_resource_allocations(&compiled, &options, &ObsSink::disabled()).unwrap();
            assert_eq!(flat.len(), bnb.len());
            for ((_, a), b) in flat.iter().zip(&bnb) {
                assert_eq!(a.allocation, b.allocation);
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.estimate, b.estimate);
            }
            assert_eq!(flat_stats.subsets, bnb_stats.subsets);
            assert_eq!(flat_stats.kept, bnb_stats.kept);
            assert_eq!(
                bnb_stats.pruned_structurally + bnb_stats.infeasible + bnb_stats.kept,
                bnb_stats.subsets,
                "every subset is accounted for exactly once"
            );
            assert!(bnb_stats.nodes_visited <= flat_stats.nodes_visited);
        }
    }

    #[test]
    fn flat_explore_matches_explore() {
        let s = spec();
        let front = flat_explore(&s, &ExploreOptions::paper()).unwrap();
        let explored = flexplore_explore::explore(&s, &ExploreOptions::paper()).unwrap();
        assert_eq!(
            serde_json::to_string(&front).unwrap(),
            serde_json::to_string(&explored.front).unwrap()
        );
    }

    #[test]
    fn wide_architectures_overflow_the_scan() {
        let mut p = ProblemGraph::new("p");
        p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        for i in 0..64 {
            a.add_resource(Scope::Top, format!("r{i}"), Cost::new(10));
        }
        let s = SpecificationGraph::new("s", p, a);
        let options = AllocationOptions {
            max_units: 1000,
            ..AllocationOptions::default()
        };
        let err = flat_scan(&CompiledSpec::new(&s), &options).unwrap_err();
        assert!(matches!(
            err,
            ExploreError::UnitOverflow {
                units: 64,
                limit: 63
            }
        ));
    }
}
