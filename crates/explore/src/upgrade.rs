//! Incremental (upgrade) exploration: extending an already-shipped
//! platform.
//!
//! The paper contrasts its approach with Pop et al.'s incremental design,
//! where new functionality is mapped onto an existing system. This module
//! provides that workflow on top of EXPLORE: given a *base allocation*
//! that is already deployed (its resources are sunk cost), explore only
//! the supersets of the base and report the flexibility/cost trade-off of
//! the **upgrades** — guaranteeing every behavior of the base remains
//! implementable (supersets never lose feasible modes; see the
//! monotonicity property tests).

use crate::allocations::{allocatable_units, enumerate, Unit};
use crate::error::ExploreError;
use crate::explore::{explore_inner, ExploreOptions, ExploreResult};
use flexplore_obs::ObsSink;
use flexplore_spec::{CompiledSpec, ResourceAllocation, SpecificationGraph, UnitMask};
use std::collections::HashMap;

/// Explores the flexibility/cost front over all allocations that contain
/// `base`.
///
/// The returned points include the (sunk) base cost; subtract
/// `base.cost(spec.architecture())` for the marginal upgrade price.
///
/// # Errors
///
/// See [`explore`](crate::explore).
pub fn explore_upgrades(
    spec: &SpecificationGraph,
    base: &ResourceAllocation,
    options: &ExploreOptions,
) -> Result<ExploreResult, ExploreError> {
    let compiled = CompiledSpec::with_activation_cache(spec);
    let obs = ObsSink::disabled();
    let out = enumerate(&compiled, &options.allocation, &obs)?;
    // The base as a unit mask; a base holding anything that is not an
    // allocatable unit is contained in no candidate.
    let units = allocatable_units(spec);
    let base_units = base.vertices.iter().map(|&v| Unit::Vertex(v));
    let base_mask = base_units
        .chain(base.clusters.iter().map(|&c| Unit::Cluster(c)))
        .try_fold(UnitMask::empty(), |mask, unit| {
            let k = units.iter().position(|&u| u == unit)?;
            Some(mask | UnitMask::bit(k))
        });
    let rows = out
        .rows
        .into_iter()
        .filter(|row| base_mask.is_some_and(|base| base.andnot(row.mask).is_empty()))
        .collect();
    let (result, _) = explore_inner(
        &compiled,
        options,
        &obs,
        Some((rows, out.stats)),
        &HashMap::new(),
        false,
    )?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph};

    /// Three alternatives on three dedicated resources.
    fn spec() -> (SpecificationGraph, Vec<flexplore_hgraph::VertexId>) {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let mut procs = Vec::new();
        for k in 0..3 {
            let c = p.add_cluster(i, format!("c{k}"));
            procs.push(p.add_process(c.into(), format!("v{k}")));
        }
        let mut a = ArchitectureGraph::new("a");
        let mut resources = Vec::new();
        for k in 0..3 {
            resources.push(a.add_resource(
                Scope::Top,
                format!("r{k}"),
                Cost::new(100 + 50 * k as u64),
            ));
        }
        let mut s = SpecificationGraph::new("s", p, a);
        for (k, &v) in procs.iter().enumerate() {
            s.add_mapping(v, resources[k], Time::from_ns(10)).unwrap();
        }
        (s, resources)
    }

    #[test]
    fn upgrades_always_contain_the_base() {
        let (s, resources) = spec();
        let base = ResourceAllocation::new().with_vertex(resources[1]); // r1, $150
        let result = explore_upgrades(&s, &base, &ExploreOptions::paper()).unwrap();
        assert!(!result.front.is_empty());
        for point in &result.front {
            let implementation = point.implementation.as_ref().unwrap();
            assert!(implementation.allocation.contains(&base));
            assert!(point.cost >= Cost::new(150));
        }
    }

    #[test]
    fn upgrade_front_is_the_full_front_restricted_to_supersets() {
        let (s, resources) = spec();
        let base = ResourceAllocation::new().with_vertex(resources[0]);
        let upgrades = explore_upgrades(&s, &base, &ExploreOptions::paper()).unwrap();
        // Recompute by filtering an exhaustive superset sweep: every
        // superset point on the upgrade front must be non-dominated among
        // supersets. Spot-check against the unrestricted front where the
        // base resource is in every optimal allocation anyway (r0 is the
        // cheapest and always useful).
        let full = explore(&s, &ExploreOptions::paper()).unwrap();
        for point in &upgrades.front {
            // No superset point dominates it in the full front either.
            for other in &full.front {
                let other_impl = other.implementation.as_ref().unwrap();
                if other_impl.allocation.contains(&base) {
                    assert!(!other.dominates(point));
                }
            }
        }
    }

    #[test]
    fn empty_base_equals_plain_explore() {
        let (s, _) = spec();
        let plain = explore(&s, &ExploreOptions::paper()).unwrap();
        let upgrades =
            explore_upgrades(&s, &ResourceAllocation::new(), &ExploreOptions::paper()).unwrap();
        assert!(plain.front.same_objectives(&upgrades.front));
    }

    #[test]
    fn infeasible_base_superset_space_yields_empty_front() {
        let (s, resources) = spec();
        // Base = everything: only one candidate (itself). Still feasible.
        let mut base = ResourceAllocation::new();
        for &r in &resources {
            base.vertices.insert(r);
        }
        let result = explore_upgrades(&s, &base, &ExploreOptions::paper()).unwrap();
        assert_eq!(result.front.len(), 1);
        assert_eq!(result.front.points()[0].flexibility, 3);
    }
}
