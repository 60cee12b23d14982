//! Enumeration of *possible resource allocations*.
//!
//! Section 4 of the paper: a possible resource allocation is a partial
//! allocation of architecture resources that allows at least one feasible
//! problem-graph activation when the feasibility of binding is neglected.
//! Only top-level architecture leaves and whole design clusters are
//! considered as allocatable units; of the `2^{|V_S|}` raw design points,
//! only the elements covering a possible resource allocation are kept, and
//! *"elements that are obviously not Pareto-optimal […] are left out, e.g.,
//! all combinations of a single functional component and an arbitrary
//! number of communication resources."*

use crate::error::ExploreError;
use flexplore_flex::{Flexibility, FlexibilityEstimate};
use flexplore_lint::compute_facts_obs;
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{
    allocation_from_units, CompiledSpec, Cost, ResourceAllocation, UnitMask, MAX_UNITS,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use flexplore_spec::Unit;

/// Options controlling allocation enumeration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AllocationOptions {
    /// Hard limit on the number of allocatable units (the enumeration
    /// lattice is `2^units`; the branch-and-bound search visits only a
    /// fraction of it, so counts well past 64 units are practical).
    pub max_units: usize,
    /// Drop allocations containing a communication resource with fewer than
    /// two allocated neighbors — the paper's "single functional component
    /// plus arbitrary buses" pruning, generalized.
    pub prune_useless_buses: bool,
    /// Drop allocations containing a functional unit that is the target of
    /// no mapping edge (it can only add cost, so any allocation containing
    /// it is dominated).
    pub prune_unusable: bool,
    /// Worker threads for the enumeration. Work is partitioned
    /// deterministically into fixed-depth DFS prefixes, so any thread
    /// count produces identical output, counters included.
    pub threads: usize,
    /// Run the static lattice analysis (mandatory units, dominated units,
    /// symmetry classes — see `flexplore_lint::analysis`) before
    /// branch-and-bound and use the proven facts to force, mirror and
    /// collapse subtrees. The candidate list is byte-identical with the
    /// analysis on or off; only the visit counters change.
    pub analysis: bool,
}

impl Default for AllocationOptions {
    fn default() -> Self {
        AllocationOptions {
            max_units: 192,
            prune_useless_buses: true,
            prune_unusable: true,
            threads: 1,
            analysis: true,
        }
    }
}

/// A possible resource allocation with its cost and flexibility estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationCandidate {
    /// The allocated units.
    pub allocation: ResourceAllocation,
    /// Allocation cost (the first objective).
    pub cost: Cost,
    /// Optimistic flexibility estimate (upper bound on `f_impl`).
    pub estimate: FlexibilityEstimate,
}

/// Counters from one enumeration run.
///
/// The sum invariant `pruned_structurally + infeasible + kept == subsets`
/// holds below 64 units, and `kept` (with the exact candidate list) is
/// byte-identical to the flat-scan oracle of `crates/fuzz`, which judges
/// every subset on its own. At 64 units and beyond, `subsets` and the
/// per-subset prune counters saturate at `u64::MAX` — still
/// deterministic, no longer exact. Per-category attribution of *pruned*
/// subsets may differ from the flat scan at the margin: a subtree dropped
/// wholesale by a monotone bound counts all its subsets under that
/// bound's category, even ones the flat scan would have rejected for a
/// different reason first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationStats {
    /// Number of allocatable units (`2^units` raw subsets).
    pub units: usize,
    /// Size of the subset lattice (`2^units`; the search touches only a
    /// fraction of it).
    pub subsets: u64,
    /// Subsets dropped by the useless-bus / unusable-unit prunings.
    pub pruned_structurally: u64,
    /// Subsets dropped because the flexibility estimate found them
    /// infeasible (some behavior unbindable).
    pub infeasible: u64,
    /// Possible resource allocations kept.
    pub kept: u64,
    /// DFS nodes the lattice search expanded (subsets emitted by a
    /// uniformly-feasible fill or dropped by a subtree bound are *not*
    /// individually visited).
    pub nodes_visited: u64,
    /// Subtree-level prune events of the lattice search.
    pub subtrees_pruned: u64,
    /// Flexibility-estimate lookups of the sequential prefix walk
    /// answered by the estimate memo: its lookups minus the distinct
    /// estimates it materialized.
    pub estimate_memo_hits: u64,
    /// Flexibility-estimate lookups of the parallel subtree walks answered
    /// by the estimate memo: their lookups minus the distinct estimates
    /// they added to it. Both terms are fixed by the walk's decomposition,
    /// so the total is identical at every thread count.
    pub memo_cross_hits: u64,
    /// Single-unit delta updates applied to the incremental estimate
    /// trackers along the DFS path, tracker initialization included. The
    /// transient updates that materialize a fill subset's estimate are not
    /// counted: they happen only on a memo miss.
    pub estimate_delta_pushes: u64,
    /// Exclude branches of statically mandatory units skipped outright by
    /// the analysis certificate (0 without analysis).
    pub analysis_mandatory_forced: u64,
    /// Include subtrees of statically dominated units answered by
    /// mirroring the explored exclude subtree instead of searching them
    /// (0 without analysis).
    pub analysis_subtrees_skipped: u64,
    /// Extra candidates emitted by expanding a symmetry-class orbit from
    /// its explored canonical representative (0 without analysis).
    pub symmetry_orbit_expansions: u64,
    /// Warm-start artifacts replayed from an exploration cache instead of
    /// recomputed: cached bind outcomes reused, plus the candidate rows
    /// when the enumeration was replayed wholesale. Deterministic at any
    /// thread count (bind hits are tallied at sequence-order merge time);
    /// 0 on cold runs. Published through the obs `warmstart` section, *not*
    /// the deterministic counter section — see `flexplore_obs::Warmstart`.
    pub warm_hits: u64,
    /// Cached bind outcomes discarded because the spec delta touched
    /// their candidate's units (0 on cold runs).
    pub warm_invalidated: u64,
    /// Units whose content signature changed relative to the cached spec
    /// (0 on cold runs).
    pub delta_units: u64,
}

pub use flexplore_spec::allocatable_units;

/// One possible resource allocation as EXPLORE carries it from the lattice
/// walk to the cache file: its units, its cost and its estimated
/// flexibility — the three facts the cost-ordered bind loop needs until it
/// decides to implement the candidate. The allocation itself is rebuilt
/// from the mask ([`allocation_from_units`] over [`allocatable_units`])
/// only for the candidates that reach the binding solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateRow {
    /// Allocated-unit mask in [`allocatable_units`] order.
    pub mask: UnitMask,
    /// Allocation cost (the first objective).
    pub cost: Cost,
    /// Optimistic flexibility estimate (upper bound on `f_impl`).
    pub value: Flexibility,
}

/// Enumerates the possible resource allocations of the compiled
/// specification, sorted by increasing cost (ties broken towards higher
/// estimated flexibility, so cost-ordered exploration visits the most
/// promising equal-cost candidate first).
///
/// The per-subset feasibility estimate, availability expansion and cost
/// use the shared [`CompiledSpec`] side tables, and the compiled context
/// can be reused for the implement stage that follows. The static
/// analysis (`enumerate.analysis`) and the estimate busy time
/// (`enumerate.estimate`) are recorded into `obs` as sub-phases; with a
/// disabled sink no clocks are read.
///
/// # Errors
///
/// Returns [`ExploreError::TooManyUnits`] when the unit count exceeds
/// `options.max_units`, [`ExploreError::UnitOverflow`] when it exceeds
/// the [`MAX_UNITS`] the multi-word subset masks can index, and
/// [`ExploreError::CostOverflow`] when the summed cost of all units does
/// not fit in a `u64`.
pub fn possible_resource_allocations(
    compiled: &CompiledSpec<'_>,
    options: &AllocationOptions,
    obs: &ObsSink,
) -> Result<(Vec<AllocationCandidate>, AllocationStats), ExploreError> {
    let out = enumerate(compiled, options, obs)?;
    let units = allocatable_units(compiled.spec());
    let candidates = out
        .rows
        .iter()
        .zip(out.estimates)
        .map(|(row, estimate)| AllocationCandidate {
            allocation: allocation_from_units(&units, row.mask),
            cost: row.cost,
            estimate: Arc::unwrap_or_clone(estimate),
        })
        .collect();
    Ok((candidates, out.stats))
}

/// Everything one enumeration produced: the cost-sorted candidate rows,
/// each row's full estimate (a handle shared by every row with the same
/// estimate-relevant units), and the counters.
#[derive(Debug)]
pub(crate) struct EnumerationOutput {
    /// Cost-sorted possible resource allocations.
    pub rows: Vec<CandidateRow>,
    /// Per-row flexibility estimate, parallel to `rows`.
    pub estimates: Vec<Arc<FlexibilityEstimate>>,
    /// Enumeration counters.
    pub stats: AllocationStats,
}

/// The enumeration behind [`possible_resource_allocations`], before any
/// allocation is materialized.
///
/// # Errors
///
/// See [`possible_resource_allocations`].
pub(crate) fn enumerate(
    compiled: &CompiledSpec<'_>,
    options: &AllocationOptions,
    obs: &ObsSink,
) -> Result<EnumerationOutput, ExploreError> {
    let units = allocatable_units(compiled.spec());
    if units.len() > MAX_UNITS {
        return Err(ExploreError::UnitOverflow {
            units: units.len(),
            limit: MAX_UNITS,
        });
    }
    if units.len() > options.max_units {
        return Err(ExploreError::TooManyUnits {
            units: units.len(),
            max: options.max_units,
        });
    }
    // Every subset costs at most the total, so neither the walk nor the
    // solver can wrap once it fits.
    if compiled.unit_cost_total().is_none() {
        return Err(ExploreError::CostOverflow);
    }
    let facts = if options.analysis {
        let timer = obs.start();
        let facts = compute_facts_obs(compiled, &units, obs);
        obs.finish(phase::ENUMERATE_ANALYZE, timer);
        Some(facts)
    } else {
        None
    };
    Ok(crate::lattice::bnb_scan(
        compiled,
        units,
        options,
        facts.as_ref(),
        obs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::{Scope, VertexId};
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, ProblemGraph, SpecificationGraph};
    use std::collections::BTreeSet;

    /// Enumerates `spec` through a fresh compiled context, unobserved.
    fn enumerate_spec(
        spec: &SpecificationGraph,
        options: &AllocationOptions,
    ) -> Result<(Vec<AllocationCandidate>, AllocationStats), ExploreError> {
        possible_resource_allocations(&CompiledSpec::new(spec), options, &ObsSink::disabled())
    }

    /// One process mappable to either of two CPUs; a bus between them; a
    /// third CPU no process maps to.
    fn spec() -> (SpecificationGraph, VertexId, VertexId, VertexId, VertexId) {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(100));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(150));
        let dead = a.add_resource(Scope::Top, "dead", Cost::new(50));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(10));
        a.connect(r1, bus).unwrap();
        a.connect(bus, r2).unwrap();
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(t, r1, Time::from_ns(5)).unwrap();
        s.add_mapping(t, r2, Time::from_ns(5)).unwrap();
        (s, r1, r2, dead, bus)
    }

    #[test]
    fn enumeration_keeps_feasible_and_sorted() {
        let (s, r1, r2, _, bus) = spec();
        let (cands, stats) = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        assert_eq!(stats.units, 4);
        assert_eq!(stats.subsets, 16);
        // Feasible candidates with prunings: {r1}, {r2}, {r1,r2},
        // {r1,bus,r2}, {r1,r2,... dead pruned ...}.
        let sets: Vec<BTreeSet<VertexId>> = cands
            .iter()
            .map(|c| c.allocation.vertices.clone())
            .collect();
        assert!(sets.contains(&BTreeSet::from([r1])));
        assert!(sets.contains(&BTreeSet::from([r2])));
        assert!(sets.contains(&BTreeSet::from([r1, r2])));
        assert!(sets.contains(&BTreeSet::from([r1, r2, bus])));
        assert_eq!(cands.len(), 4);
        // Sorted by cost.
        for w in cands.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn unusable_resources_are_pruned() {
        let (s, _, _, dead, _) = spec();
        let (cands, _) = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        assert!(cands.iter().all(|c| !c.allocation.vertices.contains(&dead)));
        // Disabling the pruning brings `dead` supersets back.
        let options = AllocationOptions {
            prune_unusable: false,
            ..AllocationOptions::default()
        };
        let (cands, _) = enumerate_spec(&s, &options).unwrap();
        assert!(cands.iter().any(|c| c.allocation.vertices.contains(&dead)));
    }

    #[test]
    fn dangling_buses_are_pruned() {
        let (s, r1, _, _, bus) = spec();
        let (cands, _) = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        // {r1, bus} has the bus with a single allocated neighbor: pruned.
        assert!(!cands
            .iter()
            .any(|c| c.allocation.vertices == BTreeSet::from([r1, bus])));
    }

    #[test]
    fn unit_limit_is_enforced() {
        let (s, _, _, _, _) = spec();
        let options = AllocationOptions {
            max_units: 2,
            ..AllocationOptions::default()
        };
        let err = enumerate_spec(&s, &options).unwrap_err();
        assert!(matches!(
            err,
            ExploreError::TooManyUnits { units: 4, max: 2 }
        ));
    }

    #[test]
    fn design_clusters_are_units() {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let fpga = a.add_interface(Scope::Top, "FPGA");
        let d1 = a.add_design(fpga, "cfg1", "D1", Cost::new(60)).unwrap();
        let _d2 = a.add_design(fpga, "cfg2", "D2", Cost::new(60)).unwrap();
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(t, d1.design, Time::from_ns(1)).unwrap();
        let (cands, stats) = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        assert_eq!(stats.units, 2);
        // Only {D1-cluster} is feasible and useful.
        assert_eq!(cands.len(), 1);
        assert!(cands[0].allocation.clusters.contains(&d1.cluster));
        assert_eq!(cands[0].cost, Cost::new(60));
    }

    #[test]
    fn estimates_are_attached() {
        let (s, _, _, _, _) = spec();
        let (cands, _) = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        for c in &cands {
            assert!(c.estimate.feasible);
            assert_eq!(c.estimate.value, 1); // flat problem graph
        }
    }
    #[test]
    fn unit_overflow_is_bounded_by_the_mask_capacity() {
        let wide = |count: usize| {
            let mut p = ProblemGraph::new("p");
            let _t = p.add_process(Scope::Top, "t");
            let mut a = ArchitectureGraph::new("a");
            for i in 0..count {
                a.add_resource(Scope::Top, format!("r{i}"), Cost::new(10));
            }
            SpecificationGraph::new("s", p, a)
        };
        let options = AllocationOptions {
            max_units: 1000,
            ..AllocationOptions::default()
        };
        // Past one mask word is fine (the units are all unusable here, so
        // the scan is trivial)...
        let (_, stats) = enumerate_spec(&wide(64), &options).unwrap();
        assert_eq!(stats.units, 64);
        // ...and the multi-word mask capacity bounds the search, however
        // generous `max_units` is.
        let err = enumerate_spec(&wide(MAX_UNITS + 1), &options).unwrap_err();
        assert!(matches!(
            err,
            ExploreError::UnitOverflow {
                units: 257,
                limit: 256
            }
        ));
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let (s, _, _, _, _) = spec();
        let sequential = enumerate_spec(&s, &AllocationOptions::default()).unwrap();
        let parallel = enumerate_spec(
            &s,
            &AllocationOptions {
                threads: 4,
                ..AllocationOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.1, parallel.1, "stats must merge exactly");
        let seq_sets: Vec<_> = sequential.0.iter().map(|c| c.allocation.clone()).collect();
        let par_sets: Vec<_> = parallel.0.iter().map(|c| c.allocation.clone()).collect();
        assert_eq!(seq_sets, par_sets, "order and contents must be identical");
    }
}
