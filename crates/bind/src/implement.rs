//! Constructing complete implementations: one feasible mode per elementary
//! cluster-activation, covering every activatable cluster.
//!
//! For a candidate resource allocation, the paper (Section 4) determines
//! the activatable problem clusters, covers them with *elementary
//! cluster-activations* (ECAs: exactly one cluster per activated
//! interface), finds a feasible allocation/binding for each ECA, validates
//! the timing constraints, and — if all of that succeeds — obtains an
//! implementation whose flexibility is computed over the clusters that made
//! it through.

use crate::comm::CommGraph;
use crate::solver::{BindKernel, BindOptions, ModeImplementation, SolveStats};
use flexplore_flex::{estimate_with_compiled, flexibility, Flexibility};
use flexplore_hgraph::{ClusterId, VertexId};
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{CompiledSpec, Cost, ResourceAllocation, SpecificationGraph};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Error returned by [`implement_allocation`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BindError {
    /// The number of elementary cluster-activations exceeds
    /// [`ImplementOptions::max_activations`].
    TooManyActivations {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::TooManyActivations { limit } => {
                write!(f, "more than {limit} elementary cluster-activations")
            }
        }
    }
}

impl Error for BindError {}

/// Options for [`implement_allocation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImplementOptions {
    /// Per-mode binding-search options.
    pub bind: BindOptions,
    /// Upper bound on the number of ECAs enumerated per allocation.
    pub max_activations: usize,
    /// Architecture vertices treated as unavailable even though allocated.
    /// Degraded-mode rebinding and resilience analysis reuse the whole
    /// implement/solve pipeline by masking failed (or hypothetically
    /// killed) resources here instead of duplicating the search logic.
    /// Empty by default.
    pub excluded_resources: BTreeSet<VertexId>,
}

impl Default for ImplementOptions {
    fn default() -> Self {
        ImplementOptions {
            bind: BindOptions::default(),
            max_activations: 100_000,
            excluded_resources: BTreeSet::new(),
        }
    }
}

impl ImplementOptions {
    /// Returns these options with `excluded` masked out of every candidate
    /// allocation (replacing any previous mask).
    #[must_use]
    pub fn with_excluded_resources(mut self, excluded: BTreeSet<VertexId>) -> Self {
        self.excluded_resources = excluded;
        self
    }
}

/// A complete implementation of a specification on one resource
/// allocation: the set of feasible modes the system can switch between,
/// and the flexibility/cost coordinates it realizes in the objective space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Implementation {
    /// The allocated resources.
    pub allocation: ResourceAllocation,
    /// One feasible mode per implementable elementary cluster-activation.
    pub modes: Vec<ModeImplementation>,
    /// Problem clusters covered by at least one feasible mode.
    pub covered_clusters: BTreeSet<ClusterId>,
    /// The implemented flexibility `f_impl` (Definition 4 over the covered
    /// clusters).
    pub flexibility: Flexibility,
    /// The allocation cost `c_impl`.
    pub cost: Cost,
}

impl Implementation {
    /// Returns a minimal subset of the implementation's modes that still
    /// covers every covered cluster, greedily (largest uncovered
    /// contribution first).
    ///
    /// This is the paper's *coverage* of the activatable-cluster set by
    /// elementary cluster-activations, reported in the case study (e.g.
    /// `{γ_D2 γ_U1}` and `{γ_D1 γ_U2}`).
    #[must_use]
    pub fn covering_modes(&self) -> Vec<&ModeImplementation> {
        let mut uncovered = self.covered_clusters.clone();
        let mut picked = Vec::new();
        while !uncovered.is_empty() {
            let best = self.modes.iter().max_by_key(|m| {
                m.mode
                    .problem
                    .iter()
                    .filter(|(_, c)| uncovered.contains(c))
                    .count()
            });
            let Some(best) = best else { break };
            let gain: Vec<ClusterId> = best
                .mode
                .problem
                .iter()
                .map(|(_, c)| c)
                .filter(|c| uncovered.contains(c))
                .collect();
            if gain.is_empty() {
                break;
            }
            for c in gain {
                uncovered.remove(&c);
            }
            picked.push(best);
        }
        picked
    }
}

/// Statistics of one [`implement_allocation`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImplementStats {
    /// Elementary cluster-activations enumerated.
    pub activations: u64,
    /// Activations for which a feasible mode was found.
    pub feasible_modes: u64,
    /// Aggregated binding-search counters.
    pub solve: SolveStats,
}

/// Tries to implement the specification on `allocation`.
///
/// Returns `Ok(None)` when the allocation admits no feasible implementation
/// (some top-level behavior cannot be realized).
///
/// All per-candidate work reads the shared, immutable [`CompiledSpec`]
/// tables (latency-sorted mappings, reachable-resource lists, cluster
/// leaves and costs, resolved architecture-edge endpoints, cached
/// activations): build the compiled context once per specification and
/// reuse it across every allocation, as the exploration engine does.
///
/// When `batch` is given, the elementary-cluster-activation enumeration is
/// answered from (and fills) the batch's shared cache, so sibling
/// candidates activating the same cluster set skip straight to the
/// per-ECA `bind.solve` work. The cache stores a pure function of the
/// activatable set (see [`BindingBatch`](crate::BindingBatch)), so
/// implementations and stats are identical with or without it.
///
/// The per-allocation search tables — the communication reach rows, the
/// design index and the availability-filtered candidate lists — are built
/// once and shared by every activation; masked `excluded_resources` are
/// outside both the search and the verification of its solutions.
///
/// Busy time of the feasibility estimate (`bind.estimate`), the
/// per-allocation tables (`bind.comm`), the backtracking binding search
/// (`bind.solve`, one call per elementary cluster-activation) and the
/// implemented-flexibility evaluation (`bind.flex`) is recorded into
/// `obs`; with a disabled sink no clocks are read. Safe to call from
/// worker threads sharing one sink: only dotted sub-phases are recorded,
/// which aggregate order-free.
///
/// # Errors
///
/// Returns [`BindError::TooManyActivations`] if the ECA enumeration exceeds
/// the configured bound.
pub fn implement_allocation(
    compiled: &CompiledSpec<'_>,
    allocation: &ResourceAllocation,
    options: &ImplementOptions,
    batch: Option<&crate::batch::BindingBatch>,
    obs: &ObsSink,
) -> Result<(Option<Implementation>, ImplementStats), BindError> {
    let spec = compiled.spec();
    let mut stats = ImplementStats::default();
    let mut available = compiled.available_vertices(allocation);
    for v in &options.excluded_resources {
        available.remove(v);
    }
    let timer = obs.start();
    let estimate = estimate_with_compiled(compiled, &available);
    obs.finish(phase::BIND_ESTIMATE, timer);
    if !estimate.feasible {
        return Ok((None, stats));
    }
    let activatable = &estimate.activatable;
    // `None` marks the "a top-level interface lost all clusters" error
    // case of the enumeration: no implementation.
    let ecas: std::sync::Arc<Vec<flexplore_hgraph::Selection>> = match batch {
        Some(batch) => match batch.ecas_for(spec, activatable) {
            Some(ecas) => ecas,
            None => return Ok((None, stats)),
        },
        None => match spec
            .problem()
            .graph()
            .enumerate_selections_where(|c| activatable.contains(&c))
        {
            Ok(ecas) => std::sync::Arc::new(ecas),
            Err(_) => return Ok((None, stats)),
        },
    };
    if ecas.len() > options.max_activations {
        return Err(BindError::TooManyActivations {
            limit: options.max_activations,
        });
    }

    let timer = obs.start();
    let comm = CommGraph::from_compiled(compiled, &available);
    let mut kernel = BindKernel::new(compiled, allocation, &comm, &options.bind);
    obs.finish(phase::BIND_COMM, timer);
    let mut modes = Vec::new();
    let mut covered: BTreeSet<ClusterId> = BTreeSet::new();
    for eca in ecas.iter() {
        stats.activations += 1;
        let timer = obs.start();
        let (solved, solve_stats) = kernel.solve(eca);
        obs.finish(phase::BIND_SOLVE, timer);
        stats.solve.assignments += solve_stats.assignments;
        stats.solve.backtracks += solve_stats.backtracks;
        if let Some(mode) = solved {
            stats.feasible_modes += 1;
            covered.extend(mode.mode.problem.iter().map(|(_, c)| c));
            modes.push(mode);
        }
    }
    if modes.is_empty() {
        return Ok((None, stats));
    }
    // Rule 4 requires every top-level behavior implementable: if a
    // top-level interface has no feasible mode at all, the allocation
    // implements nothing.
    let top_ok = top_level_covered(spec, &covered);
    if !top_ok {
        return Ok((None, stats));
    }
    let timer = obs.start();
    let flex = flexibility(spec.problem().graph(), |c| covered.contains(&c));
    obs.finish(phase::BIND_FLEX, timer);
    let implementation = Implementation {
        allocation: allocation.clone(),
        modes,
        covered_clusters: covered,
        flexibility: flex,
        cost: compiled.allocation_cost(allocation),
    };
    Ok((Some(implementation), stats))
}

/// Checks that every top-level interface of the problem graph retains at
/// least one covered cluster.
fn top_level_covered(spec: &SpecificationGraph, covered: &BTreeSet<ClusterId>) -> bool {
    let graph = spec.problem().graph();
    graph
        .interfaces_in(flexplore_hgraph::Scope::Top)
        .all(|i| graph.clusters_of(i).iter().any(|c| covered.contains(c)))
}

/// Convenience: implement with default options; panics on option-limit
/// errors (which defaults make practically unreachable).
///
/// # Panics
///
/// Panics if the default activation bound (100 000) is exceeded.
#[must_use]
pub fn implement_default(
    spec: &SpecificationGraph,
    allocation: &ResourceAllocation,
) -> Option<Implementation> {
    implement_allocation(
        &CompiledSpec::new(spec),
        allocation,
        &ImplementOptions::default(),
        None,
        &ObsSink::disabled(),
    )
    .expect("default activation bound exceeded")
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::{PortDirection, PortTarget, Scope};
    use flexplore_sched::Time;
    use flexplore_spec::{
        allocation_from_units, ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs, Unit, UnitMask,
    };

    /// Implements `allocation` with a fresh compiled context, no batch and
    /// a disabled sink.
    fn implement(
        spec: &SpecificationGraph,
        allocation: &ResourceAllocation,
        options: &ImplementOptions,
    ) -> Result<(Option<Implementation>, ImplementStats), BindError> {
        implement_allocation(
            &CompiledSpec::new(spec),
            allocation,
            options,
            None,
            &ObsSink::disabled(),
        )
    }

    /// TV-decoder-like spec: ctrl + I_D{D1,D2} -> I_U{U1,U2} with output
    /// period, on uP + optional ASIC (needed by D2/U2).
    fn spec() -> (
        SpecificationGraph,
        std::collections::BTreeMap<&'static str, ClusterId>,
        ResourceAllocation,
        ResourceAllocation,
    ) {
        let mut p = ProblemGraph::new("tv");
        let ctrl = p.add_process_with(Scope::Top, "P_C", ProcessAttrs::new().negligible());
        let i_d = p.add_interface(Scope::Top, "I_D");
        let d_in = p.add_port(i_d, "in", PortDirection::In);
        let d_out = p.add_port(i_d, "out", PortDirection::Out);
        let i_u = p.add_interface(Scope::Top, "I_U");
        let u_in = p.add_port(i_u, "in", PortDirection::In);
        let mut names = std::collections::BTreeMap::new();
        let mut d_procs = Vec::new();
        for k in 1..=2 {
            let c = p.add_cluster(i_d, format!("gamma_D{k}"));
            let v = p.add_process(c.into(), format!("P_D{k}"));
            p.map_port(c, d_in, PortTarget::vertex(v)).unwrap();
            p.map_port(c, d_out, PortTarget::vertex(v)).unwrap();
            names.insert(if k == 1 { "D1" } else { "D2" }, c);
            d_procs.push(v);
        }
        let mut u_procs = Vec::new();
        for k in 1..=2 {
            let c = p.add_cluster(i_u, format!("gamma_U{k}"));
            let v = p.add_process_with(
                c.into(),
                format!("P_U{k}"),
                ProcessAttrs::new().with_period(Time::from_ns(300)),
            );
            p.map_port(c, u_in, PortTarget::vertex(v)).unwrap();
            names.insert(if k == 1 { "U1" } else { "U2" }, c);
            u_procs.push(v);
        }
        p.add_dependence(ctrl, (i_d, d_in)).unwrap();
        p.add_dependence((i_d, d_out), (i_u, u_in)).unwrap();

        let mut a = ArchitectureGraph::new("a");
        let up = a.add_resource(Scope::Top, "uP", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "A", Cost::new(200));
        let bus = a.add_bus(Scope::Top, "C", Cost::new(10));
        a.connect(up, bus).unwrap();
        a.connect(bus, asic).unwrap();

        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(ctrl, up, Time::from_ns(10)).unwrap();
        s.add_mapping(d_procs[0], up, Time::from_ns(85)).unwrap();
        s.add_mapping(d_procs[1], asic, Time::from_ns(35)).unwrap();
        s.add_mapping(u_procs[0], up, Time::from_ns(40)).unwrap();
        s.add_mapping(u_procs[1], asic, Time::from_ns(29)).unwrap();

        let up_only = ResourceAllocation::new().with_vertex(up);
        let full = ResourceAllocation::new()
            .with_vertex(up)
            .with_vertex(asic)
            .with_vertex(bus);
        (s, names, up_only, full)
    }

    #[test]
    fn up_only_implements_d1_u1() {
        let (s, names, up_only, _) = spec();
        let (implementation, stats) =
            implement(&s, &up_only, &ImplementOptions::default()).unwrap();
        let implementation = implementation.expect("uP-only must be feasible");
        assert_eq!(implementation.flexibility, 1);
        assert_eq!(implementation.cost, Cost::new(100));
        assert!(implementation.covered_clusters.contains(&names["D1"]));
        assert!(implementation.covered_clusters.contains(&names["U1"]));
        assert!(!implementation.covered_clusters.contains(&names["D2"]));
        assert_eq!(stats.activations, 1); // only D1xU1 is activatable
        assert_eq!(stats.feasible_modes, 1);
    }

    #[test]
    fn full_allocation_implements_all_four_combinations() {
        let (s, _, _, full) = spec();
        let (implementation, stats) = implement(&s, &full, &ImplementOptions::default()).unwrap();
        let implementation = implementation.expect("full allocation feasible");
        // 2 + 2 - 1 = 3.
        assert_eq!(implementation.flexibility, 3);
        assert_eq!(implementation.cost, Cost::new(310));
        assert_eq!(implementation.covered_clusters.len(), 4);
        assert_eq!(stats.activations, 4);
        assert_eq!(stats.feasible_modes, 4);
        assert_eq!(implementation.modes.len(), 4);
        // A covering subset needs only 2 of the 4 modes.
        let cover = implementation.covering_modes();
        assert!(
            cover.len() <= 2,
            "expected a 2-mode cover, got {}",
            cover.len()
        );
    }

    #[test]
    fn infeasible_allocation_returns_none() {
        let (s, _, _, _) = spec();
        let empty = ResourceAllocation::new();
        let (implementation, _) = implement(&s, &empty, &ImplementOptions::default()).unwrap();
        assert!(implementation.is_none());
    }

    #[test]
    fn asic_without_bus_cannot_route_and_loses_flexibility() {
        // ASIC allocated but bus missing: D2/U2 need communication with the
        // ctrl on uP (ctrl -> I_D edge) — D2 on ASIC unreachable from uP.
        let (s, names, _, _) = spec();
        let up = s
            .architecture()
            .graph()
            .vertex_by_name(Scope::Top, "uP")
            .unwrap();
        let asic = s
            .architecture()
            .graph()
            .vertex_by_name(Scope::Top, "A")
            .unwrap();
        let alloc = ResourceAllocation::new().with_vertex(up).with_vertex(asic);
        let (implementation, _) = implement(&s, &alloc, &ImplementOptions::default()).unwrap();
        let implementation = implementation.expect("uP-side modes still feasible");
        assert_eq!(implementation.flexibility, 1);
        assert!(!implementation.covered_clusters.contains(&names["D2"]));
    }

    #[test]
    fn activation_limit_is_enforced() {
        let (s, _, _, full) = spec();
        let options = ImplementOptions {
            max_activations: 2,
            ..ImplementOptions::default()
        };
        let err = implement(&s, &full, &options).unwrap_err();
        assert_eq!(err, BindError::TooManyActivations { limit: 2 });
        assert!(err.to_string().contains('2'));
    }

    #[test]
    fn excluded_resources_shrink_the_implementation() {
        // Masking the ASIC out of the full allocation leaves only the
        // uP-side modes: same platform, degraded capability.
        let (s, names, _, full) = spec();
        let asic = s
            .architecture()
            .graph()
            .vertex_by_name(Scope::Top, "A")
            .unwrap();
        let options =
            ImplementOptions::default().with_excluded_resources([asic].into_iter().collect());
        let (implementation, _) = implement(&s, &full, &options).unwrap();
        let implementation = implementation.expect("uP-side modes still feasible");
        assert_eq!(implementation.flexibility, 1);
        assert!(!implementation.covered_clusters.contains(&names["D2"]));
        assert!(!implementation.covered_clusters.contains(&names["U2"]));
        // The mask does not change what was paid for.
        assert_eq!(implementation.cost, Cost::new(310));
        // No mode binds to the excluded resource.
        for mode in &implementation.modes {
            for (_, m) in mode.binding.iter() {
                assert_ne!(s.mapping(m).resource, asic);
            }
        }
    }

    #[test]
    fn mask_addressed_implement_matches_the_allocation_path() {
        // Mask-space callers decode a unit subset with
        // `allocation_from_units`; implementing the decoded allocation must
        // match implementing the hand-built one, batched or not.
        let (s, _, up_only, full) = spec();
        let compiled = CompiledSpec::new(&s);
        let batch = crate::batch::BindingBatch::new();
        // Unit universe in architecture order: [uP, A, C].
        let units: Vec<Unit> = s
            .architecture()
            .graph()
            .vertices_in(Scope::Top)
            .map(Unit::Vertex)
            .collect();
        for (mask, alloc) in [
            (UnitMask::bit(0), up_only),
            (UnitMask::full(3), full),
            (UnitMask::empty(), ResourceAllocation::new()),
        ] {
            let decoded = allocation_from_units(&units, mask);
            assert_eq!(decoded, alloc);
            let (by_mask, mask_stats) = implement_allocation(
                &compiled,
                &decoded,
                &ImplementOptions::default(),
                Some(&batch),
                &ObsSink::disabled(),
            )
            .unwrap();
            let (by_alloc, alloc_stats) =
                implement(&s, &alloc, &ImplementOptions::default()).unwrap();
            assert_eq!(mask_stats, alloc_stats);
            match (by_mask, by_alloc) {
                (None, None) => {}
                (Some(m), Some(a)) => {
                    assert_eq!(m.allocation, a.allocation);
                    assert_eq!(m.flexibility, a.flexibility);
                    assert_eq!(m.cost, a.cost);
                    assert_eq!(m.covered_clusters, a.covered_clusters);
                }
                other => panic!("feasibility must agree, got {other:?}"),
            }
        }
    }

    #[test]
    fn implement_default_matches_explicit_options() {
        let (s, _, _, full) = spec();
        let a = implement_default(&s, &full).unwrap();
        let (b, _) = implement(&s, &full, &ImplementOptions::default()).unwrap();
        let b = b.unwrap();
        assert_eq!(a.flexibility, b.flexibility);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.covered_clusters, b.covered_clusters);
    }
}
