//! k-resilient flexibility: how much flexibility survives resource loss.
//!
//! The paper's flexibility metric values a platform by the behaviors it
//! *can* adopt; this module values it by the behaviors it can **still**
//! adopt after things break. The *k-resilient flexibility* of an
//! implementation is the minimum flexibility it retains over all ways of
//! killing at most `k` of its allocated resource units — the guaranteed
//! flexibility under a `k`-failure fault model. Buying a redundant decoder
//! design raises resilience without raising flexibility: the two
//! objectives are genuinely different, which is why
//! [`explore_resilient`] spans a three-dimensional front (cost vs.
//! flexibility vs. resilience).
//!
//! The analysis reuses the exploration-time pipeline end to end: a kill
//! set is evaluated by re-running
//! [`implement_allocation`] with the dead resources masked out via
//! [`ImplementOptions::with_excluded_resources`] — the same machinery the
//! run-time manager uses for degraded rebinding.

use crate::allocations::enumerate;
use crate::error::ExploreError;
use crate::explore::{bind_merge, implement_rows, ExploreOptions, ExploreStats};
use crate::parallel::{resolve_threads, run_stealing, SPECULATION_DEPTH};
use flexplore_bind::{implement_allocation, BindingBatch, ImplementOptions, Implementation};
use flexplore_flex::Flexibility;
use flexplore_hgraph::{ClusterId, VertexId};
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{CompiledSpec, Cost, SpecificationGraph};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// One independently-failing resource unit of an allocation: a directly
/// allocated vertex (processor, bus, ASIC), or an allocated cluster (a
/// loadable design, which dies as a whole).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KillUnit {
    Vertex(VertexId),
    Cluster(ClusterId),
}

impl KillUnit {
    fn dead_vertices(self, spec: &SpecificationGraph) -> Vec<VertexId> {
        match self {
            KillUnit::Vertex(v) => vec![v],
            KillUnit::Cluster(c) => spec.architecture().graph().leaves_of_cluster(c),
        }
    }

    fn name(self, spec: &SpecificationGraph) -> String {
        match self {
            KillUnit::Vertex(v) => spec.architecture().resource_name(v).to_owned(),
            KillUnit::Cluster(c) => spec.architecture().graph().cluster_name(c).to_owned(),
        }
    }
}

fn kill_units(implementation: &Implementation) -> Vec<KillUnit> {
    let mut units: Vec<KillUnit> = implementation
        .allocation
        .vertices
        .iter()
        .map(|&v| KillUnit::Vertex(v))
        .collect();
    units.extend(
        implementation
            .allocation
            .clusters
            .iter()
            .map(|&c| KillUnit::Cluster(c)),
    );
    units
}

/// Flexibility (Definition 4) the implementation's allocation retains when
/// the `dead` resources are masked out of the binding search. Returns 0
/// when the degraded platform no longer implements every top-level
/// behavior — under the paper's definition such a platform implements
/// nothing. The masked search's `bind.*` sub-phases are recorded into
/// `obs`.
///
/// # Errors
///
/// Propagates binding-search bound violations as
/// [`ExploreError::Bind`].
pub fn remaining_flexibility(
    compiled: &CompiledSpec<'_>,
    implementation: &Implementation,
    dead: &BTreeSet<VertexId>,
    options: &ImplementOptions,
    obs: &ObsSink,
) -> Result<Flexibility, ExploreError> {
    if dead.is_empty() {
        return Ok(implementation.flexibility);
    }
    let mut excluded = options.excluded_resources.clone();
    excluded.extend(dead.iter().copied());
    let masked = options.clone().with_excluded_resources(excluded);
    let (implemented, _) =
        implement_allocation(compiled, &implementation.allocation, &masked, None, obs)?;
    Ok(implemented.map_or(0, |i| i.flexibility))
}

/// Result of a [`k_resilient_flexibility`] analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// The fault bound: up to `k` resource units fail.
    pub k: usize,
    /// Fault-free flexibility of the implementation.
    pub baseline: Flexibility,
    /// Minimum flexibility retained over every kill set of at most `k`
    /// units. Equals `baseline` when `k` is 0.
    pub resilient_flexibility: Flexibility,
    /// Resource-unit names of a worst-case kill set (empty when `k` is 0
    /// or nothing is allocated).
    pub worst_case: Vec<String>,
    /// Number of kill sets evaluated.
    pub evaluations: usize,
}

/// Computes the k-resilient flexibility of `implementation`: the minimum
/// of [`remaining_flexibility`] over all kill sets of at most `k`
/// allocated units (directly allocated vertices, and allocated design
/// clusters failing as a whole).
///
/// Flexibility is monotone in the surviving resources, so the minimum is
/// realized by a kill set of exactly `min(k, units)` — smaller sets are
/// still evaluated to report how quickly the flexibility decays.
///
/// The sweep fans out over `threads` workers (`0` = all available
/// cores). Kill sets are enumerated in a canonical order (by size, then
/// lexicographically) and evaluated in deterministic chunks whose results
/// merge back in enumeration order, so the report — including the
/// worst-case kill set, which ties break towards the earliest strict
/// decrease — is identical for every thread count. A `resilience` span
/// around the sweep, the `bind.*` sub-phases of every degraded
/// re-implementation and the deterministic `kill_evaluations` counter are
/// recorded into `obs`.
///
/// # Errors
///
/// Propagates binding-search bound violations as
/// [`ExploreError::Bind`].
pub fn k_resilient_flexibility(
    compiled: &CompiledSpec<'_>,
    implementation: &Implementation,
    k: usize,
    options: &ImplementOptions,
    threads: usize,
    obs: &ObsSink,
) -> Result<ResilienceReport, ExploreError> {
    let spec = compiled.spec();
    let units = kill_units(implementation);
    let baseline = implementation.flexibility;
    let mut report = ResilienceReport {
        k,
        baseline,
        resilient_flexibility: baseline,
        worst_case: Vec::new(),
        evaluations: 0,
    };
    let limit = k.min(units.len());
    let sets = enumerate_kill_sets(units.len(), limit);
    let threads = resolve_threads(threads);
    let timer = obs.start();
    for batch in sets.chunks(threads.saturating_mul(SPECULATION_DEPTH).max(1)) {
        let outcomes = run_stealing(
            batch,
            threads,
            obs,
            |_, _| 1,
            |chosen| {
                let dead: BTreeSet<VertexId> = chosen
                    .iter()
                    .flat_map(|&i| units[i].dead_vertices(spec))
                    .collect();
                remaining_flexibility(compiled, implementation, &dead, options, obs)
            },
        );
        for (chosen, outcome) in batch.iter().zip(outcomes) {
            let remaining = outcome?;
            report.evaluations += 1;
            if remaining < report.resilient_flexibility {
                report.resilient_flexibility = remaining;
                report.worst_case = chosen.iter().map(|&i| units[i].name(spec)).collect();
            }
        }
    }
    obs.finish(phase::RESILIENCE, timer);
    obs.count("kill_evaluations", report.evaluations as u64);
    Ok(report)
}

/// All index subsets of `0..n` with 1 to `limit` elements, by size then
/// lexicographically — the order the recursive sweep used to visit them.
fn enumerate_kill_sets(n: usize, limit: usize) -> Vec<Vec<usize>> {
    fn rec(
        n: usize,
        size: usize,
        start: usize,
        chosen: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if chosen.len() == size {
            out.push(chosen.clone());
            return;
        }
        for i in start..n {
            chosen.push(i);
            rec(n, size, i + 1, chosen, out);
            chosen.pop();
        }
    }
    let mut out = Vec::new();
    let mut chosen = Vec::new();
    for size in 1..=limit {
        rec(n, size, 0, &mut chosen, &mut out);
    }
    out
}

/// A point of the three-objective front: allocation cost (minimized),
/// flexibility and k-resilient flexibility (both maximized).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilientDesignPoint {
    /// Allocation cost.
    pub cost: Cost,
    /// Fault-free flexibility.
    pub flexibility: Flexibility,
    /// Guaranteed flexibility under at most `k` unit failures.
    pub resilience: Flexibility,
    /// The implementation realizing the point.
    pub implementation: Implementation,
}

impl ResilientDesignPoint {
    /// Weak Pareto dominance on (cost min, flexibility max, resilience
    /// max), strict in at least one objective.
    #[must_use]
    pub fn dominates(&self, other: &ResilientDesignPoint) -> bool {
        let no_worse = self.cost <= other.cost
            && self.flexibility >= other.flexibility
            && self.resilience >= other.resilience;
        let better = self.cost < other.cost
            || self.flexibility > other.flexibility
            || self.resilience > other.resilience;
        no_worse && better
    }
}

/// Explores the cost / flexibility / k-resilience trade-off: implements
/// every possible resource allocation and keeps the three-objective
/// Pareto-optimal points, in cost order.
///
/// Redundant allocations that a cost/flexibility exploration would discard
/// (same flexibility, higher cost) survive here when the extra units buy
/// guaranteed flexibility under failures.
///
/// The `enumerate`, `bind` (implement fan-out), `resilience` (kill sweeps)
/// and `pareto` phases plus deterministic counters
/// (`possible_allocations`, `implement_attempts`, `feasible`,
/// `kill_evaluations`, `pareto_points`) are recorded into `obs`.
/// Identical output with any sink; with a disabled sink no clocks are
/// read.
///
/// # Errors
///
/// See [`explore`](crate::explore) — plus anything
/// [`k_resilient_flexibility`] can return.
pub fn explore_resilient(
    compiled: &CompiledSpec<'_>,
    k: usize,
    options: &ExploreOptions,
    obs: &ObsSink,
) -> Result<Vec<ResilientDesignPoint>, ExploreError> {
    let timer = obs.start();
    let rows = enumerate(compiled, &options.allocation, obs)?.rows;
    obs.finish(phase::ENUMERATE, timer);
    let threads = resolve_threads(options.threads);
    // Every candidate is implemented: the flexibility bound says nothing
    // about resilience, so no speculation is wasted either.
    let unpruned = ExploreOptions {
        flexibility_pruning: false,
        ..options.clone()
    };
    let batch = BindingBatch::new();
    let mut stats = ExploreStats::default();
    let mut front: Vec<ResilientDesignPoint> = Vec::new();
    let mut kill_evaluations = 0u64;
    bind_merge(
        rows.len(),
        &unpruned,
        obs,
        &mut stats,
        |i| rows[i].value,
        implement_rows(compiled, &rows, &options.implement, &batch, obs),
        |_, implemented, f_cur| {
            let Some(implementation) = implemented else {
                return Ok(ControlFlow::Continue(f_cur));
            };
            // Second fan-out: the kill-set sweep of this implementation.
            let sweep = k_resilient_flexibility(
                compiled,
                &implementation,
                k,
                &options.implement,
                threads,
                obs,
            )?;
            kill_evaluations += sweep.evaluations as u64;
            let resilience = sweep.resilient_flexibility;
            let point = ResilientDesignPoint {
                cost: implementation.cost,
                flexibility: implementation.flexibility,
                resilience,
                implementation,
            };
            let timer = obs.start();
            let dominated = front.iter().any(|p| p.dominates(&point));
            if !dominated {
                front.retain(|p| !point.dominates(p));
                front.push(point);
            }
            obs.finish(phase::PARETO, timer);
            Ok(ControlFlow::Continue(f_cur))
        },
    )?;
    obs.batch_bind(batch.hits());
    front.sort_by_key(|p| (p.cost, p.flexibility, p.resilience));
    if obs.is_enabled() {
        obs.set_count("possible_allocations", rows.len() as u64);
        obs.set_count("implement_attempts", stats.implement_attempts);
        obs.set_count("feasible", stats.feasible);
        obs.set_count("kill_evaluations", kill_evaluations);
        obs.set_count("pareto_points", front.len() as u64);
    }
    Ok(front)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_bind::implement_default;
    use flexplore_models::set_top_box;
    use flexplore_spec::ResourceAllocation;

    /// The $290 platform: µP2 + C1 + all three FPGA designs.
    fn platform() -> (flexplore_models::SetTopBox, Implementation) {
        let stb = set_top_box();
        let allocation = ResourceAllocation::new()
            .with_vertex(stb.resource("uP2"))
            .with_vertex(stb.resource("C1"))
            .with_cluster(stb.design("D3"))
            .with_cluster(stb.design("U2"))
            .with_cluster(stb.design("G1"));
        let implementation = implement_default(&stb.spec, &allocation).expect("feasible");
        (stb, implementation)
    }

    /// An unobserved kill-set sweep on `threads` workers.
    fn sweep(
        spec: &SpecificationGraph,
        implementation: &Implementation,
        k: usize,
        options: &ImplementOptions,
        threads: usize,
    ) -> ResilienceReport {
        let compiled = CompiledSpec::new(spec);
        k_resilient_flexibility(
            &compiled,
            implementation,
            k,
            options,
            threads,
            &ObsSink::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn single_failure_strictly_reduces_set_top_box_flexibility() {
        let (stb, implementation) = platform();
        let options = ImplementOptions::default();
        let report = sweep(&stb.spec, &implementation, 1, &options, 1);
        assert_eq!(report.baseline, implementation.flexibility);
        // Killing the lone processor leaves nothing schedulable.
        assert!(report.resilient_flexibility < report.baseline);
        assert_eq!(report.worst_case.len(), 1);
        assert!(report.evaluations >= 5);
    }

    #[test]
    fn zero_k_is_the_baseline() {
        let (stb, implementation) = platform();
        let options = ImplementOptions::default();
        let report = sweep(&stb.spec, &implementation, 0, &options, 1);
        assert_eq!(report.resilient_flexibility, report.baseline);
        assert_eq!(report.evaluations, 0);
        assert!(report.worst_case.is_empty());
    }

    #[test]
    fn remaining_flexibility_masks_the_dead_set() {
        let (stb, implementation) = platform();
        let options = ImplementOptions::default();
        let compiled = CompiledSpec::new(&stb.spec);
        let remaining = |dead: &BTreeSet<VertexId>| {
            remaining_flexibility(
                &compiled,
                &implementation,
                dead,
                &options,
                &ObsSink::disabled(),
            )
            .unwrap()
        };
        assert_eq!(remaining(&BTreeSet::new()), implementation.flexibility);
        // Losing the processor kills every software process.
        assert_eq!(remaining(&[stb.resource("uP2")].into_iter().collect()), 0);
    }

    #[test]
    fn threaded_sweep_matches_sequential_exactly() {
        let (stb, implementation) = platform();
        let options = ImplementOptions::default();
        let sequential = sweep(&stb.spec, &implementation, 1, &options, 1);
        for threads in [2, 4, 8] {
            let parallel = sweep(&stb.spec, &implementation, 1, &options, threads);
            assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn resilient_front_is_pareto_consistent() {
        let stb = set_top_box();
        let options = ExploreOptions::paper();
        let compiled = CompiledSpec::with_activation_cache(&stb.spec);
        let front = explore_resilient(&compiled, 1, &options, &ObsSink::disabled()).unwrap();
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "front contains dominated points");
                }
            }
        }
        // With one allowed failure no point can guarantee more than it
        // could deliver fault-free.
        for p in &front {
            assert!(p.resilience <= p.flexibility);
        }
    }
}
