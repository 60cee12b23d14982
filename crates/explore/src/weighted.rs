//! Weighted-flexibility exploration (footnote 2 of the paper).
//!
//! Footnote 2: *"more sophisticated flexibility calculations are possible,
//! e.g., by using weighted sums in Def. 4."* In practice not every
//! behavioral alternative is equally valuable — supporting the most common
//! broadcast encryption is worth more than a rare one. This module runs
//! the same cost-ordered, estimation-pruned exploration as
//! [`explore`](crate::explore) with the metric replaced by
//! [`weighted_flexibility`], producing a front in `(cost, weighted f)`
//! space.
//!
//! Pruning stays sound: the weighted metric is monotone in the activatable
//! set for non-negative weights, so the estimate over a candidate's
//! activatable clusters is still an upper bound on any implementation's
//! weighted flexibility.

use crate::allocations::enumerate;
use crate::error::ExploreError;
use crate::explore::{bind_merge, implement_rows, ExploreOptions, ExploreStats};
use flexplore_bind::{BindingBatch, Implementation};
use flexplore_flex::{weighted_flexibility, FlexibilityWeights};
use flexplore_obs::ObsSink;
use flexplore_spec::{CompiledSpec, Cost, SpecificationGraph};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// A design point in `(cost, weighted flexibility)` space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedPoint {
    /// Allocation cost.
    pub cost: Cost,
    /// Weighted flexibility of the implementation.
    pub weighted_flexibility: f64,
    /// The realizing implementation.
    pub implementation: Implementation,
}

impl WeightedPoint {
    /// Dominance in the weighted objective space.
    #[must_use]
    pub fn dominates(&self, other: &WeightedPoint) -> bool {
        (self.cost <= other.cost && self.weighted_flexibility >= other.weighted_flexibility)
            && (self.cost < other.cost || self.weighted_flexibility > other.weighted_flexibility)
    }
}

/// Result of a weighted exploration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedExploreResult {
    /// Non-dominated points, sorted by increasing cost (strictly
    /// increasing weighted flexibility).
    pub front: Vec<WeightedPoint>,
    /// Binding-solver invocations.
    pub implement_attempts: u64,
    /// Speculative candidate chunks dispatched (0 at one thread). Varies
    /// with the thread count, like [`ExploreStats::chunks_speculated`].
    pub chunks_speculated: u64,
    /// Candidates implemented speculatively but discarded by the exact
    /// merge-time bound re-check (0 at one thread).
    pub speculative_waste: u64,
}

/// Explores the `(cost, weighted flexibility)` trade-off.
///
/// # Errors
///
/// See [`explore`](crate::explore).
pub fn explore_weighted(
    spec: &SpecificationGraph,
    weights: &FlexibilityWeights,
    options: &ExploreOptions,
) -> Result<WeightedExploreResult, ExploreError> {
    let compiled = CompiledSpec::with_activation_cache(spec);
    let disabled = ObsSink::disabled();
    let candidates = enumerate(&compiled, &options.allocation, &disabled)?;
    let (rows, estimates) = (&candidates.rows, &candidates.estimates);
    let graph = spec.problem().graph();
    let batch = BindingBatch::new();
    let mut front: Vec<WeightedPoint> = Vec::new();
    let mut stats = ExploreStats::default();
    bind_merge(
        rows.len(),
        options,
        &disabled,
        &mut stats,
        |i| weighted_flexibility(graph, weights, |c| estimates[i].activatable.contains(&c)),
        implement_rows(&compiled, rows, &options.implement, &batch, &disabled),
        |_, implemented, f_cur| {
            let Some(implementation) = implemented else {
                return Ok(ControlFlow::Continue(f_cur));
            };
            let value = weighted_flexibility(graph, weights, |c| {
                implementation.covered_clusters.contains(&c)
            });
            if value <= f_cur {
                return Ok(ControlFlow::Continue(f_cur));
            }
            front.push(WeightedPoint {
                cost: implementation.cost,
                weighted_flexibility: value,
                implementation,
            });
            Ok(ControlFlow::Continue(value))
        },
    )?;
    // Candidates arrive cost-ordered with strict improvement required, so
    // the pushed points are already mutually non-dominated — except for
    // equal-cost pairs, which the strict improvement resolves by keeping
    // both only if the later one is better; drop dominated stragglers.
    let snapshot = front.clone();
    front.retain(|p| !snapshot.iter().any(|q| q.dominates(p)));
    Ok(WeightedExploreResult {
        front,
        implement_attempts: stats.implement_attempts,
        chunks_speculated: stats.chunks_speculated,
        speculative_waste: stats.speculative_waste,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, ProblemGraph};

    /// Two alternatives on dedicated resources; c1 cheap, c2 expensive.
    fn spec() -> (
        SpecificationGraph,
        flexplore_hgraph::ClusterId,
        flexplore_hgraph::ClusterId,
    ) {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(100));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(300));
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(v1, r1, Time::from_ns(1)).unwrap();
        s.add_mapping(v2, r2, Time::from_ns(1)).unwrap();
        (s, c1, c2)
    }

    #[test]
    fn uniform_weights_match_unweighted_front() {
        let (s, _, _) = spec();
        let unweighted = explore(&s, &ExploreOptions::paper()).unwrap();
        let weighted =
            explore_weighted(&s, &FlexibilityWeights::new(), &ExploreOptions::paper()).unwrap();
        assert_eq!(weighted.front.len(), unweighted.front.len());
        for (w, u) in weighted.front.iter().zip(unweighted.front.iter()) {
            assert_eq!(w.cost, u.cost);
            assert!((w.weighted_flexibility - u.flexibility as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_can_reorder_the_value_of_alternatives() {
        let (s, _, c2) = spec();
        // Value the expensive alternative at 10: the r2-only platform
        // (c2 alone, weighted f = 10) now beats the r1-only one (1).
        let weights = FlexibilityWeights::new().with(c2, 10.0);
        let result = explore_weighted(&s, &weights, &ExploreOptions::paper()).unwrap();
        let values: Vec<(u64, f64)> = result
            .front
            .iter()
            .map(|p| (p.cost.dollars(), p.weighted_flexibility))
            .collect();
        assert_eq!(values.len(), 3);
        assert_eq!(values[0], (100, 1.0));
        assert_eq!(values[1], (300, 10.0));
        assert_eq!(values[2], (400, 11.0));
    }

    #[test]
    fn zero_weight_alternatives_stop_paying_off() {
        let (s, _, c2) = spec();
        // c2 is worthless: buying r2 never improves the weighted front.
        let weights = FlexibilityWeights::new().with(c2, 0.0);
        let result = explore_weighted(&s, &weights, &ExploreOptions::paper()).unwrap();
        assert_eq!(result.front.len(), 1);
        assert_eq!(result.front[0].cost, Cost::new(100));
    }

    #[test]
    fn front_is_sorted_and_non_dominated() {
        let (s, c1, c2) = spec();
        let weights = FlexibilityWeights::new().with(c1, 2.5).with(c2, 0.5);
        let result = explore_weighted(&s, &weights, &ExploreOptions::paper()).unwrap();
        for w in result.front.windows(2) {
            assert!(w[0].cost < w[1].cost);
            assert!(w[0].weighted_flexibility < w[1].weighted_flexibility);
        }
    }
}
