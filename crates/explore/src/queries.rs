//! Single-point design queries on top of the cost-ordered exploration.
//!
//! Platform architects rarely need the whole front at once; the two
//! everyday questions are *"what is the cheapest platform that implements
//! at least this much flexibility?"* and *"how much flexibility fits into
//! this budget?"*. Both run [`explore`](crate::explore)'s cost-ordered
//! bind loop (threads included) but stop early or bind only a prefix of
//! the candidates, so they are cheaper than computing the full front and
//! reading it off.

use crate::allocations::enumerate;
use crate::error::ExploreError;
use crate::explore::{bind_merge, implement_rows, ExploreOptions, ExploreStats};
use crate::pareto::DesignPoint;
use flexplore_bind::BindingBatch;
use flexplore_flex::Flexibility;
use flexplore_obs::ObsSink;
use flexplore_spec::{CompiledSpec, Cost, SpecificationGraph};
use std::ops::ControlFlow;

/// Finds the cheapest implementation with flexibility at least `target`.
///
/// Candidates are visited in cost order; the first implementation reaching
/// the target is optimal in cost, so the search stops there.
///
/// Returns `None` when no allocation implements the target (e.g. `target`
/// exceeds the problem graph's maximal flexibility).
///
/// # Errors
///
/// See [`explore`](crate::explore).
pub fn min_cost_for_flexibility(
    spec: &SpecificationGraph,
    target: Flexibility,
    options: &ExploreOptions,
) -> Result<Option<DesignPoint>, ExploreError> {
    let compiled = CompiledSpec::with_activation_cache(spec);
    let obs = ObsSink::disabled();
    let rows = enumerate(&compiled, &options.allocation, &obs)?.rows;
    let batch = BindingBatch::new();
    let mut found = None;
    bind_merge(
        rows.len(),
        options,
        &obs,
        &mut ExploreStats::default(),
        // The estimate is an upper bound: a candidate that cannot reach
        // the target gets bound 0 and is skipped without a solver call.
        |i| {
            if rows[i].value >= target {
                rows[i].value
            } else {
                0
            }
        },
        implement_rows(&compiled, &rows, &options.implement, &batch, &obs),
        |_, implemented, f_cur| match implemented {
            Some(implementation) if implementation.flexibility >= target => {
                found = Some(DesignPoint::from_implementation(implementation));
                Ok(ControlFlow::Break(()))
            }
            _ => Ok(ControlFlow::Continue(f_cur)),
        },
    )?;
    Ok(found)
}

/// Finds the most flexible implementation costing at most `budget`.
///
/// Visits the affordable candidates in cost order with the usual
/// incumbent pruning; returns the best point found, `None` when nothing
/// affordable is feasible.
///
/// # Errors
///
/// See [`explore`](crate::explore).
pub fn max_flexibility_under_budget(
    spec: &SpecificationGraph,
    budget: Cost,
    options: &ExploreOptions,
) -> Result<Option<DesignPoint>, ExploreError> {
    let compiled = CompiledSpec::with_activation_cache(spec);
    let obs = ObsSink::disabled();
    let rows = enumerate(&compiled, &options.allocation, &obs)?.rows;
    // Cost-ordered: the affordable candidates are a prefix.
    let affordable = rows.partition_point(|row| row.cost <= budget);
    let batch = BindingBatch::new();
    let mut best = None;
    bind_merge(
        affordable,
        options,
        &obs,
        &mut ExploreStats::default(),
        |i| rows[i].value,
        implement_rows(&compiled, &rows, &options.implement, &batch, &obs),
        |_, implemented, f_cur| match implemented {
            Some(implementation) if implementation.flexibility > f_cur => {
                let flexibility = implementation.flexibility;
                best = Some(DesignPoint::from_implementation(implementation));
                Ok(ControlFlow::Continue(flexibility))
            }
            _ => Ok(ControlFlow::Continue(f_cur)),
        },
    )?;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, ProblemGraph};

    /// Two alternatives; c2 needs the ASIC. Front: (100,1), (250,2).
    fn spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(150));
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(v1, cpu, Time::from_ns(10)).unwrap();
        s.add_mapping(v2, asic, Time::from_ns(10)).unwrap();
        s
    }

    #[test]
    fn min_cost_queries_read_off_the_front() {
        let s = spec();
        let options = ExploreOptions::paper();
        let p1 = min_cost_for_flexibility(&s, 1, &options).unwrap().unwrap();
        assert_eq!((p1.cost, p1.flexibility), (Cost::new(100), 1));
        let p2 = min_cost_for_flexibility(&s, 2, &options).unwrap().unwrap();
        assert_eq!((p2.cost, p2.flexibility), (Cost::new(250), 2));
        assert!(min_cost_for_flexibility(&s, 3, &options).unwrap().is_none());
    }

    #[test]
    fn budget_queries_respect_the_budget() {
        let s = spec();
        let options = ExploreOptions::paper();
        let cheap = max_flexibility_under_budget(&s, Cost::new(120), &options)
            .unwrap()
            .unwrap();
        assert_eq!((cheap.cost, cheap.flexibility), (Cost::new(100), 1));
        let rich = max_flexibility_under_budget(&s, Cost::new(1000), &options)
            .unwrap()
            .unwrap();
        assert_eq!(rich.flexibility, 2);
        assert!(max_flexibility_under_budget(&s, Cost::new(50), &options)
            .unwrap()
            .is_none());
    }

    #[test]
    fn queries_agree_with_the_full_front() {
        let s = spec();
        let options = ExploreOptions::paper();
        let front = explore(&s, &options).unwrap().front;
        for point in &front {
            let q = min_cost_for_flexibility(&s, point.flexibility, &options)
                .unwrap()
                .unwrap();
            assert_eq!(q.cost, point.cost);
            let b = max_flexibility_under_budget(&s, point.cost, &options)
                .unwrap()
                .unwrap();
            assert_eq!(b.flexibility, point.flexibility);
        }
    }

    #[test]
    fn target_zero_returns_the_cheapest_feasible_point() {
        let s = spec();
        let p = min_cost_for_flexibility(&s, 0, &ExploreOptions::paper())
            .unwrap()
            .unwrap();
        assert_eq!(p.cost, Cost::new(100));
    }
}
