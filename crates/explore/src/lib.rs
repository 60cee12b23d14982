//! Flexibility/cost design-space exploration — the EXPLORE algorithm of
//! *"System Design for Flexibility"* (Haubelt, Teich, Richter, Ernst —
//! DATE 2002), with exhaustive and evolutionary baselines.
//!
//! The exploration answers: *which resource allocations are Pareto-optimal
//! trade-offs between allocation cost and implementable flexibility?*
//! Three engines are provided:
//!
//! * [`explore`] — the paper's branch-and-bound: cost-ordered traversal of
//!   the [possible resource allocations](possible_resource_allocations)
//!   with flexibility-estimation pruning; finds **all** Pareto points.
//! * [`exhaustive_explore`] — implements every candidate; identical output,
//!   exponentially more binding-solver work (the correctness baseline).
//! * [`moea_explore`] — an NSGA-II-style evolutionary explorer in the
//!   spirit of Blickle et al., the framework the paper builds on (the
//!   quality/anytime baseline).
//!
//! # Examples
//!
//! ```
//! use flexplore_explore::{explore, ExploreOptions};
//! use flexplore_hgraph::Scope;
//! use flexplore_sched::Time;
//! use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, SpecificationGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One behavior with two alternatives; the second needs the ASIC.
//! let mut p = ProblemGraph::new("p");
//! let i = p.add_interface(Scope::Top, "I");
//! let c1 = p.add_cluster(i, "c1");
//! let v1 = p.add_process(c1.into(), "v1");
//! let c2 = p.add_cluster(i, "c2");
//! let v2 = p.add_process(c2.into(), "v2");
//!
//! let mut a = ArchitectureGraph::new("a");
//! let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
//! let asic = a.add_resource(Scope::Top, "asic", Cost::new(150));
//!
//! let mut spec = SpecificationGraph::new("s", p, a);
//! spec.add_mapping(v1, cpu, Time::from_ns(10))?;
//! spec.add_mapping(v2, asic, Time::from_ns(10))?;
//!
//! let result = explore(&spec, &ExploreOptions::paper())?;
//! let objectives = result.front.objectives();
//! assert_eq!(objectives, vec![(Cost::new(100), 1), (Cost::new(250), 2)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocations;
mod error;
mod explore;
mod lattice;
mod memo;
mod moea;
mod parallel;
mod pareto;
mod queries;
mod resilience;
mod upgrade;
mod warmstart;
mod weighted;

pub use allocations::{
    allocatable_units, possible_resource_allocations, AllocationCandidate, AllocationOptions,
    AllocationStats, CandidateRow, Unit,
};
pub use error::ExploreError;
pub use explore::{
    exhaustive_explore, explore, explore_compiled_obs, ExploreOptions, ExploreResult, ExploreStats,
};
pub use memo::ShardedMemo;
pub use moea::{moea_explore, MoeaOptions, MoeaResult};
pub use parallel::resolve_threads;
pub use pareto::{exploration_order, DesignPoint, ParetoFront};
pub use queries::{max_flexibility_under_budget, min_cost_for_flexibility};
pub use resilience::{
    explore_resilient, k_resilient_flexibility, remaining_flexibility, ResilienceReport,
    ResilientDesignPoint,
};
pub use upgrade::explore_upgrades;
pub use warmstart::{
    explore_compiled_warm, options_hash, spec_delta, CacheEntry, ExploreCache, SpecDelta, WarmMode,
    WarmOutcome, WarmSummary, CACHE_FORMAT,
};
pub use weighted::{explore_weighted, WeightedExploreResult, WeightedPoint};
