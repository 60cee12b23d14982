//! **flexplore** — system design for flexibility.
//!
//! A complete, from-scratch implementation of *"System Design for
//! Flexibility"* (C. Haubelt, J. Teich, K. Richter, R. Ernst — DATE 2002):
//! hierarchical specification graphs with alternative refinements, a
//! quantitative **flexibility** metric, and a branch-and-bound design-space
//! exploration of the flexibility/cost trade-off — plus the substrates the
//! paper depends on (rate-monotonic schedulability analysis, an
//! NP-complete binding solver, exhaustive and evolutionary exploration
//! baselines) and the paper's case-study models.
//!
//! # Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`hgraph`] | hierarchical graphs `G = (V, E, Ψ, Γ)`: interfaces, alternative clusters, ports, selections, flattening (Definition 1) |
//! | [`spec`] | specification graphs `G_S = (G_P, G_A, E_M)`: problem/architecture graphs, mapping edges, timed activation, binding feasibility (Section 2) |
//! | [`flex`] | the flexibility metric and its estimation (Definition 4, Section 3) |
//! | [`sched`] | Liu–Layland 69 % limit, exact bounds, response-time analysis |
//! | [`bind`] | backtracking binding solver, per-mode timing validation |
//! | [`explore`] | EXPLORE branch-and-bound, exhaustive and NSGA-II baselines, Pareto fronts (Section 4) |
//! | [`models`] | the TV decoder (Figs. 1–2), the Set-Top box case study (Fig. 3/5 + Table 1), synthetic generators |
//! | [`lint`] | flexlint static analysis: stable diagnostics `F001`–`F016`, spec-level lattice facts (mandatory/dominated/symmetry) |
//! | [`obs`] | observability: span timers, deterministic counters, JSON-lines events, aggregated run reports |
//! | [`schedule`] | static list scheduling of bound modes — the paper's future-work item |
//! | [`adaptive`] | run-time mode management with reconfiguration accounting, fault injection, and graceful degradation |
//!
//! The most common items are re-exported at the crate root.
//!
//! # Quickstart
//!
//! Reproduce the paper's case study in a few lines:
//!
//! ```
//! use flexplore::{explore, set_top_box, ExploreOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stb = set_top_box();
//! let result = explore(&stb.spec, &ExploreOptions::paper())?;
//!
//! // The published six-point Pareto front: ($100,2) … ($430,8).
//! let objectives: Vec<(u64, u64)> = result
//!     .front
//!     .objectives()
//!     .into_iter()
//!     .map(|(c, f)| (c.dollars(), f))
//!     .collect();
//! assert_eq!(
//!     objectives,
//!     vec![(100, 2), (120, 3), (230, 4), (290, 5), (360, 7), (430, 8)]
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flexplore_adaptive as adaptive;
pub use flexplore_bind as bind;
pub use flexplore_explore as explore_crate;
pub use flexplore_flex as flex;
pub use flexplore_hgraph as hgraph;
pub use flexplore_lint as lint;
pub use flexplore_models as models;
pub use flexplore_obs as obs;
pub use flexplore_sched as sched;
pub use flexplore_schedule as schedule;
pub use flexplore_spec as spec;

// Convenience re-exports of the most used items.
pub use flexplore_adaptive::{
    run_with_faults, AdaptiveSystem, DegradationPolicy, FaultKind, FaultPlan, FaultReport,
    FaultScenario, ReconfigCost,
};
pub use flexplore_bind::{
    implement_allocation, implement_default, BindOptions, BindingBatch, ImplementOptions,
    Implementation,
};
pub use flexplore_explore::{
    exhaustive_explore, explore, explore_compiled_obs, explore_compiled_warm, explore_resilient,
    explore_upgrades, explore_weighted, k_resilient_flexibility, max_flexibility_under_budget,
    min_cost_for_flexibility, moea_explore, options_hash, possible_resource_allocations,
    remaining_flexibility, resolve_threads, spec_delta, AllocationOptions, CacheEntry,
    CandidateRow, DesignPoint, ExploreCache, ExploreOptions, ExploreResult, ExploreStats,
    MoeaOptions, ParetoFront, ResilienceReport, ResilientDesignPoint, ShardedMemo, SpecDelta,
    WarmMode, WarmOutcome, WarmSummary, CACHE_FORMAT,
};
pub use flexplore_flex::{
    estimate_flexibility, estimate_with_compiled, flexibility, flexibility_profile,
    max_flexibility, weighted_flexibility, Flexibility, FlexibilityWeights,
};
pub use flexplore_hgraph::{
    ClusterId, HierarchicalGraph, InterfaceId, PortDirection, PortTarget, Scope, Selection,
    VertexId,
};
pub use flexplore_lint::{
    analyze_spec, analyze_spec_obs, lint_spec, lint_spec_obs, AnalysisFacts, AnalysisReport,
    Diagnostic, LintReport, Severity,
};
pub use flexplore_models::{
    automotive_spec, baseband_spec, cloud_fpga_spec, dual_slot_fpga, paper_pareto_table,
    set_top_box, synthetic_spec, tv_decoder, AutomotiveConfig, BasebandConfig, CloudFpgaConfig,
    SetTopBox, SyntheticConfig,
};
pub use flexplore_obs::{ObsSink, RunReport};
pub use flexplore_sched::{SchedPolicy, Task, TaskSet, Time};
pub use flexplore_schedule::{schedule_mode, CommDelay, StaticSchedule};
pub use flexplore_spec::{
    fingerprint, ArchitectureGraph, Binding, CompiledSpec, Cost, Fingerprint, Mode, ProblemGraph,
    ProcessAttrs, ResourceAllocation, SpecSignature, SpecificationGraph, UnitMask,
};
