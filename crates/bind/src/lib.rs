//! Feasible allocation and binding construction — the NP-complete core of
//! the *flexplore* exploration.
//!
//! This crate turns a candidate [`ResourceAllocation`] into a full
//! [`Implementation`]:
//!
//! 1. the *activatable* problem clusters are taken from the flexibility
//!    estimation (`flexplore-flex`),
//! 2. the elementary cluster-activations (one cluster per activated
//!    interface) are enumerated,
//! 3. for each activation, a backtracking [`solver`](solve_mode) searches a
//!    binding satisfying the paper's feasibility rules — availability,
//!    one-configuration-per-device, communication routability
//!    ([`CommGraph`]) — and the utilization-based timing test
//!    (`flexplore-sched`),
//! 4. the implemented flexibility is computed over the clusters covered by
//!    feasible modes.
//!
//! The declarative feasibility checker of `flexplore-spec` independently
//! re-verifies every mode the solver returns (see [`BindOptions::verify`]),
//! over the resources the search was allowed to use.
//!
//! # Examples
//!
//! The paper's game-console offload: infeasible on the µ-processor alone
//! (95 + 90 > 0.69·240), feasible once the FPGA design G1 is allocated:
//!
//! ```
//! use flexplore_bind::{implement_default, BindOptions};
//! use flexplore_hgraph::Scope;
//! use flexplore_sched::Time;
//! use flexplore_spec::{
//!     ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs, ResourceAllocation,
//!     SpecificationGraph,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = ProblemGraph::new("game");
//! let core = p.add_process(Scope::Top, "P_G1");
//! let accel = p.add_process_with(
//!     Scope::Top,
//!     "P_D",
//!     ProcessAttrs::new().with_period(Time::from_ns(240)),
//! );
//! p.add_dependence(core, accel)?;
//!
//! let mut a = ArchitectureGraph::new("arch");
//! let up = a.add_resource(Scope::Top, "uP2", Cost::new(100));
//! let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
//! let fpga = a.add_interface(Scope::Top, "FPGA");
//! a.connect(up, c1)?;
//! a.connect_through(c1, fpga)?;
//! let g1 = a.add_design(fpga, "cfg_G1", "G1", Cost::new(60))?;
//!
//! let mut spec = SpecificationGraph::new("s", p, a);
//! spec.add_mapping(core, up, Time::from_ns(95))?;
//! spec.add_mapping(core, g1.design, Time::from_ns(20))?;
//! spec.add_mapping(accel, up, Time::from_ns(90))?;
//!
//! // µP2 alone: rejected by the 69 % utilization limit.
//! let up_only = ResourceAllocation::new().with_vertex(up);
//! assert!(implement_default(&spec, &up_only).is_none());
//!
//! // µP2 + C1 + G1: the core offloads to the FPGA and the mode fits.
//! let offloaded = ResourceAllocation::new()
//!     .with_vertex(up)
//!     .with_vertex(c1)
//!     .with_cluster(g1.cluster);
//! let implementation = implement_default(&spec, &offloaded).expect("feasible");
//! assert_eq!(implementation.flexibility, 1);
//! assert_eq!(implementation.cost, Cost::new(170));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod comm;
mod implement;
mod solver;
mod timing;

pub use batch::BindingBatch;
pub use comm::{full_comm_graph, CommGraph};
pub use implement::{
    implement_allocation, implement_default, BindError, ImplementOptions, ImplementStats,
    Implementation,
};
pub use solver::{
    mode_is_feasible, mode_timing_accepts, solve_mode, BindOptions, ModeImplementation, SolveStats,
};
pub use timing::{
    activation_meets_timing, inherited_periods, mode_meets_timing, resource_task_sets,
};

// Re-exported so downstream users of the solver API have the allocation
// and sink types of `implement_allocation` in scope without importing
// flexplore-spec and flexplore-obs explicitly.
pub use flexplore_obs::ObsSink;
pub use flexplore_spec::ResourceAllocation;
