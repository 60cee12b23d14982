//! Specification graphs for system-level design — problem graph,
//! architecture graph and mapping edges, with hierarchical timed-activation
//! semantics.
//!
//! This crate implements Section 2 of *"System Design for Flexibility"*
//! (Haubelt, Teich, Richter, Ernst — DATE 2002): the specification graph
//! `G_S = (G_P, G_A, E_M)` where
//!
//! * [`ProblemGraph`] models the required behavior as a hierarchical graph
//!   whose interfaces have *alternative* refinements (Fig. 1's TV decoder
//!   with three decryption and two uncompression algorithms),
//! * [`ArchitectureGraph`] models the class of possible platforms,
//!   including reconfigurable devices as interfaces whose clusters are
//!   loadable designs (Fig. 2's FPGA), and
//! * mapping edges `E_M` record the "can be implemented by" relation with
//!   core execution times (Table 1).
//!
//! The crate also provides the semantic core the exploration builds on:
//! [`Mode`]s (per-instant cluster selections of both graphs),
//! [`ResourceAllocation`]s with the paper's allocation-cost model, and the
//! declarative feasibility checker
//! [`SpecificationGraph::check_binding`] implementing the three
//! requirements on feasible timed bindings.
//!
//! # Examples
//!
//! Build a minimal specification and verify a binding:
//!
//! ```
//! use flexplore_spec::{
//!     ArchitectureGraph, Binding, Cost, Mode, ProblemGraph, SpecificationGraph,
//! };
//! use flexplore_hgraph::Scope;
//! use flexplore_sched::Time;
//! use std::collections::BTreeSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut problem = ProblemGraph::new("p");
//! let src = problem.add_process(Scope::Top, "src");
//! let dst = problem.add_process(Scope::Top, "dst");
//! problem.add_dependence(src, dst)?;
//!
//! let mut arch = ArchitectureGraph::new("a");
//! let cpu = arch.add_resource(Scope::Top, "cpu", Cost::new(100));
//!
//! let mut spec = SpecificationGraph::new("mini", problem, arch);
//! let m_src = spec.add_mapping(src, cpu, Time::from_ns(10))?;
//! let m_dst = spec.add_mapping(dst, cpu, Time::from_ns(20))?;
//!
//! let binding = Binding::new().with(src, m_src).with(dst, m_dst);
//! let allocated = BTreeSet::from([cpu]);
//! spec.check_binding(&Mode::default(), &allocated, &binding)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod architecture;
mod attrs;
mod compiled;
mod dot;
mod error;
mod feasibility;
mod fingerprint;
mod problem;
mod reach;
mod spec;
mod unitmask;

pub use architecture::{ArchView, ArchitectureGraph, Design, Link};
pub use attrs::{Cost, ProcessAttrs, ResourceAttrs, ResourceKind};
pub use compiled::{
    allocatable_units, allocation_from_units, CompiledActivation, CompiledSpec, Unit, UnitMasks,
};
pub use error::{BindingViolation, SpecError};
pub use feasibility::Binding;
pub use fingerprint::{fingerprint, Fingerprint, SpecSignature, UnitSig};
pub use problem::{AlternativeStage, DataDep, ProblemGraph};
pub use reach::ReachRows;
pub use spec::{Mapping, MappingId, Mode, ResourceAllocation, SpecStatistics, SpecificationGraph};
pub use unitmask::{UnitMask, MAX_UNITS, UNIT_MASK_WORDS};
