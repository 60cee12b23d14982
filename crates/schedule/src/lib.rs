//! Static scheduling of bound modes — the paper's main future-work item.
//!
//! The paper validates timing with a utilization *estimate* (the 69 %
//! limit) and explicitly defers exact scheduling: *"In our future work,
//! scheduling will be the main issue of concern."* This crate provides that
//! missing piece for the time-triggered, run-once-per-period execution
//! model of the case study: non-preemptive critical-path **list
//! scheduling** of a flattened, bound mode, with optional uniform
//! communication delays, exact period validation, and textual Gantt
//! rendering.
//!
//! # Examples
//!
//! Scheduling the Set-Top box game console on µP1 and checking the 240 ns
//! output period exactly:
//!
//! ```
//! use flexplore_bind::{solve_mode, BindOptions, CommGraph};
//! use flexplore_models::set_top_box;
//! use flexplore_schedule::{schedule_mode, CommDelay};
//! use flexplore_hgraph::Selection;
//! use flexplore_spec::{CompiledSpec, ResourceAllocation};
//!
//! let stb = set_top_box();
//! let compiled = CompiledSpec::new(&stb.spec);
//! let allocation = ResourceAllocation::new().with_vertex(stb.resource("uP1"));
//! let available = compiled.available_vertices(&allocation);
//! let comm = CommGraph::from_compiled(&compiled, &available);
//! let eca = Selection::new()
//!     .with(stb.interfaces["I_app"], stb.cluster("gamma_G"))
//!     .with(stb.interfaces["I_G"], stb.cluster("gamma_G1"));
//! let (mode, _) = solve_mode(&compiled, &allocation, &comm, &eca, &BindOptions::default());
//! let mode = mode.expect("feasible on uP1");
//!
//! let schedule = schedule_mode(&stb.spec, &eca, &mode.binding, CommDelay::Zero).unwrap();
//! // Serial on one processor: 25 (ctrl) + 75 (core) + 70 (accel) = 170 ns.
//! assert_eq!(schedule.makespan().as_ns(), 170);
//! assert!(schedule.meets_periods(&stb.spec));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod list;

pub use error::ScheduleError;
pub use list::{schedule_flat, schedule_mode, CommDelay, ScheduleEntry, StaticSchedule};
