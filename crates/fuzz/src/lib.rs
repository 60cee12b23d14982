//! Seeded differential fuzzing of the whole flexplore pipeline.
//!
//! The paper's flexibility model claims to generalize across platform
//! families; the bundled case studies exercise four hand-written models.
//! This crate widens the validated input space: a **seeded, fully
//! deterministic generator** draws randomized small specifications from
//! four domain-profile families (set-top box, automotive zonal E/E, 5G
//! baseband, multi-tenant cloud FPGA — see [`DomainProfile`]), and a
//! **differential harness** runs every one through the full pipeline,
//! cross-checking the invariants the repo already proves on fixed inputs
//! (see [`OracleKind`] for the catalog).
//!
//! Violations are auto-minimized by deterministic delta-debugging
//! ([`minimize`]) and written as JSON repros into a regression corpus
//! ([`corpus`]), which `tests/corpus/` replays forever after.
//!
//! # Quick start
//!
//! ```
//! use flexplore_fuzz::{run_fuzz, DomainProfile, FuzzOptions};
//!
//! let report = run_fuzz(&FuzzOptions {
//!     seed: 42,
//!     iterations: 2,
//!     profiles: vec![DomainProfile::Automotive],
//!     threads: 1,
//!     corpus_dir: None,
//! });
//! assert!(report.is_clean());
//! assert_eq!(report.specs, 2);
//! ```
//!
//! The CLI front end is `flexplore fuzz --seed S --iterations N --profile
//! <family>`; reports are byte-reproducible across runs and thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capture;
pub mod corpus;
mod flat;
mod harness;
mod json;
mod minimize;
mod oracles;
mod profile;

pub use corpus::{replay_dir, ReplayReport, ReproCase};
pub use flat::{flat_explore, flat_scan};
pub use harness::{derive_seed, run_fuzz, FuzzOptions, FuzzReport, ViolationRecord};
pub use minimize::minimize;
pub use oracles::{check_all, check_oracle, OracleKind, Violation};
pub use profile::{generate, DomainProfile};
