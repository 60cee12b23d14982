//! **flexlint** — static analysis over specification graphs.
//!
//! The flexibility metric of the paper (Definition 4) and the EXPLORE
//! algorithm (Section 4) assume a well-formed specification graph: every
//! interface refinable, every problem leaf mappable, every data dependence
//! routable. When those assumptions break, the algorithms do not crash —
//! they silently report zero flexibility or an empty Pareto front, which is
//! far harder to debug. This crate finds such defects **statically**,
//! before any enumeration starts, and reports them with stable diagnostic
//! codes, severities, and locations naming the offending element.
//!
//! The analysis runs as a sequence of passes over the
//! [`SpecificationGraph`](flexplore_spec::SpecificationGraph) and its
//! [`CompiledSpec`](flexplore_spec::CompiledSpec) side tables:
//!
//! 1. **Structural integrity** — dangling arena references (`F003`) and
//!    cluster containment cycles (`F002`). Later passes index and recurse
//!    by stored ids, so any error here stops the analysis.
//! 2. **Hierarchy well-formedness** — interfaces with no alternative
//!    clusters (`F001`), and more allocatable units than the exploration
//!    layer's subset masks can index (`F013`).
//! 3. **Mapping soundness** — malformed mapping endpoints (`F005`),
//!    problem leaves with no mapping edge (`F004`; an *error* at the top
//!    level, where every activation needs the process), duplicate mappings
//!    (`F006`).
//! 4. **Activation-period sanity** — zero periods (`F010`) and processes
//!    whose fastest mapping already exceeds their period (`F011`).
//! 5. **Semantic degeneracy** (only on error-free specs) — data
//!    dependences with no routable resource pair even under the full
//!    allocation (`F007`), clusters provably dead on every allocation
//!    (`F008`), interfaces whose alternatives all bind to the identical
//!    resource set (`F009`), and specifications with no bindable complete
//!    activation at all (`F012`).
//!
//! On top of the defect passes, the [`analysis`] module proves **facts
//! about the allocation lattice** itself — statically mandatory units
//! (`F014`), statically dominated units (`F015`), and symmetry classes of
//! interchangeable units (`F016`) — reported as note-level diagnostics by
//! [`analyze_spec`] and consumed by the branch-and-bound enumerator as an
//! [`AnalysisFacts`] pruning certificate (DESIGN.md §15).
//!
//! The full catalog with the paper rule each code enforces lives in
//! DESIGN.md §10.
//!
//! # Examples
//!
//! ```
//! use flexplore_lint::lint_spec;
//! use flexplore_spec::{ArchitectureGraph, ProblemGraph, SpecificationGraph};
//! use flexplore_hgraph::Scope;
//!
//! let mut p = ProblemGraph::new("p");
//! p.add_process(Scope::Top, "orphan"); // no mapping edge
//! let a = ArchitectureGraph::new("a");
//! let spec = SpecificationGraph::new("s", p, a);
//!
//! let report = lint_spec(&spec);
//! assert!(report.has_code("F004"));
//! assert!(report.has_errors()); // top-level orphan escalates to error
//! ```

pub mod analysis;
mod diagnostics;
mod passes;

pub use analysis::{
    analyze_spec, analyze_spec_obs, compute_facts, compute_facts_obs, AnalysisFacts, AnalysisReport,
};
pub use diagnostics::{is_known_code, Diagnostic, LintReport, Location, Severity, KNOWN_CODES};
pub use passes::{lint_spec, lint_spec_obs};
