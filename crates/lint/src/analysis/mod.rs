//! `flexanalysis` — sound static lattice analysis over the compiled
//! specification.
//!
//! Where the lint passes (`F001`–`F013`) find *defects*, this module
//! proves *facts about the allocation lattice* without enumerating a
//! single subset: units every possible allocation must include
//! (`mandatory`), units that can never improve the candidate front
//! (`dominated`), and classes of interchangeable units (`symmetry`).
//! Each fact is exposed three ways:
//!
//! * as note-level diagnostics `F014`/`F015`/`F016` in the report of
//!   [`analyze_spec`], with a machine-readable `facts` section in the
//!   JSON rendering;
//! * as an [`AnalysisFacts`] value the branch-and-bound enumerator uses to
//!   force mandatory include-branches, mirror dominated-include subtrees
//!   and collapse symmetry orbits to canonical representatives — with
//!   byte-identical candidates to the unanalyzed search (DESIGN.md §15
//!   gives the soundness argument and the pruning contract);
//! * as deterministic obs counters (`analysis_mandatory`,
//!   `analysis_dominated`, `analysis_classes`).
//!
//! All facts are stated against the *estimate-level* lattice — the same
//! monotone feasibility criterion both enumerators keep candidates by —
//! and are differentially verified by the fuzzer's `analysis-facts`
//! oracle against a prune-free flat enumeration on small specifications.

mod dominated;
mod mandatory;
mod symmetry;

use crate::diagnostics::{json_escape, Diagnostic, LintReport, Location, Severity};
use crate::passes::{lint_spec_obs, publish_lint_counters};
use flexplore_flex::DeltaIndex;
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{allocatable_units, CompiledSpec, SpecificationGraph, Unit, UnitMask};
use serde::{Deserialize, Serialize};

/// The provable lattice facts over one unit universe, in the unit order
/// of [`allocatable_units`] (index `k` is `units[k]`). Serializable so
/// the warm-start exploration cache can persist the facts beside the
/// memo they justified.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisFacts {
    /// Number of units the fact tables are indexed by.
    pub unit_count: usize,
    /// Units included in every possible resource allocation.
    pub mandatory: UnitMask,
    /// Per unit: the lowest-index witness dominator, if dominated.
    pub dominated_by: Vec<Option<u32>>,
    /// Per unit: every unit dominating it (empty when not dominated).
    pub dominators: Vec<UnitMask>,
    /// Symmetry classes of interchangeable units (each two or more
    /// members in ascending order; classes ordered by first member).
    pub classes: Vec<Vec<u32>>,
    /// Per unit: index into [`Self::classes`], if in a class.
    pub class_of: Vec<Option<u32>>,
}

impl AnalysisFacts {
    /// Facts with nothing proven, for `n` units.
    #[must_use]
    pub fn trivial(n: usize) -> Self {
        AnalysisFacts {
            unit_count: n,
            mandatory: UnitMask::empty(),
            dominated_by: vec![None; n],
            dominators: vec![UnitMask::empty(); n],
            classes: Vec::new(),
            class_of: vec![None; n],
        }
    }

    /// Number of units that are statically dominated.
    #[must_use]
    pub fn dominated_count(&self) -> usize {
        self.dominated_by.iter().filter(|d| d.is_some()).count()
    }

    /// `true` when no fact was provable (the enumerator gains nothing).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.mandatory.is_empty() && self.classes.is_empty() && self.dominated_count() == 0
    }
}

/// Runs the three analysis passes over a compiled specification and the
/// unit universe `units` (normally [`allocatable_units`]).
#[must_use]
pub fn compute_facts(compiled: &CompiledSpec<'_>, units: &[Unit]) -> AnalysisFacts {
    compute_facts_obs(compiled, units, &ObsSink::disabled())
}

/// [`compute_facts`] with observability: per-pass wall-clock is recorded
/// as `analyze.*` sub-phases. Identical facts.
#[must_use]
pub fn compute_facts_obs(
    compiled: &CompiledSpec<'_>,
    units: &[Unit],
    obs: &ObsSink,
) -> AnalysisFacts {
    let n = units.len();
    let masks = compiled.unit_masks(units);
    let index = DeltaIndex::new(compiled, &masks);

    // Per unit: the buses it is a neighbor of (the "comm reachability"
    // dimension of domination and symmetry).
    let mut busmem = vec![UnitMask::empty(); n];
    for b in masks.comm_mask().iter_ones() {
        for k in masks.neighbors(b).iter_ones() {
            busmem[k] |= UnitMask::bit(b);
        }
    }

    let timer = obs.start();
    let mandatory = mandatory::mandatory_units(&index, n);
    obs.finish(phase::ANALYZE_MANDATORY, timer);

    let timer = obs.start();
    let (classes, class_of) = symmetry::symmetry_classes(&index, &masks, &busmem, n);
    obs.finish(phase::ANALYZE_SYMMETRY, timer);

    let timer = obs.start();
    let (dominated_by, dominators) = dominated::dominated_units(&index, &masks, &busmem, n);
    obs.finish(phase::ANALYZE_DOMINATED, timer);

    AnalysisFacts {
        unit_count: n,
        mandatory,
        dominated_by,
        dominators,
        classes,
        class_of,
    }
}

/// The combined result of `flexplore analyze`: the full lint report with
/// the `F014`–`F016` fact diagnostics appended, plus the machine-usable
/// facts themselves.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Lint diagnostics plus one note per analysis fact, sorted.
    pub report: LintReport,
    /// The proven facts (trivial when `analyzed` is `false`).
    pub facts: AnalysisFacts,
    /// Display name per unit index, for rendering the facts.
    pub unit_names: Vec<String>,
    /// `false` when error-level lint findings stopped the analysis before
    /// compilation (the fact tables are then empty, not proven-empty).
    pub analyzed: bool,
}

impl AnalysisReport {
    fn name_list(&self, units: impl IntoIterator<Item = usize>) -> String {
        let names: Vec<&str> = units
            .into_iter()
            .map(|k| self.unit_names[k].as_str())
            .collect();
        names.join(", ")
    }

    /// Renders the report as human-readable text: the diagnostic lines,
    /// a `facts:` section, and the lint summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.report.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.analyzed {
            out.push_str("facts:\n");
            let mandatory: Vec<usize> = self.facts.mandatory.iter_ones().collect();
            if mandatory.is_empty() {
                out.push_str("  mandatory units: (none)\n");
            } else {
                out.push_str(&format!(
                    "  mandatory units ({}): {}\n",
                    mandatory.len(),
                    self.name_list(mandatory)
                ));
            }
            let dominated: Vec<(usize, u32)> = self
                .facts
                .dominated_by
                .iter()
                .enumerate()
                .filter_map(|(u, by)| by.map(|w| (u, w)))
                .collect();
            if dominated.is_empty() {
                out.push_str("  dominated units: (none)\n");
            } else {
                let pairs: Vec<String> = dominated
                    .iter()
                    .map(|&(u, w)| {
                        format!(
                            "{} (by {})",
                            self.unit_names[u], self.unit_names[w as usize]
                        )
                    })
                    .collect();
                out.push_str(&format!(
                    "  dominated units ({}): {}\n",
                    pairs.len(),
                    pairs.join(", ")
                ));
            }
            if self.facts.classes.is_empty() {
                out.push_str("  symmetry classes: (none)\n");
            } else {
                let rendered: Vec<String> = self
                    .facts
                    .classes
                    .iter()
                    .map(|c| format!("{{{}}}", self.name_list(c.iter().map(|&k| k as usize))))
                    .collect();
                out.push_str(&format!(
                    "  symmetry classes ({}): {}\n",
                    rendered.len(),
                    rendered.join(", ")
                ));
            }
        } else {
            out.push_str("facts: skipped (error-level lint findings)\n");
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.report.spec_name,
            self.report.errors(),
            self.report.warnings(),
            self.report.notes()
        ));
        out
    }

    /// Renders the report as a JSON object: the lint fields plus a
    /// machine-readable `facts` section. Hand-rendered with a fixed field
    /// order, byte-stable across runs like [`LintReport::render_json`].
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"spec\": \"{}\",\n",
            json_escape(&self.report.spec_name)
        ));
        out.push_str("  \"diagnostics\": ");
        out.push_str(&self.report.diagnostics_json("  "));
        out.push_str(",\n");
        out.push_str("  \"facts\": {\n");
        out.push_str(&format!("    \"analyzed\": {},\n", self.analyzed));
        let units: Vec<String> = self
            .unit_names
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        out.push_str(&format!("    \"units\": [{}],\n", units.join(", ")));
        let mandatory: Vec<String> = self
            .facts
            .mandatory
            .iter_ones()
            .map(|k| k.to_string())
            .collect();
        out.push_str(&format!("    \"mandatory\": [{}],\n", mandatory.join(", ")));
        let dominated: Vec<String> = self
            .facts
            .dominated_by
            .iter()
            .enumerate()
            .filter_map(|(u, by)| by.map(|w| format!("{{\"unit\": {u}, \"by\": {w}}}")))
            .collect();
        out.push_str(&format!("    \"dominated\": [{}],\n", dominated.join(", ")));
        let classes: Vec<String> = self
            .facts
            .classes
            .iter()
            .map(|c| {
                let members: Vec<String> = c.iter().map(|k| k.to_string()).collect();
                format!("[{}]", members.join(", "))
            })
            .collect();
        out.push_str(&format!("    \"classes\": [{}]\n", classes.join(", ")));
        out.push_str("  },\n");
        out.push_str(&format!("  \"errors\": {},\n", self.report.errors()));
        out.push_str(&format!("  \"warnings\": {},\n", self.report.warnings()));
        out.push_str(&format!("  \"notes\": {}\n", self.report.notes()));
        out.push_str("}\n");
        out
    }
}

/// The display name and diagnostic location of one unit.
fn unit_identity(spec: &SpecificationGraph, unit: Unit) -> (String, Location) {
    match unit {
        Unit::Vertex(v) => (
            spec.architecture().resource_name(v).to_string(),
            Location::ArchVertex(v),
        ),
        Unit::Cluster(c) => (
            spec.architecture().graph().cluster_name(c).to_string(),
            Location::ArchCluster(c),
        ),
    }
}

/// Lints `spec`, then (when error-free) runs the static lattice analysis
/// and appends one note-level diagnostic per proven fact: `F014` per
/// mandatory unit, `F015` per dominated unit, `F016` per symmetry class.
#[must_use]
pub fn analyze_spec(spec: &SpecificationGraph) -> AnalysisReport {
    analyze_spec_obs(spec, &ObsSink::disabled())
}

/// [`analyze_spec`] with observability: the lint pipeline records its
/// usual `lint.*` phases, the fact extraction records `analyze` with
/// `analyze.*` sub-phases, and the fact totals land in the
/// `analysis_mandatory` / `analysis_dominated` / `analysis_classes`
/// counters. Identical report.
#[must_use]
pub fn analyze_spec_obs(spec: &SpecificationGraph, obs: &ObsSink) -> AnalysisReport {
    let mut report = lint_spec_obs(spec, obs);
    if report.has_errors() {
        return AnalysisReport {
            report,
            facts: AnalysisFacts::trivial(0),
            unit_names: Vec::new(),
            analyzed: false,
        };
    }

    let timer = obs.start();
    let compiled = CompiledSpec::new(spec);
    let units = allocatable_units(spec);
    let facts = compute_facts_obs(&compiled, &units, obs);
    let identities: Vec<(String, Location)> =
        units.iter().map(|&u| unit_identity(spec, u)).collect();

    for k in facts.mandatory.iter_ones() {
        let (name, location) = identities[k].clone();
        report.push(Diagnostic {
            code: "F014",
            severity: Severity::Note,
            location,
            element: name,
            message: "statically mandatory: the full allocation loses estimate feasibility \
                      without this unit, so every possible allocation includes it"
                .to_string(),
        });
    }
    for (u, by) in facts.dominated_by.iter().enumerate() {
        let Some(w) = by else { continue };
        let (name, location) = identities[u].clone();
        report.push(Diagnostic {
            code: "F015",
            severity: Severity::Note,
            location,
            element: name,
            message: format!(
                "statically dominated by '{}': coverage, bus reachability and cost are all \
                 weakly worse, so this unit can never improve the candidate front",
                identities[*w as usize].0
            ),
        });
    }
    for class in &facts.classes {
        let (name, location) = identities[class[0] as usize].clone();
        let members: Vec<&str> = class
            .iter()
            .map(|&k| identities[k as usize].0.as_str())
            .collect();
        report.push(Diagnostic {
            code: "F016",
            severity: Severity::Note,
            location,
            element: name,
            message: format!(
                "symmetry class of {} interchangeable units ({}): identical coverage, bus \
                 neighborhoods and cost",
                class.len(),
                members.join(", ")
            ),
        });
    }
    report.sort();
    obs.finish(phase::ANALYZE, timer);
    if obs.is_enabled() {
        obs.set_count("analysis_mandatory", facts.mandatory.count_ones() as u64);
        obs.set_count("analysis_dominated", facts.dominated_count() as u64);
        obs.set_count("analysis_classes", facts.classes.len() as u64);
    }
    publish_lint_counters(obs, &report);

    AnalysisReport {
        report,
        facts,
        unit_names: identities.into_iter().map(|(n, _)| n).collect(),
        analyzed: true,
    }
}
