//! The analysis passes. See the crate docs for the pass pipeline and
//! DESIGN.md §10 for the diagnostics catalog.

use crate::diagnostics::{Diagnostic, LintReport, Location, Severity};
use flexplore_bind::CommGraph;
use flexplore_flex::estimate_with_compiled;
use flexplore_hgraph::{NodeRef, Scope, VertexId};
use flexplore_obs::{phase, ObsSink};
use flexplore_sched::Time;
use flexplore_spec::{CompiledSpec, ResourceKind, SpecificationGraph, MAX_UNITS};
use std::collections::{BTreeMap, BTreeSet};

/// Runs every analysis pass over `spec` and returns the sorted report.
///
/// Passes that index or recurse by stored ids only run when the preceding
/// passes found no error, so the analysis never panics or hangs on
/// arbitrarily malformed (e.g. hand-edited) specifications.
#[must_use]
pub fn lint_spec(spec: &SpecificationGraph) -> LintReport {
    lint_spec_obs(spec, &ObsSink::disabled())
}

/// [`lint_spec`] with observability: each pass's wall-clock is recorded
/// into `obs` as a `lint.*` sub-phase, and the diagnostic totals
/// (`diagnostics`, `lint_errors`, `lint_warnings`, `lint_notes`) as
/// deterministic counters. Identical report; with a disabled sink no
/// clocks are read.
#[must_use]
pub fn lint_spec_obs(spec: &SpecificationGraph, obs: &ObsSink) -> LintReport {
    let mut report = LintReport::new(spec.name());

    let timer = obs.start();
    structural_pass(spec, &mut report);
    obs.finish(phase::LINT_STRUCTURAL, timer);
    if report.has_errors() {
        report.sort();
        publish_lint_counters(obs, &report);
        return report;
    }

    let timer = obs.start();
    hierarchy_pass(spec, &mut report);
    capacity_pass(spec, &mut report);
    obs.finish(phase::LINT_HIERARCHY, timer);
    let timer = obs.start();
    mapping_pass(spec, &mut report);
    obs.finish(phase::LINT_MAPPING, timer);
    let timer = obs.start();
    period_pass(spec, &mut report);
    obs.finish(phase::LINT_PERIOD, timer);
    if !report.has_errors() {
        let timer = obs.start();
        semantic_pass(spec, &mut report);
        obs.finish(phase::LINT_SEMANTIC, timer);
    }

    report.sort();
    publish_lint_counters(obs, &report);
    report
}

/// Publishes the report's diagnostic totals as deterministic counters.
pub(crate) fn publish_lint_counters(obs: &ObsSink, report: &LintReport) {
    if !obs.is_enabled() {
        return;
    }
    obs.set_count("lint_errors", report.errors() as u64);
    obs.set_count("lint_warnings", report.warnings() as u64);
    obs.set_count("lint_notes", report.notes() as u64);
}

/// F003 (dangling references) and F002 (containment cycles), per graph.
///
/// Reuses the hierarchical-graph validators, which report the *first*
/// defect each; forged specifications are rare enough that one diagnostic
/// per graph per check is sufficient to act on.
fn structural_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    use flexplore_hgraph::HgraphError;

    let graphs = [
        (Location::Problem, Location::ProblemCluster as fn(_) -> _, {
            let g = spec.problem().graph();
            (g.validate_references(), g.validate_containment())
        }),
        (
            Location::Architecture,
            Location::ArchCluster as fn(_) -> _,
            {
                let g = spec.architecture().graph();
                (g.validate_references(), g.validate_containment())
            },
        ),
    ];
    for (graph_location, cluster_location, (refs, containment)) in graphs {
        if let Err(HgraphError::DanglingReference { owner, target }) = refs {
            report.push(Diagnostic {
                code: "F003",
                severity: Severity::Error,
                location: graph_location,
                element: owner.clone(),
                message: format!("{owner} references {target}, which does not exist"),
            });
        }
        if let Err(HgraphError::ContainmentCycle { cluster }) = containment {
            report.push(Diagnostic {
                code: "F002",
                severity: Severity::Error,
                location: cluster_location(cluster),
                element: String::new(),
                message: format!(
                    "containment chain of cluster {cluster} re-enters itself instead of \
                     reaching the top level"
                ),
            });
        }
    }
}

/// F001: interfaces with no alternative clusters can never be refined, so
/// activation rule 1 is unsatisfiable wherever they appear.
fn hierarchy_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    let p = spec.problem().graph();
    for i in p.interface_ids() {
        if p.clusters_of(i).is_empty() {
            report.push(Diagnostic {
                code: "F001",
                severity: Severity::Error,
                location: Location::ProblemInterface(i),
                element: p.interface_name(i).to_string(),
                message: "interface has no alternative clusters, so it can never be refined"
                    .to_string(),
            });
        }
    }
    let a = spec.architecture().graph();
    for i in a.interface_ids() {
        if a.clusters_of(i).is_empty() {
            report.push(Diagnostic {
                code: "F001",
                severity: Severity::Error,
                location: Location::ArchInterface(i),
                element: a.interface_name(i).to_string(),
                message: "reconfigurable device has no loadable designs".to_string(),
            });
        }
    }
}

/// F013: more allocatable units (top-level architecture vertices plus
/// design clusters) than the lattice search's subset masks can index
/// ([`MAX_UNITS`]). The specification itself is sound, but `explore()`
/// will reject it with `UnitOverflow`, so flag it before any run starts.
fn capacity_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    let a = spec.architecture().graph();
    let units = a.vertices_in(Scope::Top).count() + a.cluster_ids().count();
    if units > MAX_UNITS {
        report.push(Diagnostic {
            code: "F013",
            severity: Severity::Warning,
            location: Location::Architecture,
            element: spec.name().to_string(),
            message: format!(
                "{units} allocatable units exceed the {MAX_UNITS}-unit subset-mask capacity; \
                 design-space exploration will reject this specification"
            ),
        });
    }
}

/// F005 (malformed mapping endpoints), F004 (unmapped problem leaves),
/// F006 (duplicate mappings).
fn mapping_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    let p = spec.problem();
    let a = spec.architecture();
    let process_count = p.graph().vertex_count();
    let resource_count = a.graph().vertex_count();

    // F005 — the same checks `add_mapping` enforces, re-run for mappings
    // that arrived via deserialization.
    let mut sound: Vec<(usize, VertexId, VertexId, Time)> = Vec::new();
    for m in spec.mapping_ids() {
        let mapping = *spec.mapping(m);
        let reason = if mapping.process.index() >= process_count {
            Some("process endpoint is not a vertex of the problem graph")
        } else if mapping.resource.index() >= resource_count {
            Some("resource endpoint is not a vertex of the architecture graph")
        } else if a.kind(mapping.resource) != ResourceKind::Functional {
            Some("mapping target is a communication resource, not a functional one")
        } else {
            None
        };
        if let Some(reason) = reason {
            report.push(Diagnostic {
                code: "F005",
                severity: Severity::Error,
                location: Location::Mapping(m.index()),
                element: format!("{} -> {}", mapping.process, mapping.resource),
                message: reason.to_string(),
            });
        } else {
            sound.push((
                m.index(),
                mapping.process,
                mapping.resource,
                mapping.latency,
            ));
        }
    }

    // F004 — a leaf with no mapping edge is unbindable. At the top level
    // every activation contains the leaf, so the whole specification is
    // unbindable: escalate to error.
    for v in p.graph().leaves() {
        if spec.mappings_of(v).next().is_none() {
            let top_level = p.graph().scope_of(NodeRef::Vertex(v)) == Scope::Top;
            report.push(Diagnostic {
                code: "F004",
                severity: if top_level {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                location: Location::ProblemVertex(v),
                element: p.process_name(v).to_string(),
                message: if top_level {
                    "top-level process has no mapping edge; no activation is bindable".to_string()
                } else {
                    "process has no mapping edge; every cluster containing it is statically \
                     unbindable"
                        .to_string()
                },
            });
        }
    }

    // F006 — duplicate mappings of the same (process, resource) pair:
    // conflicting latencies are a warning (which one wins depends on table
    // order), exact duplicates a note.
    let mut groups: BTreeMap<(VertexId, VertexId), Vec<(usize, Time)>> = BTreeMap::new();
    for (idx, process, resource, latency) in sound {
        groups
            .entry((process, resource))
            .or_default()
            .push((idx, latency));
    }
    for ((process, resource), edges) in groups {
        if edges.len() < 2 {
            continue;
        }
        let conflicting = edges.iter().any(|&(_, l)| l != edges[0].1);
        let duplicate_idx = edges[1].0;
        report.push(Diagnostic {
            code: "F006",
            severity: if conflicting {
                Severity::Warning
            } else {
                Severity::Note
            },
            location: Location::Mapping(duplicate_idx),
            element: format!(
                "{} -> {}",
                p.process_name(process),
                a.resource_name(resource)
            ),
            message: if conflicting {
                let latencies: Vec<String> = edges
                    .iter()
                    .map(|&(_, l)| format!("{}ns", l.as_ns()))
                    .collect();
                format!(
                    "{} mapping edges for the same process/resource pair with conflicting \
                     latencies ({}); the fastest wins",
                    edges.len(),
                    latencies.join(", ")
                )
            } else {
                format!(
                    "{} identical mapping edges for the same process/resource pair",
                    edges.len()
                )
            },
        });
    }
}

/// F010 (zero activation periods) and F011 (fastest mapping slower than
/// the period).
fn period_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    let p = spec.problem();
    for v in p.graph().vertex_ids() {
        let Some(period) = p.period(v) else {
            continue;
        };
        if period == Time::ZERO {
            report.push(Diagnostic {
                code: "F010",
                severity: Severity::Error,
                location: Location::ProblemVertex(v),
                element: p.process_name(v).to_string(),
                message: "zero activation period; the process can never be scheduled".to_string(),
            });
            continue;
        }
        if p.is_negligible(v) {
            continue;
        }
        let fastest = spec.mappings_of(v).map(|m| spec.mapping(m).latency).min();
        if let Some(fastest) = fastest {
            if fastest > period {
                report.push(Diagnostic {
                    code: "F011",
                    severity: Severity::Warning,
                    location: Location::ProblemVertex(v),
                    element: p.process_name(v).to_string(),
                    message: format!(
                        "fastest mapping latency {}ns exceeds the activation period {}ns; \
                         the process can never meet its deadline",
                        fastest.as_ns(),
                        period.as_ns()
                    ),
                });
            }
        }
    }
}

/// F007, F008, F009, F012 — semantic degeneracy over the compiled tables,
/// evaluated under the **full** allocation (every architecture vertex
/// available). Flexibility estimation is monotone in the allocation, so a
/// defect under the full allocation holds under every allocation.
fn semantic_pass(spec: &SpecificationGraph, report: &mut LintReport) {
    let compiled = CompiledSpec::new(spec);
    let p = spec.problem().graph();
    let available: BTreeSet<VertexId> = spec.architecture().graph().vertex_ids().collect();
    let estimate = estimate_with_compiled(&compiled, &available);

    if !estimate.feasible {
        report.push(Diagnostic {
            code: "F012",
            severity: Severity::Error,
            location: Location::Spec,
            element: spec.name().to_string(),
            message: "no complete activation is bindable even with every resource allocated"
                .to_string(),
        });
    } else {
        // F008 — a cluster outside the activatable set under the full
        // allocation has f(gamma) = 0 on every allocation.
        for c in p.cluster_ids() {
            if !estimate.activatable.contains(&c) {
                report.push(Diagnostic {
                    code: "F008",
                    severity: Severity::Warning,
                    location: Location::ProblemCluster(c),
                    element: p.cluster_name(c).to_string(),
                    message: "cluster can never be activated on any allocation; it contributes \
                              zero flexibility"
                        .to_string(),
                });
            }
        }
        // F009 — alternatives are *resource-equivalent* when their leaves
        // carry the identical mapping profiles (same resources at the same
        // latencies): they multiply the flexibility count (Definition 4)
        // without adding an implementation choice. Alternatives that merely
        // reach the same resources at different latencies are real choices
        // and do not fire.
        for i in p.interface_ids() {
            let clusters = p.clusters_of(i);
            if clusters.len() < 2 {
                continue;
            }
            let signatures: Vec<Vec<Vec<(VertexId, Time)>>> = clusters
                .iter()
                .map(|&c| {
                    let mut leaf_profiles: Vec<Vec<(VertexId, Time)>> = p
                        .leaves_of_cluster(c)
                        .iter()
                        .map(|&v| {
                            let mut profile: Vec<(VertexId, Time)> = compiled
                                .mappings_of(v)
                                .iter()
                                .map(|&m| {
                                    let mapping = spec.mapping(m);
                                    (mapping.resource, mapping.latency)
                                })
                                .collect();
                            profile.sort_unstable();
                            profile
                        })
                        .collect();
                    leaf_profiles.sort_unstable();
                    leaf_profiles
                })
                .collect();
            let mapped = signatures
                .iter()
                .all(|s| s.iter().all(|profile| !profile.is_empty()));
            if mapped && !signatures[0].is_empty() && signatures.iter().all(|s| *s == signatures[0])
            {
                report.push(Diagnostic {
                    code: "F009",
                    severity: Severity::Warning,
                    location: Location::ProblemInterface(i),
                    element: p.interface_name(i).to_string(),
                    message: format!(
                        "all {} alternatives carry identical mapping profiles (same resources, \
                         same latencies); the flexibility they add is count only",
                        clusters.len()
                    ),
                });
            }
        }
    }

    // F007 — a data dependence whose candidate resource pairs cannot
    // communicate even with everything allocated can never be routed
    // (binding requirement 3).
    let comm = CommGraph::from_compiled(&compiled, &available);
    for e in p.edge_ids() {
        let (from, to) = p.edge_endpoints(e);
        let producers = resolve_processes(p, from.node);
        let consumers = resolve_processes(p, to.node);
        let from_resources: BTreeSet<VertexId> = producers
            .iter()
            .flat_map(|&v| compiled.reachable_resources(v).iter().copied())
            .collect();
        let to_resources: BTreeSet<VertexId> = consumers
            .iter()
            .flat_map(|&v| compiled.reachable_resources(v).iter().copied())
            .collect();
        if from_resources.is_empty() || to_resources.is_empty() {
            // An endpoint is unmapped: F004 already covers it.
            continue;
        }
        let routable = from_resources
            .iter()
            .any(|&a| to_resources.iter().any(|&b| comm.comm_ok(a, b)));
        if !routable {
            report.push(Diagnostic {
                code: "F007",
                severity: Severity::Error,
                location: Location::ProblemEdge(e),
                element: format!("{} -> {}", node_name(p, from.node), node_name(p, to.node)),
                message: "no candidate resource pair of this dependence can communicate, even \
                          with every resource allocated"
                    .to_string(),
            });
        }
    }
}

/// The candidate processes a dependence endpoint may denote: the vertex
/// itself, or — for interface endpoints — every leaf of every alternative
/// (a superset of the port-resolved targets, so F007 never fires on a
/// dependence some configuration could still route).
fn resolve_processes(
    graph: &flexplore_hgraph::HierarchicalGraph<
        flexplore_spec::ProcessAttrs,
        flexplore_spec::DataDep,
    >,
    node: NodeRef,
) -> Vec<VertexId> {
    match node {
        NodeRef::Vertex(v) => vec![v],
        NodeRef::Interface(i) => graph
            .clusters_of(i)
            .iter()
            .flat_map(|&c| graph.leaves_of_cluster(c))
            .collect(),
    }
}

fn node_name(
    graph: &flexplore_hgraph::HierarchicalGraph<
        flexplore_spec::ProcessAttrs,
        flexplore_spec::DataDep,
    >,
    node: NodeRef,
) -> String {
    match node {
        NodeRef::Vertex(v) => graph.vertex_name(v).to_string(),
        NodeRef::Interface(i) => graph.interface_name(i).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs};

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// One top process on one cpu: the smallest clean specification.
    fn clean_spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        spec
    }

    #[test]
    fn clean_spec_produces_no_diagnostics() {
        let report = lint_spec(&clean_spec());
        assert!(report.is_clean(), "unexpected: {}", report.render_text());
    }

    #[test]
    fn f001_interface_without_clusters() {
        let mut p = ProblemGraph::new("p");
        p.add_interface(Scope::Top, "I");
        let a = ArchitectureGraph::new("a");
        let report = lint_spec(&SpecificationGraph::new("s", p, a));
        assert!(codes(&report).contains(&"F001"));
        assert!(report.has_errors());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F001")
            .unwrap();
        assert_eq!(d.location.kind(), "problem-interface");
        assert_eq!(d.element, "I");
    }

    #[test]
    fn f001_device_without_designs() {
        let mut a = ArchitectureGraph::new("a");
        a.add_interface(Scope::Top, "FPGA");
        let report = lint_spec(&SpecificationGraph::new("s", ProblemGraph::new("p"), a));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F001")
            .unwrap();
        assert_eq!(d.location.kind(), "arch-interface");
    }

    #[test]
    fn f004_unmapped_top_leaf_is_an_error() {
        let mut p = ProblemGraph::new("p");
        p.add_process(Scope::Top, "orphan");
        let report = lint_spec(&SpecificationGraph::new(
            "s",
            p,
            ArchitectureGraph::new("a"),
        ));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F004")
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.element, "orphan");
    }

    #[test]
    fn f004_unmapped_cluster_leaf_is_a_warning() {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let _v2 = p.add_process(c2.into(), "v2"); // unmapped
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F004")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.element, "v2");
        // The cluster containing v2 is provably dead -> F008 too.
        assert!(codes(&report).contains(&"F008"));
    }

    #[test]
    fn f006_duplicate_mappings() {
        let mut spec = clean_spec();
        let t = spec
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "t")
            .unwrap();
        let cpu = spec
            .architecture()
            .graph()
            .vertex_by_name(Scope::Top, "cpu")
            .unwrap();
        // Exact duplicate -> note.
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F006")
            .unwrap();
        assert_eq!(d.severity, Severity::Note);
        // Conflicting latency -> warning.
        spec.add_mapping(t, cpu, Time::from_ns(9)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F006")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("9ns"));
    }

    #[test]
    fn f007_unroutable_dependence() {
        // Two processes on disconnected resources.
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        p.add_dependence(t1, t2).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(1));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t1, r1, Time::from_ns(1)).unwrap();
        spec.add_mapping(t2, r2, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F007")
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.element, "t1 -> t2");
        assert_eq!(d.location.kind(), "problem-edge");
    }

    #[test]
    fn f007_does_not_fire_when_a_bus_connects() {
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        p.add_dependence(t1, t2).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(1));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(1));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(1));
        a.connect(r1, bus).unwrap();
        a.connect(bus, r2).unwrap();
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t1, r1, Time::from_ns(1)).unwrap();
        spec.add_mapping(t2, r2, Time::from_ns(1)).unwrap();
        assert!(lint_spec(&spec).is_clean());
    }

    #[test]
    fn f007_does_not_fire_for_colocated_processes() {
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        p.add_dependence(t1, t2).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t1, cpu, Time::from_ns(1)).unwrap();
        spec.add_mapping(t2, cpu, Time::from_ns(1)).unwrap();
        assert!(lint_spec(&spec).is_clean());
    }

    #[test]
    fn f009_resource_equivalent_alternatives() {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        spec.add_mapping(v2, cpu, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F009")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.element, "I");
    }

    #[test]
    fn f009_does_not_fire_on_distinct_footprints() {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(2));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        spec.add_mapping(v2, asic, Time::from_ns(1)).unwrap();
        assert!(lint_spec(&spec).is_clean());
    }

    #[test]
    fn f009_does_not_fire_on_distinct_latencies() {
        // Same resource but different latencies is a genuine trade-off.
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(v1, cpu, Time::from_ns(1)).unwrap();
        spec.add_mapping(v2, cpu, Time::from_ns(2)).unwrap();
        assert!(lint_spec(&spec).is_clean());
    }

    #[test]
    fn f010_zero_period() {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process_with(Scope::Top, "t", ProcessAttrs::new().with_period(Time::ZERO));
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F010")
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn f011_latency_exceeds_period() {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process_with(
            Scope::Top,
            "t",
            ProcessAttrs::new().with_period(Time::from_ns(10)),
        );
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(20)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F011")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("20ns"));
        assert!(d.message.contains("10ns"));
    }

    #[test]
    fn f012_no_bindable_activation() {
        // Top interface whose alternatives are all dead (unmapped leaves):
        // the F004s are warnings (cluster scope), but the spec as a whole
        // cannot bind any activation.
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let report = lint_spec(&SpecificationGraph::new("s", p, a));
        assert!(codes(&report).contains(&"F012"));
        assert!(report.has_errors());
    }

    #[test]
    fn f013_unit_capacity_overflow() {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        for k in 0..MAX_UNITS {
            a.add_resource(Scope::Top, format!("r{k}"), Cost::new(1));
        }
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        let report = lint_spec(&spec);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F013")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("257 allocatable units"));
    }

    #[test]
    fn report_order_is_deterministic() {
        let mut p = ProblemGraph::new("p");
        p.add_process(Scope::Top, "b_orphan");
        p.add_process(Scope::Top, "a_orphan");
        let spec = SpecificationGraph::new("s", p, ArchitectureGraph::new("a"));
        let r1 = lint_spec(&spec);
        let r2 = lint_spec(&spec);
        assert_eq!(r1, r2);
        assert_eq!(r1.render_text(), r2.render_text());
    }

    #[test]
    fn bundled_models_lint_clean() {
        // The CI self-lint step relies on every bundled model passing with
        // zero diagnostics; keep this invariant visible in unit tests.
        let models: Vec<(&str, SpecificationGraph)> = vec![
            ("set_top_box", flexplore_models::set_top_box().spec),
            ("tv_decoder", flexplore_models::tv_decoder().spec),
            ("dual_slot_fpga", flexplore_models::dual_slot_fpga().spec),
            (
                "synthetic_small",
                flexplore_models::synthetic_spec(&flexplore_models::SyntheticConfig::small(7)),
            ),
            (
                "synthetic_medium",
                flexplore_models::synthetic_spec(&flexplore_models::SyntheticConfig::medium(11)),
            ),
            (
                "synthetic_wide",
                flexplore_models::synthetic_spec(&flexplore_models::SyntheticConfig::wide(13)),
            ),
        ];
        for (name, spec) in models {
            let report = lint_spec(&spec);
            assert!(
                report.is_clean(),
                "{name} not clean:\n{}",
                report.render_text()
            );
        }
    }
}
