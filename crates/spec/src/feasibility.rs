//! The declarative binding-feasibility checker.
//!
//! Section 2 of the paper defines when a timed binding `β(t)` is feasible
//! for a given specification graph and timed allocation `α(t)`:
//!
//! 1. each activated mapping edge starts and ends at vertices activated at
//!    time `t`;
//! 2. each activated problem-graph leaf has **exactly one** activated
//!    outgoing mapping edge;
//! 3. each activated dependence edge `(v_i, v_j)` either has both
//!    operations on the same resource, or an activated communication path
//!    connects the two resources.
//!
//! This module implements that definition directly, independent of any
//! solver: `flexplore-bind` *constructs* bindings, this checker *verifies*
//! them, and the property tests assert that everything constructed passes
//! verification.

use crate::architecture::ArchView;
use crate::error::BindingViolation;
use crate::spec::{Mapping, MappingId, Mode, SpecificationGraph};
use flexplore_hgraph::{FlatGraph, HgraphError, Selection, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A timed binding for one mode: each activated process is implemented by
/// exactly one of its mapping edges.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    entries: BTreeMap<VertexId, MappingId>,
}

impl Binding {
    /// Creates an empty binding.
    #[must_use]
    pub fn new() -> Self {
        Binding::default()
    }

    /// Binds `process` through `mapping`, replacing any previous entry.
    pub fn bind(&mut self, process: VertexId, mapping: MappingId) -> &mut Self {
        self.entries.insert(process, mapping);
        self
    }

    /// Builder-style variant of [`bind`](Self::bind).
    #[must_use]
    pub fn with(mut self, process: VertexId, mapping: MappingId) -> Self {
        self.entries.insert(process, mapping);
        self
    }

    /// Removes the entry for `process`, returning the mapping it used.
    pub fn remove(&mut self, process: VertexId) -> Option<MappingId> {
        self.entries.remove(&process)
    }

    /// Returns the mapping edge used for `process`, if bound.
    #[must_use]
    pub fn mapping_for(&self, process: VertexId) -> Option<MappingId> {
        self.entries.get(&process).copied()
    }

    /// Returns the resource `process` is bound to, resolving through the
    /// specification.
    #[must_use]
    pub fn resource_for(&self, spec: &SpecificationGraph, process: VertexId) -> Option<VertexId> {
        self.mapping_for(process).map(|m| spec.mapping(m).resource)
    }

    /// Iterates over `(process, mapping)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, MappingId)> + '_ {
        self.entries.iter().map(|(&p, &m)| (p, m))
    }

    /// Returns the number of bound processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no process is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(VertexId, MappingId)> for Binding {
    fn from_iter<T: IntoIterator<Item = (VertexId, MappingId)>>(iter: T) -> Self {
        Binding {
            entries: iter.into_iter().collect(),
        }
    }
}

impl SpecificationGraph {
    /// Checks the three binding-feasibility requirements for one mode.
    ///
    /// `allocated` is the set of architecture vertices paid for by the
    /// design point (see
    /// [`ResourceAllocation::available_vertices`](crate::ResourceAllocation::available_vertices));
    /// within the mode, a resource is *activated* iff it is allocated **and**
    /// present in the flattened architecture under the mode's configuration
    /// (a reconfigurable device exposes only its selected design).
    ///
    /// Flattens the problem graph, builds the mode's
    /// [`arch_view`](Self::arch_view) and applies
    /// [`check_binding_rules`](Self::check_binding_rules); callers checking
    /// many bindings reuse the flattened graph and the view.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn check_binding(
        &self,
        mode: &Mode,
        allocated: &BTreeSet<VertexId>,
        binding: &Binding,
    ) -> Result<(), BindingViolation> {
        let problem_flat = self.problem().flatten(&mode.problem)?;
        let view = self.arch_view(&mode.architecture, allocated)?;
        self.check_binding_rules(&problem_flat, &view, binding)
    }

    /// The architecture view of a mode configuration: the architecture
    /// flattened under `configuration` (completed with
    /// [`complete_arch_selection`](Self::complete_arch_selection)) and
    /// restricted to `allocated`.
    ///
    /// # Errors
    ///
    /// Propagates flattening errors for inconsistent configurations.
    pub fn arch_view(
        &self,
        configuration: &Selection,
        allocated: &BTreeSet<VertexId>,
    ) -> Result<ArchView, HgraphError> {
        self.architecture()
            .view(&self.complete_arch_selection(configuration), allocated)
    }

    /// Checks requirements 1–3 for the binding of one mode, given its
    /// flattened problem graph and its [`arch_view`](Self::arch_view).
    /// Reports the same first violation as
    /// [`check_binding`](Self::check_binding).
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn check_binding_rules(
        &self,
        problem_flat: &FlatGraph,
        view: &ArchView,
        binding: &Binding,
    ) -> Result<(), BindingViolation> {
        // Requirement 2 (and entry sanity): every activated leaf bound
        // exactly once through one of its own mapping edges.
        for &process in &problem_flat.vertices {
            let Some(m) = binding.mapping_for(process) else {
                return Err(BindingViolation::UnboundProcess { process });
            };
            let mapping: &Mapping = self.mapping(m);
            if mapping.process != process {
                return Err(BindingViolation::ForeignMapping {
                    process,
                    mapping: m,
                });
            }
            // Requirement 1: both endpoints active.
            if !view.is_active(mapping.resource) {
                return Err(BindingViolation::InactiveEndpoint {
                    mapping: m,
                    problem_side: false,
                });
            }
        }
        // Requirement 1, problem side: entries for inactive processes are
        // activated mapping edges with an inactive source.
        for (process, m) in binding.iter() {
            if !problem_flat.contains(process) {
                return Err(BindingViolation::InactiveEndpoint {
                    mapping: m,
                    problem_side: true,
                });
            }
        }

        // Requirement 3: route every activated dependence.
        for e in &problem_flat.edges {
            let from_res = binding
                .resource_for(self, e.from)
                .expect("checked above: all active processes bound");
            let to_res = binding
                .resource_for(self, e.to)
                .expect("checked above: all active processes bound");
            if !view.reachable(from_res, to_res) {
                return Err(BindingViolation::NoCommunicationPath {
                    edge: e.id,
                    from_resource: from_res,
                    to_resource: to_res,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::ArchitectureGraph;
    use crate::attrs::Cost;
    use crate::problem::ProblemGraph;
    use flexplore_hgraph::{Scope, Selection};
    use flexplore_sched::Time;

    /// Two communicating processes; two resources joined by a bus, plus an
    /// isolated third resource.
    struct Fixture {
        spec: SpecificationGraph,
        t1: VertexId,
        t2: VertexId,
        r1: VertexId,
        r2: VertexId,
        r3: VertexId,
        bus: VertexId,
        m: BTreeMap<(usize, usize), MappingId>,
    }

    fn fixture() -> Fixture {
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        p.add_dependence(t1, t2).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(100));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(100));
        let r3 = a.add_resource(Scope::Top, "r3", Cost::new(100));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(10));
        a.connect(r1, bus).unwrap();
        a.connect(bus, r2).unwrap();
        let mut spec = SpecificationGraph::new("s", p, a);
        let mut m = BTreeMap::new();
        m.insert((1, 1), spec.add_mapping(t1, r1, Time::from_ns(5)).unwrap());
        m.insert((1, 2), spec.add_mapping(t1, r2, Time::from_ns(6)).unwrap());
        m.insert((2, 2), spec.add_mapping(t2, r2, Time::from_ns(7)).unwrap());
        m.insert((2, 3), spec.add_mapping(t2, r3, Time::from_ns(8)).unwrap());
        Fixture {
            spec,
            t1,
            t2,
            r1,
            r2,
            r3,
            bus,
            m,
        }
    }

    fn mode() -> Mode {
        Mode::new(Selection::new(), Selection::new())
    }

    #[test]
    fn binding_over_bus_is_feasible() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r1, f.r2, f.bus]);
        let binding = Binding::new()
            .with(f.t1, f.m[&(1, 1)])
            .with(f.t2, f.m[&(2, 2)]);
        assert!(f.spec.check_binding(&mode(), &allocated, &binding).is_ok());
    }

    #[test]
    fn same_resource_needs_no_bus() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r2]);
        let binding = Binding::new()
            .with(f.t1, f.m[&(1, 2)])
            .with(f.t2, f.m[&(2, 2)]);
        assert!(f.spec.check_binding(&mode(), &allocated, &binding).is_ok());
    }

    #[test]
    fn missing_bus_violates_rule_3() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r1, f.r2]); // bus not allocated
        let binding = Binding::new()
            .with(f.t1, f.m[&(1, 1)])
            .with(f.t2, f.m[&(2, 2)]);
        let err = f
            .spec
            .check_binding(&mode(), &allocated, &binding)
            .unwrap_err();
        assert!(matches!(err, BindingViolation::NoCommunicationPath { .. }));
    }

    #[test]
    fn disconnected_resource_violates_rule_3() {
        // r3 has no link at all — the paper's ASIC/FPGA example.
        let f = fixture();
        let allocated = BTreeSet::from([f.r1, f.r3, f.bus]);
        let binding = Binding::new()
            .with(f.t1, f.m[&(1, 1)])
            .with(f.t2, f.m[&(2, 3)]);
        let err = f
            .spec
            .check_binding(&mode(), &allocated, &binding)
            .unwrap_err();
        assert!(matches!(err, BindingViolation::NoCommunicationPath { .. }));
    }

    #[test]
    fn unbound_process_violates_rule_2() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r1, f.r2, f.bus]);
        let binding = Binding::new().with(f.t1, f.m[&(1, 1)]);
        let err = f
            .spec
            .check_binding(&mode(), &allocated, &binding)
            .unwrap_err();
        assert_eq!(err, BindingViolation::UnboundProcess { process: f.t2 });
    }

    #[test]
    fn unallocated_resource_violates_rule_1() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r2]); // r1 not allocated
        let binding = Binding::new()
            .with(f.t1, f.m[&(1, 1)])
            .with(f.t2, f.m[&(2, 2)]);
        let err = f
            .spec
            .check_binding(&mode(), &allocated, &binding)
            .unwrap_err();
        assert!(matches!(
            err,
            BindingViolation::InactiveEndpoint {
                problem_side: false,
                ..
            }
        ));
    }

    #[test]
    fn foreign_mapping_is_detected() {
        let f = fixture();
        let allocated = BTreeSet::from([f.r1, f.r2, f.bus]);
        // t1 bound via t2's mapping.
        let binding = Binding::new()
            .with(f.t1, f.m[&(2, 2)])
            .with(f.t2, f.m[&(2, 2)]);
        let err = f
            .spec
            .check_binding(&mode(), &allocated, &binding)
            .unwrap_err();
        assert!(matches!(err, BindingViolation::ForeignMapping { .. }));
    }

    #[test]
    fn binding_entry_for_inactive_process_is_rejected() {
        // Problem graph with an interface: binding an unselected cluster's
        // process violates rule 1 on the problem side.
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let r = a.add_resource(Scope::Top, "r", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        let m1 = spec.add_mapping(v1, r, Time::from_ns(1)).unwrap();
        let m2 = spec.add_mapping(v2, r, Time::from_ns(1)).unwrap();
        let mode = Mode::new(Selection::new().with(i, c1), Selection::new());
        let allocated = BTreeSet::from([r]);
        // Correct binding passes.
        let ok = Binding::new().with(v1, m1);
        assert!(spec.check_binding(&mode, &allocated, &ok).is_ok());
        // Extra entry for inactive v2 fails.
        let bad = Binding::new().with(v1, m1).with(v2, m2);
        let err = spec.check_binding(&mode, &allocated, &bad).unwrap_err();
        assert!(matches!(
            err,
            BindingViolation::InactiveEndpoint {
                problem_side: true,
                ..
            }
        ));
    }

    #[test]
    fn binding_accessors() {
        let f = fixture();
        let binding: Binding = [(f.t1, f.m[&(1, 1)])].into_iter().collect();
        assert_eq!(binding.len(), 1);
        assert!(!binding.is_empty());
        assert_eq!(binding.mapping_for(f.t1), Some(f.m[&(1, 1)]));
        assert_eq!(binding.mapping_for(f.t2), None);
        assert_eq!(binding.resource_for(&f.spec, f.t1), Some(f.r1));
        let mut b2 = Binding::new();
        b2.bind(f.t1, f.m[&(1, 2)]);
        assert_eq!(b2.resource_for(&f.spec, f.t1), Some(f.r2));
    }
}
