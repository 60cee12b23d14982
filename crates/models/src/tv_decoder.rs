//! The digital TV decoder example (Figs. 1 and 2 of the paper).
//!
//! The guiding example of Sections 2–3: four top-level operations — the
//! authentication process `P_A`, the controller `P_C`, the decryption
//! interface `I_D` (three alternative algorithms) and the uncompression
//! interface `I_U` (two alternatives) — where *"the uncompression process
//! requires input data from the decryption process"*.
//!
//! The architecture (Fig. 2) has a µ-controller, an ASIC `A` and an FPGA,
//! with bus `C1` between µP and FPGA and bus `C2` between µP and ASIC —
//! and, notably, **no** bus between ASIC and FPGA, which makes the paper's
//! infeasible-binding example (decryption on the ASIC, uncompression on the
//! FPGA) unroutable.

use flexplore_hgraph::{ClusterId, InterfaceId, PortDirection, PortTarget, Scope, VertexId};
use flexplore_sched::Time;
use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs, SpecificationGraph};
use std::collections::BTreeMap;

/// The TV decoder model with name-indexed handles.
#[derive(Debug, Clone)]
pub struct TvDecoder {
    /// The complete specification graph.
    pub spec: SpecificationGraph,
    /// Problem processes by name (`"P_A"`, `"P_D1"`, …).
    pub processes: BTreeMap<String, VertexId>,
    /// Problem clusters by name (`"gamma_D1"`, …).
    pub clusters: BTreeMap<String, ClusterId>,
    /// Problem interfaces by name (`"I_D"`, `"I_U"`).
    pub interfaces: BTreeMap<String, InterfaceId>,
    /// Architecture resources by name (`"uP"`, `"A"`, `"C1"`, `"C2"`,
    /// designs `"D3"`, `"U2"`).
    pub resources: BTreeMap<String, VertexId>,
    /// FPGA design clusters by name.
    pub designs: BTreeMap<String, ClusterId>,
}

impl TvDecoder {
    /// Looks up a process by paper name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not part of the model.
    #[must_use]
    pub fn process(&self, name: &str) -> VertexId {
        self.processes[name]
    }

    /// Looks up a cluster by paper name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not part of the model.
    #[must_use]
    pub fn cluster(&self, name: &str) -> ClusterId {
        self.clusters[name]
    }

    /// Looks up an architecture resource by paper name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not part of the model.
    #[must_use]
    pub fn resource(&self, name: &str) -> VertexId {
        self.resources[name]
    }
}

/// Builds the Fig. 1/Fig. 2 digital TV decoder specification.
///
/// Latencies follow the two values the paper states (`P_U1` on µP: 40 ns,
/// on ASIC: 15 ns) extended with the corresponding Table 1 values for the
/// remaining processes; costs follow the Fig. 2 style (µP 100, ASIC 250,
/// buses 10, FPGA designs 60 — consistent with the Set-Top box
/// derivation).
#[must_use]
pub fn tv_decoder() -> TvDecoder {
    let mut p = ProblemGraph::new("tv-decoder");
    let mut processes = BTreeMap::new();
    let mut clusters = BTreeMap::new();
    let mut interfaces = BTreeMap::new();

    let pa = p.add_process_with(Scope::Top, "P_A", ProcessAttrs::new().negligible());
    let pc = p.add_process_with(Scope::Top, "P_C", ProcessAttrs::new().negligible());
    processes.insert("P_A".to_owned(), pa);
    processes.insert("P_C".to_owned(), pc);

    let i_d = p.add_interface(Scope::Top, "I_D");
    interfaces.insert("I_D".to_owned(), i_d);
    let d_in = p.add_port(i_d, "in", PortDirection::In);
    let d_out = p.add_port(i_d, "out", PortDirection::Out);
    for k in 1..=3 {
        let c = p.add_cluster(i_d, format!("gamma_D{k}"));
        let v = p.add_process(c.into(), format!("P_D{k}"));
        p.map_port(c, d_in, PortTarget::vertex(v)).expect("member");
        p.map_port(c, d_out, PortTarget::vertex(v)).expect("member");
        clusters.insert(format!("gamma_D{k}"), c);
        processes.insert(format!("P_D{k}"), v);
    }
    let i_u = p.add_interface(Scope::Top, "I_U");
    interfaces.insert("I_U".to_owned(), i_u);
    let u_in = p.add_port(i_u, "in", PortDirection::In);
    for k in 1..=2 {
        let c = p.add_cluster(i_u, format!("gamma_U{k}"));
        let v = p.add_process_with(
            c.into(),
            format!("P_U{k}"),
            ProcessAttrs::new().with_period(Time::from_ns(300)),
        );
        p.map_port(c, u_in, PortTarget::vertex(v)).expect("member");
        clusters.insert(format!("gamma_U{k}"), c);
        processes.insert(format!("P_U{k}"), v);
    }
    p.add_dependence(pc, (i_d, d_in)).expect("same scope");
    p.add_dependence((i_d, d_out), (i_u, u_in))
        .expect("same scope");

    let mut a = ArchitectureGraph::new("tv-decoder-arch");
    let mut resources = BTreeMap::new();
    let mut designs = BTreeMap::new();
    let up = a.add_resource(Scope::Top, "uP", Cost::new(100));
    let asic = a.add_resource(Scope::Top, "A", Cost::new(250));
    let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
    let c2 = a.add_bus(Scope::Top, "C2", Cost::new(10));
    resources.insert("uP".to_owned(), up);
    resources.insert("A".to_owned(), asic);
    resources.insert("C1".to_owned(), c1);
    resources.insert("C2".to_owned(), c2);
    let fpga = a.add_interface(Scope::Top, "FPGA");
    a.connect(up, c1).expect("same scope");
    a.connect_through(c1, fpga).expect("device link");
    a.connect(up, c2).expect("same scope");
    a.connect(c2, asic).expect("same scope");
    for (name, cost) in [("D3", 60u64), ("U2", 60)] {
        let d = a
            .add_design(fpga, format!("cfg_{name}"), name, Cost::new(cost))
            .expect("fresh design");
        resources.insert(name.to_owned(), d.design);
        designs.insert(name.to_owned(), d.cluster);
    }

    let mut spec = SpecificationGraph::new("tv-decoder", p, a);
    let mapping_table: &[(&str, &str, u64)] = &[
        ("P_A", "uP", 55),
        ("P_C", "uP", 10),
        ("P_D1", "uP", 85),
        ("P_D1", "A", 25),
        ("P_D2", "A", 35),
        ("P_D3", "D3", 63),
        // The paper states these two explicitly (Fig. 2 annotation):
        ("P_U1", "uP", 40),
        ("P_U1", "A", 15),
        ("P_U2", "A", 29),
        ("P_U2", "U2", 59),
    ];
    for (process, resource, ns) in mapping_table {
        spec.add_mapping(
            processes[*process],
            resources[*resource],
            Time::from_ns(*ns),
        )
        .expect("valid endpoints");
    }
    spec.validate().expect("model is structurally valid");

    TvDecoder {
        spec,
        processes,
        clusters,
        interfaces,
        resources,
        designs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_bind::{mode_is_feasible, BindOptions};
    use flexplore_flex::max_flexibility;
    use flexplore_hgraph::Selection;
    use flexplore_spec::{Binding, Mode, ResourceAllocation};
    use std::collections::BTreeSet;

    #[test]
    fn equation_1_leaves() {
        // V_l(G) = {P_A, P_C} ∪ {P_D1, P_D2, P_D3} ∪ {P_U1, P_U2}.
        let tv = tv_decoder();
        let g = tv.spec.problem().graph();
        let leaves: BTreeSet<&str> = g.leaves().map(|v| g.vertex_name(v)).collect();
        assert_eq!(
            leaves,
            BTreeSet::from(["P_A", "P_C", "P_D1", "P_D2", "P_D3", "P_U1", "P_U2"])
        );
    }

    #[test]
    fn decoder_flexibility_is_4() {
        // I_D (3) + I_U (2) - 1 = 4 when everything is activatable.
        let tv = tv_decoder();
        assert_eq!(max_flexibility(tv.spec.problem().graph()), 4);
    }

    #[test]
    fn paper_infeasible_binding_example() {
        // P_D2 on the ASIC and the uncompression on the FPGA (design U2):
        // no bus connects ASIC and FPGA, so no feasible binding exists.
        let tv = tv_decoder();
        let alloc = ResourceAllocation::new()
            .with_vertex(tv.resource("uP"))
            .with_vertex(tv.resource("A"))
            .with_vertex(tv.resource("C1"))
            .with_vertex(tv.resource("C2"))
            .with_cluster(tv.designs["U2"]);
        let eca = Selection::new()
            .with(tv.interfaces["I_D"], tv.cluster("gamma_D2"))
            .with(tv.interfaces["I_U"], tv.cluster("gamma_U2"));
        // Force the pairing by hand-building the binding the paper deems
        // infeasible and checking it violates rule 3.
        let m_d2_a = tv
            .spec
            .mappings_of(tv.process("P_D2"))
            .find(|&m| tv.spec.mapping(m).resource == tv.resource("A"))
            .unwrap();
        let m_u2_fpga = tv
            .spec
            .mappings_of(tv.process("P_U2"))
            .find(|&m| tv.spec.mapping(m).resource == tv.resource("U2"))
            .unwrap();
        let m_pa = tv.spec.mappings_of(tv.process("P_A")).next().unwrap();
        let m_pc = tv.spec.mappings_of(tv.process("P_C")).next().unwrap();
        let binding = Binding::new()
            .with(tv.process("P_D2"), m_d2_a)
            .with(tv.process("P_U2"), m_u2_fpga)
            .with(tv.process("P_A"), m_pa)
            .with(tv.process("P_C"), m_pc);
        let fpga = tv
            .spec
            .architecture()
            .graph()
            .interface_by_name(Scope::Top, "FPGA")
            .unwrap();
        let mode = Mode::new(eca.clone(), Selection::new().with(fpga, tv.designs["U2"]));
        let allocated = alloc.available_vertices(tv.spec.architecture());
        let err = tv
            .spec
            .check_binding(&mode, &allocated, &binding)
            .unwrap_err();
        assert!(matches!(
            err,
            flexplore_spec::BindingViolation::NoCommunicationPath { .. }
        ));
        // The solver instead finds the feasible alternative: U2 on the
        // ASIC (29 ns) colocated with P_D2.
        assert!(mode_is_feasible(
            &tv.spec,
            &alloc,
            &eca,
            &BindOptions::default()
        ));
    }

    #[test]
    fn d3_requires_fpga_configuration() {
        // Executing P_D3 requires the FPGA loaded with design D3.
        let tv = tv_decoder();
        let without_d3 = ResourceAllocation::new()
            .with_vertex(tv.resource("uP"))
            .with_vertex(tv.resource("C1"));
        let eca = Selection::new()
            .with(tv.interfaces["I_D"], tv.cluster("gamma_D3"))
            .with(tv.interfaces["I_U"], tv.cluster("gamma_U1"));
        assert!(!mode_is_feasible(
            &tv.spec,
            &without_d3,
            &eca,
            &BindOptions::default()
        ));
        let with_d3 = without_d3.with_cluster(tv.designs["D3"]);
        assert!(mode_is_feasible(
            &tv.spec,
            &with_d3,
            &eca,
            &BindOptions::default()
        ));
    }

    #[test]
    fn fig2_possible_allocations_start_with_bare_processor() {
        use flexplore_bind::ObsSink;
        use flexplore_explore::{possible_resource_allocations, AllocationOptions};
        use flexplore_spec::CompiledSpec;
        let tv = tv_decoder();
        let (cands, _) = possible_resource_allocations(
            &CompiledSpec::new(&tv.spec),
            &AllocationOptions::default(),
            &ObsSink::disabled(),
        )
        .unwrap();
        // The cheapest possible allocation is {µP} (paper's set A starts
        // with µP).
        let first = &cands[0];
        assert_eq!(first.allocation.display_names(tv.spec.architecture()), "uP");
        assert_eq!(first.cost, Cost::new(100));
        // And every candidate contains the µP (only processor that can run
        // P_A / P_C).
        assert!(cands
            .iter()
            .all(|c| c.allocation.vertices.contains(&tv.resource("uP"))));
    }
}
