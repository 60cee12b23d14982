//! Integration tests for the paper's worked examples (E1–E3 in DESIGN.md):
//! Equation (1), the Fig. 2 binding-infeasibility example, and the Fig. 3
//! flexibility computation.

use flexplore::flex::{flexibility, flexibility_def4_raw, max_flexibility};
use flexplore::{
    possible_resource_allocations, set_top_box, tv_decoder, AllocationOptions, CompiledSpec, Cost,
    ObsSink,
};
use std::collections::BTreeSet;

/// E1 — Equation (1): the leaves of the Fig. 1 decoder are the two
/// top-level processes plus the five refinement processes.
#[test]
fn e1_equation_1_leaf_set() {
    let tv = tv_decoder();
    let g = tv.spec.problem().graph();
    let leaves: BTreeSet<&str> = g.leaves().map(|v| g.vertex_name(v)).collect();
    assert_eq!(
        leaves,
        BTreeSet::from(["P_A", "P_C", "P_D1", "P_D2", "P_D3", "P_U1", "P_U2"]),
    );
    // The per-cluster variant: V_l(gamma_D1) = {P_D1}.
    let d1 = tv.cluster("gamma_D1");
    let cluster_leaves = g.leaves_of_cluster(d1);
    assert_eq!(cluster_leaves.len(), 1);
    assert_eq!(g.vertex_name(cluster_leaves[0]), "P_D1");
}

/// E2 — Fig. 2: the possible-allocation set starts with the bare µP, every
/// candidate contains the µP, and candidates are cost-ordered.
#[test]
fn e2_fig2_possible_allocations() {
    let tv = tv_decoder();
    let (cands, stats) = possible_resource_allocations(
        &CompiledSpec::new(&tv.spec),
        &AllocationOptions::default(),
        &ObsSink::disabled(),
    )
    .unwrap();
    assert!(stats.kept > 0);
    assert_eq!(cands[0].cost, Cost::new(100)); // {µP}
    for w in cands.windows(2) {
        assert!(w[0].cost <= w[1].cost, "candidates must be cost-sorted");
    }
    let up = tv.resource("uP");
    assert!(cands.iter().all(|c| c.allocation.vertices.contains(&up)));
    // The µP alone implements D1 x U1 only: estimated flexibility
    // 1 + 1 - 1 = 1 over the two interfaces.
    assert_eq!(cands[0].estimate.value, 1);
}

/// E2 — Fig. 2's infeasibility argument: without a bus between ASIC and
/// FPGA, a decryption on the ASIC cannot feed an uncompression on the
/// FPGA. (The detailed rule-level test lives in the models crate; here we
/// check the exploration never emits such a mode.)
#[test]
fn e2_no_mode_routes_between_asic_and_fpga() {
    use flexplore::explore;
    let tv = tv_decoder();
    let result = explore(&tv.spec, &flexplore::ExploreOptions::paper()).unwrap();
    let asic = tv.resource("A");
    let fpga_designs: BTreeSet<_> = ["D3", "U2"].iter().map(|n| tv.resource(n)).collect();
    for point in &result.front {
        let implementation = point.implementation.as_ref().unwrap();
        for mode in &implementation.modes {
            // If a decryption runs on the ASIC, the uncompression must not
            // sit on an FPGA design (no route exists).
            let d_on_asic = mode.binding.iter().any(|(p, m)| {
                tv.spec.problem().process_name(p).starts_with("P_D")
                    && tv.spec.mapping(m).resource == asic
            });
            if d_on_asic {
                let u_on_fpga = mode.binding.iter().any(|(p, m)| {
                    tv.spec.problem().process_name(p).starts_with("P_U")
                        && fpga_designs.contains(&tv.spec.mapping(m).resource)
                });
                assert!(!u_on_fpga, "unroutable ASIC->FPGA mode emitted");
            }
        }
    }
}

/// E3 — Fig. 3: maximal flexibility 8; without the game cluster 5; the
/// literal Definition 4 formula agrees on these consistent sets.
#[test]
fn e3_fig3_flexibility_values() {
    let stb = set_top_box();
    let g = stb.spec.problem().graph();
    assert_eq!(max_flexibility(g), 8);
    let game = stb.cluster("gamma_G");
    assert_eq!(flexibility(g, |c| c != game), 5);
    assert_eq!(flexibility_def4_raw(g, |c| c != game), 5);
    assert_eq!(flexibility_def4_raw(g, |_| true), 8);
}

/// E3 — the expanded flexibility equation of Section 3: dropping
/// individual leaf clusters subtracts exactly 1 while the structure stays
/// consistent.
#[test]
fn e3_leaf_cluster_contributions() {
    let stb = set_top_box();
    let g = stb.spec.problem().graph();
    for name in ["gamma_G2", "gamma_G3", "gamma_D2", "gamma_D3", "gamma_U2"] {
        let dropped = stb.cluster(name);
        assert_eq!(
            flexibility(g, |c| c != dropped),
            7,
            "dropping {name} must cost exactly 1"
        );
    }
    // Dropping every alternative of an interface kills the whole
    // application cluster: without gamma_U1 and gamma_U2 the TV decoder
    // cannot run at all, losing its full contribution of 4.
    let u1 = stb.cluster("gamma_U1");
    let u2 = stb.cluster("gamma_U2");
    assert_eq!(flexibility(g, |c| c != u1 && c != u2), 4);
}

/// E3 — the flexibility of the TV-decoder subgraph alone is 4
/// (3 decryptions + 2 uncompressions − 1).
#[test]
fn e3_tv_decoder_flexibility() {
    let tv = tv_decoder();
    assert_eq!(max_flexibility(tv.spec.problem().graph()), 4);
}
