//! The binding kernel, pinned: its search counters over every possible
//! allocation of the bundled models, and the agreement of its cached
//! verification with the declarative checker.
//!
//! Run in release mode with
//! `cargo test --release -p flexplore --test bind_kernel`.

use flexplore::bind::{activation_meets_timing, mode_meets_timing, Implementation};
use flexplore::models::{synthetic_spec, SyntheticConfig};
use flexplore::{
    dual_slot_fpga, implement_allocation, possible_resource_allocations, set_top_box, tv_decoder,
    AllocationOptions, BindingBatch, CompiledSpec, ImplementOptions, ObsSink, SchedPolicy,
    SpecificationGraph,
};
use std::collections::BTreeMap;

/// Search counters summed over every possible allocation of a model:
/// `(assignments, backtracks, activations, feasible_modes)`.
type Sums = (u64, u64, u64, u64);

/// Implements every possible allocation of `spec` (default allocation and
/// implement options, one shared batch), handing each implementation to
/// `visit`, and returns the summed search counters.
fn implement_every_allocation(
    compiled: &CompiledSpec<'_>,
    mut visit: impl FnMut(&Implementation),
) -> Sums {
    let (candidates, _) = possible_resource_allocations(
        compiled,
        &AllocationOptions::default(),
        &ObsSink::disabled(),
    )
    .expect("bundled models enumerate");
    let batch = BindingBatch::new();
    let mut sums = (0, 0, 0, 0);
    for candidate in &candidates {
        let (implementation, stats) = implement_allocation(
            compiled,
            &candidate.allocation,
            &ImplementOptions::default(),
            Some(&batch),
            &ObsSink::disabled(),
        )
        .expect("default activation bound");
        sums.0 += stats.solve.assignments;
        sums.1 += stats.solve.backtracks;
        sums.2 += stats.activations;
        sums.3 += stats.feasible_modes;
        if let Some(implementation) = &implementation {
            visit(implementation);
        }
    }
    sums
}

/// The sums at the parent of the allocation-free kernel: any change to the
/// candidate order, the pruning rules or the verification shows up here.
#[test]
fn solve_stats_over_every_allocation_are_pinned() {
    let models: [(&str, SpecificationGraph, Sums); 4] = [
        (
            "set-top-box",
            set_top_box().spec,
            (149_010, 75_864, 27_034, 20_483),
        ),
        ("tv-decoder", tv_decoder().spec, (362, 151, 89, 52)),
        ("dual-slot-fpga", dual_slot_fpga().spec, (65, 45, 17, 5)),
        (
            "synthetic-wide(86)",
            synthetic_spec(&SyntheticConfig::wide(86)),
            (152_725, 23_346, 1_844, 1_320),
        ),
    ];
    for (name, spec, expected) in models {
        let compiled = CompiledSpec::with_activation_cache(&spec);
        let sums = implement_every_allocation(&compiled, |_| {});
        assert_eq!(
            sums, expected,
            "{name}: (assignments, backtracks, activations, feasible_modes)"
        );
    }
}

/// The solver verifies each solution with the binding rules over the
/// activation's flattened graph and a view cached per device
/// configuration, and with timing over the activation's period table. Both
/// must agree with the declarative checker, on every solution and on every
/// single-process remap of it (which the rules or the timing test often
/// reject). Each solution goes through `check_binding` itself; a remap is
/// checked against the same rules over a problem graph and a view built
/// afresh for its mode — `check_binding`'s own steps, hoisted out of the
/// remap loop to keep the test fast — plus `mode_meets_timing`.
#[test]
fn cached_verification_agrees_with_the_declarative_checker() {
    let policy = SchedPolicy::default();
    let mut rejected = 0u64;
    for (name, spec) in [
        ("set-top-box", set_top_box().spec),
        ("tv-decoder", tv_decoder().spec),
        ("dual-slot-fpga", dual_slot_fpga().spec),
    ] {
        let compiled = CompiledSpec::with_activation_cache(&spec);
        let mut checked = 0u64;
        implement_every_allocation(&compiled, |implementation| {
            let allocated = compiled.available_vertices(&implementation.allocation);
            let mut views = BTreeMap::new();
            for solved in &implementation.modes {
                let mode = &solved.mode;
                let activation = compiled
                    .activation(&mode.problem)
                    .expect("bundled models cache every activation");
                let view = views.entry(mode.architecture.clone()).or_insert_with(|| {
                    spec.arch_view(&mode.architecture, &allocated)
                        .expect("solved configurations flatten")
                });
                let fresh_flat = spec.problem().flatten(&mode.problem).unwrap();
                let fresh_view = spec.arch_view(&mode.architecture, &allocated).unwrap();
                // Returns whether both sides accept `binding`.
                let mut check = |binding: &flexplore::Binding| {
                    let cached = (
                        spec.check_binding_rules(&activation.flat, view, binding),
                        activation_meets_timing(&spec, activation, binding, policy),
                    );
                    let fresh = (
                        spec.check_binding_rules(&fresh_flat, &fresh_view, binding),
                        mode_meets_timing(&spec, &fresh_flat, binding, policy),
                    );
                    assert_eq!(cached, fresh, "{name}: {mode:?} {binding:?}");
                    checked += 1;
                    let accepted = cached == (Ok(()), true);
                    rejected += u64::from(!accepted);
                    accepted
                };
                assert!(check(&solved.binding), "{name}: a solution is rejected");
                assert_eq!(
                    spec.check_binding(mode, &allocated, &solved.binding),
                    Ok(()),
                    "{name}: {mode:?}"
                );
                for (process, mapping) in solved.binding.iter() {
                    for &other in compiled.mappings_of(process) {
                        if other != mapping {
                            check(&solved.binding.clone().with(process, other));
                        }
                    }
                }
            }
        });
        assert!(checked > 0, "{name}: no solution checked");
    }
    assert!(rejected > 0, "the remaps must exercise rejections too");
}
