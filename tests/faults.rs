//! Acceptance tests of the fault-tolerant runtime (ISSUE 1 tentpole):
//! a permanent resource failure must trigger a recorded degraded switch to
//! a surviving mode, and the k-resilient flexibility of the Set-Top box
//! case study must be strictly below its fault-free flexibility.

use flexplore::adaptive::{DegradeOutcome, FaultTimelineEvent};
use flexplore::bind::ImplementOptions;
use flexplore::{
    implement_default, k_resilient_flexibility, remaining_flexibility, run_with_faults,
    set_top_box, AdaptiveSystem, CompiledSpec, DegradationPolicy, FaultKind, FaultPlan,
    FaultScenario, Implementation, ObsSink, ReconfigCost, Selection, SetTopBox, Time,
};
use std::collections::BTreeSet;

/// The $290 platform: µP2 + C1 + FPGA designs D3/U2/G1.
fn platform() -> (SetTopBox, Implementation) {
    let stb = set_top_box();
    let allocation = flexplore::ResourceAllocation::new()
        .with_vertex(stb.resource("uP2"))
        .with_vertex(stb.resource("C1"))
        .with_cluster(stb.design("D3"))
        .with_cluster(stb.design("U2"))
        .with_cluster(stb.design("G1"));
    let implementation = implement_default(&stb.spec, &allocation).expect("feasible");
    (stb, implementation)
}

fn watch_tv_d3(stb: &SetTopBox) -> Selection {
    Selection::new()
        .with(stb.interfaces["I_app"], stb.cluster("gamma_D"))
        .with(stb.interfaces["I_D"], stb.cluster("gamma_D3"))
        .with(stb.interfaces["I_U"], stb.cluster("gamma_U1"))
}

#[test]
fn permanent_failure_triggers_a_recorded_degraded_switch() {
    let (stb, implementation) = platform();
    let mut system = AdaptiveSystem::new(&stb.spec, &implementation, ReconfigCost::Free);
    system.switch_to(&watch_tv_d3(&stb)).unwrap();

    let outcome = system
        .fail_resource(
            Time::from_ns(10_000),
            stb.resource("D3"),
            FaultKind::Permanent,
        )
        .unwrap();
    assert_eq!(outcome, DegradeOutcome::Degraded);

    // The degraded switch is on the timeline and lands on a surviving
    // mode: same top-level behavior (TV), decoder alternative != D3, and
    // no process bound to the dead design.
    let switch = system
        .fault_timeline()
        .iter()
        .find_map(|e| match e {
            FaultTimelineEvent::DegradedSwitch { behavior, mode, .. } => {
                Some((behavior.clone(), mode.clone()))
            }
            _ => None,
        })
        .expect("a DegradedSwitch must be recorded");
    assert_eq!(
        switch.0.get(stb.interfaces["I_app"]),
        Some(stb.cluster("gamma_D"))
    );
    assert_ne!(
        switch.1.get(stb.interfaces["I_D"]),
        Some(stb.cluster("gamma_D3"))
    );
    let current = system.current_mode().expect("TV stays up");
    let dead = stb.resource("D3");
    for (_, mapping) in current.binding.iter() {
        assert_ne!(stb.spec.mapping(mapping).resource, dead);
    }
}

#[test]
fn one_resilient_flexibility_is_strictly_below_fault_free() {
    let (stb, implementation) = platform();
    let compiled = CompiledSpec::new(&stb.spec);
    let report = k_resilient_flexibility(
        &compiled,
        &implementation,
        1,
        &ImplementOptions::default(),
        1,
        &ObsSink::disabled(),
    )
    .unwrap();
    assert_eq!(report.baseline, implementation.flexibility);
    assert!(
        report.resilient_flexibility < report.baseline,
        "a single-processor platform cannot guarantee its flexibility: \
         {} vs {}",
        report.resilient_flexibility,
        report.baseline
    );
    // And the worst case is consistent with a direct masking query.
    let dead: BTreeSet<_> = [stb.resource("uP2")].into_iter().collect();
    let without_processor = remaining_flexibility(
        &compiled,
        &implementation,
        &dead,
        &ImplementOptions::default(),
        &ObsSink::disabled(),
    )
    .unwrap();
    assert!(report.resilient_flexibility <= without_processor);
}

#[test]
fn scenario_runner_survives_a_design_loss_and_reports_the_decay() {
    let (stb, implementation) = platform();
    let trace = vec![watch_tv_d3(&stb), watch_tv_d3(&stb)];
    let scenario = FaultScenario {
        plan: FaultPlan::new().with_fault(
            Time::from_ns(500),
            stb.resource("D3"),
            FaultKind::Permanent,
        ),
        policy: DegradationPolicy::BestEffort,
        dwell: Time::from_ns(1_000),
    };
    let report = run_with_faults(
        &stb.spec,
        &implementation,
        ReconfigCost::Free,
        &trace,
        &scenario,
    )
    .unwrap();
    assert_eq!(report.stats.failures, 1);
    assert_eq!(report.stats.degraded_switches, 1);
    assert_eq!(report.stats.behaviors_lost, 0);
    // Masking the dead design costs exactly the D3 decoder alternative.
    assert!(report.surviving_flexibility < report.baseline_flexibility);
    assert!(report.surviving_flexibility > 0);
}
