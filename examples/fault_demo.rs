//! Graceful degradation: the Set-Top box loses its FPGA design mid-stream.
//!
//! The paper sells flexibility as headroom for *planned* change — zapping
//! channels, starting a game. This example shows the same headroom
//! absorbing *unplanned* change. On the $290 platform
//! (µP2 + C1 + FPGA designs D3/U2/G1) the user watches a TV station whose
//! decryption runs on the FPGA design D3; then:
//!
//! 1. the loaded design suffers a permanent fault mid-stream — the manager
//!    re-resolves the behavior to the software decoder D1 on µP2, and the
//!    picture stays up (a *degraded switch*: flexibility spent as
//!    redundancy);
//! 2. the processor itself dies — nothing survives that, the behavior is
//!    lost (best-effort policy: later requests on healthy resources would
//!    still be served);
//! 3. the same scenario is replayed through the deterministic scenario
//!    runner, reporting how much flexibility the platform still implements
//!    with its dead resources masked out;
//! 4. the k-resilient exploration ranks the paper's platforms by the
//!    flexibility they can *guarantee* under one resource failure — the
//!    third objective money can buy.
//!
//! Run with:
//!
//! ```text
//! cargo run --example fault_demo
//! ```

use flexplore::adaptive::{DegradeOutcome, FaultTimelineEvent};
use flexplore::{
    explore_resilient, implement_default, run_with_faults, set_top_box, AdaptiveSystem,
    CompiledSpec, DegradationPolicy, ExploreOptions, FaultKind, FaultPlan, FaultScenario, ObsSink,
    ReconfigCost, ResourceAllocation, Selection, Time,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stb = set_top_box();
    let spec = &stb.spec;

    // The $290 design point: µP2, C1, and all three FPGA designs.
    let allocation = ResourceAllocation::new()
        .with_vertex(stb.resource("uP2"))
        .with_vertex(stb.resource("C1"))
        .with_cluster(stb.design("D3"))
        .with_cluster(stb.design("U2"))
        .with_cluster(stb.design("G1"));
    let implementation =
        implement_default(spec, &allocation).expect("the $290 platform is feasible");
    println!(
        "platform [{}] cost {} flexibility {}",
        allocation.display_names(spec.architecture()),
        implementation.cost,
        implementation.flexibility
    );

    let watch_tv_d3 = Selection::new()
        .with(stb.interfaces["I_app"], stb.cluster("gamma_D"))
        .with(stb.interfaces["I_D"], stb.cluster("gamma_D3"))
        .with(stb.interfaces["I_U"], stb.cluster("gamma_U1"));

    // --- 1. The loaded FPGA design dies under the running stream. -------
    let mut system = AdaptiveSystem::new(
        spec,
        &implementation,
        ReconfigCost::Uniform(Time::from_ns(1_000)),
    );
    system.switch_to(&watch_tv_d3)?;
    println!("\nwatching TV via FPGA design D3 ...");
    let outcome = system.fail_resource(
        Time::from_ns(10_000),
        stb.resource("D3"),
        FaultKind::Permanent,
    )?;
    assert_eq!(outcome, DegradeOutcome::Degraded);
    for event in system.fault_timeline() {
        describe(&stb, event);
    }

    // --- 2. Then the processor itself dies: nothing survives that. ------
    let outcome = system.fail_resource(
        Time::from_ns(20_000),
        stb.resource("uP2"),
        FaultKind::Permanent,
    )?;
    assert!(matches!(outcome, DegradeOutcome::Lost { .. }));
    describe(&stb, system.fault_timeline().last().expect("recorded"));

    // --- 3. The same story through the deterministic scenario runner. ---
    let trace = vec![watch_tv_d3.clone(), watch_tv_d3.clone()];
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
        spec,
        &implementation,
        ReconfigCost::Uniform(Time::from_ns(1_000)),
        &trace,
        &scenario,
    )?;
    println!(
        "\nscenario replay: {} served, {} degraded switches, {} lost",
        report.stats.switches, report.stats.degraded_switches, report.stats.behaviors_lost
    );
    println!(
        "flexibility: {} fault-free, {} with D3 dead",
        report.baseline_flexibility, report.surviving_flexibility
    );

    // --- 4. What does one guaranteed failure cost? ----------------------
    println!("\ncost / flexibility / 1-resilient flexibility front:");
    let compiled = CompiledSpec::with_activation_cache(spec);
    for point in explore_resilient(&compiled, 1, &ExploreOptions::paper(), &ObsSink::disabled())? {
        println!(
            "  {:>8}  f={:<3} guaranteed f={:<3} [{}]",
            point.cost.to_string(),
            point.flexibility,
            point.resilience,
            point
                .implementation
                .allocation
                .display_names(spec.architecture())
        );
    }
    Ok(())
}

fn describe(stb: &flexplore::SetTopBox, event: &FaultTimelineEvent) {
    let arch = stb.spec.architecture();
    let g = stb.spec.problem().graph();
    let names = |s: &Selection| -> String {
        s.iter()
            .map(|(_, c)| g.cluster_name(c).to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    };
    match event {
        FaultTimelineEvent::ResourceFailed {
            at,
            resource,
            permanent,
        } => println!(
            "  {at:>8}  FAIL    {} ({})",
            arch.resource_name(*resource),
            if *permanent { "permanent" } else { "transient" }
        ),
        FaultTimelineEvent::ResourceRecovered { at, resource } => {
            println!("  {at:>8}  RECOVER {}", arch.resource_name(*resource));
        }
        FaultTimelineEvent::DegradedSwitch {
            at,
            behavior,
            mode,
            rebound,
            reconfig_time,
        } => println!(
            "  {at:>8}  DEGRADE kept [{}] via [{}] ({}, reconfig {reconfig_time})",
            names(behavior),
            names(mode),
            if *rebound {
                "rebound"
            } else {
                "surviving mode"
            }
        ),
        FaultTimelineEvent::BehaviorLost { at, behavior } => {
            println!("  {at:>8}  LOST    [{}]", names(behavior));
        }
    }
}
