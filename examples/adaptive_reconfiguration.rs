//! Adaptive operation: time-variant cluster selection on one platform.
//!
//! The paper's hierarchical activation is *timed* — a system may switch
//! behaviors (and FPGA configurations) during operation. This example takes
//! the $290 Pareto point of the Set-Top box case study
//! (µP2 + FPGA designs D3/G1/U2 + bus C1) and simulates a usage timeline:
//!
//! 1. the user watches a TV station encrypted with algorithm 1,
//! 2. zaps to a station needing decryption 3 (FPGA reconfigures to D3),
//! 3. switches to a station using uncompression 2 (FPGA reconfigures to
//!    U2),
//! 4. starts a game (FPGA reconfigures to G1),
//! 5. opens the Internet browser.
//!
//! For every instant the example resolves a feasible mode on the fixed
//! allocation, prints the binding and the loaded FPGA configuration, and
//! re-verifies it against the declarative feasibility rules.
//!
//! Run with:
//!
//! ```text
//! cargo run --example adaptive_reconfiguration
//! ```

use flexplore::bind::{solve_mode, BindOptions, CommGraph};
use flexplore::{set_top_box, CompiledSpec, ResourceAllocation, Selection};

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
    println!(
        "platform: [{}] (cost {})",
        allocation.display_names(spec.architecture()),
        allocation.cost(spec.architecture())
    );

    let app = stb.interfaces["I_app"];
    let i_g = stb.interfaces["I_G"];
    let i_d = stb.interfaces["I_D"];
    let i_u = stb.interfaces["I_U"];

    // The usage timeline: (instant, description, problem selection).
    let timeline: Vec<(&str, Selection)> = vec![
        (
            "t0: TV station (decrypt 1, uncompress 1)",
            Selection::new()
                .with(app, stb.cluster("gamma_D"))
                .with(i_d, stb.cluster("gamma_D1"))
                .with(i_u, stb.cluster("gamma_U1")),
        ),
        (
            "t1: zap to station needing decrypt 3",
            Selection::new()
                .with(app, stb.cluster("gamma_D"))
                .with(i_d, stb.cluster("gamma_D3"))
                .with(i_u, stb.cluster("gamma_U1")),
        ),
        (
            "t2: station with uncompression 2",
            Selection::new()
                .with(app, stb.cluster("gamma_D"))
                .with(i_d, stb.cluster("gamma_D1"))
                .with(i_u, stb.cluster("gamma_U2")),
        ),
        (
            "t3: start a game (class 1)",
            Selection::new()
                .with(app, stb.cluster("gamma_G"))
                .with(i_g, stb.cluster("gamma_G1")),
        ),
        (
            "t4: open the Internet browser",
            Selection::new().with(app, stb.cluster("gamma_I")),
        ),
    ];

    let compiled = CompiledSpec::new(spec);
    let available = allocation.available_vertices(spec.architecture());
    let comm = CommGraph::from_compiled(&compiled, &available);
    let options = BindOptions::default();
    let mut previous_config: Option<String> = None;

    for (label, eca) in &timeline {
        let (solved, _) = solve_mode(&compiled, &allocation, &comm, eca, &options);
        let Some(mode) = solved else {
            println!("{label}\n  -> INFEASIBLE on this platform");
            continue;
        };
        // Which configuration does the FPGA hold in this mode?
        let fpga = spec
            .architecture()
            .graph()
            .interface_by_name(flexplore::Scope::Top, "FPGA")
            .expect("model has an FPGA");
        let config = mode
            .mode
            .architecture
            .get(fpga)
            .map(|c| spec.architecture().graph().cluster_name(c).to_owned());
        let reconfigured = match (&previous_config, &config) {
            (Some(prev), Some(now)) if prev != now => "  [FPGA reconfigured]",
            (None, Some(_)) => "  [FPGA configured]",
            _ => "",
        };
        println!("{label}{reconfigured}");
        for (process, mapping) in mode.binding.iter() {
            let m = spec.mapping(mapping);
            println!(
                "    {:<6} -> {:<4} ({})",
                spec.problem().process_name(process),
                spec.architecture().resource_name(m.resource),
                m.latency
            );
        }
        if let Some(cfg) = &config {
            println!("    FPGA holds {cfg}");
            previous_config = config.clone();
        }
        // Exact static schedule of the mode (the paper's future-work item):
        // one non-preemptive execution per period, critical-path ordered.
        let schedule =
            flexplore::schedule_mode(spec, eca, &mode.binding, flexplore::CommDelay::Zero)?;
        for line in schedule
            .gantt(
                |r| spec.architecture().resource_name(r).to_owned(),
                |p| spec.problem().process_name(p).to_owned(),
            )
            .lines()
        {
            println!("      {line}");
        }
        assert!(schedule.meets_periods(spec), "exact timing holds");
        // Defensive: the declarative rules agree (solver already verified).
        spec.check_binding(&mode.mode, &available, &mode.binding)?;
    }

    // A mode this platform can NOT serve: game class 2 needs an ASIC.
    let impossible = Selection::new()
        .with(app, stb.cluster("gamma_G"))
        .with(i_g, stb.cluster("gamma_G2"));
    let (solved, _) = solve_mode(&compiled, &allocation, &comm, &impossible, &options);
    println!(
        "\nt5: game class 2 -> {}",
        if solved.is_none() {
            "infeasible (needs an ASIC; buy the $360 platform)"
        } else {
            "feasible?!"
        }
    );
    Ok(())
}
