//! Partial reconfiguration: a dual-slot FPGA priced by the explorer.
//!
//! The paper's architecture model places no limit on the number of
//! reconfigurable regions — each is an interface with its own design
//! library. This example prices a two-slot FPGA for a filter→compress
//! pipeline whose all-CPU variant violates the 69 % utilization limit:
//! one slot buys a working product, the second slot buys the remaining
//! flexibility (both accelerators resident at once).
//!
//! Run with:
//!
//! ```text
//! cargo run --example partial_reconfiguration
//! ```

use flexplore::bind::{solve_mode, BindOptions, CommGraph};
use flexplore::models::dual_slot_fpga;
use flexplore::{explore, CompiledSpec, ExploreOptions, ResourceAllocation, Selection};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = dual_slot_fpga();
    let spec = &model.spec;

    println!("dual-slot FPGA pipeline (filter -> compress, 200 ns period)");
    println!(
        "  CPU-only stage costs 80+80 ns: utilization 0.8 > 0.69 -> the all-CPU\n  \
         variant is infeasible; accelerators are mandatory.\n"
    );

    let result = explore(spec, &ExploreOptions::paper())?;
    println!("Pareto front:");
    for point in &result.front {
        println!(
            "  {:>6}  f={}  [{}]",
            point.cost.to_string(),
            point.flexibility,
            point
                .implementation
                .as_ref()
                .map(|i| i.allocation.display_names(spec.architecture()))
                .unwrap_or_default()
        );
    }

    // Show the fully-accelerated mode with BOTH slots resident at once.
    let allocation = ResourceAllocation::new()
        .with_vertex(model.resources["CPU"])
        .with_vertex(model.resources["BUS"])
        .with_cluster(model.designs["FA"])
        .with_cluster(model.designs["CA"]);
    let compiled = CompiledSpec::new(spec);
    let available = allocation.available_vertices(spec.architecture());
    let comm = CommGraph::from_compiled(&compiled, &available);
    let eca = Selection::new()
        .with(model.interfaces["I_filter"], model.clusters["filter_acc"])
        .with(
            model.interfaces["I_compress"],
            model.clusters["compress_acc"],
        );
    let (mode, _) = solve_mode(&compiled, &allocation, &comm, &eca, &BindOptions::default());
    let mode = mode.expect("doubly-accelerated mode is feasible");

    println!("\ndoubly-accelerated mode (both slots resident simultaneously):");
    for (process, mapping) in mode.binding.iter() {
        let m = spec.mapping(mapping);
        println!(
            "  {:<16} -> {:<4} ({})",
            spec.problem().process_name(process),
            spec.architecture().resource_name(m.resource),
            m.latency
        );
    }
    println!("slot configurations in this mode:");
    for (device, cluster) in mode.mode.architecture.iter() {
        println!(
            "  {} holds {}",
            spec.architecture().graph().interface_name(device),
            spec.architecture().graph().cluster_name(cluster)
        );
    }
    Ok(())
}
