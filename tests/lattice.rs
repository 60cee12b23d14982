//! Branch-and-bound lattice enumeration vs. the flat-scan oracle of
//! `flexplore-fuzz`.
//!
//! The bound-driven search must keep **exactly** the candidate list of the
//! exhaustive flat scan — same allocations, same costs, same estimates,
//! same order — while visiting strictly fewer decision nodes, and it must
//! be byte-identical to itself at any `--threads` setting (front, counters
//! and observability report alike).

use flexplore::explore_crate::possible_resource_allocations;
use flexplore::models::dual_slot_fpga;
use flexplore::{
    explore_compiled_obs, set_top_box, synthetic_spec, AllocationOptions, CompiledSpec,
    ExploreOptions, ObsSink, SpecificationGraph, SyntheticConfig,
};
use flexplore_fuzz::{flat_explore, flat_scan};

/// Bundled models small enough for the 2^units flat scan to finish fast.
fn oracle_models() -> Vec<(&'static str, SpecificationGraph)> {
    vec![
        ("set-top-box", set_top_box().spec),
        ("tv-decoder", flexplore::tv_decoder().spec),
        ("dual-slot-fpga", dual_slot_fpga().spec),
        (
            "synthetic-small",
            synthetic_spec(&SyntheticConfig::small(7)),
        ),
        (
            "synthetic-medium",
            synthetic_spec(&SyntheticConfig::medium(11)),
        ),
    ]
}

/// The flat scan and the lattice search keep the same candidate list —
/// byte-for-byte, via the serialized form — and agree on the
/// search-independent counters, at every thread count.
#[test]
fn bnb_keeps_exactly_the_flat_scan_candidates() {
    for (name, spec) in oracle_models() {
        let compiled = CompiledSpec::new(&spec);
        let (flat_kept, flat_stats) = flat_scan(&compiled, &AllocationOptions::default()).unwrap();
        let flat_candidates: Vec<_> = flat_kept.into_iter().map(|(_, c)| c).collect();
        let flat_json = serde_json::to_string(&flat_candidates).unwrap();
        for threads in [1, 2, 4] {
            let options = AllocationOptions {
                threads,
                ..AllocationOptions::default()
            };
            let (bnb_candidates, bnb_stats) =
                possible_resource_allocations(&compiled, &options, &ObsSink::disabled()).unwrap();
            let bnb_json = serde_json::to_string(&bnb_candidates).unwrap();
            assert_eq!(
                flat_json, bnb_json,
                "{name}: candidates diverged at {threads} threads"
            );
            assert_eq!(flat_stats.units, bnb_stats.units, "{name}");
            assert_eq!(flat_stats.subsets, bnb_stats.subsets, "{name}");
            assert_eq!(flat_stats.kept, bnb_stats.kept, "{name}");
            assert_eq!(
                bnb_stats.pruned_structurally + bnb_stats.infeasible + bnb_stats.kept,
                bnb_stats.subsets,
                "{name}: sum invariant broken at {threads} threads"
            );
            // A DFS over the subset lattice has at most 2^(n+1)-1 decision
            // nodes; on tiny models with few pruning opportunities it may
            // exceed the flat scan's 2^n, but never the structural bound.
            assert!(
                bnb_stats.nodes_visited < 2 * bnb_stats.subsets,
                "{name}: lattice search exceeded the structural node bound"
            );
        }
    }
}

/// Word-boundary regression: models with exactly 63, 64 and 65 allocatable
/// units — straddling the one-word mask boundary where `1u64 << 64` or
/// `u64::MAX >> (64 - n)` style shifts silently wrap or panic — explore
/// under branch-and-bound with non-empty, thread-invariant fronts.
#[test]
fn word_boundary_unit_counts_explore_cleanly() {
    for (dedicated, expected_units) in [(61usize, 63usize), (62, 64), (63, 65)] {
        let config = SyntheticConfig {
            seed: 5,
            applications: 1,
            interfaces_per_app: 1,
            alternatives: 2,
            processors: 1,
            asics: 0,
            fpga_designs: 0,
            constrained_fraction: 0.0,
            dedicated_tasks: dedicated,
        };
        let spec = synthetic_spec(&config);
        assert_eq!(
            flexplore::explore_crate::allocatable_units(&spec).len(),
            expected_units
        );
        let mut fronts = Vec::new();
        for threads in [1usize, 4] {
            let options = ExploreOptions {
                allocation: AllocationOptions {
                    threads,
                    ..AllocationOptions::default()
                },
                ..ExploreOptions::paper()
            }
            .with_threads(threads);
            let result = flexplore::explore(&spec, &options).unwrap();
            assert!(
                !result.front.is_empty(),
                "{expected_units} units: empty front"
            );
            fronts.push(serde_json::to_string(&result.front).unwrap());
        }
        assert_eq!(
            fronts[0], fronts[1],
            "{expected_units} units: fronts diverged across thread counts"
        );
    }
}

/// The ISSUE acceptance bound: on the paper's Set-Top box case study the
/// lattice search expands fewer than half of the flat scan's subsets while
/// reproducing the published Pareto front exactly.
#[test]
fn set_top_box_visits_under_half_of_the_lattice() {
    let stb = set_top_box();
    let flat = flat_explore(&stb.spec, &ExploreOptions::paper()).unwrap();
    let (_, flat_stats) =
        flat_scan(&CompiledSpec::new(&stb.spec), &AllocationOptions::default()).unwrap();
    let bnb = flexplore::explore(&stb.spec, &ExploreOptions::paper()).unwrap();
    assert_eq!(
        serde_json::to_string(&flat).unwrap(),
        serde_json::to_string(&bnb.front).unwrap(),
        "the flat-scan reference and explore must produce a byte-identical front"
    );
    assert!(
        bnb.stats.allocations.nodes_visited < flat_stats.subsets / 2,
        "expected < {} nodes, visited {}",
        flat_stats.subsets / 2,
        bnb.stats.allocations.nodes_visited
    );
    assert!(bnb.stats.allocations.subtrees_pruned > 0);
}

/// Full-pipeline thread invariance, including the 24-unit synthetic-large
/// model (infeasible under the flat scan) and the 102-unit synthetic-wide
/// model (past the one-word mask boundary): front, search counters and the
/// aggregated observability counters are byte-identical at 1/2/4 threads.
#[test]
fn bnb_front_counters_and_obs_are_thread_invariant() {
    let mut models = oracle_models();
    models.push((
        "synthetic-large",
        synthetic_spec(&SyntheticConfig::large(11)),
    ));
    models.push(("synthetic-wide", synthetic_spec(&SyntheticConfig::wide(13))));
    for (name, spec) in models {
        let mut baseline: Option<(String, String)> = None;
        for threads in [1usize, 2, 4, 8] {
            let options = ExploreOptions {
                allocation: AllocationOptions {
                    threads,
                    ..AllocationOptions::default()
                },
                ..ExploreOptions::paper()
            }
            .with_threads(threads);
            let sink = ObsSink::enabled();
            let result =
                explore_compiled_obs(&CompiledSpec::with_activation_cache(&spec), &options, &sink)
                    .unwrap();
            let report = sink.report("lattice-test", name, threads);
            let fingerprint = (
                format!(
                    "{}|{:?}",
                    serde_json::to_string(&result.front).unwrap(),
                    result.stats.allocations
                ),
                report.counters_json().unwrap(),
            );
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(expected) => {
                    assert_eq!(
                        expected.0, fingerprint.0,
                        "{name}: front/stats diverged at {threads} threads"
                    );
                    assert_eq!(
                        expected.1, fingerprint.1,
                        "{name}: obs counters diverged at {threads} threads"
                    );
                }
            }
        }
    }
}
