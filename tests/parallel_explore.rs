//! Parallel EXPLORE determinism: for every bundled model and every
//! option variant, the speculative-chunk engine must reproduce the
//! sequential front and pruning statistics **exactly** — only the
//! speculation accounting (`chunks_speculated`, `speculative_waste`)
//! may depend on the thread count, because it measures scheduling
//! overhead, not search decisions.

use flexplore::{
    dual_slot_fpga, explore, explore_resilient, explore_upgrades, explore_weighted,
    max_flexibility_under_budget, min_cost_for_flexibility, set_top_box, synthetic_spec,
    tv_decoder, AllocationOptions, CompiledSpec, ExploreOptions, ExploreStats, FlexibilityWeights,
    ObsSink, ResourceAllocation, SpecificationGraph, SyntheticConfig,
};

/// The base options with `threads` applied to both the candidate scan and
/// the EXPLORE driver.
fn threaded(base: &ExploreOptions, threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..base.allocation
        },
        ..base.clone()
    }
    .with_threads(threads)
}

/// Every counter that reflects a search decision must match; the two
/// speculation counters are excluded by design.
fn assert_pruning_stats_match(sequential: &ExploreStats, parallel: &ExploreStats) {
    assert_eq!(sequential.vertex_set_size, parallel.vertex_set_size);
    assert_eq!(sequential.allocations, parallel.allocations);
    assert_eq!(sequential.estimate_skipped, parallel.estimate_skipped);
    assert_eq!(sequential.implement_attempts, parallel.implement_attempts);
    assert_eq!(sequential.feasible, parallel.feasible);
    assert_eq!(sequential.pareto_points, parallel.pareto_points);
}

/// The seven bundled models the CLI knows by name.
fn bundled_models() -> Vec<(&'static str, SpecificationGraph)> {
    vec![
        ("set-top-box", set_top_box().spec),
        ("tv-decoder", tv_decoder().spec),
        ("dual-slot-fpga", dual_slot_fpga().spec),
        (
            "synthetic-small",
            synthetic_spec(&SyntheticConfig::small(7)),
        ),
        (
            "synthetic-medium",
            synthetic_spec(&SyntheticConfig::medium(11)),
        ),
        (
            "synthetic-large",
            synthetic_spec(&SyntheticConfig::large(11)),
        ),
        ("synthetic-wide", synthetic_spec(&SyntheticConfig::wide(13))),
    ]
}

fn option_variants() -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("paper", ExploreOptions::paper()),
        (
            "no flexibility pruning",
            ExploreOptions {
                flexibility_pruning: false,
                ..ExploreOptions::paper()
            },
        ),
        (
            "no structural pruning",
            ExploreOptions {
                allocation: AllocationOptions {
                    prune_useless_buses: false,
                    prune_unusable: false,
                    ..AllocationOptions::default()
                },
                ..ExploreOptions::paper()
            },
        ),
        ("exhaustive", ExploreOptions::exhaustive()),
    ]
}

#[test]
fn tv_decoder_matches_for_every_option_variant_and_thread_count() {
    let tv = tv_decoder();
    for (label, options) in option_variants() {
        let sequential = explore(&tv.spec, &options).unwrap();
        for threads in 1..=8 {
            let parallel = explore(&tv.spec, &threaded(&options, threads)).unwrap();
            assert!(
                sequential.front.same_objectives(&parallel.front),
                "front diverged: {label}, {threads} threads"
            );
            assert_pruning_stats_match(&sequential.stats, &parallel.stats);
        }
    }
}

#[test]
fn set_top_box_front_and_stats_are_thread_invariant() {
    let stb = set_top_box();
    let sequential = explore(&stb.spec, &ExploreOptions::paper()).unwrap();
    for threads in [2, 5, 8] {
        let parallel = explore(&stb.spec, &threaded(&ExploreOptions::paper(), threads)).unwrap();
        assert!(sequential.front.same_objectives(&parallel.front));
        assert_pruning_stats_match(&sequential.stats, &parallel.stats);
        // The engine really speculated (the case study has enough
        // candidates to fill chunks) and still changed nothing.
        assert!(parallel.stats.chunks_speculated > 0);
        // Even the realizing allocations match, point by point.
        for (s, p) in sequential.front.iter().zip(parallel.front.iter()) {
            assert_eq!(
                s.implementation.as_ref().unwrap().allocation,
                p.implementation.as_ref().unwrap().allocation
            );
        }
    }
}

#[test]
fn seeded_synthetic_models_are_thread_invariant() {
    for seed in [1, 7, 23] {
        let spec = synthetic_spec(&SyntheticConfig::medium(seed));
        let sequential = explore(&spec, &ExploreOptions::paper()).unwrap();
        for threads in [2, 8] {
            let parallel = explore(&spec, &threaded(&ExploreOptions::paper(), threads)).unwrap();
            assert!(
                sequential.front.same_objectives(&parallel.front),
                "front diverged: seed {seed}, {threads} threads"
            );
            assert_pruning_stats_match(&sequential.stats, &parallel.stats);
        }
    }
}

#[test]
fn weighted_exploration_is_thread_invariant() {
    let stb = set_top_box();
    let weights = FlexibilityWeights::new();
    let sequential = explore_weighted(&stb.spec, &weights, &ExploreOptions::paper()).unwrap();
    for threads in [2, 8] {
        let parallel = explore_weighted(
            &stb.spec,
            &weights,
            &threaded(&ExploreOptions::paper(), threads),
        )
        .unwrap();
        assert_eq!(sequential.implement_attempts, parallel.implement_attempts);
        assert_eq!(sequential.front.len(), parallel.front.len());
        for (s, p) in sequential.front.iter().zip(parallel.front.iter()) {
            assert_eq!(s.cost, p.cost);
            assert!((s.weighted_flexibility - p.weighted_flexibility).abs() < 1e-12);
            assert_eq!(s.implementation.allocation, p.implementation.allocation);
        }
    }
}

#[test]
fn one_thread_never_speculates() {
    // At one thread the bind/merge loop takes one bound-surviving
    // candidate at a time: no chunk is speculative and no result is
    // discarded, for both the integer and the weighted bound.
    let one = threaded(&ExploreOptions::paper(), 1);
    let weights = FlexibilityWeights::new();
    for (name, spec) in &bundled_models() {
        let plain = explore(spec, &one).unwrap();
        assert_eq!(plain.stats.chunks_speculated, 0, "{name}: explore");
        assert_eq!(plain.stats.speculative_waste, 0, "{name}: explore");
        let weighted = explore_weighted(spec, &weights, &one).unwrap();
        assert_eq!(weighted.chunks_speculated, 0, "{name}: explore_weighted");
        assert_eq!(weighted.speculative_waste, 0, "{name}: explore_weighted");
    }
    // The same loop does speculate once it has more than one worker.
    let stb = set_top_box().spec;
    let four = threaded(&ExploreOptions::paper(), 4);
    assert!(explore(&stb, &four).unwrap().stats.chunks_speculated > 0);
    assert!(
        explore_weighted(&stb, &weights, &four)
            .unwrap()
            .chunks_speculated
            > 0
    );
}

#[test]
fn resilient_exploration_is_thread_invariant() {
    let tv = tv_decoder();
    let compiled = CompiledSpec::with_activation_cache(&tv.spec);
    let resilient = |options: &ExploreOptions| {
        explore_resilient(&compiled, 1, options, &ObsSink::disabled()).unwrap()
    };
    let sequential = resilient(&ExploreOptions::paper());
    assert!(!sequential.is_empty());
    for threads in [2, 4, 8] {
        let parallel = resilient(&threaded(&ExploreOptions::paper(), threads));
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(
                (s.cost, s.flexibility, s.resilience),
                (p.cost, p.flexibility, p.resilience)
            );
            assert_eq!(s.implementation.allocation, p.implementation.allocation);
        }
    }
}

/// Every exploration that runs on the shared bind loop agrees with
/// `explore` on every bundled model, at 1 and 4 threads: the two design
/// queries read back each front point, upgrades from an empty base are
/// `explore` itself, and the weighted and resilient fronts do not depend
/// on the thread count.
#[test]
fn shared_bind_loop_answers_agree_on_every_bundled_model() {
    let weights = FlexibilityWeights::new();
    for (name, spec) in &bundled_models() {
        let compiled = CompiledSpec::with_activation_cache(spec);
        let mut weighted = Vec::new();
        let mut resilient = Vec::new();
        for threads in [1, 4] {
            let options = threaded(&ExploreOptions::paper(), threads);
            let explored = explore(spec, &options).unwrap();
            for point in &explored.front {
                let objectives = (point.cost, point.flexibility);
                let cheapest = min_cost_for_flexibility(spec, point.flexibility, &options)
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    (cheapest.cost, cheapest.flexibility),
                    objectives,
                    "{name}: min-cost query at {threads} threads"
                );
                let best = max_flexibility_under_budget(spec, point.cost, &options)
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    (best.cost, best.flexibility),
                    objectives,
                    "{name}: budget query at {threads} threads"
                );
            }
            let upgrades = explore_upgrades(spec, &ResourceAllocation::new(), &options).unwrap();
            assert_eq!(
                serde_json::to_string(&upgrades.front).unwrap(),
                serde_json::to_string(&explored.front).unwrap(),
                "{name}: upgrades from nothing at {threads} threads"
            );
            assert_eq!(upgrades.stats, explored.stats, "{name}: {threads} threads");
            let front = explore_weighted(spec, &weights, &options).unwrap().front;
            weighted.push(
                front
                    .into_iter()
                    .map(|p| {
                        let value = p.weighted_flexibility.to_bits();
                        (p.cost, value, p.implementation.allocation)
                    })
                    .collect::<Vec<_>>(),
            );
            let front = explore_resilient(&compiled, 1, &options, &ObsSink::disabled()).unwrap();
            resilient.push(
                front
                    .into_iter()
                    .map(|p| {
                        let objectives = (p.cost, p.flexibility, p.resilience);
                        (objectives, p.implementation.allocation)
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(weighted[0], weighted[1], "{name}: weighted front");
        assert_eq!(resilient[0], resilient[1], "{name}: resilient front");
    }
}
