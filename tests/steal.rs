//! Work-stealing scheduler and sharded-memo property suite.
//!
//! The deterministic work-stealing fan-out (DESIGN.md §16) promises that
//! scheduling — which worker runs which subtree, in which interleaving,
//! woken in whatever order — never changes a byte of the exploration
//! output. These tests hammer that promise from three directions: the
//! sharded estimate memo must linearize to the sequential memo's
//! contents under concurrent use, cross-worker memo hits must never
//! change emitted estimates or any deterministic counter, and the full
//! pipeline must be byte-identical across thread counts on every bundled
//! and generated model, including under the `FLEXPLORE_TEST_STEAL_JITTER`
//! wake-order shuffle the CI scheduler-stress job uses.

use flexplore::explore_crate::{possible_resource_allocations, ShardedMemo};
use flexplore::models::{
    automotive_spec, baseband_spec, cloud_fpga_spec, dual_slot_fpga, AutomotiveConfig,
    BasebandConfig, CloudFpgaConfig,
};
use flexplore::{
    explore_compiled_obs, set_top_box, synthetic_spec, tv_decoder, AllocationOptions, CompiledSpec,
    ExploreOptions, ObsSink, SpecificationGraph, SyntheticConfig, UnitMask,
};
use std::collections::HashMap;

/// Every bundled model plus one seeded instance of each generator family
/// — the full zoo the steal-order invariance must hold on.
fn all_models() -> Vec<(&'static str, SpecificationGraph)> {
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
        ("automotive", automotive_spec(&AutomotiveConfig::small(5))),
        ("baseband", baseband_spec(&BasebandConfig::small(5))),
        ("cloud-fpga", cloud_fpga_spec(&CloudFpgaConfig::small(5))),
    ]
}

fn threaded(threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..AllocationOptions::default()
        },
        ..ExploreOptions::paper()
    }
    .with_threads(threads)
}

/// Front + deterministic stats + deterministic obs counters, as one
/// comparable byte string.
fn fingerprint(name: &str, spec: &SpecificationGraph, threads: usize) -> String {
    let sink = ObsSink::enabled();
    let result = explore_compiled_obs(
        &CompiledSpec::with_activation_cache(spec),
        &threaded(threads),
        &sink,
    )
    .unwrap();
    let report = sink.report("steal-test", name, threads);
    format!(
        "{}|{:?}|{}",
        serde_json::to_string(&result.front).unwrap(),
        result.stats.allocations,
        report.counters_json().unwrap()
    )
}

fn mask_of(bits: &[usize]) -> UnitMask {
    let mut m = UnitMask::empty();
    for &b in bits {
        m.set(b);
    }
    m
}

/// Concurrent insert/get traffic on the sharded memo linearizes to the
/// contents a sequential reference memo computes: same keys, same values,
/// regardless of which of 8 racing threads inserted first.
#[test]
fn sharded_memo_linearizes_to_the_sequential_memo() {
    // The cached "estimate" is a pure function of the key, exactly like
    // the real flexibility estimate.
    let value_of = |k: usize| -> u64 { (k as u64).wrapping_mul(0x9e3779b97f4a7c15) };
    let keys: Vec<UnitMask> = (0..200)
        .map(|k| mask_of(&[k % 64, 64 + (k % 64), 128 + (k % 32), 192 + (k % 16)]))
        .collect();

    let mut sequential: HashMap<UnitMask, u64> = HashMap::new();
    for (k, key) in keys.iter().enumerate() {
        sequential.entry(*key).or_insert_with(|| value_of(k % 16));
    }

    let shared: ShardedMemo<u64> = ShardedMemo::new();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let shared = &shared;
            let keys = &keys;
            scope.spawn(move || {
                // Every thread walks the keys from a different offset, so
                // insertion order differs per thread — contents must not.
                for i in 0..keys.len() {
                    let k = (i + t * 25) % keys.len();
                    if shared.get(&keys[k]).is_none() {
                        shared.insert_if_absent(keys[k], value_of(k % 16));
                    }
                }
            });
        }
    });
    assert_eq!(shared.snapshot(), sequential);
    assert_eq!(shared.len(), sequential.len());
}

/// A cross-worker memo hit returns byte-identical estimates: the
/// candidate list (estimates included) and every deterministic counter —
/// `memo_cross_hits` among them — agree between a sequential scan and a
/// heavily oversubscribed one.
#[test]
fn cross_worker_hits_never_change_emitted_estimates() {
    let stb = set_top_box().spec;
    let compiled = CompiledSpec::new(&stb);
    let options = |threads| AllocationOptions {
        threads,
        ..AllocationOptions::default()
    };
    let (seq_candidates, seq_stats) =
        possible_resource_allocations(&compiled, &options(1), &ObsSink::disabled()).unwrap();
    assert!(
        seq_stats.memo_cross_hits > 0,
        "set-top-box must exercise cross-subtree memo reuse, stats: {seq_stats:?}"
    );
    for threads in [2, 8] {
        let (par_candidates, par_stats) =
            possible_resource_allocations(&compiled, &options(threads), &ObsSink::disabled())
                .unwrap();
        assert_eq!(
            serde_json::to_string(&seq_candidates).unwrap(),
            serde_json::to_string(&par_candidates).unwrap(),
            "candidates (estimates included) diverged at {threads} threads"
        );
        assert_eq!(
            seq_stats, par_stats,
            "allocation stats diverged at {threads} threads"
        );
    }
}

/// The estimate-memo counters are read off the walk's fixed
/// decomposition: phase-1 lookups minus phase-1 keys, and phase-2 lookups
/// minus the keys phase 2 added. Their values on the model zoo are pinned
/// at every thread count.
#[test]
fn memo_counters_are_pinned_on_every_model() {
    let pinned: [(&str, u64, u64); 10] = [
        ("set-top-box", 0, 2906),
        ("tv-decoder", 3, 10),
        ("dual-slot-fpga", 3, 0),
        ("synthetic-small", 5, 0),
        ("synthetic-medium", 0, 233),
        ("synthetic-large", 0, 40),
        ("synthetic-wide", 0, 114),
        ("automotive", 2, 0),
        ("baseband", 1, 0),
        ("cloud-fpga", 3, 0),
    ];
    for ((name, spec), (pinned_name, memo_hits, cross_hits)) in all_models().iter().zip(pinned) {
        assert_eq!(*name, pinned_name);
        let compiled = CompiledSpec::new(spec);
        for threads in [1, 3] {
            let options = AllocationOptions {
                threads,
                ..AllocationOptions::default()
            };
            let (_, stats) =
                possible_resource_allocations(&compiled, &options, &ObsSink::disabled()).unwrap();
            assert_eq!(
                (stats.estimate_memo_hits, stats.memo_cross_hits),
                (memo_hits, cross_hits),
                "{name} at {threads} threads"
            );
        }
    }
}

/// Full-pipeline steal-order invariance: front, search counters and obs
/// counters are byte-identical at 1/2/4/8 threads on every bundled and
/// generated model.
#[test]
fn steal_order_is_invariant_on_every_model() {
    for (name, spec) in all_models() {
        let baseline = fingerprint(name, &spec, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                baseline,
                fingerprint(name, &spec, threads),
                "{name}: output diverged at {threads} threads"
            );
        }
    }
}

/// Worker wake order must not matter: under several
/// `FLEXPLORE_TEST_STEAL_JITTER` seeds (each delaying every worker's
/// first pull by a different pseudo-random amount, maximizing steal
/// shuffle), the oversubscribed run still reproduces the unjittered
/// sequential bytes.
#[test]
fn wake_order_jitter_never_changes_output() {
    let models = [
        ("set-top-box", set_top_box().spec),
        ("synthetic-wide", synthetic_spec(&SyntheticConfig::wide(13))),
    ];
    let baselines: Vec<String> = models
        .iter()
        .map(|(name, spec)| fingerprint(name, spec, 1))
        .collect();
    for seed in ["7", "1234"] {
        // Safe even though tests share the process environment: the knob
        // only perturbs worker wake timing, never output — which is the
        // very property under test.
        std::env::set_var("FLEXPLORE_TEST_STEAL_JITTER", seed);
        for ((name, spec), baseline) in models.iter().zip(&baselines) {
            assert_eq!(
                baseline,
                &fingerprint(name, spec, 8),
                "{name}: output diverged under jitter seed {seed}"
            );
        }
        std::env::remove_var("FLEXPLORE_TEST_STEAL_JITTER");
    }
}
