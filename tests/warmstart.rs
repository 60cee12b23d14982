//! Warm-start equivalence: an exploration warm-started from a cached
//! prior run must produce a front and deterministic counters that are
//! byte-identical to a cold run on the same (edited) specification, at
//! every thread count — warmth may only change wall-clock and the warm
//! bookkeeping fields, never results. Cache corruption degrades to a
//! cold run with a warning, never an error.

use flexplore::explore_crate::{explore_compiled_warm, CacheEntry};
use flexplore::models::{spec_from_json, spec_to_json};
use flexplore::spec::fingerprint;
use flexplore::{
    automotive_spec, baseband_spec, cloud_fpga_spec, dual_slot_fpga, explore_compiled_obs,
    set_top_box, synthetic_spec, tv_decoder, AllocationOptions, AutomotiveConfig, BasebandConfig,
    CloudFpgaConfig, CompiledSpec, ExploreCache, ExploreOptions, ExploreResult, ExploreStats,
    ObsSink, SpecificationGraph, SyntheticConfig, WarmMode,
};
use flexplore_fuzz::{generate, DomainProfile};

fn wide() -> SpecificationGraph {
    synthetic_spec(&SyntheticConfig::wide(13))
}

/// Every bundled model plus a seeded sample of every generator family —
/// the population the byte-equivalence property is stated over.
fn all_models() -> Vec<(String, SpecificationGraph)> {
    let mut models = vec![
        ("set_top_box".to_owned(), set_top_box().spec),
        ("tv_decoder".to_owned(), tv_decoder().spec),
        ("dual_slot_fpga".to_owned(), dual_slot_fpga().spec),
        (
            "synthetic-small".to_owned(),
            synthetic_spec(&SyntheticConfig::small(7)),
        ),
        ("synthetic-wide".to_owned(), wide()),
        (
            "automotive-default".to_owned(),
            automotive_spec(&AutomotiveConfig::default()),
        ),
        (
            "baseband-default".to_owned(),
            baseband_spec(&BasebandConfig::default()),
        ),
        (
            "cloud-fpga-default".to_owned(),
            cloud_fpga_spec(&CloudFpgaConfig::default()),
        ),
    ];
    for profile in DomainProfile::all() {
        for seed in 0..2 {
            models.push((format!("{profile}-seed{seed}"), generate(profile, seed)));
        }
    }
    models
}

fn threaded(threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..AllocationOptions::default()
        },
        ..ExploreOptions::paper()
    }
}

/// Bumps the `index`-th `"latency"` value in the spec's JSON form by one
/// nanosecond — a one-unit, binding-layer edit, exactly what an engineer
/// tweaking a model between watch cycles produces.
fn bump_numeric_field(spec: &SpecificationGraph, field: &str, index: usize) -> SpecificationGraph {
    try_bump_numeric_field(spec, field, index).expect("enough fields to edit")
}

/// Fallible variant: `None` when the spec lacks the field or the bumped
/// JSON no longer validates.
fn try_bump_numeric_field(
    spec: &SpecificationGraph,
    field: &str,
    index: usize,
) -> Option<SpecificationGraph> {
    let json = spec_to_json(spec).unwrap();
    let needle = format!("\"{field}\"");
    let mut at = 0;
    for _ in 0..=index {
        let rel = json[at..].find(&needle)?;
        at += rel + needle.len();
    }
    let digits_at = at + json[at..].find(|c: char| c.is_ascii_digit())?;
    let digits_end = digits_at
        + json[digits_at..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(json.len() - digits_at);
    let value: u64 = json[digits_at..digits_end].parse().ok()?;
    let edited = format!("{}{}{}", &json[..digits_at], value + 1, &json[digits_end..]);
    spec_from_json(&edited).ok()
}

/// The stats a cold run would report: warm bookkeeping zeroed.
fn cold_view(mut stats: ExploreStats) -> ExploreStats {
    stats.allocations.warm_hits = 0;
    stats.allocations.warm_invalidated = 0;
    stats.allocations.delta_units = 0;
    stats
}

fn assert_matches_cold(warm: &ExploreResult, cold: &ExploreResult, context: &str) {
    assert_eq!(
        serde_json::to_string(&warm.front).unwrap(),
        serde_json::to_string(&cold.front).unwrap(),
        "front bytes diverged: {context}"
    );
    assert_eq!(
        cold_view(warm.stats),
        cold_view(cold.stats),
        "counters diverged: {context}"
    );
}

/// Cold-explores `base`, then warm-explores `edited` from the captured
/// entry and checks the result against a cold run on `edited`, for one
/// thread count.
fn check_equivalence(
    base: &SpecificationGraph,
    edited: &SpecificationGraph,
    expected_mode: WarmMode,
    threads: usize,
) {
    let mode = check_warm_equivalence(base, edited, threads, "");
    assert_eq!(
        mode, expected_mode,
        "unexpected warm level at {threads} thread(s)"
    );
}

/// Cold-explores `base`, warm-explores `edited` from the captured entry,
/// and checks the warm result against a cold run on `edited`. Returns the
/// warm level the delta admitted.
fn check_warm_equivalence(
    base: &SpecificationGraph,
    edited: &SpecificationGraph,
    threads: usize,
    name: &str,
) -> WarmMode {
    let options = threaded(threads);
    let obs = ObsSink::disabled();
    let base_compiled = CompiledSpec::with_activation_cache(base);
    let prior = explore_compiled_warm(&base_compiled, &options, None, &obs)
        .unwrap()
        .entry;
    let edited_compiled = CompiledSpec::with_activation_cache(edited);
    let warm = explore_compiled_warm(&edited_compiled, &options, Some(&prior), &obs).unwrap();
    let cold = explore_compiled_warm(&edited_compiled, &options, None, &obs).unwrap();
    assert_eq!(cold.summary.mode, WarmMode::Cold);
    assert_matches_cold(
        &warm.result,
        &cold.result,
        &format!("{name} {} at {threads} thread(s)", warm.summary.mode),
    );
    warm.summary.mode
}

#[test]
fn every_bundled_and_generated_model_warm_explores_byte_identically() {
    // The property the whole layer rests on, stated over the full model
    // population: whatever warmth a one-field edit admits, the warm run
    // is byte-equivalent to a cold run on the edited spec at 1/4/8
    // threads. A latency edit must never fall below a replay (the
    // enumeration layer is untouched); a cost edit reseeds.
    for (name, base) in all_models() {
        for (field, floor) in [("latency", WarmMode::Replay), ("cost", WarmMode::Seeded)] {
            let Some(edited) = try_bump_numeric_field(&base, field, 0) else {
                continue;
            };
            for threads in [1, 4, 8] {
                let mode = check_warm_equivalence(&base, &edited, threads, &name);
                assert!(
                    mode <= floor,
                    "{name}: a one-{field} edit warmed at `{mode}`, expected `{floor}` or warmer"
                );
            }
        }
    }
}

#[test]
fn latency_edit_replays_byte_identically_at_every_thread_count() {
    let base = wide();
    let edited = bump_numeric_field(&base, "latency", 1);
    for threads in [1, 4, 8] {
        check_equivalence(&base, &edited, WarmMode::Replay, threads);
    }
}

#[test]
fn cost_edit_reseeds_byte_identically_at_every_thread_count() {
    let base = wide();
    let edited = bump_numeric_field(&base, "cost", 0);
    for threads in [1, 4, 8] {
        check_equivalence(&base, &edited, WarmMode::Seeded, threads);
    }
}

#[test]
fn unchanged_spec_is_an_exact_replay() {
    let base = wide();
    check_equivalence(&base, &base, WarmMode::Exact, 1);
}

#[test]
fn warm_obs_counters_match_cold_obs_counters() {
    // The obs counter section — what `BENCH_*.json` and the CI
    // determinism diffs consume — must not see warm bookkeeping.
    let base = wide();
    let edited = bump_numeric_field(&base, "latency", 1);
    let options = threaded(1);

    let cold_obs = ObsSink::enabled();
    explore_compiled_obs(
        &CompiledSpec::with_activation_cache(&edited),
        &options,
        &cold_obs,
    )
    .unwrap();
    let cold_report = cold_obs.report("explore", "synthetic-wide", 1);

    let warm_obs = ObsSink::enabled();
    let base_compiled = CompiledSpec::with_activation_cache(&base);
    let prior = explore_compiled_warm(&base_compiled, &options, None, &ObsSink::disabled())
        .unwrap()
        .entry;
    let edited_compiled = CompiledSpec::with_activation_cache(&edited);
    let warm = explore_compiled_warm(&edited_compiled, &options, Some(&prior), &warm_obs).unwrap();
    assert_eq!(warm.summary.mode, WarmMode::Replay);
    let warm_report = warm_obs.report("explore", "synthetic-wide", 1);

    assert_eq!(
        warm_report.counters_json().unwrap(),
        cold_report.counters_json().unwrap()
    );
}

#[test]
fn disk_cache_warms_across_processes_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("flexplore-warmstart-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ExploreCache::new(&dir);
    let options = threaded(1);
    let obs = ObsSink::disabled();

    let base = wide();
    let first = cache.explore(&base, &options, &obs).unwrap();
    assert_eq!(first.summary.mode, WarmMode::Cold);

    // One latency tweak: the persisted entry admits a replay.
    let edited = bump_numeric_field(&base, "latency", 1);
    let warm = cache.explore(&edited, &options, &obs).unwrap();
    assert_eq!(warm.summary.mode, WarmMode::Replay);
    let cold = explore_compiled_obs(
        &CompiledSpec::with_activation_cache(&edited),
        &options,
        &obs,
    )
    .unwrap();
    assert_matches_cold(&warm.result, &cold, "disk replay");
    assert_eq!(
        warm.summary.fingerprint,
        fingerprint(&CompiledSpec::new(&edited))
    );

    // Corrupt every cache file: the next run degrades to cold with a
    // warning and heals the cache.
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), "{ not json").unwrap();
    }
    let degraded = cache.explore(&edited, &options, &obs).unwrap();
    assert_eq!(degraded.summary.mode, WarmMode::Cold);
    assert!(
        degraded
            .summary
            .warnings
            .iter()
            .any(|w| w.contains("cache")),
        "corruption must be reported: {:?}",
        degraded.summary.warnings
    );
    assert_matches_cold(&degraded.result, &cold, "degraded rerun");
    let healed = cache.explore(&edited, &options, &obs).unwrap();
    assert_eq!(healed.summary.mode, WarmMode::Exact);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_runs_a_cost_edit_seeded() {
    // A cost edit changes the enumeration layer: the persisted entry
    // admits only a re-walk of the lattice, reusing the bind outcomes the
    // edit left valid. The front and the obs counter section must match a
    // cold run on the edited spec byte for byte.
    let dir =
        std::env::temp_dir().join(format!("flexplore-warmstart-seeded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ExploreCache::new(&dir);
    let options = threaded(1);

    let base = wide();
    let first = cache
        .explore(&base, &options, &ObsSink::disabled())
        .unwrap();
    assert_eq!(first.summary.mode, WarmMode::Cold);

    let edited = bump_numeric_field(&base, "cost", 0);
    let warm_obs = ObsSink::enabled();
    let warm = cache.explore(&edited, &options, &warm_obs).unwrap();
    assert_eq!(warm.summary.mode, WarmMode::Seeded);
    assert!(
        warm.summary.warnings.is_empty(),
        "{:?}",
        warm.summary.warnings
    );
    let cold_obs = ObsSink::enabled();
    let cold = explore_compiled_obs(
        &CompiledSpec::with_activation_cache(&edited),
        &options,
        &cold_obs,
    )
    .unwrap();
    assert_matches_cold(&warm.result, &cold, "disk seeded run");
    assert_eq!(
        warm_obs
            .report("explore", "synthetic-wide", 1)
            .counters_json()
            .unwrap(),
        cold_obs
            .report("explore", "synthetic-wide", 1)
            .counters_json()
            .unwrap()
    );

    let again = cache
        .explore(&edited, &options, &ObsSink::disabled())
        .unwrap();
    assert_eq!(again.summary.mode, WarmMode::Exact);
    assert_matches_cold(&again.result, &cold, "exact after the seeded run");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent watchers sharing one cache directory: every store replaces
/// the file in one step, so no reader ever sees an empty or partial entry
/// (which would cost it a warning and a colder re-explore).
#[test]
fn concurrent_writers_never_leave_torn_cache_files() {
    let dir = std::env::temp_dir().join(format!(
        "flexplore-warmstart-concurrent-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = set_top_box().spec;
    let options = threaded(1);
    // All three writers start together, so their stores overlap.
    let start = std::sync::Barrier::new(3);
    let warnings: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let cache = ExploreCache::new(&dir);
                    let mut warnings = Vec::new();
                    start.wait();
                    for _ in 0..150 {
                        let outcome = cache
                            .explore(&spec, &options, &ObsSink::disabled())
                            .unwrap();
                        warnings.extend(outcome.summary.warnings);
                    }
                    warnings
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("cache worker"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warnings.is_empty(), "torn cache files: {warnings:?}");
}

#[test]
fn prior_entry_round_trips_through_the_facade_types() {
    // The facade re-exports are enough to drive the whole warm API.
    let base = wide();
    let options = ExploreOptions::paper();
    let compiled = CompiledSpec::with_activation_cache(&base);
    let outcome = explore_compiled_warm(&compiled, &options, None, &ObsSink::disabled()).unwrap();
    let entry: CacheEntry = outcome.entry;
    assert!(!entry.candidates.is_empty());
    assert_eq!(entry.front.objectives(), outcome.result.front.objectives());
}
