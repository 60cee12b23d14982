//! Tier-1 fuzzing regression tests: a bounded smoke campaign per domain
//! profile, byte-reproducibility of reports, the JSON round-trip contract
//! for every bundled and generated model, and the replay of the committed
//! repro corpus (`tests/corpus/`) under every oracle and against the
//! flat-scan reference.

use flexplore::models::{spec_from_json, spec_to_json};
use flexplore::{
    automotive_spec, baseband_spec, cloud_fpga_spec, dual_slot_fpga, explore, set_top_box,
    synthetic_spec, tv_decoder, AutomotiveConfig, BasebandConfig, CloudFpgaConfig, CompiledSpec,
    ExploreOptions, SpecificationGraph, SyntheticConfig,
};
use flexplore_fuzz::{
    flat_explore, generate, replay_dir, run_fuzz, DomainProfile, FuzzOptions, ReproCase,
};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Every bundled model plus a seeded sample of every generator family.
fn all_models() -> Vec<(String, SpecificationGraph)> {
    let mut models = vec![
        ("set_top_box".to_owned(), set_top_box().spec),
        ("tv_decoder".to_owned(), tv_decoder().spec),
        ("dual_slot_fpga".to_owned(), dual_slot_fpga().spec),
        (
            "synthetic-small".to_owned(),
            synthetic_spec(&SyntheticConfig::small(7)),
        ),
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
        for seed in 0..3 {
            models.push((format!("{profile}-seed{seed}"), generate(profile, seed)));
        }
    }
    models
}

#[test]
fn fuzz_smoke_every_profile_is_clean() {
    let report = run_fuzz(&FuzzOptions {
        seed: 42,
        iterations: 4,
        profiles: DomainProfile::all().to_vec(),
        threads: 1,
        corpus_dir: None,
    });
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.specs, 20);
    assert_eq!(report.oracle_checks, 160);
}

#[test]
fn fuzz_reports_are_byte_reproducible_across_runs_and_threads() {
    let mut options = FuzzOptions {
        seed: 7,
        iterations: 2,
        profiles: DomainProfile::all().to_vec(),
        threads: 1,
        corpus_dir: None,
    };
    let first = run_fuzz(&options).render_text();
    let second = run_fuzz(&options).render_text();
    assert_eq!(
        first, second,
        "equal options must reproduce byte-identically"
    );
    options.threads = 4;
    let threaded = run_fuzz(&options).render_text();
    assert_eq!(first, threaded, "thread count must not change the report");
}

#[test]
fn every_model_survives_the_json_round_trip_with_an_identical_front() {
    for (name, spec) in all_models() {
        let json = spec_to_json(&spec).unwrap_or_else(|e| panic!("{name}: serialize: {e}"));
        let reloaded = spec_from_json(&json).unwrap_or_else(|e| panic!("{name}: deserialize: {e}"));
        CompiledSpec::try_new(&reloaded).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let before = explore(&spec, &ExploreOptions::paper())
            .unwrap_or_else(|e| panic!("{name}: explore original: {e}"));
        let after = explore(&reloaded, &ExploreOptions::paper())
            .unwrap_or_else(|e| panic!("{name}: explore reloaded: {e}"));
        assert_eq!(
            before.front.objectives(),
            after.front.objectives(),
            "{name}: front changed across the JSON round-trip"
        );
    }
}

#[test]
fn corpus_replays_clean_under_every_oracle() {
    let report = replay_dir(&corpus_dir()).expect("the committed corpus parses");
    assert!(
        !report.cases.is_empty(),
        "tests/corpus/ ships seeded repro cases; replay found none"
    );
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn corpus_specs_explore_identically_under_both_enumerators() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus/ exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "tests/corpus/ ships seeded repro cases");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let case = ReproCase::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = spec_from_json(&case.spec_json).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The flat scan with the sequential bind loop is the reference.
        let options = ExploreOptions::paper();
        let a = flat_explore(&spec, &options).unwrap_or_else(|e| panic!("{name}: flat: {e}"));
        let b = explore(&spec, &options).unwrap_or_else(|e| panic!("{name}: bnb: {e}"));
        assert_eq!(
            a.objectives(),
            b.front.objectives(),
            "{name}: enumerators disagree"
        );
    }
}
