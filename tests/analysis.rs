//! Integration tests of the static lattice analysis (DESIGN.md §15):
//! fact extraction at the subset-mask word boundaries and the full
//! 256-unit capacity, the analyzer over the bundled and generated model
//! families, analysis-on/off equivalence of the branch-and-bound
//! enumeration, the new pruning counters, and the doc-sync contract
//! tying every emitted diagnostic code to a DESIGN.md catalog row.

use flexplore::explore_crate::possible_resource_allocations;
use flexplore::lint::compute_facts;
use flexplore::{
    analyze_spec, explore_compiled_obs, lint_spec, set_top_box, synthetic_spec, AllocationOptions,
    CompiledSpec, ExploreOptions, ObsSink, SpecificationGraph, SyntheticConfig,
};
use flexplore_fuzz::{generate, DomainProfile};
use std::path::Path;

/// A one-application synthetic model with `dedicated` dedicated tasks:
/// `dedicated + 2` allocatable units (the shared processor, one bus, and
/// one dedicated DSP per task), each DSP the sole cover of its task.
fn dedicated_spec(dedicated: usize) -> SpecificationGraph {
    synthetic_spec(&SyntheticConfig {
        seed: 5,
        applications: 1,
        interfaces_per_app: 1,
        alternatives: 2,
        processors: 1,
        asics: 0,
        fpga_designs: 0,
        constrained_fraction: 0.0,
        dedicated_tasks: dedicated,
    })
}

fn bnb_options(analysis: bool, threads: usize) -> AllocationOptions {
    AllocationOptions {
        analysis,
        threads,
        max_units: 256,
        ..AllocationOptions::default()
    }
}

/// Enumerates with the analysis on and off and asserts the candidate
/// lists (order, costs, estimates) are byte-identical; returns the
/// (on, off) stats for counter assertions.
fn assert_on_off_equal(
    name: &str,
    spec: &SpecificationGraph,
    threads: usize,
) -> (
    flexplore::explore_crate::AllocationStats,
    flexplore::explore_crate::AllocationStats,
) {
    let compiled = CompiledSpec::new(spec);
    let (on_cands, on_stats) =
        possible_resource_allocations(&compiled, &bnb_options(true, threads), &ObsSink::disabled())
            .unwrap();
    let (off_cands, off_stats) = possible_resource_allocations(
        &compiled,
        &bnb_options(false, threads),
        &ObsSink::disabled(),
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string(&on_cands).unwrap(),
        serde_json::to_string(&off_cands).unwrap(),
        "{name}: candidates diverged between analysis on/off at {threads} threads"
    );
    assert_eq!(on_stats.kept, off_stats.kept, "{name}");
    assert_eq!(on_stats.subsets, off_stats.subsets, "{name}");
    // The per-subset counters saturate at u64::MAX from 64 units on; the
    // exact sum invariant only holds while they are exact.
    if on_stats.units < 64 {
        assert_eq!(
            on_stats.pruned_structurally + on_stats.infeasible + on_stats.kept,
            on_stats.subsets,
            "{name}: sum invariant broken with analysis on"
        );
    }
    (on_stats, off_stats)
}

/// The analyzer's facts straddle the one-word mask boundary (63/64/65
/// units) without wrapping: every dedicated DSP is proven mandatory and
/// the enumeration is byte-identical with the pruning on or off at
/// multiple thread counts.
#[test]
fn word_boundary_unit_counts_analyze_cleanly() {
    for (dedicated, expected_units) in [(61usize, 63usize), (62, 64), (63, 65)] {
        let spec = dedicated_spec(dedicated);
        assert_eq!(
            flexplore::explore_crate::allocatable_units(&spec).len(),
            expected_units
        );
        let analysis = analyze_spec(&spec);
        assert!(analysis.analyzed, "{expected_units} units");
        assert_eq!(analysis.facts.unit_count, expected_units);
        assert!(
            analysis.facts.mandatory.count_ones() as usize >= dedicated,
            "{expected_units} units: expected at least {dedicated} mandatory DSPs, got {}",
            analysis.facts.mandatory.count_ones()
        );
        assert!(analysis.report.has_code("F014"), "{expected_units} units");
        for threads in [1usize, 4] {
            let (on, _) = assert_on_off_equal("word-boundary", &spec, threads);
            assert!(
                on.analysis_mandatory_forced > 0,
                "{expected_units} units: mandatory pruning never fired"
            );
        }
    }
}

/// The analyzer and enumeration also work at exactly the 256-unit
/// capacity ceiling, and the `F013` capacity check is exact at both
/// boundaries: `units > capacity` fires, `units == capacity` does not.
#[test]
fn full_capacity_256_units_analyze_cleanly() {
    let spec = dedicated_spec(254);
    let units = flexplore::explore_crate::allocatable_units(&spec).len();
    assert_eq!(units, 256);

    // F013 thresholds at the subset-mask capacity: 256 units fit exactly,
    // one more does not.
    assert_eq!(
        flexplore::spec::MAX_UNITS,
        256,
        "the F013 gate and the mask width must agree"
    );
    assert!(
        !lint_spec(&spec).has_code("F013"),
        "256 units fit the masks"
    );
    assert!(
        lint_spec(&dedicated_spec(255)).has_code("F013"),
        "257 units overflow the masks"
    );

    let analysis = analyze_spec(&spec);
    assert!(analysis.analyzed);
    assert_eq!(analysis.facts.unit_count, 256);
    assert!(analysis.facts.mandatory.count_ones() >= 254);

    let (on, off) = assert_on_off_equal("capacity-256", &spec, 1);
    assert!(on.analysis_mandatory_forced > 0);
    assert!(
        on.nodes_visited < off.nodes_visited,
        "analysis must shrink the 256-unit walk: {} !< {}",
        on.nodes_visited,
        off.nodes_visited
    );
}

/// The analyzer runs cleanly over the bundled wide model and a seeded
/// sample of every fuzz domain profile: fact tables are sized to the
/// unit universe and the fact families are disjoint where soundness
/// requires it.
#[test]
fn analyzer_covers_wide_and_every_domain_profile() {
    let mut models = vec![
        ("set-top-box".to_owned(), set_top_box().spec),
        (
            "synthetic-wide".to_owned(),
            synthetic_spec(&SyntheticConfig::wide(13)),
        ),
    ];
    for profile in DomainProfile::all() {
        for seed in 0..3 {
            models.push((format!("{profile}-seed{seed}"), generate(profile, seed)));
        }
    }
    for (name, spec) in models {
        let analysis = analyze_spec(&spec);
        if !analysis.analyzed {
            continue; // error-level lint findings stop the analysis
        }
        let n = analysis.facts.unit_count;
        assert_eq!(analysis.facts.dominated_by.len(), n, "{name}");
        assert_eq!(analysis.facts.dominators.len(), n, "{name}");
        assert_eq!(analysis.facts.class_of.len(), n, "{name}");
        assert_eq!(analysis.unit_names.len(), n, "{name}");
        for k in analysis.facts.mandatory.iter_ones() {
            assert!(
                analysis.facts.dominated_by[k].is_none(),
                "{name}: unit {k} both mandatory and dominated"
            );
            assert!(
                analysis.facts.class_of[k].is_none(),
                "{name}: unit {k} both mandatory and symmetric"
            );
        }
        for class in &analysis.facts.classes {
            assert!(class.len() >= 2, "{name}: singleton symmetry class");
            assert!(
                class.windows(2).all(|w| w[0] < w[1]),
                "{name}: class members out of order"
            );
        }
    }

    // The wide model's facts are fully determined: 94 dedicated DSPs are
    // mandatory, the spare processors/ASICs are dominated by CPU0.
    let wide = analyze_spec(&synthetic_spec(&SyntheticConfig::wide(13)));
    assert_eq!(wide.facts.mandatory.count_ones(), 94);
    assert_eq!(wide.facts.dominated_count(), 3);
}

/// Acceptance: with the analysis on, branch-and-bound visits strictly
/// fewer nodes on the wide model while keeping a byte-identical candidate
/// list at 1 and 4 threads, and each new counter attributes its pruning.
#[test]
fn analysis_strictly_shrinks_the_wide_walk() {
    let spec = synthetic_spec(&SyntheticConfig::wide(13));
    for threads in [1usize, 4] {
        let (on, off) = assert_on_off_equal("synthetic-wide", &spec, threads);
        assert!(
            on.nodes_visited < off.nodes_visited,
            "threads {threads}: analysis must shrink the walk: {} !< {}",
            on.nodes_visited,
            off.nodes_visited
        );
        assert!(on.analysis_mandatory_forced > 0, "threads {threads}");
        assert_eq!(
            off.analysis_mandatory_forced, 0,
            "threads {threads}: counter must be silent with the analysis off"
        );
        assert_eq!(off.analysis_subtrees_skipped, 0);
        assert_eq!(off.symmetry_orbit_expansions, 0);
    }
}

/// The full explore pipeline surfaces the analysis counters in the obs
/// report, and the front is identical with the pruning on or off.
#[test]
fn explore_publishes_analysis_counters() {
    let spec = synthetic_spec(&SyntheticConfig::wide(13));
    let mut fronts = Vec::new();
    for analysis in [true, false] {
        let options = ExploreOptions {
            allocation: AllocationOptions {
                analysis,
                ..AllocationOptions::default()
            },
            ..ExploreOptions::paper()
        };
        let sink = ObsSink::enabled();
        let result =
            explore_compiled_obs(&CompiledSpec::with_activation_cache(&spec), &options, &sink)
                .unwrap();
        fronts.push(serde_json::to_string(&result.front).unwrap());
        let report = sink.report("analysis-test", "synthetic-wide", 1);
        let forced = report.counter("analysis_mandatory_forced");
        if analysis {
            assert!(forced.is_some_and(|v| v > 0), "{forced:?}");
        } else {
            assert_eq!(forced.unwrap_or(0), 0);
        }
    }
    assert_eq!(
        fronts[0], fronts[1],
        "front must not depend on the analysis"
    );
}

/// Symmetry-orbit pruning fires and expands back to the exact candidate
/// list on a model with interchangeable units: two identical processors
/// mapped identically form one symmetry class.
#[test]
fn symmetry_classes_are_detected_and_expanded() {
    // Two processors with identical mapping profiles: symmetric.
    let spec = synthetic_spec(&SyntheticConfig {
        seed: 9,
        applications: 1,
        interfaces_per_app: 1,
        alternatives: 2,
        processors: 3,
        asics: 0,
        fpga_designs: 0,
        constrained_fraction: 0.0,
        dedicated_tasks: 2,
    });
    let compiled = CompiledSpec::new(&spec);
    let units = flexplore::explore_crate::allocatable_units(&spec);
    let facts = compute_facts(&compiled, &units);
    if facts.classes.is_empty() {
        // The generator may specialize the processors; the on/off
        // equivalence below still exercises the remap path.
        eprintln!("note: no symmetry class in this seed");
    }
    let (on, _) = assert_on_off_equal("symmetry", &spec, 1);
    if !facts.classes.is_empty() {
        assert!(
            on.symmetry_orbit_expansions > 0 || on.nodes_visited > 0,
            "orbit pruning bookkeeping missing"
        );
    }
}

/// Doc-sync: every diagnostic code emitted by the lint passes or the
/// analysis module has a catalog row in DESIGN.md, so the catalog can
/// never silently fall behind the implementation.
#[test]
fn every_emitted_code_has_a_design_md_catalog_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources =
        vec![std::fs::read_to_string(root.join("crates/lint/src/passes.rs")).unwrap()];
    for entry in std::fs::read_dir(root.join("crates/lint/src/analysis")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push(std::fs::read_to_string(path).unwrap());
        }
    }
    let mut codes: Vec<String> = Vec::new();
    for source in &sources {
        for (i, _) in source.match_indices("code: \"F0") {
            let code = &source[i + 7..i + 11];
            assert!(
                code.len() == 4 && code.starts_with('F'),
                "malformed code literal {code:?}"
            );
            if !codes.contains(&code.to_string()) {
                codes.push(code.to_string());
            }
        }
    }
    assert!(
        codes.len() >= 16,
        "expected the full F001..F016 catalog to be emitted, found {codes:?}"
    );
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    for code in &codes {
        let row = format!("| `{code}` |");
        assert!(
            design.contains(&row),
            "DESIGN.md is missing a catalog row for {code}"
        );
    }
}
