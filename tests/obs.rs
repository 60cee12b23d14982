//! Observability contract tests: the instrumented engines must change
//! nothing about the search, counter totals must be byte-identical for
//! every thread count, the driver-side phases must tile the run's
//! wall-clock, and the reports/event logs must be structurally
//! deterministic and serde-stable.

use flexplore::obs::phase;
use flexplore::{
    explore, explore_compiled_obs, explore_resilient, k_resilient_flexibility, lint_spec_obs,
    set_top_box, synthetic_spec, AllocationOptions, CompiledSpec, ExploreOptions, ImplementOptions,
    ObsSink, RunReport, SpecificationGraph, SyntheticConfig,
};

/// The base options with `threads` applied to both the candidate scan and
/// the EXPLORE driver.
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

/// One instrumented EXPLORE, compile phase included, as `flexplore
/// explore --profile` runs it; returns the aggregated report.
fn profiled_explore(spec: &SpecificationGraph, threads: usize) -> RunReport {
    let obs = ObsSink::enabled();
    let timer = obs.start();
    let compiled = CompiledSpec::with_activation_cache(spec);
    obs.finish(phase::COMPILE, timer);
    explore_compiled_obs(&compiled, &threaded(threads), &obs).expect("explore succeeds");
    obs.report("explore", spec.name(), threads)
}

#[test]
fn observed_explore_reproduces_the_plain_result() {
    let stb = set_top_box();
    let plain = explore(&stb.spec, &ExploreOptions::paper()).unwrap();
    let obs = ObsSink::enabled();
    let observed = explore_compiled_obs(
        &CompiledSpec::with_activation_cache(&stb.spec),
        &ExploreOptions::paper(),
        &obs,
    )
    .unwrap();
    assert_eq!(plain.front.objectives(), observed.front.objectives());
    assert_eq!(
        plain.stats.implement_attempts,
        observed.stats.implement_attempts
    );

    // The disabled sink is inert: same result, empty report.
    let disabled = ObsSink::disabled();
    let silent = explore_compiled_obs(
        &CompiledSpec::with_activation_cache(&stb.spec),
        &ExploreOptions::paper(),
        &disabled,
    )
    .unwrap();
    assert_eq!(plain.front.objectives(), silent.front.objectives());
    let report = disabled.report("explore", "set_top_box", 1);
    assert!(report.phases.is_empty());
    assert!(report.counters.is_empty());
    assert_eq!(report.wall_ns, 0);
}

#[test]
fn counter_totals_are_byte_identical_across_thread_counts() {
    let specs = [
        set_top_box().spec,
        synthetic_spec(&SyntheticConfig::medium(11)),
    ];
    for spec in &specs {
        let baseline = profiled_explore(spec, 1);
        let baseline_counters = baseline.counters_json().unwrap();
        assert!(!baseline.counters.is_empty(), "{}", spec.name());
        for threads in [2, 4] {
            let report = profiled_explore(spec, threads);
            assert_eq!(
                baseline_counters,
                report.counters_json().unwrap(),
                "{} at {threads} thread(s)",
                spec.name()
            );
        }
    }
}

#[test]
fn top_level_phases_tile_the_wall_clock() {
    let stb = set_top_box();
    let report = profiled_explore(&stb.spec, 1);
    let phase_sum = report.top_level_wall_ns();
    assert!(phase_sum <= report.wall_ns, "phases cannot exceed the wall");
    // compile + enumerate + bind + pareto are disjoint driver-side
    // segments covering everything but argument plumbing; the untracked
    // remainder must stay a sliver of the run.
    assert!(
        phase_sum as f64 >= 0.80 * report.wall_ns as f64,
        "untracked time: {} of {} ns",
        report.wall_ns - phase_sum,
        report.wall_ns
    );
    // The dotted sub-phases measure worker busy-time inside those
    // segments and are excluded from the tiling sum.
    assert!(report.phases.iter().any(|p| p.phase.starts_with("bind.")));
}

#[test]
fn run_report_round_trips_through_serde() {
    let stb = set_top_box();
    let report = profiled_explore(&stb.spec, 3);
    let json = report.to_json().unwrap();
    let back = RunReport::from_json(&json).unwrap();
    assert_eq!(report, back);
    assert_eq!(json, back.to_json().unwrap(), "re-render is stable");
    assert_eq!(back.run, "explore");
    assert_eq!(back.spec, "set-top-box");
    assert_eq!(back.threads, 3);
    assert_eq!(back.counter("pareto_points"), Some(6));
}

#[test]
fn event_logs_are_structurally_deterministic() {
    // Drop the only run-varying payloads (the _ns values) and the two
    // logs of independent runs must be byte-identical.
    fn strip_ns(log: &str) -> String {
        let mut out = String::new();
        let mut chars = log.chars().peekable();
        while let Some(c) = chars.next() {
            out.push(c);
            if out.ends_with("_ns\":") {
                while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                    chars.next();
                }
                out.push('0');
            }
        }
        out
    }
    let stb = set_top_box();
    let logs: Vec<String> = (0..2)
        .map(|_| {
            let obs = ObsSink::enabled();
            explore_compiled_obs(
                &CompiledSpec::with_activation_cache(&stb.spec),
                &threaded(1),
                &obs,
            )
            .unwrap();
            let report = obs.report("explore", stb.spec.name(), 1);
            obs.events_jsonl(&report)
        })
        .collect();
    assert_eq!(strip_ns(&logs[0]), strip_ns(&logs[1]));
    assert!(logs[0].starts_with("{\"ev\":\"run\""));
    assert!(logs[0]
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"ev\":\"end\""));
}

#[test]
fn resilience_counters_are_thread_invariant() {
    let stb = set_top_box();
    let compiled = CompiledSpec::with_activation_cache(&stb.spec);
    let run = |threads: usize| {
        let obs = ObsSink::enabled();
        let front = explore_resilient(&compiled, 1, &threaded(threads), &obs).unwrap();
        (front, obs.report("resilience", stb.spec.name(), threads))
    };
    let (front1, report1) = run(1);
    let (front4, report4) = run(4);
    let plain =
        explore_resilient(&compiled, 1, &ExploreOptions::paper(), &ObsSink::disabled()).unwrap();
    assert_eq!(plain.len(), front1.len());
    assert_eq!(front1.len(), front4.len());
    assert_eq!(
        report1.counters_json().unwrap(),
        report4.counters_json().unwrap()
    );
    assert!(report1.counter("kill_evaluations").unwrap_or(0) > 0);
}

#[test]
fn kill_sweep_and_lint_report_their_phases() {
    let stb = set_top_box();
    let result = explore(&stb.spec, &ExploreOptions::paper()).unwrap();
    let point = result
        .front
        .into_iter()
        .max_by_key(|p| p.flexibility)
        .unwrap();
    let implementation = point
        .implementation
        .clone()
        .expect("point carries a platform");
    let compiled = CompiledSpec::with_activation_cache(&stb.spec);
    let obs = ObsSink::enabled();
    k_resilient_flexibility(
        &compiled,
        &implementation,
        1,
        &ImplementOptions::default(),
        2,
        &obs,
    )
    .unwrap();
    let report = obs.report("faults", stb.spec.name(), 2);
    let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
    assert!(names.contains(&"resilience"), "{names:?}");
    assert!(report.counter("kill_evaluations").unwrap_or(0) > 0);

    let obs = ObsSink::enabled();
    let lint = lint_spec_obs(&stb.spec, &obs);
    assert!(lint.is_clean());
    let report = obs.report("lint", stb.spec.name(), 1);
    let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
    for needle in [
        "lint.structural",
        "lint.hierarchy",
        "lint.mapping",
        "lint.period",
        "lint.semantic",
    ] {
        assert!(names.contains(&needle), "missing {needle}: {names:?}");
    }
    assert_eq!(report.counter("lint_errors"), Some(0));
    assert_eq!(report.counter("lint_warnings"), Some(0));
}
