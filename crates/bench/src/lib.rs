//! Benchmark harness: instrumented measurement suites and the
//! bench-regression gate.
//!
//! The measured experiments (`benches/` and the `report` binary) and the
//! CI regression gate (the `gate` binary) share this library. Every
//! measurement runs through the observability layer and is recorded as a
//! [`RunReport`], so one schema carries both the machine-dependent
//! wall-clock numbers and the machine-*independent* counter totals:
//!
//! * **counters** (candidates scanned, solver calls, Pareto points,
//!   lint findings …) are deterministic — any drift against the baseline
//!   is a behavioral regression and fails the gate outright;
//! * **wall-clock** is compared with a tolerance (default: fail when
//!   more than 25 % slower) and a noise floor that ignores entries too
//!   fast to time reliably.
//!
//! `BENCH_*.json` files are written to `$BENCH_OUT_DIR` when set (CI
//! routes them to scratch space) and to the working directory otherwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flexplore::models::{spec_from_json, spec_to_json};
use flexplore::{
    analyze_spec_obs, explore_compiled_obs, explore_compiled_warm, lint_spec_obs, set_top_box,
    synthetic_spec, tv_decoder, AllocationOptions, CompiledSpec, ExploreOptions, ObsSink,
    RunReport, SpecificationGraph, SyntheticConfig, WarmMode,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The thread counts every explore measurement runs at, fixed so that
/// baseline and current files always carry the same entries regardless
/// of the machine's core count.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// How many times each experiment runs; the fastest run is kept, which
/// filters scheduler noise out of small workloads.
pub const REPEATS: usize = 3;

/// One `BENCH_*.json` file: a named set of instrumented run reports.
///
/// `BENCH_explore.json`, `BENCH_lint.json`, `BENCH_analyze.json` and
/// the committed `BENCH_baseline.json` all use this schema; the baseline
/// is simply the concatenation of the suites it was built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// What produced the file (`explore`, `lint`, `analyze`, or `baseline`).
    pub suite: String,
    /// Hardware threads of the measuring machine (context, not compared).
    pub available_parallelism: usize,
    /// The measurements, one instrumented run each.
    pub reports: Vec<RunReport>,
}

impl BenchFile {
    /// Parses a bench file from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders the file as pretty JSON (stable field order).
    ///
    /// # Errors
    ///
    /// Infallible with the vendored serializer; mirrors serde_json.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let mut out = serde_json::to_string_pretty(self)?;
        out.push('\n');
        Ok(out)
    }

    /// Merges several files into one `baseline` suite.
    #[must_use]
    pub fn merged(files: &[BenchFile]) -> BenchFile {
        BenchFile {
            suite: "baseline".to_owned(),
            available_parallelism: available_parallelism(),
            reports: files.iter().flat_map(|f| f.reports.clone()).collect(),
        }
    }

    /// Multiplies every duration in every report by `factor` — the
    /// injected-slowdown hook the gate's CI self-test uses to prove it
    /// actually fails on a regression.
    pub fn slow_down(&mut self, factor: f64) {
        let scale = |ns: u64| -> u64 {
            let scaled = ns as f64 * factor;
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        };
        for report in &mut self.reports {
            report.wall_ns = scale(report.wall_ns);
            for phase in &mut report.phases {
                phase.wall_ns = scale(phase.wall_ns);
            }
        }
    }
}

/// The stable identity of a measurement within a bench file.
#[must_use]
pub fn entry_id(report: &RunReport) -> String {
    format!("{}/{}/t{}", report.run, report.spec, report.threads)
}

/// Hardware threads of this machine (1 when unknown).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where `BENCH_*.json` files go: `$BENCH_OUT_DIR` when set (created on
/// demand), the working directory otherwise.
///
/// # Errors
///
/// Returns an error when `$BENCH_OUT_DIR` cannot be created.
pub fn out_path(file: &str) -> Result<PathBuf, std::io::Error> {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir)?;
            Ok(dir.join(file))
        }
        None => Ok(PathBuf::from(file)),
    }
}

/// The explore options used by every measurement: the paper
/// configuration with `threads` applied to both the candidate scan and
/// the EXPLORE driver.
#[must_use]
pub fn threaded_options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..AllocationOptions::default()
        },
        ..ExploreOptions::paper()
    }
    .with_threads(threads)
}

/// One instrumented EXPLORE of `spec`, best of [`REPEATS`] runs.
///
/// # Panics
///
/// Panics when the exploration fails — bundled models always explore.
#[must_use]
pub fn measured_explore(spec: &SpecificationGraph, threads: usize) -> RunReport {
    let options = threaded_options(threads);
    (0..REPEATS)
        .map(|_| {
            let obs = ObsSink::enabled();
            let timer = obs.start();
            let compiled = CompiledSpec::with_activation_cache(spec);
            obs.finish(flexplore::obs::phase::COMPILE, timer);
            explore_compiled_obs(&compiled, &options, &obs).expect("bundled model explores");
            obs.report("explore", spec.name(), threads)
        })
        .min_by_key(|r| r.wall_ns)
        .expect("REPEATS > 0")
}

/// One instrumented lint of `spec`, best of [`REPEATS`] runs.
///
/// # Panics
///
/// Panics when the model does not lint clean — bundled models must.
#[must_use]
pub fn measured_lint(spec: &SpecificationGraph) -> RunReport {
    (0..REPEATS)
        .map(|_| {
            let obs = ObsSink::enabled();
            let report = lint_spec_obs(spec, &obs);
            assert!(
                report.is_clean(),
                "{} must lint clean:\n{}",
                spec.name(),
                report.render_text()
            );
            obs.report("lint", spec.name(), 1)
        })
        .min_by_key(|r| r.wall_ns)
        .expect("REPEATS > 0")
}

/// One instrumented lattice analysis (`analyze_spec_obs`) of `spec`,
/// best of [`REPEATS`] runs.
///
/// # Panics
///
/// Panics when the model carries error-level findings — every suite
/// model analyzes (lint-clean models always do).
#[must_use]
pub fn measured_analyze(spec: &SpecificationGraph) -> RunReport {
    (0..REPEATS)
        .map(|_| {
            let obs = ObsSink::enabled();
            let analysis = analyze_spec_obs(spec, &obs);
            assert!(
                analysis.analyzed,
                "{} must analyze (no error-level findings):\n{}",
                spec.name(),
                analysis.render_text()
            );
            obs.report("analyze", spec.name(), 1)
        })
        .min_by_key(|r| r.wall_ns)
        .expect("REPEATS > 0")
}

/// The models the explore suite measures. `synthetic-large` spans a
/// 2^24-subset lattice and `synthetic-wide` a 2^102 one: feasible only
/// because the branch-and-bound lattice search prunes them — a flat scan
/// would need ~10^7 (resp. ~10^30) estimates.
#[must_use]
pub fn explore_models() -> Vec<SpecificationGraph> {
    vec![
        set_top_box().spec,
        tv_decoder().spec,
        synthetic_spec(&SyntheticConfig::large(11)),
        synthetic_spec(&SyntheticConfig::wide(13)),
    ]
}

/// The models the lint suite measures.
#[must_use]
pub fn lint_models() -> Vec<SpecificationGraph> {
    vec![
        set_top_box().spec,
        tv_decoder().spec,
        synthetic_spec(&SyntheticConfig::large(11)),
        synthetic_spec(&SyntheticConfig::wide(13)),
    ]
}

/// Runs the full explore measurement suite (every bundled model at every
/// [`THREAD_COUNTS`] entry).
#[must_use]
pub fn explore_suite() -> BenchFile {
    let mut reports = Vec::new();
    for spec in explore_models() {
        for threads in THREAD_COUNTS {
            reports.push(measured_explore(&spec, threads));
        }
    }
    BenchFile {
        suite: "explore".to_owned(),
        available_parallelism: available_parallelism(),
        reports,
    }
}

/// Runs the full lint measurement suite.
#[must_use]
pub fn lint_suite() -> BenchFile {
    BenchFile {
        suite: "lint".to_owned(),
        available_parallelism: available_parallelism(),
        reports: lint_models().iter().map(measured_lint).collect(),
    }
}

/// The models the analyze suite measures — the lint set, whose
/// `synthetic-wide` member exercises all three fact passes at scale
/// (94 mandatory units, 3 dominated units on a 102-unit lattice).
#[must_use]
pub fn analyze_models() -> Vec<SpecificationGraph> {
    lint_models()
}

/// Runs the full static-lattice-analysis measurement suite; the
/// `analysis_mandatory` / `analysis_dominated` / `analysis_classes`
/// counters pin the fact totals per model in the regression gate.
#[must_use]
pub fn analyze_suite() -> BenchFile {
    BenchFile {
        suite: "analyze".to_owned(),
        available_parallelism: available_parallelism(),
        reports: analyze_models().iter().map(measured_analyze).collect(),
    }
}

/// Minimum warm-vs-cold speedup the warm-start suite enforces on the
/// bind-replay path (one latency edit outside every attempted bind mask
/// of `synthetic-wide`). Measured ~6x on the reference machine; 3x is
/// the contract.
pub const WARM_SPEEDUP_FLOOR: u64 = 3;

/// Repeats for the warm-start timing pair. Higher than [`REPEATS`]:
/// the warm run is sub-millisecond, so the best-of filter needs more
/// samples to shed scheduler noise before the ratio assertion.
pub const WARM_REPEATS: usize = 10;

/// Bumps the `site`-th `"latency"` value in `json` by one. `None` when
/// the spec has fewer latency fields.
fn bump_latency(json: &str, site: usize) -> Option<String> {
    let needle = "\"latency\"";
    let mut at = 0;
    for _ in 0..=site {
        at += json[at..].find(needle)? + needle.len();
    }
    let digits_at = at + json[at..].find(|c: char| c.is_ascii_digit())?;
    let digits_end = digits_at
        + json[digits_at..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(json.len() - digits_at);
    let value: u64 = json[digits_at..digits_end].parse().ok()?;
    Some(format!(
        "{}{}{}",
        &json[..digits_at],
        value + 1,
        &json[digits_end..]
    ))
}

/// Deterministically picks a one-latency edit of `spec` that invalidates
/// no cached bind outcome: the warm re-exploration replays the
/// enumeration *and* every solver verdict without calling the solver.
/// That is the watch-mode common case the speedup gate is stated for —
/// most units sit outside the few masks the solver ever saw.
///
/// # Panics
///
/// Panics when no latency site of `spec` misses every bind mask —
/// a structural property of the suite model, not of the machine.
#[must_use]
pub fn warm_miss_edit(spec: &SpecificationGraph) -> SpecificationGraph {
    let obs = ObsSink::disabled();
    let options = threaded_options(1);
    let compiled = CompiledSpec::with_activation_cache(spec);
    let baseline =
        explore_compiled_warm(&compiled, &options, None, &obs).expect("suite model explores");
    // A full replay hands back every kept candidate and every bind
    // verdict from the cache.
    let full_hits =
        baseline.result.stats.allocations.kept + baseline.result.stats.implement_attempts;
    let json = spec_to_json(spec).expect("suite model serializes");
    let mut site = 0;
    while let Some(edited_json) = bump_latency(&json, site) {
        site += 1;
        let Ok(edited) = spec_from_json(&edited_json) else {
            continue;
        };
        let edited_compiled = CompiledSpec::with_activation_cache(&edited);
        let warm = explore_compiled_warm(&edited_compiled, &options, Some(&baseline.entry), &obs)
            .expect("edited suite model explores");
        if warm.summary.mode == WarmMode::Replay && warm.summary.warm_hits == full_hits {
            return edited;
        }
    }
    panic!("no latency edit of {} misses every bind mask", spec.name());
}

/// Runs the warm-start measurement pair: a cold exploration of the
/// edited `synthetic-wide` model next to a warm one replaying the cache
/// entry of the unedited model, both best of [`WARM_REPEATS`].
///
/// Two invariants are asserted here, so both the report run and the CI
/// bench job enforce them:
///
/// * the deterministic counter sections of the two reports are
///   byte-identical — warmth must not change results;
/// * the warm run is at least [`WARM_SPEEDUP_FLOOR`]x faster.
///
/// # Panics
///
/// Panics when either invariant fails.
#[must_use]
pub fn warmstart_suite() -> BenchFile {
    let base = synthetic_spec(&SyntheticConfig::wide(13));
    let edited = warm_miss_edit(&base);
    let options = threaded_options(1);
    let prior = {
        let obs = ObsSink::disabled();
        let compiled = CompiledSpec::with_activation_cache(&base);
        explore_compiled_warm(&compiled, &options, None, &obs)
            .expect("suite model explores")
            .entry
    };
    let edited_compiled = CompiledSpec::with_activation_cache(&edited);
    let cold = (0..WARM_REPEATS)
        .map(|_| {
            let obs = ObsSink::enabled();
            explore_compiled_warm(&edited_compiled, &options, None, &obs)
                .expect("edited suite model explores");
            obs.report("explore-cold", "synthetic-wide-edited", 1)
        })
        .min_by_key(|r| r.wall_ns)
        .expect("WARM_REPEATS > 0");
    let warm = (0..WARM_REPEATS)
        .map(|_| {
            let obs = ObsSink::enabled();
            let outcome = explore_compiled_warm(&edited_compiled, &options, Some(&prior), &obs)
                .expect("edited suite model explores");
            assert_eq!(outcome.summary.mode, WarmMode::Replay, "expected a replay");
            obs.report("explore-warm", "synthetic-wide-edited", 1)
        })
        .min_by_key(|r| r.wall_ns)
        .expect("WARM_REPEATS > 0");
    assert_eq!(
        warm.counters_json().unwrap_or_default(),
        cold.counters_json().unwrap_or_default(),
        "warm counters drifted from cold"
    );
    assert!(
        warm.wall_ns.saturating_mul(WARM_SPEEDUP_FLOOR) <= cold.wall_ns,
        "warm re-explore must be at least {WARM_SPEEDUP_FLOOR}x faster than cold: \
         warm {:.3} ms vs cold {:.3} ms",
        warm.wall_ns as f64 / 1e6,
        cold.wall_ns as f64 / 1e6
    );
    BenchFile {
        suite: "warmstart".to_owned(),
        available_parallelism: available_parallelism(),
        reports: vec![cold, warm],
    }
}

/// Configuration of a gate comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOptions {
    /// Maximum tolerated slowdown in percent before an entry fails.
    pub tolerance_pct: f64,
    /// Entries whose baseline wall-clock is below this are never failed
    /// on timing (sub-millisecond runs are dominated by noise); their
    /// counters are still compared exactly.
    pub min_wall_ms: f64,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            tolerance_pct: 25.0,
            min_wall_ms: 1.0,
        }
    }
}

/// The outcome of comparing a current measurement set against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// The rendered delta table (always produced, pass or fail).
    pub table: String,
    /// One line per failure; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether the comparison passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `current` measurements against `baseline`.
///
/// Counters must match exactly (they are machine-invariant search
/// statistics); wall-clock may drift up to `tolerance_pct` above the
/// baseline before the entry fails, and baseline entries faster than
/// `min_wall_ms` are exempt from the timing check. Entries present in
/// the baseline but missing from `current` fail; extra current entries
/// are reported but tolerated (new benchmarks land before their
/// baseline refresh).
#[must_use]
pub fn compare(baseline: &BenchFile, current: &BenchFile, options: &GateOptions) -> GateOutcome {
    let mut table = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        table,
        "{:<34} {:>12} {:>12} {:>8}  verdict",
        "entry", "baseline", "current", "delta"
    );
    for base in &baseline.reports {
        let id = entry_id(base);
        let Some(cur) = current.reports.iter().find(|r| entry_id(r) == id) else {
            failures.push(format!("{id}: missing from the current measurements"));
            let _ = writeln!(
                table,
                "{id:<34} {:>9.3} ms {:>12} {:>8}  MISSING",
                base.wall_ns as f64 / 1e6,
                "-",
                "-"
            );
            continue;
        };
        let base_counters = base.counters_json().unwrap_or_default();
        let cur_counters = cur.counters_json().unwrap_or_default();
        let base_ms = base.wall_ns as f64 / 1e6;
        let cur_ms = cur.wall_ns as f64 / 1e6;
        let delta_pct = if base.wall_ns == 0 {
            0.0
        } else {
            100.0 * (cur_ms - base_ms) / base_ms
        };
        let verdict = if base_counters != cur_counters {
            failures.push(format!(
                "{id}: counter totals drifted from the baseline\n  baseline: {base_counters}\n  current:  {cur_counters}"
            ));
            "COUNTERS DRIFTED"
        } else if delta_pct > options.tolerance_pct && base_ms >= options.min_wall_ms {
            failures.push(format!(
                "{id}: {delta_pct:+.1}% slower than baseline \
                 ({base_ms:.3} ms -> {cur_ms:.3} ms, tolerance {:.0}%)",
                options.tolerance_pct
            ));
            "TOO SLOW"
        } else if base_ms < options.min_wall_ms {
            "ok (noise floor)"
        } else {
            "ok"
        };
        let _ = writeln!(
            table,
            "{id:<34} {base_ms:>9.3} ms {cur_ms:>9.3} ms {delta_pct:>+7.1}%  {verdict}"
        );
    }
    for cur in &current.reports {
        let id = entry_id(cur);
        if !baseline.reports.iter().any(|r| entry_id(r) == id) {
            let _ = writeln!(
                table,
                "{id:<34} {:>12} {:>9.3} ms {:>8}  new (no baseline)",
                "-",
                cur.wall_ns as f64 / 1e6,
                "-"
            );
        }
    }
    GateOutcome { table, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_file() -> BenchFile {
        let stb = set_top_box().spec;
        BenchFile {
            suite: "explore".to_owned(),
            available_parallelism: available_parallelism(),
            reports: vec![measured_explore(&stb, 1)],
        }
    }

    #[test]
    fn bench_file_round_trips_through_json() {
        let file = tiny_file();
        let json = file.to_json().unwrap();
        let back = BenchFile::from_json(&json).unwrap();
        assert_eq!(file, back);
    }

    #[test]
    fn identical_measurements_pass_the_gate() {
        let file = tiny_file();
        let outcome = compare(&file, &file, &GateOptions::default());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome.table.contains("explore/set-top-box/t1"));
    }

    #[test]
    fn injected_slowdown_fails_the_gate() {
        let file = tiny_file();
        let mut slowed = file.clone();
        slowed.slow_down(2.0);
        // Force the timing check to apply even on a machine fast enough
        // to finish the baseline under the noise floor.
        let options = GateOptions {
            min_wall_ms: 0.0,
            ..GateOptions::default()
        };
        let outcome = compare(&file, &slowed, &options);
        assert!(!outcome.passed());
        assert!(
            outcome.failures[0].contains("slower than baseline"),
            "{:?}",
            outcome.failures
        );
        // The reverse direction (current faster) passes.
        let outcome = compare(&slowed, &file, &options);
        assert!(outcome.passed(), "{:?}", outcome.failures);
    }

    #[test]
    fn counter_drift_fails_the_gate_even_when_fast() {
        let file = tiny_file();
        let mut drifted = file.clone();
        for counter in &mut drifted.reports[0].counters {
            counter.value += 1;
        }
        let outcome = compare(&file, &drifted, &GateOptions::default());
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("counter totals drifted"));
    }

    #[test]
    fn missing_entries_fail_and_new_entries_are_tolerated() {
        let file = tiny_file();
        let empty = BenchFile {
            suite: "explore".to_owned(),
            available_parallelism: 1,
            reports: Vec::new(),
        };
        let outcome = compare(&file, &empty, &GateOptions::default());
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("missing"));
        // New current entries (no baseline yet) only annotate the table.
        let outcome = compare(&empty, &file, &GateOptions::default());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome.table.contains("new (no baseline)"));
    }

    #[test]
    fn noise_floor_shields_sub_millisecond_entries() {
        let mut base = tiny_file();
        base.reports[0].wall_ns = 100_000; // 0.1 ms — below the floor
        let mut slow = base.clone();
        slow.slow_down(10.0);
        let outcome = compare(&base, &slow, &GateOptions::default());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome.table.contains("noise floor"));
    }
}
