//! Requests, passes over a workload, and the per-layer numbers a traced
//! pass collects.
//!
//! A request is what a user of the CLI waits for: spec JSON in, Pareto
//! front out. The benchmark times its own spans around each public call
//! of the request; a traced pass also hands the explorer an enabled
//! `ObsSink` and folds its report into [`Layers`].

use crate::counting::counted;
use crate::reference::{front_matches, objectives, Objectives};
use crate::workload::{ColdPlan, Session};
use flexplore::models::spec_from_json;
use flexplore::{
    explore_compiled_obs, lint_spec, AllocationOptions, CompiledSpec, ExploreCache, ExploreOptions,
    ObsSink, RunReport, SpecSignature, WarmSummary,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The paper's options with `threads` for both the lattice scheduler and
/// the bind driver, as `flexplore explore --threads N` sets them.
pub fn explore_options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..AllocationOptions::default()
        },
        ..ExploreOptions::paper()
    }
    .with_threads(threads)
}

/// The benchmark's own spans around the public calls of one request.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    load: Duration,
    lint: Duration,
    compile: Duration,
    explore: Duration,
    /// `SpecSignature::of`, called separately in traced passes only and
    /// not part of the request's latency.
    fingerprint: Duration,
}

fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot = start.elapsed();
    r
}

/// A cold request, as `flexplore explore model.json` runs it.
fn cold_request(
    json: &str,
    options: &ExploreOptions,
    obs: &ObsSink,
    spans: &mut Spans,
) -> Result<Objectives, String> {
    let spec = timed(&mut spans.load, || spec_from_json(json)).map_err(|e| e.to_string())?;
    let lint = timed(&mut spans.lint, || lint_spec(&spec));
    if lint.has_errors() || lint.has_code("F013") {
        return Err("rejected by the pre-flight lint".into());
    }
    let compiled = timed(&mut spans.compile, || {
        CompiledSpec::with_activation_cache(&spec)
    });
    let result = timed(&mut spans.explore, || {
        explore_compiled_obs(&compiled, options, obs)
    })
    .map_err(|e| e.to_string())?;
    if obs.is_enabled() {
        timed(&mut spans.fingerprint, || SpecSignature::of(&compiled));
    }
    Ok(objectives(&result.front))
}

/// An edit request, as one `flexplore watch` cycle runs it.
fn edit_request(
    json: &str,
    cache: &ExploreCache,
    options: &ExploreOptions,
    obs: &ObsSink,
    spans: &mut Spans,
) -> Result<(Objectives, WarmSummary), String> {
    let spec = timed(&mut spans.load, || spec_from_json(json)).map_err(|e| e.to_string())?;
    let compiled = timed(&mut spans.compile, || {
        CompiledSpec::with_activation_cache(&spec)
    });
    let outcome = timed(&mut spans.explore, || {
        cache.explore_compiled(&compiled, options, obs)
    })
    .map_err(|e| e.to_string())?;
    if obs.is_enabled() {
        timed(&mut spans.fingerprint, || SpecSignature::of(&compiled));
    }
    Ok((objectives(&outcome.result.front), outcome.summary))
}

/// How a pass runs its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// `ObsSink::disabled()`: the end-to-end configuration.
    Plain,
    /// An enabled `ObsSink` per request, folded into [`Layers`].
    Traced,
    /// Plain, with the counting allocator on around each request.
    Counting,
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every request, in order.
    pub latencies: Vec<Duration>,
    /// Requests that errored or returned a wrong front.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Edit-loop only: the priming explore and first store of every
    /// session (the watcher's one-time work).
    pub setup: Duration,
    /// Per-layer numbers (traced passes) and allocation counts
    /// (counting passes).
    pub layers: Layers,
}

impl Pass {
    fn record(&mut self, latency: Duration, outcome: Result<(), String>) {
        self.latencies.push(latency);
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    pub fn busy(&self) -> Duration {
        self.latencies.iter().sum()
    }
}

fn check(front: &[(u64, u64)], reference: &[(u64, u64)], label: &str) -> Result<(), String> {
    if front_matches(front, reference) {
        Ok(())
    } else {
        Err(format!(
            "{label}: front {front:?} differs from the reference {reference:?}"
        ))
    }
}

/// Runs `request` under `kind`, returning its outcome, latency, spans and
/// sink; counts it, and in counting passes its allocations, into `layers`.
fn run_one<R>(
    kind: PassKind,
    layers: &mut Layers,
    request: impl FnOnce(&ObsSink, &mut Spans) -> R,
) -> (R, Duration, Spans, ObsSink) {
    let obs = if kind == PassKind::Traced {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let mut spans = Spans::default();
    let start = Instant::now();
    let (result, allocs, bytes) = if kind == PassKind::Counting {
        counted(|| request(&obs, &mut spans))
    } else {
        (request(&obs, &mut spans), 0, 0)
    };
    // The separate fingerprint call is not part of the request.
    let latency = start.elapsed().saturating_sub(spans.fingerprint);
    layers.requests += 1;
    layers.allocations += allocs;
    layers.allocated_bytes += bytes;
    (result, latency, spans, obs)
}

/// One pass over a cold plan: a request per entry of `order` (indices
/// into the plan's specs).
pub fn cold_pass(
    plan: &ColdPlan,
    order: &[usize],
    references: &[Objectives],
    options: &ExploreOptions,
    kind: PassKind,
) -> Pass {
    let mut pass = Pass::default();
    for &i in order {
        let case = &plan.specs[i];
        let (result, latency, spans, obs) = run_one(kind, &mut pass.layers, |obs, spans| {
            cold_request(&case.json, options, obs, spans)
        });
        let outcome = result.and_then(|front| check(&front, &references[i], &case.label));
        pass.record(latency, outcome);
        if kind == PassKind::Traced {
            pass.layers
                .add(&spans, &obs.report("bench", &case.label, 1), None);
        }
    }
    pass
}

/// One pass of watch sessions, each from an empty cache directory under
/// `work_dir` that is removed afterwards.
pub fn edit_pass(
    sessions: &[Session],
    references: &[(Objectives, Vec<Objectives>)],
    options: &ExploreOptions,
    work_dir: &Path,
    kind: PassKind,
) -> Pass {
    let mut pass = Pass::default();
    for (k, (session, (base_ref, edit_refs))) in sessions.iter().zip(references).enumerate() {
        let dir = work_dir.join(format!("session-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ExploreCache::new(&dir);
        let label = &session.base.label;

        let start = Instant::now();
        let primed = edit_request(
            &session.base.json,
            &cache,
            options,
            &ObsSink::disabled(),
            &mut Spans::default(),
        );
        pass.setup += start.elapsed();
        if let Err(e) = primed.and_then(|(front, _)| check(&front, base_ref, label)) {
            pass.failed += 1;
            pass.first_failure.get_or_insert(format!("priming {e}"));
        }

        for (json, reference) in session.edits.iter().zip(edit_refs) {
            let (result, latency, spans, obs) = run_one(kind, &mut pass.layers, |obs, spans| {
                edit_request(json, &cache, options, obs, spans)
            });
            let mut summary = None;
            let outcome = result.and_then(|(front, warm)| {
                summary = Some(warm);
                check(&front, reference, label)
            });
            pass.record(latency, outcome);
            if kind == PassKind::Traced {
                let report = obs.report("bench", label, 1);
                pass.layers.add(&spans, &report, summary.as_ref());
            }
        }
        if kind == PassKind::Traced {
            let (files, bytes) = dir_size(&dir);
            pass.layers.sessions += 1;
            pass.layers.cache_files += files;
            pass.layers.cache_bytes += bytes;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    pass
}

fn dir_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(files, bytes), m| (files + 1, bytes + m.len()))
}

/// Per-layer sums over the requests of one pass.
#[derive(Debug, Default)]
pub struct Layers {
    requests: u64,
    load_ns: u64,
    lint_ns: u64,
    compile_ns: u64,
    fingerprint_ns: u64,
    /// Edit-loop: wall of `ExploreCache::explore_compiled` minus its
    /// obs-covered top-level phases.
    cache_self_ns: u64,
    phases: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    tasks_stolen: u64,
    steal_failures: u64,
    chunks_speculated: u64,
    speculative_waste: u64,
    warm_modes: BTreeMap<String, u64>,
    warm_hits: u64,
    warm_invalidated: u64,
    sessions: u64,
    cache_files: u64,
    cache_bytes: u64,
    allocations: u64,
    allocated_bytes: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Layers {
    fn add(&mut self, spans: &Spans, report: &RunReport, warm: Option<&WarmSummary>) {
        self.load_ns += ns(spans.load);
        self.lint_ns += ns(spans.lint);
        self.compile_ns += ns(spans.compile);
        self.fingerprint_ns += ns(spans.fingerprint);
        let mut covered = 0;
        for phase in &report.phases {
            *self.phases.entry(phase.phase.clone()).or_default() += phase.wall_ns;
            if !phase.phase.contains('.') {
                covered += phase.wall_ns;
            }
        }
        for counter in &report.counters {
            *self.counters.entry(counter.counter.clone()).or_default() += counter.value;
        }
        let s = &report.speculation;
        self.tasks_stolen += s.tasks_stolen;
        self.steal_failures += s.steal_failures;
        self.chunks_speculated += s.chunks_speculated;
        self.speculative_waste += s.speculative_waste;
        if let Some(warm) = warm {
            *self.warm_modes.entry(warm.mode.to_string()).or_default() += 1;
            self.warm_hits += warm.warm_hits;
            self.warm_invalidated += warm.warm_invalidated;
            self.cache_self_ns += ns(spans.explore).saturating_sub(covered);
        }
    }

    fn phase(&self, name: &str) -> u64 {
        self.phases.get(name).copied().unwrap_or(0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The per-layer metrics, `(name, value, unit)`. Times are per-request
    /// means in ms; `count/req` values are per-request means.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.requests.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / n;
        let per_req = |v: u64| v as f64 / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let enumerate = self.phase("enumerate");
        let enumerate_sub = self.phase("enumerate.estimate") + self.phase("enumerate.analysis");
        let attempts = self.counter("implement_attempts");
        let feasible = self.counter("feasible");
        let possible = self.counter("possible_allocations");
        let sessions = self.sessions.max(1) as f64;
        let warm = |mode: &str| self.warm_modes.get(mode).copied().unwrap_or(0) as f64;
        vec![
            ("models.load_ms", ms(self.load_ns), "ms"),
            ("lint.preflight_ms", ms(self.lint_ns), "ms"),
            ("spec.compile_ms", ms(self.compile_ns), "ms"),
            ("spec.fingerprint_ms", ms(self.fingerprint_ns), "ms"),
            ("explore.enumerate_ms", ms(enumerate), "ms"),
            (
                "explore.enumerate_self_ms",
                ms(enumerate.saturating_sub(enumerate_sub)),
                "ms",
            ),
            (
                "explore.nodes_visited",
                per_req(self.counter("nodes_visited")),
                "count/req",
            ),
            (
                "explore.possible_allocations",
                per_req(possible),
                "count/req",
            ),
            (
                "explore.estimate_skipped",
                per_req(self.counter("estimate_skipped")),
                "count/req",
            ),
            (
                "explore.memo_cross_hits",
                per_req(self.counter("memo_cross_hits")),
                "count/req",
            ),
            ("explore.reach_ratio", ratio(attempts, possible), "ratio"),
            (
                "flex.estimate_ms",
                ms(self.phase("enumerate.estimate") + self.phase("bind.estimate")),
                "ms",
            ),
            (
                "flex.delta_pushes",
                per_req(self.counter("estimate_delta_pushes")),
                "count/req",
            ),
            // `enumerate.analysis` encloses the `analyze.*` passes it runs.
            (
                "lint.analysis_ms",
                ms(self.phase("enumerate.analysis")),
                "ms",
            ),
            ("bind.total_ms", ms(self.phase("bind")), "ms"),
            ("bind.solve_ms", ms(self.phase("bind.solve")), "ms"),
            ("bind.comm_ms", ms(self.phase("bind.comm")), "ms"),
            ("bind.attempts", per_req(attempts), "count/req"),
            ("bind.feasible", per_req(feasible), "count/req"),
            ("bind.feasible_ratio", ratio(feasible, attempts), "ratio"),
            (
                "sched.tasks_stolen",
                per_req(self.tasks_stolen),
                "count/req",
            ),
            (
                "sched.steal_failures",
                per_req(self.steal_failures),
                "count/req",
            ),
            (
                "sched.chunks_speculated",
                per_req(self.chunks_speculated),
                "count/req",
            ),
            (
                "sched.speculative_waste",
                per_req(self.speculative_waste),
                "count/req",
            ),
            (
                "sched.waste_ratio",
                ratio(self.speculative_waste, attempts),
                "ratio",
            ),
            ("cache.self_ms", ms(self.cache_self_ns), "ms"),
            ("cache.bytes", self.cache_bytes as f64 / sessions, "bytes"),
            ("cache.files", self.cache_files as f64 / sessions, "count"),
            ("warm.replay", warm("replay"), "count"),
            ("warm.seeded", warm("seeded"), "count"),
            ("warm.exact", warm("exact"), "count"),
            ("warm.cold", warm("cold"), "count"),
            (
                "warm.hit_ratio",
                ratio(self.warm_hits, self.warm_hits + self.warm_invalidated),
                "ratio",
            ),
            ("explore.pareto_ms", ms(self.phase("pareto")), "ms"),
            (
                "explore.pareto_points",
                per_req(self.counter("pareto_points")),
                "count/req",
            ),
        ]
    }

    /// Allocation metrics of a counting pass.
    pub fn allocation_metrics(&self) -> [(&'static str, f64, &'static str); 2] {
        let n = self.requests.max(1) as f64;
        [
            (
                "alloc.count_per_request",
                self.allocations as f64 / n,
                "count/req",
            ),
            (
                "alloc.bytes_per_request",
                self.allocated_bytes as f64 / n,
                "bytes/req",
            ),
        ]
    }
}

/// Names of the per-layer metrics that repeat exactly between runs of
/// the same seed (everything counted rather than timed, except the
/// thread-variant scheduler numbers).
pub const DETERMINISTIC: [&str; 17] = [
    "explore.nodes_visited",
    "explore.possible_allocations",
    "explore.estimate_skipped",
    "explore.memo_cross_hits",
    "explore.reach_ratio",
    "flex.delta_pushes",
    "bind.attempts",
    "bind.feasible",
    "bind.feasible_ratio",
    "cache.bytes",
    "cache.files",
    "warm.replay",
    "warm.seeded",
    "warm.exact",
    "warm.cold",
    "warm.hit_ratio",
    "explore.pareto_points",
];
