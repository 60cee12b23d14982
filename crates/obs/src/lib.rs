//! **flexplore-obs** — structured observability for the flexplore engine.
//!
//! The exploration engine answers *what* the Pareto front is; this crate
//! answers *where the time and pruning effort went* while computing it.
//! Every expensive entry point (EXPLORE, the binding solver, flexlint)
//! accepts an [`ObsSink`] handle and records three kinds of evidence:
//!
//! * **span timers** — wall-clock per named phase ([`phase`] catalog).
//!   Top-level phases (no `.` in the name) are disjoint segments of the
//!   run recorded by the driving thread, so their durations tile the total
//!   wall-clock. Dotted sub-phases (`bind.solve`, `enumerate.estimate`)
//!   are *busy-time* aggregates that may be recorded concurrently by
//!   worker threads and may include speculative work.
//! * **monotonic counters** — deterministic work counts (solver calls,
//!   subsets scanned, Pareto points). Counter totals are byte-identical
//!   across `--threads` settings: the engine only records them on the
//!   merge path, which replays the sequential schedule.
//! * **speculation stats** — per-worker dispatch/busy numbers of the
//!   speculative-chunk engine. These legitimately vary with the thread
//!   count and are kept out of the deterministic counter section.
//!
//! There is **no global state**: a sink is an explicit handle, cheap to
//! clone, and a disabled sink ([`ObsSink::disabled`]) reduces every
//! operation to one branch — no clock reads, no locks, no allocation — so
//! instrumented code paths cost nothing when observability is off.
//!
//! Evidence is consumed two ways: an aggregated [`RunReport`] (stable
//! serde field order; `counters` byte-identical across thread counts) and
//! a JSON-lines event stream ([`ObsSink::events_jsonl`]) whose line
//! *structure and order* are deterministic for a fixed configuration —
//! only the `_ns` duration fields vary between runs.
//!
//! # Examples
//!
//! ```
//! use flexplore_obs::{phase, ObsSink};
//!
//! let sink = ObsSink::enabled();
//! let timer = sink.start();
//! // ... do the work of the phase ...
//! sink.finish(phase::COMPILE, timer);
//! sink.set_count("implement_attempts", 36);
//!
//! let report = sink.report("explore", "set_top_box", 1);
//! assert_eq!(report.counter("implement_attempts"), Some(36));
//! assert_eq!(report.phases.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The phase-name catalog. Names are plain strings so downstream crates
/// can add phases freely, but the engine sticks to this catalog so
/// profiles stay comparable across runs (documented in DESIGN.md §11).
pub mod phase {
    /// Building the [`CompiledSpec`](../flexplore_spec) side tables.
    pub const COMPILE: &str = "compile";
    /// Enumerating the possible resource allocations (subset scan).
    pub const ENUMERATE: &str = "enumerate";
    /// Binding-construction checks of bound-surviving candidates.
    pub const BIND: &str = "bind";
    /// Pareto-front filtering (archive insertions, dominance checks).
    pub const PARETO: &str = "pareto";
    /// Kill-set resilience sweeps.
    pub const RESILIENCE: &str = "resilience";
    /// flexlint static analysis (whole pipeline).
    pub const LINT: &str = "lint";
    /// Reading and parsing a specification file.
    pub const PARSE: &str = "parse";
    /// Platform selection (budget-constrained exploration) of the fault
    /// replay.
    pub const SELECT: &str = "select";
    /// Behavior-trace generation (fault replay).
    pub const TRACE: &str = "trace";
    /// Fault-injection trace replay.
    pub const REPLAY: &str = "replay";
    /// Static lattice analysis (fact extraction over the compiled spec).
    pub const ANALYZE: &str = "analyze";

    /// Sub-phase: flexibility estimation inside the subset scan
    /// (worker busy time).
    pub const ENUMERATE_ESTIMATE: &str = "enumerate.estimate";
    /// Sub-phase: feasibility estimate of one binding attempt.
    pub const BIND_ESTIMATE: &str = "bind.estimate";
    /// Sub-phase: per-candidate binding tables (communication reach rows,
    /// design index, candidate lists).
    pub const BIND_COMM: &str = "bind.comm";
    /// Sub-phase: the backtracking binding search itself.
    pub const BIND_SOLVE: &str = "bind.solve";
    /// Sub-phase: implemented-flexibility evaluation (Definition 4).
    pub const BIND_FLEX: &str = "bind.flex";
    /// Sub-phase: lint structural-integrity pass.
    pub const LINT_STRUCTURAL: &str = "lint.structural";
    /// Sub-phase: lint hierarchy pass.
    pub const LINT_HIERARCHY: &str = "lint.hierarchy";
    /// Sub-phase: lint mapping-soundness pass.
    pub const LINT_MAPPING: &str = "lint.mapping";
    /// Sub-phase: lint activation-period pass.
    pub const LINT_PERIOD: &str = "lint.period";
    /// Sub-phase: lint semantic-degeneracy pass.
    pub const LINT_SEMANTIC: &str = "lint.semantic";
    /// Sub-phase: mandatory-unit analysis (sole-coverage probes).
    pub const ANALYZE_MANDATORY: &str = "analyze.mandatory";
    /// Sub-phase: dominated-unit analysis (pairwise containment).
    pub const ANALYZE_DOMINATED: &str = "analyze.dominated";
    /// Sub-phase: symmetry-class analysis (interchangeable-unit grouping).
    pub const ANALYZE_SYMMETRY: &str = "analyze.symmetry";
    /// Sub-phase: static-analysis fact extraction feeding the enumerator.
    pub const ENUMERATE_ANALYZE: &str = "enumerate.analysis";
}

/// A started span measurement; feed it back to [`ObsSink::finish`].
///
/// Holds `None` when the sink is disabled, so no clock was read.
#[derive(Debug)]
#[must_use = "a started timer must be finished to record its span"]
pub struct ObsTimer(Option<Instant>);

#[derive(Debug, Default, Clone, Copy)]
struct PhaseAgg {
    calls: u64,
    wall: Duration,
}

#[derive(Debug, Default, Clone, Copy)]
struct WorkerAgg {
    items: u64,
    busy: Duration,
}

/// One recorded event of the JSON-lines stream.
#[derive(Debug, Clone)]
enum Event {
    /// A completed top-level span.
    Span { phase: &'static str, wall_ns: u64 },
    /// One speculative chunk dispatched by a parallel driver.
    Chunk {
        index: u64,
        items: u64,
        workers: usize,
    },
}

#[derive(Debug, Default)]
struct State {
    phases: BTreeMap<&'static str, PhaseAgg>,
    counters: BTreeMap<&'static str, u64>,
    events: Vec<Event>,
    chunks_dispatched: u64,
    chunks_speculated: u64,
    speculative_waste: u64,
    tasks_stolen: u64,
    steal_failures: u64,
    batch_bind_calls: u64,
    workers: BTreeMap<usize, WorkerAgg>,
    warmstart: Warmstart,
}

#[derive(Debug)]
struct Inner {
    started: Instant,
    state: Mutex<State>,
}

/// Handle through which instrumented code records observability evidence.
///
/// Clone freely — clones share the same recording state. A disabled sink
/// ([`ObsSink::disabled`]) turns every operation into a single branch.
/// The sink is `Sync`: worker threads may record sub-phase busy time
/// concurrently (aggregation is order-free), while events and top-level
/// spans are only recorded from the driving thread so the event stream
/// stays deterministic.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Inner>>,
}

impl ObsSink {
    /// A sink that records nothing; every operation is a no-op branch.
    #[must_use]
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// A recording sink; the run's total wall-clock starts now.
    #[must_use]
    pub fn enabled() -> Self {
        ObsSink {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a span measurement (reads the clock only when enabled).
    pub fn start(&self) -> ObsTimer {
        ObsTimer(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Finishes a span: adds one call and the elapsed wall time to
    /// `phase`. Top-level phases (no `.`) also append a `span` event;
    /// call those from the driving thread only.
    pub fn finish(&self, phase: &'static str, timer: ObsTimer) {
        let (Some(inner), Some(started)) = (&self.inner, timer.0) else {
            return;
        };
        let wall = started.elapsed();
        let mut state = inner.state.lock().expect("obs state poisoned");
        let agg = state.phases.entry(phase).or_default();
        agg.calls += 1;
        agg.wall += wall;
        if !phase.contains('.') {
            state.events.push(Event::Span {
                phase,
                wall_ns: wall.as_nanos() as u64,
            });
        }
    }

    /// Bulk-adds pre-accumulated busy time to a (sub-)phase without
    /// emitting an event — the flush path for per-worker accumulators.
    pub fn add_time(&self, phase: &'static str, calls: u64, wall: Duration) {
        let Some(inner) = &self.inner else { return };
        if calls == 0 && wall.is_zero() {
            return;
        }
        let mut state = inner.state.lock().expect("obs state poisoned");
        let agg = state.phases.entry(phase).or_default();
        agg.calls += calls;
        agg.wall += wall;
    }

    /// Adds `delta` to the named deterministic counter.
    pub fn count(&self, counter: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state poisoned");
        *state.counters.entry(counter).or_default() += delta;
    }

    /// Sets the named deterministic counter to `value` (idempotent form
    /// used when an engine publishes its final statistics).
    pub fn set_count(&self, counter: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state poisoned");
        state.counters.insert(counter, value);
    }

    /// Records thread-variant speculation totals (additive).
    pub fn speculation(&self, chunks_speculated: u64, speculative_waste: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state poisoned");
        state.chunks_speculated += chunks_speculated;
        state.speculative_waste += speculative_waste;
    }

    /// Records thread-variant work-stealing scheduler totals (additive):
    /// how many tasks ran on a worker other than the one they were dealt
    /// to, and how many steal probes found an empty victim deque. Both
    /// depend on runtime timing, so they live next to the speculation
    /// stats, outside the deterministic counter section.
    pub fn scheduler(&self, tasks_stolen: u64, steal_failures: u64) {
        let Some(inner) = &self.inner else { return };
        if tasks_stolen == 0 && steal_failures == 0 {
            return;
        }
        let mut state = inner.state.lock().expect("obs state poisoned");
        state.tasks_stolen += tasks_stolen;
        state.steal_failures += steal_failures;
    }

    /// Records thread-variant batch-binding totals (additive): emit-point
    /// `bind.solve` setups answered by the shared activation cache instead
    /// of a fresh ECA enumeration. Which worker populates the cache first
    /// depends on scheduling, so the count stays out of the deterministic
    /// counter section.
    pub fn batch_bind(&self, calls: u64) {
        let Some(inner) = &self.inner else { return };
        if calls == 0 {
            return;
        }
        let mut state = inner.state.lock().expect("obs state poisoned");
        state.batch_bind_calls += calls;
    }

    /// Records the warm-start summary of a cache-assisted run: the replay
    /// mode and the replayed/invalidated artifact counts. The numbers are
    /// deterministic at any thread count but differ between warm and cold
    /// runs by construction, so they live in their own report section —
    /// outside [`RunReport::counters`], whose bytes warm runs must
    /// reproduce exactly.
    pub fn warmstart(&self, mode: &str, warm_hits: u64, warm_invalidated: u64, delta_units: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state poisoned");
        state.warmstart = Warmstart {
            mode: mode.to_owned(),
            warm_hits,
            warm_invalidated,
            delta_units,
        };
    }

    /// Records one dispatched speculative chunk: an event plus per-worker
    /// item/busy aggregation. `lanes[i]` is worker `i`'s (items, busy).
    pub fn chunk(&self, lanes: &[(u64, Duration)]) {
        let Some(inner) = &self.inner else { return };
        let items: u64 = lanes.iter().map(|(n, _)| n).sum();
        let mut state = inner.state.lock().expect("obs state poisoned");
        let index = state.chunks_dispatched;
        state.chunks_dispatched += 1;
        state.events.push(Event::Chunk {
            index,
            items,
            workers: lanes.len(),
        });
        for (worker, (items, busy)) in lanes.iter().enumerate() {
            let agg = state.workers.entry(worker).or_default();
            agg.items += items;
            agg.busy += *busy;
        }
    }

    /// Builds the aggregated report of everything recorded so far.
    ///
    /// `wall_ns` is the elapsed time since [`ObsSink::enabled`], so a
    /// sink created immediately before the measured work yields a total
    /// the top-level phases tile. A disabled sink reports empty tables.
    #[must_use]
    pub fn report(&self, run: &str, spec: &str, threads: usize) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport {
                run: run.to_owned(),
                spec: spec.to_owned(),
                threads,
                wall_ns: 0,
                phases: Vec::new(),
                counters: Vec::new(),
                speculation: Speculation::default(),
                warmstart: Warmstart::default(),
            };
        };
        let wall_ns = inner.started.elapsed().as_nanos() as u64;
        let state = inner.state.lock().expect("obs state poisoned");
        RunReport {
            run: run.to_owned(),
            spec: spec.to_owned(),
            threads,
            wall_ns,
            phases: state
                .phases
                .iter()
                .map(|(name, agg)| PhaseReport {
                    phase: (*name).to_owned(),
                    calls: agg.calls,
                    wall_ns: agg.wall.as_nanos() as u64,
                })
                .collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, value)| CounterTotal {
                    counter: (*name).to_owned(),
                    value: *value,
                })
                .collect(),
            speculation: Speculation {
                chunks_speculated: state.chunks_speculated,
                speculative_waste: state.speculative_waste,
                tasks_stolen: state.tasks_stolen,
                steal_failures: state.steal_failures,
                batch_bind_calls: state.batch_bind_calls,
                workers: state
                    .workers
                    .iter()
                    .map(|(worker, agg)| WorkerLane {
                        worker: *worker,
                        items: agg.items,
                        busy_ns: agg.busy.as_nanos() as u64,
                    })
                    .collect(),
            },
            warmstart: state.warmstart.clone(),
        }
    }

    /// Renders the recorded event stream as JSON lines: a `run` header,
    /// the `span`/`chunk` events in recording order, the sorted counter
    /// totals, and an `end` line. Line structure and order are
    /// deterministic for a fixed configuration; only `_ns` values vary.
    #[must_use]
    pub fn events_jsonl(&self, report: &RunReport) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"ev\":\"run\",\"run\":\"{}\",\"spec\":\"{}\",\"threads\":{}}}",
            json_escape(&report.run),
            json_escape(&report.spec),
            report.threads
        );
        if let Some(inner) = &self.inner {
            let state = inner.state.lock().expect("obs state poisoned");
            for event in &state.events {
                match event {
                    Event::Span { phase, wall_ns } => {
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"span\",\"phase\":\"{phase}\",\"wall_ns\":{wall_ns}}}"
                        );
                    }
                    Event::Chunk {
                        index,
                        items,
                        workers,
                    } => {
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"chunk\",\"index\":{index},\"items\":{items},\
                             \"workers\":{workers}}}"
                        );
                    }
                }
            }
        }
        for counter in &report.counters {
            let _ = writeln!(
                out,
                "{{\"ev\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(&counter.counter),
                counter.value
            );
        }
        let _ = writeln!(out, "{{\"ev\":\"end\",\"wall_ns\":{}}}", report.wall_ns);
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregated wall-clock of one named phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name from the [`phase`] catalog.
    pub phase: String,
    /// Spans recorded (dotted phases: may include speculative work).
    pub calls: u64,
    /// Total wall-clock spent in the phase, nanoseconds.
    pub wall_ns: u64,
}

/// One deterministic counter total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterTotal {
    /// Counter name.
    pub counter: String,
    /// Final value — byte-identical across `--threads` settings.
    pub value: u64,
}

/// Per-worker dispatch statistics of one speculative lane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerLane {
    /// Worker index within its chunk (0 = first lane).
    pub worker: usize,
    /// Candidates evaluated by this lane across all chunks.
    pub items: u64,
    /// Busy wall-clock of this lane, nanoseconds.
    pub busy_ns: u64,
}

/// Thread-variant statistics of the speculative-chunk engine; excluded
/// from the cross-thread determinism guarantee of [`RunReport::counters`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Speculation {
    /// Speculative chunks dispatched (0 on sequential runs).
    pub chunks_speculated: u64,
    /// Candidates evaluated speculatively and then discarded by the exact
    /// merge-time pruning re-check.
    pub speculative_waste: u64,
    /// Tasks executed by a worker other than the one their deterministic
    /// deal assigned them to (0 on sequential runs).
    pub tasks_stolen: u64,
    /// Steal probes that found the victim's deque empty.
    pub steal_failures: u64,
    /// Implement-stage setups answered by the shared batch-binding
    /// activation cache instead of a fresh ECA enumeration.
    pub batch_bind_calls: u64,
    /// Per-worker-lane dispatch/busy aggregates.
    pub workers: Vec<WorkerLane>,
}

/// Warm-start replay statistics of a cache-assisted run. Deterministic at
/// any thread count (the hit accounting happens at sequence-order merge
/// time), but necessarily different between warm and cold runs — so they
/// are excluded from [`RunReport::counters`], which warm runs must
/// reproduce byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Warmstart {
    /// Replay level: `cold`, `seeded`, `replay` or `exact`. Empty when the
    /// run used no cache.
    pub mode: String,
    /// Cached artifacts replayed instead of recomputed (candidates, memo
    /// entries, bind outcomes).
    pub warm_hits: u64,
    /// Cached entries discarded because the spec delta touched them.
    pub warm_invalidated: u64,
    /// Units whose content signature changed relative to the cached spec.
    pub delta_units: u64,
}

/// The aggregated evidence of one observed run.
///
/// Serde field order is the declaration order below and never changes, so
/// serialized reports are byte-stable; `counters` is additionally
/// byte-identical across `--threads` settings (the property test in
/// `tests/obs.rs` asserts this on the bundled models).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// What ran: `explore`, `resilience`, `faults`, `lint`.
    pub run: String,
    /// The specification (model) observed.
    pub spec: String,
    /// Requested worker-thread count (1 = sequential engine).
    pub threads: usize,
    /// Total wall-clock of the run, nanoseconds.
    pub wall_ns: u64,
    /// Per-phase wall-clock, sorted by phase name.
    pub phases: Vec<PhaseReport>,
    /// Deterministic counter totals, sorted by counter name.
    pub counters: Vec<CounterTotal>,
    /// Thread-variant speculation statistics.
    pub speculation: Speculation,
    /// Warm-start replay statistics (all-default when no cache was used).
    pub warmstart: Warmstart,
}

impl RunReport {
    /// Serializes the report as pretty JSON with stable field order.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (practically unreachable for this
    /// type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report previously rendered by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Looks up a deterministic counter total by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.counter == name)
            .map(|c| c.value)
    }

    /// The compact serialization of the deterministic counter section —
    /// the bytes the cross-thread determinism tests compare.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (practically unreachable).
    pub fn counters_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&self.counters)
    }

    /// Sum of the wall-clock of the top-level (undotted) phases. These
    /// are disjoint driver-side segments, so the sum is at most — and for
    /// a fully instrumented run close to — [`RunReport::wall_ns`].
    #[must_use]
    pub fn top_level_wall_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.phase.contains('.'))
            .map(|p| p.wall_ns)
            .sum()
    }

    /// The `top_k` hottest phases by wall-clock (ties toward the
    /// alphabetically earlier name, so the selection is deterministic).
    #[must_use]
    pub fn hottest_phases(&self, top_k: usize) -> Vec<&PhaseReport> {
        let mut sorted: Vec<&PhaseReport> = self.phases.iter().collect();
        sorted.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.phase.cmp(&b.phase)));
        sorted.truncate(top_k);
        sorted
    }

    /// Renders the human-readable profile: a top-`top_k` phase table,
    /// the counter totals, and the speculation line.
    #[must_use]
    pub fn render_text(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} on {} — {} thread(s), {:.3} ms wall",
            self.run,
            self.spec,
            self.threads,
            self.wall_ns as f64 / 1e6
        );
        let hottest = self.hottest_phases(top_k);
        if hottest.is_empty() {
            let _ = writeln!(out, "  (no phases recorded)");
        } else {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12} {:>7}",
                "phase", "calls", "wall", "%"
            );
            for p in &hottest {
                let share = if self.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * p.wall_ns as f64 / self.wall_ns as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>9.3} ms {:>6.1}%",
                    p.phase,
                    p.calls,
                    p.wall_ns as f64 / 1e6,
                    share
                );
            }
            let hidden = self.phases.len().saturating_sub(hottest.len());
            if hidden > 0 {
                let _ = writeln!(out, "  (+{hidden} more phase(s))");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters (thread-invariant):");
            for c in &self.counters {
                let _ = writeln!(out, "    {} = {}", c.counter, c.value);
            }
        }
        let s = &self.speculation;
        if s.chunks_speculated > 0 || !s.workers.is_empty() {
            let lanes: Vec<String> = s
                .workers
                .iter()
                .map(|w| {
                    format!(
                        "w{} {} item(s) {:.3} ms",
                        w.worker,
                        w.items,
                        w.busy_ns as f64 / 1e6
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "  speculation: {} chunk(s), {} wasted attempt(s){}{}",
                s.chunks_speculated,
                s.speculative_waste,
                if lanes.is_empty() { "" } else { "; " },
                lanes.join(", ")
            );
        }
        if s.tasks_stolen > 0 || s.steal_failures > 0 || s.batch_bind_calls > 0 {
            let _ = writeln!(
                out,
                "  scheduler: {} task(s) stolen, {} empty probe(s), {} batched bind setup(s)",
                s.tasks_stolen, s.steal_failures, s.batch_bind_calls
            );
        }
        let w = &self.warmstart;
        if !w.mode.is_empty() {
            let _ = writeln!(
                out,
                "  warm-start: {} — {} replayed, {} invalidated, {} changed unit(s)",
                w.mode, w.warm_hits, w.warm_invalidated, w.delta_units
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sink() -> ObsSink {
        let sink = ObsSink::enabled();
        let t = sink.start();
        std::thread::sleep(Duration::from_millis(1));
        sink.finish(phase::COMPILE, t);
        let t = sink.start();
        sink.finish(phase::BIND, t);
        sink.add_time(phase::BIND_SOLVE, 3, Duration::from_micros(500));
        sink.count("implement_attempts", 2);
        sink.count("implement_attempts", 1);
        sink.set_count("pareto_points", 6);
        sink.speculation(2, 1);
        sink.chunk(&[
            (3, Duration::from_micros(10)),
            (2, Duration::from_micros(8)),
        ]);
        sink
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        assert!(!sink.is_enabled());
        let t = sink.start();
        sink.finish(phase::COMPILE, t);
        sink.count("x", 7);
        sink.speculation(1, 1);
        sink.chunk(&[(1, Duration::from_nanos(1))]);
        let report = sink.report("explore", "s", 1);
        assert!(report.phases.is_empty());
        assert!(report.counters.is_empty());
        assert_eq!(report.speculation, Speculation::default());
        assert_eq!(report.wall_ns, 0);
    }

    #[test]
    fn phases_and_counters_aggregate() {
        let report = sample_sink().report("explore", "demo", 2);
        assert_eq!(report.counter("implement_attempts"), Some(3));
        assert_eq!(report.counter("pareto_points"), Some(6));
        assert_eq!(report.counter("absent"), None);
        let solve = report
            .phases
            .iter()
            .find(|p| p.phase == phase::BIND_SOLVE)
            .unwrap();
        assert_eq!(solve.calls, 3);
        assert!(solve.wall_ns >= 500_000);
        // Phases are name-sorted; counters are name-sorted.
        let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // Top-level sum excludes the dotted sub-phase.
        let top = report.top_level_wall_ns();
        let compile = report
            .phases
            .iter()
            .find(|p| p.phase == phase::COMPILE)
            .unwrap();
        let bind = report
            .phases
            .iter()
            .find(|p| p.phase == phase::BIND)
            .unwrap();
        assert_eq!(top, compile.wall_ns + bind.wall_ns);
        assert!(report.wall_ns >= top);
        // Speculation captured both the explicit totals and the lanes.
        assert_eq!(report.speculation.chunks_speculated, 2);
        assert_eq!(report.speculation.speculative_waste, 1);
        assert_eq!(report.speculation.workers.len(), 2);
        assert_eq!(report.speculation.workers[0].items, 3);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = sample_sink().report("explore", "demo", 4);
        let json = report.to_json().unwrap();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        // Stable field order: the document leads with the identity block.
        let run_pos = json.find("\"run\"").unwrap();
        let spec_pos = json.find("\"spec\"").unwrap();
        let phases_pos = json.find("\"phases\"").unwrap();
        let counters_pos = json.find("\"counters\"").unwrap();
        assert!(run_pos < spec_pos && spec_pos < phases_pos && phases_pos < counters_pos);
    }

    #[test]
    fn hottest_phases_are_ranked_and_truncated() {
        let report = sample_sink().report("explore", "demo", 1);
        let top = report.hottest_phases(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].phase, phase::COMPILE); // slept 1 ms there
        assert!(report.hottest_phases(100).len() == report.phases.len());
    }

    #[test]
    fn render_text_contains_the_profile_elements() {
        let report = sample_sink().report("explore", "demo", 2);
        let text = report.render_text(2);
        assert!(text.contains("profile: explore on demo"), "{text}");
        assert!(text.contains("compile"), "{text}");
        assert!(text.contains("implement_attempts = 3"), "{text}");
        assert!(
            text.contains("speculation: 2 chunk(s), 1 wasted attempt(s)"),
            "{text}"
        );
        assert!(text.contains("more phase(s)"), "{text}");
    }

    #[test]
    fn events_jsonl_is_structurally_deterministic() {
        let strip_ns = |s: &str| -> String {
            s.lines()
                .map(|line| {
                    let mut out = String::new();
                    let mut chars = line.chars().peekable();
                    let mut in_ns = false;
                    while let Some(c) = chars.next() {
                        if in_ns {
                            if c.is_ascii_digit() {
                                continue;
                            }
                            in_ns = false;
                        }
                        out.push(c);
                        if out.ends_with("_ns\":") {
                            let _ = chars.peek();
                            in_ns = true;
                        }
                    }
                    out
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = {
            let sink = sample_sink();
            let report = sink.report("explore", "demo", 2);
            sink.events_jsonl(&report)
        };
        let b = {
            let sink = sample_sink();
            let report = sink.report("explore", "demo", 2);
            sink.events_jsonl(&report)
        };
        assert_eq!(strip_ns(&a), strip_ns(&b));
        assert!(a.starts_with("{\"ev\":\"run\""), "{a}");
        assert!(a.contains("{\"ev\":\"span\",\"phase\":\"compile\""), "{a}");
        assert!(
            a.contains("{\"ev\":\"chunk\",\"index\":0,\"items\":5,\"workers\":2}"),
            "{a}"
        );
        assert!(a.contains("{\"ev\":\"counter\",\"name\":\"implement_attempts\",\"value\":3}"));
        assert!(a
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"ev\":\"end\""));
        // Every line parses as a standalone JSON object.
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn cloned_sinks_share_state() {
        let sink = ObsSink::enabled();
        let clone = sink.clone();
        clone.count("shared", 5);
        assert_eq!(sink.report("r", "s", 1).counter("shared"), Some(5));
    }
}
