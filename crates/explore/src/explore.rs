//! The EXPLORE branch-and-bound algorithm (Section 4 of the paper) and the
//! exhaustive baseline.
//!
//! EXPLORE finds all Pareto-optimal flexibility/cost design points:
//!
//! 1. enumerate the *possible resource allocations* and sort them by
//!    increasing cost;
//! 2. visit them in that order, skipping every candidate whose estimated
//!    (upper-bound) flexibility does not exceed the best implemented
//!    flexibility so far — such a candidate is dominated by an already
//!    accepted, cheaper point;
//! 3. only for survivors, invoke the NP-complete binding construction and
//!    the timing validation; accept the point if its *implemented*
//!    flexibility is a strict improvement.
//!
//! Because candidates arrive in cost order, every accepted point is
//! Pareto-optimal, and the algorithm finds **all** Pareto-optimal points
//! (the correctness property the `explore-vs-exhaustive` property tests
//! assert).
//!
//! Steps 2 and 3 are one bind/merge loop ([`bind_merge`]), shared with
//! the design queries and the upgrade, resilient and weighted
//! explorations. It visits the candidates in chunks: at one thread a chunk
//! is the single next candidate that survives the bound, so nothing is
//! speculated; with [`ExploreOptions::threads`] > 1 a chunk is
//! up to `threads × 4` bound-surviving candidates, implemented
//! concurrently against the shared [`CompiledSpec`] (see the crate's
//! `parallel` module), then merged in cost order with the pruning bound
//! re-checked at its exact sequential value. The Pareto front and every
//! pruning counter are **byte-identical** at every thread count; only
//! [`ExploreStats::chunks_speculated`] and
//! [`ExploreStats::speculative_waste`] depend on it.

use crate::allocations::{
    allocatable_units, enumerate, AllocationOptions, AllocationStats, CandidateRow,
};
use crate::error::ExploreError;
use crate::parallel::{resolve_threads, run_stealing, SPECULATION_DEPTH};
use crate::pareto::{DesignPoint, ParetoFront};
use flexplore_bind::{implement_allocation, BindingBatch, ImplementOptions, Implementation};
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{allocation_from_units, CompiledSpec, SpecificationGraph, UnitMask};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Options for [`explore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreOptions {
    /// Allocation-enumeration options (structural prunings live here).
    pub allocation: AllocationOptions,
    /// Per-allocation implementation options (binding search, timing
    /// policy).
    pub implement: ImplementOptions,
    /// Apply the flexibility-estimation pruning (step 2 above). Disabling
    /// it turns EXPLORE into "implement every possible allocation" — the
    /// ablation baseline.
    pub flexibility_pruning: bool,
    /// Worker threads for the candidate evaluation (`0` = all available
    /// cores). Any value produces output byte-identical to `1`; see the
    /// module documentation for the determinism argument.
    pub threads: usize,
}

impl Default for ExploreOptions {
    /// Defaults to the paper's configuration ([`ExploreOptions::paper`]).
    fn default() -> Self {
        ExploreOptions::paper()
    }
}

impl ExploreOptions {
    /// The paper's configuration: all prunings on.
    #[must_use]
    pub fn paper() -> Self {
        ExploreOptions {
            allocation: AllocationOptions::default(),
            implement: ImplementOptions::default(),
            flexibility_pruning: true,
            threads: 1,
        }
    }

    /// Exhaustive baseline: no structural pruning, no flexibility pruning —
    /// every subset that supports a complete activation is implemented.
    #[must_use]
    pub fn exhaustive() -> Self {
        ExploreOptions {
            allocation: AllocationOptions {
                prune_useless_buses: false,
                prune_unusable: false,
                ..AllocationOptions::default()
            },
            implement: ImplementOptions::default(),
            flexibility_pruning: false,
            threads: 1,
        }
    }

    /// Returns these options with the candidate evaluation running on
    /// `threads` workers (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Counters describing one exploration run — the numbers Section 5 of the
/// paper reports for the case study (raw search-space size, possible
/// allocations, binding attempts, Pareto points).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// `|V_S|`: the raw search space is `2^{vertex_set_size}` design
    /// points.
    pub vertex_set_size: usize,
    /// Allocation-enumeration counters.
    pub allocations: AllocationStats,
    /// Candidates skipped by the flexibility-estimation pruning.
    pub estimate_skipped: u64,
    /// Candidates for which the binding solver was invoked.
    pub implement_attempts: u64,
    /// Attempts that produced a feasible implementation.
    pub feasible: u64,
    /// Pareto-optimal design points found.
    pub pareto_points: u64,
    /// Speculative candidate chunks dispatched by the parallel driver
    /// (0 on sequential runs). Varies with the thread count.
    pub chunks_speculated: u64,
    /// Candidates implemented speculatively but discarded by the exact
    /// merge-time pruning re-check — wasted work, never wrong answers.
    /// Varies with the thread count.
    pub speculative_waste: u64,
}

/// Result of an exploration run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreResult {
    /// The Pareto-optimal flexibility/cost trade-off curve.
    pub front: ParetoFront,
    /// Run statistics.
    pub stats: ExploreStats,
}

/// Runs the EXPLORE algorithm on `spec`: compiles it, then runs
/// [`explore_compiled_obs`] unobserved.
///
/// # Errors
///
/// Returns [`ExploreError::TooManyUnits`] when the architecture exceeds the
/// enumeration bound and [`ExploreError::Bind`] when a candidate exceeds
/// the per-allocation activation bound.
pub fn explore(
    spec: &SpecificationGraph,
    options: &ExploreOptions,
) -> Result<ExploreResult, ExploreError> {
    explore_compiled_obs(
        &CompiledSpec::with_activation_cache(spec),
        options,
        &ObsSink::disabled(),
    )
}

/// The EXPLORE engine over a caller-provided [`CompiledSpec`] (build it
/// with [`CompiledSpec::with_activation_cache`] to share the flattened
/// activations across every candidate; time that call yourself if you
/// want a `compile` phase). Allocation enumeration (`enumerate` and its
/// `enumerate.*` sub-phases), binding checks (`bind` spans around each
/// chunk, plus the `bind.*` sub-phases of the implement pipeline), Pareto
/// filtering (`pareto` spans around archive insertions) and per-worker
/// speculation lanes are recorded into `obs`; the final [`ExploreStats`]
/// are published as deterministic counters. Identical output with any
/// sink; with a disabled sink no clocks are read.
///
/// # Errors
///
/// See [`explore`].
pub fn explore_compiled_obs(
    compiled: &CompiledSpec<'_>,
    options: &ExploreOptions,
    obs: &ObsSink,
) -> Result<ExploreResult, ExploreError> {
    explore_inner(compiled, options, obs, None, &HashMap::new(), false).map(|(result, _)| result)
}

/// What one exploration run hands the cache for persisting.
#[derive(Debug)]
pub(crate) struct ExploreCapture {
    /// The candidate rows in enumeration (cost) order.
    pub candidates: Vec<CandidateRow>,
    /// Bind outcome per implement attempt, in attempt order.
    pub binds: Vec<(UnitMask, Option<Implementation>)>,
}

/// [`explore_compiled_obs`] extended with the hooks of the warm-start
/// cache and of [`explore_upgrades`](crate::explore_upgrades):
///
/// * `rows` — candidate rows and enumeration counters used instead of
///   walking the lattice: a cache entry's rows (the *replay* level; sound
///   only when no unit's enumeration signature changed, because the
///   enumeration is deterministic), or the rows that contain an upgrade's
///   base;
/// * `cached_binds` — bind outcomes keyed by candidate unit mask,
///   consulted before the binding solver (`None` records "attempted,
///   infeasible");
/// * `capture` — hand back what the exploration cache persists.
///
/// With no rows, no cached binds and capture off this *is* the cold path
/// — same work, same counters. Walked or handed in, the rows go through
/// the same bind loop: the bound is a row's estimate value, and an
/// allocation is rebuilt from a row's mask only when the solver runs on it.
///
/// Determinism: cached bind outcomes are a pure function of the candidate
/// mask, so replaying them changes which attempts pay solver time, never
/// the outcome; warm-hit accounting happens in merge order. All
/// deterministic counters are byte-identical to the cold run at any
/// thread count.
pub(crate) fn explore_inner(
    compiled: &CompiledSpec<'_>,
    options: &ExploreOptions,
    obs: &ObsSink,
    rows: Option<(Vec<CandidateRow>, AllocationStats)>,
    cached_binds: &HashMap<UnitMask, Option<Implementation>>,
    capture: bool,
) -> Result<(ExploreResult, Option<ExploreCapture>), ExploreError> {
    let timer = obs.start();
    let (rows, alloc_stats) = match rows {
        Some(rows) => rows,
        None => {
            let out = enumerate(compiled, &options.allocation, obs)?;
            (out.rows, out.stats)
        }
    };
    obs.finish(phase::ENUMERATE, timer);
    let mut stats = ExploreStats {
        vertex_set_size: compiled.spec().vertex_set_size(),
        allocations: alloc_stats,
        ..ExploreStats::default()
    };
    let mut bind_hits: u64 = 0;
    let mut bind_out: Vec<(UnitMask, Option<Implementation>)> = Vec::new();
    let mut front = ParetoFront::new();
    let batch = BindingBatch::new();
    let solve = implement_rows(compiled, &rows, &options.implement, &batch, obs);
    bind_merge(
        rows.len(),
        options,
        obs,
        &mut stats,
        |i| rows[i].value,
        |i| match cached_binds.get(&rows[i].mask) {
            Some(cached) => Ok(cached.clone()),
            None => solve(i),
        },
        // Warm-hit accounting happens here, over exactly the attempts the
        // sequential run makes, so it is thread-invariant.
        |i, implemented, f_cur| {
            if cached_binds.contains_key(&rows[i].mask) {
                bind_hits += 1;
            }
            if capture {
                bind_out.push((rows[i].mask, implemented.clone()));
            }
            let Some(implementation) = implemented else {
                return Ok(ControlFlow::Continue(f_cur));
            };
            let flexibility = implementation.flexibility;
            let timer = obs.start();
            let inserted = front.insert(DesignPoint::from_implementation(implementation));
            obs.finish(phase::PARETO, timer);
            Ok(ControlFlow::Continue(if inserted {
                f_cur.max(flexibility)
            } else {
                f_cur
            }))
        },
    )?;
    // `solve` borrows the rows, which the capture takes.
    drop(solve);
    stats.pareto_points = front.len() as u64;
    stats.allocations.warm_hits += bind_hits;
    obs.batch_bind(batch.hits());
    publish_stats(obs, &stats);
    let captured = capture.then_some(ExploreCapture {
        candidates: rows,
        binds: bind_out,
    });
    Ok((ExploreResult { front, stats }, captured))
}

/// The solver call of the bind loop over `rows`: rebuilds row `i`'s
/// allocation from its mask and implements it. One `batch` per run lets
/// sibling candidates that activate the same cluster set share one ECA
/// enumeration (across workers, when speculating).
pub(crate) fn implement_rows<'a>(
    compiled: &'a CompiledSpec<'a>,
    rows: &'a [CandidateRow],
    options: &'a ImplementOptions,
    batch: &'a BindingBatch,
    obs: &'a ObsSink,
) -> impl Fn(usize) -> Result<Option<Implementation>, ExploreError> + Sync + 'a {
    let units = allocatable_units(compiled.spec());
    move |i| {
        let allocation = allocation_from_units(&units, rows[i].mask);
        Ok(implement_allocation(compiled, &allocation, options, Some(batch), obs)?.0)
    }
}

/// The cost-ordered bind/merge loop of EXPLORE, generic over the pruning
/// bound (the integer flexibility of [`explore`], the weighted
/// flexibility of [`explore_weighted`](crate::explore_weighted)) and over
/// what a merged implementation means to the caller.
///
/// Candidates `0..len` arrive in cost order; `bound(i)` is candidate `i`'s
/// optimistic estimate. With `options.flexibility_pruning`, a candidate
/// whose bound does not exceed the best value so far (`f_cur`, starting
/// at the bound's default of 0) is skipped. Survivors are
/// gathered into chunks — one candidate at one thread, up to
/// `options.threads × SPECULATION_DEPTH` when speculating — and
/// `implement(i)` runs over each chunk on the work-stealing fan-out
/// inside one `bind` span. The bound only grows, so the collection-time
/// skips are a subset of the sequential ones; the
/// merge re-checks every result in cost order against the exact current
/// bound, discards the ones the sequential run never computes (errors
/// included) as speculative waste, and hands the rest to
/// `merge(i, implemented, f_cur)`. The merge returns the new bound, or
/// breaks to end the loop there (the rest of the chunk is dropped); its
/// errors end the loop too.
///
/// Fills the bind-stage fields of `stats`: `estimate_skipped`,
/// `implement_attempts`, `feasible`, `chunks_speculated` and
/// `speculative_waste`.
pub(crate) fn bind_merge<B, I, M>(
    len: usize,
    options: &ExploreOptions,
    obs: &ObsSink,
    stats: &mut ExploreStats,
    bound: impl Fn(usize) -> B,
    implement: I,
    mut merge: M,
) -> Result<(), ExploreError>
where
    B: Copy + Default + PartialOrd,
    I: Fn(usize) -> Result<Option<Implementation>, ExploreError> + Sync,
    M: FnMut(usize, Option<Implementation>, B) -> Result<ControlFlow<(), B>, ExploreError>,
{
    let threads = resolve_threads(options.threads);
    let pruning = options.flexibility_pruning;
    let speculative = threads > 1;
    let chunk_target = if speculative {
        threads.saturating_mul(SPECULATION_DEPTH)
    } else {
        1
    };
    let mut f_cur = B::default();
    let mut chunk: Vec<usize> = Vec::with_capacity(chunk_target);
    let mut next = 0;
    while next < len {
        chunk.clear();
        while next < len && chunk.len() < chunk_target {
            if pruning && bound(next) <= f_cur {
                stats.estimate_skipped += 1;
            } else {
                chunk.push(next);
            }
            next += 1;
        }
        if chunk.is_empty() {
            continue;
        }
        stats.chunks_speculated += u64::from(speculative);
        let timer = obs.start();
        let outcomes = run_stealing(&chunk, threads, obs, |_, _| 1, |&i| implement(i));
        obs.finish(phase::BIND, timer);
        for (&i, outcome) in chunk.iter().zip(outcomes) {
            if pruning && bound(i) <= f_cur {
                stats.estimate_skipped += 1;
                stats.speculative_waste += 1;
                continue;
            }
            stats.implement_attempts += 1;
            let implemented = outcome?;
            stats.feasible += u64::from(implemented.is_some());
            match merge(i, implemented, f_cur)? {
                ControlFlow::Continue(bound) => f_cur = bound,
                ControlFlow::Break(()) => return Ok(()),
            }
        }
    }
    Ok(())
}

/// Publishes the run's [`ExploreStats`] into `obs`: the thread-invariant
/// numbers as deterministic counters, the speculation numbers into the
/// thread-variant speculation section. The warm-start fields of
/// [`AllocationStats`] are deliberately *not* published as counters —
/// warm runs must reproduce the cold counter bytes — and go through
/// [`ObsSink::warmstart`] instead (the cache layer calls it with the
/// replay mode).
pub(crate) fn publish_stats(obs: &ObsSink, stats: &ExploreStats) {
    if !obs.is_enabled() {
        return;
    }
    obs.set_count("vertex_set_size", stats.vertex_set_size as u64);
    obs.set_count("units", stats.allocations.units as u64);
    obs.set_count("subsets", stats.allocations.subsets);
    obs.set_count("pruned_structurally", stats.allocations.pruned_structurally);
    obs.set_count("infeasible", stats.allocations.infeasible);
    obs.set_count("possible_allocations", stats.allocations.kept);
    obs.set_count("nodes_visited", stats.allocations.nodes_visited);
    obs.set_count("subtrees_pruned", stats.allocations.subtrees_pruned);
    obs.set_count("estimate_memo_hits", stats.allocations.estimate_memo_hits);
    obs.set_count("memo_cross_hits", stats.allocations.memo_cross_hits);
    obs.set_count(
        "estimate_delta_pushes",
        stats.allocations.estimate_delta_pushes,
    );
    obs.set_count(
        "analysis_mandatory_forced",
        stats.allocations.analysis_mandatory_forced,
    );
    obs.set_count(
        "analysis_subtrees_skipped",
        stats.allocations.analysis_subtrees_skipped,
    );
    obs.set_count(
        "symmetry_orbit_expansions",
        stats.allocations.symmetry_orbit_expansions,
    );
    obs.set_count("estimate_skipped", stats.estimate_skipped);
    obs.set_count("implement_attempts", stats.implement_attempts);
    obs.set_count("feasible", stats.feasible);
    obs.set_count("pareto_points", stats.pareto_points);
    obs.speculation(stats.chunks_speculated, stats.speculative_waste);
}

/// Runs the exhaustive baseline: implement every allocation that supports a
/// complete activation, archive the non-dominated points.
///
/// Identical output to [`explore`] (that is the paper's correctness claim);
/// exponentially more binding-solver invocations.
///
/// # Errors
///
/// See [`explore`].
pub fn exhaustive_explore(spec: &SpecificationGraph) -> Result<ExploreResult, ExploreError> {
    explore(spec, &ExploreOptions::exhaustive())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::{PortDirection, PortTarget, Scope};
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs};

    /// Small two-alternative spec: I{c1: fast-needs-asic, c2: cpu-ok}
    /// with an output period. CPU implements c2 only; CPU+ASIC implements
    /// both.
    fn spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let port = p.add_port(i, "out", PortDirection::Out);
        let sink = p.add_process_with(
            Scope::Top,
            "sink",
            ProcessAttrs::new().with_period(Time::from_ns(100)),
        );
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        p.map_port(c1, port, PortTarget::vertex(v1)).unwrap();
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        p.map_port(c2, port, PortTarget::vertex(v2)).unwrap();
        p.add_dependence((i, port), sink).unwrap();

        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(80));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(10));
        a.connect(cpu, bus).unwrap();
        a.connect(bus, asic).unwrap();

        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(sink, cpu, Time::from_ns(10)).unwrap();
        // v1 only fits on the asic (cpu too slow for the period).
        s.add_mapping(v1, cpu, Time::from_ns(95)).unwrap();
        s.add_mapping(v1, asic, Time::from_ns(5)).unwrap();
        s.add_mapping(v2, cpu, Time::from_ns(20)).unwrap();
        s
    }

    #[test]
    fn explore_finds_the_two_point_front() {
        let result = explore(&spec(), &ExploreOptions::paper()).unwrap();
        let objectives = result.front.objectives();
        assert_eq!(
            objectives,
            vec![(Cost::new(100), 1), (Cost::new(190), 2)],
            "cpu-only implements c2 (f=1); cpu+bus+asic implements both (f=2)"
        );
        assert_eq!(result.stats.pareto_points, 2);
        assert!(result.stats.implement_attempts >= 2);
    }

    #[test]
    fn exhaustive_agrees_with_explore() {
        let s = spec();
        let fast = explore(&s, &ExploreOptions::paper()).unwrap();
        let slow = exhaustive_explore(&s).unwrap();
        assert!(fast.front.same_objectives(&slow.front));
        // And the pruned run does no more work than the exhaustive one.
        assert!(fast.stats.implement_attempts <= slow.stats.implement_attempts);
    }

    #[test]
    fn pruning_skips_candidates() {
        // Extend the spec with a second, pricier CPU that adds no
        // flexibility: all its candidates are estimate-skipped after the
        // first CPU's point is implemented.
        let mut s = spec();
        let cpu2 = s
            .architecture_mut()
            .add_resource(Scope::Top, "cpu2", Cost::new(120));
        let sink = s
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "sink")
            .unwrap();
        let i = s
            .problem()
            .graph()
            .interface_by_name(Scope::Top, "I")
            .unwrap();
        let c2 = s.problem().graph().cluster_by_name(i, "c2").unwrap();
        let v2 = s.problem().graph().vertex_by_name(c2.into(), "v2").unwrap();
        s.add_mapping(sink, cpu2, Time::from_ns(10)).unwrap();
        s.add_mapping(v2, cpu2, Time::from_ns(20)).unwrap();

        let with = explore(&s, &ExploreOptions::paper()).unwrap();
        let without = explore(
            &s,
            &ExploreOptions {
                flexibility_pruning: false,
                ..ExploreOptions::paper()
            },
        )
        .unwrap();
        assert!(with.front.same_objectives(&without.front));
        assert!(with.stats.estimate_skipped > 0);
        assert_eq!(without.stats.estimate_skipped, 0);
        assert!(with.stats.implement_attempts < without.stats.implement_attempts);
    }

    #[test]
    fn threaded_explore_is_byte_identical() {
        let s = spec();
        let sequential = explore(&s, &ExploreOptions::paper()).unwrap();
        for threads in [2, 3, 8] {
            let parallel = explore(&s, &ExploreOptions::paper().with_threads(threads)).unwrap();
            assert_eq!(sequential.front.objectives(), parallel.front.objectives());
            assert_eq!(
                sequential.stats.estimate_skipped,
                parallel.stats.estimate_skipped
            );
            assert_eq!(
                sequential.stats.implement_attempts,
                parallel.stats.implement_attempts
            );
            assert_eq!(sequential.stats.feasible, parallel.stats.feasible);
            assert_eq!(sequential.stats.pareto_points, parallel.stats.pareto_points);
            assert!(parallel.stats.chunks_speculated > 0);
        }
    }

    #[test]
    fn observed_explore_is_unchanged_and_counters_are_thread_invariant() {
        let s = spec();
        let plain = explore(&s, &ExploreOptions::paper()).unwrap();
        let compiled = CompiledSpec::with_activation_cache(&s);
        let sink1 = ObsSink::enabled();
        let observed = explore_compiled_obs(&compiled, &ExploreOptions::paper(), &sink1).unwrap();
        assert_eq!(plain.front.objectives(), observed.front.objectives());
        assert_eq!(plain.stats, observed.stats);
        let report1 = sink1.report("explore", "s", 1);
        let sink4 = ObsSink::enabled();
        explore_compiled_obs(&compiled, &ExploreOptions::paper().with_threads(4), &sink4).unwrap();
        let report4 = sink4.report("explore", "s", 4);
        assert_eq!(
            report1.counters_json().unwrap(),
            report4.counters_json().unwrap(),
            "deterministic counter section must be byte-identical across thread counts"
        );
        assert_eq!(report1.counter("pareto_points"), Some(2));
        assert_eq!(
            report1.counter("implement_attempts"),
            Some(plain.stats.implement_attempts)
        );
        for expected in ["enumerate", "bind", "pareto"] {
            assert!(
                report1.phases.iter().any(|p| p.phase == expected),
                "missing phase {expected}"
            );
        }
        assert!(report4.speculation.chunks_speculated > 0);
        assert!(!report4.speculation.workers.is_empty());
    }

    #[test]
    fn stats_report_search_space() {
        let s = spec();
        let result = explore(&s, &ExploreOptions::paper()).unwrap();
        assert_eq!(result.stats.vertex_set_size, s.vertex_set_size());
        assert!(result.stats.allocations.subsets > 0);
    }

    #[test]
    fn empty_architecture_yields_empty_front() {
        let mut p = ProblemGraph::new("p");
        p.add_process(Scope::Top, "t");
        let a = ArchitectureGraph::new("a");
        let s = SpecificationGraph::new("s", p, a);
        let result = explore(&s, &ExploreOptions::paper()).unwrap();
        assert!(result.front.is_empty());
    }
}
