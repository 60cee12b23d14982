//! Branch-and-bound search over the allocation lattice.
//!
//! The flat scan (kept as a test oracle in `crates/fuzz`) judges every
//! one of the `2^units` subset masks on its own. Both pruning criteria,
//! however, are *monotone* over the subset lattice: adding units never
//! decreases the Def.-4 flexibility estimate (more resources can only
//! make more processes bindable) and never makes a feasible estimate
//! infeasible. The DFS below exploits both directions
//! of that monotonicity:
//!
//! * **Infeasible bound** — if the estimate of `current ∪ undecided` is
//!   infeasible, every completion of the branch is infeasible: the whole
//!   subtree is dropped after one feasibility probe. (With the estimate's
//!   flexibility bound at 0, the branch is Pareto-dominated at any cost —
//!   the bi-objective dominance prune degenerates to this feasibility
//!   test, because the enumeration must keep *every* feasible allocation
//!   for the downstream implement stage, not just Pareto candidates.)
//! * **Feasible fill** — if the estimate of `current` alone is feasible
//!   and no undecided unit can invalidate the structural prunes, every
//!   completion is a keeper: the subtree is emitted without visiting its
//!   nodes.
//!
//! Units are visited in ascending-cost order (ties keep the original unit
//! order), so each branch accumulates cost monotonically and sibling
//! subtrees with mandatory units die immediately. Subsets are
//! [`UnitMask`]s, so architectures past 64 units enumerate.
//!
//! # Incremental estimation
//!
//! Both feasibility questions of the DFS are answered in `O(1)` by two
//! [`DeltaEstimator`]s updated along the path: `current` tracks the
//! decided subset `mask`, `optimistic` tracks `mask ∪ undecided`.
//! Descending into the exclude branch pops the branching unit from
//! `optimistic` (and pushes it back on return); descending into the
//! include branch pushes it onto `current`. A full
//! [`FlexibilityEstimate`] is only *materialized* for emitted candidates,
//! memoized per estimate-relevant submask
//! ([`UnitMasks::estimate_relevant_mask`]): subsets differing only in
//! buses or unusable units share one entry. Materialization reruns the
//! same short-circuiting traversal as the non-incremental estimate, so
//! candidates stay byte-identical to the flat scan's. A kept candidate is
//! one [`CandidateRow`] plus a shared handle to its memoized estimate: the
//! walk neither copies an estimate nor builds a resource allocation.
//!
//! # Determinism
//!
//! The search always runs in two phases regardless of the thread count: a
//! sequential DFS down to [`BNB_PREFIX_DEPTH`] that collects deferred
//! subtree roots and fill blocks, then a fan-out of those items over the
//! work-stealing scheduler ([`run_stealing`]). Each item's sequence
//! id is its index in the deferral order, and the scheduler returns
//! results in sequence order however the steals interleaved, so the merge
//! replays the sequential schedule exactly. Every item runs with fresh
//! trackers positioned from its `(mask, depth)` alone. All walks share one
//! estimate memo, the scan-wide [`ShardedMemo`]: an estimate is a pure
//! function of its relevant submask, so a hit returns byte-identical data
//! to the materialization it replaces, and timing decides only *which*
//! worker pays each materialization (and with it the `enumerate.estimate`
//! phase timing split). The memo counters are therefore read off the fixed
//! decomposition, not the hit sequence: `estimate_memo_hits` is phase 1's
//! lookups minus the keys phase 1 materialized, and `memo_cross_hits` is
//! phase 2's lookups minus the keys phase 2 added. Lookup counts and the
//! memo's final key set are the same at every thread count.
//! `estimate_delta_pushes` counts the tracker pushes along the DFS path and
//! at tracker set-up; the transient pushes that materialize a fill subset
//! happen only on a memo miss, so they are left out. The final candidate
//! list is sorted by `(cost, estimate desc, original unit mask)`, which
//! reproduces the flat scan's stable sort over mask-ascending insertion
//! byte for byte.
//!
//! # Static-analysis pruning
//!
//! When the caller hands over an [`AnalysisFacts`] certificate (see
//! `flexplore_lint::analysis` and DESIGN.md §15), the DFS exploits three
//! proven fact kinds without changing the candidate list by a byte:
//!
//! * **Mandatory units** — every estimate-feasible subset contains them,
//!   so the exclude branch is attributed to `infeasible` wholesale and
//!   only the include branch is searched.
//! * **Dominated twins** — a dominated unit that is not a bus neighbor,
//!   not unusable and not in a symmetry class has an include subtree
//!   control-flow-isomorphic to its exclude subtree once a dominator is in
//!   the decided mask: the exclude subtree is searched once and every
//!   emission expands into the with/without pair.
//! * **Symmetry orbits** — interchangeable units are kept adjacent in the
//!   DFS order; each run of `s` class members branches once per choice
//!   count `k` (exploring the canonical `k`-prefix) instead of `2^s`
//!   times, and emissions expand back to all `C(s, k)` member choices.
//!
//! The mirrored and collapsed subtrees scale the per-subset prune
//! counters by a branch multiplier, so the sum invariant
//! `pruned_structurally + infeasible + kept == subsets` is preserved
//! exactly (below the 64-unit saturation point). Attribution *between*
//! the two prune categories may shift relative to the analysis-free walk
//! — a mirrored subtree is judged at its surviving sibling's depth — but
//! `kept`, the candidates, and their order never change.

use crate::allocations::{AllocationOptions, AllocationStats, CandidateRow, EnumerationOutput};
use crate::memo::ShardedMemo;
use crate::parallel::run_stealing;
use flexplore_flex::{DeltaEstimator, DeltaIndex, FlexibilityEstimate};
use flexplore_lint::AnalysisFacts;
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{CompiledSpec, Cost, Unit, UnitMask, UnitMasks};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Depth of the sequential DFS prefix; subtrees rooted below it are
/// deferred and fanned out over the worker threads. 6 yields at most 64
/// deferred items — plenty of slack for load-balancing a handful of
/// workers while keeping the sequential prefix negligible.
pub(crate) const BNB_PREFIX_DEPTH: usize = 6;

/// Number of subsets of a `bits`-unit lattice, saturating at `u64::MAX`
/// for 64 units and beyond. Per-subset counters lose exactness past the
/// saturation point but stay deterministic and monotone.
fn subset_count(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        1u64 << bits
    }
}

/// Exact binomial coefficient `C(n, k)`, saturating at `u64::MAX`. The
/// running value is itself a binomial at every step, so the result is
/// exact whenever it fits in a `u64`.
fn binom_sat(n: u64, k: u64) -> u64 {
    let k = k.min(n - k);
    let mut r: u64 = 1;
    for i in 0..k {
        match r.checked_mul(n - i) {
            Some(v) => r = v / (i + 1),
            None => return u64::MAX,
        }
    }
    r
}

/// One deferred candidate-expansion step on the DFS path: the walk
/// explored a canonical representative subtree, and every subset emitted
/// from it stands for a whole family of equivalent subsets that
/// [`emit`] materializes.
#[derive(Clone)]
enum Expansion {
    /// The symmetry-class run `start..start + len` was entered with its
    /// `k`-prefix included; expand to every `k`-subset of the run.
    Orbit { start: usize, len: usize, k: usize },
    /// A dominated unit whose include subtree mirrors the explored
    /// exclude subtree; expand into the without/with pair.
    Twin { unit: usize },
}

/// Work deferred by the phase-1 prefix walk for the phase-2 fan-out.
enum Pending {
    /// A subtree root at or past [`BNB_PREFIX_DEPTH`] (symmetry-orbit
    /// jumps can overshoot it), to be expanded by a worker.
    Expand {
        mask: UnitMask,
        depth: usize,
        cost: Cost,
        feasible: bool,
        mult: u64,
        expansions: Vec<Expansion>,
    },
    /// A uniformly-feasible block found above the prefix depth: every
    /// completion of `mask` over the units from `depth` on is a keeper.
    Fill {
        mask: UnitMask,
        depth: usize,
        cost: Cost,
        expansions: Vec<Expansion>,
    },
}

/// The statically proven lattice facts, remapped into DFS unit order and
/// filtered down to the shapes the walk can exploit soundly under the
/// active prune options.
struct Analysis {
    /// Units every estimate-feasible subset includes: exclude branches of
    /// these units are attributed to `infeasible` without a visit.
    mandatory: UnitMask,
    /// Length of the symmetry-class run starting at each depth (0 when
    /// the unit does not start an exploitable run).
    class_run: Vec<u32>,
    /// Dominated units whose include subtree may be mirrored from the
    /// exclude subtree: not a neighbor of any pruned bus, not unusable,
    /// not a symmetry-class member.
    twin: UnitMask,
    /// Per twin unit, its dominators; the mirror triggers only once one
    /// of them is already in the decided mask.
    dominators: Vec<UnitMask>,
}

/// A memoized estimate, shared by every candidate with the same relevant
/// submask.
type Estimate = Arc<FlexibilityEstimate>;

/// Shared, read-only inputs of the lattice search.
struct Ctx<'a> {
    masks: &'a UnitMasks,
    index: &'a DeltaIndex<'a>,
    /// Original-order unit bit per DFS bit: candidate rows carry
    /// original-order masks, which also break cost ties flat-identically.
    orig_bits: &'a [UnitMask],
    n: usize,
    /// Communication units subject to the useless-bus pruning (empty when
    /// the pruning is disabled).
    comm: UnitMask,
    /// Units subject to the unusable-unit pruning (empty when disabled).
    unusable: UnitMask,
    /// The static-analysis certificate, when enabled and non-trivial.
    analysis: Option<Analysis>,
    /// Estimate memo shared across all walks (and workers) of this scan;
    /// see the determinism section of the module docs.
    shared: &'a ShardedMemo<Estimate>,
    observe: bool,
}

/// Per-walk mutable state; phase-2 items each get a fresh one so counters
/// are independent of the thread partition.
struct State<'a> {
    kept: Vec<(CandidateRow, Estimate)>,
    stats: AllocationStats,
    /// Delta tracker of the decided subset `mask`.
    current: DeltaEstimator<'a>,
    /// Delta tracker of `mask | rest` — the monotone infeasibility bound.
    optimistic: DeltaEstimator<'a>,
    /// Expansion steps active on the DFS path; every emission below them
    /// materializes the full equivalent-subset family.
    expansions: Vec<Expansion>,
    /// Estimate lookups this walk made, hits and misses alike.
    lookups: u64,
    /// Pushes that moved `current` to a fill subset only to materialize
    /// its estimate; excluded from `estimate_delta_pushes`.
    transient_pushes: u64,
    estimate_calls: u64,
    estimate_wall: Duration,
}

impl<'a> State<'a> {
    /// Fresh state positioned at DFS node `(mask, depth)`: `current`
    /// tracks `mask`, `optimistic` tracks `mask | rest(depth)` when
    /// `with_optimistic` (fill items never consult the bound, so they
    /// skip its initialization pushes).
    fn at(ctx: &Ctx<'a>, mask: UnitMask, depth: usize, with_optimistic: bool) -> Self {
        let mut current = DeltaEstimator::new(ctx.index);
        current.push_mask(mask);
        let mut optimistic = DeltaEstimator::new(ctx.index);
        if with_optimistic {
            optimistic.push_mask(mask | rest_mask(ctx.n, depth));
        }
        State {
            kept: Vec::new(),
            stats: AllocationStats::default(),
            current,
            optimistic,
            expansions: Vec::new(),
            lookups: 0,
            transient_pushes: 0,
            estimate_calls: 0,
            estimate_wall: Duration::ZERO,
        }
    }

    /// Records this walk's delta pushes into its stats; call once when the
    /// walk is done, before absorbing.
    fn seal(&mut self) {
        self.stats.estimate_delta_pushes =
            self.current.pushes() + self.optimistic.pushes() - self.transient_pushes;
    }

    /// Folds a phase-2 item's results into the phase-1 accumulator.
    fn absorb(&mut self, other: State<'_>) {
        self.kept.extend(other.kept);
        let s = &mut self.stats;
        let o = &other.stats;
        s.pruned_structurally = s.pruned_structurally.saturating_add(o.pruned_structurally);
        s.infeasible = s.infeasible.saturating_add(o.infeasible);
        s.kept += o.kept;
        s.nodes_visited += o.nodes_visited;
        s.subtrees_pruned += o.subtrees_pruned;
        s.estimate_delta_pushes += o.estimate_delta_pushes;
        s.analysis_mandatory_forced += o.analysis_mandatory_forced;
        s.analysis_subtrees_skipped += o.analysis_subtrees_skipped;
        s.symmetry_orbit_expansions += o.symmetry_orbit_expansions;
        self.lookups += other.lookups;
        self.estimate_calls += other.estimate_calls;
        self.estimate_wall += other.estimate_wall;
    }

    /// The estimate of `current ∪ sub`, whose relevant submask is `key`:
    /// from the scan-wide [`ShardedMemo`] when some walk already
    /// materialized it, else materialized from `current` moved by `sub`
    /// and back. Only materializations count into the
    /// `enumerate.estimate` phase.
    fn estimate(&mut self, ctx: &Ctx<'_>, key: UnitMask, sub: UnitMask) -> Estimate {
        self.lookups += 1;
        if let Some(found) = ctx.shared.get(&key) {
            return found;
        }
        self.current.push_mask(sub);
        self.transient_pushes += u64::from(sub.count_ones());
        let started = ctx.observe.then(Instant::now);
        let est = Arc::new(self.current.materialize());
        if let Some(started) = started {
            self.estimate_calls += 1;
            self.estimate_wall += started.elapsed();
        }
        self.current.pop_mask(sub);
        ctx.shared.insert_if_absent(key, est.clone());
        est
    }

    /// The estimate of the subset `mask` the `current` tracker is at.
    fn estimate_here(&mut self, ctx: &Ctx<'_>, mask: UnitMask) -> Estimate {
        self.estimate(
            ctx,
            mask & ctx.masks.estimate_relevant_mask(),
            UnitMask::empty(),
        )
    }
}

/// Enumerates the possible resource allocations by branch-and-bound.
/// Candidate list and `kept` count are byte-identical to the flat scan's;
/// see [`AllocationStats`] for how the prune counters are attributed.
pub(crate) fn bnb_scan(
    compiled: &CompiledSpec<'_>,
    units: Vec<Unit>,
    options: &AllocationOptions,
    facts: Option<&AnalysisFacts>,
    obs: &ObsSink,
) -> EnumerationOutput {
    let n = units.len();
    let unit_cost = |u: &Unit| match *u {
        Unit::Vertex(v) => compiled.spec().architecture().cost(v),
        Unit::Cluster(c) => compiled.cluster_cost(c),
    };
    let costs: Vec<Cost> = units.iter().map(unit_cost).collect();
    let mut order: Vec<usize> = (0..n).collect();
    // Ascending cost, ties towards original order — except that symmetry-
    // class members gather behind their class's first member (they share
    // one cost, so the run stays inside the cost tie it already occupied
    // and the classless order is unchanged).
    let anchor = |k: usize| -> usize {
        facts
            .and_then(|f| f.class_of.get(k).copied().flatten())
            .map_or(k, |c| facts.unwrap().classes[c as usize][0] as usize)
    };
    order.sort_by_key(|&k| (costs[k], anchor(k), k));
    let dfs_units: Vec<Unit> = order.iter().map(|&k| units[k]).collect();
    let orig_bits: Vec<UnitMask> = order.iter().map(|&k| UnitMask::bit(k)).collect();
    let masks = compiled.unit_masks(&dfs_units);
    let index = DeltaIndex::new(compiled, &masks);

    let comm = if options.prune_useless_buses {
        masks.comm_mask()
    } else {
        UnitMask::empty()
    };
    let unusable = if options.prune_unusable {
        masks.unusable_mask()
    } else {
        UnitMask::empty()
    };
    let shared: ShardedMemo<Estimate> = ShardedMemo::new();
    let ctx = Ctx {
        masks: &masks,
        index: &index,
        orig_bits: &orig_bits,
        n,
        comm,
        unusable,
        analysis: facts.and_then(|f| remap_facts(f, &order, &masks, comm, unusable, n)),
        shared: &shared,
        observe: obs.is_enabled(),
    };

    // Phase 1: sequential prefix walk, identical for every thread count.
    let mut state = State::at(&ctx, UnitMask::empty(), 0, true);
    state.stats.units = n;
    state.stats.subsets = subset_count(n);
    let mut pending: Vec<Pending> = Vec::new();
    dfs(
        &ctx,
        &mut state,
        &mut pending,
        BNB_PREFIX_DEPTH,
        UnitMask::empty(),
        0,
        Cost::new(0),
        false,
        1,
    );
    state.seal();
    // The memo counters come from the fixed decomposition (see the module
    // docs): lookups minus the keys added, per phase.
    let phase1_keys = shared.len() as u64;
    state.stats.estimate_memo_hits = state.lookups - phase1_keys;
    state.lookups = 0;

    // Phase 2: deferred subtrees and fill blocks, fanned out over the
    // work-stealing scheduler with fresh trackers per item. The weight is
    // a monotone proxy for the subtree size (a shallower root owns
    // exponentially more of the lattice), used only for the
    // heaviest-first deal — stealing rebalances the rest.
    let threads = options.threads.max(1);
    let weight = |_: usize, item: &Pending| match item {
        Pending::Expand { depth, .. } | Pending::Fill { depth, .. } => (n - depth + 1) as u64,
    };
    let results = run_stealing(&pending, threads, obs, weight, |item| {
        let mut st;
        match item {
            Pending::Expand {
                mask,
                depth,
                cost,
                feasible,
                mult,
                expansions,
            } => {
                st = State::at(&ctx, *mask, *depth, true);
                st.expansions = expansions.clone();
                let mut no_defer = Vec::new();
                dfs(
                    &ctx,
                    &mut st,
                    &mut no_defer,
                    usize::MAX,
                    *mask,
                    *depth,
                    *cost,
                    *feasible,
                    *mult,
                );
            }
            Pending::Fill {
                mask,
                depth,
                cost,
                expansions,
            } => {
                st = State::at(&ctx, *mask, *depth, false);
                st.expansions = expansions.clone();
                fill(&ctx, &mut st, *mask, *depth, *cost);
            }
        }
        st.seal();
        st
    });
    // Merge in sequence order.
    for st in results {
        state.absorb(st);
    }
    state.stats.memo_cross_hits = state.lookups - (shared.len() as u64 - phase1_keys);
    obs.add_time(
        phase::ENUMERATE_ESTIMATE,
        state.estimate_calls,
        state.estimate_wall,
    );

    let mut kept = state.kept;
    kept.sort_by_key(|(row, _)| (row.cost, std::cmp::Reverse(row.value), row.mask));
    let (rows, estimates) = kept.into_iter().unzip();
    EnumerationOutput {
        rows,
        estimates,
        stats: state.stats,
    }
}

/// The undecided-unit mask at `depth` (bits `depth..n`).
fn rest_mask(n: usize, depth: usize) -> UnitMask {
    UnitMask::range(depth, n)
}

/// Remaps an [`AnalysisFacts`] certificate (stated over the original unit
/// order) into DFS order and keeps only the shapes the walk can exploit
/// soundly under the active prune masks. Returns `None` when the
/// certificate proves nothing usable, so the DFS hot path pays nothing.
fn remap_facts(
    f: &AnalysisFacts,
    order: &[usize],
    masks: &UnitMasks,
    comm: UnitMask,
    unusable: UnitMask,
    n: usize,
) -> Option<Analysis> {
    if f.unit_count != n || f.is_trivial() {
        return None;
    }
    let mut pos = vec![0usize; n];
    for (d, &o) in order.iter().enumerate() {
        pos[o] = d;
    }
    let remap = |m: UnitMask| {
        let mut out = UnitMask::empty();
        for o in m.iter_ones() {
            out |= UnitMask::bit(pos[o]);
        }
        out
    };

    let mandatory = remap(f.mandatory);

    // A twin mirror is only exact when including the unit cannot change a
    // bus's allocated-neighbor count, so bus neighbors are ineligible
    // (only of buses the useless-bus pruning actually watches).
    let mut bus_linked = UnitMask::empty();
    for b in comm.iter_ones() {
        bus_linked |= masks.neighbors(b);
    }
    let mut twin = UnitMask::empty();
    let mut dominators = vec![UnitMask::empty(); n];
    for d in 0..n {
        let o = order[d];
        if f.dominated_by[o].is_some()
            && f.class_of[o].is_none()
            && !bus_linked.test(d)
            && !unusable.test(d)
        {
            twin |= UnitMask::bit(d);
            dominators[d] = remap(f.dominators[o]);
        }
    }

    // Class members are contiguous by the DFS sort key; runs touching an
    // unusable unit fall back to plain branching (the unusable prune
    // handles each member on its own).
    let mut class_run = vec![0u32; n];
    for class in &f.classes {
        let mut ds: Vec<usize> = class.iter().map(|&o| pos[o as usize]).collect();
        ds.sort_unstable();
        let contiguous = ds.windows(2).all(|w| w[1] == w[0] + 1);
        let run = UnitMask::range(ds[0], ds[0] + ds.len());
        if contiguous && !run.intersects(unusable) {
            class_run[ds[0]] = ds.len() as u32;
        }
    }

    Some(Analysis {
        mandatory,
        class_run,
        twin,
        dominators,
    })
}

/// `true` when some bus of `mask | rest` could end up with fewer than two
/// allocated neighbors in a completion — branching must continue to sort
/// those completions out.
fn bus_hazard(ctx: &Ctx<'_>, mask: UnitMask, rest: UnitMask) -> bool {
    for b in ((mask | rest) & ctx.comm).iter_ones() {
        if (ctx.masks.neighbors(b) & mask).count_ones() < 2 {
            return true;
        }
    }
    false
}

/// One DFS node over the decided prefix `mask` (units `0..depth`). Phase 1
/// passes `limit == BNB_PREFIX_DEPTH` and collects deferred work in
/// `pending`; phase 2 passes `limit == usize::MAX` and never defers. On
/// entry and exit, `st.current` tracks `mask` and `st.optimistic` tracks
/// `mask | rest_mask(n, depth)`. `mult` is the number of equivalent
/// subtrees this walk stands for (the product of the active expansions'
/// multiplicities): per-subset counters scale by it, so mirrored and
/// collapsed siblings stay accounted for exactly.
#[allow(clippy::too_many_arguments)]
fn dfs(
    ctx: &Ctx<'_>,
    st: &mut State<'_>,
    pending: &mut Vec<Pending>,
    limit: usize,
    mask: UnitMask,
    depth: usize,
    cost: Cost,
    feasible_in: bool,
    mult: u64,
) {
    if depth >= limit && depth < ctx.n {
        pending.push(Pending::Expand {
            mask,
            depth,
            cost,
            feasible: feasible_in,
            mult,
            expansions: st.expansions.clone(),
        });
        return;
    }
    st.stats.nodes_visited += 1;
    let rest = rest_mask(ctx.n, depth);
    let outcomes = subset_count(ctx.n - depth).saturating_mul(mult);

    // Dead bus: an included bus that cannot reach two included-or-undecided
    // neighbors stays useless in every completion.
    for b in (mask & ctx.comm).iter_ones() {
        if (ctx.masks.neighbors(b) & (mask | rest)).count_ones() < 2 {
            st.stats.pruned_structurally = st.stats.pruned_structurally.saturating_add(outcomes);
            st.stats.subtrees_pruned += 1;
            return;
        }
    }

    let mut feasible = feasible_in;
    if !feasible {
        // Monotone bound: infeasible at `mask | rest` means infeasible for
        // every completion.
        if !st.optimistic.feasible() {
            st.stats.infeasible = st.stats.infeasible.saturating_add(outcomes);
            st.stats.subtrees_pruned += 1;
            return;
        }
        if rest.is_empty() {
            // Leaf: the bound *is* the exact estimate.
            let exact = st.estimate_here(ctx, mask);
            emit(ctx, st, mask, cost, exact);
            return;
        }
        feasible = st.current.feasible();
    } else if rest.is_empty() {
        let exact = st.estimate_here(ctx, mask);
        emit(ctx, st, mask, cost, exact);
        return;
    }

    // Uniform fill: `mask` alone is feasible and no undecided unit can
    // trip a structural prune, so every completion is a keeper.
    if feasible && !rest.intersects(ctx.unusable) && !bus_hazard(ctx, mask, rest) {
        if limit <= ctx.n {
            pending.push(Pending::Fill {
                mask,
                depth,
                cost,
                expansions: st.expansions.clone(),
            });
        } else {
            fill(ctx, st, mask, depth, cost);
        }
        return;
    }

    let half = subset_count(ctx.n - depth - 1).saturating_mul(mult);
    let class_run = ctx
        .analysis
        .as_ref()
        .map_or(0, |a| a.class_run[depth] as usize);

    // Branch on the cheapest undecided unit.
    if ctx.unusable.test(depth) {
        // Including an unusable unit only adds cost: the include half is
        // structurally dominated wholesale.
        st.stats.pruned_structurally = st.stats.pruned_structurally.saturating_add(half);
        st.stats.subtrees_pruned += 1;
        st.optimistic.pop_unit(depth);
        dfs(
            ctx,
            st,
            pending,
            limit,
            mask,
            depth + 1,
            cost,
            feasible,
            mult,
        );
        st.optimistic.push_unit(depth);
    } else if class_run >= 2 {
        // Symmetry orbit: the `s` interchangeable units starting here
        // branch once per choice count `k` — the canonical `k`-prefix
        // subtree stands for all `C(s, k)` member choices, expanded back
        // at emission. Every check below this node depends only on how
        // many class members are included, never on which.
        let s = class_run;
        let unit_cost = ctx.masks.cost(depth);
        for k in depth..depth + s {
            st.optimistic.pop_unit(k);
        }
        let mut branch_cost = cost;
        for k in 0..=s {
            if k > 0 {
                st.current.push_unit(depth + k - 1);
                st.optimistic.push_unit(depth + k - 1);
                branch_cost += unit_cost;
            }
            let expanded = k > 0 && k < s;
            if expanded {
                st.expansions.push(Expansion::Orbit {
                    start: depth,
                    len: s,
                    k,
                });
            }
            dfs(
                ctx,
                st,
                pending,
                limit,
                mask | UnitMask::range(depth, depth + k),
                depth + s,
                branch_cost,
                feasible,
                mult.saturating_mul(binom_sat(s as u64, k as u64)),
            );
            if expanded {
                st.expansions.pop();
            }
        }
        for k in (depth..depth + s).rev() {
            st.current.pop_unit(k);
        }
    } else if ctx
        .analysis
        .as_ref()
        .is_some_and(|a| a.mandatory.test(depth))
    {
        // Mandatory unit: every subset without it is estimate-infeasible,
        // so the exclude half dies without a visit.
        st.stats.infeasible = st.stats.infeasible.saturating_add(half);
        st.stats.subtrees_pruned += 1;
        st.stats.analysis_mandatory_forced += 1;
        st.current.push_unit(depth);
        dfs(
            ctx,
            st,
            pending,
            limit,
            mask | UnitMask::bit(depth),
            depth + 1,
            cost + ctx.masks.cost(depth),
            feasible,
            mult,
        );
        st.current.pop_unit(depth);
    } else if ctx
        .analysis
        .as_ref()
        .is_some_and(|a| a.twin.test(depth) && mask.intersects(a.dominators[depth]))
    {
        // Dominated twin: a dominator is already included, so the include
        // subtree is control-flow-isomorphic to the exclude subtree —
        // walk the exclude side once and expand each emission into the
        // without/with pair.
        st.stats.analysis_subtrees_skipped += 1;
        st.optimistic.pop_unit(depth);
        st.expansions.push(Expansion::Twin { unit: depth });
        dfs(
            ctx,
            st,
            pending,
            limit,
            mask,
            depth + 1,
            cost,
            feasible,
            mult.saturating_mul(2),
        );
        st.expansions.pop();
        st.optimistic.push_unit(depth);
    } else {
        // Exclude branch: the unit leaves the undecided rest.
        st.optimistic.pop_unit(depth);
        dfs(
            ctx,
            st,
            pending,
            limit,
            mask,
            depth + 1,
            cost,
            feasible,
            mult,
        );
        st.optimistic.push_unit(depth);
        // Include branch: the unit moves from rest into the decided mask,
        // so the optimistic union is unchanged.
        st.current.push_unit(depth);
        dfs(
            ctx,
            st,
            pending,
            limit,
            mask | UnitMask::bit(depth),
            depth + 1,
            cost + ctx.masks.cost(depth),
            feasible,
            mult,
        );
        st.current.pop_unit(depth);
    }
}

/// Emits every completion of `mask` over the units from `depth` on — the
/// whole subtree is known feasible and prune-clean, so no per-subset
/// search is needed (only the memoized estimate for the candidate record).
/// On entry, `st.current` tracks `mask`; restored on exit.
fn fill(ctx: &Ctx<'_>, st: &mut State<'_>, mask: UnitMask, depth: usize, cost: Cost) {
    let rest = rest_mask(ctx.n, depth);
    let mut sub = rest;
    loop {
        let est = st.estimate(ctx, (mask | sub) & ctx.masks.estimate_relevant_mask(), sub);
        emit(ctx, st, mask | sub, cost + ctx.masks.mask_cost(sub), est);
        if sub.is_empty() {
            break;
        }
        sub = sub.wrapping_dec() & rest;
    }
}

/// Records one kept allocation as a row over its original-order unit mask,
/// which the flat-identical final sort also reads. Active expansions fan
/// the subset out into its whole equivalent family first: every variant
/// shares the estimate byte for byte (twins add only coverage-subsumed
/// units, orbit members have identical coverage), exactly as the flat scan
/// would compute it, so they share its handle.
fn emit(ctx: &Ctx<'_>, st: &mut State<'_>, mask: UnitMask, cost: Cost, estimate: Estimate) {
    if st.expansions.is_empty() {
        st.stats.kept += 1;
        push_candidate(ctx, st, mask, cost, estimate);
        return;
    }
    let expansions = std::mem::take(&mut st.expansions);
    let mut variants: Vec<(UnitMask, Cost)> = vec![(mask, cost)];
    let mut twin_variants: u64 = 1;
    for e in &expansions {
        match *e {
            Expansion::Twin { unit } => {
                let c = ctx.masks.cost(unit);
                let mut with: Vec<(UnitMask, Cost)> = variants
                    .iter()
                    .map(|&(m, base)| (m | UnitMask::bit(unit), base + c))
                    .collect();
                variants.append(&mut with);
                twin_variants = twin_variants.saturating_mul(2);
            }
            Expansion::Orbit { start, len, k } => {
                let run = UnitMask::range(start, start + len);
                let mut out = Vec::with_capacity(variants.len());
                for &(m, c) in &variants {
                    for_each_k_subset(start, len, k, m.andnot(run), &mut |vm| {
                        out.push((vm, c));
                    });
                }
                variants = out;
            }
        }
    }
    st.stats.kept += variants.len() as u64;
    st.stats.symmetry_orbit_expansions += variants.len() as u64 - twin_variants;
    for (vmask, vcost) in variants {
        push_candidate(ctx, st, vmask, vcost, estimate.clone());
    }
    st.expansions = expansions;
}

/// Calls `f` with `base` extended by every `k`-subset of the units
/// `start..start + len`, in ascending mask order.
fn for_each_k_subset(
    start: usize,
    len: usize,
    k: usize,
    base: UnitMask,
    f: &mut impl FnMut(UnitMask),
) {
    if k == 0 {
        f(base);
        return;
    }
    for i in (k - 1)..len {
        for_each_k_subset(start, i, k - 1, base | UnitMask::bit(start + i), f);
    }
}

fn push_candidate(
    ctx: &Ctx<'_>,
    st: &mut State<'_>,
    mask: UnitMask,
    cost: Cost,
    estimate: Estimate,
) {
    let mut orig = UnitMask::empty();
    for k in mask.iter_ones() {
        orig |= ctx.orig_bits[k];
    }
    let row = CandidateRow {
        mask: orig,
        cost,
        value: estimate.value,
    };
    st.kept.push((row, estimate));
}
