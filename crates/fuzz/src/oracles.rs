//! The differential invariant oracles.
//!
//! Every oracle states a property the repo already proves elsewhere (unit
//! tests, CI determinism diffs) — the fuzzer re-checks them on *generated*
//! specifications, where a violation means a real pipeline bug rather than
//! a bad test vector:
//!
//! | oracle | invariant |
//! |---|---|
//! | `lint-explore` | lint-error-free ⇒ `explore` returns `Ok`, and never panics |
//! | `enumerator-equivalence` | the sequential EXPLORE loop over the flat scan ([`flat_explore`]) and `explore` over the branch-and-bound lattice search produce byte-identical fronts (wide specs: `explore` at 1 vs 4 threads, where the `2^n` flat scan is intractable) |
//! | `moea-subset` | every MOEA archive point is weakly dominated by the exact front |
//! | `thread-invariance` | fronts and deterministic obs counters are identical for 1 and 4 threads |
//! | `resilience-subset` | fault-degraded points are weakly dominated by the healthy front, and `resilience ≤ flexibility` |
//! | `round-trip` | serialize → deserialize → compile → explore reproduces the front byte-identically |
//! | `analysis-facts` | every static lattice fact (mandatory / dominated / symmetry, DESIGN.md §15) holds on the prune-free flat scan ([`flat_scan`]) of small specs |
//! | `warm-start-equivalence` | re-exploring from a warm-start cache entry — unchanged, after a latency edit, after a cost edit — reproduces the cold front and counters byte-identically |
//!
//! Each oracle body runs under [`capture`](crate::capture::capture), so a
//! panic anywhere in hgraph/spec/bind/explore surfaces as a violation with
//! the panic message as its detail — never as a crashed fuzzer.

use crate::capture::capture;
use crate::flat::{flat_explore, flat_scan};
use flexplore_bind::ImplementOptions;
use flexplore_explore::{
    explore, explore_compiled_obs, explore_compiled_warm, explore_resilient, moea_explore,
    AllocationOptions, ExploreError, ExploreOptions, ExploreResult, MoeaOptions, ParetoFront,
    WarmMode,
};
use flexplore_flex::Flexibility;
use flexplore_lint::{compute_facts, lint_spec};
use flexplore_obs::ObsSink;
use flexplore_spec::{CompiledSpec, Cost, SpecificationGraph};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Which invariant an oracle checks. See the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Lint-error-free ⇒ explore succeeds; panics are always violations.
    LintExplore,
    /// Flat-scan reference front vs `explore`'s front, byte-compared.
    EnumeratorEquivalence,
    /// MOEA archive ⊆ (weak dominance) exact front.
    MoeaSubset,
    /// Thread-count invariance of fronts and deterministic counters.
    ThreadInvariance,
    /// Fault-degraded fronts ⊆ healthy fronts.
    ResilienceSubset,
    /// JSON round-trip reproduces the front.
    RoundTrip,
    /// Static lattice facts vs the prune-free flat scan.
    AnalysisFacts,
    /// Warm-started re-exploration reproduces the cold run byte-identically.
    WarmStartEquivalence,
}

impl OracleKind {
    /// All oracles, in canonical order.
    #[must_use]
    pub fn all() -> [OracleKind; 8] {
        [
            OracleKind::LintExplore,
            OracleKind::EnumeratorEquivalence,
            OracleKind::MoeaSubset,
            OracleKind::ThreadInvariance,
            OracleKind::ResilienceSubset,
            OracleKind::RoundTrip,
            OracleKind::AnalysisFacts,
            OracleKind::WarmStartEquivalence,
        ]
    }

    /// The canonical (report / corpus-file) name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::LintExplore => "lint-explore",
            OracleKind::EnumeratorEquivalence => "enumerator-equivalence",
            OracleKind::MoeaSubset => "moea-subset",
            OracleKind::ThreadInvariance => "thread-invariance",
            OracleKind::ResilienceSubset => "resilience-subset",
            OracleKind::RoundTrip => "round-trip",
            OracleKind::AnalysisFacts => "analysis-facts",
            OracleKind::WarmStartEquivalence => "warm-start-equivalence",
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for OracleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        OracleKind::all()
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown oracle `{s}`"))
    }
}

/// One invariant violation on one specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub oracle: OracleKind,
    /// Deterministic human-readable evidence (front bytes, panic message,
    /// typed-error display — never timing or addresses).
    pub detail: String,
}

/// Runs every oracle against `spec`; `threads` is the worker count for the
/// primary explore of the `lint-explore` oracle (output-invariant by the
/// thread-determinism contract, so the fuzz report stays byte-identical
/// across thread counts).
#[must_use]
pub fn check_all(spec: &SpecificationGraph, threads: usize) -> Vec<Violation> {
    OracleKind::all()
        .into_iter()
        .filter_map(|kind| check_oracle(spec, kind, threads))
        .collect()
}

/// Runs one oracle against `spec`. `None` means the invariant holds.
#[must_use]
pub fn check_oracle(
    spec: &SpecificationGraph,
    kind: OracleKind,
    threads: usize,
) -> Option<Violation> {
    let s = spec.clone();
    let outcome = match kind {
        OracleKind::LintExplore => capture(move || lint_explore(&s, threads)),
        OracleKind::EnumeratorEquivalence => capture(move || enumerator_equivalence(&s)),
        OracleKind::MoeaSubset => capture(move || moea_subset(&s)),
        OracleKind::ThreadInvariance => capture(move || thread_invariance(&s)),
        OracleKind::ResilienceSubset => capture(move || resilience_subset(&s)),
        OracleKind::RoundTrip => capture(move || round_trip(&s)),
        OracleKind::AnalysisFacts => capture(move || analysis_facts(&s)),
        OracleKind::WarmStartEquivalence => capture(move || warm_start_equivalence(&s)),
    };
    match outcome {
        Err(panic) => Some(Violation {
            oracle: kind,
            detail: format!("panic: {panic}"),
        }),
        Ok(Some(detail)) => Some(Violation {
            oracle: kind,
            detail,
        }),
        Ok(None) => None,
    }
}

/// Renders an explore outcome to comparable deterministic bytes: the
/// serialized front on success, the typed error's display on failure.
fn render_outcome(result: Result<ParetoFront, ExploreError>) -> String {
    match result {
        Ok(front) => serde_json::to_string(&front).expect("front serializes"),
        Err(e) => format!("error: {e}"),
    }
}

/// [`render_outcome`] of `explore(spec, options)`.
fn explored_front(spec: &SpecificationGraph, options: &ExploreOptions) -> String {
    render_outcome(explore(spec, options).map(|result| result.front))
}

fn lint_explore(spec: &SpecificationGraph, threads: usize) -> Option<String> {
    let report = lint_spec(spec);
    if report.has_errors() {
        // Out of contract: exploring may fail (with a typed error), but the
        // capture wrapper still turns any panic into a violation.
        let _ = explore(spec, &ExploreOptions::paper());
        return None;
    }
    match explore(spec, &ExploreOptions::paper().with_threads(threads)) {
        Ok(_) => None,
        Err(e) => Some(format!("lint-clean specification failed explore: {e}")),
    }
}

/// Largest unit count the flat oracle is asked to judge exhaustively
/// (`2^20 ≈ 10^6` subsets, milliseconds); wider specifications compare
/// the branch-and-bound enumerator against itself across worker counts.
const FLAT_ORACLE_MAX_UNITS: usize = 20;

fn enumerator_equivalence(spec: &SpecificationGraph) -> Option<String> {
    if flexplore_explore::allocatable_units(spec).len() > FLAT_ORACLE_MAX_UNITS {
        let a = explored_front(spec, &ExploreOptions::paper().with_threads(1));
        let b = explored_front(spec, &ExploreOptions::paper().with_threads(4));
        return (a != b).then(|| format!("branch-and-bound threads 1 {a} != threads 4 {b}"));
    }
    let a = render_outcome(flat_explore(spec, &ExploreOptions::paper()));
    let b = explored_front(spec, &ExploreOptions::paper());
    (a != b).then(|| format!("flat {a} != branch-and-bound {b}"))
}

fn moea_subset(spec: &SpecificationGraph) -> Option<String> {
    let Ok(exact) = explore(spec, &ExploreOptions::paper()) else {
        return None;
    };
    let options = MoeaOptions {
        population: 16,
        generations: 8,
        seed: 0x5eed_f00d,
        mutation_rate: None,
        implement: ImplementOptions::default(),
    };
    let Ok(moea) = moea_explore(spec, &options) else {
        return None;
    };
    for p in moea.front.iter() {
        let covered = exact
            .front
            .iter()
            .any(|q| q.cost <= p.cost && q.flexibility >= p.flexibility);
        if !covered {
            return Some(format!(
                "MOEA point (cost {:?}, flexibility {:?}) is not weakly dominated by the exact front {:?}",
                p.cost,
                p.flexibility,
                exact.front.objectives()
            ));
        }
    }
    None
}

fn thread_invariance(spec: &SpecificationGraph) -> Option<String> {
    // Sequential reference, then every worker count the work-stealing
    // scheduler must reproduce byte for byte — including an
    // oversubscribed one (8) so steal-heavy schedules are exercised.
    let compiled = CompiledSpec::with_activation_cache(spec);
    let observed = |threads: usize| {
        let obs = ObsSink::enabled();
        let front = render_outcome(
            explore_compiled_obs(
                &compiled,
                &ExploreOptions::paper().with_threads(threads),
                &obs,
            )
            .map(|result| result.front),
        );
        let counters = obs
            .report("fuzz", spec.name(), threads)
            .counters_json()
            .expect("counters serialize");
        (front, counters)
    };
    let (a, ca) = observed(1);
    for threads in [4usize, 8] {
        let (b, cb) = observed(threads);
        if a != b {
            return Some(format!(
                "threads 1 front {a} != threads {threads} front {b}"
            ));
        }
        if ca != cb {
            return Some(format!(
                "threads 1 counters {ca} != threads {threads} counters {cb}"
            ));
        }
    }
    None
}

fn resilience_subset(spec: &SpecificationGraph) -> Option<String> {
    let Ok(healthy) = explore(spec, &ExploreOptions::paper()) else {
        return None;
    };
    let compiled = CompiledSpec::with_activation_cache(spec);
    let Ok(resilient) =
        explore_resilient(&compiled, 1, &ExploreOptions::paper(), &ObsSink::disabled())
    else {
        return None;
    };
    for p in &resilient {
        if p.resilience > p.flexibility {
            return Some(format!(
                "resilience {:?} exceeds fault-free flexibility {:?} at cost {:?}",
                p.resilience, p.flexibility, p.cost
            ));
        }
        let covered = healthy
            .front
            .iter()
            .any(|q| q.cost <= p.cost && q.flexibility >= p.flexibility);
        if !covered {
            return Some(format!(
                "resilient point (cost {:?}, flexibility {:?}) is not weakly dominated by the healthy front {:?}",
                p.cost,
                p.flexibility,
                healthy.front.objectives()
            ));
        }
    }
    None
}

fn round_trip(spec: &SpecificationGraph) -> Option<String> {
    let json = flexplore_models::spec_to_json(spec).expect("spec serializes");
    let reparsed = match flexplore_models::spec_from_json(&json) {
        Ok(reparsed) => reparsed,
        Err(e) => return Some(format!("serialized spec failed to reload: {e}")),
    };
    if let Err(e) = CompiledSpec::try_new(&reparsed) {
        return Some(format!("reloaded spec failed compilation: {e}"));
    }
    let a = explored_front(spec, &ExploreOptions::paper());
    let b = explored_front(&reparsed, &ExploreOptions::paper());
    (a != b).then(|| format!("front changed across JSON round-trip: {a} != {b}"))
}

/// Largest unit count the analysis-facts oracle judges exhaustively
/// (`2^16` subsets with every pruning disabled — still milliseconds).
const ANALYSIS_ORACLE_MAX_UNITS: usize = 16;

/// Cross-checks the static lattice facts (`F014`/`F015`/`F016`) against
/// ground truth: a flat scan with *every* structural pruning disabled, which keeps exactly the estimate-feasible subsets — the
/// lattice the facts are stated against. (The bus/unusable prunings are
/// sound for front construction but punch holes in the feasible set: a
/// dominance swap target may leave a bus with a single neighbor.)
fn analysis_facts(spec: &SpecificationGraph) -> Option<String> {
    if lint_spec(spec).has_errors() {
        return None;
    }
    let units = flexplore_explore::allocatable_units(spec);
    let n = units.len();
    if n == 0 || n > ANALYSIS_ORACLE_MAX_UNITS {
        return None;
    }
    let Ok(compiled) = CompiledSpec::try_new(spec) else {
        return None;
    };
    let facts = compute_facts(&compiled, &units);

    let options = AllocationOptions {
        prune_useless_buses: false,
        prune_unusable: false,
        ..AllocationOptions::default()
    };
    let Ok((candidates, _)) = flat_scan(&compiled, &options) else {
        return None;
    };
    // Subset masks as u64 over unit indices (at most 16 units here).
    let kept: BTreeMap<u64, (Cost, Flexibility)> = candidates
        .iter()
        .map(|(mask, c)| (mask.low_word(), (c.cost, c.estimate.value)))
        .collect();

    // Sanity: the fact families are provably disjoint — a mandatory unit
    // in a symmetry class (or with a dominator) would let a feasible
    // subset drop it, contradicting mandatoriness.
    for k in facts.mandatory.iter_ones() {
        if facts.dominated_by[k].is_some() {
            return Some(format!("unit {k} is both mandatory and dominated"));
        }
        if facts.class_of[k].is_some() {
            return Some(format!(
                "unit {k} is both mandatory and in a symmetry class"
            ));
        }
    }

    // F014 soundness: every feasible subset contains every mandatory unit.
    // F014 completeness: when the full allocation is feasible, dropping
    // any unit *not* flagged mandatory must leave it feasible.
    let mandatory: u64 = facts.mandatory.iter_ones().fold(0, |m, k| m | (1 << k));
    for &m in kept.keys() {
        if m & mandatory != mandatory {
            return Some(format!(
                "feasible subset {m:#x} misses mandatory units {mandatory:#x}"
            ));
        }
    }
    let universe: u64 = (1 << n) - 1;
    if kept.contains_key(&universe) {
        for k in 0..n {
            if mandatory & (1 << k) == 0 && !kept.contains_key(&(universe & !(1 << k))) {
                return Some(format!(
                    "unit {k} is not flagged mandatory, yet the full allocation minus it \
                     is infeasible"
                ));
            }
        }
    }

    // F015: replacing a dominated unit with its witness keeps feasibility
    // and is weakly better on both objectives.
    for (u, by) in facts.dominated_by.iter().enumerate() {
        let Some(w) = *by else { continue };
        let w = w as usize;
        for (&m, &(cost, value)) in &kept {
            if m & (1 << u) == 0 {
                continue;
            }
            let swapped = (m & !(1 << u)) | (1 << w);
            match kept.get(&swapped) {
                None => {
                    return Some(format!(
                        "dominated unit {u}: swapping in witness {w} turned feasible \
                         {m:#x} into infeasible {swapped:#x}"
                    ))
                }
                Some(&(sc, sv)) => {
                    if sc > cost || sv < value {
                        return Some(format!(
                            "dominated unit {u}: swapping in witness {w} worsened \
                             ({cost}, {value:?}) to ({sc}, {sv:?})"
                        ));
                    }
                }
            }
        }
    }

    // F016: symmetry-class members are interchangeable — a single swap
    // preserves feasibility, cost and the estimate exactly.
    for class in &facts.classes {
        for &a in class {
            for &b in class {
                if a == b {
                    continue;
                }
                let (a, b) = (a as usize, b as usize);
                for (&m, &(cost, value)) in &kept {
                    if m & (1 << a) == 0 || m & (1 << b) != 0 {
                        continue;
                    }
                    let swapped = (m & !(1 << a)) | (1 << b);
                    match kept.get(&swapped) {
                        None => {
                            return Some(format!(
                                "symmetry: swapping unit {a} for {b} in {m:#x} lost \
                                 feasibility"
                            ))
                        }
                        Some(&(sc, sv)) => {
                            if sc != cost || sv != value {
                                return Some(format!(
                                    "symmetry: swapping unit {a} for {b} changed \
                                     ({cost}, {value:?}) to ({sc}, {sv:?})"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Bumps the first `"field"` numeric value in `json` by one — the
/// smallest spec edit a watch-mode user produces between cycles. `None`
/// when the spec has no such field.
fn bump_numeric_field(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)? + needle.len();
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

/// Warm-started re-exploration must be byte-equivalent to a cold run on
/// the same spec: exact replay on an unchanged spec, enumeration replay
/// after a binding-layer (latency) edit, lattice re-walk after an
/// enumeration-layer (cost) edit. Only wall-clock and the warm
/// bookkeeping fields may differ.
fn warm_start_equivalence(spec: &SpecificationGraph) -> Option<String> {
    let options = ExploreOptions::paper();
    let obs = ObsSink::disabled();
    let Ok(compiled) = CompiledSpec::try_new(spec) else {
        return None;
    };
    let Ok(baseline) = explore_compiled_warm(&compiled, &options, None, &obs) else {
        return None; // cold failures belong to the lint-explore oracle
    };
    let front_bytes =
        |result: &ExploreResult| serde_json::to_string(&result.front).expect("front serializes");
    let cold_counters = |result: &ExploreResult| {
        let mut stats = result.stats;
        stats.allocations.warm_hits = 0;
        stats.allocations.warm_invalidated = 0;
        stats.allocations.delta_units = 0;
        stats
    };

    // Unchanged spec: an exact replay with the identical front.
    match explore_compiled_warm(&compiled, &options, Some(&baseline.entry), &obs) {
        Err(e) => return Some(format!("warm re-explore of the unchanged spec failed: {e}")),
        Ok(replayed) => {
            if replayed.summary.mode != WarmMode::Exact {
                return Some(format!(
                    "unchanged spec re-explored at warmth `{}`, expected `exact`",
                    replayed.summary.mode
                ));
            }
            if front_bytes(&replayed.result) != front_bytes(&baseline.result) {
                return Some(format!(
                    "exact replay changed the front: {} != {}",
                    front_bytes(&replayed.result),
                    front_bytes(&baseline.result)
                ));
            }
        }
    }

    // One-field edits: whatever warmth the delta admits, results must
    // match a cold run on the edited spec byte for byte.
    let json = flexplore_models::spec_to_json(spec).expect("spec serializes");
    for field in ["latency", "cost"] {
        let Some(edited_json) = bump_numeric_field(&json, field) else {
            continue;
        };
        let Ok(edited) = flexplore_models::spec_from_json(&edited_json) else {
            continue; // the bump violated a validation rule; not our contract
        };
        let Ok(edited_compiled) = CompiledSpec::try_new(&edited) else {
            continue;
        };
        let cold = explore_compiled_warm(&edited_compiled, &options, None, &obs);
        let warm = explore_compiled_warm(&edited_compiled, &options, Some(&baseline.entry), &obs);
        match (cold, warm) {
            (Ok(cold), Ok(warm)) => {
                if front_bytes(&warm.result) != front_bytes(&cold.result) {
                    return Some(format!(
                        "{field} edit: warm ({}) front {} != cold front {}",
                        warm.summary.mode,
                        front_bytes(&warm.result),
                        front_bytes(&cold.result)
                    ));
                }
                if cold_counters(&warm.result) != cold_counters(&cold.result) {
                    return Some(format!(
                        "{field} edit: warm ({}) counters diverged from cold",
                        warm.summary.mode
                    ));
                }
            }
            (Err(_), Err(_)) => {} // equivalently impossible either way
            (Ok(_), Err(e)) => {
                return Some(format!("{field} edit: cold succeeded but warm failed: {e}"))
            }
            (Err(e), Ok(_)) => {
                return Some(format!("{field} edit: warm succeeded but cold failed: {e}"))
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, DomainProfile};

    #[test]
    fn bundled_case_study_passes_every_oracle() {
        let spec = flexplore_models::set_top_box().spec;
        assert_eq!(check_all(&spec, 1), Vec::new());
    }

    #[test]
    fn generated_specs_pass_every_oracle() {
        for profile in DomainProfile::all() {
            let spec = generate(profile, 3);
            let violations = check_all(&spec, 1);
            assert!(violations.is_empty(), "{profile}: {violations:?}");
        }
    }

    #[test]
    fn oracle_names_round_trip() {
        for kind in OracleKind::all() {
            assert_eq!(kind.name().parse::<OracleKind>().unwrap(), kind);
        }
        assert!("nope".parse::<OracleKind>().is_err());
    }
}
