//! Warm-start exploration cache: persisted fronts, candidate rows and bind
//! outcomes keyed by a content hash of the specification, with delta-scoped
//! invalidation.
//!
//! A cold exploration run produces two reusable artifacts:
//!
//! 1. the cost-sorted [`CandidateRow`]s the enumerator emitted (with its
//!    counters — the enumeration is deterministic, so replaying it *is*
//!    re-running it),
//! 2. the bind outcome (implementation or proven-infeasible) per attempted
//!    candidate.
//!
//! Each artifact is valid under a different layer of the per-unit
//! [`SpecSignature`]: the candidate rows survive any edit outside *every*
//! unit's enumeration layer (latencies, notably), and a bind outcome
//! survives edits outside its candidate's binding layer. Diffing the cached
//! signature against the current one therefore classifies a re-exploration
//! into one of four *warm levels*:
//!
//! * **exact** — identical fingerprint: replay the whole result.
//! * **replay** — only binding layers changed: replay the candidate rows
//!   wholesale, re-bind only candidates whose mask intersects the changed
//!   units.
//! * **seeded** — enumeration layers changed: re-walk the lattice, reuse
//!   the surviving bind outcomes.
//! * **cold** — different unit universe, problem or extras: start over.
//!
//! Every warm level reproduces the cold run's deterministic counters and
//! Pareto front **byte for byte** at any thread count (asserted by the
//! `warmstart` test suite and the `warm-start-equivalence` fuzz oracle);
//! warm bookkeeping is published through the observability `warmstart`
//! section, never the counter section. A corrupt, truncated or
//! version-mismatched cache file degrades to a cold run with a warning —
//! the cache can make a run faster, never wrong, and never failed.

use crate::allocations::CandidateRow;
use crate::error::ExploreError;
use crate::explore::{explore_inner, publish_stats, ExploreCapture, ExploreOptions, ExploreResult};
use crate::pareto::ParetoFront;
use flexplore_bind::Implementation;
use flexplore_obs::{phase, ObsSink};
use flexplore_spec::{
    CompiledSpec, Fingerprint, SpecSignature, SpecificationGraph, UnitMask, MAX_UNITS,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamp of the on-disk cache format. Bumped on any change to the
/// line layout or the semantics of a persisted field; readers reject (with
/// a warning, degrading to cold) any file whose stamp differs.
pub const CACHE_FORMAT: u32 = 3;

/// File-kind marker, so an unrelated JSON file dropped into the cache
/// directory is rejected by content, not just by name.
const CACHE_KIND: &str = "flexplore-explore-cache";

/// How warm one re-exploration ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarmMode {
    /// Identical fingerprint: the persisted result was replayed outright.
    Exact,
    /// Only binding layers changed: candidate rows replayed, binds
    /// delta-scoped.
    Replay,
    /// Enumeration layers changed: lattice re-walked, surviving bind
    /// outcomes reused.
    Seeded,
    /// No usable cache entry (or none compatible): everything recomputed.
    Cold,
}

impl WarmMode {
    /// Stable lowercase name, used in the obs report and the CLI.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WarmMode::Exact => "exact",
            WarmMode::Replay => "replay",
            WarmMode::Seeded => "seeded",
            WarmMode::Cold => "cold",
        }
    }
}

impl fmt::Display for WarmMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unit-scoped difference between a cached signature and the current
/// one, when the two describe the same unit universe and problem.
#[derive(Debug, Clone)]
pub struct SpecDelta {
    /// The warm level the difference admits (never [`WarmMode::Cold`]).
    pub mode: WarmMode,
    /// Units whose enumeration layer changed (non-empty forces a lattice
    /// re-walk).
    pub d_enum: UnitMask,
    /// Units whose binding layer changed (bind outcomes touching them are
    /// invalid).
    pub d_bind: UnitMask,
    /// Number of units with any changed layer.
    pub delta_units: u64,
}

/// Diffs two signatures. Returns `None` — cold — when the unit universes,
/// the problem graph or the unattributable extras differ (or the universe
/// exceeds the mask width); otherwise the per-layer changed-unit masks and
/// the warm level they admit.
#[must_use]
pub fn spec_delta(old: &SpecSignature, new: &SpecSignature) -> Option<SpecDelta> {
    if !old.same_universe(new)
        || old.problem_hash != new.problem_hash
        || old.extras_hash != new.extras_hash
        || new.units.len() > MAX_UNITS
    {
        return None;
    }
    let mut d_enum = UnitMask::empty();
    let mut d_bind = UnitMask::empty();
    for (k, (a, b)) in old.units.iter().zip(&new.units).enumerate() {
        if a.enum_sig != b.enum_sig {
            d_enum.set(k);
        }
        if a.bind_sig != b.bind_sig {
            d_bind.set(k);
        }
    }
    let all = d_enum | d_bind;
    let mode = if all == UnitMask::empty() {
        WarmMode::Exact
    } else if d_enum == UnitMask::empty() {
        WarmMode::Replay
    } else {
        WarmMode::Seeded
    };
    Some(SpecDelta {
        mode,
        d_enum,
        d_bind,
        delta_units: u64::from(all.count_ones()),
    })
}

/// Everything one exploration run persists: the result, the signature it
/// is valid for, and the two replayable artifacts.
///
/// Stored counters are the *cold* counters — the warm-start fields of
/// [`crate::AllocationStats`] are zeroed before persisting, so a replayed
/// entry reproduces the cold counter bytes.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The exploration options the entry was produced under, with thread
    /// counts normalized to 1 (results are thread-invariant).
    pub options: ExploreOptions,
    /// Layered content signature of the specification explored.
    pub signature: SpecSignature,
    /// The run's counters (warm fields zeroed).
    pub stats: crate::ExploreStats,
    /// The Pareto front found.
    pub front: ParetoFront,
    /// The enumerator's cost-sorted candidate rows.
    pub candidates: Vec<CandidateRow>,
    /// Bind outcome per attempted candidate mask, sorted by mask;
    /// `None` records "attempted, proven infeasible".
    pub binds: Vec<(UnitMask, Option<Implementation>)>,
}

/// What the warm layer did on top of one exploration run.
#[derive(Debug, Clone)]
pub struct WarmSummary {
    /// The warm level that ran.
    pub mode: WarmMode,
    /// Fingerprint of the spec that was explored.
    pub fingerprint: Fingerprint,
    /// Cached artifacts replayed instead of recomputed.
    pub warm_hits: u64,
    /// Cached artifacts discarded because the delta touched them.
    pub warm_invalidated: u64,
    /// Units with any changed signature layer (0 for exact and cold).
    pub delta_units: u64,
    /// Non-fatal degradations: corrupt cache files, option mismatches,
    /// write failures. A warning never implies a wrong result — only a
    /// colder run than hoped.
    pub warnings: Vec<String>,
}

/// An exploration result plus its warm bookkeeping and the cache entry
/// that now describes it.
#[derive(Debug)]
pub struct WarmOutcome {
    /// The exploration result — byte-identical to a cold run.
    pub result: ExploreResult,
    /// Warm bookkeeping for reporting.
    pub summary: WarmSummary,
    /// The refreshed entry (persist it to warm the next run).
    pub entry: CacheEntry,
}

/// Explores `compiled`, warm-started from `prior` when its signature delta
/// allows. This is the in-memory core the disk cache and the fuzz oracle
/// share: no I/O, fully deterministic.
///
/// The returned front and every deterministic counter are byte-identical
/// to a cold run on the same spec at any thread count; the warm fields of
/// the returned stats and the obs `warmstart` section carry the
/// bookkeeping.
///
/// # Errors
///
/// Exactly the cold path's errors ([`ExploreError::TooManyUnits`],
/// [`ExploreError::Bind`]); a useless `prior` degrades, it never fails.
pub fn explore_compiled_warm(
    compiled: &CompiledSpec<'_>,
    options: &ExploreOptions,
    prior: Option<&CacheEntry>,
    obs: &ObsSink,
) -> Result<WarmOutcome, ExploreError> {
    explore_warm(compiled, SpecSignature::of(compiled), options, prior, obs)
}

/// [`explore_compiled_warm`] for a caller that already holds the spec's
/// `signature`.
fn explore_warm(
    compiled: &CompiledSpec<'_>,
    signature: SpecSignature,
    options: &ExploreOptions,
    prior: Option<&CacheEntry>,
    obs: &ObsSink,
) -> Result<WarmOutcome, ExploreError> {
    let mut warnings = Vec::new();
    let warm_prior = prior.and_then(|entry| {
        if !options_compatible(&entry.options, options) {
            warnings.push(
                "cache entry was produced under different exploration options; running cold"
                    .to_owned(),
            );
            return None;
        }
        spec_delta(&entry.signature, &signature).map(|d| (entry, d))
    });

    // Exact replay: hand back the persisted result without touching the
    // solver. The stored counters are the cold counters; the whole kept
    // set and every bind attempt count as warm hits.
    if let Some((entry, d)) = &warm_prior {
        if d.mode == WarmMode::Exact {
            let mut stats = entry.stats;
            let warm_hits = stats.allocations.kept + stats.implement_attempts;
            stats.allocations.warm_hits = warm_hits;
            publish_stats(obs, &stats);
            obs.warmstart(WarmMode::Exact.as_str(), warm_hits, 0, 0);
            let summary = WarmSummary {
                mode: WarmMode::Exact,
                fingerprint: signature.fingerprint,
                warm_hits,
                warm_invalidated: 0,
                delta_units: 0,
                warnings,
            };
            let entry = CacheEntry {
                options: normalized_options(options),
                signature,
                ..(*entry).clone()
            };
            return Ok(WarmOutcome {
                result: ExploreResult {
                    front: entry.front.clone(),
                    stats,
                },
                summary,
                entry,
            });
        }
    }

    let mut mode = WarmMode::Cold;
    let mut delta_units = 0;
    let mut cached_binds = HashMap::new();
    let mut invalidated = 0;
    let mut replay = None;
    if let Some((entry, d)) = &warm_prior {
        (mode, delta_units) = (d.mode, d.delta_units);
        (cached_binds, invalidated) = surviving_binds(&entry.binds, d.d_bind);
        if mode == WarmMode::Replay {
            // No enumeration layer changed: the cached rows and counters
            // are exactly what a fresh walk would produce.
            replay = Some((entry.candidates.clone(), entry.stats.allocations));
        }
    }

    let replayed = replay.is_some();
    let (mut result, capture) = explore_inner(compiled, options, obs, replay, &cached_binds, true)?;
    let capture = capture.expect("capture requested");
    if replayed {
        // Credit the replayed enumeration: every kept candidate came from
        // the cache instead of a lattice walk.
        result.stats.allocations.warm_hits += result.stats.allocations.kept;
    }
    result.stats.allocations.warm_invalidated = invalidated;
    result.stats.allocations.delta_units = delta_units;
    let warm_hits = result.stats.allocations.warm_hits;
    obs.warmstart(
        mode.as_str(),
        warm_hits,
        invalidated,
        result.stats.allocations.delta_units,
    );

    let entry = build_entry(options, signature, &result, capture, cached_binds);
    let summary = WarmSummary {
        mode,
        fingerprint: entry.signature.fingerprint,
        warm_hits,
        warm_invalidated: invalidated,
        delta_units: result.stats.allocations.delta_units,
        warnings,
    };
    Ok(WarmOutcome {
        result,
        summary,
        entry,
    })
}

/// Assembles the refreshed cache entry from a run's capture and the cached
/// bind outcomes the delta proved still valid.
fn build_entry(
    options: &ExploreOptions,
    signature: SpecSignature,
    result: &ExploreResult,
    capture: ExploreCapture,
    mut binds: HashMap<UnitMask, Option<Implementation>>,
) -> CacheEntry {
    let mut stats = result.stats;
    stats.allocations.warm_hits = 0;
    stats.allocations.warm_invalidated = 0;
    stats.allocations.delta_units = 0;

    // Bind outcomes: everything this run attempted, plus surviving cached
    // outcomes it never re-attempted (their candidates were pruned this
    // time, but the outcomes stay valid for the next delta check).
    binds.extend(capture.binds);
    let mut binds: Vec<(UnitMask, Option<Implementation>)> = binds.into_iter().collect();
    binds.sort_unstable_by_key(|(mask, _)| mask.into_words());

    CacheEntry {
        options: normalized_options(options),
        signature,
        stats,
        front: result.front.clone(),
        candidates: capture.candidates,
        binds,
    }
}

/// Splits a cached bind table into the outcomes still valid under `d_bind`
/// and a count of the invalidated ones.
fn surviving_binds(
    binds: &[(UnitMask, Option<Implementation>)],
    d_bind: UnitMask,
) -> (HashMap<UnitMask, Option<Implementation>>, u64) {
    let mut surviving = HashMap::with_capacity(binds.len());
    let mut dropped = 0u64;
    for (mask, outcome) in binds {
        if mask.intersects(d_bind) {
            dropped += 1;
        } else {
            surviving.insert(*mask, outcome.clone());
        }
    }
    (surviving, dropped)
}

/// Options with every thread count forced to 1. Exploration output is
/// thread-invariant, so the cache key and the compatibility check must be
/// too.
fn normalized_options(options: &ExploreOptions) -> ExploreOptions {
    let mut normalized = options.clone();
    normalized.threads = 1;
    normalized.allocation.threads = 1;
    normalized
}

fn options_compatible(cached: &ExploreOptions, current: &ExploreOptions) -> bool {
    options_key(cached) == options_key(current)
}

/// Canonical serialized form of thread-normalized options — the
/// compatibility test and the filename hash both derive from it.
fn options_key(options: &ExploreOptions) -> String {
    serde_json::to_string(&normalized_options(options))
        .expect("exploration options serialize infallibly")
}

/// 64-bit content hash of the canonical options form (SplitMix64 folding,
/// matching the spec fingerprint's construction), rendered as fixed-width
/// hex for use in cache filenames.
#[must_use]
pub fn options_hash(options: &ExploreOptions) -> String {
    let key = options_key(options);
    let mut h: u64 = 0x6f70_7473_5f76_3100; // "opts_v1" domain tag
    let mut mix = |x: u64| {
        let mut z = h.wrapping_add(x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    };
    mix(key.len() as u64);
    for chunk in key.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(u64::from_le_bytes(word));
    }
    format!("{h:016x}")
}

// --- on-disk format -------------------------------------------------------

/// First line of every cache file: format stamp, kind marker, the options
/// and signature needed to rank an entry without parsing its body, and the
/// body line counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    format: u32,
    kind: String,
    options_hash: String,
    candidates: u64,
    binds: u64,
    options: ExploreOptions,
    signature: SpecSignature,
}

/// Renders an entry into the JSON-lines file body: header, stats, front,
/// then one line per candidate row and bind outcome. Every line is one
/// self-contained JSON value; the byte output is deterministic.
fn render_entry(entry: &CacheEntry, options_hash: &str) -> Result<String, String> {
    fn line<T: Serialize>(out: &mut String, value: &T) -> Result<(), String> {
        let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
        out.push_str(&json);
        out.push('\n');
        Ok(())
    }
    let header = Header {
        format: CACHE_FORMAT,
        kind: CACHE_KIND.to_owned(),
        options_hash: options_hash.to_owned(),
        candidates: entry.candidates.len() as u64,
        binds: entry.binds.len() as u64,
        options: entry.options.clone(),
        signature: entry.signature.clone(),
    };
    let mut out = String::new();
    line(&mut out, &header)?;
    line(&mut out, &entry.stats)?;
    line(&mut out, &entry.front)?;
    for candidate in &entry.candidates {
        line(&mut out, candidate)?;
    }
    for row in &entry.binds {
        line(&mut out, row)?;
    }
    Ok(out)
}

/// Reads and validates the header line of the cache file at `path` without
/// reading its body — enough to rank cache files.
fn read_header(path: &Path) -> Result<Header, String> {
    let mut first = String::new();
    fs::File::open(path)
        .and_then(|file| BufReader::new(file).read_line(&mut first))
        .map_err(|e| format!("unreadable: {e}"))?;
    parse_header(&first)
}

/// Parses and validates the header, the first line of `text`.
fn parse_header(text: &str) -> Result<Header, String> {
    let first = text.lines().next().ok_or("empty cache file")?;
    let header: Header =
        serde_json::from_str(first).map_err(|e| format!("bad cache header: {e}"))?;
    if header.kind != CACHE_KIND {
        return Err(format!(
            "not an exploration cache file (kind {:?})",
            header.kind
        ));
    }
    if header.format != CACHE_FORMAT {
        return Err(format!(
            "cache format {} (this build reads {})",
            header.format, CACHE_FORMAT
        ));
    }
    Ok(header)
}

/// Parses a complete cache file. Any structural defect — short body, bad
/// JSON, count mismatch — is an `Err` string for the caller to surface as
/// a degradation warning.
fn parse_entry(text: &str) -> Result<CacheEntry, String> {
    let header = parse_header(text)?;
    let mut lines = text.lines().skip(1);
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("truncated cache file: missing {what}"))
    };
    let stats: crate::ExploreStats =
        serde_json::from_str(next("stats")?).map_err(|e| format!("bad stats line: {e}"))?;
    let front: ParetoFront =
        serde_json::from_str(next("front")?).map_err(|e| format!("bad front line: {e}"))?;
    let mut candidates = Vec::with_capacity(header.candidates as usize);
    for i in 0..header.candidates {
        let row = next("candidate")?;
        candidates
            .push(serde_json::from_str(row).map_err(|e| format!("bad candidate line {i}: {e}"))?);
    }
    let mut binds = Vec::with_capacity(header.binds as usize);
    for i in 0..header.binds {
        let row = next("bind outcome")?;
        binds.push(serde_json::from_str(row).map_err(|e| format!("bad bind line {i}: {e}"))?);
    }
    Ok(CacheEntry {
        options: header.options,
        signature: header.signature,
        stats,
        front,
        candidates,
        binds,
    })
}

/// A directory of persisted exploration results.
///
/// Files are named `<options-hash>-<fingerprint>.json`; one entry per
/// (options, spec-content) pair. The directory is created lazily on the
/// first store. All I/O failures degrade: a missing directory means a cold
/// run, a corrupt file means a cold (or less warm) run plus a warning, a
/// failed write means the next run is colder than it could have been.
#[derive(Debug, Clone)]
pub struct ExploreCache {
    dir: PathBuf,
}

impl ExploreCache {
    /// A cache rooted at `dir` (not created until the first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ExploreCache { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Explores `spec`, warm-starting from the best usable persisted entry
    /// and refreshing the cache with the run's artifacts (an exact hit
    /// leaves its entry file untouched).
    ///
    /// # Errors
    ///
    /// Exactly [`crate::explore`]'s errors; cache problems degrade to
    /// warnings in the returned [`WarmSummary`], never errors.
    pub fn explore(
        &self,
        spec: &SpecificationGraph,
        options: &ExploreOptions,
        obs: &ObsSink,
    ) -> Result<WarmOutcome, ExploreError> {
        let timer = obs.start();
        let compiled = CompiledSpec::with_activation_cache(spec);
        obs.finish(phase::COMPILE, timer);
        self.explore_compiled(&compiled, options, obs)
    }

    /// [`ExploreCache::explore`] over a caller-compiled spec.
    ///
    /// # Errors
    ///
    /// See [`ExploreCache::explore`].
    pub fn explore_compiled(
        &self,
        compiled: &CompiledSpec<'_>,
        options: &ExploreOptions,
        obs: &ObsSink,
    ) -> Result<WarmOutcome, ExploreError> {
        let signature = SpecSignature::of(compiled);
        let hash = options_hash(options);
        let (prior, mut warnings) = self.load_best(&hash, &signature);
        let mut outcome = explore_warm(compiled, signature, options, prior.as_ref(), obs)?;
        // An exact hit was loaded from the file the entry would be stored
        // under, and re-renders to the same bytes: nothing to write.
        if outcome.summary.mode != WarmMode::Exact {
            if let Err(w) = self.store(&hash, &outcome.entry) {
                warnings.push(w);
            }
        }
        warnings.append(&mut outcome.summary.warnings);
        outcome.summary.warnings = warnings;
        Ok(outcome)
    }

    /// Scans the directory for entries under `options_hash` and returns the
    /// one admitting the warmest re-exploration of `signature`, plus any
    /// degradation warnings. Ranking reads headers only; the winner's body
    /// is parsed last, falling back to the next-best on corruption.
    fn load_best(
        &self,
        options_hash: &str,
        signature: &SpecSignature,
    ) -> (Option<CacheEntry>, Vec<String>) {
        let mut warnings = Vec::new();
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return (None, warnings); // no cache yet: a plain cold run
        };
        let mut names: Vec<String> = dir
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| {
                name.strip_prefix(options_hash)
                    .is_some_and(|rest| rest.starts_with('-') && rest.ends_with(".json"))
            })
            .collect();
        names.sort_unstable();
        // Rank: warmer mode first, then fewer changed units, then name for
        // determinism.
        let mut ranked: Vec<(WarmMode, u64, String)> = Vec::new();
        for name in names {
            match read_header(&self.dir.join(&name)) {
                Ok(header) => {
                    let Some(d) = spec_delta(&header.signature, signature) else {
                        continue; // different spec shape: simply not useful
                    };
                    ranked.push((d.mode, d.delta_units, name));
                }
                Err(e) => warnings.push(format!("ignoring cache file {name}: {e}")),
            }
        }
        ranked.sort_unstable();
        for (_, _, name) in ranked {
            let parsed = fs::read_to_string(self.dir.join(&name))
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|text| parse_entry(&text));
            match parsed {
                Ok(entry) => return (Some(entry), warnings),
                Err(e) => warnings.push(format!("ignoring corrupt cache file {name}: {e}")),
            }
        }
        (None, warnings)
    }

    /// Persists `entry` under its options hash and fingerprint. Errors are
    /// returned as warning strings, never propagated.
    ///
    /// The body goes to a temporary file unique to this process and call,
    /// which is then renamed onto the final name, so a concurrent reader
    /// sees either the previous entry or the new one, never a truncated
    /// file. The temporary name does not end in `.json`, so `load_best`
    /// never picks it up, and it is removed when either the write (a full
    /// disk, say) or the rename fails.
    fn store(&self, options_hash: &str, entry: &CacheEntry) -> Result<(), String> {
        static STORES: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", self.dir.display()))?;
        let name = format!("{options_hash}-{}.json", entry.signature.fingerprint);
        let body = render_entry(entry, options_hash)?;
        let store = STORES.fetch_add(1, Ordering::Relaxed);
        let temp = self
            .dir
            .join(format!(".{name}.{}-{store}.tmp", std::process::id()));
        fs::write(&temp, body)
            .and_then(|()| fs::rename(&temp, self.dir.join(&name)))
            .map_err(|e| {
                let _ = fs::remove_file(&temp);
                format!("cannot write cache file {name}: {e}")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExploreStats;
    use flexplore_hgraph::{PortDirection, PortTarget, Scope};
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs};

    /// The explore-module test spec, parameterized so edits hit exactly one
    /// signature layer: `v2_cpu_latency` is binding-only, `asic_cost` is
    /// enumeration-level.
    fn spec(v2_cpu_latency: u64, asic_cost: u64) -> SpecificationGraph {
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
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(asic_cost));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(10));
        a.connect(cpu, bus).unwrap();
        a.connect(bus, asic).unwrap();

        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(sink, cpu, Time::from_ns(10)).unwrap();
        s.add_mapping(v1, cpu, Time::from_ns(95)).unwrap();
        s.add_mapping(v1, asic, Time::from_ns(5)).unwrap();
        s.add_mapping(v2, cpu, Time::from_ns(v2_cpu_latency))
            .unwrap();
        s
    }

    fn run_warm(s: &SpecificationGraph, prior: Option<&CacheEntry>) -> WarmOutcome {
        let compiled = CompiledSpec::with_activation_cache(s);
        explore_compiled_warm(
            &compiled,
            &ExploreOptions::paper(),
            prior,
            &ObsSink::disabled(),
        )
        .unwrap()
    }

    /// Stats with the warm bookkeeping zeroed — what must match cold.
    fn cold_view(mut stats: ExploreStats) -> ExploreStats {
        stats.allocations.warm_hits = 0;
        stats.allocations.warm_invalidated = 0;
        stats.allocations.delta_units = 0;
        stats
    }

    fn front_json(outcome: &WarmOutcome) -> String {
        serde_json::to_string(&outcome.result.front).unwrap()
    }

    #[test]
    fn unchanged_spec_replays_exactly() {
        let s = spec(20, 80);
        let cold = run_warm(&s, None);
        assert_eq!(cold.summary.mode, WarmMode::Cold);
        assert_eq!(cold.summary.warm_hits, 0);
        let warm = run_warm(&s, Some(&cold.entry));
        assert_eq!(warm.summary.mode, WarmMode::Exact);
        assert_eq!(warm.summary.delta_units, 0);
        assert!(warm.summary.warm_hits > 0);
        assert_eq!(front_json(&warm), front_json(&cold));
        assert_eq!(cold_view(warm.result.stats), cold_view(cold.result.stats));
    }

    #[test]
    fn latency_edit_replays_the_enumeration() {
        let cold_old = run_warm(&spec(20, 80), None);
        let edited = spec(21, 80);
        let cold_new = run_warm(&edited, None);
        let warm = run_warm(&edited, Some(&cold_old.entry));
        assert_eq!(warm.summary.mode, WarmMode::Replay);
        assert_eq!(warm.summary.delta_units, 1);
        assert_eq!(front_json(&warm), front_json(&cold_new));
        assert_eq!(
            cold_view(warm.result.stats),
            cold_view(cold_new.result.stats),
            "replayed counters must be byte-identical to a cold run on the edited spec"
        );
        // The replayed entry must itself warm the next run fully.
        let again = run_warm(&edited, Some(&warm.entry));
        assert_eq!(again.summary.mode, WarmMode::Exact);
        assert_eq!(front_json(&again), front_json(&cold_new));
    }

    #[test]
    fn cost_edit_reseeds_the_lattice_walk() {
        let cold_old = run_warm(&spec(20, 80), None);
        let edited = spec(20, 81);
        let cold_new = run_warm(&edited, None);
        let warm = run_warm(&edited, Some(&cold_old.entry));
        assert_eq!(warm.summary.mode, WarmMode::Seeded);
        assert_eq!(warm.summary.delta_units, 1);
        assert_eq!(front_json(&warm), front_json(&cold_new));
        assert_eq!(
            cold_view(warm.result.stats),
            cold_view(cold_new.result.stats)
        );
    }

    #[test]
    fn different_options_run_cold() {
        let s = spec(20, 80);
        let cold = run_warm(&s, None);
        let compiled = CompiledSpec::with_activation_cache(&s);
        let exhaustive = ExploreOptions::exhaustive();
        let warm = explore_compiled_warm(
            &compiled,
            &exhaustive,
            Some(&cold.entry),
            &ObsSink::disabled(),
        )
        .unwrap();
        assert_eq!(warm.summary.mode, WarmMode::Cold);
        assert!(!warm.summary.warnings.is_empty());
    }

    #[test]
    fn entry_round_trips_through_the_line_format() {
        let cold = run_warm(&spec(20, 80), None);
        let hash = options_hash(&ExploreOptions::paper());
        let body = render_entry(&cold.entry, &hash).unwrap();
        let parsed = parse_entry(&body).unwrap();
        assert_eq!(parsed.signature, cold.entry.signature);
        assert_eq!(parsed.stats, cold.entry.stats);
        assert_eq!(parsed.candidates, cold.entry.candidates);
        assert_eq!(parsed.binds.len(), cold.entry.binds.len());
        assert_eq!(
            serde_json::to_string(&parsed.front).unwrap(),
            serde_json::to_string(&cold.entry.front).unwrap()
        );
        // Re-rendering the parsed entry reproduces the bytes.
        assert_eq!(render_entry(&parsed, &hash).unwrap(), body);
    }

    #[test]
    fn disk_cache_warms_and_corruption_degrades_with_a_warning() {
        let dir =
            std::env::temp_dir().join(format!("flexplore-warmstart-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ExploreCache::new(&dir);
        let s = spec(20, 80);
        let options = ExploreOptions::paper();
        let obs = ObsSink::disabled();

        let cold = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(cold.summary.mode, WarmMode::Cold);
        assert!(cold.summary.warnings.is_empty());

        let warm = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(warm.summary.mode, WarmMode::Exact);
        assert_eq!(front_json(&warm), front_json(&cold));

        // Corrupt every cache file: the next run is cold with warnings,
        // same result, and heals the cache.
        for entry in fs::read_dir(&dir).unwrap() {
            fs::write(entry.unwrap().path(), "{ not json").unwrap();
        }
        let degraded = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(degraded.summary.mode, WarmMode::Cold);
        assert!(!degraded.summary.warnings.is_empty());
        assert_eq!(front_json(&degraded), front_json(&cold));
        let healed = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(healed.summary.mode, WarmMode::Exact);

        // An entry stamped with the previous format (as an older build
        // wrote it) also degrades gracefully, and is rewritten.
        let stamp = format!("\"format\":{CACHE_FORMAT}");
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = fs::read_to_string(&path).unwrap();
            let mutated = text.replacen(&stamp, "\"format\":1", 1);
            assert_ne!(mutated, text, "format stamp not found in header");
            fs::write(&path, mutated).unwrap();
        }
        let mismatched = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(mismatched.summary.mode, WarmMode::Cold);
        assert!(!mismatched.summary.warnings.is_empty());
        assert_eq!(front_json(&mismatched), front_json(&cold));
        let rewritten = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(rewritten.summary.mode, WarmMode::Exact);
        assert!(rewritten.summary.warnings.is_empty());

        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn exact_hit_leaves_the_entry_file_untouched() {
        use std::os::unix::fs::MetadataExt;
        let dir =
            std::env::temp_dir().join(format!("flexplore-warmstart-exact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ExploreCache::new(&dir);
        let s = spec(20, 80);
        let options = ExploreOptions::paper();
        let obs = ObsSink::disabled();
        let cold = cache.explore(&s, &options, &obs).unwrap();
        let path = dir.join(format!(
            "{}-{}.json",
            options_hash(&options),
            cold.summary.fingerprint
        ));
        let before = fs::metadata(&path).unwrap();
        let exact = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(exact.summary.mode, WarmMode::Exact);
        let after = fs::metadata(&path).unwrap();
        assert_eq!(after.ino(), before.ino(), "the entry file was replaced");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache file nested far deeper than any entry is rejected by the
    /// parser's depth limit: the run degrades to a warned cold run.
    #[test]
    fn deeply_nested_cache_file_degrades_to_a_warned_cold_run() {
        let dir =
            std::env::temp_dir().join(format!("flexplore-warmstart-deep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ExploreCache::new(&dir);
        let s = spec(20, 80);
        let options = ExploreOptions::paper();
        let obs = ObsSink::disabled();
        let cold = cache.explore(&s, &options, &obs).unwrap();
        let deep = format!("{}{}\n", "[".repeat(100_000), "]".repeat(100_000));
        for entry in fs::read_dir(&dir).unwrap() {
            fs::write(entry.unwrap().path(), &deep).unwrap();
        }
        let degraded = cache.explore(&s, &options, &obs).unwrap();
        assert_eq!(degraded.summary.mode, WarmMode::Cold);
        assert!(!degraded.summary.warnings.is_empty());
        assert_eq!(front_json(&degraded), front_json(&cold));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_body_of_the_best_entry_falls_back_to_the_next_best() {
        let dir = std::env::temp_dir().join(format!(
            "flexplore-warmstart-fallback-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = ExploreCache::new(&dir);
        let options = ExploreOptions::paper();
        let obs = ObsSink::disabled();
        let edited = spec(21, 80);
        cache.explore(&spec(20, 80), &options, &obs).unwrap();
        let replayed = cache.explore(&edited, &options, &obs).unwrap();
        assert_eq!(replayed.summary.mode, WarmMode::Replay);

        // Keep only the header of the edited spec's entry: it still ranks
        // first (exact), but its body fails to parse, so the run falls
        // back to the unedited spec's entry.
        let name = format!(
            "{}-{}.json",
            options_hash(&options),
            replayed.summary.fingerprint
        );
        let text = fs::read_to_string(dir.join(&name)).unwrap();
        let header = text.lines().next().unwrap();
        fs::write(dir.join(&name), format!("{header}\n")).unwrap();
        let fallback = cache.explore(&edited, &options, &obs).unwrap();
        assert_eq!(fallback.summary.mode, WarmMode::Replay);
        assert!(
            fallback.summary.warnings.iter().any(|w| w.contains(&name)),
            "{:?}",
            fallback.summary.warnings
        );
        assert_eq!(front_json(&fallback), front_json(&replayed));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_hash_is_thread_invariant() {
        let base = ExploreOptions::paper();
        let mut threaded = ExploreOptions::paper().with_threads(8);
        threaded.allocation.threads = 4;
        assert_eq!(options_hash(&base), options_hash(&threaded));
        assert_ne!(
            options_hash(&base),
            options_hash(&ExploreOptions::exhaustive())
        );
    }
}
