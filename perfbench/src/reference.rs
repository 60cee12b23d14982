//! Independent correctness references, computed before any timing.
//!
//! A spec with at most [`EXHAUSTIVE_MAX_UNITS`] allocatable units is
//! checked against `exhaustive_explore` (no pruning, no warm cache, one
//! thread). Wider specs are explored once with the static lattice
//! analysis off, and every mode of every point on that front is re-checked
//! with `SpecificationGraph::check_binding`.

use flexplore::spec::allocatable_units;
use flexplore::{
    exhaustive_explore, explore, paper_pareto_table, ExploreOptions, ParetoFront,
    SpecificationGraph,
};

/// `(cost in dollars, flexibility)` per front point, in cost order.
pub type Objectives = Vec<(u64, u64)>;

/// Widest spec the exhaustive reference still enumerates quickly.
const EXHAUSTIVE_MAX_UNITS: usize = 16;

pub fn objectives(front: &ParetoFront) -> Objectives {
    front
        .objectives()
        .into_iter()
        .map(|(cost, f)| (cost.dollars(), f))
        .collect()
}

/// Whether `front` is the reference front: the same points, and strictly
/// increasing in both cost and flexibility, so no point dominates another.
pub fn front_matches(front: &[(u64, u64)], reference: &[(u64, u64)]) -> bool {
    front == reference
        && front
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1)
}

/// The reference front of `spec`.
///
/// # Errors
///
/// A description of the first failed check.
pub fn reference_front(spec: &SpecificationGraph) -> Result<Objectives, String> {
    if allocatable_units(spec).len() <= EXHAUSTIVE_MAX_UNITS {
        let result = exhaustive_explore(spec).map_err(|e| format!("exhaustive: {e}"))?;
        return Ok(objectives(&result.front));
    }
    let mut options = ExploreOptions::paper();
    options.allocation.analysis = false;
    let result = explore(spec, &options).map_err(|e| format!("reference explore: {e}"))?;
    for point in &result.front {
        let implementation = point
            .implementation
            .as_ref()
            .ok_or("front point without an implementation")?;
        let allocated = implementation
            .allocation
            .available_vertices(spec.architecture());
        for mode in &implementation.modes {
            spec.check_binding(&mode.mode, &allocated, &mode.binding)
                .map_err(|v| format!("front point {}: {v:?}", point.cost))?;
        }
    }
    let front = objectives(&result.front);
    if !front_matches(&front, &front) {
        return Err("reference front has a dominated point".into());
    }
    Ok(front)
}

/// The set-top-box front must be the paper's Section 5 table.
pub fn matches_paper_table(front: &[(u64, u64)]) -> bool {
    let table: Objectives = paper_pareto_table()
        .into_iter()
        .map(|(_, cost, f)| (cost, f))
        .collect();
    front == table
}

/// The checker must reject a deliberately perturbed front: one point's
/// flexibility raised, or one point dropped.
pub fn self_test(reference: &[(u64, u64)]) -> Result<(), String> {
    let mut raised = reference.to_vec();
    if let Some(last) = raised.last_mut() {
        last.1 += 1;
    }
    let dropped = &reference[..reference.len().saturating_sub(1)];
    if front_matches(&raised, reference) || front_matches(dropped, reference) {
        return Err("the front checker accepted a perturbed front".into());
    }
    Ok(())
}

/// Computes `f(item)` for every item on up to `threads` threads, in order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("reference worker panicked")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("reference worker panicked")
        .into_iter()
        .map(|r| r.expect("every item computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore::set_top_box;

    #[test]
    fn set_top_box_reference_is_the_paper_table() {
        let front = reference_front(&set_top_box().spec).unwrap();
        assert!(matches_paper_table(&front));
        self_test(&front).unwrap();
    }

    #[test]
    fn dominated_points_fail_the_check() {
        let front = [(100, 2), (120, 2)];
        assert!(!front_matches(&front, &front));
    }
}
