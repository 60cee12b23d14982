//! Utilization-based schedulability bounds for rate-monotonic scheduling.
//!
//! The paper accepts or rejects implementations with *"a maximal processor
//! utilization of 69 %"*, citing Liu & Layland [7]. That 69 % is the limit
//! `lim_{n→∞} n(2^{1/n} − 1) = ln 2 ≈ 0.6931`. This module provides:
//!
//! * the paper's fixed 69 % test ([`PAPER_UTILIZATION_LIMIT`],
//!   [`fits_paper_limit`]) — computed in exact integer arithmetic;
//! * the exact Liu–Layland bound for `n` tasks ([`liu_layland_bound`]);
//! * the hyperbolic bound of Bini & Buttazzo ([`hyperbolic_test`]), which is
//!   strictly less pessimistic than Liu–Layland.

use crate::task::{utilization, TaskSet};
use crate::time::Time;

/// The paper's utilization limit: 69 % (the asymptotic Liu–Layland bound,
/// `ln 2`, rounded to two digits as used in the case study).
pub const PAPER_UTILIZATION_LIMIT_PERCENT: u64 = 69;

/// The paper's utilization limit as a fraction.
pub const PAPER_UTILIZATION_LIMIT: f64 = 0.69;

/// The paper's feasibility test in exact integer arithmetic: does a demand
/// of `demand` time units within every window of `period` time units keep
/// the processor at or below 69 % utilization?
///
/// This is the test the case study applies verbatim: the game console on
/// µP2 is rejected because `95 + 90 ≰ 0.69 · 240`, while the digital TV
/// chain passes because `95 + 45 ≤ 0.69 · 300`.
///
/// # Examples
///
/// ```
/// use flexplore_sched::{fits_paper_limit, Time};
///
/// // Game console on µP2 (paper, Section 5): rejected.
/// assert!(!fits_paper_limit(Time::from_ns(95 + 90), Time::from_ns(240)));
/// // Digital TV on µP2: accepted.
/// assert!(fits_paper_limit(Time::from_ns(95 + 45), Time::from_ns(300)));
/// ```
#[must_use]
pub fn fits_paper_limit(demand: Time, period: Time) -> bool {
    // demand / period ≤ 69/100  ⇔  demand · 100 ≤ 69 · period, in u128
    // so that no u64 operand can overflow it.
    u128::from(demand.as_ns()) * 100
        <= u128::from(PAPER_UTILIZATION_LIMIT_PERCENT) * u128::from(period.as_ns())
}

/// The Liu–Layland utilization bound for `n` tasks: `n (2^{1/n} − 1)`.
///
/// Any task set of `n` rate-monotonically scheduled tasks with total
/// utilization at or below this bound is schedulable. For `n = 0` the bound
/// is defined as 1.0 (an empty set is trivially schedulable).
///
/// # Examples
///
/// ```
/// use flexplore_sched::liu_layland_bound;
///
/// assert_eq!(liu_layland_bound(1), 1.0);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
/// // The asymptote is ln 2 ≈ 0.693 — the paper's "69 % limit".
/// assert!((liu_layland_bound(10_000) - std::f64::consts::LN_2).abs() < 1e-4);
/// ```
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Sufficient Liu–Layland test: total utilization against the `n`-task
/// bound.
///
/// Returns `true` if the set is guaranteed schedulable under rate-monotonic
/// priorities. A `false` answer is inconclusive (the bound is sufficient,
/// not necessary) — use [`crate::rta::rta_schedulable`] for an exact
/// verdict.
#[must_use]
pub fn liu_layland_test(set: &TaskSet) -> bool {
    liu_layland_demands(set.demands())
}

/// [`liu_layland_test`] over rate-monotonic `(wcet, period)` demands.
pub(crate) fn liu_layland_demands<I>(demands: I) -> bool
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    let n = demands.clone().count();
    total_utilization(demands) <= liu_layland_bound(n) + 1e-12
}

/// Hyperbolic bound (Bini & Buttazzo): the set is schedulable if
/// `Π (U_i + 1) ≤ 2`.
///
/// Strictly dominates the Liu–Layland test: every set accepted by
/// Liu–Layland is accepted here, and some sets rejected there are accepted.
/// Like Liu–Layland it is sufficient but not necessary.
#[must_use]
pub fn hyperbolic_test(set: &TaskSet) -> bool {
    hyperbolic_demands(set.demands())
}

/// [`hyperbolic_test`] over `(wcet, period)` demands.
pub(crate) fn hyperbolic_demands(demands: impl Iterator<Item = (Time, Time)>) -> bool {
    let product: f64 = demands.map(|(c, p)| utilization(c, p) + 1.0).product();
    product <= 2.0 + 1e-12
}

/// `Σ wcet_i / period_i`, summed in demand order (the order
/// [`TaskSet::utilization`] sums in, so both agree bit for bit).
fn total_utilization(demands: impl Iterator<Item = (Time, Time)>) -> f64 {
    demands.map(|(c, p)| utilization(c, p)).sum()
}

/// Returns `true` if the task set's periods form a harmonic chain: each
/// period divides every longer period.
///
/// Harmonic task sets are RM-schedulable up to 100 % utilization, so the
/// Liu–Layland and 69 % bounds are maximally pessimistic on them — the
/// classic motivation for exact analysis.
///
/// # Examples
///
/// ```
/// use flexplore_sched::{is_harmonic, Task, TaskSet, Time};
///
/// let harmonic: TaskSet = [
///     Task::new("a", Time::from_ns(1), Time::from_ns(100)),
///     Task::new("b", Time::from_ns(1), Time::from_ns(200)),
///     Task::new("c", Time::from_ns(1), Time::from_ns(400)),
/// ]
/// .into_iter()
/// .collect();
/// assert!(is_harmonic(&harmonic));
/// ```
#[must_use]
pub fn is_harmonic(set: &TaskSet) -> bool {
    let tasks = set.tasks();
    tasks.windows(2).all(|w| {
        let shorter = w[0].period().as_ns();
        let longer = w[1].period().as_ns();
        longer % shorter == 0
    })
}

/// Applies the paper's 69 % limit to a whole task set (total utilization
/// against the constant bound).
///
/// This is the multi-task generalization of [`fits_paper_limit`] used when
/// several timing-constrained applications share a resource.
#[must_use]
pub fn paper_limit_test(set: &TaskSet) -> bool {
    paper_limit_demands(set.demands())
}

/// [`paper_limit_test`] over rate-monotonic `(wcet, period)` demands.
pub(crate) fn paper_limit_demands<I>(demands: I) -> bool
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    // Exact rational comparison: Σ c_i/p_i ≤ 69/100
    //   ⇔ Σ (c_i · 100 · Π_{j≠i} p_j) ≤ 69 · Π p_j
    // To avoid overflow with many tasks we fall back to f64 beyond 4 tasks,
    // or when the products overflow u128 (periods near u64::MAX); the
    // integer path keeps the paper's single-application checks exact.
    if demands.clone().count() <= 4 {
        if let Some(fits) = paper_limit_exact(demands.clone()) {
            return fits;
        }
    }
    total_utilization(demands) <= PAPER_UTILIZATION_LIMIT + 1e-12
}

/// The exact integer form of [`paper_limit_demands`], or `None` when an
/// intermediate product overflows `u128`.
fn paper_limit_exact<I>(mut demands: I) -> Option<bool>
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    let periods = || demands.clone().map(|(_, p)| u128::from(p.as_ns()));
    if periods().any(|p| p == 0) {
        return Some(true);
    }
    let prod = periods().try_fold(1u128, u128::checked_mul)?;
    let lhs = demands.try_fold(0u128, |sum, (c, p)| {
        let term = u128::from(c.as_ns())
            .checked_mul(100)?
            .checked_mul(prod / u128::from(p.as_ns()))?;
        sum.checked_add(term)
    })?;
    Some(lhs <= u128::from(PAPER_UTILIZATION_LIMIT_PERCENT).checked_mul(prod)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn set(entries: &[(u64, u64)]) -> TaskSet {
        entries
            .iter()
            .enumerate()
            .map(|(k, &(c, p))| Task::new(format!("t{k}"), Time::from_ns(c), Time::from_ns(p)))
            .collect()
    }

    #[test]
    fn paper_case_study_verdicts() {
        // Game on µP2: 95 + 90 within 240 -> reject.
        assert!(!fits_paper_limit(Time::from_ns(185), Time::from_ns(240)));
        // Game on µP1: 75 + 70 within 240 -> accept (145 <= 165.6).
        assert!(fits_paper_limit(Time::from_ns(145), Time::from_ns(240)));
        // TV on µP2: 95 + 45 within 300 -> accept (140 <= 207).
        assert!(fits_paper_limit(Time::from_ns(140), Time::from_ns(300)));
    }

    #[test]
    fn paper_limit_boundary_is_inclusive() {
        // 69 exactly out of 100.
        assert!(fits_paper_limit(Time::from_ns(69), Time::from_ns(100)));
        assert!(!fits_paper_limit(Time::from_ns(70), Time::from_ns(100)));
    }

    #[test]
    fn ll_bound_values() {
        assert_eq!(liu_layland_bound(0), 1.0);
        assert_eq!(liu_layland_bound(1), 1.0);
        assert!((liu_layland_bound(2) - (2.0 * (2f64.sqrt() - 1.0))).abs() < 1e-12);
        assert!((liu_layland_bound(3) - 0.7798).abs() < 1e-4);
        // Monotonically decreasing towards ln 2.
        for n in 1..50 {
            assert!(liu_layland_bound(n) >= liu_layland_bound(n + 1));
            assert!(liu_layland_bound(n) >= std::f64::consts::LN_2);
        }
    }

    #[test]
    fn ll_test_accepts_below_bound() {
        // Two tasks, U = 0.7 < 0.828.
        let s = set(&[(35, 100), (35, 100)]);
        assert!(liu_layland_test(&s));
        // U = 0.9 > 0.828.
        let s = set(&[(45, 100), (45, 100)]);
        assert!(!liu_layland_test(&s));
    }

    #[test]
    fn hyperbolic_dominates_liu_layland() {
        // Known example: U1 = U2 = 0.41 -> LL rejects (0.82 < 0.828? no,
        // 0.82 <= 0.8284 accepts) — use 0.43 each: U = 0.86 > 0.8284 so LL
        // rejects, hyperbolic: 1.43^2 = 2.0449 > 2 rejects too. Use
        // asymmetric: U1 = 0.5, U2 = 0.33: product = 1.5*1.33 = 1.995 <= 2
        // accepted, sum = 0.83 > 0.8284 rejected by LL.
        let s = set(&[(50, 100), (33, 100)]);
        assert!(!liu_layland_test(&s));
        assert!(hyperbolic_test(&s));
    }

    #[test]
    fn hyperbolic_rejects_overload() {
        let s = set(&[(60, 100), (60, 100)]);
        assert!(!hyperbolic_test(&s));
    }

    #[test]
    fn paper_limit_test_multi_task() {
        // 0.3 + 0.3 = 0.6 <= 0.69.
        assert!(paper_limit_test(&set(&[(30, 100), (30, 100)])));
        // 0.4 + 0.35 = 0.75 > 0.69.
        assert!(!paper_limit_test(&set(&[(40, 100), (35, 100)])));
        // Exact boundary with heterogeneous periods: 23/100 + 23/50 = 0.69.
        assert!(paper_limit_test(&set(&[(23, 100), (23, 50)])));
        // One above.
        assert!(!paper_limit_test(&set(&[(24, 100), (23, 50)])));
    }

    #[test]
    fn paper_limit_test_empty_and_large() {
        assert!(paper_limit_test(&TaskSet::new()));
        // >4 tasks exercises the float path.
        let s = set(&[(10, 100); 6]);
        assert!(paper_limit_test(&s)); // 0.6 <= 0.69
        let s = set(&[(12, 100); 6]);
        assert!(!paper_limit_test(&s)); // 0.72 > 0.69
    }
    /// Periods and demands at `u64::MAX` overflow the exact integer
    /// products; the test falls back to the float path instead of
    /// panicking (debug) or wrapping (release).
    #[test]
    fn paper_limit_survives_periods_at_u64_max() {
        let max = u64::MAX;
        assert!(paper_limit_test(&set(&[(1, max), (1, max), (1, max)])));
        assert!(!paper_limit_test(&set(&[(max, max), (1, max)])));
        assert!(!fits_paper_limit(Time::from_ns(max), Time::from_ns(max)));
        assert!(fits_paper_limit(Time::from_ns(1), Time::from_ns(max)));
    }

    #[test]
    fn harmonic_detection() {
        assert!(is_harmonic(&set(&[(1, 100), (1, 200), (1, 400)])));
        assert!(!is_harmonic(&set(&[(1, 100), (1, 150)])));
        assert!(is_harmonic(&set(&[(1, 100)])));
        assert!(is_harmonic(&TaskSet::new()));
    }

    #[test]
    fn harmonic_sets_schedule_to_full_utilization() {
        use crate::rta::rta_schedulable;
        let s = set(&[(50, 100), (100, 200)]);
        assert!(is_harmonic(&s));
        assert!((s.utilization() - 1.0).abs() < 1e-12);
        assert!(rta_schedulable(&s));
        assert!(!paper_limit_test(&s));
    }
}
