//! Exact response-time analysis (RTA) for fixed-priority preemptive
//! scheduling.
//!
//! The paper leaves exact scheduling analysis to future work and uses the
//! 69 % utilization estimate instead. We provide RTA as the exact reference
//! the estimates are validated against in tests and ablation benches: for
//! implicit-deadline periodic tasks under rate-monotonic priorities, task
//! `i`'s worst-case response time is the least fixed point of
//!
//! ```text
//! R_i = C_i + Σ_{j < i} ⌈R_i / T_j⌉ · C_j
//! ```
//!
//! and the set is schedulable iff `R_i ≤ T_i` for all `i`.

use crate::task::TaskSet;
use crate::time::Time;

/// Computes the worst-case response time of the task at `index` within
/// `set` (rate-monotonic order, higher priority = smaller index), or `None`
/// if the iteration diverges past the task's period (deadline miss).
///
/// # Panics
///
/// Panics if `index` is out of bounds.
#[must_use]
pub fn response_time(set: &TaskSet, index: usize) -> Option<Time> {
    let task = &set.tasks()[index];
    demand_response_time(set.demands().take(index), task.wcet(), task.period())
}

/// The response-time fixed point of a demand `(wcet, period)` below the
/// `higher`-priority demands.
fn demand_response_time<I>(higher: I, wcet: Time, period: Time) -> Option<Time>
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    let mut r = wcet;
    loop {
        let interference: Time = higher.clone().map(|(c, t)| c * r.div_ceil(t)).sum();
        let next = wcet + interference;
        if next > period {
            return None; // deadline miss; fixed point (if any) is past T_i
        }
        if next == r {
            return Some(r);
        }
        r = next;
    }
}

/// Exact schedulability test: `true` iff every task meets its implicit
/// deadline under rate-monotonic fixed-priority preemptive scheduling.
///
/// # Examples
///
/// ```
/// use flexplore_sched::{rta_schedulable, Task, TaskSet, Time};
///
/// let set: TaskSet = [
///     Task::new("fast", Time::from_ns(20), Time::from_ns(100)),
///     Task::new("slow", Time::from_ns(150), Time::from_ns(350)),
/// ]
/// .into_iter()
/// .collect();
/// assert!(rta_schedulable(&set));
/// ```
#[must_use]
pub fn rta_schedulable(set: &TaskSet) -> bool {
    rta_demands(set.demands())
}

/// [`rta_schedulable`] over rate-monotonic `(wcet, period)` demands.
pub(crate) fn rta_demands<I>(demands: I) -> bool
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    demands
        .clone()
        .enumerate()
        .all(|(i, (c, p))| demand_response_time(demands.clone().take(i), c, p).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{hyperbolic_test, liu_layland_test};
    use crate::task::Task;

    fn set(entries: &[(u64, u64)]) -> TaskSet {
        entries
            .iter()
            .enumerate()
            .map(|(k, &(c, p))| Task::new(format!("t{k}"), Time::from_ns(c), Time::from_ns(p)))
            .collect()
    }

    #[test]
    fn single_task_response_is_wcet() {
        let s = set(&[(30, 100)]);
        assert_eq!(response_time(&s, 0), Some(Time::from_ns(30)));
    }

    #[test]
    fn classic_liu_layland_example() {
        // C = (20, 40, 100), T = (100, 150, 350): U ≈ 0.752, schedulable.
        let s = set(&[(20, 100), (40, 150), (100, 350)]);
        assert!(rta_schedulable(&s));
        // Lowest-priority response: 20+40+100 = 160, then interference
        // recomputes: ⌈160/100⌉*20 + ⌈160/150⌉*40 = 40+80 -> 220;
        // ⌈220/100⌉*20+⌈220/150⌉*40 = 60+80 -> 240; ⌈240/100⌉*20=60,
        // ⌈240/150⌉*40=80 -> 240 fixed point.
        assert_eq!(response_time(&s, 2), Some(Time::from_ns(240)));
    }

    #[test]
    fn overload_misses_deadline() {
        let s = set(&[(60, 100), (60, 100)]);
        assert!(!rta_schedulable(&s));
        assert_eq!(response_time(&s, 1), None);
    }

    #[test]
    fn full_utilization_harmonic_set_is_schedulable() {
        // Harmonic periods allow 100% utilization.
        let s = set(&[(50, 100), (100, 200)]);
        assert!((s.utilization() - 1.0).abs() < 1e-12);
        assert!(rta_schedulable(&s));
        // ...which both utilization bounds reject.
        assert!(!liu_layland_test(&s));
        assert!(!hyperbolic_test(&s));
    }

    #[test]
    fn rta_accepts_everything_the_bounds_accept() {
        // Spot-check the dominance hierarchy on a grid of 2-task sets.
        for c1 in (5..50).step_by(5) {
            for c2 in (5..80).step_by(5) {
                let s = set(&[(c1, 100), (c2, 170)]);
                if liu_layland_test(&s) {
                    assert!(hyperbolic_test(&s), "LL ⊆ hyperbolic violated: {s:?}");
                }
                if hyperbolic_test(&s) {
                    assert!(rta_schedulable(&s), "hyperbolic ⊆ RTA violated: {s:?}");
                }
            }
        }
    }

    #[test]
    fn empty_set_is_schedulable() {
        assert!(rta_schedulable(&TaskSet::new()));
    }
}
