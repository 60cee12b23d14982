//! Pluggable schedulability policies.
//!
//! The binding solver (`flexplore-bind`) asks one question per resource:
//! *"is this set of periodic demands schedulable here?"*. The paper answers
//! with its 69 % estimate; [`SchedPolicy`] lets every analysis in this crate
//! answer the same question so that ablation experiments can swap the test
//! without touching the solver.

use crate::bounds::{hyperbolic_demands, liu_layland_demands, paper_limit_demands};
use crate::rta::rta_demands;
use crate::task::TaskSet;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which schedulability test to apply to per-resource task sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SchedPolicy {
    /// The paper's test: total utilization at or below the fixed 69 % limit
    /// (asymptotic Liu–Layland bound). This is the default because it is
    /// what the case study uses.
    #[default]
    PaperLimit69,
    /// The exact `n`-task Liu–Layland bound `n(2^{1/n} − 1)`.
    LiuLayland,
    /// The hyperbolic bound of Bini & Buttazzo (`Π(U_i + 1) ≤ 2`).
    Hyperbolic,
    /// Exact response-time analysis under rate-monotonic priorities.
    ResponseTime,
}

impl SchedPolicy {
    /// Returns `true` if `set` is accepted as schedulable by this policy.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexplore_sched::{SchedPolicy, Task, TaskSet, Time};
    ///
    /// // Harmonic set at 100 % utilization: only RTA accepts it.
    /// let set: TaskSet = [
    ///     Task::new("a", Time::from_ns(50), Time::from_ns(100)),
    ///     Task::new("b", Time::from_ns(100), Time::from_ns(200)),
    /// ]
    /// .into_iter()
    /// .collect();
    /// assert!(!SchedPolicy::PaperLimit69.accepts(&set));
    /// assert!(SchedPolicy::ResponseTime.accepts(&set));
    /// ```
    #[must_use]
    pub fn accepts(&self, set: &TaskSet) -> bool {
        self.accepts_demands(set.demands())
    }

    /// Returns `true` if the periodic demands `(wcet, period)` on one
    /// resource are accepted as schedulable by this policy. Demands come
    /// in rate-monotonic order (shortest period first, the priority order
    /// of a [`TaskSet`]), and every period is positive.
    ///
    /// Every policy's arithmetic lives here: [`accepts`](Self::accepts)
    /// and the set-level tests (`paper_limit_test`, `liu_layland_test`,
    /// `hyperbolic_test`, `rta_schedulable`) delegate to it, and callers
    /// that keep their own demand lists (the binding solver) evaluate
    /// them without building named tasks.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexplore_sched::{SchedPolicy, Time};
    ///
    /// let ns = Time::from_ns;
    /// // The paper's game console on µP2: 95 + 90 within 240 ns.
    /// let demands = [(ns(95), ns(240)), (ns(90), ns(240))];
    /// assert!(!SchedPolicy::PaperLimit69.accepts_demands(demands));
    /// ```
    #[must_use]
    pub fn accepts_demands<I>(&self, demands: I) -> bool
    where
        I: IntoIterator<Item = (Time, Time)>,
        I::IntoIter: Clone,
    {
        let demands = demands.into_iter();
        match self {
            SchedPolicy::PaperLimit69 => paper_limit_demands(demands),
            SchedPolicy::LiuLayland => liu_layland_demands(demands),
            SchedPolicy::Hyperbolic => hyperbolic_demands(demands),
            SchedPolicy::ResponseTime => rta_demands(demands),
        }
    }

    /// All policies, for sweeping in benches.
    #[must_use]
    pub fn all() -> [SchedPolicy; 4] {
        [
            SchedPolicy::PaperLimit69,
            SchedPolicy::LiuLayland,
            SchedPolicy::Hyperbolic,
            SchedPolicy::ResponseTime,
        ]
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchedPolicy::PaperLimit69 => "paper-69%",
            SchedPolicy::LiuLayland => "liu-layland",
            SchedPolicy::Hyperbolic => "hyperbolic",
            SchedPolicy::ResponseTime => "rta",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::time::Time;

    fn set(entries: &[(u64, u64)]) -> TaskSet {
        entries
            .iter()
            .enumerate()
            .map(|(k, &(c, p))| Task::new(format!("t{k}"), Time::from_ns(c), Time::from_ns(p)))
            .collect()
    }

    #[test]
    fn policies_form_a_dominance_chain_on_paper_accepted_sets() {
        // Anything the 69 % limit accepts, every other policy accepts too
        // (69 % <= LL bound for all n; LL ⊆ hyperbolic ⊆ exact).
        for c1 in (1..40).step_by(3) {
            for c2 in (1..60).step_by(7) {
                let s = set(&[(c1, 100), (c2, 150)]);
                if SchedPolicy::PaperLimit69.accepts(&s) {
                    for p in SchedPolicy::all() {
                        assert!(p.accepts(&s), "{p} rejected a paper-accepted set");
                    }
                }
            }
        }
    }

    #[test]
    fn default_is_paper_limit() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::PaperLimit69);
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedPolicy::PaperLimit69.to_string(), "paper-69%");
        assert_eq!(SchedPolicy::ResponseTime.to_string(), "rta");
    }

    #[test]
    fn all_lists_four_policies() {
        assert_eq!(SchedPolicy::all().len(), 4);
    }
}
