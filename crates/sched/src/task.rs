//! Periodic task model.
//!
//! The paper validates timing constraints with a utilization estimate in the
//! style of Liu & Layland [7]: every timing-constrained output process
//! imposes a minimal period, and the processes executing within that period
//! on a resource form an implicitly periodic task set.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error type of task construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// A task was given a zero period. A zero period admits no schedule
    /// (the task would have to complete in no time, forever), so such a
    /// task can never pass any schedulability test.
    ZeroPeriod {
        /// Name of the offending task.
        task: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroPeriod { task } => {
                write!(f, "task {task:?} has a zero period (no schedule admits it)")
            }
        }
    }
}

impl Error for SchedError {}

/// A periodic task: a worst-case execution time (`wcet`) recurring every
/// `period`.
///
/// # Examples
///
/// ```
/// use flexplore_sched::{Task, Time};
///
/// // The paper's digital-TV chain on µP2: P_D1 (95 ns) at a 300 ns period.
/// let t = Task::new("P_D1", Time::from_ns(95), Time::from_ns(300));
/// assert!((t.utilization() - 95.0 / 300.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    name: String,
    wcet: Time,
    period: Time,
}

impl Task {
    /// Creates a periodic task.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (a zero period admits no schedule).
    /// Library code validating untrusted models should prefer
    /// [`Task::try_new`].
    #[must_use]
    pub fn new(name: impl Into<String>, wcet: Time, period: Time) -> Self {
        match Task::try_new(name, wcet, period) {
            Ok(task) => task,
            Err(e) => panic!("task period must be positive: {e}"),
        }
    }

    /// Creates a periodic task, rejecting degenerate parameters with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ZeroPeriod`] if `period` is zero.
    pub fn try_new(name: impl Into<String>, wcet: Time, period: Time) -> Result<Self, SchedError> {
        let name = name.into();
        if period <= Time::ZERO {
            return Err(SchedError::ZeroPeriod { task: name });
        }
        Ok(Task { name, wcet, period })
    }

    /// Returns the task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the worst-case execution time.
    #[must_use]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// Returns the period (equal to the implicit deadline).
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Returns the utilization `wcet / period` of this task.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        utilization(self.wcet, self.period)
    }
}

/// The utilization `wcet / period` of one periodic demand.
pub(crate) fn utilization(wcet: Time, period: Time) -> f64 {
    wcet.as_ns() as f64 / period.as_ns() as f64
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}/{})", self.name, self.wcet, self.period)
    }
}

/// A set of periodic tasks sharing one processing resource.
///
/// The set keeps tasks in rate-monotonic order (shortest period first),
/// which is the priority order assumed by [`rta_schedulable`] and the
/// utilization bounds.
///
/// [`rta_schedulable`]: crate::rta_schedulable
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty task set.
    #[must_use]
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Adds a task, keeping rate-monotonic order.
    pub fn push(&mut self, task: Task) {
        let pos = self.tasks.partition_point(|t| t.period() <= task.period());
        self.tasks.insert(pos, task);
    }

    /// Returns the tasks in rate-monotonic (shortest-period-first) order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Returns the number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the set has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Returns the total utilization `Σ wcet_i / period_i`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Iterates over the tasks in rate-monotonic order.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// The `(wcet, period)` demands of the tasks, in rate-monotonic order:
    /// the input of [`SchedPolicy::accepts_demands`](crate::SchedPolicy::accepts_demands).
    pub(crate) fn demands(&self) -> impl Iterator<Item = (Time, Time)> + Clone + '_ {
        self.tasks.iter().map(|t| (t.wcet, t.period))
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<T: IntoIterator<Item = Task>>(iter: T) -> Self {
        let mut set = TaskSet::new();
        for t in iter {
            set.push(t);
        }
        set
    }
}

impl Extend<Task> for TaskSet {
    fn extend<T: IntoIterator<Item = Task>>(&mut self, iter: T) {
        for t in iter {
            self.push(t);
        }
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, c: u64, p: u64) -> Task {
        Task::new(name, Time::from_ns(c), Time::from_ns(p))
    }

    #[test]
    fn task_accessors() {
        let task = t("a", 10, 40);
        assert_eq!(task.name(), "a");
        assert_eq!(task.wcet().as_ns(), 10);
        assert_eq!(task.period().as_ns(), 40);
        assert!((task.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(task.to_string(), "a(10ns/40ns)");
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = t("bad", 1, 0);
    }

    #[test]
    fn try_new_reports_zero_period_as_typed_error() {
        let err = Task::try_new("bad", Time::from_ns(1), Time::ZERO).unwrap_err();
        assert_eq!(
            err,
            SchedError::ZeroPeriod {
                task: "bad".to_owned()
            }
        );
        assert!(err.to_string().contains("zero period"));
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SchedError>();
    }

    #[test]
    fn try_new_accepts_positive_periods() {
        let task = Task::try_new("ok", Time::from_ns(10), Time::from_ns(40)).unwrap();
        assert_eq!(task.period(), Time::from_ns(40));
    }

    #[test]
    fn set_keeps_rate_monotonic_order() {
        let set: TaskSet = [t("slow", 10, 100), t("fast", 5, 10), t("mid", 7, 50)]
            .into_iter()
            .collect();
        let periods: Vec<u64> = set.iter().map(|t| t.period().as_ns()).collect();
        assert_eq!(periods, vec![10, 50, 100]);
    }

    #[test]
    fn set_utilization_sums() {
        let set: TaskSet = [t("a", 10, 100), t("b", 25, 100)].into_iter().collect();
        assert!((set.utilization() - 0.35).abs() < 1e-12);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn empty_set() {
        let set = TaskSet::new();
        assert!(set.is_empty());
        assert_eq!(set.utilization(), 0.0);
    }

    #[test]
    fn extend_preserves_order() {
        let mut set = TaskSet::new();
        set.extend([t("a", 1, 30), t("b", 1, 10)]);
        assert_eq!(set.tasks()[0].name(), "b");
    }

    #[test]
    fn equal_periods_keep_insertion_stability() {
        let mut set = TaskSet::new();
        set.push(t("first", 1, 10));
        set.push(t("second", 1, 10));
        assert_eq!(set.tasks()[0].name(), "first");
        assert_eq!(set.tasks()[1].name(), "second");
    }
}
