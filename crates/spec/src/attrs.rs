//! Attributes annotated to specification-graph components.
//!
//! The paper: *"Additional parameters, like priorities, power consumption,
//! latencies, etc., which are used for formulating implementational and
//! functional constraints are annotated to the components of `G_S`."*
//! We carry exactly the attributes the evaluation uses: allocation costs on
//! resources, execution latencies on mapping edges, minimal output periods
//! and utilization-negligibility on processes.

use flexplore_sched::Time;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Allocation cost of a resource, in the paper's dollar units.
///
/// # Examples
///
/// ```
/// use flexplore_spec::Cost;
///
/// let total: Cost = [Cost::new(100), Cost::new(10), Cost::new(60)]
///     .into_iter()
///     .sum();
/// assert_eq!(total, Cost::new(170));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cost(u64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0);

    /// Creates a cost from a dollar amount.
    #[must_use]
    pub const fn new(dollars: u64) -> Self {
        Cost(dollars)
    }

    /// Returns the dollar amount.
    #[must_use]
    pub const fn dollars(self) -> u64 {
        self.0
    }

    /// The sum of two costs, or `None` when it does not fit in a `u64`.
    #[must_use]
    pub fn checked_add(self, rhs: Cost) -> Option<Cost> {
        self.0.checked_add(rhs.0).map(Cost)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<u64> for Cost {
    fn from(dollars: u64) -> Self {
        Cost(dollars)
    }
}

/// Attributes of a problem-graph process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ProcessAttrs {
    /// Minimal output period, if the process is timing-constrained.
    ///
    /// In the case study, `P_D` carries 240 ns and `P_U1`/`P_U2` carry
    /// 300 ns: *"Timing constraints […] are given by the minimal periods of
    /// the output processes."*
    pub period: Option<Time>,
    /// Excluded from utilization estimation.
    ///
    /// Section 5 neglects the authentication process (runs once at start-up)
    /// and the TV controller process (≈0.01 % of calls) when estimating
    /// utilization; this flag marks such processes.
    pub negligible: bool,
}

impl ProcessAttrs {
    /// Attributes of an unconstrained, utilization-relevant process.
    #[must_use]
    pub fn new() -> Self {
        ProcessAttrs::default()
    }

    /// Builder: sets the minimal output period.
    #[must_use]
    pub fn with_period(mut self, period: Time) -> Self {
        self.period = Some(period);
        self
    }

    /// Builder: marks the process as negligible for utilization estimation.
    #[must_use]
    pub fn negligible(mut self) -> Self {
        self.negligible = true;
        self
    }
}

/// Whether a resource executes processes or carries communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// A functional resource (processor, ASIC, FPGA design slot): processes
    /// can be bound to it via mapping edges.
    Functional,
    /// A communication resource (bus): carries data between functional
    /// resources it is connected to, but never executes processes.
    Communication,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Functional => f.write_str("functional"),
            ResourceKind::Communication => f.write_str("communication"),
        }
    }
}

/// Attributes of an architecture-graph resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceAttrs {
    /// Allocation cost of the resource.
    pub cost: Cost,
    /// Functional or communication resource.
    pub kind: ResourceKind,
}

impl ResourceAttrs {
    /// Attributes of a functional resource with the given cost.
    #[must_use]
    pub fn functional(cost: Cost) -> Self {
        ResourceAttrs {
            cost,
            kind: ResourceKind::Functional,
        }
    }

    /// Attributes of a communication resource with the given cost.
    #[must_use]
    pub fn communication(cost: Cost) -> Self {
        ResourceAttrs {
            cost,
            kind: ResourceKind::Communication,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic_and_display() {
        let mut c = Cost::new(100);
        c += Cost::new(20);
        assert_eq!(c, Cost::new(120));
        assert_eq!((c + Cost::new(10)).dollars(), 130);
        assert_eq!(c.to_string(), "$120");
        assert_eq!(Cost::from(5u64), Cost::new(5));
        assert_eq!(Cost::ZERO.dollars(), 0);
    }

    #[test]
    fn cost_orders_numerically() {
        assert!(Cost::new(100) < Cost::new(230));
    }

    #[test]
    fn process_attrs_builders() {
        let a = ProcessAttrs::new()
            .with_period(Time::from_ns(240))
            .negligible();
        assert_eq!(a.period, Some(Time::from_ns(240)));
        assert!(a.negligible);
        let d = ProcessAttrs::default();
        assert_eq!(d.period, None);
        assert!(!d.negligible);
    }

    #[test]
    fn resource_attrs_constructors() {
        let f = ResourceAttrs::functional(Cost::new(100));
        assert_eq!(f.kind, ResourceKind::Functional);
        assert_eq!(f.cost, Cost::new(100));
        let c = ResourceAttrs::communication(Cost::new(10));
        assert_eq!(c.kind, ResourceKind::Communication);
        assert_eq!(c.kind.to_string(), "communication");
    }
}
