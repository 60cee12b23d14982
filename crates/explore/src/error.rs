//! Error type of the exploration layer.

use flexplore_bind::BindError;
use std::error::Error;
use std::fmt;

/// Error returned by the exploration entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The architecture has more allocatable units than the configured
    /// enumeration bound (`2^units` subsets would be scanned).
    TooManyUnits {
        /// Allocatable units found.
        units: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The architecture has more allocatable units than the lattice
    /// search's subset masks can index ([`flexplore_spec::MAX_UNITS`]),
    /// regardless of `max_units`.
    UnitOverflow {
        /// Allocatable units found.
        units: usize,
        /// The subset-mask capacity.
        limit: usize,
    },
    /// The summed cost of all allocatable units does not fit in a `u64`,
    /// so some allocation's cost would wrap.
    CostOverflow,
    /// A per-allocation implementation attempt exceeded a bound.
    Bind(BindError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyUnits { units, max } => {
                write!(f, "{units} allocatable units exceed the bound of {max}")
            }
            ExploreError::UnitOverflow { units, limit } => {
                write!(
                    f,
                    "{units} allocatable units exceed the {limit} the enumerator can index"
                )
            }
            ExploreError::CostOverflow => {
                write!(f, "the summed cost of all allocatable units exceeds u64")
            }
            ExploreError::Bind(e) => write!(f, "binding: {e}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Bind(e) => Some(e),
            ExploreError::TooManyUnits { .. }
            | ExploreError::UnitOverflow { .. }
            | ExploreError::CostOverflow => None,
        }
    }
}

impl From<BindError> for ExploreError {
    fn from(e: BindError) -> Self {
        ExploreError::Bind(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ExploreError::TooManyUnits { units: 40, max: 26 };
        assert!(e.to_string().contains("40"));
        assert!(e.source().is_none());
        let b: ExploreError = BindError::TooManyActivations { limit: 7 }.into();
        assert!(b.source().is_some());
        assert!(b.to_string().contains('7'));
        let o = ExploreError::UnitOverflow {
            units: 300,
            limit: 256,
        };
        assert!(o.to_string().contains("300"));
        assert!(o.to_string().contains("256"));
        assert!(o.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ExploreError>();
    }
}
