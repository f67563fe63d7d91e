//! The two-type resource model: `R = (b, l)` big and little cores.

use std::fmt;

/// The two core types of a heterogeneous (big.LITTLE-style) processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreType {
    /// High-performance ("big", P-) core.
    Big,
    /// High-efficiency ("little", E-) core.
    Little,
}

impl CoreType {
    /// Both core types, in the order 2CATAC explores them (Algorithm 5).
    pub const BOTH: [CoreType; 2] = [CoreType::Big, CoreType::Little];

    /// The other core type.
    #[must_use]
    pub fn other(self) -> CoreType {
        match self {
            CoreType::Big => CoreType::Little,
            CoreType::Little => CoreType::Big,
        }
    }

    /// Single-letter label used in the paper's tables (`B` / `L`).
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            CoreType::Big => 'B',
            CoreType::Little => 'L',
        }
    }
}

impl fmt::Display for CoreType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A pool of cores of both types, `R = (b, l)` in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Number of big cores, `b`.
    pub big: u64,
    /// Number of little cores, `l`.
    pub little: u64,
}

impl Resources {
    /// Builds `R = (b, l)`.
    #[must_use]
    pub fn new(big: u64, little: u64) -> Self {
        Resources { big, little }
    }

    /// Total number of cores `b + l`.
    #[must_use]
    pub fn total(self) -> u64 {
        self.big + self.little
    }

    /// Cores of the given type.
    #[must_use]
    pub fn of(self, v: CoreType) -> u64 {
        match v {
            CoreType::Big => self.big,
            CoreType::Little => self.little,
        }
    }

    /// Removes `n` cores of type `v` (saturating is a bug: panics in debug
    /// if more cores are removed than available).
    #[must_use]
    pub fn minus(self, v: CoreType, n: u64) -> Resources {
        match v {
            CoreType::Big => {
                debug_assert!(n <= self.big);
                Resources::new(self.big - n, self.little)
            }
            CoreType::Little => {
                debug_assert!(n <= self.little);
                Resources::new(self.big, self.little - n)
            }
        }
    }

    /// Whether both counts are zero.
    #[must_use]
    pub fn is_exhausted(self) -> bool {
        self.big == 0 && self.little == 0
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}B, {}L)", self.big, self.little)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = Resources::new(10, 4);
        assert_eq!(r.total(), 14);
        assert_eq!(r.of(CoreType::Big), 10);
        assert_eq!(r.of(CoreType::Little), 4);
        assert!(!r.is_exhausted());
        assert!(Resources::new(0, 0).is_exhausted());
    }

    #[test]
    fn minus_removes_by_type() {
        let r = Resources::new(10, 4);
        assert_eq!(r.minus(CoreType::Big, 3), Resources::new(7, 4));
        assert_eq!(r.minus(CoreType::Little, 4), Resources::new(10, 0));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Resources::new(16, 4).to_string(), "(16B, 4L)");
        assert_eq!(CoreType::Big.to_string(), "B");
        assert_eq!(CoreType::Little.other(), CoreType::Big);
    }
}
