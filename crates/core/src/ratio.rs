//! Exact rational arithmetic for stage weights and periods.
//!
//! Stage weights are `sum / r` where `sum` is an integer sum of task weights
//! and `r` a core count, so every achievable period is a rational with a
//! small denominator. Using exact rationals (instead of `f64`) makes every
//! scheduler deterministic and lets the test suite check HeRAD's optimality
//! bit-for-bit, including the tie-breaking on core usage.

use core::cmp::Ordering;
use core::fmt;

/// A non-negative rational number with exact comparison semantics.
///
/// The value `num / den` is kept gcd-normalized. A zero denominator encodes
/// positive infinity (used for the weight of a stage with zero cores, as in
/// Eq. (1) of the paper). All finite values use `u128` arithmetic internally;
/// cross-multiplication never overflows for the magnitudes this library
/// produces (weight sums far below 2^64, denominators bounded by core counts
/// times a few binary-search halvings).
#[derive(Clone, Copy)]
pub struct Ratio {
    num: u128,
    den: u128,
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ratio {}

impl Ratio {
    /// Exact zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// Positive infinity (weight of an unschedulable stage).
    pub const INFINITY: Ratio = Ratio { num: 1, den: 0 };

    /// Builds `num / den`, normalizing by the gcd. `den == 0` yields
    /// [`Ratio::INFINITY`] regardless of `num`.
    #[must_use]
    pub fn new(num: u128, den: u128) -> Self {
        if den == 0 {
            return Self::INFINITY;
        }
        if num == 0 {
            return Self::ZERO;
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Builds `num / den` without gcd normalization. Comparison and equality
    /// cross-multiply (with an exact equal-denominator shortcut that
    /// compares numerators directly), so unnormalized values behave
    /// identically; only [`Ratio::numer`]/[`Ratio::denom`] and the
    /// `Display` output differ. Used where a raw form must survive as is:
    /// HeRAD hands its raw `u64` DP periods out through it, so
    /// `optimal_period` keeps the `sum/cores` form the recurrence found.
    #[must_use]
    pub fn new_raw(num: u128, den: u128) -> Self {
        if den == 0 {
            Self::INFINITY
        } else {
            Ratio { num, den }
        }
    }

    /// Builds the integer value `n`.
    #[must_use]
    pub fn from_int(n: u64) -> Self {
        Ratio {
            num: u128::from(n),
            den: 1,
        }
    }

    /// Numerator of the normalized fraction (1 for infinity).
    #[must_use]
    pub fn numer(self) -> u128 {
        self.num
    }

    /// Denominator of the normalized fraction (0 for infinity).
    #[must_use]
    pub fn denom(self) -> u128 {
        self.den
    }

    /// Whether this value is positive infinity.
    #[must_use]
    pub fn is_infinite(self) -> bool {
        self.den == 0
    }

    /// Whether this value is finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.den != 0
    }

    /// Whether this value is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.num == 0 && self.den != 0
    }

    /// Exact difference, saturating at zero (periods are non-negative).
    /// `INFINITY - x` is infinity; `x - INFINITY` saturates to zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Ratio) -> Ratio {
        if self.is_infinite() {
            return Self::INFINITY;
        }
        if rhs.is_infinite() {
            return Self::ZERO;
        }
        let left = self.num * rhs.den;
        let right = rhs.num * self.den;
        if left <= right {
            return Self::ZERO;
        }
        Ratio::new(left - right, self.den * rhs.den)
    }

    /// Exact midpoint `(self + rhs) / 2` for the binary search in
    /// `Schedule` (Algorithm 1). Requires both operands finite.
    #[must_use]
    pub fn midpoint(self, rhs: Ratio) -> Ratio {
        debug_assert!(self.is_finite() && rhs.is_finite());
        Ratio::new(
            self.num * rhs.den + rhs.num * self.den,
            2 * self.den * rhs.den,
        )
    }

    /// Exact division by a positive integer.
    #[must_use]
    pub fn div_int(self, rhs: u64) -> Ratio {
        if self.is_infinite() {
            return Self::INFINITY;
        }
        Ratio::new(self.num, self.den * u128::from(rhs))
    }

    /// `ceil(self / rhs)` for a finite, positive `rhs`: the number of cores
    /// needed so that `self / cores <= rhs` (`RequiredCores`, Algorithm 3).
    /// Returns `None` when `self` is infinite.
    #[must_use]
    pub fn div_ceil(self, rhs: Ratio) -> Option<u64> {
        debug_assert!(rhs.is_finite() && !rhs.is_zero());
        if self.is_infinite() {
            return None;
        }
        // ceil((n1/d1) / (n2/d2)) = ceil(n1*d2 / (d1*n2))
        let num = self.num * rhs.den;
        let den = self.den * rhs.num;
        Some(u64::try_from(num.div_ceil(den)).expect("core count overflows u64"))
    }

    /// Lossy conversion for reporting (throughputs, tables). Infinity maps
    /// to `f64::INFINITY`.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        if self.is_infinite() {
            f64::INFINITY
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

impl core::ops::Add for Ratio {
    type Output = Ratio;

    /// Exact sum. Infinity absorbs.
    fn add(self, rhs: Ratio) -> Ratio {
        if self.is_infinite() || rhs.is_infinite() {
            return Self::INFINITY;
        }
        Ratio::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_infinite(), other.is_infinite()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // Equal denominators (common among periods: integer weights
            // share den == 1, and weights over the same core count share
            // a denominator) order by numerator alone — the cross-
            // multiplication scales both sides by the same positive
            // factor, so skipping it is exact, not approximate.
            (false, false) if self.den == other.den => self.num.cmp(&other.num),
            (false, false) => (self.num * other.den).cmp(&(other.num * self.den)),
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_on_construction() {
        let r = Ratio::new(6, 4);
        assert_eq!(r.numer(), 3);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn zero_den_is_infinity() {
        assert!(Ratio::new(5, 0).is_infinite());
        assert_eq!(Ratio::new(5, 0), Ratio::INFINITY);
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(2, 3) > Ratio::new(3, 5));
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
    }

    #[test]
    fn infinity_dominates() {
        assert!(Ratio::INFINITY > Ratio::from_int(u64::MAX));
        assert_eq!(Ratio::INFINITY, Ratio::INFINITY);
        assert_eq!(Ratio::INFINITY + Ratio::ZERO, Ratio::INFINITY);
    }

    #[test]
    fn midpoint_is_exact() {
        let m = Ratio::new(1, 2).midpoint(Ratio::new(1, 3));
        assert_eq!(m, Ratio::new(5, 12));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Ratio::new(1, 2).saturating_sub(Ratio::new(3, 4)),
            Ratio::ZERO
        );
        assert_eq!(
            Ratio::new(3, 4).saturating_sub(Ratio::new(1, 2)),
            Ratio::new(1, 4)
        );
        assert_eq!(
            Ratio::from_int(1).saturating_sub(Ratio::INFINITY),
            Ratio::ZERO
        );
    }

    #[test]
    fn div_ceil_counts_cores() {
        // weight 10 at period 3 -> 4 cores
        assert_eq!(Ratio::from_int(10).div_ceil(Ratio::from_int(3)), Some(4));
        // weight 9 at period 3 -> exactly 3
        assert_eq!(Ratio::from_int(9).div_ceil(Ratio::from_int(3)), Some(3));
        // fractional period
        assert_eq!(Ratio::from_int(10).div_ceil(Ratio::new(7, 2)), Some(3));
        assert_eq!(Ratio::INFINITY.div_ceil(Ratio::from_int(1)), None);
    }

    #[test]
    fn equal_denominator_fast_path_is_exact() {
        // Unnormalized values with a shared denominator: the numerator
        // shortcut must agree with full cross-multiplication.
        assert!(Ratio::new_raw(6, 4) < Ratio::new_raw(10, 4));
        assert!(Ratio::new_raw(10, 4) > Ratio::new_raw(6, 4));
        assert_eq!(Ratio::new_raw(6, 4), Ratio::new_raw(6, 4));
        assert_eq!(
            Ratio::new_raw(6, 4).cmp(&Ratio::new_raw(6, 4)),
            Ordering::Equal
        );
        // Same value, different denominators still goes the exact
        // cross-multiply route.
        assert_eq!(Ratio::new_raw(6, 4), Ratio::new_raw(3, 2));
        // den == 1 integers (the dominant DP case).
        assert!(Ratio::new_raw(7, 1) < Ratio::new_raw(9, 1));
        // Zero-denominator operands never take the shortcut.
        assert!(Ratio::new_raw(5, 0) > Ratio::new_raw(u128::MAX, 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ratio::new(3, 2)), "3/2");
        assert_eq!(format!("{}", Ratio::from_int(7)), "7");
        assert_eq!(format!("{}", Ratio::INFINITY), "inf");
    }
}
