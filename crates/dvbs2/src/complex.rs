//! Minimal complex arithmetic for the signal-processing blocks (avoids an
//! extra dependency; only the operations the chain needs).

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex sample, `f32` parts (what SDR front-ends produce).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct C32 {
    /// Real (in-phase) part.
    pub re: f32,
    /// Imaginary (quadrature) part.
    pub im: f32,
}

impl C32 {
    /// Builds `re + j·im`.
    #[must_use]
    pub fn new(re: f32, im: f32) -> Self {
        C32 { re, im }
    }

    /// Zero.
    pub const ZERO: C32 = C32 { re: 0.0, im: 0.0 };

    /// `e^{jθ}`.
    #[must_use]
    pub fn from_angle(theta: f32) -> Self {
        C32::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        C32::new(self.re, -self.im)
    }

    /// Squared magnitude.
    #[must_use]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[must_use]
    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Argument in `(-π, π]`.
    #[must_use]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f32) -> Self {
        C32::new(self.re * k, self.im * k)
    }
}

impl Add for C32 {
    type Output = C32;
    fn add(self, rhs: C32) -> C32 {
        C32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C32 {
    fn add_assign(&mut self, rhs: C32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C32 {
    type Output = C32;
    fn sub(self, rhs: C32) -> C32 {
        C32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C32 {
    type Output = C32;
    fn mul(self, rhs: C32) -> C32 {
        C32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for C32 {
    type Output = C32;
    fn neg(self) -> C32 {
        C32::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = C32::new(1.0, 2.0);
        let b = C32::new(3.0, -1.0);
        assert_eq!(a + b, C32::new(4.0, 1.0));
        assert_eq!(a - b, C32::new(-2.0, 3.0));
        // (1+2j)(3-j) = 3 - j + 6j - 2j^2 = 5 + 5j
        assert_eq!(a * b, C32::new(5.0, 5.0));
        assert_eq!(-a, C32::new(-1.0, -2.0));
    }

    #[test]
    fn polar_identities() {
        let z = C32::from_angle(std::f32::consts::FRAC_PI_3);
        assert!((z.abs() - 1.0).abs() < 1e-6);
        assert!((z.arg() - std::f32::consts::FRAC_PI_3).abs() < 1e-6);
        assert!((z * z.conj()).im.abs() < 1e-6);
        assert!(((z * z.conj()).re - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scale_and_norm() {
        let z = C32::new(3.0, 4.0);
        assert!((z.norm_sq() - 25.0).abs() < 1e-6);
        assert!((z.abs() - 5.0).abs() < 1e-6);
        assert_eq!(z.scale(2.0), C32::new(6.0, 8.0));
    }
}
