//! Simulation time: the [`Cycle`] newtype.
//!
//! All timing in the stack is expressed in *fabric clock cycles* (the FPGA
//! clock domain). Other clock domains (the CPU) are converted at their edges
//! by the components that model them.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) simulated time, in fabric clock cycles.
///
/// `Cycle` is used both as an absolute timestamp and as a duration; the
/// arithmetic below is what a timing model needs, and saturating subtraction
/// keeps accidental negative durations from panicking deep inside a model.
///
/// # Example
///
/// ```
/// use svmsyn_sim::Cycle;
/// let start = Cycle(100);
/// let done = start + Cycle(28);
/// assert_eq!(done.0, 128);
/// assert_eq!(done - start, Cycle(28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);
    /// The largest representable time; used as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the later of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// Converts a cycle count at `freq_mhz` into microseconds.
    #[must_use]
    pub fn as_micros(self, freq_mhz: f64) -> f64 {
        self.0 as f64 / freq_mhz
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl svmsyn_snap::Snap for Cycle {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(Cycle(r.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Cycle(3) + Cycle(4), Cycle(7));
        assert_eq!(Cycle(3) + 4u64, Cycle(7));
        assert_eq!(Cycle(9) - Cycle(4), Cycle(5));
        let mut c = Cycle(1);
        c += Cycle(2);
        c += 3u64;
        assert_eq!(c, Cycle(6));
        c -= Cycle(1);
        assert_eq!(c, Cycle(5));
    }

    #[test]
    fn min_max_saturating() {
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
        assert_eq!(Cycle(3).saturating_sub(Cycle(9)), Cycle::ZERO);
        assert_eq!(Cycle(9).saturating_sub(Cycle(3)), Cycle(6));
    }

    #[test]
    fn conversions_and_display() {
        let c: Cycle = 42u64.into();
        let v: u64 = c.into();
        assert_eq!(v, 42);
        assert_eq!(c.to_string(), "42cy");
        assert_eq!(Cycle(100).as_micros(100.0), 1.0);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    fn ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle::ZERO, Cycle(0));
        assert!(Cycle::MAX > Cycle(u64::MAX - 1));
    }
}
