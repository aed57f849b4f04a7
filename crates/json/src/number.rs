//! JSON number representation.
//!
//! Transaction amounts are non-negative integer share counts in the formal
//! model, so exact integer representation matters: a `u64`/`i64` is kept
//! when possible and floats are only used when the source text demands it.

use std::cmp::Ordering;
use std::fmt;

/// A JSON number: either an exact 64-bit integer or a double.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Exact signed integer (covers all asset share amounts).
    Int(i64),
    /// Exact unsigned integer for values above `i64::MAX`.
    UInt(u64),
    /// IEEE-754 double; never NaN (NaN is rejected at construction).
    Float(f64),
}

impl Number {
    /// Returns the value as `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::UInt(u) => i64::try_from(u).ok(),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Returns the value as `u64` if exactly representable and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::Int(i) => u64::try_from(i).ok(),
            Number::UInt(u) => Some(u),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
        }
    }

    /// Returns the value as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        }
    }

    /// True when the number is an exact integer representation.
    pub fn is_integer(&self) -> bool {
        matches!(self, Number::Int(_) | Number::UInt(_))
    }

    /// Writes the number in its canonical textual form.
    ///
    /// Integers print exactly; floats use Rust's shortest round-trip
    /// formatting, which is stable across runs and platforms.
    pub fn write_canonical(&self, out: &mut String) {
        match *self {
            Number::Int(i) => {
                out.push_str(itoa_i64(i).as_str());
            }
            Number::UInt(u) => {
                out.push_str(itoa_u64(u).as_str());
            }
            Number::Float(f) => {
                if f == f.trunc() && f.abs() < 1e15 {
                    // Keep "1.0"-style floats distinguishable from ints is
                    // NOT desired in canonical JSON: 1.0 serializes as "1.0"
                    // in display form, but canonically an integral float is
                    // emitted without the fraction only if it parsed as a
                    // float, so round-tripping stays exact. We emit "x.0".
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            }
        }
    }
}

fn itoa_i64(v: i64) -> String {
    v.to_string()
}

fn itoa_u64(v: u64) -> String {
    v.to_string()
}

impl Number {
    /// The value exactly: an integer variant widened to `i128`, or the
    /// float.
    fn exact(&self) -> Result<i128, f64> {
        match *self {
            Number::Int(i) => Ok(i128::from(i)),
            Number::UInt(u) => Ok(i128::from(u)),
            Number::Float(f) => Err(f),
        }
    }
}

/// Orders an integer against a float without rounding either: the
/// float's whole part is compared as an integer, then its fraction
/// breaks a tie. Integers lie in `[-2^63, 2^64)`, so a float beyond
/// ±2^64 is decided by its sign alone.
fn cmp_int_float(n: i128, f: f64) -> Option<Ordering> {
    const TWO_64: f64 = 18_446_744_073_709_551_616.0;
    if f.is_nan() {
        return None;
    }
    if f >= TWO_64 {
        return Some(Ordering::Less);
    }
    if f <= -TWO_64 {
        return Some(Ordering::Greater);
    }
    let whole = f.trunc();
    // `whole` is integral and below 2^64 in magnitude, so the cast and
    // the subtraction are both exact.
    let by_whole = n.cmp(&(whole as i128));
    Some(by_whole.then(0.0.partial_cmp(&(f - whole))?))
}

/// Exact numeric equality: an integral float equals the one integer it
/// is (`1 == 1.0`, which the store's filters rely on), and no integer
/// equals a float it merely rounds to.
impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

/// Exact numeric order: integers compare as integers, and an integer
/// compares with a float without either being rounded.
impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self.exact(), other.exact()) {
            (Ok(a), Ok(b)) => Some(a.cmp(&b)),
            (Ok(a), Err(b)) => cmp_int_float(a, b),
            (Err(a), Ok(b)) => cmp_int_float(b, a).map(Ordering::reverse),
            (Err(a), Err(b)) => a.partial_cmp(&b),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_canonical(&mut s);
        f.write_str(&s)
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}

impl From<u64> for Number {
    fn from(v: u64) -> Self {
        if let Ok(i) = i64::try_from(v) {
            Number::Int(i)
        } else {
            Number::UInt(v)
        }
    }
}

impl From<u32> for Number {
    fn from(v: u32) -> Self {
        Number::Int(v as i64)
    }
}

impl From<i32> for Number {
    fn from(v: i32) -> Self {
        Number::Int(v as i64)
    }
}

impl From<usize> for Number {
    fn from(v: usize) -> Self {
        Number::from(v as u64)
    }
}

impl From<f64> for Number {
    fn from(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN is not representable in JSON");
        Number::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_uint_cross_equality() {
        assert_eq!(Number::Int(5), Number::UInt(5));
        assert_ne!(Number::Int(-5), Number::UInt(5));
    }

    #[test]
    fn as_i64_from_float_requires_exactness() {
        assert_eq!(Number::Float(4.0).as_i64(), Some(4));
        assert_eq!(Number::Float(4.5).as_i64(), None);
    }

    #[test]
    fn as_u64_rejects_negative() {
        assert_eq!(Number::Int(-1).as_u64(), None);
        assert_eq!(Number::Float(-0.5).as_u64(), None);
        assert_eq!(Number::UInt(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn ordering_across_variants() {
        assert!(Number::Int(1) < Number::UInt(2));
        assert!(Number::Float(1.5) > Number::Int(1));
        assert!(Number::UInt(u64::MAX) > Number::Int(i64::MAX));
    }

    #[test]
    fn integral_floats_equal_their_integer() {
        assert_eq!(Number::Int(1), Number::Float(1.0));
        assert_eq!(Number::Float(-3.0), Number::Int(-3));
        assert_eq!(
            Number::UInt(1 << 63),
            Number::Float(9_223_372_036_854_775_808.0)
        );
        assert_ne!(Number::Int(1), Number::Float(1.5));
    }

    #[test]
    fn equality_never_rounds_the_integer() {
        let two_53 = 1i64 << 53;
        assert_ne!(Number::Int(two_53 + 1), Number::Float(two_53 as f64));
        assert_ne!(Number::Float(two_53 as f64), Number::Int(two_53 + 1));
        assert_eq!(Number::Int(two_53), Number::Float(two_53 as f64));
        // u64::MAX rounds to 2^64 as an f64, but is one less.
        assert_ne!(Number::UInt(u64::MAX), Number::Float(u64::MAX as f64));
        assert_ne!(Number::Float(u64::MAX as f64), Number::UInt(u64::MAX));
    }

    #[test]
    fn ordering_at_the_rounding_edges() {
        let two_53 = 1i64 << 53;
        let f = Number::Float(two_53 as f64);
        assert!(Number::Int(two_53 + 1) > f);
        assert!(f < Number::Int(two_53 + 1));
        assert!(Number::Int(two_53 - 1) < f);
        assert_eq!(Number::Int(two_53).partial_cmp(&f), Some(Ordering::Equal));
        let two_64 = Number::Float(u64::MAX as f64);
        assert!(Number::UInt(u64::MAX) < two_64);
        assert!(two_64 > Number::UInt(u64::MAX));
        assert!(Number::Int(i64::MIN) > Number::Float(-1e30));
        assert!(Number::Int(i64::MIN) == Number::Float(i64::MIN as f64));
        assert!(Number::Int(0) > Number::Float(-0.5));
        assert!(Number::Int(-1) < Number::Float(-0.5));
        assert!(Number::Float(f64::INFINITY) > Number::UInt(u64::MAX));
    }

    #[test]
    fn canonical_formatting() {
        let mut s = String::new();
        Number::Int(-42).write_canonical(&mut s);
        assert_eq!(s, "-42");
        s.clear();
        Number::Float(1.0).write_canonical(&mut s);
        assert_eq!(s, "1.0");
        s.clear();
        Number::Float(0.25).write_canonical(&mut s);
        assert_eq!(s, "0.25");
    }

    #[test]
    fn from_u64_prefers_int() {
        assert!(matches!(Number::from(7u64), Number::Int(7)));
        assert!(matches!(Number::from(u64::MAX), Number::UInt(_)));
    }
}
